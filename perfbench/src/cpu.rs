//! CPU time of the process, from `CLOCK_PROCESS_CPUTIME_ID`.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's clock id for the CPU time of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// User + system CPU seconds the process has used so far, threads that
/// already exited included, to the nanosecond (the `utime`/`stime` fields
/// of `/proc/self/stat` count 10 ms ticks, too coarse for one campaign).
pub fn seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}
