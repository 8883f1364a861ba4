//! End-to-end chaos test for the fleet coordinator: a `<binary> coordinate`
//! run with worker kills, torn journal tails and hung lease renewals must
//! produce a merged table byte-identical to `<binary> merge` over a
//! fault-free batch journal of the same campaign — the core crash-tolerance
//! invariant, pinned for `table1` and `table5` — and exhausted retries must
//! quarantine the poisoned range instead of wedging the fleet.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A campaign binary and the scale arguments its differential runs at.
struct Binary {
    path: &'static str,
    scale: &'static [&'static str],
}

/// Two kernels per mode: 12 jobs total (6 modes x 2), four 3-job leases.
const TABLE1: Binary = Binary {
    path: env!("CARGO_BIN_EXE_table1"),
    scale: &["2"],
};
/// Eight live bases with two pruning variants each: 8 jobs, three leases
/// (3 + 3 + 2 jobs).
const TABLE5: Binary = Binary {
    path: env!("CARGO_BIN_EXE_table5"),
    scale: &["8", "2"],
};
/// One fault in lease 1 attempt 1 (kill@3), one in lease 1 attempt 2
/// (hang@5), one in lease 2 attempt 1 (torn@7); every lease still has a
/// fault-free attempt within the default retry budget.
const FAULTS: &str = "kill@3,hang@5,torn@7";

fn command(binary: &Binary) -> Command {
    let mut cmd = Command::new(binary.path);
    // The ambient environment must not redirect the store or inject extra
    // faults into either side of the differential.
    for var in [
        "CLFUZZ_FAULTS",
        "CLFUZZ_STORE",
        "CLFUZZ_STORE_CAP",
        "FUZZ_THREADS",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clfuzz-fleet-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The canonical merged table: a fault-free single-process batch run
/// journalled to disk, refolded by the `merge` subcommand.
fn batch_baseline(binary: &Binary, dir: &Path) -> Vec<u8> {
    let journal = dir.join("batch.journal");
    let batch = command(binary)
        .args(binary.scale)
        .arg("--no-store")
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("spawn batch run");
    assert_success(&batch, "batch run");
    let merged = command(binary)
        .arg("merge")
        .arg(&journal)
        .output()
        .expect("spawn merge");
    assert_success(&merged, "batch merge");
    assert!(!merged.stdout.is_empty(), "baseline table is empty");
    merged.stdout
}

fn coordinate(
    binary: &Binary,
    fleet_dir: &Path,
    workers: &str,
    faults: &str,
    extra: &[&str],
) -> Output {
    command(binary)
        .arg("coordinate")
        .args(binary.scale)
        .arg("--no-store")
        .args(["--workers", workers])
        .args(["--lease-jobs", "3"])
        .args(["--lease-timeout-ms", "2000"])
        .args(["--faults", faults])
        .args(extra)
        .arg("--fleet-dir")
        .arg(fleet_dir)
        .output()
        .expect("spawn coordinate")
}

/// The fault differential for one binary: the fleet under [`FAULTS`] at
/// each worker count must print the batch merge's table byte for byte.
fn fleet_under_faults_matches_batch(binary: &Binary, tag: &str, worker_counts: &[&str]) {
    let dir = scratch_dir(tag);
    let baseline = batch_baseline(binary, &dir);
    for &workers in worker_counts {
        let fleet_dir = dir.join(format!("fleet-w{workers}"));
        let out = coordinate(binary, &fleet_dir, workers, FAULTS, &[]);
        assert_success(&out, &format!("fleet coordinate ({workers} workers)"));
        assert_eq!(
            out.stdout,
            baseline,
            "fleet table ({workers} workers, faults {FAULTS}) is not \
             byte-identical to the batch merge\nfleet stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The schedule must actually have fired — a silently inert fault
        // plan would make this differential vacuous.
        let worker_log =
            fs::read_to_string(fleet_dir.join("workers.log")).expect("read workers.log");
        for kind in ["kill", "hang", "torn"] {
            assert!(
                worker_log.contains(&format!("FAULT {kind}")),
                "{kind} fault never fired ({workers} workers); workers.log:\n{worker_log}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fleet_under_faults_matches_batch_at_two_worker_counts() {
    fleet_under_faults_matches_batch(&TABLE1, "diff", &["2", "3"]);
}

#[test]
fn table5_fleet_under_faults_matches_batch() {
    fleet_under_faults_matches_batch(&TABLE5, "table5-diff", &["2"]);
}

#[test]
fn exhausted_retries_quarantine_the_range_and_exit_nonzero() {
    let dir = scratch_dir("quarantine");
    let fleet_dir = dir.join("fleet");
    // Every attempt on lease 0 is killed; with a single retry the range is
    // poisoned, the rest of the fleet completes, and the coordinator exits
    // with the quarantine code instead of hanging.
    let out = coordinate(
        &TABLE1,
        &fleet_dir,
        "2",
        "kill@0x99",
        &["--max-retries", "1"],
    );
    assert_eq!(
        out.status.code(),
        Some(bench::fleet::FLEET_EXIT_QUARANTINE),
        "expected quarantine exit\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dead = fs::read_to_string(fleet_dir.join("dead-letters.log")).expect("dead-letters.log");
    assert!(
        dead.contains("DEAD 0-3"),
        "poisoned range missing from dead letters:\n{dead}"
    );
    // The surviving leases still merge into a (partial) table on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("merged from journals"),
        "partial table missing from stdout:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}
