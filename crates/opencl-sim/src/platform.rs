//! The simulated OpenCL platform: online compilation followed by NDRange
//! execution, for a given configuration and optimisation level.
//!
//! The flow mirrors what the paper's harness observes when it hands a kernel
//! to a real driver:
//!
//! 1. the front end may reject the program (build failure) or hang
//!    (timeout);
//! 2. the optimiser runs (when enabled and when the driver optimises at all)
//!    and may *miscompile* the program — realised here by applying the
//!    configuration's triggered miscompilation transforms;
//! 3. the kernel executes on the device, where it may crash, time out or
//!    produce a result.
//!
//! Only the resulting [`TestOutcome`] is visible to the fuzzing harness.
//!
//! ## Deduplicated differential execution
//!
//! A differential harness runs the *same* kernel on dozens of
//! (configuration, optimisation level) targets, and most targets compile it
//! to a bit-identical AST; since the emulator is deterministic, those
//! targets provably share one outcome.  The platform is therefore split
//! into two phases:
//!
//! * the **front end** ([`Session::compile`]) — deterministic bug rules,
//!   background-rate rolls, optimisation passes and triggered
//!   miscompilations, producing a [`CompiledProgram`]: either an outcome
//!   decided without execution, or a compiled AST tagged with its
//!   structural [`Fingerprint`];
//! * the **execution phase** — cached by `(fingerprint, exec-relevant
//!   options)`: each distinct compiled program is launched once per
//!   distinct execution-option set, with every further target served from
//!   the cache.
//!
//! A [`Session`] carries the per-kernel state the front end reuses across
//! targets (detected [`Features`], the captured program hasher, the
//! optimised AST, the static analysis) and folds the kernel's coverage; a
//! fan-out over 42 targets typically collapses to a handful of real
//! emulator launches.
//!
//! Executions are cached at two levels with one key, `(fingerprint, exec
//! key)`, and one value, the launch's `(TestOutcome, CoverageMap)`: a
//! **process-wide cache** (sharded, mutex-striped, bounded) that
//! deduplicates within and across jobs and scheduler workers, and an
//! optional **on-disk store** ([`OutcomeStore`]) that deduplicates across
//! processes and campaigns.  Caching never changes results at either level
//! — outcomes and coverage are deterministic in the key, and the
//! `cache_equivalence` integration test pins campaign tables bit-identical
//! with caching forced off and with the store cold or warm.

use crate::bugs::{apply_miscompilation, BugEffect, Miscompilation, OptLevel};
use crate::configs::Configuration;
use crate::passes;
use crate::store::OutcomeStore;
use clc::{Features, Fingerprint, Program, ProgramHasher};
use clc_analyze::AnalysisReport;
use clc_interp::{ExecutionTier, LaunchOptions, LaunchResult, RuntimeError, Schedule};
use clsmith::{coverage_hash, CoverageClass, CoverageMap};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution options for the simulated platform.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Per-work-item step budget (mapped to the paper's 60 s timeout).
    pub step_limit: u64,
    /// Whether to run the data-race detector.
    pub detect_races: bool,
    /// Work-item scheduling order.
    pub schedule: Schedule,
    /// Extra buffer overrides (e.g. the inverted EMI `dead` array, §7.4).
    /// Behind an [`Arc`] so deriving per-launch options never copies the
    /// override data; use [`Arc::make_mut`] to edit.
    pub buffer_overrides: Arc<HashMap<String, Vec<i64>>>,
    /// Which emulator execution tier runs the kernels (defaults to the
    /// bytecode tier, `CLC_INTERP_TIER` overrides process-wide).
    pub tier: ExecutionTier,
    /// On-disk cross-campaign outcome store consulted (and populated) after
    /// the process-wide cache misses (defaults to the `CLFUZZ_STORE` store,
    /// or `None` when unset).  Like the process-wide cache, the store never
    /// changes results: outcomes and their coverage are deterministic in
    /// `(fingerprint, exec key)`.
    pub store: Option<Arc<OutcomeStore>>,
    /// Whether [`Session`]s may serve executions of an already-executed
    /// compiled program from the process-wide cache and the store (on by
    /// default).  Turning this off forces a cold launch per target and
    /// bypasses both levels — outcomes are identical either way; only
    /// wall-clock changes.
    pub memoize: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            step_limit: 2_000_000,
            detect_races: false,
            schedule: Schedule::Forward,
            buffer_overrides: Arc::new(HashMap::new()),
            tier: ExecutionTier::from_env(),
            store: OutcomeStore::from_env(),
            memoize: true,
        }
    }
}

/// The outcome of compiling and running one kernel on one configuration, as
/// observed by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// The kernel built, ran and produced a result.
    Result {
        /// FNV-1a hash of the result string (used for voting).
        hash: u64,
        /// The comma-separated output the host program would print.
        output: String,
    },
    /// The online compiler rejected the program or crashed.
    BuildFailure(String),
    /// The kernel (or the machine) crashed at runtime.
    Crash(String),
    /// Compilation or execution exceeded the time budget.
    Timeout,
}

impl TestOutcome {
    /// Whether the outcome carries a computed result.
    pub fn is_result(&self) -> bool {
        matches!(self, TestOutcome::Result { .. })
    }

    /// The result hash, if any.
    pub fn result_hash(&self) -> Option<u64> {
        match self {
            TestOutcome::Result { hash, .. } => Some(*hash),
            _ => None,
        }
    }

    /// One-letter classification used in the paper's tables: `w`/`X` are
    /// decided by voting at the harness level, so here only `bf`, `c`, `to`
    /// and `ok` exist.
    pub fn kind(&self) -> &'static str {
        match self {
            TestOutcome::Result { .. } => "ok",
            TestOutcome::BuildFailure(_) => "bf",
            TestOutcome::Crash(_) => "c",
            TestOutcome::Timeout => "to",
        }
    }
}

/// What the simulated online compiler's front end produced for one
/// (configuration, optimisation level) target.
///
/// Not to be confused with [`clc_interp::CompiledProgram`], the emulator's
/// lowered bytecode module: this is the *platform-level* compile result —
/// the (possibly transformed) AST the device would run, or an outcome the
/// front end already decided.
#[derive(Debug)]
pub enum CompiledProgram<'s> {
    /// The outcome was decided without running the kernel: a deterministic
    /// bug rule or a background rate produced a build failure, compile
    /// hang, or crash.
    Decided {
        /// The decided outcome.
        outcome: TestOutcome,
        /// Front-end coverage recorded while deciding it (rule hits and any
        /// miscompilations collected before the deciding rule fired).
        coverage: CoverageMap,
    },
    /// The kernel must run.  `program` borrows the session's (possibly
    /// optimised) AST when no target-specific transform applied, and is
    /// owned otherwise; `fingerprint` is its structural hash, the key the
    /// execution phase caches on.
    Execute {
        /// The compiled AST the device executes.
        program: Cow<'s, Program>,
        /// Structural fingerprint of that AST.
        fingerprint: Fingerprint,
        /// Front-end coverage: bug-rule hits, optimiser passes that changed
        /// the program, miscompilation transforms applied.  Recorded for
        /// free on the deduplicated path — the front end runs per target
        /// regardless of whether the launch is cached.
        coverage: CoverageMap,
    },
}

/// Cache counter snapshot for one [`Session`] (see [`Session::stats`]) or
/// the whole process (see [`process_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Target executions requested ([`Session::execute`] /
    /// [`Session::reference_execute`] calls).
    pub requests: u64,
    /// Real emulator launches performed.
    pub launches: u64,
    /// Kernels lowered for a launch: compiled kernels are not cached, so
    /// this always equals `launches`.
    pub compiles: u64,
    /// Always 0: the per-job outcome cache it counted is gone.  Kept only
    /// because the campaign benchmark (`perfbench/`) builds this struct
    /// field by field.
    pub outcome_hits: u64,
    /// Always 0: the compiled-kernel cache it counted is gone.  Kept only
    /// because the campaign benchmark (`perfbench/`) builds this struct
    /// field by field.
    pub kernel_hits: u64,
    /// Executions served from the process-wide cache.
    pub shared_hits: u64,
    /// Executions served from the on-disk outcome store (after the
    /// process-wide cache missed).
    pub store_hits: u64,
}

impl CacheStats {
    /// Fraction of executions served from either cache level, skipping the
    /// launch entirely.  `0.0` (never `NaN`) when no lookups occurred.
    pub fn outcome_hit_rate(&self) -> f64 {
        let cached = self.shared_hits + self.store_hits;
        let lookups = cached + self.launches;
        if lookups == 0 {
            0.0
        } else {
            cached as f64 / lookups as f64
        }
    }
}

/// The cache-counter kinds.  Doubles as the index into the per-session and
/// process-wide counter arrays, so the two cannot drift apart.
#[derive(Clone, Copy)]
enum Counter {
    Requests = 0,
    Launches = 1,
    SharedHits = 2,
    StoreHits = 3,
}

/// Process-wide counters aggregated across every session (all threads), for
/// benchmark and CI reporting — indexed by [`Counter`].
static PROCESS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Builds a snapshot from counter values indexed by [`Counter`].
fn cache_stats(count: impl Fn(Counter) -> u64) -> CacheStats {
    CacheStats {
        requests: count(Counter::Requests),
        launches: count(Counter::Launches),
        compiles: count(Counter::Launches),
        outcome_hits: 0,
        kernel_hits: 0,
        shared_hits: count(Counter::SharedHits),
        store_hits: count(Counter::StoreHits),
    }
}

/// Process-wide cache counters summed over every session on every thread
/// since start (or the last [`reset_process_cache_stats`]).  Benchmarks use
/// this to report `launches_per_kernel` and hit rates across a whole
/// campaign.
pub fn process_cache_stats() -> CacheStats {
    cache_stats(|counter| PROCESS[counter as usize].load(Ordering::Relaxed))
}

/// Zeroes the process-wide cache counters (benchmark bracketing; not
/// synchronised with concurrently running campaigns).
pub fn reset_process_cache_stats() {
    for counter in &PROCESS {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Process-wide shadow-memory race-detector counters, summed over every
/// real launch that ran with race detection enabled.  Cached execution hits
/// add nothing (no launch happens), so these measure actual detector work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceDetectorStats {
    /// Launches that ran with the detector on.
    pub detected_launches: u64,
    /// Shared-memory accesses recorded.
    pub accesses: u64,
    /// Shadow arrays active (objects with at least one recorded access).
    pub shadow_arrays: u64,
    /// O(1) era bumps taken instead of clearing shadow state.
    pub epoch_bumps: u64,
}

/// Process-wide race-detector counters — indexed like [`RaceDetectorStats`]
/// fields: launches, accesses, shadow arrays, epoch bumps.
static RACE_PROCESS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn record_race_stats(stats: clc_interp::RaceStats) {
    RACE_PROCESS[0].fetch_add(1, Ordering::Relaxed);
    RACE_PROCESS[1].fetch_add(stats.accesses, Ordering::Relaxed);
    RACE_PROCESS[2].fetch_add(stats.shadow_arrays, Ordering::Relaxed);
    RACE_PROCESS[3].fetch_add(stats.epoch_bumps, Ordering::Relaxed);
}

/// Snapshot of the process-wide race-detector counters since start (or the
/// last [`reset_process_race_stats`]).
pub fn process_race_stats() -> RaceDetectorStats {
    RaceDetectorStats {
        detected_launches: RACE_PROCESS[0].load(Ordering::Relaxed),
        accesses: RACE_PROCESS[1].load(Ordering::Relaxed),
        shadow_arrays: RACE_PROCESS[2].load(Ordering::Relaxed),
        epoch_bumps: RACE_PROCESS[3].load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide race-detector counters (benchmark bracketing).
pub fn reset_process_race_stats() {
    for counter in &RACE_PROCESS {
        counter.store(0, Ordering::Relaxed);
    }
}

// --- The process-wide execution cache --------------------------------------
//
// One sharded, mutex-guarded map serves every session in the process: the
// targets of one kernel, the variants of one EMI base, the jobs of one
// campaign and every scheduler worker.  Lock-striping by fingerprint keeps
// worker contention negligible, and a per-shard FIFO bound keeps the
// footprint fixed.  Only plain data — the outcome and its coverage — is
// cached.

/// Number of lock stripes (must be a power of two).
const SHARED_SHARDS: usize = 16;

/// Maximum outcomes retained per shard before FIFO eviction.
const SHARED_SHARD_CAP: usize = 4096;

#[derive(Default)]
struct SharedShard {
    outcomes: HashMap<(Fingerprint, u64), (TestOutcome, CoverageMap)>,
    order: VecDeque<(Fingerprint, u64)>,
}

static SHARED: OnceLock<Vec<Mutex<SharedShard>>> = OnceLock::new();

fn shared_shard(fingerprint: Fingerprint) -> &'static Mutex<SharedShard> {
    let shards = SHARED.get_or_init(|| {
        (0..SHARED_SHARDS)
            .map(|_| Mutex::new(SharedShard::default()))
            .collect()
    });
    &shards[(fingerprint.0 as usize) & (SHARED_SHARDS - 1)]
}

fn shared_get(key: &(Fingerprint, u64)) -> Option<(TestOutcome, CoverageMap)> {
    let shard = shared_shard(key.0)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    shard.outcomes.get(key).cloned()
}

fn shared_put(key: (Fingerprint, u64), execution: (TestOutcome, CoverageMap)) {
    let mut shard = shared_shard(key.0)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if shard.outcomes.insert(key, execution).is_none() {
        shard.order.push_back(key);
        if shard.order.len() > SHARED_SHARD_CAP {
            if let Some(oldest) = shard.order.pop_front() {
                shard.outcomes.remove(&oldest);
            }
        }
    }
}

/// Empties the process-wide execution cache (benchmark bracketing and test
/// isolation; campaigns never need this — eviction bounds the size).
pub fn reset_shared_outcome_cache() {
    if let Some(shards) = SHARED.get() {
        for shard in shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.outcomes.clear();
            shard.order.clear();
        }
    }
}

/// A per-kernel differential execution session.
///
/// Construction performs the per-kernel work exactly once — a single hash
/// pass capturing reusable hasher state ([`ProgramHasher`]); feature
/// detection, the optimised AST and the static analysis are computed
/// lazily, also at most once — and every [`Session::execute`] call reuses
/// it.  The execution phase goes through the process-wide cache (and, when
/// configured, the on-disk [`OutcomeStore`]): targets whose front end
/// produces a bit-identical compiled AST (and identical execution-relevant
/// options) share a single emulator launch, within this session and across
/// every other session in the process.
///
/// Sessions are single-threaded by design (the campaign engine runs one
/// kernel job per worker); only the caches they consult are shared.
pub struct Session<'p> {
    program: &'p Program,
    hasher: ProgramHasher,
    base_fingerprint: Fingerprint,
    features: OnceCell<Features>,
    optimized: OnceCell<(Program, Fingerprint, u8)>,
    analysis: OnceCell<AnalysisReport>,
    coverage: Cell<CoverageMap>,
    counters: [Cell<u64>; 4],
}

impl<'p> Session<'p> {
    /// A session over `program`.
    pub fn new(program: &'p Program) -> Session<'p> {
        let hasher = ProgramHasher::new(program);
        let base_fingerprint = hasher.fingerprint();
        Session {
            program,
            hasher,
            base_fingerprint,
            features: OnceCell::new(),
            optimized: OnceCell::new(),
            analysis: OnceCell::new(),
            coverage: Cell::new(CoverageMap::new()),
            counters: Default::default(),
        }
    }

    /// The program under test.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The unoptimised program's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.base_fingerprint
    }

    /// The program's detected features (computed on first use).
    pub fn features(&self) -> &Features {
        self.features.get_or_init(|| Features::detect(self.program))
    }

    /// The program's static analysis report (computed on first use).
    pub fn analysis(&self) -> &AnalysisReport {
        self.analysis
            .get_or_init(|| clc_analyze::analyze(self.program))
    }

    /// Cache counters for this session's executions.
    pub fn stats(&self) -> CacheStats {
        cache_stats(|counter| self.counters[counter as usize].get())
    }

    /// Coverage folded for this kernel across every target executed so far:
    /// front-end rule/pass/miscompilation bits plus the dynamic bits of the
    /// launches those targets resolved to.
    pub fn coverage(&self) -> CoverageMap {
        self.coverage.get()
    }

    /// Folds `coverage` into this kernel's map.
    fn fold_coverage(&self, coverage: &CoverageMap) {
        let mut folded = self.coverage.get();
        folded.merge(coverage);
        self.coverage.set(folded);
    }

    /// Counts one event in this session and in the process-wide totals.
    fn bump(&self, counter: Counter) {
        let cell = &self.counters[counter as usize];
        cell.set(cell.get() + 1);
        PROCESS[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Deterministic pseudo-probability in `[0, 1)` for a background
    /// outcome roll: bit-identical to hashing
    /// `(program, config.id, opt, salt)` from scratch, but reusing the
    /// captured program prefix.
    fn chance(&self, config: &Configuration, opt: OptLevel, salt: &str) -> f64 {
        let h = self.hasher.chain(&(config.id, opt, salt));
        (h % 1_000_000) as f64 / 1_000_000.0
    }

    /// The passes-optimised AST, its fingerprint, and the `PASS_BIT_*` mask
    /// of passes that changed the program (computed once and shared by
    /// every optimising target).
    fn optimized(&self) -> (&Program, Fingerprint, u8) {
        let (program, fingerprint, pass_bits) = self.optimized.get_or_init(|| {
            let mut optimized = self.program.clone();
            let pass_bits = passes::optimize_traced(&mut optimized);
            let fingerprint = optimized.fingerprint();
            (optimized, fingerprint, pass_bits)
        });
        (program, *fingerprint, *pass_bits)
    }

    /// The front-end phase: deterministic bug rules, background-rate rolls,
    /// optimisation passes and triggered miscompilations for one target.
    ///
    /// Pure per target — it touches no cache except the session's shared
    /// optimised AST — and returns either a decided outcome or the compiled
    /// AST with its fingerprint.
    pub fn compile(&self, config: &Configuration, opt: OptLevel) -> CompiledProgram<'_> {
        // --- Deterministic bug rules --------------------------------------
        let mut coverage = CoverageMap::new();
        let mut miscompilations = Vec::new();
        for rule in &config.rules {
            if !rule.applies(self.features(), self.program, opt) {
                continue;
            }
            coverage.set_hash(CoverageClass::Rules, coverage_hash(rule.name));
            match &rule.effect {
                BugEffect::BuildFailure(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::BuildFailure(format!("{} [{}]", msg, rule.reference)),
                        coverage,
                    }
                }
                BugEffect::CompileHang(_) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Timeout,
                        coverage,
                    }
                }
                BugEffect::RuntimeCrash(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Crash(format!("{} [{}]", msg, rule.reference)),
                        coverage,
                    }
                }
                BugEffect::Miscompile(m) => {
                    coverage.set(CoverageClass::Miscompiles, m.coverage_bit());
                    miscompilations.push(*m);
                }
            }
        }

        // --- Background (rate-based) outcomes -----------------------------
        // All rolls are independent hashes of (program, config, opt, salt),
        // so rolling the crash rate here — before compilation rather than
        // after, where the historical code drew it — decides exactly the
        // same outcomes in the same precedence order.
        let rates = config.rates(opt);
        let uses_barriers = self.features().barrier_count > 0;
        if self.chance(config, opt, "bf") < rates.build_failure {
            return CompiledProgram::Decided {
                outcome: TestOutcome::BuildFailure(
                    "driver rejected the program (background rate)".into(),
                ),
                coverage,
            };
        }
        if self.chance(config, opt, "to") < rates.timeout {
            return CompiledProgram::Decided {
                outcome: TestOutcome::Timeout,
                coverage,
            };
        }
        let wrong_rate = rates.wrong_code
            + if uses_barriers {
                rates.barrier_wrong_bonus
            } else {
                0.0
            };
        let perturb = self.chance(config, opt, "wc") < wrong_rate;
        let crash_rate = rates.runtime_crash
            + if uses_barriers {
                rates.barrier_crash_bonus
            } else {
                0.0
            };
        if self.chance(config, opt, "crash") < crash_rate {
            return CompiledProgram::Decided {
                outcome: TestOutcome::Crash("kernel execution crashed (background rate)".into()),
                coverage,
            };
        }

        // --- Compilation --------------------------------------------------
        let (base, base_fingerprint) = if opt == OptLevel::Enabled && config.optimizes {
            let (base, base_fingerprint, pass_bits) = self.optimized();
            for bit in 0..8 {
                if pass_bits & (1 << bit) != 0 {
                    coverage.set(CoverageClass::Passes, bit);
                }
            }
            (base, base_fingerprint)
        } else {
            (self.program, self.base_fingerprint)
        };
        if miscompilations.is_empty() && !perturb {
            return CompiledProgram::Execute {
                program: Cow::Borrowed(base),
                fingerprint: base_fingerprint,
                coverage,
            };
        }
        let mut compiled = base.clone();
        for m in &miscompilations {
            apply_miscompilation(&mut compiled, *m);
        }
        if perturb {
            let salt = self.hasher.chain(&(config.id, "perturb"));
            let perturbation = Miscompilation::PerturbLiteral(salt);
            coverage.set(CoverageClass::Miscompiles, perturbation.coverage_bit());
            apply_miscompilation(&mut compiled, perturbation);
        }
        let fingerprint = compiled.fingerprint();
        CompiledProgram::Execute {
            program: Cow::Owned(compiled),
            fingerprint,
            coverage,
        }
    }

    /// Compiles and executes the kernel on one target, sharing front-end
    /// state with every other target of this session and (when
    /// `exec.memoize` is on) emulator launches with every session in the
    /// process.
    pub fn execute(
        &self,
        config: &Configuration,
        opt: OptLevel,
        exec: &ExecOptions,
    ) -> TestOutcome {
        self.bump(Counter::Requests);
        let (outcome, mut coverage) = match self.compile(config, opt) {
            CompiledProgram::Decided { outcome, coverage } => (outcome, coverage),
            CompiledProgram::Execute {
                program,
                fingerprint,
                coverage,
            } => (self.run(&program, fingerprint, exec), coverage),
        };
        // The outcome *kind* is itself a coverage signal (a kernel that
        // provokes its first build failure or crash is interesting), and it
        // is available on every path — decided, cached or launched.
        coverage.set(CoverageClass::Dynamic, outcome_kind_bit(&outcome));
        self.fold_coverage(&coverage);
        outcome
    }

    /// Executes on the reference emulator with no configuration-specific
    /// behaviour, through the same cached execution phase.
    pub fn reference_execute(&self, exec: &ExecOptions) -> TestOutcome {
        self.bump(Counter::Requests);
        self.run(self.program, self.base_fingerprint, exec)
    }

    /// The execution phase: launch a compiled program, cached by
    /// `(fingerprint, exec-relevant options)`.
    ///
    /// Lookup order when `exec.memoize` is on: the process-wide cache, then
    /// the on-disk store (when one is configured), then a real launch.  A
    /// launch back-fills both levels and a store hit back-fills the
    /// process-wide cache, each with the launch's `(outcome, coverage)`, so
    /// a hit at either level replays exactly what the launch produced.
    fn run(&self, program: &Program, fingerprint: Fingerprint, exec: &ExecOptions) -> TestOutcome {
        let key = (fingerprint, exec_key(exec));
        let cached = if exec.memoize {
            self.lookup(key, exec)
        } else {
            None
        };
        let (outcome, coverage) = cached.unwrap_or_else(|| {
            self.bump(Counter::Launches);
            let result = clc_interp::launch(program, &launch_options(exec));
            let coverage = dynamic_coverage(&result);
            let outcome = launch_outcome(result);
            if exec.memoize {
                shared_put(key, (outcome.clone(), coverage));
                if let Some(store) = &exec.store {
                    store.put(fingerprint, key.1, &outcome, &coverage);
                }
            }
            (outcome, coverage)
        });
        self.fold_coverage(&coverage);
        outcome
    }

    /// Looks `key` up in the process-wide cache, then in the store.
    fn lookup(
        &self,
        key: (Fingerprint, u64),
        exec: &ExecOptions,
    ) -> Option<(TestOutcome, CoverageMap)> {
        if let Some(hit) = shared_get(&key) {
            self.bump(Counter::SharedHits);
            return Some(hit);
        }
        let hit = exec.store.as_ref()?.get(key.0, key.1)?;
        self.bump(Counter::StoreHits);
        shared_put(key, hit.clone());
        Some(hit)
    }
}

/// Compiles and executes a kernel on a simulated configuration.
///
/// One-shot form of [`Session::execute`]; a caller fanning the same kernel
/// over many targets should hold a [`Session`] so its front-end state (the
/// features, the optimised AST) is shared across the fan-out.
pub fn execute(
    program: &Program,
    config: &Configuration,
    opt: OptLevel,
    exec: &ExecOptions,
) -> TestOutcome {
    Session::new(program).execute(config, opt, exec)
}

/// Executes on the reference emulator with no configuration-specific
/// behaviour (the oracle used by the harness to sanity-check majorities and
/// by the reducer).
pub fn reference_execute(program: &Program, exec: &ExecOptions) -> TestOutcome {
    let options = launch_options(exec);
    launch_outcome(clc_interp::launch(program, &options))
}

/// Derives the emulator launch options for one execution.
fn launch_options(exec: &ExecOptions) -> LaunchOptions {
    LaunchOptions {
        step_limit: exec.step_limit,
        detect_races: exec.detect_races,
        schedule: exec.schedule,
        buffer_overrides: Arc::clone(&exec.buffer_overrides),
        scalar_args: HashMap::new(),
        tier: exec.tier,
    }
}

/// Maps an emulator result onto the platform outcome surface, folding the
/// launch's race-detector counters (when detection ran) into the
/// process-wide aggregate.
fn launch_outcome(result: Result<clc_interp::LaunchResult, RuntimeError>) -> TestOutcome {
    if let Ok(result) = &result {
        if let Some(stats) = result.race_stats {
            record_race_stats(stats);
        }
    }
    match result {
        Ok(result) => TestOutcome::Result {
            hash: result.result_hash,
            output: result.result_string,
        },
        Err(RuntimeError::StepLimitExceeded { .. }) => TestOutcome::Timeout,
        Err(e) => TestOutcome::Crash(e.to_string()),
    }
}

/// The dynamic-class coverage bit for an outcome kind (bits 4..=7: ok, bf,
/// crash, timeout).  Available on every path — decided, cached, launched.
fn outcome_kind_bit(outcome: &TestOutcome) -> u32 {
    match outcome.kind() {
        "ok" => 4,
        "bf" => 5,
        "c" => 6,
        _ => 7,
    }
}

/// Maps one emulator launch onto the dynamic word of the coverage map —
/// the thread-aware feedback bits (à la MUZZ) the blind campaign never saw.
///
/// Layout of the `Dynamic` class word:
///
/// * bit 0 — a data race was detected;
/// * bit 1 — barrier divergence;
/// * bit 2 — step-limit exhaustion;
/// * bit 3 — any other runtime error;
/// * bits 4..=7 — outcome kind (set in [`Session::execute`], not here);
/// * bits 8..=15 — barrier-release depth bucket (`log2` of the deepest
///   barrier ladder any work-group ran, saturated at 7);
/// * bit 16 — non-synchronising helper-function barriers executed;
/// * bits 32..=63 — race-*site* hash (object, offset, same-group), so two
///   distinct racy sites light distinct bits.
///
/// Only tier-stable signals are used (`total_steps` and the race-detector
/// work counters are tier- or schedule-specific and deliberately excluded),
/// so both interpreter tiers produce identical maps.
fn dynamic_coverage(result: &Result<LaunchResult, RuntimeError>) -> CoverageMap {
    let mut map = CoverageMap::new();
    match result {
        Ok(result) => {
            if let Some(race) = &result.race {
                map.set(CoverageClass::Dynamic, 0);
                map.set(CoverageClass::Dynamic, race_site_bit(race));
            }
            let depth = (64 - result.barrier_intervals.leading_zeros()).min(7);
            map.set(CoverageClass::Dynamic, 8 + depth);
            if result.soft_barriers > 0 {
                map.set(CoverageClass::Dynamic, 16);
            }
        }
        Err(RuntimeError::BarrierDivergence { .. }) => map.set(CoverageClass::Dynamic, 1),
        Err(RuntimeError::StepLimitExceeded { .. }) => map.set(CoverageClass::Dynamic, 2),
        Err(RuntimeError::DataRace(race)) => {
            map.set(CoverageClass::Dynamic, 0);
            map.set(CoverageClass::Dynamic, race_site_bit(race));
        }
        Err(_) => map.set(CoverageClass::Dynamic, 3),
    }
    map
}

/// One of the 32 race-site bits (32..=63) for a detected race, hashed from
/// the site's stable identity (schedule-independent parts only: the object,
/// offset and same-group flag, not the thread ids).
fn race_site_bit(race: &clc_interp::RaceReport) -> u32 {
    let site = format!("{}:{}:{}", race.object, race.offset, race.same_group);
    32 + (coverage_hash(&site) % 32) as u32
}

/// Hash of every execution option that can change a launch outcome — the
/// second half of the outcome-cache key.  Buffer overrides are folded in
/// key-sorted order so the value is independent of map iteration order.
/// `store` and `memoize` are deliberately excluded: they select *where*
/// outcomes are cached, never *what* they are.
fn exec_key(exec: &ExecOptions) -> u64 {
    let mut h = DefaultHasher::new();
    exec.step_limit.hash(&mut h);
    exec.detect_races.hash(&mut h);
    exec.schedule.hash(&mut h);
    exec.tier.hash(&mut h);
    let mut names: Vec<&String> = exec.buffer_overrides.keys().collect();
    names.sort();
    for name in names {
        name.hash(&mut h);
        exec.buffer_overrides[name].hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{all_configurations, configuration};
    use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, ScalarType, Stmt};

    /// Serialises the tests that reset the process-wide cache with the tests
    /// that assert exact counter values: a reset mid-test turns cache hits
    /// into launches.  Every test also runs its own program value, so no
    /// test's counts see another test's cache entries.
    static CACHE_LOCK: Mutex<()> = Mutex::new(());

    fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
        CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn trivial_program(value: i64) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: clc::Block::of(vec![Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::int(value),
                )]),
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        p
    }

    #[test]
    fn outcomes_are_deterministic() {
        let p = trivial_program(7);
        for config in all_configurations() {
            for opt in OptLevel::BOTH {
                let a = execute(&p, &config, opt, &ExecOptions::default());
                let b = execute(&p, &config, opt, &ExecOptions::default());
                assert_eq!(a, b, "config {} {}", config.id, opt);
            }
        }
    }

    #[test]
    fn reference_execution_matches_source_semantics() {
        let p = trivial_program(9);
        match reference_execute(&p, &ExecOptions::default()) {
            TestOutcome::Result { output, .. } => assert_eq!(output, "9,9,9,9"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn healthy_configs_agree_on_a_trivial_kernel() {
        // A struct-free, barrier-free, comma-free kernel triggers none of the
        // deterministic bug rules; any disagreement would have to come from
        // the background rates, which are per-kernel deterministic, so at
        // least the NVIDIA configuration with optimisations (rate bf = 0)
        // must produce the reference answer.
        let p = trivial_program(3);
        let reference = reference_execute(&p, &ExecOptions::default());
        let outcome = execute(
            &p,
            &configuration(1),
            OptLevel::Enabled,
            &ExecOptions::default(),
        );
        if let (TestOutcome::Result { hash: a, .. }, TestOutcome::Result { hash: b, .. }) =
            (&reference, &outcome)
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn outcome_kinds_classify() {
        assert_eq!(TestOutcome::Timeout.kind(), "to");
        assert_eq!(TestOutcome::BuildFailure("x".into()).kind(), "bf");
        assert_eq!(TestOutcome::Crash("x".into()).kind(), "c");
        assert_eq!(
            TestOutcome::Result {
                hash: 1,
                output: "1".into()
            }
            .kind(),
            "ok"
        );
        assert!(TestOutcome::Result {
            hash: 1,
            output: "1".into()
        }
        .is_result());
        assert_eq!(TestOutcome::Timeout.result_hash(), None);
    }

    #[test]
    fn altera_rejects_vectors_in_structs() {
        use clc::{Field, StructDef, Type, VectorWidth};
        let mut p = trivial_program(8);
        p.add_struct(StructDef::new(
            "S",
            vec![Field::new(
                "x",
                Type::Vector(ScalarType::Int, VectorWidth::W4),
            )],
        ));
        let outcome = execute(
            &p,
            &configuration(20),
            OptLevel::Enabled,
            &ExecOptions::default(),
        );
        assert!(matches!(outcome, TestOutcome::BuildFailure(msg) if msg.contains("vector")));
    }

    #[test]
    fn oclgrind_miscompiles_comma_kernels() {
        let mut p = trivial_program(10);
        p.kernel.body.stmts[0] = Stmt::assign(
            Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
            Expr::comma(Expr::int(5), Expr::int(1)),
        );
        let reference = reference_execute(&p, &ExecOptions::default());
        let oclgrind = execute(
            &p,
            &configuration(19),
            OptLevel::Disabled,
            &ExecOptions::default(),
        );
        match (reference, oclgrind) {
            (TestOutcome::Result { output: r, .. }, TestOutcome::Result { output: o, .. }) => {
                assert_eq!(r, "1,1,1,1");
                assert_eq!(o, "5,5,5,5");
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn session_fan_out_collapses_identical_compiles_to_few_launches() {
        let _guard = cache_lock();
        let p = trivial_program(5);
        let session = Session::new(&p);
        let exec = ExecOptions::default();
        let mut outcomes = Vec::new();
        for config in all_configurations() {
            for opt in OptLevel::BOTH {
                outcomes.push(session.execute(&config, opt, &exec));
            }
        }
        let stats = session.stats();
        assert_eq!(stats.requests, 42);
        assert!(
            stats.launches < stats.requests / 2,
            "expected heavy deduplication, got {stats:?}"
        );
        assert!(stats.launches >= 1);
        assert_eq!(stats.compiles, stats.launches, "one compile per launch: each distinct outcome-cache miss here is a distinct compiled AST");
        // Every computed result must be reproduced by the cold path.
        for (i, (config, opt)) in all_configurations()
            .iter()
            .flat_map(|c| OptLevel::BOTH.map(|o| (c.clone(), o)))
            .enumerate()
        {
            let cold = ExecOptions {
                memoize: false,
                ..ExecOptions::default()
            };
            assert_eq!(
                outcomes[i],
                execute(&p, &config, opt, &cold),
                "config {} {opt} diverged under memoisation",
                config.id
            );
        }
    }

    #[test]
    fn session_memoisation_matches_cold_execution_for_generated_outcomes() {
        // The cache key must separate different exec options for the same
        // fingerprint: the same program with a different schedule or step
        // limit is a different cache line.
        let _guard = cache_lock();
        let p = trivial_program(2);
        let session = Session::new(&p);
        let fast = ExecOptions::default();
        let strict = ExecOptions {
            step_limit: 1, // tiny budget: the kernel times out
            ..ExecOptions::default()
        };
        let ok = session.reference_execute(&fast);
        let starved = session.reference_execute(&strict);
        assert!(ok.is_result());
        assert_eq!(starved, TestOutcome::Timeout);
        // Same options again: served from cache, same value.
        assert_eq!(session.reference_execute(&fast), ok);
        let stats = session.stats();
        assert_eq!(stats.launches, 2, "two distinct exec-option sets");
        assert_eq!(stats.shared_hits, 1);
        assert_eq!(stats.compiles, stats.launches);
    }

    #[test]
    fn shared_memo_deduplicates_across_sessions_of_identical_programs() {
        // Two structurally identical programs — the EMI variant case —
        // must share the launch through the process-wide cache.
        let _guard = cache_lock();
        let a = trivial_program(4);
        let b = trivial_program(4);
        let sa = Session::new(&a);
        let sb = Session::new(&b);
        let exec = ExecOptions::default();
        assert_eq!(sa.reference_execute(&exec), sb.reference_execute(&exec));
        assert_eq!(sa.stats().launches + sb.stats().launches, 1);
        assert_eq!(sb.stats().shared_hits, 1);
    }

    #[test]
    fn hit_rates_are_zero_not_nan_without_lookups() {
        let empty = CacheStats::default();
        assert_eq!(empty.outcome_hit_rate(), 0.0);
        let busy = CacheStats {
            launches: 1,
            shared_hits: 2,
            store_hits: 1,
            ..CacheStats::default()
        };
        assert_eq!(busy.outcome_hit_rate(), 0.75);
    }

    #[test]
    fn shared_cache_and_store_serve_outcomes_beyond_the_job_memo() {
        let _guard = cache_lock();
        // Part 1 — the on-disk store survives a simulated process death
        // (shared cache cleared, store reopened from the directory).
        let dir =
            std::env::temp_dir().join(format!("clfuzz-platform-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = trivial_program(12);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        let first = Session::new(&p).reference_execute(&exec);
        assert_eq!(store.stats().writes, 1);
        reset_shared_outcome_cache();
        let reopened = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&reopened)),
            ..ExecOptions::default()
        };
        let session = Session::new(&p);
        assert_eq!(session.reference_execute(&exec), first);
        let stats = session.stats();
        assert_eq!(stats.launches, 0, "warm store must skip the launch");
        assert_eq!(stats.store_hits, 1);
        assert_eq!(reopened.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);

        // Part 2 — the process-wide cache deduplicates across sessions
        // (i.e. across jobs).
        let q = trivial_program(11);
        let exec = ExecOptions {
            store: None,
            ..ExecOptions::default()
        };
        let a = Session::new(&q);
        let cold = a.reference_execute(&exec);
        assert_eq!(a.stats().launches, 1);
        let b = Session::new(&q); // fresh session, same process
        assert_eq!(b.reference_execute(&exec), cold);
        let stats = b.stats();
        assert_eq!(stats.launches, 0, "served from the process-wide cache");
        assert_eq!(stats.shared_hits, 1);
        // A repeat within the session is served from the same cache.
        assert_eq!(b.reference_execute(&exec), cold);
        assert_eq!(b.stats().shared_hits, 2);
    }

    #[test]
    fn coverage_replays_identically_from_every_cache_level() {
        let _guard = cache_lock();
        let p = trivial_program(13);
        let exec = ExecOptions {
            store: None,
            ..ExecOptions::default()
        };
        let fan_out = |exec: &ExecOptions| {
            let session = Session::new(&p);
            for config in all_configurations() {
                for opt in OptLevel::BOTH {
                    session.execute(&config, opt, exec);
                }
            }
            session.coverage()
        };
        let cold = fan_out(&exec);
        // The outcome-kind bit fires on every path, so the map is never
        // empty; the trivial kernel must at least produce results.
        assert!(cold.contains(CoverageClass::Dynamic, 4));
        // A warm fan-out is served from the caches; the replayed coverage
        // must be bit-identical to what the real launches produced.
        assert_eq!(fan_out(&exec), cold);
        // So must a fan-out with memoisation off (all real launches).
        let unmemoised = ExecOptions {
            memoize: false,
            store: None,
            ..ExecOptions::default()
        };
        assert_eq!(fan_out(&unmemoised), cold);
        // And so must fan-outs through the on-disk store, process-cold each
        // time: a cold store launches and records, a warm store replays the
        // launches' coverage from disk.
        let dir =
            std::env::temp_dir().join(format!("clfuzz-platform-coverage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let stored = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        reset_shared_outcome_cache();
        assert_eq!(fan_out(&stored), cold, "cold store");
        reset_shared_outcome_cache();
        assert_eq!(fan_out(&stored), cold, "warm store");
        assert!(
            store.stats().hits > 0,
            "the warm fan-out must hit the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn front_end_reuses_the_optimised_ast_across_targets() {
        let p = trivial_program(6);
        let session = Session::new(&p);
        // Two optimising configurations at the enabled level: both borrow
        // the session's optimised AST (same fingerprint) unless a
        // miscompilation or perturbation applies.
        let mut fingerprints = Vec::new();
        for id in [1usize, 3] {
            if let CompiledProgram::Execute { fingerprint, .. } =
                session.compile(&configuration(id), OptLevel::Enabled)
            {
                fingerprints.push(fingerprint);
            }
        }
        assert_eq!(fingerprints.len(), 2);
        assert_eq!(fingerprints[0], fingerprints[1]);
    }
}
