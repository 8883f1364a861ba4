//! The traced run: per-layer self time and counts, from spans the benchmark
//! places around public calls into each layer.
//!
//! For each traced campaign the run
//!
//! 1. runs the campaign untraced through its public entry point (the
//!    reference wall time for `trace.overhead_frac`, the scheduler's own
//!    stage metrics for `exec.*`, and the platform's cache counts, which the
//!    traced pass must reproduce);
//! 2. drives the same jobs itself on the same one-worker scheduler, timing
//!    every job's `StagedJob::generate` → `execute` → `judge`, and checks
//!    the table it folds against the golden digest;
//! 3. replays each job's execute stage layer by layer, single-threaded:
//!    `Session::new` and `Session::compile` per target (the platform front
//!    end), then `clc_interp::compile` and `CompiledKernel::launch` for
//!    exactly the programs the real stage launched.  Which programs those
//!    are follows the cache rule (a `(fingerprint, options)` key launches
//!    once per campaign); the replayed launch count is checked against the
//!    platform's own `CacheStats::launches` and any difference is reported
//!    as `trace.launch_mismatch`.
//!
//! Self times: the VM is a launch span minus the lowering span of the same
//! program; the platform cache is each execute span minus the replayed
//! front-end and launch spans of its job, which is a residual and is also
//! reported as `trace.residual_frac`.  Spans are kept in memory and written
//! to `perfbench/.work/trace-<workload>-<seed>.tsv` at exit.
//!
//! The counts the program derives deterministically must agree wherever
//! the same build computes them twice, or the run reports determinism
//! drift and fails.  Within a run, the untraced and traced passes of a
//! campaign must make the same cache requests, hits and launches.  Across
//! runs, each campaign's VM steps, launches, decided targets and bug
//! verdicts are recorded in `perfbench/.work/counts.tsv` under a digest of
//! the running executable, so only runs of the same binary are compared: a
//! change to the program starts a fresh record instead of reporting drift.
//!
//! `journal.self_s` is the caller's side of the journal: creating it,
//! handing each record to the writer thread, and `finish`, which waits for
//! that thread to write what is still queued.  Writes the thread does while
//! jobs run are not charged to it.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use clc::{BufferInit, Fingerprint, Program};
use clc_interp::{CompiledKernel, LaunchOptions};
use clsmith::GenMode;
use fuzz_harness::{
    checksum, classification_descriptor, expect_completed, job_seed, pruning_grid,
    reliability_rows, render_emi_table, render_reliability_table, targets_for, ClassificationTally,
    EmiBaseJob, EmiCampaignResult, EmiTally, EmiVariantGrid, GeneratedKernel, JournalHeader,
    JournalPayload, JournalRecord, JournalWriter, KernelJob, LivenessCandidate, LivenessProbeJob,
    PipelineMetrics, StagedJob, TestTarget, Verdict,
};
use opencl_sim::{
    process_cache_stats, reset_shared_outcome_cache, CacheStats, CompiledProgram, Configuration,
    ExecOptions, OptLevel, OutcomeStore, Session, StoreStats,
};

use crate::campaign::{self, Campaign, Family, EMI_BASES, EMI_VARIANTS, KERNELS_PER_MODE};
use crate::measure::{self, checks_out, remove, Setup};
use crate::{work_dir, Args, Metric, Report, Workload};

/// Campaigns a traced run traces: the first of the run's visiting order.
const TRACED_CAMPAIGNS: usize = 4;

// --- Spans ------------------------------------------------------------------

/// One timed call: `start`/`end` in nanoseconds since the run's epoch.
/// Replayed spans name the execute span of their job as parent although
/// they run after it: they stand in for the work inside it.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    job: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Times `f` as a span; returns its result and the span's id.
fn span<R>(
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> (R, usize) {
    let rec = recorder();
    let start = rec.epoch.elapsed().as_nanos() as u64;
    let result = f();
    let end = rec.epoch.elapsed().as_nanos() as u64;
    let mut spans = rec.spans.lock().expect("no span holder panics");
    spans.push(Span {
        name,
        start,
        end,
        parent,
        job,
    });
    (result, spans.len() - 1)
}

fn span_ns(id: usize) -> u64 {
    recorder().spans.lock().expect("no span holder panics")[id].ns()
}

// --- Traced jobs ------------------------------------------------------------

/// What the replay needs of a job's execute stage.
enum ReplayInput {
    /// A Table 1 kernel and its 42 targets.
    Kernel(Program, Arc<Vec<TestTarget>>),
    /// An EMI liveness candidate (two reference runs, `dead` normal and
    /// inverted).
    Probe(Program),
    /// An EMI base's pruning variants over the configurations, both
    /// optimisation levels.
    Variants(Vec<Program>, Arc<Vec<Configuration>>),
}

/// A campaign job whose stages the traced run times.
trait Traceable: StagedJob {
    /// The layer its generate stage belongs to.
    const GENERATE: &'static str;
    fn replay_input(generated: &Self::Generated) -> ReplayInput;
}

impl Traceable for KernelJob {
    const GENERATE: &'static str = "clsmith.generate";
    fn replay_input(g: &GeneratedKernel) -> ReplayInput {
        ReplayInput::Kernel(g.program.clone(), Arc::clone(&g.targets))
    }
}

impl Traceable for LivenessProbeJob {
    const GENERATE: &'static str = "clsmith.generate";
    fn replay_input(g: &LivenessCandidate) -> ReplayInput {
        ReplayInput::Probe(g.program.clone())
    }
}

impl Traceable for EmiBaseJob {
    const GENERATE: &'static str = "clsmith.emi.prune";
    fn replay_input(g: &EmiVariantGrid) -> ReplayInput {
        ReplayInput::Variants(g.variants.clone(), Arc::clone(&g.configs))
    }
}

/// A job wrapped so that each of its stages is a span.
struct Traced<J> {
    inner: J,
    job: u64,
}

/// A traced job's output: the job's own output, what the replay needs, and
/// its execute span.
struct TracedOutput<T> {
    output: T,
    job: u64,
    input: ReplayInput,
    execute_span: usize,
}

impl<J: Traceable> StagedJob for Traced<J> {
    type Generated = (J::Generated, u64, ReplayInput);
    type Executed = (J::Executed, u64, ReplayInput, usize);
    type Output = TracedOutput<J::Output>;

    fn generate(self) -> Self::Generated {
        let (generated, _) = span(J::GENERATE, self.job, None, || self.inner.generate());
        let input = J::replay_input(&generated);
        (generated, self.job, input)
    }

    fn execute((generated, job, input): Self::Generated) -> Self::Executed {
        let (executed, id) = span("harness.execute", job, None, || J::execute(generated));
        (executed, job, input, id)
    }

    fn judge((executed, job, input, execute_span): Self::Executed) -> Self::Output {
        let (output, _) = span("harness.judge", job, None, || J::judge(executed));
        TracedOutput {
            output,
            job,
            input,
            execute_span,
        }
    }
}

/// Runs traced jobs on the campaign scheduler; `on_output` sees each
/// finished job in completion order.
fn drive<J: Traceable>(
    setup: &Setup,
    jobs: Vec<Traced<J>>,
    mut on_output: impl FnMut(usize, &J::Output),
) -> Vec<TracedOutput<J::Output>> {
    let (results, _) = setup.scheduler.run_staged_metrics(jobs, |index, result| {
        if let fuzz_harness::JobResult::Completed(traced) = result {
            on_output(index, &traced.output);
        }
    });
    expect_completed(results)
}

// --- Traced campaigns -------------------------------------------------------

/// Everything one traced campaign produced.
#[derive(Default)]
struct TracedCampaign {
    digest: u64,
    programs: u64,
    jobs: Vec<(u64, ReplayInput, usize)>,
    /// Generation and EMI counts.
    kernels: u64,
    candidates: u64,
    live: u64,
    variants: u64,
    /// Judge counts: non-ok verdicts and all verdicts.
    bugs: u64,
    verdicts: u64,
    journal_records: u64,
    journal_bytes: u64,
}

/// Table 1 driven job by job: the same jobs, seeds and fold as
/// `classify_configurations_sharded`, with an optional journal written the
/// way the shard layer writes it.
fn traced_classify(
    setup: &Setup,
    c: &Campaign,
    exec: &ExecOptions,
    ordinal: u64,
    journal: Option<&Path>,
) -> Result<TracedCampaign, String> {
    let targets = Arc::new(targets_for(&setup.configs));
    let generator = campaign::generator();
    let mut seeds = Vec::new();
    let jobs: Vec<Traced<KernelJob>> = (0..GenMode::ALL.len() * KERNELS_PER_MODE)
        .map(|g| {
            let mode_index = g / KERNELS_PER_MODE;
            let seed = job_seed(
                c.seed + mode_index as u64 * 100_000,
                (g % KERNELS_PER_MODE) as u64,
            );
            seeds.push(seed);
            Traced {
                inner: KernelJob {
                    mode: GenMode::ALL[mode_index],
                    seed,
                    generator: generator.clone(),
                    exec: exec.clone(),
                    prefilter: false,
                    targets: Arc::clone(&targets),
                },
                job: ordinal << 32 | g as u64,
            }
        })
        .collect();
    let total = jobs.len() as u64;
    let writer = match journal {
        Some(path) => {
            let header = JournalHeader {
                campaign: classification_descriptor(KERNELS_PER_MODE, &generator, &targets),
                campaign_seed: c.seed,
                total_jobs: total,
                shard_index: 0,
                shard_count: 1,
                range: (0, total),
            };
            let (writer, _) = span("journal.write", ordinal << 32, None, || {
                JournalWriter::create(path, &header)
            });
            Some(writer.map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let mut journal_records = 0;
    let outputs = drive(setup, jobs, |index, verdicts: &Vec<Verdict>| {
        if let Some(writer) = &writer {
            let record = JournalRecord::new(index as u64, seeds[index], verdicts.encode());
            span("journal.write", ordinal << 32 | index as u64, None, || {
                writer.record(record)
            });
            journal_records += 1;
        }
    });
    let journal_bytes = match writer {
        Some(writer) => {
            let (bytes, _) = span("journal.write", ordinal << 32, None, || writer.finish());
            bytes.map_err(|e| e.to_string())?
        }
        None => 0,
    };
    let mut tally = ClassificationTally::new(setup.configs.len());
    let mut traced = TracedCampaign {
        programs: total,
        kernels: total,
        journal_records,
        journal_bytes,
        ..TracedCampaign::default()
    };
    for out in outputs {
        tally.record(&out.output);
        traced.verdicts += out.output.len() as u64;
        traced.bugs += out.output.iter().filter(|v| **v != Verdict::Ok).count() as u64;
        traced.jobs.push((out.job, out.input, out.execute_span));
    }
    let rows = reliability_rows(&setup.configs, &tally);
    traced.digest = campaign::table_digest(&render_reliability_table(&rows), &tally);
    Ok(traced)
}

/// Table 5 driven job by job: the liveness probes in the chunks
/// `generate_live_bases_with` uses, then one job per live base, folded like
/// `run_emi_campaign_sharded`.
fn traced_emi(
    setup: &Setup,
    c: &Campaign,
    exec: &ExecOptions,
    ordinal: u64,
    labels: &[String],
) -> TracedCampaign {
    let generator = campaign::generator();
    let mut traced = TracedCampaign::default();
    let max_attempts = EMI_BASES * 20 + 50;
    let mut bases = Vec::new();
    let mut attempt = 0usize;
    while bases.len() < EMI_BASES && attempt < max_attempts {
        let missing = EMI_BASES - bases.len();
        let chunk = missing.max(setup.scheduler.threads() * 4);
        let upper = (attempt + chunk).min(max_attempts);
        let jobs: Vec<Traced<LivenessProbeJob>> = (attempt..upper)
            .map(|candidate| Traced {
                inner: LivenessProbeJob {
                    seed: job_seed(c.seed, candidate as u64),
                    generator: generator.clone(),
                    exec: exec.clone(),
                },
                job: ordinal << 32 | 1 << 31 | candidate as u64,
            })
            .collect();
        for out in drive(setup, jobs, |_, _| {}) {
            traced.candidates += 1;
            if let Some(program) = out.output {
                if bases.len() < EMI_BASES {
                    bases.push(program);
                }
                traced.live += 1;
            }
            traced.jobs.push((out.job, out.input, out.execute_span));
        }
        attempt = upper;
    }
    traced.kernels = traced.candidates;
    let grid = Arc::new(pruning_grid(EMI_VARIANTS));
    let configs = Arc::new(setup.configs.clone());
    let jobs: Vec<Traced<EmiBaseJob>> = bases
        .into_iter()
        .enumerate()
        .map(|(base_index, base)| Traced {
            inner: EmiBaseJob {
                base,
                base_index,
                campaign_seed: c.seed,
                grid: Arc::clone(&grid),
                configs: Arc::clone(&configs),
                exec: exec.clone(),
            },
            job: ordinal << 32 | base_index as u64,
        })
        .collect();
    let mut tally = EmiTally::new(labels.len());
    let outputs = drive(setup, jobs, |_, _| {});
    let judged = outputs.len();
    for out in outputs {
        tally.record(&out.output);
        traced.verdicts += out.output.len() as u64;
        traced.bugs += out.output.iter().filter(|j| !j.stable).count() as u64;
        if let ReplayInput::Variants(variants, _) = &out.input {
            traced.variants += variants.len() as u64;
        }
        traced.jobs.push((out.job, out.input, out.execute_span));
    }
    traced.programs = (judged * grid.len()) as u64;
    let result = EmiCampaignResult {
        bases: judged,
        variants_per_base: grid.len(),
        labels: labels.to_vec(),
        stats: tally.per_target.clone(),
    };
    traced.digest = campaign::table_digest(&render_emi_table(&result), &tally);
    traced
}

// --- Replay -----------------------------------------------------------------

/// A launch key: the compiled program's fingerprint and which execution
/// options it ran under (0 = the campaign's, 1 = `dead` inverted).
type LaunchKey = (Fingerprint, u8);

/// Layer totals over the replayed jobs.
#[derive(Default)]
struct Layers {
    /// Printed source size of the generated kernels and liveness
    /// candidates, counted here so that printing stays out of the timed
    /// passes.
    generated_bytes: u64,
    frontend_ns: u64,
    lower_ns: u64,
    vm_ns: u64,
    cache_ns: i64,
    targets: u64,
    decided: u64,
    transformed: u64,
    lowered: u64,
    instructions: u64,
    registers: u64,
    launches: u64,
    steps: u64,
    work_items: u64,
}

fn launch_options(exec: &ExecOptions, inverted_dead: Option<usize>) -> LaunchOptions {
    let mut options = LaunchOptions {
        step_limit: exec.step_limit,
        detect_races: exec.detect_races,
        schedule: exec.schedule,
        buffer_overrides: Arc::clone(&exec.buffer_overrides),
        scalar_args: HashMap::new(),
        tier: exec.tier,
    };
    if let Some(len) = inverted_dead {
        Arc::make_mut(&mut options.buffer_overrides)
            .insert("dead".into(), BufferInit::ReverseIota.materialize(len));
    }
    options
}

/// Replays the execute stages of one campaign, in job order.
struct Replay<'a> {
    exec: &'a ExecOptions,
    /// Keys launched so far in the campaign: a later request for one is a
    /// memo or SHARED hit, not a launch.
    launched: HashSet<LaunchKey>,
    layers: &'a mut Layers,
}

impl Replay<'_> {
    /// The front end of one target: counts the outcome and queues the
    /// compiled program for launch when its key has not run yet.
    fn compile(
        &mut self,
        session: &Session<'_>,
        target: (&Configuration, OptLevel),
        job: u64,
        parent: usize,
        queue: &mut Vec<(Program, u8)>,
    ) {
        let (compiled, id) = span("platform.frontend", job, Some(parent), || {
            session.compile(target.0, target.1)
        });
        self.layers.frontend_ns += span_ns(id);
        self.layers.targets += 1;
        match compiled {
            CompiledProgram::Decided { .. } => self.layers.decided += 1,
            CompiledProgram::Execute {
                program,
                fingerprint,
                ..
            } => {
                if matches!(program, Cow::Owned(_)) {
                    self.layers.transformed += 1;
                }
                if self.launched.insert((fingerprint, 0)) {
                    queue.push((program.into_owned(), 0));
                }
            }
        }
    }

    /// Replays one job's execute stage layer by layer and charges the rest
    /// of its execute span to the platform cache.
    fn job(&mut self, job: u64, input: ReplayInput, execute_span: usize) {
        let parent = Some(execute_span);
        let before = self.layers.frontend_ns + self.layers.lower_ns + self.layers.vm_ns;
        let mut queue: Vec<(Program, u8)> = Vec::new();
        match &input {
            ReplayInput::Kernel(program, targets) => {
                let (session, id) =
                    span("platform.frontend", job, parent, || Session::new(program));
                self.layers.frontend_ns += span_ns(id);
                for target in targets.iter() {
                    let target = (&target.config, target.opt);
                    self.compile(&session, target, job, execute_span, &mut queue);
                }
            }
            ReplayInput::Probe(program) => {
                let (session, id) =
                    span("platform.frontend", job, parent, || Session::new(program));
                self.layers.frontend_ns += span_ns(id);
                for variant in [0u8, 1] {
                    if self.launched.insert((session.fingerprint(), variant)) {
                        queue.push((program.clone(), variant));
                    }
                }
            }
            ReplayInput::Variants(variants, configs) => {
                let (sessions, id) = span("platform.frontend", job, parent, || {
                    variants.iter().map(Session::new).collect::<Vec<_>>()
                });
                self.layers.frontend_ns += span_ns(id);
                for config in configs.iter() {
                    for opt in OptLevel::BOTH {
                        for session in &sessions {
                            self.compile(session, (config, opt), job, execute_span, &mut queue);
                        }
                    }
                }
            }
        }
        for (program, variant) in queue {
            self.launch(program, variant, job, parent);
        }
        let children = self.layers.frontend_ns + self.layers.lower_ns + self.layers.vm_ns - before;
        self.layers.cache_ns += span_ns(execute_span) as i64 - children as i64;
        if let ReplayInput::Kernel(program, _) | ReplayInput::Probe(program) = &input {
            self.layers.generated_bytes += clc::printer::print_program(program).len() as u64;
        }
    }

    /// Lowers a program, then launches it (which lowers it again inside
    /// `CompiledKernel`): VM time is the launch minus the lowering.
    fn launch(&mut self, program: Program, variant: u8, job: u64, parent: Option<usize>) {
        let options = launch_options(self.exec, (variant == 1).then_some(program.dead_len));
        let layers = &mut *self.layers;
        layers.work_items += program.launch.global.iter().product::<usize>() as u64;
        let (lowered, lower) = span("interp.lower", job, parent, || {
            clc_interp::compile(&program)
        });
        layers.lowered += 1;
        layers.instructions += lowered.instruction_count() as u64;
        layers.registers += lowered.register_count() as u64;
        drop(lowered);
        let (result, launch) = span("interp.launch", job, parent, || {
            CompiledKernel::compile(program).launch(&options)
        });
        let (lower_ns, launch_ns) = (span_ns(lower), span_ns(launch));
        layers.lower_ns += lower_ns;
        layers.vm_ns += launch_ns.saturating_sub(lower_ns);
        layers.launches += 1;
        if let Ok(result) = result {
            layers.steps += result.total_steps;
        }
    }
}

// --- The traced run ---------------------------------------------------------

/// Totals over every traced campaign.
#[derive(Default)]
struct Totals {
    layers: Layers,
    campaigns: u64,
    programs: u64,
    kernels: u64,
    candidates: u64,
    live: u64,
    variants: u64,
    bugs: u64,
    verdicts: u64,
    journal_records: u64,
    journal_bytes: u64,
    cache: CacheStats,
    store: StoreStats,
    untraced_wall: f64,
    traced_wall: f64,
    busy: f64,
    capacity: f64,
    launch_mismatch: u64,
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        requests: after.requests - before.requests,
        launches: after.launches - before.launches,
        compiles: after.compiles - before.compiles,
        outcome_hits: after.outcome_hits - before.outcome_hits,
        kernel_hits: after.kernel_hits - before.kernel_hits,
        shared_hits: after.shared_hits - before.shared_hits,
        store_hits: after.store_hits - before.store_hits,
    }
}

fn add_cache(total: &mut CacheStats, d: CacheStats) {
    total.requests += d.requests;
    total.launches += d.launches;
    total.compiles += d.compiles;
    total.outcome_hits += d.outcome_hits;
    total.kernel_hits += d.kernel_hits;
    total.shared_hits += d.shared_hits;
    total.store_hits += d.store_hits;
}

fn add_store(total: &mut StoreStats, after: StoreStats, before: StoreStats) {
    total.hits += after.hits - before.hits;
    total.misses += after.misses - before.misses;
    total.writes += after.writes - before.writes;
    total.bytes += after.bytes.saturating_sub(before.bytes);
}

/// The store a pass writes to: a fresh one on `classify-default`, none on
/// `emi-default`.
fn pass_store(workload: Workload, dir: &Path) -> Result<Option<Arc<OutcomeStore>>, String> {
    match workload {
        Workload::ClassifyDefault => OutcomeStore::open(dir)
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("store {}: {e}", dir.display())),
        Workload::EmiDefault => Ok(None),
    }
}

/// One campaign: an untraced pass and a traced pass (alternating which goes
/// first), then the replay.  Returns whether both tables checked out and
/// the deterministic counts agreed.
fn trace_campaign(
    args: &Args,
    setup: &Setup,
    c: &Campaign,
    ordinal: u64,
    run_dir: &Path,
    totals: &mut Totals,
    counts: &mut Counts,
) -> Result<bool, String> {
    let family = args.workload.family();
    let journaled = args.workload == Workload::ClassifyDefault;
    let mut ok = true;
    let labels = emi_labels(&setup.configs);
    let mut traced = None;
    let mut untraced_cache = CacheStats::default();
    let mut traced_cache = CacheStats::default();
    for pass in 0..2u64 {
        let untraced = (pass + ordinal).is_multiple_of(2);
        let store_dir = run_dir.join(format!("store-{ordinal}-{pass}"));
        let journal = run_dir.join(format!("journal-{ordinal}-{pass}"));
        let store = pass_store(args.workload, &store_dir)?;
        let store_before = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        let exec = campaign::exec_options(false, store.clone());
        reset_shared_outcome_cache();
        let cache_before = process_cache_stats();
        let start = Instant::now();
        if untraced {
            let ran = campaign::run(
                &setup.scheduler,
                family,
                &setup.configs,
                c.seed,
                exec,
                journaled.then_some(journal.as_path()),
            );
            totals.untraced_wall += start.elapsed().as_secs_f64();
            untraced_cache = cache_delta(process_cache_stats(), cache_before);
            ok &= checks_out(&ran, c);
            if let Ok(ran) = ran {
                record_pipeline(totals, &ran.pipeline);
            }
        } else {
            let journal = journaled.then_some(journal.as_path());
            let result = catch_unwind(AssertUnwindSafe(|| match family {
                Family::Classify => traced_classify(setup, c, &exec, ordinal, journal),
                Family::Emi => Ok(traced_emi(setup, c, &exec, ordinal, &labels)),
            }))
            .unwrap_or_else(|_| Err("a traced job panicked".into()));
            totals.traced_wall += start.elapsed().as_secs_f64();
            traced_cache = cache_delta(process_cache_stats(), cache_before);
            add_cache(&mut totals.cache, traced_cache);
            if let Some(store) = &store {
                add_store(&mut totals.store, store.stats(), store_before);
            }
            match result {
                Ok(t) if t.digest == c.golden => traced = Some((t, exec)),
                Ok(t) => {
                    eprintln!(
                        "traced campaign {:?} {}: table digest {:016x}, golden {:016x}",
                        c.family, c.seed, t.digest, c.golden
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("traced campaign {:?} {}: {e}", c.family, c.seed);
                    ok = false;
                }
            }
        }
        remove(&store_dir);
        remove(&journal);
    }
    let Some((t, exec)) = traced else {
        return Ok(false);
    };
    if untraced_cache != traced_cache {
        eprintln!(
            "determinism drift on {} {}: untraced pass {untraced_cache:?}, traced pass {traced_cache:?}",
            args.workload.name(),
            c.seed
        );
        ok = false;
    }
    let before = (
        totals.layers.launches,
        totals.layers.steps,
        totals.layers.decided,
    );
    let mut replay = Replay {
        exec: &exec,
        launched: HashSet::new(),
        layers: &mut totals.layers,
    };
    for (job, input, execute_span) in t.jobs {
        replay.job(job, input, execute_span);
    }
    let replayed = totals.layers.launches - before.0;
    totals.launch_mismatch += replayed.abs_diff(traced_cache.launches);
    totals.campaigns += 1;
    totals.programs += t.programs;
    totals.kernels += t.kernels;
    totals.candidates += t.candidates;
    totals.live += t.live;
    totals.variants += t.variants;
    totals.bugs += t.bugs;
    totals.verdicts += t.verdicts;
    totals.journal_records += t.journal_records;
    totals.journal_bytes += t.journal_bytes;
    let record = format!(
        "steps={} launches={} decided={} bugs={}/{}",
        totals.layers.steps - before.1,
        traced_cache.launches,
        totals.layers.decided - before.2,
        t.bugs,
        t.verdicts
    );
    ok &= counts.check(args.workload, c.seed, &record);
    Ok(ok)
}

fn record_pipeline(totals: &mut Totals, pipeline: &PipelineMetrics) {
    totals.busy += pipeline
        .stage_busy
        .iter()
        .map(|d| d.as_secs_f64())
        .sum::<f64>();
    totals.capacity += pipeline.wall.as_secs_f64() * pipeline.workers as f64;
}

/// Table 5's column labels: each configuration at both optimisation levels,
/// in the order `run_emi_campaign_sharded` lays them out.
fn emi_labels(configs: &[Configuration]) -> Vec<String> {
    configs
        .iter()
        .flat_map(|config| OptLevel::BOTH.map(|opt| config.label(opt)))
        .collect()
}

/// The per-campaign deterministic counts of earlier runs of this binary in
/// this checkout.  Each line is `executable-digest workload seed\tcounts`;
/// lines of other binaries are kept but never compared.
struct Counts {
    path: std::path::PathBuf,
    exe: String,
    known: HashMap<String, String>,
}

impl Counts {
    fn load() -> Result<Counts, String> {
        let exe = std::env::current_exe()
            .and_then(fs::read)
            .map_err(|e| format!("current executable: {e}"))?;
        let exe = format!("{:016x}", checksum(&exe));
        let path = work_dir().join("counts.tsv");
        let known = fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| line.split_once('\t'))
            .filter(|(key, _)| key.starts_with(&exe))
            .map(|(key, value)| (key.to_string(), value.to_string()))
            .collect();
        Ok(Counts { path, exe, known })
    }

    /// Records a campaign's counts, or compares them with the ones an
    /// earlier run of the same binary recorded; returns false on drift.
    fn check(&mut self, workload: Workload, seed: u64, record: &str) -> bool {
        let key = format!("{} {} {seed}", self.exe, workload.name());
        match self.known.get(&key) {
            Some(known) if known == record => true,
            Some(known) => {
                eprintln!("determinism drift on {key}: recorded {known}, now {record}");
                false
            }
            None => {
                self.known.insert(key.clone(), record.to_string());
                let line = format!("{key}\t{record}\n");
                let appended = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
                if let Err(e) = appended {
                    eprintln!("{}: {e}", self.path.display());
                }
                true
            }
        }
    }
}

/// Writes every span as `id name job parent start_ns end_ns`.
fn write_spans(path: &Path) {
    let spans = recorder().spans.lock().expect("no span holder panics");
    let mut text = String::from("id\tname\tjob\tparent\tstart_ns\tend_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{id}\t{}\t{:x}\t{parent}\t{}\t{}",
            s.name, s.job, s.start, s.end
        );
    }
    if let Err(e) = fs::write(path, text) {
        eprintln!("{}: {e}", path.display());
    }
}

/// Sums the spans called `name`, in seconds.
fn span_seconds(name: &str) -> f64 {
    let spans = recorder().spans.lock().expect("no span holder panics");
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .sum::<u64>() as f64
        / 1e9
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let run_dir = work_dir().join(format!("trace-{}", std::process::id()));
    fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    remove(&run_dir);
    write_spans(&work_dir().join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed)));
    result
}

fn run_in(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let setup = measure::set_up(args)?;
    let campaigns: Vec<Campaign> = setup.order.iter().take(TRACED_CAMPAIGNS).copied().collect();
    let mut counts = Counts::load()?;
    let mut totals = Totals::default();
    let (mut attempted, mut failed) = (0, 0);
    for (ordinal, c) in campaigns.iter().enumerate() {
        let programs = campaign::programs_per_campaign(args.workload.family());
        attempted += programs;
        if !trace_campaign(
            args,
            &setup,
            c,
            ordinal as u64,
            run_dir,
            &mut totals,
            &mut counts,
        )? {
            failed += programs;
        }
    }
    let l = &totals.layers;
    let s = |ns: u64| ns as f64 / 1e9;
    let stage_s = span_seconds("clsmith.generate")
        + span_seconds("clsmith.emi.prune")
        + span_seconds("harness.execute")
        + span_seconds("harness.judge");
    let cache_s = l.cache_ns as f64 / 1e9;
    let cache = totals.cache;
    let hits = cache.outcome_hits + cache.shared_hits + cache.store_hits;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m(
            "clsmith.generate.self_s",
            span_seconds("clsmith.generate"),
            "s",
        ),
        m("clsmith.generate.kernels", totals.kernels as f64, "count"),
        m("clsmith.generate.bytes", l.generated_bytes as f64, "B"),
        m(
            "clsmith.emi.prune_self_s",
            span_seconds("clsmith.emi.prune"),
            "s",
        ),
        m("clsmith.emi.variants", totals.variants as f64, "count"),
        m(
            "clsmith.emi.live_frac",
            ratio(totals.live as f64, totals.candidates as f64),
            "frac",
        ),
        m("platform.frontend.self_s", s(l.frontend_ns), "s"),
        m("platform.frontend.targets", l.targets as f64, "count"),
        m(
            "platform.frontend.decided_frac",
            ratio(l.decided as f64, l.targets as f64),
            "frac",
        ),
        m(
            "platform.frontend.transformed_frac",
            ratio(l.transformed as f64, l.targets as f64),
            "frac",
        ),
        m("platform.cache.self_s", cache_s, "s"),
        m("platform.cache.requests", cache.requests as f64, "count"),
        m(
            "platform.cache.memo_hits",
            cache.outcome_hits as f64,
            "count",
        ),
        m(
            "platform.cache.shared_hits",
            cache.shared_hits as f64,
            "count",
        ),
        m(
            "platform.cache.hit_frac",
            ratio(hits as f64, (hits + cache.launches) as f64),
            "frac",
        ),
        m(
            "platform.cache.launches_per_kernel",
            ratio(cache.launches as f64, totals.programs as f64),
            "count",
        ),
        m("store.hits", totals.store.hits as f64, "count"),
        m("store.misses", totals.store.misses as f64, "count"),
        m("store.writes", totals.store.writes as f64, "count"),
        m("store.bytes", totals.store.bytes as f64, "B"),
        m("interp.lower.self_s", s(l.lower_ns), "s"),
        m("interp.lower.kernels", l.lowered as f64, "count"),
        m("interp.lower.instructions", l.instructions as f64, "count"),
        m("interp.lower.registers", l.registers as f64, "count"),
        m("interp.vm.self_s", s(l.vm_ns), "s"),
        m("interp.vm.launches", l.launches as f64, "count"),
        m("interp.vm.steps", l.steps as f64, "count"),
        m("interp.vm.work_items", l.work_items as f64, "count"),
        m(
            "interp.vm.ns_per_step",
            ratio(l.vm_ns as f64, l.steps as f64),
            "ns",
        ),
        m(
            "interp.vm.us_per_launch",
            ratio(l.vm_ns as f64 / 1e3, l.launches as f64),
            "us",
        ),
        m("harness.judge.self_s", span_seconds("harness.judge"), "s"),
        m(
            "harness.judge.bug_frac",
            ratio(totals.bugs as f64, totals.verdicts as f64),
            "frac",
        ),
        m("journal.records", totals.journal_records as f64, "count"),
        m("journal.bytes", totals.journal_bytes as f64, "B"),
        m("journal.self_s", span_seconds("journal.write"), "s"),
        m(
            "exec.busy_frac",
            ratio(totals.busy, totals.capacity),
            "frac",
        ),
        m("exec.idle_s", totals.capacity - totals.busy, "s"),
        m(
            "trace.overhead_frac",
            ratio(
                totals.traced_wall - totals.untraced_wall,
                totals.untraced_wall,
            ),
            "frac",
        ),
        m("trace.residual_frac", ratio(cache_s, stage_s), "frac"),
        m(
            "trace.launch_mismatch",
            totals.launch_mismatch as f64,
            "count",
        ),
        m("trace.campaigns", totals.campaigns as f64, "count"),
    ];
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
