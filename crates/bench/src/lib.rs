//! # bench — reproduction binaries and performance benchmarks
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md for the per-experiment index); the
//! benchmark in `benches/throughput.rs` measures generator/emulator/campaign
//! throughput, including how campaign wall-clock scales with the worker
//! count of the `fuzz_harness::exec` scheduler.
//!
//! The campaign binaries (`table1`, `table3`, `table4`, `table5`, `corpus`)
//! are each a [`Table`] over a `fuzz_harness::Campaign`, and all of them run
//! through [`campaign_main`], so they share one command line:
//!
//! * `--threads N` pins the scheduler's worker count (default:
//!   `FUZZ_THREADS` or the machine's available parallelism; `N` must be at
//!   least 1 — a zero-worker pool could never drain its queue).  It never
//!   changes the produced tables — only how fast they appear;
//! * `--shard I/N` runs shard `I` of an `N`-way split of the campaign's
//!   job space (any subset of shards is independently computable — on any
//!   machine — because job seeds derive from the job index);
//! * `--journal PATH` records every completed job to a resumable journal;
//! * `--resume` skips the jobs already in the journal (a half-written
//!   record from a mid-write kill is detected by checksum and dropped);
//! * `<binary> merge J1 [J2 ...]` refolds any subset of shard or lease
//!   journals into the (full or partial) table without re-running anything;
//! * `<binary> coordinate [scale] --fleet-dir DIR` runs the campaign as a
//!   crash-tolerant fleet of `<binary> worker` processes (see [`fleet`]),
//!   with `--follow` streaming fleet events and the partial table live.
//!
//! Every campaign binary also speaks the cross-campaign outcome store:
//! `--store PATH` points executions at an on-disk outcome cache shared
//! across runs (and across concurrent shard processes), `--no-store`
//! disables it, and neither flag defers to the `CLFUZZ_STORE` environment
//! variable.  The store never changes the produced tables either.
//!
//! Unknown flags and non-numeric scale arguments are usage errors (exit 2).
//! Tables go to stdout; shard/resume/merge progress lines and the store and
//! execution-cache counters go to stderr, so merged outputs can be diffed
//! byte for byte.

pub mod fleet;

use std::path::PathBuf;
use std::sync::Arc;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, RefoldSummary, ShardMetrics, ShardSelect};
use fuzz_harness::{merge_journals, run_shard, Campaign, Scheduler};
use opencl_sim::{Configuration, ExecOptions, OutcomeStore};

/// What a campaign binary was asked to do (its first positional argument).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run the campaign, or one `--shard` of it.
    Run,
    /// `merge J1 [J2 ...]`: refold journals into the table.
    Merge(Vec<PathBuf>),
    /// `coordinate`: run the campaign as a worker fleet.
    Coordinate,
    /// `worker`: serve a coordinator's leases over stdin/stdout.
    Worker,
}

/// Command-line options shared by the campaign binaries.
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// The numeric positional arguments: the campaign's scale.
    pub scale: Vec<usize>,
    /// The scheduler campaigns run on (`--threads N`, `FUZZ_THREADS`, or
    /// the machine's available parallelism).
    pub scheduler: Scheduler,
    /// Whether `--paper-scale` was given: generate kernels at the paper's
    /// scale (100–10 000 work-items, full permutation tables) instead of
    /// the fast emulation-friendly default.
    pub paper_scale: bool,
    /// Which shard of the campaign's job space to run (`--shard I/N`;
    /// defaults to the whole space).
    pub shard: ShardSelect,
    /// Journal path (`--journal PATH`).
    pub journal: Option<PathBuf>,
    /// Whether `--resume` was given (requires `--journal`).
    pub resume: bool,
    /// Cross-campaign outcome store directory (`--store PATH`; defaults to
    /// `CLFUZZ_STORE` when unset).
    pub store: Option<PathBuf>,
    /// Whether `--no-store` was given: run without an outcome store even
    /// when `CLFUZZ_STORE` is set.
    pub no_store: bool,
    /// Fleet-mode flags, used by the `coordinate` and `worker` subcommands.
    pub fleet: FleetCliOptions,
}

/// Flags of the fleet subcommands (`coordinate` spawns `worker` children;
/// see the `fleet` module).
#[derive(Debug, Clone)]
pub struct FleetCliOptions {
    /// Worker processes the coordinator keeps alive (`--workers N`).
    pub workers: usize,
    /// Jobs per lease (`--lease-jobs N`).
    pub lease_jobs: u64,
    /// Journal-growth liveness timeout in milliseconds
    /// (`--lease-timeout-ms N`).
    pub lease_timeout_ms: u64,
    /// Re-lease attempts before a range is quarantined (`--max-retries N`).
    pub max_retries: u32,
    /// Jobs between journal checkpoints in lease workers
    /// (`--checkpoint-every N`).
    pub checkpoint_every: u64,
    /// Directory for lease journals and fleet logs (`--fleet-dir PATH`;
    /// required by `coordinate`).
    pub fleet_dir: Option<PathBuf>,
    /// Fault-injection spec (`--faults SPEC`; `CLFUZZ_FAULTS` overrides).
    pub faults: Option<String>,
    /// Whether `--follow` was given: stream fleet events to stderr live.
    pub follow: bool,
}

impl Default for FleetCliOptions {
    fn default() -> FleetCliOptions {
        FleetCliOptions {
            workers: 2,
            lease_jobs: 8,
            lease_timeout_ms: 30_000,
            max_retries: 3,
            checkpoint_every: 16,
            fleet_dir: None,
            faults: None,
            follow: false,
        }
    }
}

impl Cli {
    /// The base generator options selected by the flags: the paper's
    /// generation scale under `--paper-scale`, otherwise the given fast
    /// default.  Mode and seed are overridden per kernel by the campaign
    /// drivers either way.
    pub fn generator_or(&self, fast_default: GeneratorOptions) -> GeneratorOptions {
        if self.paper_scale {
            GeneratorOptions::paper_scale(GenMode::All, 0)
        } else {
            fast_default
        }
    }

    /// The shard executor's journal configuration implied by `--journal` /
    /// `--resume`.
    pub fn journal_options(&self) -> Option<JournalOptions> {
        self.journal.as_ref().map(|path| JournalOptions {
            path: path.clone(),
            resume: self.resume,
        })
    }

    /// Whether this run covers only part of the job space (so the printed
    /// table is partial).
    pub fn is_sharded(&self) -> bool {
        self.shard.count > 1
    }

    /// The execution options selected by the store flags: `--store PATH`
    /// opens (creating if needed) an explicit outcome store, `--no-store`
    /// disables the store even when `CLFUZZ_STORE` is set, and neither flag
    /// defers to the environment default.  The store never changes the
    /// produced tables — only how fast repeat executions resolve.
    pub fn exec_options(&self) -> ExecOptions {
        let mut exec = ExecOptions::default();
        if self.no_store {
            exec.store = None;
        } else if let Some(path) = &self.store {
            match OutcomeStore::open(path) {
                Ok(store) => exec.store = Some(Arc::new(store)),
                Err(e) => fail(format!("--store {}: {e}", path.display())),
            }
        }
        exec
    }
}

/// A campaign binary: the campaign it runs and how the campaign's tally
/// renders as its table.
pub trait Table {
    /// The campaign behind the table.
    type Campaign: Campaign<Context = [Configuration]>;
    /// Defaults of the positional scale arguments, in order.
    const SCALE: &'static [usize];
    /// The configurations the table spans.
    fn configs() -> Vec<Configuration>;
    /// Builds the campaign at `scale` (one value per [`Table::SCALE`]
    /// entry), executing with `exec`.
    fn campaign(
        cli: &Cli,
        configs: &[Configuration],
        scale: &[usize],
        exec: ExecOptions,
    ) -> Self::Campaign;
    /// Renders the table — title, provenance banner and body — of a tally.
    fn render(campaign: &Self::Campaign, tally: &TallyOf<Self>, provenance: &Provenance) -> String;
}

/// The tally type of a [`Table`]'s campaign.
pub type TallyOf<T> = <<T as Table>::Campaign as Campaign>::Tally;

/// How a rendered table came about, which decides the banner under its
/// title.
#[derive(Debug, Clone, Copy)]
pub enum Provenance {
    /// A run over the whole job space, or one `--shard` of it.
    Run {
        /// Scheduler workers.
        workers: usize,
        /// The shard, when the run covered only part of the space.
        shard: Option<ShardSelect>,
        /// Jobs the tally covers.
        jobs: u64,
    },
    /// Refolded from journals (`merge`, `coordinate`, `--follow`).
    Merged {
        /// Jobs the tally covers.
        jobs: u64,
    },
}

/// The `main` of every campaign binary: parses the shared command line and
/// runs, merges, coordinates or serves `T`'s campaign.
pub fn campaign_main<T: Table>() {
    let cli = cli();
    let configs = T::configs();
    if let Command::Merge(paths) = &cli.command {
        let (campaign, tally, summary) =
            merge_journals::<T::Campaign>(paths, &configs).unwrap_or_else(|e| fail(e));
        report_refold_summary(&summary);
        let provenance = Provenance::Merged {
            jobs: summary.jobs_folded,
        };
        print!("{}", T::render(&campaign, &tally, &provenance));
        return;
    }
    if cli.scale.len() > T::SCALE.len() {
        usage_error(format!(
            "expected at most {} scale argument(s), got {}",
            T::SCALE.len(),
            cli.scale.len()
        ));
    }
    let scale: Vec<usize> = T::SCALE
        .iter()
        .enumerate()
        .map(|(i, default)| cli.scale.get(i).copied().unwrap_or(*default))
        .collect();
    let exec = cli.exec_options();
    let campaign = T::campaign(&cli, &configs, &scale, exec.clone());
    match cli.command {
        Command::Coordinate => fleet::coordinate::<T>(&cli, &configs, &campaign, &scale),
        Command::Worker => fleet::serve(&cli, &campaign),
        Command::Run | Command::Merge(_) => {}
    }
    let run = run_shard(
        &cli.scheduler,
        &campaign,
        cli.shard,
        cli.journal_options().as_ref(),
    )
    .unwrap_or_else(|e| fail(e));
    report_shard_metrics(&cli, &run.metrics);
    report_store_stats(&exec);
    report_cache_stats();
    let provenance = Provenance::Run {
        workers: cli.scheduler.threads(),
        shard: cli.is_sharded().then_some(cli.shard),
        jobs: run.jobs,
    };
    print!("{}", T::render(&campaign, &run.aggregate, &provenance));
}

/// Prints a parse/validation error and exits with status 2.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Prints a campaign/journal error and exits with status 1.
pub fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

/// Reports a sharded run's resume/journal metrics on stderr (stdout is
/// reserved for the table, which merge outputs diff byte for byte).
pub fn report_shard_metrics(cli: &Cli, metrics: &ShardMetrics) {
    if cli.journal.is_none() && !cli.is_sharded() {
        return;
    }
    eprintln!(
        "shard {}: {} job(s) resumed from the journal, {} executed, journal {} byte(s){}",
        cli.shard,
        metrics.jobs_resumed,
        metrics.jobs_replayed,
        metrics.journal_bytes,
        if metrics.dropped_bytes > 0 {
            format!(", {} corrupt tail byte(s) dropped", metrics.dropped_bytes)
        } else {
            String::new()
        }
    );
}

/// Reports the process's execution-cache counters on stderr as one line of
/// `key=value` pairs: `hits` counts executions served from the process-wide
/// cache, `store_hits` those served from the on-disk store.
fn report_cache_stats() {
    let stats = opencl_sim::process_cache_stats();
    eprintln!(
        "cache: requests={} launches={} compiles={} hits={} store_hits={}",
        stats.requests, stats.launches, stats.compiles, stats.shared_hits, stats.store_hits
    );
}

/// Reports the outcome store's counters on stderr (stdout is reserved for
/// the table, which store-warm re-runs diff byte for byte).  No-op when no
/// store is configured.
pub fn report_store_stats(exec: &ExecOptions) {
    if let Some(store) = &exec.store {
        let stats = store.stats();
        eprintln!(
            "store {}: {} hit(s), {} miss(es), {} write(s), {} eviction(s), {} byte(s), hit rate {:.2}{}",
            store.dir().display(),
            stats.hits,
            stats.misses,
            stats.writes,
            stats.evictions,
            stats.bytes,
            stats.hit_rate(),
            if stats.transient_errors > 0 || stats.corrupt_entries > 0 {
                format!(
                    ", {} transient error(s), {} corrupt entrie(s) deleted",
                    stats.transient_errors, stats.corrupt_entries
                )
            } else {
                String::new()
            }
        );
    }
}

/// Reports what a `merge` covered on stderr.
pub fn report_refold_summary(summary: &RefoldSummary) {
    eprintln!(
        "merged {} journal(s): {}/{} job(s) of campaign {:?} (seed {:016x}){}",
        summary.journals,
        summary.jobs_folded,
        summary.total_jobs,
        summary.campaign,
        summary.campaign_seed,
        if summary.complete {
            " — complete".to_string()
        } else {
            " — PARTIAL table".to_string()
        }
    );
}

/// Parses a `--threads` argument value: a positive integer (zero is
/// rejected — a zero-worker scheduler could never drain its queue, so the
/// historical "accept 0, build a stuck pool" behaviour is now an error).
pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    match value.map(str::parse::<usize>) {
        Some(Ok(0)) => Err("--threads must be at least 1 (got 0); \
             omit the flag to use every core"
            .to_string()),
        Some(Ok(n)) => Ok(n),
        _ => Err(format!(
            "--threads requires a positive integer, got {:?}",
            value.unwrap_or("nothing")
        )),
    }
}

/// Validates the store flag combination: at most one of `--store PATH` and
/// `--no-store`, and the path (when given) must be non-empty.  Pure so the
/// conflict handling is unit-testable like [`parse_threads`].
pub fn resolve_store(store: Option<&str>, no_store: bool) -> Result<Option<PathBuf>, String> {
    match (store, no_store) {
        (Some(_), true) => {
            Err("--store PATH conflicts with --no-store; pass at most one".to_string())
        }
        (Some(""), false) => Err("--store requires a non-empty path".to_string()),
        (Some(path), false) => Ok(Some(PathBuf::from(path))),
        (None, _) => Ok(None),
    }
}

/// Parses the process's command line ([`parse_cli`]), exiting with a usage
/// error (status 2) when it is invalid.
pub fn cli() -> Cli {
    parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(e))
}

/// Parses the campaign binaries' command line: the `merge`, `coordinate`
/// and `worker` subcommands, the numeric scale arguments, and the flags
/// (`--threads N`, `--paper-scale`, `--shard I/N`, `--journal PATH`,
/// `--resume`, `--store PATH`, `--no-store` and the fleet flags), each
/// valued flag also accepted as `--flag=VALUE`.  Unknown flags and
/// non-numeric scale arguments are errors.
pub fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut args = args.into_iter();
    let mut positional = Vec::new();
    let mut threads: Option<usize> = None;
    let mut paper_scale = false;
    let mut shard = ShardSelect::whole();
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut store: Option<String> = None;
    let mut no_store = false;
    let mut fleet = FleetCliOptions::default();
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        match value.as_deref().map(str::parse) {
            Some(Ok(n)) => Ok(n),
            _ => Err(format!(
                "{flag} requires a number, got {:?}",
                value.unwrap_or_default()
            )),
        }
    }
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg.clone(), None),
        };
        let switch = inline.is_none();
        let mut value = || inline.clone().or_else(|| args.next());
        match flag.as_str() {
            "--threads" => threads = Some(parse_threads(value().as_deref())?),
            "--shard" => {
                shard = ShardSelect::parse(&value().ok_or("--shard requires an I/N argument")?)?
            }
            "--journal" => {
                journal = Some(PathBuf::from(value().ok_or("--journal requires a path")?))
            }
            "--store" => store = Some(value().ok_or("--store requires a path")?),
            "--workers" => fleet.workers = number(&flag, value())?,
            "--lease-jobs" => fleet.lease_jobs = number(&flag, value())?,
            "--lease-timeout-ms" => fleet.lease_timeout_ms = number(&flag, value())?,
            "--max-retries" => fleet.max_retries = number(&flag, value())?,
            "--checkpoint-every" => fleet.checkpoint_every = number(&flag, value())?,
            "--fleet-dir" => {
                fleet.fleet_dir = Some(PathBuf::from(value().ok_or("--fleet-dir requires a path")?))
            }
            "--faults" => {
                fleet.faults = Some(value().ok_or("--faults requires a spec (e.g. kill@3,torn@5)")?)
            }
            "--paper-scale" if switch => paper_scale = true,
            "--resume" if switch => resume = true,
            "--no-store" if switch => no_store = true,
            "--follow" if switch => fleet.follow = true,
            "--paper-scale" | "--resume" | "--no-store" | "--follow" => {
                return Err(format!("{flag} takes no value, got {arg:?}"))
            }
            _ => return Err(format!("unknown flag {arg:?}")),
        }
    }
    if fleet.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if fleet.lease_jobs == 0 {
        return Err("--lease-jobs must be at least 1".to_string());
    }
    if fleet.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".to_string());
    }
    let store = resolve_store(store.as_deref(), no_store)?;
    let command = match positional.first().map(String::as_str) {
        Some("merge") => {
            let paths: Vec<PathBuf> = positional.drain(..).skip(1).map(PathBuf::from).collect();
            if paths.is_empty() {
                return Err("merge requires at least one journal path".to_string());
            }
            Command::Merge(paths)
        }
        Some("coordinate") => Command::Coordinate,
        Some("worker") => Command::Worker,
        _ => Command::Run,
    };
    if matches!(command, Command::Coordinate | Command::Worker) {
        positional.remove(0);
    }
    let scale = positional
        .iter()
        .map(|arg| {
            arg.parse::<usize>()
                .map_err(|_| format!("expected a non-negative integer argument, got {arg:?}"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    if resume && journal.is_none() {
        return Err("--resume requires --journal PATH".to_string());
    }
    if matches!(command, Command::Merge(_)) && (journal.is_some() || resume || shard.count > 1) {
        return Err("merge takes only journal paths (no --shard/--journal/--resume)".to_string());
    }
    Ok(Cli {
        command,
        scale,
        scheduler: threads.map_or_else(Scheduler::from_env, Scheduler::new),
        paper_scale,
        shard,
        journal,
        resume,
        store,
        no_store,
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn threads_argument_rejects_zero_and_garbage() {
        assert_eq!(parse_threads(Some("1")), Ok(1));
        assert_eq!(parse_threads(Some("16")), Ok(16));
        assert!(parse_threads(Some("0")).unwrap_err().contains("at least 1"));
        assert!(parse_threads(Some("-3")).is_err());
        assert!(parse_threads(Some("two")).is_err());
        assert!(parse_threads(None).is_err());
    }

    #[test]
    fn store_flags_reject_conflicts_and_empty_paths() {
        assert_eq!(resolve_store(None, false), Ok(None));
        assert_eq!(resolve_store(None, true), Ok(None));
        assert_eq!(
            resolve_store(Some("/tmp/store"), false),
            Ok(Some(PathBuf::from("/tmp/store")))
        );
        let conflict = resolve_store(Some("/tmp/store"), true).unwrap_err();
        assert!(conflict.contains("--no-store"), "got: {conflict}");
        assert!(resolve_store(Some(""), false)
            .unwrap_err()
            .contains("non-empty"));
    }

    #[test]
    fn cli_parses_scale_flags_and_subcommands() {
        let cli = parse(&[
            "4",
            "--threads",
            "2",
            "--shard=1/3",
            "--journal",
            "run.journal",
            "--resume",
            "--paper-scale",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.scale, vec![4]);
        assert_eq!(cli.scheduler.threads(), 2);
        assert_eq!(cli.shard, ShardSelect { index: 1, count: 3 });
        assert_eq!(cli.journal, Some(PathBuf::from("run.journal")));
        assert!(cli.resume && cli.paper_scale);

        let cli = parse(&["merge", "a.journal", "b.journal"]).unwrap();
        let paths = vec![PathBuf::from("a.journal"), PathBuf::from("b.journal")];
        assert_eq!(cli.command, Command::Merge(paths));
        assert!(cli.scale.is_empty());

        let cli = parse(&["coordinate", "2", "5", "--fleet-dir", "d", "--follow"]).unwrap();
        assert_eq!(cli.command, Command::Coordinate);
        assert_eq!(cli.scale, vec![2, 5]);
        assert_eq!(cli.fleet.fleet_dir, Some(PathBuf::from("d")));
        assert!(cli.fleet.follow);
        assert_eq!(parse(&["worker", "3"]).unwrap().command, Command::Worker);
    }

    #[test]
    fn cli_rejects_unknown_flags_and_unparsable_scale() {
        for args in [
            &["--pipline", "4"][..],
            &["four"],
            &["4", "-1"],
            &["coordinate", "x"],
            &["--resume=yes", "--journal", "j"],
            &["--resume"],
            &["merge"],
            &["merge", "a.journal", "--shard", "0/2"],
            &["--workers", "0"],
            &["--shard", "2/2"],
            &["--threads"],
        ] {
            assert!(parse(args).is_err(), "{args:?} should not parse");
        }
        let err = parse(&["--pipline", "4"]).err().unwrap();
        assert!(err.contains("unknown flag"), "got: {err}");
    }
}
