//! The untraced run (end-to-end metrics), the set-up it shares with the
//! traced run, and the golden-digest generator.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use fuzz_harness::Scheduler;
use opencl_sim::{reset_shared_outcome_cache, Configuration, OutcomeStore};

use crate::campaign::{self, Campaign, Family};
use crate::{cpu, heap};
use crate::{work_dir, Args, Metric, Report, Workload};

/// Everything a run builds before its first measured campaign.
pub struct Setup {
    pub configs: Vec<Configuration>,
    /// The workload's corpus in the order the run visits it.
    pub order: Vec<Campaign>,
    pub scheduler: Scheduler,
}

/// Builds the run's set-up: the workload's corpus in the seed's order, the
/// configuration list and the scheduler.
pub fn set_up(args: &Args) -> Result<Setup, String> {
    let family = args.workload.family();
    let campaigns = campaign::golden_campaigns()?;
    let order = campaign::visit_order(&campaigns, family, args.held_out, args.seed);
    if order.is_empty() {
        return Err(format!("golden.tsv lists no {family:?} campaigns"));
    }
    Ok(Setup {
        configs: family.configs(),
        order,
        scheduler: campaign::scheduler(),
    })
}

/// Whether a campaign ran and rendered its golden table; reports why not
/// on stderr.
pub fn checks_out(ran: &Result<campaign::Ran, String>, c: &Campaign) -> bool {
    match ran {
        Ok(ran) if ran.digest == c.golden => true,
        Ok(ran) => {
            eprintln!(
                "campaign {:?} {}: table digest {:016x}, golden {:016x}",
                c.family, c.seed, ran.digest, c.golden
            );
            false
        }
        Err(e) => {
            eprintln!("campaign {:?} {}: {e}", c.family, c.seed);
            false
        }
    }
}

/// Removes a store directory or journal, ignoring a missing one.
pub fn remove(path: &Path) {
    if path.is_dir() {
        let _ = fs::remove_dir_all(path);
    } else {
        let _ = fs::remove_file(path);
    }
}

/// The set-up child: sets up as the run would, reports `ready` on stdout
/// and exits.
pub fn set_up_only(args: &Args) -> Result<(), String> {
    set_up(args)?;
    println!("ready");
    Ok(())
}

/// Times one set-up in a fresh child process of the benchmark, from spawn
/// to `ready`: process start to the point where the first job would start.
/// The set-up itself is small (parsing `golden.tsv`, the configuration
/// list, the scheduler), so most of the figure is the start of the
/// benchmark's own process.
fn time_set_up(args: &Args, exe: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .args(args.held_out.then_some("--heldout"))
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up child: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    // Wait before acting on a read error, so no child outlives the run.
    let status = child.wait().map_err(|e| format!("set-up child: {e}"))?;
    read.map_err(|e| format!("set-up child: {e}"))?;
    if !status.success() || line.trim_end() != "ready" {
        return Err(format!("set-up child failed ({status}): {line:?}"));
    }
    Ok(elapsed)
}

/// One campaign's measurements, a pair per timed pass.
#[derive(Default)]
struct CampaignTimes {
    programs: u64,
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// What the timed passes measured.
#[derive(Default)]
struct Measured {
    passes: u64,
    wall: f64,
    attempted: u64,
    failed: u64,
    /// Per campaign of the corpus, in the run's order.
    campaigns: Vec<CampaignTimes>,
    /// Each campaign's peak live heap, in MiB.
    heap_peaks: Vec<f64>,
    /// Each set-up's time, in seconds.
    setups: Vec<f64>,
}

/// One timed pass: every campaign of the corpus in the run's order, each
/// timed on its own and checked against its golden digest.  Before each
/// campaign, outside its timing, the run times one set-up, so that the
/// set-up samples spread over the whole run rather than catching the
/// machine's state at its start.  Each campaign starts with an empty SHARED
/// cache; on `classify-default` it writes a fresh store and a journal.  Each
/// store and journal is deleted right after its campaign, outside the
/// timing, so a run leaves no backlog of deletions to the runs after it.
fn pass(
    args: &Args,
    setup: &Setup,
    exe: &Path,
    run_dir: &Path,
    measured: &mut Measured,
) -> Result<(), String> {
    let family = args.workload.family();
    measured
        .campaigns
        .resize_with(setup.order.len(), CampaignTimes::default);
    for (i, c) in setup.order.iter().enumerate() {
        let store_dir = run_dir.join(format!("store-{}-{i}", measured.passes));
        let journal = run_dir.join(format!("journal-{}-{i}", measured.passes));
        measured.setups.push(time_set_up(args, exe)?);
        reset_shared_outcome_cache();
        heap::reset_peak();
        let cpu = cpu::seconds();
        let start = Instant::now();
        let ran = match args.workload {
            Workload::ClassifyDefault => match OutcomeStore::open(&store_dir) {
                Ok(store) => campaign::run(
                    &setup.scheduler,
                    family,
                    &setup.configs,
                    c.seed,
                    campaign::exec_options(false, Some(Arc::new(store))),
                    Some(&journal),
                ),
                Err(e) => Err(format!("store {}: {e}", store_dir.display())),
            },
            Workload::EmiDefault => campaign::run(
                &setup.scheduler,
                family,
                &setup.configs,
                c.seed,
                campaign::exec_options(false, None),
                None,
            ),
        };
        let wall = start.elapsed().as_secs_f64();
        let times = &mut measured.campaigns[i];
        times.wall.push(wall);
        times.cpu.push(cpu::seconds() - cpu);
        measured.wall += wall;
        measured.heap_peaks.push(heap::peak_mb());
        let programs = ran
            .as_ref()
            .map_or(campaign::programs_per_campaign(family), |r| r.programs);
        times.programs = programs;
        measured.attempted += programs;
        if !checks_out(&ran, c) {
            measured.failed += programs;
        }
        remove(&store_dir);
        remove(&journal);
    }
    measured.passes += 1;
    Ok(())
}

/// The untraced run: set up, then repeat whole passes over the corpus
/// until about `--seconds` of them have been measured.  Whole passes keep
/// the measured work the same in every run, whatever the seed.
pub fn run(args: &Args) -> Result<Report, String> {
    let run_dir = work_dir().join(format!("run-{}", std::process::id()));
    fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    remove(&run_dir);
    result
}

fn run_in(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let setup = set_up(args)?;
    let mut measured = Measured::default();
    // Stop at the pass boundary nearest `--seconds`, judging the next
    // pass by the last one.
    let mut last_pass = 0.0;
    while measured.passes == 0 || measured.wall + last_pass / 2.0 < args.seconds {
        let before = measured.wall;
        pass(args, &setup, &exe, run_dir, &mut measured)?;
        last_pass = measured.wall - before;
    }
    let (attempted, failed) = (measured.attempted, measured.failed);
    eprintln!(
        "{}: {} pass(es) over {} campaign(s) in {:.2} s, {attempted} program(s) attempted, {failed} failed",
        args.workload.name(),
        measured.passes,
        setup.order.len(),
        measured.wall,
    );
    // A pass as the median pass would take: each campaign's median wall
    // and CPU seconds over the passes.  Medians per campaign, rather than a
    // median of whole passes, discard a slow stretch of the machine that
    // hit only some campaigns of a pass.
    let (mut programs, mut wall, mut cpu_s) = (0, 0.0, 0.0);
    for times in &mut measured.campaigns {
        programs += times.programs;
        wall += median(&mut times.wall);
        cpu_s += median(&mut times.cpu);
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "kernels_per_s",
                value: programs as f64 / wall,
                unit: "1/s",
            },
            Metric {
                name: "cpu_s",
                value: cpu_s,
                unit: "s",
            },
            Metric {
                name: "peak_heap_mb",
                value: median(&mut measured.heap_peaks),
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: median(&mut measured.setups),
                unit: "s",
            },
        ],
    })
}

/// The median of a non-empty sample (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `golden [classify|emi]`: prints `golden.tsv` lines for the pool's
/// campaign seeds `1..=Family::pool_size` and the held-out seeds
/// `1_000_001..=1_000_004`, each the digest of the reference configuration's
/// table.  It also runs the default configuration and refuses to print a
/// line the two disagree on.
pub fn golden(raw: &[String]) -> Result<(), String> {
    let families: Vec<Family> = match raw.first().map(String::as_str) {
        Some("classify") => vec![Family::Classify],
        Some("emi") => vec![Family::Emi],
        None => vec![Family::Classify, Family::Emi],
        Some(other) => return Err(format!("unknown family {other:?}")),
    };
    let scheduler = campaign::scheduler();
    println!("# family\trole\tseed\tdigest");
    for family in families {
        let configs = family.configs();
        let seeds = (1..=family.pool_size() as u64)
            .map(|s| ("pool", s))
            .chain((1..=campaign::HELD_OUT as u64).map(|s| ("heldout", 1_000_000 + s)));
        for (role, seed) in seeds {
            reset_shared_outcome_cache();
            let reference = campaign::exec_options(true, None);
            let golden = campaign::run(&scheduler, family, &configs, seed, reference, None)?;
            reset_shared_outcome_cache();
            let default = campaign::exec_options(false, None);
            let timed = campaign::run(&scheduler, family, &configs, seed, default, None)?;
            if golden.digest != timed.digest {
                return Err(format!(
                    "{family:?} campaign {seed}: reference digest {:016x}, default {:016x}",
                    golden.digest, timed.digest
                ));
            }
            let name = match family {
                Family::Classify => "classify",
                Family::Emi => "emi",
            };
            println!("{name}\t{role}\t{seed}\t{:016x}", golden.digest);
        }
    }
    Ok(())
}
