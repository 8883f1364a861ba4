//! Campaign benchmark for the many-core compiler fuzzing reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--heldout]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- golden
//! ```
//!
//! Run from the repository root.  Each workload runs in its own process and
//! drives the public campaign entry points the `table1`/`table5` binaries
//! call (`classify_configurations_sharded`, `run_emi_campaign_sharded`) on
//! one scheduler worker.  Each workload's corpus is a fixed set of
//! golden-backed campaigns; the seed orders it, and the program only ever
//! sees the generated kernels.  With `--trace 0` the run repeats whole
//! passes over the corpus until `--seconds` have been measured and prints
//! the end-to-end metrics; with `--trace 1` it traces four campaigns and
//! prints the per-layer metrics.  Either way every table is checked against
//! its golden digest, and the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `golden` recomputes `golden.tsv` with the reference configuration
//! (tree-walk tier, memoisation off, store off); see `README.md`.

mod campaign;
mod cpu;
mod heap;
mod measure;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use campaign::Family;

/// The benchmark's workloads (see `workloads.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 at default scale, each campaign into a fresh store and a
    /// journal.
    ClassifyDefault,
    /// Table 5 at default scale.
    EmiDefault,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ClassifyDefault, Workload::EmiDefault];

    fn name(self) -> &'static str {
        match self {
            Workload::ClassifyDefault => "classify-default",
            Workload::EmiDefault => "emi-default",
        }
    }

    fn family(self) -> Family {
        match self {
            Workload::ClassifyDefault => Family::Classify,
            Workload::EmiDefault => Family::Emi,
        }
    }
}

/// A parsed benchmark invocation.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    held_out: bool,
    /// Set only in the set-up child a run spawns to time its set-up: set up,
    /// report, exit.
    setup_only: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut held_out = false;
    let mut setup_only = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--heldout" => held_out = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        held_out,
        setup_only,
    })
}

/// The run's scratch directory, inside the checkout the benchmark runs
/// from.  Stores and journals live here and are removed as soon as a
/// campaign is checked.
pub fn work_dir() -> PathBuf {
    PathBuf::from("perfbench").join(".work")
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; a layer without traffic
                // reports 0 instead.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("golden") {
        return match measure::golden(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match measure::set_up_only(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        measure::run(&args)
    };
    match outcome {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
