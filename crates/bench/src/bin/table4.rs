//! Reproduces Table 4: per-mode CLsmith campaigns over the above-threshold
//! configurations, with w / bf / c / to / ok counts and the wrong-code
//! percentage per (configuration, optimisation level).
//!
//! Usage: `cargo run --release -p bench --bin table4 -- [kernels-per-mode]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]
//! [--store PATH | --no-store]`
//! (the paper uses 10 000 per mode; default here is 20, and `--paper-scale`
//! generates kernels at the paper's 100–10 000 work-item scale).
//!
//! All six modes form one mode-major job space, so a `--shard I/N` split
//! carves the whole table, not a single mode.  `table4 merge J1 [J2 ...]`
//! refolds shard journals into the per-mode blocks without re-running
//! anything.
//!
//! `table4 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table4 worker` children) and prints the merged
//! table — byte-identical to `table4 merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Provenance, Table};
use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{render_campaign_table, CampaignOptions, ModesCampaign, MultiModeTally};
use opencl_sim::{Configuration, ExecOptions};

struct Table4;

impl Table for Table4 {
    type Campaign = ModesCampaign;
    const SCALE: &'static [usize] = &[20];

    fn configs() -> Vec<Configuration> {
        opencl_sim::above_threshold_configurations()
    }

    fn campaign(
        cli: &Cli,
        configs: &[Configuration],
        scale: &[usize],
        exec: ExecOptions,
    ) -> ModesCampaign {
        let options = CampaignOptions {
            kernels: scale[0],
            generator: cli.generator_or(GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::default()
            }),
            exec,
            ..CampaignOptions::default()
        };
        ModesCampaign::new(&GenMode::ALL, configs, &options)
    }

    fn render(campaign: &ModesCampaign, tally: &MultiModeTally, provenance: &Provenance) -> String {
        let kernels = campaign.options.kernels;
        let mut out =
            "Table 4 — CLsmith campaigns over the above-threshold configurations\n".to_string();
        out.push_str(&match provenance {
            Provenance::Merged { .. } => "(merged from journals)\n\n".to_string(),
            Provenance::Run {
                workers,
                shard: Some(shard),
                jobs,
            } => format!(
                "(shard {shard} — PARTIAL tables over {jobs} of {} jobs, {workers} worker(s))\n\n",
                kernels * GenMode::ALL.len()
            ),
            Provenance::Run { workers, .. } => format!(
                "({kernels} kernels per mode over {workers} worker(s); the paper uses 10 000)\n\n"
            ),
        });
        for result in campaign.results(tally) {
            let _ = writeln!(out, "{} ({} kernels)", result.mode.name(), result.kernels);
            out.push_str(&render_campaign_table(&result));
            out.push('\n');
        }
        out
    }
}

fn main() {
    bench::campaign_main::<Table4>();
}
