//! Reproduces Table 1: the 21 configurations and their classification
//! against the §7.1 reliability threshold (25 % failures over the initial
//! kernel set).
//!
//! Usage: `cargo run --release -p bench --bin table1 -- [kernels-per-mode]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]
//! [--store PATH | --no-store]`
//! (the paper uses 100 per mode; the default here is 8 so the emulated run
//! finishes quickly, and `--paper-scale` generates kernels at the paper's
//! 100–10 000 work-item scale).
//!
//! `table1 merge J1 [J2 ...]` refolds shard journals into the table
//! without re-running any job.
//!
//! `table1 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--lease-jobs N] [--faults SPEC] [--follow]` runs the same campaign as a
//! crash-tolerant worker fleet (spawning `table1 worker` children) and
//! prints the merged table — byte-identical to `table1 merge` over a
//! fault-free batch journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Provenance, Table};
use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    reliability_rows, render_reliability_table, CampaignOptions, ClassificationCampaign,
    ClassificationTally,
};
use opencl_sim::{Configuration, ExecOptions};

struct Table1;

impl Table for Table1 {
    type Campaign = ClassificationCampaign;
    const SCALE: &'static [usize] = &[8];

    fn configs() -> Vec<Configuration> {
        opencl_sim::all_configurations()
    }

    fn campaign(
        cli: &Cli,
        configs: &[Configuration],
        scale: &[usize],
        exec: ExecOptions,
    ) -> ClassificationCampaign {
        let options = CampaignOptions {
            generator: cli.generator_or(GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::default()
            }),
            exec,
            ..CampaignOptions::default()
        };
        ClassificationCampaign::new(configs, scale[0], &options)
    }

    fn render(
        campaign: &ClassificationCampaign,
        tally: &ClassificationTally,
        provenance: &Provenance,
    ) -> String {
        let title = "Table 1 — configurations and reliability classification";
        let per_config = campaign.kernels_per_mode * GenMode::ALL.len();
        let mut out = match provenance {
            Provenance::Merged { .. } => format!("{title} (merged from journals)\n\n"),
            Provenance::Run {
                workers,
                shard: Some(shard),
                jobs,
            } => format!(
                "{title}\n({workers} scheduler worker(s))\n\
                 (shard {shard} — PARTIAL table over {jobs} of {per_config} jobs)\n\n"
            ),
            Provenance::Run { workers, .. } => format!(
                "{title}\n({workers} scheduler worker(s))\n\
                 ({} kernels per mode, {per_config} total per configuration)\n\n",
                campaign.kernels_per_mode
            ),
        };
        let rows = reliability_rows(&Self::configs(), tally);
        out.push_str(&render_reliability_table(&rows));
        let judged: Vec<_> = rows.iter().filter(|r| r.kernels > 0).collect();
        let agreements = judged
            .iter()
            .filter(|r| r.above_threshold == r.config.expected_above_threshold)
            .count();
        let _ = writeln!(
            out,
            "\nClassification agrees with the paper for {agreements}/{} configurations.",
            judged.len()
        );
        out
    }
}

fn main() {
    bench::campaign_main::<Table1>();
}
