//! Feedback-guided corpus campaign: evolves lineages of mutated kernels
//! under coverage-map acceptance and compares the guided strategy against a
//! blind ablation at the same kernel budget (same base seeds, same chain
//! length — the paired experiment the paper's blind sampling lacks).
//!
//! Usage: `cargo run --release -p bench --bin corpus -- [lineages] [chain]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]
//! [--store PATH | --no-store]`
//! (defaults: 12 lineages per strategy, 5 mutations per lineage).
//!
//! The job space is strategy-major (guided lineages first, then blind), so
//! a `--shard I/N` split carves both strategies.  `corpus merge J1 [J2 ...]`
//! refolds shard journals into the comparison table without re-running
//! anything.
//!
//! `corpus coordinate [lineages] [chain] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `corpus worker` children) and prints the merged
//! table — byte-identical to `corpus merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Provenance, Table};
use fuzz_harness::{render_corpus_table, Campaign, CorpusCampaign, CorpusOptions, CorpusTally};
use opencl_sim::{Configuration, ExecOptions};

struct Corpus;

impl Table for Corpus {
    type Campaign = CorpusCampaign;
    const SCALE: &'static [usize] = &[12, 5];

    fn configs() -> Vec<Configuration> {
        opencl_sim::above_threshold_configurations()
    }

    fn campaign(
        cli: &Cli,
        configs: &[Configuration],
        scale: &[usize],
        exec: ExecOptions,
    ) -> CorpusCampaign {
        let options = CorpusOptions {
            lineages: scale[0],
            chain: scale[1],
            generator: cli.generator_or(clsmith::GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..clsmith::GeneratorOptions::default()
            }),
            exec,
            ..CorpusOptions::default()
        };
        CorpusCampaign::new(configs, &options)
    }

    fn render(campaign: &CorpusCampaign, tally: &CorpusTally, provenance: &Provenance) -> String {
        let options = &campaign.options;
        let banner = match provenance {
            Provenance::Merged { .. } => "(merged from journals)".to_string(),
            Provenance::Run {
                workers,
                shard: Some(shard),
                jobs,
            } => format!(
                "(shard {shard} — PARTIAL table over {jobs} of {} lineage jobs, {workers} worker(s))",
                campaign.job_count()
            ),
            Provenance::Run { workers, .. } => format!(
                "({} lineages per strategy, {} mutations per lineage, {workers} worker(s))",
                options.lineages, options.chain
            ),
        };
        let result = campaign.result(tally.clone());
        let mut out = format!(
            "Corpus campaign — coverage-guided vs blind mutation chains\n{banner}\n\n{}",
            render_corpus_table(&result)
        );
        let (guided, blind) = (result.guided(), result.blind());
        if guided.kernels() > 0 && blind.kernels() > 0 {
            let _ = writeln!(
                out,
                "\nGuided vs blind at {} kernels each: {:.3} vs {:.3} bugs/kernel, \
                 {:.1}% vs {:.1}% coverage saturation.",
                guided.kernels(),
                guided.bugs_per_kernel(),
                blind.bugs_per_kernel(),
                guided.saturation() * 100.0,
                blind.saturation() * 100.0,
            );
        }
        out
    }
}

fn main() {
    bench::campaign_main::<Corpus>();
}
