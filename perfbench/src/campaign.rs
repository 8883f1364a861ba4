//! The campaigns the workloads run, their golden digests, and the seeded
//! order in which a run visits them.
//!
//! A campaign is one table: the §7.1 classification (Table 1) over all 21
//! configurations, or the EMI campaign (Table 5) over the above-threshold
//! ones, both at the table binaries' default 16–64 work-item scale.  Every
//! campaign in `golden.tsv` carries the digest of the table the reference
//! configuration renders for it (tree-walk tier, memoisation off, store
//! off); a timed run renders the same table with the default configuration
//! and compares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::JournalOptions;
use fuzz_harness::{
    checksum, classify_configurations_sharded, job_seed, render_emi_table,
    render_reliability_table, run_emi_campaign_sharded, CampaignOptions, EmiCampaignOptions,
    Mergeable, PipelineMetrics, Scheduler, SchedulerMode, ShardSelect,
};
use opencl_sim::{Configuration, ExecOptions, ExecutionTier, OutcomeStore};

/// Scheduler workers every campaign runs on.  One: the benchmark shares a
/// two-core machine with other work, and with two workers the spread of
/// identical runs measured how the host scheduled them.  One worker leaves
/// the second core to the set-up child, the journal writer and the system.
const WORKERS: usize = 1;
/// Kernels per generation mode in one classification campaign (`table1`'s
/// default).
pub const KERNELS_PER_MODE: usize = 8;
/// Live base programs in one EMI campaign (`table5`'s default).
pub const EMI_BASES: usize = 4;
/// Pruning variants per base in one EMI campaign (`table5`'s default).
pub const EMI_VARIANTS: usize = 10;
/// Held-out campaigns per family.
pub const HELD_OUT: usize = 4;

/// Which table a campaign renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Table 1: the reliability classification over all configurations.
    Classify,
    /// Table 5: the EMI campaign over the above-threshold configurations.
    Emi,
}

impl Family {
    fn parse(token: &str) -> Option<Family> {
        match token {
            "classify" => Some(Family::Classify),
            "emi" => Some(Family::Emi),
            _ => None,
        }
    }

    /// Campaigns in the family's pool: as many as one worker visits in
    /// about 7-8 s, so that a run times each campaign in five or six passes.
    pub fn pool_size(self) -> usize {
        match self {
            Family::Classify => 4,
            Family::Emi => 10,
        }
    }

    /// The configurations the family's campaigns run against.
    pub fn configs(self) -> Vec<Configuration> {
        match self {
            Family::Classify => opencl_sim::all_configurations(),
            Family::Emi => opencl_sim::above_threshold_configurations(),
        }
    }
}

/// One campaign with a known-good table digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// The table it renders.
    pub family: Family,
    /// The campaign seed (`CampaignOptions::seed_offset`).
    pub seed: u64,
    /// Digest of the reference configuration's table.
    pub golden: u64,
    /// Whether it belongs to the held-out set, which ordinary runs never
    /// visit.
    pub held_out: bool,
}

/// The golden table digests, one line per campaign:
/// `family role seed digest` with role `pool` or `heldout`.
const GOLDEN: &str = include_str!("../golden.tsv");

/// Parses `golden.tsv`.
pub fn golden_campaigns() -> Result<Vec<Campaign>, String> {
    let mut campaigns = Vec::new();
    for (number, line) in GOLDEN.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("golden.tsv line {}: {line:?}", number + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(bad());
        }
        let family = Family::parse(fields[0]).ok_or_else(bad)?;
        let held_out = match fields[1] {
            "pool" => false,
            "heldout" => true,
            _ => return Err(bad()),
        };
        let seed = fields[2].parse().map_err(|_| bad())?;
        let golden = u64::from_str_radix(fields[3], 16).map_err(|_| bad())?;
        campaigns.push(Campaign {
            family,
            seed,
            golden,
            held_out,
        });
    }
    Ok(campaigns)
}

/// A workload's corpus in the order a run with `run_seed` visits it: the
/// campaigns of `family`'s pool (or its held-out set), shuffled by the
/// seed.  The same seed always gives the same order.
///
/// Every run measures whole passes over the corpus.  Campaign cost is
/// heavy-tailed (one kernel can cost fifty times the median one), so a
/// seed-drawn subset small enough for one run would move the throughput by
/// more than any bound the benchmark could hold.
pub fn visit_order(
    campaigns: &[Campaign],
    family: Family,
    held_out: bool,
    run_seed: u64,
) -> Vec<Campaign> {
    let mut order: Vec<Campaign> = campaigns
        .iter()
        .filter(|c| c.family == family && c.held_out == held_out)
        .copied()
        .collect();
    order.sort_by_key(|c| job_seed(run_seed, c.seed));
    order
}

/// The scheduler every campaign runs on: one worker, whole-job batches.
pub fn scheduler() -> Scheduler {
    Scheduler::new(WORKERS).with_mode(SchedulerMode::Batch)
}

/// The table binaries' default generation scale.
pub fn generator() -> GeneratorOptions {
    GeneratorOptions {
        min_threads: 16,
        max_threads: 64,
        ..GeneratorOptions::default()
    }
}

/// Execution options: the default configuration (bytecode tier, all caches)
/// or the reference one (tree-walk tier, memoisation off, store off).
/// Neither reads the tier or store from the environment.
pub fn exec_options(reference: bool, store: Option<Arc<OutcomeStore>>) -> ExecOptions {
    ExecOptions {
        tier: if reference {
            ExecutionTier::TreeWalk
        } else {
            ExecutionTier::Bytecode
        },
        memoize: !reference,
        store: if reference { None } else { store },
        ..ExecOptions::default()
    }
}

/// The classification campaign options for a seed.
fn classify_options(seed: u64, exec: ExecOptions) -> CampaignOptions {
    CampaignOptions {
        generator: generator(),
        exec,
        seed_offset: seed,
        ..CampaignOptions::default()
    }
}

/// The EMI campaign options for a seed.
fn emi_options(seed: u64, exec: ExecOptions) -> EmiCampaignOptions {
    EmiCampaignOptions {
        bases: EMI_BASES,
        variants_per_base: EMI_VARIANTS,
        campaign: CampaignOptions {
            generator: generator(),
            exec,
            seed_offset: seed,
            ..CampaignOptions::default()
        },
    }
}

/// What one campaign run produced.
#[derive(Debug, Clone)]
pub struct Ran {
    /// Digest of the rendered table and the tally behind it.
    pub digest: u64,
    /// Programs judged on every target: kernels for Table 1, pruning
    /// variants (the unpruned base among them) for Table 5.
    pub programs: u64,
    /// Stage timing of the judging run.
    pub pipeline: PipelineMetrics,
}

/// The digest a table is checked by: the rendered table plus its tally's
/// serialised counts.
pub fn table_digest(rendered: &str, tally: &impl Mergeable) -> u64 {
    checksum(format!("{rendered}\n{}", tally.serialize()).as_bytes())
}

/// Runs one campaign through the public entry point its table binary calls.
/// A panicking job (which the campaign re-raises) becomes an `Err`.
pub fn run(
    scheduler: &Scheduler,
    family: Family,
    configs: &[Configuration],
    seed: u64,
    exec: ExecOptions,
    journal: Option<&Path>,
) -> Result<Ran, String> {
    let journal = journal.map(|path| JournalOptions {
        path: path.to_path_buf(),
        resume: false,
    });
    let attempt = catch_unwind(AssertUnwindSafe(|| match family {
        Family::Classify => {
            let options = classify_options(seed, exec);
            let run = classify_configurations_sharded(
                scheduler,
                configs,
                KERNELS_PER_MODE,
                &options,
                ShardSelect::whole(),
                journal.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            Ok(Ran {
                digest: table_digest(&render_reliability_table(&run.rows), &run.tally),
                programs: (GenMode::ALL.len() * KERNELS_PER_MODE) as u64,
                pipeline: run.pipeline,
            })
        }
        Family::Emi => {
            let options = emi_options(seed, exec);
            let run = run_emi_campaign_sharded(
                scheduler,
                configs,
                &options,
                ShardSelect::whole(),
                journal.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            Ok(Ran {
                digest: table_digest(&render_emi_table(&run.result), &run.tally),
                programs: (run.result.bases * run.result.variants_per_base) as u64,
                pipeline: run.pipeline,
            })
        }
    }));
    match attempt {
        Ok(result) => result,
        Err(_) => Err(format!("campaign {seed} panicked")),
    }
}

/// The programs one campaign of `family` judges when nothing fails.
pub fn programs_per_campaign(family: Family) -> u64 {
    match family {
        Family::Classify => (GenMode::ALL.len() * KERNELS_PER_MODE) as u64,
        Family::Emi => (EMI_BASES * EMI_VARIANTS) as u64,
    }
}
