//! # fuzz-harness — differential and EMI testing campaigns
//!
//! Orchestration of the paper's testing campaigns over the simulated OpenCL
//! platform:
//!
//! * [`differential`] — run one kernel across many (configuration,
//!   optimisation level) targets and vote on the results (§3.2); each
//!   kernel's fan-out goes through a per-kernel `opencl_sim::Session`, so
//!   targets that compile the kernel to a bit-identical AST share one
//!   emulator launch;
//! * [`campaign`] — batch CLsmith campaigns per mode (Table 4) and the
//!   initial reliability classification (Table 1, §7.1);
//! * [`emi_campaign`] — CLsmith+EMI campaigns over base programs and their
//!   pruning variants (Table 5, §7.4);
//! * [`benchmark_emi`] — EMI testing of existing kernels such as the
//!   Parboil/Rodinia miniatures (Table 3, §7.2);
//! * [`corpus`] — feedback-guided corpus campaigns: lineages of seeded
//!   mutation chains whose acceptance is driven by the platform's
//!   [`opencl_sim::CoverageMap`], compared against a blind ablation at the
//!   same kernel budget;
//! * [`report`] — plain-text table rendering used by the reproduction
//!   binaries in the `bench` crate;
//! * [`exec`] — the parallel campaign engine every driver above runs on: a
//!   bounded-queue worker pool with per-job deterministic seeding and
//!   index-ordered aggregation, so that for a fixed campaign seed the
//!   rendered tables are bit-identical at any thread count; every driver
//!   job is a [`StagedJob`] (generate → execute → judge) timed stage by
//!   stage;
//! * [`shard`] — the [`Campaign`] trait every driver implements, and the
//!   one executor ([`run_shard`], [`run_lease`]) and refold
//!   ([`merge_journals`]) over it, backed by the resumable [`journal`] and
//!   the crash-tolerant [`fleet`].
//!
//! Every driver comes in two forms: the historical signature (e.g.
//! [`run_mode_campaign`]), which fans out over [`exec::Scheduler::from_env`]
//! (`FUZZ_THREADS` or the machine's available parallelism), and an explicit
//! `*_with(&Scheduler, ...)` form for callers that manage their own worker
//! pool.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod benchmark_emi;
pub mod campaign;
pub mod corpus;
pub mod differential;
pub mod emi_campaign;
pub mod exec;
pub mod faults;
pub mod fleet;
pub mod journal;
pub mod report;
pub mod shard;

pub use benchmark_emi::{
    evaluate_benchmark, evaluate_benchmark_with, BenchmarkBodyJob, BenchmarkCell, BodyOutcomes,
    BodyShard, CellOutcome, CellTally, EmiBenchmark, InjectedVariants,
};
pub use campaign::{
    classification_descriptor, classify_configurations, classify_configurations_sharded,
    classify_configurations_with, merge_classification_journals, merge_mode_campaign_journals,
    mode_campaign_descriptor, quick_differential, reliability_rows, run_mode_campaign,
    run_mode_campaign_with, run_modes_campaign_sharded, CampaignOptions, CampaignResult,
    ClassificationCampaign, ClassificationTally, GeneratedKernel, KernelJob, ModeTally,
    ModesCampaign, MultiModeTally, ReliabilityRow, ShardedClassification, ShardedModeCampaign,
    TargetStats, RELIABILITY_THRESHOLD,
};
pub use corpus::{
    corpus_campaign_descriptor, merge_corpus_campaign_journals, run_corpus_campaign,
    run_corpus_campaign_sharded, run_corpus_campaign_with, CorpusCampaign, CorpusCampaignResult,
    CorpusJob, CorpusOptions, CorpusRecord, CorpusStrategy, CorpusTally, ShardedCorpusCampaign,
    StrategyTally,
};
pub use differential::{
    classify, differential_test, run_on_targets, run_on_targets_session, targets_for, TestTarget,
    Verdict,
};
pub use emi_campaign::{
    emi_campaign_descriptor, generate_live_bases, generate_live_bases_with, judge_base,
    judge_outcomes, merge_emi_campaign_journals, pruning_grid, run_emi_campaign,
    run_emi_campaign_sharded, run_emi_campaign_with, EmiBaseJob, EmiCampaign, EmiCampaignOptions,
    EmiCampaignResult, EmiOutcomeGrid, EmiStats, EmiTally, EmiVariantGrid, LivenessCandidate,
    LivenessOutcomes, LivenessProbeJob, ShardedEmiCampaign,
};
pub use exec::{
    expect_completed, job_seed, Job, JobFailure, JobResult, PipelineMetrics, Scheduler,
    SchedulerMode, Stage, StagedJob,
};
pub use faults::{tear_journal_tail, FaultKind, FaultPlan, FaultSpec, LeaseFault};
pub use fleet::{
    run_worker, Coordinator, DeadLetter, FleetCommand, FleetOptions, FleetOutcome, FleetReply,
    LeaseRecord, ProcessWorker, WorkerLink,
};
pub use journal::{
    checksum, compact_journal, load_journal, Checkpoint, JournalError, JournalHeader,
    JournalRecord, JournalWriter, LoadedJournal, JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC,
};
pub use opencl_sim::ExecutionTier;
pub use report::{
    percent, render_campaign_table, render_corpus_table, render_emi_table,
    render_reliability_table, render_table, EMPTY_CELL,
};
pub use shard::{
    lease_header, merge_journals, run_lease, run_range_fold, run_shard, Campaign, CheckpointPolicy,
    FoldRun, JournalOptions, JournalPayload, Mergeable, RefoldSummary, ShardMetrics, ShardSelect,
    ShardSpec,
};
