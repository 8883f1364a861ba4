//! The campaign engine's headline guarantee: for a fixed campaign seed,
//! every driver produces **bit-identical** results — including the rendered
//! report tables — at any worker count.  Every job runs its generate →
//! execute → judge stages back to back on one worker (batch mode, the only
//! scheduler mode); the batch-mode differential below pins that naming the
//! mode explicitly, as the campaign benchmark does, changes nothing.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    classify_configurations_with, evaluate_benchmark_with, generate_live_bases_with, percent,
    render_campaign_table, render_emi_table, render_reliability_table, run_emi_campaign_with,
    run_mode_campaign_with, CampaignOptions, EmiBenchmark, EmiCampaignOptions, ExecutionTier,
    Scheduler, SchedulerMode,
};
use opencl_sim::ExecOptions;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Worker counts of the pipeline-vs-batch differential (1, a small prime,
/// and "many" relative to the job counts below).
const PIPELINE_WORKER_COUNTS: [usize; 3] = [1, 3, 8];

fn small_campaign_options(seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels: 10,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions::default(),
        seed_offset,
        prefilter: false,
    }
}

#[test]
fn mode_campaign_is_bit_identical_at_any_worker_count() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(14),
        opencl_sim::configuration(19),
    ];
    let options = small_campaign_options(0xC0FFEE);
    let reference = run_mode_campaign_with(
        &Scheduler::sequential(),
        GenMode::Barrier,
        &configs,
        &options,
    );
    let reference_table = render_campaign_table(&reference);
    assert!(reference.stats.iter().any(|s| s.total() == options.kernels));
    for workers in WORKER_COUNTS {
        let result = run_mode_campaign_with(
            &Scheduler::new(workers),
            GenMode::Barrier,
            &configs,
            &options,
        );
        assert_eq!(
            result, reference,
            "{workers} workers changed the campaign result"
        );
        assert_eq!(
            render_campaign_table(&result),
            reference_table,
            "{workers} workers changed the rendered table"
        );
    }
}

#[test]
fn emi_campaign_is_bit_identical_at_any_worker_count() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 6,
        campaign: small_campaign_options(7),
    };
    let reference = run_emi_campaign_with(&Scheduler::sequential(), &configs, &options);
    let reference_table = render_emi_table(&reference);
    assert!(reference.bases > 0, "liveness filtering accepted no bases");
    for workers in WORKER_COUNTS {
        let result = run_emi_campaign_with(&Scheduler::new(workers), &configs, &options);
        assert_eq!(
            result, reference,
            "{workers} workers changed the EMI campaign result"
        );
        assert_eq!(
            render_emi_table(&result),
            reference_table,
            "{workers} workers changed the rendered table"
        );
    }
}

#[test]
fn live_base_acceptance_is_independent_of_worker_count_and_chunking() {
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 4,
        campaign: small_campaign_options(21),
    };
    let reference = generate_live_bases_with(&Scheduler::sequential(), &options);
    assert!(!reference.is_empty());
    for workers in WORKER_COUNTS {
        // Different worker counts probe candidates in different chunk sizes;
        // the accepted set must still be the first N live candidates.
        let bases = generate_live_bases_with(&Scheduler::new(workers), &options);
        assert_eq!(
            bases, reference,
            "{workers} workers changed the accepted base set"
        );
    }
}

#[test]
fn reliability_classification_is_bit_identical_at_any_worker_count() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(21)];
    let options = small_campaign_options(0);
    let describe = |scheduler: &Scheduler| -> Vec<(usize, String, bool)> {
        classify_configurations_with(scheduler, &configs, 3, &options)
            .into_iter()
            .map(|row| {
                (
                    row.config.id,
                    percent(row.failure_fraction * 100.0),
                    row.above_threshold,
                )
            })
            .collect()
    };
    let reference = describe(&Scheduler::sequential());
    for workers in WORKER_COUNTS {
        assert_eq!(
            describe(&Scheduler::new(workers)),
            reference,
            "{workers} workers"
        );
    }
}

/// The pipeline-vs-batch differential: Tables 1, 4 and 5 must be
/// bit-identical between the two scheduler modes at 1, 3 and 8 workers —
/// on both interpreter tiers, since the tier is the execution half of every
/// staged job.
#[test]
fn tables_1_4_5_are_bit_identical_between_batch_and_pipelined_modes() {
    for tier in ExecutionTier::ALL {
        let exec = ExecOptions {
            tier,
            ..ExecOptions::default()
        };
        let campaign_options = |seed_offset: u64| CampaignOptions {
            kernels: 8,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            exec: exec.clone(),
            seed_offset,
            prefilter: false,
        };

        // Table 1: the reliability classification.
        let table1_configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(21)];
        let table1 = |scheduler: &Scheduler| {
            render_reliability_table(&classify_configurations_with(
                scheduler,
                &table1_configs,
                3,
                &campaign_options(0x7AB1E1),
            ))
        };

        // Table 4: a per-mode CLsmith campaign.
        let table4_configs = vec![
            opencl_sim::configuration(1),
            opencl_sim::configuration(9),
            opencl_sim::configuration(19),
        ];
        let table4 = |scheduler: &Scheduler| {
            render_campaign_table(&run_mode_campaign_with(
                scheduler,
                GenMode::Barrier,
                &table4_configs,
                &campaign_options(0x7AB1E4),
            ))
        };

        // Table 5: the EMI campaign (variant pruning, the memoised judging
        // grid and row classification are distinct pipeline stages here).
        let table5_configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let emi_options = EmiCampaignOptions {
            bases: 2,
            variants_per_base: 5,
            campaign: campaign_options(0x7AB1E5),
        };
        let table5 = |scheduler: &Scheduler| {
            render_emi_table(&run_emi_campaign_with(
                scheduler,
                &table5_configs,
                &emi_options,
            ))
        };

        type RenderTable<'a> = &'a dyn Fn(&Scheduler) -> String;
        let tables: [(&str, RenderTable<'_>); 3] = [("1", &table1), ("4", &table4), ("5", &table5)];
        for (name, render) in tables {
            let reference = render(&Scheduler::new(2));
            for workers in PIPELINE_WORKER_COUNTS {
                let pipelined = Scheduler::new(workers).with_mode(SchedulerMode::Batch);
                assert_eq!(
                    render(&pipelined),
                    reference,
                    "Table {name} diverged between batch and pipelined mode \
                     at {workers} workers on the {} tier",
                    tier.name()
                );
            }
        }
    }
}

#[test]
fn benchmark_emi_cell_is_bit_identical_at_any_worker_count() {
    let donor = clsmith::generate(
        &GeneratorOptions {
            min_threads: 16,
            max_threads: 32,
            ..GeneratorOptions::new(GenMode::Basic, 123)
        }
        .with_emi(),
    );
    let bodies: Vec<clc::Block> = donor
        .emi_blocks()
        .iter()
        .map(|b| b.body.clone())
        .take(4)
        .collect();
    assert!(!bodies.is_empty());
    let bench = parboil();
    let emi = EmiBenchmark {
        name: bench.0,
        program: bench.1,
        bodies,
        injection_points: 1,
    };
    let config = opencl_sim::configuration(12);
    let exec = ExecOptions::default();
    let reference = evaluate_benchmark_with(&Scheduler::sequential(), &emi, &config, &exec);
    for workers in WORKER_COUNTS {
        let cell = evaluate_benchmark_with(&Scheduler::new(workers), &emi, &config, &exec);
        assert_eq!(cell.render(), reference.render(), "{workers} workers");
        assert_eq!(cell.variants, reference.variants, "{workers} workers");
    }
}

/// A small deterministic host kernel for the Table 3 cell test.
fn parboil() -> (String, clc::Program) {
    use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, ScalarType, Stmt, Type};
    let mut p = clc::Program::new(
        KernelDef {
            name: "bench".into(),
            params: clc::Program::standard_clsmith_params(0),
            body: clc::Block::of(vec![
                Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(3))),
                Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::var("x"),
                ),
            ]),
        },
        LaunchConfig::single_group(4),
    );
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 4));
    ("tiny".to_string(), p)
}

/// The static pre-filter (`CampaignOptions::prefilter`) keeps every
/// guarantee above: skipped kernels land in the `sk` tally row, the row
/// only renders when something was actually skipped, totals still count
/// every kernel, and the table stays bit-identical at any worker count.
#[test]
fn prefilter_campaign_is_deterministic_and_renders_sk_row() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let options = CampaignOptions {
        kernels: 40,
        prefilter: true,
        ..small_campaign_options(0xF117E2)
    };
    let reference =
        run_mode_campaign_with(&Scheduler::sequential(), GenMode::All, &configs, &options);
    let reference_table = render_campaign_table(&reference);
    let skipped: usize = reference.stats.iter().map(|s| s.skipped).sum();
    assert!(
        skipped > 0,
        "seed offset produced no statically-uncertified kernels — the sk \
         path never ran:\n{reference_table}"
    );
    assert!(
        reference_table.contains("| sk "),
        "skipped kernels must render an sk row:\n{reference_table}"
    );
    for stat in &reference.stats {
        assert_eq!(
            stat.total(),
            options.kernels,
            "skipped kernels must still count toward the per-target total"
        );
    }
    for workers in WORKER_COUNTS {
        let result =
            run_mode_campaign_with(&Scheduler::new(workers), GenMode::All, &configs, &options);
        assert_eq!(
            render_campaign_table(&result),
            reference_table,
            "prefilter campaign diverged at {workers} workers"
        );
    }
    // Prefilter off on the same seed renders no sk row at all.
    let off = run_mode_campaign_with(
        &Scheduler::sequential(),
        GenMode::All,
        &configs,
        &CampaignOptions {
            prefilter: false,
            ..options.clone()
        },
    );
    assert!(!render_campaign_table(&off).contains("| sk "));
}
