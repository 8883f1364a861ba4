//! The deduplicated execution layer's headline guarantee: caching the
//! execution phase by `(fingerprint, exec-relevant options)` NEVER changes
//! campaign results.  Every campaign family is run with caching forced off
//! (a cold launch per target) and with it on, and the rendered tables must
//! be **bit-identical** — and the same holds for the on-disk outcome store:
//! store off, cold store and warm store must render identical tables on
//! both interpreter tiers, including the coverage-guided corpus table,
//! whose acceptance decisions read the coverage the store replays.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    classify_configurations_with, render_campaign_table, render_corpus_table, render_emi_table,
    run_corpus_campaign_with, run_emi_campaign_with, run_mode_campaign_with, CampaignOptions,
    CorpusOptions, EmiCampaignOptions, Scheduler,
};
use opencl_sim::{ExecOptions, ExecutionTier, OutcomeStore};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialises the tests that reset the process-wide cache with the test
/// that asserts exact counter values: a reset mid-test turns cache hits
/// into launches.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn cache_lock() -> MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh (removed) store directory private to this process and `name`.
fn store_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clfuzz-store-equiv-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders `run` with the store off, cold and warm — each pass starting
/// process-cold, so the only state carried between passes is the on-disk
/// store itself — and asserts all three tables are identical.
fn assert_store_never_changes_the_table(
    label: &str,
    dir: &Path,
    run: impl Fn(Option<Arc<OutcomeStore>>) -> String,
) {
    let pass = |store: Option<Arc<OutcomeStore>>| {
        opencl_sim::reset_shared_outcome_cache();
        run(store)
    };
    let off = pass(None);
    let cold_store = Arc::new(OutcomeStore::open_with_cap(dir, u64::MAX).unwrap());
    let cold = pass(Some(Arc::clone(&cold_store)));
    assert!(
        cold_store.stats().writes > 0,
        "{label}: cold pass must populate the store"
    );
    // A second handle over the same directory models a fresh process.
    let warm_store = Arc::new(OutcomeStore::open_with_cap(dir, u64::MAX).unwrap());
    let warm = pass(Some(Arc::clone(&warm_store)));
    assert_eq!(off, cold, "{label}: a cold store changed the table");
    assert_eq!(off, warm, "{label}: a warm store changed the table");
    assert!(
        warm_store.stats().hits > 0,
        "{label}: warm pass must serve outcomes from the store"
    );
    let _ = std::fs::remove_dir_all(dir);
}

fn options(memoize: bool, seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels: 8,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions {
            memoize,
            ..ExecOptions::default()
        },
        seed_offset,
        prefilter: false,
    }
}

#[test]
fn table4_mode_campaign_is_bit_identical_with_caching_off_and_on() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(14),
        opencl_sim::configuration(19),
    ];
    let scheduler = Scheduler::sequential();
    let cold = run_mode_campaign_with(&scheduler, GenMode::Barrier, &configs, &options(false, 42));
    let memoized =
        run_mode_campaign_with(&scheduler, GenMode::Barrier, &configs, &options(true, 42));
    assert_eq!(cold, memoized, "memoisation changed the campaign result");
    assert_eq!(
        render_campaign_table(&cold),
        render_campaign_table(&memoized),
        "memoisation changed the rendered Table 4"
    );
}

#[test]
fn table1_classification_is_bit_identical_with_caching_off_and_on() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(12),
        opencl_sim::configuration(21),
    ];
    let scheduler = Scheduler::sequential();
    let cold = classify_configurations_with(&scheduler, &configs, 2, &options(false, 7));
    let memoized = classify_configurations_with(&scheduler, &configs, 2, &options(true, 7));
    assert_eq!(cold.len(), memoized.len());
    for (c, m) in cold.iter().zip(&memoized) {
        assert_eq!(c.config.id, m.config.id);
        assert_eq!(
            c.failure_fraction.to_bits(),
            m.failure_fraction.to_bits(),
            "memoisation changed configuration {}'s failure fraction",
            c.config.id
        );
        assert_eq!(c.above_threshold, m.above_threshold);
    }
}

#[test]
fn table5_emi_campaign_is_bit_identical_with_caching_off_and_on() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let emi_options = |memoize: bool| EmiCampaignOptions {
        bases: 2,
        variants_per_base: 6,
        campaign: options(memoize, 11),
    };
    let cold = run_emi_campaign_with(&Scheduler::sequential(), &configs, &emi_options(false));
    let memoized = run_emi_campaign_with(&Scheduler::sequential(), &configs, &emi_options(true));
    assert_eq!(cold, memoized, "memoisation changed the EMI campaign");
    assert_eq!(
        render_emi_table(&cold),
        render_emi_table(&memoized),
        "memoisation changed the rendered Table 5"
    );
}

#[test]
fn tables_are_bit_identical_with_store_off_cold_and_warm_on_both_tiers() {
    let _guard = cache_lock();
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let scheduler = Scheduler::sequential();
    for tier in ExecutionTier::ALL {
        let dir = store_dir(tier.name());
        let run = |store: Option<Arc<OutcomeStore>>| {
            let options = CampaignOptions {
                kernels: 6,
                generator: GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::default()
                },
                exec: ExecOptions {
                    tier,
                    store,
                    ..ExecOptions::default()
                },
                seed_offset: 0x5702E,
                prefilter: false,
            };
            render_campaign_table(&run_mode_campaign_with(
                &scheduler,
                GenMode::Basic,
                &configs,
                &options,
            ))
        };
        assert_store_never_changes_the_table(tier.name(), &dir, run);
    }
}

#[test]
fn corpus_table_is_bit_identical_with_store_off_cold_and_warm_on_both_tiers() {
    let _guard = cache_lock();
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let scheduler = Scheduler::sequential();
    for tier in ExecutionTier::ALL {
        let dir = store_dir(&format!("corpus-{}", tier.name()));
        let run = |store: Option<Arc<OutcomeStore>>| {
            let options = CorpusOptions {
                lineages: 3,
                chain: 3,
                generator: GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::default()
                },
                exec: ExecOptions {
                    tier,
                    store,
                    ..ExecOptions::default()
                },
                seed_offset: 0xC0DE,
            };
            render_corpus_table(&run_corpus_campaign_with(&scheduler, &configs, &options))
        };
        assert_store_never_changes_the_table(&format!("corpus {}", tier.name()), &dir, run);
    }
}

#[test]
fn memoised_campaigns_actually_deduplicate_launches() {
    let _guard = cache_lock();
    // Not just correct — the cache must also *work*: across a small
    // single-kernel fan-out over every configuration, real launches must
    // fall well below the target count.
    let program = clsmith::generate(&GeneratorOptions {
        min_threads: 16,
        max_threads: 32,
        ..GeneratorOptions::new(GenMode::Basic, 5)
    });
    let targets = fuzz_harness::targets_for(&opencl_sim::all_configurations());
    assert_eq!(targets.len(), 42);
    let session = opencl_sim::Session::new(&program);
    fuzz_harness::run_on_targets_session(&session, &targets, &ExecOptions::default());
    let stats = session.stats();
    assert_eq!(stats.requests, 42);
    assert!(
        stats.launches <= stats.requests / 2,
        "expected ≤ half the targets to need a real launch, got {stats:?}"
    );
}
