//! The body-output cache is a pure optimisation: every record a search
//! run produces with the cache must be reproduced **bit for bit** by the
//! uncached path — [`MuffinSearch::rebuild`] retrains the head through
//! `evaluate_candidate`, which runs every body forward pass directly — at
//! every worker count, while the run records deterministic hit/miss
//! counters.

use muffin::{MuffinSearch, SearchConfig, SearchOutcome, Tracer, WorkerPool};
use muffin_integration_tests::small_fixture;

fn search() -> (MuffinSearch, muffin_tensor::Rng64) {
    let (split, pool, rng) = small_fixture(4242);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(8)
        .with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("valid search");
    (search, rng)
}

fn cached_outcome(workers: &WorkerPool) -> (MuffinSearch, SearchOutcome) {
    let (search, rng) = search();
    let outcome = search
        .run_with_pool(&mut rng.clone(), workers)
        .expect("search runs");
    (search, outcome)
}

/// Rebuilds every distinct record of `outcome` without the cache and
/// checks its validation accuracy and per-attribute unfairness bit for
/// bit.
fn assert_records_match_uncached_rebuilds(search: &MuffinSearch, outcome: &SearchOutcome) {
    let val = &search.split().val;
    for record in outcome.distinct() {
        let fusing = search.rebuild(record).expect("rebuild");
        let eval = fusing.evaluate(search.pool(), val, &Tracer::noop());
        assert_eq!(
            eval.accuracy.to_bits(),
            record.accuracy.to_bits(),
            "accuracy of {:?} differs from its uncached rebuild",
            record.actions
        );
        for (name, unfairness) in outcome.target_attributes.iter().zip(&record.unfairness) {
            let rebuilt = eval.attribute(name).expect("target attribute evaluated");
            assert_eq!(
                rebuilt.unfairness.to_bits(),
                unfairness.to_bits(),
                "{name} unfairness of {:?} differs from its uncached rebuild",
                record.actions
            );
        }
    }
}

#[test]
fn cached_outcome_is_byte_identical_to_uncached_serial() {
    let (search, outcome) = cached_outcome(&WorkerPool::serial());
    assert_records_match_uncached_rebuilds(&search, &outcome);
}

#[test]
fn cached_outcome_is_byte_identical_to_uncached_with_4_workers() {
    let (search, outcome) = cached_outcome(&WorkerPool::new(4));
    assert_records_match_uncached_rebuilds(&search, &outcome);
    // And the parallel cached run matches the serial cached run.
    let (_, serial) = cached_outcome(&WorkerPool::serial());
    assert_eq!(
        muffin_json::to_string(&outcome),
        muffin_json::to_string(&serial)
    );
}

#[test]
fn body_cache_counters_appear_in_stripped_traces_and_are_deterministic() {
    let run_traced = |workers: &WorkerPool| {
        let (search, rng) = search();
        let tracer = Tracer::capturing();
        let search = search.with_tracer(tracer.clone());
        search
            .run_with_pool(&mut rng.clone(), workers)
            .expect("traced run");
        tracer.finish()
    };
    let serial_log = run_traced(&WorkerPool::serial());
    let parallel_log = run_traced(&WorkerPool::new(4));

    // The counters exist and carry the expected totals: one miss per
    // (model × split) forward actually run, everything else hits.
    let counter = |log: &muffin::TraceLog, name: &str| {
        log.events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .data
            .clone()
    };
    let hit = counter(&serial_log, "fusing.body_cache_hit");
    let miss = counter(&serial_log, "fusing.body_cache_miss");
    let miss_total = match miss {
        muffin_trace::EventData::Counter { value } => value,
        other => panic!("miss counter has wrong shape: {other:?}"),
    };
    // 3 pool models × 2 splits (proxy + val) is the ceiling; at least one
    // model must have been evaluated on both splits.
    assert!(
        (2..=6).contains(&miss_total),
        "miss total {miss_total} outside [2, 6]"
    );
    let hit_total = match hit {
        muffin_trace::EventData::Counter { value } => value,
        other => panic!("hit counter has wrong shape: {other:?}"),
    };
    // Every distinct candidate trains (proxy accesses) and evaluates (val
    // accesses); with 8 episodes there are far more accesses than slots.
    assert!(
        hit_total > miss_total,
        "hits {hit_total} vs misses {miss_total}"
    );

    // Stripped logs (timings removed) are byte-identical across worker
    // counts — including the new counters.
    assert_eq!(
        muffin_json::to_string(&serial_log.stripped()),
        muffin_json::to_string(&parallel_log.stripped()),
    );
}
