//! The contract of `muffin-par`'s threading through the search: a parallel
//! `MuffinSearch::run` must be **byte-identical** — down to the serialised
//! JSON — to the serial path for the same seed, at every worker count.
//! This is the test `scripts/ci.sh` runs explicitly.

use muffin::{MuffinSearch, SearchConfig, WorkerPool};
use muffin_integration_tests::small_fixture;

fn outcome_json(workers: usize) -> String {
    let (split, pool, mut rng) = small_fixture(4242);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(10)
        .with_reinforce_batch(5);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let outcome = search
        .run_with_pool(&mut rng, &WorkerPool::new(workers))
        .expect("run");
    muffin_json::to_string(&outcome)
}

#[test]
fn parallel_search_outcome_json_is_byte_identical_to_serial() {
    let serial = outcome_json(1);
    for workers in [2usize, 3, 4, 7] {
        let parallel = outcome_json(workers);
        assert!(
            serial == parallel,
            "outcome JSON diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn run_and_run_with_pool_serial_agree() {
    let (split, pool, mut rng) = small_fixture(515);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(6).with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let a = search.run(&mut rng.clone()).expect("run");
    let b = search.run_with_pool(&mut rng, &WorkerPool::serial()).expect("run_with_pool");
    assert_eq!(muffin_json::to_string(&a), muffin_json::to_string(&b));
}
