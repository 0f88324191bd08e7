//! End-to-end integration tests: dataset → pool → search → fused model.

use muffin::{MuffinSearch, SearchConfig, Tracer};
use muffin_integration_tests::small_fixture;
use muffin_tensor::Rng64;

#[test]
fn full_pipeline_produces_a_working_fused_model() {
    let (split, pool, mut rng) = small_fixture(100);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(10);
    let search = MuffinSearch::new(pool, split.clone(), config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    assert_eq!(outcome.history.len(), 10);

    let fusing = search.rebuild(outcome.best()).expect("rebuild");
    let preds = fusing.predict(search.pool(), split.test.features());
    assert_eq!(preds.len(), split.test.len());
    assert!(preds.iter().all(|&p| p < split.test.num_classes()));

    let eval = fusing.evaluate(search.pool(), &split.test, &Tracer::noop());
    assert!(eval.accuracy > 0.125, "fused model must beat 8-class chance");
    assert_eq!(eval.attributes.len(), 3);
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let (split, pool, mut rng) = small_fixture(200);
        let config = SearchConfig::fast(&["age", "site"]).with_episodes(6);
        let search = MuffinSearch::new(pool, split, config).expect("setup");
        let outcome = search.run(&mut rng).expect("run");
        outcome
            .history
            .iter()
            .map(|r| (r.actions.clone(), r.reward.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_explore_different_candidates() {
    let trajectories: Vec<Vec<Vec<usize>>> = [300u64, 301]
        .iter()
        .map(|&seed| {
            let (split, pool, mut rng) = small_fixture(seed);
            let config = SearchConfig::fast(&["age", "site"]).with_episodes(6);
            let search = MuffinSearch::new(pool, split, config).expect("setup");
            let outcome = search.run(&mut rng).expect("run");
            outcome.history.iter().map(|r| r.actions.clone()).collect()
        })
        .collect();
    assert_ne!(trajectories[0], trajectories[1]);
}

#[test]
fn fused_model_beats_weakest_body_member() {
    let (split, pool, mut rng) = small_fixture(400);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(12);
    let search = MuffinSearch::new(pool, split.clone(), config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    let best = outcome.best();
    let fusing = search.rebuild(best).expect("rebuild");
    let fused_acc = fusing
        .evaluate(search.pool(), &split.test, &Tracer::noop())
        .accuracy;
    let weakest_body = fusing
        .model_indices()
        .iter()
        .map(|&i| search.pool().get(i).expect("valid").evaluate(&split.test).accuracy)
        .fold(f32::MAX, f32::min);
    assert!(
        fused_acc > weakest_body - 0.05,
        "fused {fused_acc} should not collapse below its weakest body {weakest_body}"
    );
}

#[test]
fn required_model_is_always_in_the_body() {
    let (split, pool, mut rng) = small_fixture(500);
    let required_name = pool.get(1).expect("pool has 3 models").name().to_string();
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(8)
        .with_slots(1)
        .with_required_models(vec![1]);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    for record in &outcome.history {
        assert_eq!(record.model_names[0], required_name, "required model must lead the body");
    }
}

#[test]
fn search_rejects_out_of_range_required_model() {
    let (split, pool, _) = small_fixture(600);
    let config = SearchConfig::fast(&["age"]).with_required_models(vec![99]);
    assert!(MuffinSearch::new(pool, split, config).is_err());
}

#[test]
fn evaluations_agree_between_direct_and_search_paths() {
    let (split, pool, mut rng) = small_fixture(700);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(5);
    let search = MuffinSearch::new(pool, split.clone(), config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    let record = outcome.best();
    // The recorded validation metrics must match a fresh rebuild evaluated
    // on the validation split.
    let fusing = search.rebuild(record).expect("rebuild");
    let eval = fusing.evaluate(search.pool(), &split.val, &Tracer::noop());
    assert!((eval.accuracy - record.accuracy).abs() < 1e-6);
    for (i, name) in outcome.target_attributes.iter().enumerate() {
        let u = eval.attribute(name).expect("attribute").unfairness;
        assert!((u - record.unfairness[i]).abs() < 1e-6);
    }
}
