//! Behavioural integration tests for the model crate: ensembles and
//! baselines interacting on realistic generated data.

use muffin_data::IsicLike;
use muffin_models::{
    Architecture, BackboneConfig, Ensemble, EnsembleRule, FairnessMethod, ModelPool,
};
use muffin_tensor::Rng64;

mod fixture {
    use super::*;

    pub fn build() -> (muffin_data::DatasetSplit, ModelPool, Rng64) {
        let mut rng = Rng64::seed(6000);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[
                Architecture::resnet18(),
                Architecture::densenet121(),
                Architecture::shufflenet_v2_x1_0(),
            ],
            &BackboneConfig::fast(),
            &mut rng,
        );
        (split, pool, rng)
    }
}

#[test]
fn ensembles_of_the_pool_behave_sanely_on_fairness() {
    let (split, pool, _) = fixture::build();
    let ensemble = Ensemble::new(pool.iter().cloned().collect(), EnsembleRule::MeanProbability);
    let eval = ensemble.evaluate(&split.test);
    // The ensemble must report the same schema and bounded unfairness.
    assert_eq!(eval.attributes.len(), 3);
    for attr in &eval.attributes {
        assert!(attr.unfairness >= 0.0 && attr.unfairness.is_finite());
    }
}

#[test]
fn baseline_methods_produce_distinct_models() {
    let (split, _, mut rng) = fixture::build();
    let age = split.train.schema().by_name("age").expect("age");
    let cfg = BackboneConfig::fast().with_epochs(4);
    let d = FairnessMethod::DataBalancing.apply(
        &Architecture::resnet18(),
        &split.train,
        age,
        &cfg,
        &mut rng,
    );
    let l =
        FairnessMethod::FairLoss.apply(&Architecture::resnet18(), &split.train, age, &cfg, &mut rng);
    // Same architecture, different interventions → different predictions
    // somewhere.
    let pd = d.predict(split.test.features());
    let pl = l.predict(split.test.features());
    assert_ne!(pd, pl, "D and L must not be identical");
    assert_ne!(d.name(), l.name());
}
