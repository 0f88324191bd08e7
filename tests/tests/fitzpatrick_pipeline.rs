//! The full pipeline on the second dataset: everything must be schema-
//! generic (the Fitzpatrick-like dataset has different attributes, group
//! counts and class count than the ISIC-like one).

use muffin::{MuffinSearch, PrivilegeMap, ProxyDataset, SearchConfig, Tracer};
use muffin_data::FitzpatrickLike;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

fn fixture() -> (muffin_data::DatasetSplit, ModelPool, Rng64) {
    let mut rng = Rng64::seed(5000);
    let split = FitzpatrickLike::small().generate(&mut rng).split_default(&mut rng);
    let pool = ModelPool::train(
        &split.train,
        &[Architecture::resnet18(), Architecture::mobilenet_v3_large()],
        &BackboneConfig::fast(),
        &mut rng,
    );
    (split, pool, rng)
}

#[test]
fn nine_class_two_attribute_schema_flows_through() {
    let (split, pool, mut rng) = fixture();
    assert_eq!(split.train.num_classes(), 9);
    assert_eq!(split.train.schema().len(), 2);

    let config = SearchConfig::fast(&["skin_tone", "type"]).with_episodes(6);
    let search = MuffinSearch::new(pool, split.clone(), config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    let fusing = search.rebuild(outcome.best()).expect("rebuild");
    let eval = fusing.evaluate(search.pool(), &split.test, &Tracer::noop());
    assert!(eval.accuracy > 1.0 / 9.0, "above 9-class chance");
    assert!(eval.attribute("skin_tone").is_some());
    assert!(eval.attribute("type").is_some());
}

#[test]
fn dark_skin_tones_are_inferred_unprivileged() {
    let (split, pool, _) = fixture();
    let tone = split.train.schema().by_name("skin_tone").expect("skin_tone");
    let map = PrivilegeMap::infer(&pool, &split.val, &[tone], 0.02);
    let found = map.unprivileged_groups(tone);
    // Designed unprivileged: types V (4) and VI (5).
    assert!(found.contains(&5), "type VI must be flagged: {found:?}");
    assert!(found.contains(&4), "type V must be flagged: {found:?}");
}

#[test]
fn proxy_weights_reflect_tone_type_overlap() {
    let (split, pool, _) = fixture();
    let tone = split.train.schema().by_name("skin_tone").expect("skin_tone");
    let lesion = split.train.schema().by_name("type").expect("type");
    let map = PrivilegeMap::infer(&pool, &split.val, &[tone, lesion], 0.02);
    let proxy = ProxyDataset::build(&split.train, &map).expect("proxy");
    assert!(!proxy.is_empty());
    let max = proxy.weights().iter().copied().fold(f32::MIN, f32::max);
    let min = proxy.weights().iter().copied().fold(f32::MAX, f32::min);
    assert!(max > min, "correlated attributes must produce non-uniform weights");
}

#[test]
fn single_attribute_targeting_also_works() {
    // Muffin with K = 1 degenerates to single-dimension fairness search —
    // it must still run (the paper's formulation allows any K ≥ 1).
    let (split, pool, mut rng) = fixture();
    let config = SearchConfig::fast(&["skin_tone"]).with_episodes(4);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    assert_eq!(outcome.best().unfairness.len(), 1);
}
