//! **Extension: robustness to label noise.** Clinical labels are noisy,
//! and annotation noise often concentrates on the very groups that are
//! already disadvantaged. This experiment retrains the pipeline on
//! training labels corrupted at increasing rates — uniformly, and targeted
//! at the unprivileged age groups — and asks whether Muffin's simultaneous
//! fairness improvement survives.

use muffin::{MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{print_header, Scale};
use muffin_data::{Dataset, IsicLike};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

fn run_condition(
    label: &str,
    corrupt: impl Fn(&Dataset, &mut Rng64) -> Dataset,
    scale: Scale,
    table: &mut TextTable,
) {
    let mut rng = Rng64::seed(muffin_bench::EXPERIMENT_SEED + 40);
    let clean = IsicLike::new().with_num_samples(scale.num_samples.min(6_000)).generate(&mut rng);
    let split = clean.split_default(&mut rng);
    // Corrupt only the training labels; evaluation stays clean.
    let noisy_train = corrupt(&split.train, &mut rng);
    let backbone = BackboneConfig::default().with_epochs(scale.backbone_epochs);
    let pool = ModelPool::train(
        &noisy_train,
        &[
            Architecture::resnet18(),
            Architecture::resnet34(),
            Architecture::resnet50(),
            Architecture::densenet121(),
        ],
        &backbone,
        &mut rng,
    );
    let best_vanilla = pool
        .iter()
        .map(|m| m.evaluate(&split.test))
        .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty pool");

    let noisy_split = muffin_data::DatasetSplit {
        train: noisy_train,
        val: split.val.clone(),
        test: split.test.clone(),
    };
    let config =
        SearchConfig::paper(&["age", "site"]).with_episodes((scale.episodes / 2).max(10));
    let search = MuffinSearch::new(pool, noisy_split, config).expect("search setup");
    let outcome = search.run(&mut rng).expect("search runs");
    let fusing = search.rebuild(outcome.best()).expect("rebuild");
    let muffin_eval = fusing.evaluate(search.pool(), &split.test, &Tracer::noop());

    table.row_owned(vec![
        label.to_string(),
        format!("{:.2}%", best_vanilla.accuracy * 100.0),
        format!("{:.3}", best_vanilla.attribute("age").unwrap().unfairness),
        format!("{:.3}", best_vanilla.attribute("site").unwrap().unfairness),
        format!("{:.2}%", muffin_eval.accuracy * 100.0),
        format!("{:.3}", muffin_eval.attribute("age").unwrap().unfairness),
        format!("{:.3}", muffin_eval.attribute("site").unwrap().unfairness),
    ]);
}

fn main() {
    let scale = Scale::from_env();
    print_header("Extension: Muffin under training-label noise", scale);

    let mut table = TextTable::new(&[
        "condition", "vanilla acc", "van U_age", "van U_site", "muffin acc", "muf U_age",
        "muf U_site",
    ]);
    run_condition("clean", |d, _| d.clone(), scale, &mut table);
    run_condition(
        "uniform 10%",
        |d, rng| d.with_label_noise(0.10, rng),
        scale,
        &mut table,
    );
    run_condition(
        "uniform 20%",
        |d, rng| d.with_label_noise(0.20, rng),
        scale,
        &mut table,
    );
    run_condition(
        "targeted 30% on old age groups",
        |d, rng| {
            let age = d.schema().by_name("age").expect("age");
            d.with_group_label_noise(age, &[4, 5], 0.30, rng)
        },
        scale,
        &mut table,
    );
    println!("{table}");
    println!("expected shape: accuracy degrades gracefully with noise; Muffin keeps its");
    println!("advantage over the best vanilla model in every condition, though targeted");
    println!("noise on the unprivileged groups erodes the fairness gain the most.");
}
