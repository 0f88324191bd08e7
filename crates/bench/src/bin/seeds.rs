//! **Multi-seed variance study.** The paper reports single-run numbers;
//! this harness reruns a compact Table-I-style comparison over several
//! experiment seeds and reports mean ± std of the headline metrics, so the
//! reproduction's claims carry error bars.
//!
//! ```text
//! cargo run --release -p muffin-bench --bin seeds [num_seeds]
//! ```

use muffin::{intersectional_unfairness, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{quick_mode, Scale};
use muffin_data::IsicLike;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

struct RunMetrics {
    best_vanilla_acc: f32,
    muffin_acc: f32,
    vanilla_u_age: f32,
    muffin_u_age: f32,
    vanilla_u_site: f32,
    muffin_u_site: f32,
    vanilla_u_joint: f32,
    muffin_u_joint: f32,
}

fn run_seed(seed: u64, scale: Scale) -> RunMetrics {
    let mut rng = Rng64::seed(seed);
    let samples = if quick_mode() { 2_000 } else { 12_000 };
    let dataset = IsicLike::new().with_num_samples(samples).generate(&mut rng);
    let split = dataset.split_default(&mut rng);
    let backbone = BackboneConfig::default().with_epochs(scale.backbone_epochs);
    let pool = ModelPool::train(
        &split.train,
        &[
            Architecture::shufflenet_v2_x1_0(),
            Architecture::densenet121(),
            Architecture::resnet18(),
            Architecture::resnet34(),
            Architecture::resnet50(),
            Architecture::mobilenet_v3_large(),
        ],
        &backbone,
        &mut rng,
    );

    let age = dataset.schema().by_name("age").expect("age");
    let site = dataset.schema().by_name("site").expect("site");
    let age_groups = dataset.schema().get(age).expect("age").num_groups();
    let site_groups = dataset.schema().get(site).expect("site").num_groups();
    let joint_u = |preds: &[usize]| {
        intersectional_unfairness(
            preds,
            split.test.labels(),
            split.test.groups(age),
            age_groups,
            split.test.groups(site),
            site_groups,
        )
    };

    // Select the vanilla champion on the VALIDATION split (as Muffin's
    // candidate is selected), then measure it on test — otherwise the
    // baseline would enjoy oracle test-set selection.
    let champion = pool
        .iter()
        .max_by(|a, b| {
            let va = a.evaluate(&split.val).accuracy;
            let vb = b.evaluate(&split.val).accuracy;
            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty pool");
    let vanilla = (champion.predict(split.test.features()), champion.evaluate(&split.test));

    let config = SearchConfig::paper(&["age", "site"]).with_episodes(scale.episodes.max(20));
    let search = MuffinSearch::new(pool, split.clone(), config).expect("search setup");
    let outcome = search.run(&mut rng).expect("search runs");
    let fusing = search.rebuild(outcome.best()).expect("rebuild");
    let muffin_preds = fusing.predict(search.pool(), split.test.features());
    let muffin_eval = fusing.evaluate(search.pool(), &split.test, &Tracer::noop());

    RunMetrics {
        best_vanilla_acc: vanilla.1.accuracy,
        muffin_acc: muffin_eval.accuracy,
        vanilla_u_age: vanilla.1.attribute("age").unwrap().unfairness,
        muffin_u_age: muffin_eval.attribute("age").unwrap().unfairness,
        vanilla_u_site: vanilla.1.attribute("site").unwrap().unfairness,
        muffin_u_site: muffin_eval.attribute("site").unwrap().unfairness,
        vanilla_u_joint: joint_u(&vanilla.0),
        muffin_u_joint: joint_u(&muffin_preds),
    }
}

fn mean_std(values: &[f32]) -> (f32, f32) {
    let n = values.len().max(1) as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    (mean, var.sqrt())
}

fn main() {
    let num_seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick_mode() { 2 } else { 3 });
    let scale = Scale::from_env();
    muffin_bench::print_header(
        &format!("Multi-seed variance study ({num_seeds} seeds)"),
        scale,
    );

    let runs: Vec<RunMetrics> = (0..num_seeds).map(|s| run_seed(101 + s, scale)).collect();
    let col = |f: fn(&RunMetrics) -> f32| -> (f32, f32) {
        mean_std(&runs.iter().map(f).collect::<Vec<_>>())
    };

    let mut table = TextTable::new(&["metric", "best vanilla", "Muffin", "delta"]);
    for (label, vf, mf) in [
        (
            "accuracy",
            col(|r: &RunMetrics| r.best_vanilla_acc),
            col(|r: &RunMetrics| r.muffin_acc),
        ),
        ("U_age", col(|r| r.vanilla_u_age), col(|r| r.muffin_u_age)),
        ("U_site", col(|r| r.vanilla_u_site), col(|r| r.muffin_u_site)),
        ("U_age×site (intersectional)", col(|r| r.vanilla_u_joint), col(|r| r.muffin_u_joint)),
    ]
    .map(|(l, v, m)| (l, v, m))
    {
        table.row_owned(vec![
            label.to_string(),
            format!("{:.3} ± {:.3}", vf.0, vf.1),
            format!("{:.3} ± {:.3}", mf.0, mf.1),
            format!("{:+.3}", mf.0 - vf.0),
        ]);
    }
    println!("{table}");
    println!("Muffin's best-reward candidate vs the most accurate vanilla model, averaged");
    println!("over {num_seeds} independent dataset/pool/search seeds (mean ± std).");
}
