//! **Consensus-gating ablation** — the paper's fusing structure leaves
//! unanimous body predictions untouched and lets the head arbitrate only
//! disagreements. This ablation re-evaluates the same trained structure
//! with gating disabled (head decides everything), showing why gating
//! protects overall accuracy.

use muffin::{
    FusingStructure, HeadSpec, HeadTrainConfig, PrivilegeMap, ProxyDataset, TextTable, Tracer,
};
use muffin_bench::{isic_context, print_header};
use muffin_nn::Activation;
use muffin_tensor::Rng64;

fn main() {
    let ctx = isic_context();
    print_header("Ablation: consensus gating on vs off", ctx.scale);

    let age = ctx.dataset.schema().by_name("age").expect("age");
    let site = ctx.dataset.schema().by_name("site").expect("site");
    let privilege = PrivilegeMap::infer(&ctx.pool, &ctx.split.val, &[age, site], 0.02);
    let proxy = ProxyDataset::build(&ctx.split.train, &privilege).expect("proxy");

    let pairs = [
        ("ResNet-50 + ResNet-34", vec!["ResNet-50", "ResNet-34"]),
        ("ResNet-18 + DenseNet121+D(site)", vec!["ResNet-18", "DenseNet121+D(site)"]),
    ];
    let mut table =
        TextTable::new(&["pair", "gating", "acc", "U_age", "U_site", "head decides"]);
    for (label, names) in pairs {
        let indices: Vec<usize> =
            names.iter().map(|n| ctx.pool.index_of(n).expect("in pool")).collect();
        let mut rng = Rng64::seed(4242);
        let mut fusing = FusingStructure::new(
            indices,
            HeadSpec::new(vec![16, 12, 8], Activation::Relu),
            &ctx.pool,
            &mut rng,
        )
        .expect("valid structure");
        fusing.train_head(
            &ctx.pool,
            &ctx.split.train,
            &proxy,
            &HeadTrainConfig::default(),
            &mut rng,
            &Tracer::noop(),
        );

        // Fraction of test samples where the body disagrees (head's share).
        let preds: Vec<Vec<usize>> = fusing
            .model_indices()
            .iter()
            .map(|&i| ctx.pool.get(i).expect("valid").predict(ctx.split.test.features()))
            .collect();
        let disagreements = (0..ctx.split.test.len())
            .filter(|&s| preds.iter().any(|p| p[s] != preds[0][s]))
            .count();
        let share = disagreements as f32 / ctx.split.test.len() as f32;

        for gated in [true, false] {
            fusing.set_consensus_gating(gated);
            let e = fusing.evaluate(&ctx.pool, &ctx.split.test, &Tracer::noop());
            table.row_owned(vec![
                label.to_string(),
                if gated { "on".into() } else { "off".into() },
                format!("{:.2}%", e.accuracy * 100.0),
                format!("{:.4}", e.attribute("age").unwrap().unfairness),
                format!("{:.4}", e.attribute("site").unwrap().unfairness),
                if gated { format!("{:.1}% of samples", share * 100.0) } else { "100%".into() },
            ]);
        }
    }
    println!("{table}");
    println!("with gating the head only touches disagreement samples, so the bodies'");
    println!("consensus accuracy on easy (mostly privileged) data cannot be damaged.");
}
