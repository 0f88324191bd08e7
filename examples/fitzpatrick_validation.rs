//! Skin-tone fairness scenario on the Fitzpatrick17K-like dataset.
//!
//! Dermatology models are notoriously less accurate on darker skin tones
//! (Fitzpatrick types V–VI). This example targets **skin tone** and lesion
//! **type** simultaneously and inspects the per-tone accuracy of the
//! resulting Muffin-Balance model, mirroring the paper's Section 4.5.
//!
//! ```text
//! cargo run --release -p muffin-examples --bin fitzpatrick_validation
//! ```

use muffin::{per_group_accuracy_table, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_data::{FitzpatrickLike, GroupId};
use muffin_examples::one_line;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng64::seed(13);
    let dataset = FitzpatrickLike::new().with_num_samples(4_000).generate(&mut rng);
    let split = dataset.split_default(&mut rng);
    let backbone = BackboneConfig::default().with_epochs(30);

    // The paper's Fitzpatrick pool: ResNet, ShuffleNet and MobileNet.
    let pool = ModelPool::train(
        &split.train,
        &[
            Architecture::resnet18(),
            Architecture::shufflenet_v2_x1_0(),
            Architecture::mobilenet_v3_large(),
            Architecture::mobilenet_v3_small(),
        ],
        &backbone,
        &mut rng,
    );
    println!("pool on the test split:");
    for model in pool.iter() {
        println!("  {}", one_line(&model.evaluate(&split.test)));
    }

    let config = SearchConfig::paper(&["skin_tone", "type"]).with_episodes(80);
    let search = MuffinSearch::new(pool, split.clone(), config)?;
    let outcome = search.run(&mut rng)?;
    let record = outcome
        .best_united_balanced()
        .or_else(|| outcome.best_balanced())
        .expect("history is non-empty");
    let fusing = search.rebuild(record)?;
    println!(
        "\nMuffin-Balance: {} with head {}",
        record.model_names.join(" + "),
        record.head_desc
    );
    println!("  {}", one_line(&fusing.evaluate(search.pool(), &split.test, &Tracer::noop())));

    // Per-skin-tone accuracy vs the strongest single model.
    let tone = dataset.schema().by_name("skin_tone").expect("skin_tone");
    let tone_attr = dataset.schema().get(tone).expect("attribute");
    let reference = search.pool().by_name("ResNet-18").expect("in pool");
    let ref_preds = reference.predict(split.test.features());
    let muffin_preds = fusing.predict(search.pool(), split.test.features());
    let rows = per_group_accuracy_table(&[&ref_preds, &muffin_preds], &split.test, tone);
    let mut table = TextTable::new(&["skin tone", "n", "ResNet-18", "Muffin-Balance"]);
    for (g, n, accs) in rows {
        table.row_owned(vec![
            tone_attr.group_name(GroupId::new(g)).unwrap_or("?").to_string(),
            n.to_string(),
            format!("{:.2}%", accs[0] * 100.0),
            format!("{:.2}%", accs[1] * 100.0),
        ]);
    }
    println!("\n{table}");
    Ok(())
}
