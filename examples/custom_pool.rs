//! Bring-your-own-everything: a custom dataset schema and custom
//! architectures.
//!
//! Muffin is not tied to the built-in dermatology simulators. This example
//! defines a loan-approval-flavoured synthetic dataset with two sensitive
//! attributes (region × income bracket), declares two custom architecture
//! descriptors, and runs the same fairness pipeline on them.
//!
//! ```text
//! cargo run --release -p muffin-examples --bin custom_pool
//! ```

use muffin::{MuffinSearch, SearchConfig, Tracer};
use muffin_data::{AttributeSpec, DataGenerator, GeneratorConfig, GroupSpec};
use muffin_examples::one_line;
use muffin_models::{Architecture, BackboneConfig, ModelFamily, ModelPool};
use muffin_tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng64::seed(17);

    // A 4-class decision problem with two entangled sensitive attributes.
    let config = GeneratorConfig {
        num_samples: 3_000,
        feature_dim: 16,
        num_classes: 4,
        class_sep: 2.0,
        base_noise: 1.2,
        spectral_decay: 0.85,
        attributes: vec![
            AttributeSpec::new(
                "region",
                vec![
                    GroupSpec::new("urban", 0.55),
                    GroupSpec::new("suburban", 0.30),
                    GroupSpec::new("rural", 0.15).with_angle(65.0).with_noise_mult(1.8),
                ],
                vec![(0, 1)],
            ),
            AttributeSpec::new(
                "income",
                vec![
                    GroupSpec::new("high", 0.35),
                    GroupSpec::new("middle", 0.45),
                    GroupSpec::new("low", 0.20).with_angle(-60.0).with_noise_mult(1.7),
                ],
                vec![(1, 2)],
            ),
        ],
        correlation: 0.4,
        interactions: vec![],
    };
    let dataset = DataGenerator::new(config)?.generate(&mut rng);
    let split = dataset.split_default(&mut rng);
    println!(
        "custom dataset: {} samples, attributes {:?}",
        dataset.len(),
        dataset.schema().attribute_names()
    );

    // Two in-house model families with their own capacities.
    let architectures = [
        Architecture::custom("TabNet-S", ModelFamily::MobileNet, 8, &[24], 900_000, 501),
        Architecture::custom("TabNet-L", ModelFamily::ResNet, 12, &[48, 24], 4_200_000, 502),
        Architecture::custom("WideTab", ModelFamily::DenseNet, 10, &[64], 2_100_000, 503),
    ];
    let pool = ModelPool::train(
        &split.train,
        &architectures,
        &BackboneConfig::default().with_epochs(30),
        &mut rng,
    );
    println!("\npool on the test split:");
    for model in pool.iter() {
        println!("  {}", one_line(&model.evaluate(&split.test)));
    }

    let config = SearchConfig::fast(&["region", "income"]).with_episodes(50);
    let search = MuffinSearch::new(pool, split.clone(), config)?;
    println!(
        "\ninferred unprivileged groups: {:?}",
        search
            .privilege()
            .attributes()
            .iter()
            .map(|&a| (a.index(), search.privilege().unprivileged_groups(a).to_vec()))
            .collect::<Vec<_>>()
    );
    let outcome = search.run(&mut rng)?;
    let best = outcome.best();
    let fusing = search.rebuild(best)?;
    println!("\nbest: {} with head {}", best.model_names.join(" + "), best.head_desc);
    println!("  {}", one_line(&fusing.evaluate(search.pool(), &split.test, &Tracer::noop())));
    Ok(())
}
