//! Quickstart: the smallest end-to-end Muffin run.
//!
//! Generates a small ISIC-like dataset with two entangled unfair
//! attributes, trains a two-model pool, searches for a fusing structure
//! with a short reinforcement-learning budget, and reports how the best
//! Muffin-Net compares with the pool on accuracy and both unfairness
//! scores.
//!
//! ```text
//! cargo run --release -p muffin-examples --bin quickstart
//! ```

use muffin::{MuffinSearch, SearchConfig, Tracer};
use muffin_data::IsicLike;
use muffin_examples::one_line;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng64::seed(7);

    // 1. A dataset with multiple sensitive attributes (age, site, gender).
    let dataset = IsicLike::small().generate(&mut rng);
    let split = dataset.split_default(&mut rng);
    println!("dataset: {} samples, {} classes", dataset.len(), dataset.num_classes());

    // 2. Off-the-shelf models: train once, then freeze.
    let pool = ModelPool::train(
        &split.train,
        &[Architecture::resnet18(), Architecture::densenet121(), Architecture::mobilenet_v2()],
        &BackboneConfig::fast(),
        &mut rng,
    );
    println!("\npool on the test split:");
    for model in pool.iter() {
        println!("  {}", one_line(&model.evaluate(&split.test)));
    }

    // 3. Search for a model-fusing structure optimising age AND site.
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(40);
    let search = MuffinSearch::new(pool, split.clone(), config)?;
    println!(
        "\nproxy dataset: {} unprivileged samples of {} train samples",
        search.proxy().len(),
        split.train.len()
    );
    let outcome = search.run(&mut rng)?;

    // 4. Report the best structure found.
    let best = outcome.best();
    println!(
        "\nbest candidate (episode {}): {} with head {}",
        best.first_seen,
        best.model_names.join(" + "),
        best.head_desc
    );
    let fusing = search.rebuild(best)?;
    println!("  {}", one_line(&fusing.evaluate(search.pool(), &split.test, &Tracer::noop())));
    Ok(())
}
