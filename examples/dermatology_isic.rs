//! Dermatology assistant scenario (the paper's motivating application).
//!
//! A clinic deploys a dermatology classifier. Its data is unfair along two
//! entangled dimensions — patient **age** and lesion **site** — and the
//! usual fixes seesaw: re-balancing for age makes site worse. This example
//! walks the full Muffin workflow: diagnose the unfairness, demonstrate
//! the seesaw, then unite off-the-shelf models to improve both attributes
//! at once.
//!
//! ```text
//! cargo run --release -p muffin-examples --bin dermatology_isic
//! ```

use muffin::{fmt_improvement, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_data::IsicLike;
use muffin_examples::one_line;
use muffin_models::{Architecture, BackboneConfig, FairnessMethod, ModelPool};
use muffin_tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng64::seed(11);
    let dataset = IsicLike::new().with_num_samples(4_000).generate(&mut rng);
    let split = dataset.split_default(&mut rng);
    let backbone = BackboneConfig::default().with_epochs(30);

    // Step 1 — diagnose: every off-the-shelf model is unfair on age and
    // site, and no model is best on both.
    let archs = [
        Architecture::shufflenet_v2_x1_0(),
        Architecture::mobilenet_v2(),
        Architecture::densenet121(),
        Architecture::resnet18(),
    ];
    let mut pool = ModelPool::train(&split.train, &archs, &backbone, &mut rng);
    println!("step 1 — the pool is unfair on age and site:");
    for model in pool.iter() {
        println!("  {}", one_line(&model.evaluate(&split.test)));
    }

    // Step 2 — the seesaw: single-attribute fixes trade one attribute for
    // the other.
    let age = dataset.schema().by_name("age").expect("age");
    let site = dataset.schema().by_name("site").expect("site");
    let base = Architecture::shufflenet_v2_x1_0();
    let vanilla = pool.by_name(base.name()).expect("in pool").evaluate(&split.test);
    println!("\nstep 2 — single-attribute interventions on {}:", base.name());
    let mut table = TextTable::new(&["intervention", "age vs vanilla", "site vs vanilla"]);
    for (method, attr, label) in [
        (FairnessMethod::DataBalancing, age, "D(age)"),
        (FairnessMethod::DataBalancing, site, "D(site)"),
        (FairnessMethod::FairLoss, age, "L(age)"),
        (FairnessMethod::FairLoss, site, "L(site)"),
    ] {
        let optimised = method.apply(&base, &split.train, attr, &backbone, &mut rng);
        let eval = optimised.evaluate(&split.test);
        table.row_owned(vec![
            label.into(),
            fmt_improvement(
                vanilla.attribute("age").unwrap().unfairness,
                eval.attribute("age").unwrap().unfairness,
            ),
            fmt_improvement(
                vanilla.attribute("site").unwrap().unfairness,
                eval.attribute("site").unwrap().unfairness,
            ),
        ]);
        // Optimised variants also join the pool — they are off-the-shelf
        // models too, and Muffin may unite them.
        pool.push(optimised);
    }
    println!("{table}");

    // Step 3 — Muffin: unite models to move both attributes together.
    println!("step 3 — Muffin search over the enriched pool ({} models):", pool.len());
    let config = SearchConfig::paper(&["age", "site"]).with_episodes(120);
    let search = MuffinSearch::new(pool, split.clone(), config)?;
    let outcome = search.run(&mut rng)?;
    // Pick the highest-reward candidate that genuinely unites two models —
    // the Eq. 3 reward already balances accuracy against both unfairness
    // scores.
    let best = outcome
        .distinct()
        .into_iter()
        .filter(|r| r.model_names.len() >= 2)
        .max_by(|a, b| a.reward.partial_cmp(&b.reward).unwrap_or(std::cmp::Ordering::Equal))
        .expect("history is non-empty");
    let fusing = search.rebuild(best)?;
    let eval = fusing.evaluate(search.pool(), &split.test, &Tracer::noop());
    println!("  best: {} with head {}", best.model_names.join(" + "), best.head_desc);
    println!("  {}", one_line(&eval));
    println!(
        "  vs vanilla {}: age {}, site {}, accuracy {:+.2}pp",
        base.name(),
        fmt_improvement(
            vanilla.attribute("age").unwrap().unfairness,
            eval.attribute("age").unwrap().unfairness
        ),
        fmt_improvement(
            vanilla.attribute("site").unwrap().unfairness,
            eval.attribute("site").unwrap().unfairness
        ),
        (eval.accuracy - vanilla.accuracy) * 100.0
    );
    Ok(())
}
