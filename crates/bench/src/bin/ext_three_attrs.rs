//! **Extension: three-dimensional fairness.** The paper evaluates Muffin
//! with K = 2 unfair attributes; its formulation (Eq. 1/3, Algorithm 1) is
//! defined for any K. This experiment optimises **age, site and gender
//! simultaneously** and verifies the framework degrades gracefully: gender
//! is nearly fair already, so its reward term is large and roughly
//! constant, and the search should still improve age and site.

use muffin::{MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{isic_context, print_header};

fn main() {
    let mut ctx = isic_context();
    print_header("Extension: optimising three attributes simultaneously", ctx.scale);

    let config =
        SearchConfig::paper(&["age", "site", "gender"]).with_episodes(ctx.scale.episodes);
    let search =
        MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config).expect("search setup");
    println!(
        "proxy covers {} samples; targeted attributes: {:?}\n",
        search.proxy().len(),
        search.config().target_attributes
    );
    let outcome = search.run(&mut ctx.rng).expect("search runs");

    let mut table =
        TextTable::new(&["candidate", "acc", "U_age", "U_site", "U_gender", "reward"]);
    // Reference: the strongest vanilla model by accuracy.
    let best_vanilla = ctx
        .pool
        .iter()
        .take(ctx.vanilla_count)
        .map(|m| m.evaluate(&ctx.split.test))
        .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty pool");
    table.row_owned(vec![
        format!("best vanilla ({})", best_vanilla.model),
        format!("{:.2}%", best_vanilla.accuracy * 100.0),
        format!("{:.4}", best_vanilla.attribute("age").unwrap().unfairness),
        format!("{:.4}", best_vanilla.attribute("site").unwrap().unfairness),
        format!("{:.4}", best_vanilla.attribute("gender").unwrap().unfairness),
        "·".into(),
    ]);

    for (label, record) in [
        ("Muffin best-reward", Some(outcome.best())),
        ("Muffin best age", outcome.best_united_for_attribute(0)),
        ("Muffin best site", outcome.best_united_for_attribute(1)),
        ("Muffin best balanced", outcome.best_united_balanced()),
    ] {
        let Some(record) = record else { continue };
        let fusing = search.rebuild(record).expect("rebuild");
        let e = fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop());
        table.row_owned(vec![
            format!("{label} ({})", record.model_names.join("+")),
            format!("{:.2}%", e.accuracy * 100.0),
            format!("{:.4}", e.attribute("age").unwrap().unfairness),
            format!("{:.4}", e.attribute("site").unwrap().unfairness),
            format!("{:.4}", e.attribute("gender").unwrap().unfairness),
            format!("{:.3}", record.reward),
        ]);
    }
    println!("{table}");
    println!("expected shape: gender stays near its (already fair) level while age and");
    println!("site improve — adding an already-fair attribute does not break the search.");
}
