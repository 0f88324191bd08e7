//! **Reward-shape ablation** — the paper's Eq. 3 ratio reward vs a linear
//! accuracy-minus-penalty scalarisation vs a worst-attribute-first reward.
//! Same pool, budget and controller; only the reward the controller is
//! trained on differs. Shows what the ratio form buys: pressure on *both*
//! unfairness scores without a λ to tune.

use muffin::{MuffinSearch, RewardKind, SearchConfig, TextTable, Tracer};
use muffin_bench::{isic_context, print_header};
use muffin_tensor::Rng64;

fn main() {
    let ctx = isic_context();
    print_header("Ablation: reward shapes (Eq. 3 vs alternatives)", ctx.scale);

    let mut table = TextTable::new(&[
        "reward", "best acc", "best U_age", "best U_site", "body",
    ]);
    for (label, kind) in [
        ("Eq. 3 ratio (paper)", RewardKind::PaperRatio),
        ("linear penalty λ=0.3", RewardKind::LinearPenalty { lambda: 0.3 }),
        ("worst attribute", RewardKind::WorstAttribute),
    ] {
        let config = SearchConfig::paper(&["age", "site"])
            .with_episodes(ctx.scale.episodes)
            .with_reward_kind(kind);
        let search = MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config)
            .expect("search setup");
        let outcome = search.run(&mut Rng64::seed(900)).expect("search runs");
        // Evaluate the best candidate on the held-out test split.
        let fusing = search.rebuild(outcome.best()).expect("rebuild");
        let e = fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop());
        table.row_owned(vec![
            label.into(),
            format!("{:.2}%", e.accuracy * 100.0),
            format!("{:.4}", e.attribute("age").unwrap().unfairness),
            format!("{:.4}", e.attribute("site").unwrap().unfairness),
            outcome.best().model_names.join("+"),
        ]);
    }
    println!("{table}");
    println!("the ratio reward couples accuracy and fairness without a tunable trade-off");
    println!("weight; the linear form needs λ chosen per dataset, and worst-attribute");
    println!("ignores the second attribute once it is no longer the maximum.");
}
