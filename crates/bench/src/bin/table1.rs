//! **Table I** — the main comparison: for four base models, the vanilla
//! network vs the D and L single-attribute baselines vs Muffin (the base
//! model united with a searched partner and muffin head). Muffin improves
//! **both** unfair attributes simultaneously and gains accuracy on small
//! backbones.

use muffin::{fmt_improvement, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{isic_context, print_header};
use muffin_models::{Architecture, FairnessMethod};

fn main() {
    let mut ctx = isic_context();
    print_header("Table I: Muffin vs existing fairness techniques", ctx.scale);

    let age = ctx.dataset.schema().by_name("age").expect("age");
    let site = ctx.dataset.schema().by_name("site").expect("site");

    let base_models = [
        Architecture::shufflenet_v2_x1_0(),
        Architecture::mobilenet_v3_small(),
        Architecture::densenet121(),
        Architecture::resnet18(),
    ];

    let mut summary = TextTable::new(&[
        "model", "vil U_age", "vil U_site", "vil acc", "paired", "MLP", "Muffin U_age",
        "Muffin U_site", "Muffin acc", "age imp", "site imp", "acc imp",
    ]);

    for base in &base_models {
        let vanilla = ctx
            .pool
            .by_name(base.name())
            .expect("vanilla model in pool")
            .evaluate(&ctx.split.test);
        let v_age = vanilla.attribute("age").unwrap().unfairness;
        let v_site = vanilla.attribute("site").unwrap().unfairness;

        println!("--- {} ({} params) ---", base.name(), base.reported_params());
        let mut table =
            TextTable::new(&["method", "U_age", "U_site", "acc", "age vs vil", "site vs vil"]);
        table.row_owned(vec![
            "Vanilla".into(),
            format!("{v_age:.4}"),
            format!("{v_site:.4}"),
            format!("{:.2}%", vanilla.accuracy * 100.0),
            "·".into(),
            "·".into(),
        ]);

        for (method, attr, label) in [
            (FairnessMethod::DataBalancing, age, "D(Age)"),
            (FairnessMethod::DataBalancing, site, "D(Site)"),
            (FairnessMethod::FairLoss, age, "L(Age)"),
            (FairnessMethod::FairLoss, site, "L(Site)"),
        ] {
            let model = method.apply(base, &ctx.split.train, attr, &ctx.backbone, &mut ctx.rng);
            let e = model.evaluate(&ctx.split.test);
            let u_age = e.attribute("age").unwrap().unfairness;
            let u_site = e.attribute("site").unwrap().unfairness;
            table.row_owned(vec![
                label.into(),
                format!("{u_age:.4}"),
                format!("{u_site:.4}"),
                format!("{:.2}%", e.accuracy * 100.0),
                fmt_improvement(v_age, u_age),
                fmt_improvement(v_site, u_site),
            ]);
        }

        // Muffin: fix the base model in the body, search the partner + head.
        let base_idx = ctx.pool.index_of(base.name()).expect("in pool");
        let config = SearchConfig::paper(&["age", "site"])
            .with_episodes(ctx.scale.episodes * 2)
            .with_slots(1)
            .with_required_models(vec![base_idx]);
        let search = MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config)
            .expect("search setup");
        let outcome = search.run(&mut ctx.rng).expect("search runs");
        // The paper's Table I rows improve both attributes; select like the
        // paper does — the highest-reward candidate whose validation
        // unfairness beats vanilla on BOTH attributes, falling back to the
        // best-reward candidate if the search found none.
        let vanilla_val = ctx
            .pool
            .by_name(base.name())
            .expect("vanilla model in pool")
            .evaluate(&ctx.split.val);
        let (vv_age, vv_site) = (
            vanilla_val.attribute("age").unwrap().unfairness,
            vanilla_val.attribute("site").unwrap().unfairness,
        );
        // Demand a margin on validation so small test-split noise cannot
        // flip an improvement back into a degradation.
        let both_improving = outcome
            .distinct()
            .into_iter()
            .filter(|r| r.unfairness[0] < 0.95 * vv_age && r.unfairness[1] < 0.95 * vv_site)
            .max_by(|a, b| a.reward.partial_cmp(&b.reward).unwrap_or(std::cmp::Ordering::Equal));
        // Fallback: the candidate with the best *worst-attribute* relative
        // improvement, so the report never trades one attribute away for
        // the other when a balanced option exists.
        let best = both_improving.unwrap_or_else(|| {
            outcome
                .distinct()
                .into_iter()
                .max_by(|a, b| {
                    let maximin = |r: &muffin::EpisodeRecord| {
                        let age_imp = (vv_age - r.unfairness[0]) / vv_age;
                        let site_imp = (vv_site - r.unfairness[1]) / vv_site;
                        age_imp.min(site_imp)
                    };
                    maximin(a).partial_cmp(&maximin(b)).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("history is non-empty")
        });
        let fusing = search.rebuild(best).expect("rebuild");
        let e = fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop());
        let m_age = e.attribute("age").unwrap().unfairness;
        let m_site = e.attribute("site").unwrap().unfairness;
        table.row_owned(vec![
            "Muffin".into(),
            format!("{m_age:.4}"),
            format!("{m_site:.4}"),
            format!("{:.2}%", e.accuracy * 100.0),
            fmt_improvement(v_age, m_age),
            fmt_improvement(v_site, m_site),
        ]);
        println!("{table}");
        let paired: Vec<&str> = best
            .model_names
            .iter()
            .map(String::as_str)
            .filter(|&n| n != base.name())
            .collect();
        println!("Muffin pairs {} with {:?}, head {}\n", base.name(), paired, best.head_desc);

        summary.row_owned(vec![
            base.name().to_string(),
            format!("{v_age:.3}"),
            format!("{v_site:.3}"),
            format!("{:.2}%", vanilla.accuracy * 100.0),
            paired.join("+"),
            best.head_desc.clone(),
            format!("{m_age:.3}"),
            format!("{m_site:.3}"),
            format!("{:.2}%", e.accuracy * 100.0),
            fmt_improvement(v_age, m_age),
            fmt_improvement(v_site, m_site),
            format!("{:+.2}pp", (e.accuracy - vanilla.accuracy) * 100.0),
        ]);
    }

    println!("=== Table I summary (Muffin vs vanilla) ===");
    println!("{summary}");
    println!("paper shape: D/L improve at most one attribute (and often degrade the other);");
    println!("Muffin improves age AND site together, with accuracy gains on the small models");
    println!("(paper: +26.32%/+20.37% fairness and +5.58% accuracy for MobileNet_V3_Small).");
}
