//! **Figure 5** — exploration by Muffin: Muffin-Nets push forward the
//! Pareto frontiers of (a) age unfairness vs site unfairness and (b)
//! accuracy vs overall unfairness, relative to the existing networks.

use muffin::{
    pareto_max_min_indices, pareto_min_indices, MuffinSearch, SearchConfig, TextTable, Tracer,
};
use muffin_bench::{isic_context, plots_dir, print_header};
use muffin_plot::{Marker, ScatterChart};

fn main() {
    let mut ctx = isic_context();
    print_header("Figure 5: Pareto frontiers — existing networks vs Muffin-Nets", ctx.scale);

    // Existing networks: the vanilla zoo evaluated on the test split.
    let existing: Vec<_> = ctx
        .pool
        .iter()
        .take(ctx.vanilla_count)
        .map(|m| m.evaluate(&ctx.split.test))
        .collect();

    // Muffin-Nets: distinct candidates from an unrestricted search,
    // re-evaluated on the test split.
    let config = SearchConfig::paper(&["age", "site"]).with_episodes(ctx.scale.episodes);
    let search =
        MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config).expect("search setup");
    let outcome = search.run(&mut ctx.rng).expect("search runs");
    // Rank distinct candidates by validation reward and test the strongest.
    // Real Muffin-Nets unite at least two models; degenerate single-model
    // bodies (duplicate slot picks) are excluded from the exploration plot.
    let mut distinct: Vec<_> = outcome
        .distinct()
        .into_iter()
        .filter(|r| r.model_names.len() >= 2)
        .cloned()
        .collect();
    distinct.sort_by(|a, b| b.reward.partial_cmp(&a.reward).unwrap_or(std::cmp::Ordering::Equal));
    let muffin_evals: Vec<_> = distinct
        .iter()
        .take(20)
        .map(|record| {
            let fusing = search.rebuild(record).expect("rebuild");
            (record.clone(), fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop()))
        })
        .collect();

    println!("(a) series: U_age vs U_site   [x y label]");
    for e in &existing {
        println!(
            "existing {:.4} {:.4} {}",
            e.attribute("age").unwrap().unfairness,
            e.attribute("site").unwrap().unfairness,
            e.model
        );
    }
    for (r, e) in &muffin_evals {
        println!(
            "muffin   {:.4} {:.4} {}+{}",
            e.attribute("age").unwrap().unfairness,
            e.attribute("site").unwrap().unfairness,
            r.model_names.join("+"),
            r.head_desc
        );
    }

    let u = |e: &muffin::ModelEvaluation| {
        (e.attribute("age").unwrap().unfairness, e.attribute("site").unwrap().unfairness)
    };
    let existing_front = pareto_min_indices(&existing, u);
    let muffin_front = pareto_min_indices(&muffin_evals, |(_, e)| u(e));

    let mut table = TextTable::new(&["frontier", "members (U_age, U_site)"]);
    table.row_owned(vec![
        "existing".into(),
        existing_front
            .iter()
            .map(|&i| format!("({:.3},{:.3})", u(&existing[i]).0, u(&existing[i]).1))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    table.row_owned(vec![
        "muffin".into(),
        muffin_front
            .iter()
            .map(|&i| format!("({:.3},{:.3})", u(&muffin_evals[i].1).0, u(&muffin_evals[i].1).1))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    println!("\n{table}");

    // Pareto-dominance check: does some Muffin-Net dominate each existing
    // frontier member (the "push forward" claim)?
    let pushed = existing_front.iter().all(|&i| {
        let target = u(&existing[i]);
        muffin_evals.iter().any(|(_, e)| {
            let point = u(e);
            point.0 <= target.0 && point.1 <= target.1
        })
    });
    println!(
        "Muffin {} the existing (U_age, U_site) frontier",
        if pushed { "pushes forward" } else { "does not fully dominate" }
    );

    // (b) accuracy vs overall unfairness.
    println!("\n(b) series: accuracy vs U_age+U_site   [x y label]");
    let total_u = |e: &muffin::ModelEvaluation| {
        e.attribute("age").unwrap().unfairness + e.attribute("site").unwrap().unfairness
    };
    for e in &existing {
        println!("existing {:.4} {:.4} {}", e.accuracy, total_u(e), e.model);
    }
    for (r, e) in &muffin_evals {
        println!("muffin   {:.4} {:.4} {}", e.accuracy, total_u(e), r.model_names.join("+"));
    }
    let best_existing_acc = existing.iter().map(|e| e.accuracy).fold(f32::MIN, f32::max);
    let best_muffin_acc = muffin_evals.iter().map(|(_, e)| e.accuracy).fold(f32::MIN, f32::max);
    println!(
        "\nbest accuracy: existing {:.2}% vs Muffin {:.2}% (paper: only Muffin-Net exceeds 82%)",
        best_existing_acc * 100.0,
        best_muffin_acc * 100.0
    );
    let acc_front = pareto_max_min_indices(&muffin_evals, |(_, e)| (e.accuracy, total_u(e)));
    println!("Muffin accuracy-vs-overall-unfairness frontier has {} members", acc_front.len());

    // Rendered figures.
    let dir = plots_dir();
    let existing_pts: Vec<(f32, f32)> = existing.iter().map(u).collect();
    let muffin_pts: Vec<(f32, f32)> = muffin_evals.iter().map(|(_, e)| u(e)).collect();
    let chart = ScatterChart::new("Fig 5(a): unfairness of age vs site", "U_age", "U_site")
        .series("existing networks", Marker::Circle, &existing_pts)
        .frontier(&existing_front.iter().map(|&i| existing_pts[i]).collect::<Vec<_>>())
        .series("Muffin-Nets", Marker::Triangle, &muffin_pts)
        .frontier(&muffin_front.iter().map(|&i| muffin_pts[i]).collect::<Vec<_>>());
    if chart.save(dir.join("fig5a.svg")).is_ok() {
        println!("wrote {}", dir.join("fig5a.svg").display());
    }
    let existing_b: Vec<(f32, f32)> = existing.iter().map(|e| (e.accuracy, total_u(e))).collect();
    let muffin_b: Vec<(f32, f32)> =
        muffin_evals.iter().map(|(_, e)| (e.accuracy, total_u(e))).collect();
    let chart_b = ScatterChart::new("Fig 5(b): accuracy vs overall unfairness", "accuracy", "U_age + U_site")
        .series("existing networks", Marker::Circle, &existing_b)
        .series("Muffin-Nets", Marker::Triangle, &muffin_b);
    if chart_b.save(dir.join("fig5b.svg")).is_ok() {
        println!("wrote {}", dir.join("fig5b.svg").display());
    }
}
