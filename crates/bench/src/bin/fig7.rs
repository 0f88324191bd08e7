//! **Figure 7** — validation on the Fitzpatrick17K-like dataset: Muffin
//! pushes forward the Pareto frontiers of skin-tone vs lesion-type
//! unfairness and of accuracy vs overall unfairness, showing the framework
//! generalises beyond ISIC.

use muffin::{pareto_min_indices, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{fitzpatrick_context, plots_dir, print_header};
use muffin_plot::{Marker, ScatterChart};

fn main() {
    let mut ctx = fitzpatrick_context();
    print_header("Figure 7: Fitzpatrick17K validation", ctx.scale);

    let existing: Vec<_> = ctx
        .pool
        .iter()
        .take(ctx.vanilla_count)
        .map(|m| m.evaluate(&ctx.split.test))
        .collect();

    let config = SearchConfig::paper(&["skin_tone", "type"]).with_episodes(ctx.scale.episodes);
    let search =
        MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config).expect("search setup");
    let outcome = search.run(&mut ctx.rng).expect("search runs");
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
        .take(16)
        .map(|r| {
            let fusing = search.rebuild(r).expect("rebuild");
            (
                r.clone(),
                fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop()),
            )
        })
        .collect();

    let u = |e: &muffin::ModelEvaluation| {
        (e.attribute("skin_tone").unwrap().unfairness, e.attribute("type").unwrap().unfairness)
    };

    println!("(a) series: U_skin_tone vs U_type   [x y label]");
    for e in &existing {
        println!("existing {:.4} {:.4} {}", u(e).0, u(e).1, e.model);
    }
    for (r, e) in &muffin_evals {
        println!("muffin   {:.4} {:.4} {}", u(e).0, u(e).1, r.model_names.join("+"));
    }

    let existing_front = pareto_min_indices(&existing, u);
    let muffin_front = pareto_min_indices(&muffin_evals, |(_, e)| u(e));
    let mut table = TextTable::new(&["frontier", "members (U_tone, U_type)"]);
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

    println!("(b) series: accuracy vs U_tone+U_type   [x y label]");
    let total = |e: &muffin::ModelEvaluation| u(e).0 + u(e).1;
    for e in &existing {
        println!("existing {:.4} {:.4} {}", e.accuracy, total(e), e.model);
    }
    for (r, e) in &muffin_evals {
        println!("muffin   {:.4} {:.4} {}", e.accuracy, total(e), r.model_names.join("+"));
    }

    // Rendered figure.
    let dir = plots_dir();
    let existing_pts: Vec<(f32, f32)> = existing.iter().map(u).collect();
    let muffin_pts: Vec<(f32, f32)> = muffin_evals.iter().map(|(_, e)| u(e)).collect();
    let chart = ScatterChart::new("Fig 7(a): skin-tone vs type unfairness", "U_skin_tone", "U_type")
        .series("existing networks", Marker::Circle, &existing_pts)
        .frontier(&existing_front.iter().map(|&i| existing_pts[i]).collect::<Vec<_>>())
        .series("Muffin-Nets", Marker::Triangle, &muffin_pts)
        .frontier(&muffin_front.iter().map(|&i| muffin_pts[i]).collect::<Vec<_>>());
    if chart.save(dir.join("fig7a.svg")).is_ok() {
        println!("\nwrote {}", dir.join("fig7a.svg").display());
    }

    let balance = outcome
        .best_united_balanced()
        .or_else(|| outcome.best_balanced())
        .expect("non-empty");
    println!(
        "\nMuffin-Balance: {} head {} (val U {:?}) — used for the Figure 8 detail",
        balance.model_names.join(" + "),
        balance.head_desc,
        balance.unfairness
    );
}
