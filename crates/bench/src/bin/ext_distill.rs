//! **Extension: distilling Muffin back to one model.** Figure 9(b) shows
//! the fused system's parameter count exploding with body size. This
//! extension distils the searched Muffin-Net into a single student MLP and
//! measures how much of the fairness and accuracy benefit survives at a
//! tiny fraction of the parameters.

use muffin::{distill_student, DistillConfig, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{isic_context, print_header};

fn main() {
    let mut ctx = isic_context();
    print_header("Extension: distilling the fused model into one student", ctx.scale);

    let config = SearchConfig::paper(&["age", "site"]).with_episodes(ctx.scale.episodes);
    let search =
        MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config).expect("search setup");
    let outcome = search.run(&mut ctx.rng).expect("search runs");
    let best = outcome.best();
    let fusing = search.rebuild(best).expect("rebuild");
    println!("teacher: {} head {}\n", best.model_names.join(" + "), best.head_desc);

    let teacher_eval = fusing.evaluate(search.pool(), &ctx.split.test, &Tracer::noop());
    let mut table = TextTable::new(&["model", "params", "acc", "U_age", "U_site"]);
    table.row_owned(vec![
        "fused teacher".into(),
        fusing.total_reported_params(search.pool()).to_string(),
        format!("{:.2}%", teacher_eval.accuracy * 100.0),
        format!("{:.4}", teacher_eval.attribute("age").unwrap().unfairness),
        format!("{:.4}", teacher_eval.attribute("site").unwrap().unfairness),
    ]);

    for hidden in [vec![32usize], vec![64, 32], vec![128, 64]] {
        let config = DistillConfig { student_hidden: hidden.clone(), ..DistillConfig::default() };
        let distilled =
            distill_student(&fusing, search.pool(), &ctx.split.train, &config, &mut ctx.rng)
                .expect("distills");
        let eval = distilled.evaluate(&ctx.split.test);
        table.row_owned(vec![
            format!("student {hidden:?} ({:.0}x smaller)", distilled.compression()),
            distilled.student_params().to_string(),
            format!("{:.2}%", eval.accuracy * 100.0),
            format!("{:.4}", eval.attribute("age").unwrap().unfairness),
            format!("{:.4}", eval.attribute("site").unwrap().unfairness),
        ]);
    }
    println!("{table}");
    println!("expected shape: a wide student retains most of the teacher's accuracy and a");
    println!("large part of its fairness at orders-of-magnitude fewer parameters.");
}
