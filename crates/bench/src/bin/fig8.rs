//! **Figure 8** — detailed result of Muffin-Balance on the
//! Fitzpatrick17K-like dataset: per-skin-tone accuracy of ResNet-18 vs
//! Muffin-Balance. Muffin gains on some tones, gives a little back on
//! others, and ends up much fairer at unchanged overall accuracy.

use muffin::{per_group_accuracy_table, MuffinSearch, SearchConfig, TextTable, Tracer};
use muffin_bench::{fitzpatrick_context, plots_dir, print_header};
use muffin_plot::BarChart;

fn main() {
    let mut ctx = fitzpatrick_context();
    print_header("Figure 8: per-skin-tone accuracy, ResNet-18 vs Muffin-Balance", ctx.scale);

    let tone = ctx.dataset.schema().by_name("skin_tone").expect("skin_tone");
    let tone_attr = ctx.dataset.schema().get(tone).expect("attribute");

    let config = SearchConfig::paper(&["skin_tone", "type"]).with_episodes(ctx.scale.episodes);
    let search =
        MuffinSearch::new(ctx.pool.clone(), ctx.split.clone(), config).expect("search setup");
    let outcome = search.run(&mut ctx.rng).expect("search runs");
    let record = outcome
        .best_united_balanced()
        .or_else(|| outcome.best_balanced())
        .expect("non-empty history");
    let fusing = search.rebuild(record).expect("rebuild");
    println!("Muffin-Balance = {} head {}\n", record.model_names.join(" + "), record.head_desc);

    let test = &ctx.split.test;
    let r18 = search.pool().by_name("ResNet-18").expect("in pool");
    let r18_preds = r18.predict(test.features());
    let muffin_preds = fusing.predict(search.pool(), test.features());

    let table = per_group_accuracy_table(&[&r18_preds, &muffin_preds], test, tone);
    let mut out = TextTable::new(&["skin tone", "n", "ResNet-18", "Muffin-Balance", "delta"]);
    for (g, n, accs) in &table {
        let name = tone_attr.group_name(muffin_data::GroupId::new(*g)).unwrap_or("?");
        out.row_owned(vec![
            name.to_string(),
            n.to_string(),
            format!("{:.2}%", accs[0] * 100.0),
            format!("{:.2}%", accs[1] * 100.0),
            format!("{:+.2}pp", (accs[1] - accs[0]) * 100.0),
        ]);
    }
    println!("{out}");

    let r18_eval = r18.evaluate(test);
    let muffin_eval = fusing.evaluate(search.pool(), test, &Tracer::noop());
    println!(
        "overall: ResNet-18 acc {:.2}% U_tone {:.3} | Muffin-Balance acc {:.2}% U_tone {:.3}",
        r18_eval.accuracy * 100.0,
        r18_eval.attribute("skin_tone").unwrap().unfairness,
        muffin_eval.accuracy * 100.0,
        muffin_eval.attribute("skin_tone").unwrap().unfairness,
    );
    println!("paper shape: gains on light/medium tones can offset small losses elsewhere, so");
    println!("overall accuracy holds while the model becomes much fairer across tones.");

    let mut chart = BarChart::new("Fig 8: per-skin-tone accuracy", "accuracy")
        .series_labels(&["ResNet-18", "Muffin-Balance"]);
    for (g, _, accs) in &table {
        let name = tone_attr.group_name(muffin_data::GroupId::new(*g)).unwrap_or("?");
        chart = chart.category(name, &[accs[0], accs[1]]);
    }
    let path = plots_dir().join("fig8.svg");
    if chart.save(&path).is_ok() {
        println!("wrote {}", path.display());
    }
}
