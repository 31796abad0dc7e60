//! Reproduce **Figure 4, 5 or 6**: one of the paper's three Pareto fronts
//! over the PPO solutions, next to the front the paper reports. Axes,
//! title and paper front come from [`bench::paper::figures::FIGURES`].
//!
//! ```text
//! cargo run --release -p bench --bin fig -- 4 --out results
//! ```
//!
//! Reuses `table1`'s journal when present (same `--steps`/`--seed`), so
//! running `table1` first avoids re-training.

use bench::harness::emit_figure;
use bench::paper::figures::FIGURES;
use bench::{run_table1_study, HarnessOpts, PaperRow, TABLE1};
use decision::prelude::Trial;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next();
    let figure = which.as_deref().and_then(|n| FIGURES.iter().find(|f| f.number.to_string() == n));
    let Some(figure) = figure else {
        let got = which.as_deref().unwrap_or("nothing");
        eprintln!("error: usage: fig <4|5|6> [options]; no figure {got}");
        std::process::exit(2);
    };
    let opts = HarnessOpts::from_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let trials = run_table1_study(&opts).unwrap_or_else(|e| fail(e));
    // The figures display PPO solutions only (§VI-A: SAC "could not be
    // displayed in the graph because of the scale").
    let ppo: Vec<Trial> =
        trials.iter().filter(|t| t.config.str("algorithm") == Some("PPO")).cloned().collect();

    let name = format!("fig{}", figure.number);
    let (x, y) = (figure.metrics)();
    let front_ids = emit_figure(&name, figure.title, &ppo, x.clone(), y.clone(), &opts)
        .unwrap_or_else(|e| fail(e));

    // Also emit the paper-side figure from Table I's reported values, for
    // visual comparison.
    let paper_trials: Vec<Trial> = TABLE1
        .iter()
        .filter(|r| r.algorithm == rl_algos::Algorithm::Ppo)
        .map(PaperRow::to_paper_trial)
        .collect();
    let paper_name = format!("{name}_paper");
    let paper_title = format!("{} — paper-reported values", figure.title);
    let _ = emit_figure(&paper_name, &paper_title, &paper_trials, x, y, &opts);

    println!("{}", figure.title);
    println!("  measured Pareto front (solution ids): {front_ids:?}");
    println!("  paper's front:                        {:?}", figure.paper_front);
    if let Some(dir) = &opts.out_dir {
        println!("  artifacts: {}/{{{name}.svg,{name}.csv,{paper_name}.svg}}", dir.display());
    }
}
