//! Quickstart: the five-stage methodology on a synthetic case study.
//!
//! Builds a decision-analysis study in ~40 lines — parameter space,
//! Random Search, three metrics, Pareto-front ranking — and prints the
//! Table-I-style report plus the non-dominated solutions.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::decision::report;

fn main() -> Result<(), String> {
    // Stage (b): learning configurations. A toy version of the paper's
    // space: an accuracy knob, a parallelism knob and a batch size.
    let space = ParamSpace::builder()
        .kind(ParamKind::Environment)
        .categorical_int("accuracy_order", [3, 5, 8])
        .kind(ParamKind::System)
        .categorical_int("cores", [2, 4])
        .kind(ParamKind::Algorithm)
        .categorical_int("batch", [64, 128, 256])
        .build();

    // Stage (a)+(d): the case study and its metrics — here a synthetic
    // objective with the paper's couplings (higher order → better score
    // but more time; more cores → faster but more power).
    // Typed metric handles: the shared paper metrics come from
    // `metric_keys`, so ranking/report code can't drift from the
    // objective via a misspelled string.
    let study = Study::builder("quickstart")
        .space(space)
        .explorer(RandomSearch::new(18).without_duplicates()) // stage (c)
        .metric(MetricDef::maximize_key(metric_keys::REWARD))
        .metric(MetricDef::minimize_key(metric_keys::TIME_MIN))
        .metric(MetricDef::minimize_key(metric_keys::POWER_KJ))
        .seed(7)
        .objective(|cfg: &Configuration, _ctx: &mut TrialContext| {
            let order = cfg.int("accuracy_order").unwrap() as f64;
            let cores = cfg.int("cores").unwrap() as f64;
            let batch = cfg.int("batch").unwrap() as f64;
            let reward = -1.2 / order - 30.0 / batch * 0.01;
            let time = (40.0 + 4.0 * order) * (4.0 / cores).sqrt();
            let power = time * (10.0 + 8.0 * cores) * 60.0 / 1000.0;
            Ok(MetricValues::new()
                .with_key(metric_keys::REWARD, reward)
                .with_key(metric_keys::TIME_MIN, time)
                .with_key(metric_keys::POWER_KJ, power))
        })
        .build()?;

    // Run (sequentially here; `run_parallel(n)` runs waves of n trials at once).
    let trials = study.run()?;

    // Stage (e): rank.
    println!(
        "{}",
        report::table::render_table(
            &trials,
            &["accuracy_order", "cores", "batch"],
            &study.metrics(),
        )
    );

    let front = ParetoFront::compute(&trials, &study.metrics());
    println!("Non-dominated configurations (3-metric Pareto front):");
    for &i in front.indices() {
        println!(
            "  #{:<2} {}  ->  {:?}",
            i + 1,
            trials[i].config,
            trials[i].metrics.iter().collect::<Vec<_>>()
        );
    }

    // Alternative rankings.
    let fastest = SortedRanking::by(MetricDef::minimize_key(metric_keys::TIME_MIN)).best(&trials);
    println!("\nFastest solution: #{}", fastest.map(|i| i + 1).unwrap_or(0));
    let balanced = WeightedSum::new()
        .weight(MetricDef::maximize_key(metric_keys::REWARD), 0.5)
        .weight(MetricDef::minimize_key(metric_keys::TIME_MIN), 0.25)
        .weight(MetricDef::minimize_key(metric_keys::POWER_KJ), 0.25)
        .rank(&trials);
    println!("Balanced weighted-sum winner: #{}", balanced.first().map(|i| i + 1).unwrap_or(0));
    Ok(())
}
