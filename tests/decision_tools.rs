//! Integration tests of the decision-analysis toolchain on the paper's
//! Table I data (no training — these exercise the methodology crate the
//! way the §IV-C scenarios and the §VI figures use it).

use bench::paper::{PaperRow, TABLE1};
use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::decision::rank::Hypervolume;
use rl_decision_tools::decision::report;

fn paper_trials() -> Vec<Trial> {
    TABLE1.iter().map(PaperRow::to_paper_trial).collect()
}

fn paper_metrics() -> Vec<MetricDef> {
    vec![
        MetricDef::maximize("reward"),
        MetricDef::minimize("time_min"),
        MetricDef::minimize("power_kj"),
    ]
}

#[test]
fn battery_scenario_changes_the_recommendation() {
    // §IV-C: "power consumption is an important metric for constrained
    // devices". With a 150 kJ budget, the best-reward recommendation
    // moves from config 16 to config 14.
    let trials = paper_trials();
    let unconstrained = SortedRanking::by(MetricDef::maximize("reward")).best(&trials);
    assert_eq!(trials[unconstrained.unwrap()].config.int("draw"), Some(16));

    let feasible: Vec<Trial> = trials
        .iter()
        .filter(|t| t.metrics.get("power_kj").is_some_and(|p| p <= 150.0))
        .cloned()
        .collect();
    let constrained = SortedRanking::by(MetricDef::maximize("reward")).best(&feasible);
    assert_eq!(feasible[constrained.unwrap()].config.int("draw"), Some(14));
}

#[test]
fn contested_cluster_scenario_pins_two_cores() {
    // §IV-C: "the processing units a disputed resource" — only 2 cores
    // free. The feasible set is exactly the 2-core rows, and the best
    // reward among them is config 14.
    let trials = paper_trials();
    let feasible: Vec<Trial> =
        trials.iter().filter(|t| t.config.int("cores").is_some_and(|c| c <= 2)).cloned().collect();
    assert!(feasible.iter().all(|t| t.config.int("cores") == Some(2)));
    assert_eq!(feasible.len(), 3, "rows 10, 14, 17");
    let best = SortedRanking::by(MetricDef::maximize("reward")).best(&feasible).unwrap();
    assert_eq!(feasible[best].config.int("draw"), Some(14));
}

#[test]
fn weighted_sum_and_pareto_agree_on_strong_winners() {
    // Any weighted-sum winner must lie on the Pareto front (a classic
    // scalarization property for positive weights).
    let trials: Vec<Trial> =
        paper_trials().into_iter().filter(|t| t.config.str("algorithm") == Some("PPO")).collect();
    let metrics = paper_metrics();
    let front = ParetoFront::compute(&trials, &metrics);
    for (wr, wt, wp) in [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6), (1.0, 1.0, 1.0)] {
        let winner = WeightedSum::new()
            .weight(MetricDef::maximize("reward"), wr)
            .weight(MetricDef::minimize("time_min"), wt)
            .weight(MetricDef::minimize("power_kj"), wp)
            .rank(&trials)[0];
        assert!(
            front.contains(winner),
            "weighted winner {} (w=({wr},{wt},{wp})) must be Pareto-optimal",
            trials[winner].config.int("draw").unwrap()
        );
    }
}

#[test]
fn hypervolume_ranks_the_three_figures_consistently() {
    // The reward/time front must dominate more volume than any single
    // point in it contributes alone.
    let trials = paper_trials();
    let mx = MetricDef::maximize("reward");
    let my = MetricDef::minimize("time_min");
    let measure = Hypervolume::new(mx, my, (-3.0, 400.0));
    let all = measure.value(&trials);
    for id in [2usize, 5, 11, 16] {
        let single: Vec<Trial> =
            trials.iter().filter(|t| t.config.int("draw") == Some(id as i64)).cloned().collect();
        let hv = measure.value(&single);
        assert!(hv < all, "config {id} alone cannot dominate the full front");
    }
}

#[test]
fn reports_render_the_full_table() {
    let trials = paper_trials();
    let params = ["draw", "rk_order", "framework", "algorithm", "nodes", "cores"];
    let metrics = paper_metrics();
    let ascii = report::table::render_table(&trials, &params, &metrics);
    assert_eq!(ascii.lines().count(), 18 + 4, "18 rows + 3 rules + header");
    let csv = report::csv::trials_to_csv(&trials, &params, &metrics);
    assert_eq!(csv.lines().count(), 19);
    let front = ParetoFront::compute(&trials, &metrics);
    let md = report::markdown::trials_to_markdown(&trials, &params, &metrics, Some(&front));
    assert_eq!(md.lines().count(), 20, "header + separator + 18 rows");
}
