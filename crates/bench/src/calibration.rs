//! Calibration of the cost model against Table I's anchored cells.
//!
//! ## Derivation (also summarized in EXPERIMENTS.md)
//!
//! Let `B` be the per-step framework overhead (work units), `E(o)` the
//! derivative evaluations one control step costs at RK order `o`
//! (≈ 6.5 / 13 / 43 for orders 3/5/8 with the simulator's two substeps),
//! `W` the number of parallel worker streams and `r` the per-core rate
//! (units/s). A 200,000-step training's collection time is
//!
//! ```text
//! T ≈ 200000 · (B + E(o)) / (W · r)
//! ```
//!
//! Anchors (RLlib, 8 streams): config 2 (order 3) = 46 min and config 8
//! (order 8) = 58 min give a raw `(B+43)/(B+6.5) = 1.26 ⇒ B ≈ 134` and
//! `r ≈ 1250 units/s/core`; folding in the learner/iteration/transfer
//! overheads the closed form omits (~4–5 simulated minutes at 200k
//! steps) nets `B = 118`, which lands the measured anchors on target.
//! Anchors 14/16 give Stable Baselines `B ≈ 55`; anchor 11 gives
//! TF-Agents `B ≈ 66`. The power constants (idle 10 W, 8 W per busy
//! core, γ = 0.9) reproduce config 2's 201 kJ (two nodes, ~81%
//! utilization) and config 11's 120 kJ (one node, ~96% utilization).
//!
//! This module provides the closed-form predictions so tests can check
//! that the *simulated* measurements stay close to them end-to-end.

use crate::paper::PaperRow;
use cluster_sim::{ClusterSpec, NodeSpec};
use rk_ode::RkOrder;
use rl_algos::Algorithm;

/// Derivative evaluations per control step (0.5 s interval, 0.25 s
/// substep, FSAL accounted) at each RK order.
pub fn evals_per_control_step(order: RkOrder) -> f64 {
    match order {
        // BS23: 4 evals first substep, 3 after (FSAL).
        RkOrder::Three => 6.5,
        // DOPRI5: 7 then 6.
        RkOrder::Five => 13.0,
        // GBS order 8: 21 per substep, no FSAL, plus the shared f0.
        RkOrder::Eight => 43.0,
    }
}

/// Closed-form predicted collection time (minutes) for a PPO row at the
/// paper's 200k-step budget. SAC rows add the replay-update term and are
/// predicted by [`predicted_minutes`] as well.
pub fn predicted_minutes(row: &PaperRow) -> f64 {
    let node = NodeSpec::default();
    let profile = row.framework.profile();
    let streams = (row.nodes * row.cores) as f64;
    let per_step = profile.per_step_overhead_units + evals_per_control_step(row.rk_order);
    let collect_s = 200_000.0 * per_step / (streams * node.units_per_sec_per_core);
    let learn_s = match row.algorithm {
        Algorithm::Ppo => {
            // ~600k flops per collected step (8 epochs, fwd+bwd, 2 nets).
            200_000.0 * 600_000.0
                / node.flops_per_unit
                / (profile.learner_streams as f64 * node.units_per_sec_per_core)
        }
        Algorithm::Sac => {
            // ~30M flops per env step (batch 256, 6 network passes).
            200_000.0 * 30_000_000.0
                / node.flops_per_unit
                / (profile.learner_streams as f64 * node.units_per_sec_per_core)
        }
    };
    (collect_s + learn_s) / 60.0
}

/// Predicted mean power (W) for a row, from the utilization profile.
pub(crate) fn predicted_mean_watts(row: &PaperRow) -> f64 {
    let node = NodeSpec::default();
    let spec = ClusterSpec::paper_testbed(row.nodes);
    // Collection runs at full stream utilization; the learner phase at
    // `learner_streams`. Weight the two phases by their predicted share.
    let profile = row.framework.profile();
    let streams = row.cores as f64; // per node
    let u_collect = (streams / node.cores as f64).min(1.0);
    let m = cluster_sim::PowerModel::new(node);
    let collect_w = row.nodes as f64 * (m.watts(u_collect * node.cores as f64) - node.idle_watts);
    let learn_w = (m.watts(profile.learner_streams as f64) - node.idle_watts).max(0.0);
    let learn_share = match row.algorithm {
        Algorithm::Ppo => 0.07,
        Algorithm::Sac => 0.6,
    };
    spec.total_idle_watts() + (1.0 - learn_share) * collect_w + learn_share * learn_w
}

/// Predicted energy (kJ) at the 200k-step budget.
pub fn predicted_kilojoules(row: &PaperRow) -> f64 {
    predicted_minutes(row) * 60.0 * predicted_mean_watts(row) / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE1;
    use dist_exec::Framework;

    fn row(id: usize) -> &'static PaperRow {
        PaperRow::by_id(id).unwrap()
    }

    #[test]
    fn eval_counts_order_correctly() {
        assert!(evals_per_control_step(RkOrder::Three) < evals_per_control_step(RkOrder::Five));
        assert!(evals_per_control_step(RkOrder::Five) < evals_per_control_step(RkOrder::Eight));
    }

    #[test]
    fn anchored_times_are_predicted_within_15_percent() {
        // The cells the calibration was fit to must be reproduced.
        for (id, tolerance) in [(2, 0.15), (8, 0.15), (14, 0.15), (16, 0.15), (11, 0.15)] {
            let r = row(id);
            let pred = predicted_minutes(r);
            let rel = (pred - r.time_min).abs() / r.time_min;
            assert!(
                rel < tolerance,
                "config {id}: predicted {pred:.1} min vs paper {:.1} min (rel {rel:.2})",
                r.time_min
            );
        }
    }

    #[test]
    fn two_nodes_predict_faster_than_one() {
        assert!(predicted_minutes(row(2)) < predicted_minutes(row(1)));
        assert!(predicted_minutes(row(8)) < predicted_minutes(row(7)));
    }

    #[test]
    fn sac_predicts_much_slower_than_ppo() {
        // Same framework/order/deployment, different algorithm.
        let sac = predicted_minutes(row(18));
        let ppo = predicted_minutes(row(16));
        assert!(sac > 2.5 * ppo, "SAC {sac:.0} min vs PPO {ppo:.0} min");
    }

    #[test]
    fn anchored_energies_are_predicted_within_30_percent() {
        for id in [2, 11] {
            let r = row(id);
            let pred = predicted_kilojoules(r);
            let rel = (pred - r.power_kj).abs() / r.power_kj;
            assert!(
                rel < 0.30,
                "config {id}: predicted {pred:.0} kJ vs paper {:.0} kJ",
                r.power_kj
            );
        }
    }

    #[test]
    fn config11_is_the_power_minimum_among_ppo_predictions() {
        let p11 = predicted_kilojoules(row(11));
        for r in TABLE1.iter().filter(|r| r.algorithm == Algorithm::Ppo && r.id != 11) {
            // Allow ties within 5% (fillers were back-computed).
            assert!(predicted_kilojoules(r) > p11 * 0.95, "config {} undercuts config 11", r.id);
        }
    }

    #[test]
    fn framework_profiles_expose_calibration() {
        assert!(Framework::RayRllib.profile().per_step_overhead_units > 100.0);
        assert!(Framework::RayRllib.profile().per_step_overhead_units < 134.0);
        assert!(Framework::StableBaselines.profile().per_step_overhead_units < 60.0);
    }
}
