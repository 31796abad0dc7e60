//! V-trace off-policy correction (Espeholt et al., 2018 — IMPALA).
//!
//! §II-A of the paper cites IMPALA as one of the distributed-RL
//! architectures that separate acting from learning; V-trace is the
//! mechanism that lets a central learner consume trajectories collected
//! by *stale* behaviour policies — exactly the staleness our RLlib-like
//! backend introduces on two nodes. [`crate::on_policy::OnPolicyLearner`]
//! takes its targets from this module in its IMPALA-style setting, which
//! `dist_exec::train_impala` trains.
//!
//! Given behaviour log-probs `μ(a|s)`, target log-probs `π(a|s)`, rewards
//! and values, V-trace computes corrected value targets
//!
//! ```text
//! v_t = V(s_t) + Σ_{k≥t} γ^{k-t} (Π_{i=t}^{k-1} c_i) ρ_k δ_k
//! δ_k = ρ_k (r_k + γ V(s_{k+1}) - V(s_k))
//! ρ_k = min(ρ̄, π/μ),  c_i = min(c̄, π/μ)
//! ```
//!
//! and policy-gradient advantages `ρ_t (r_t + γ v_{t+1} - V(s_t))`.
//!
//! The input layout follows [`crate::gae::gae`]: `next_values[t]` is the
//! critic value of step `t`'s successor (0 when terminated), and `dones`
//! cuts the trace at segment/episode boundaries, so concatenated worker
//! segments are handled exactly like the GAE path.

use simd_kernels::mathf64::exp;

/// Clipping thresholds (the IMPALA paper's defaults are both 1.0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VtraceConfig {
    /// Discount γ.
    pub(crate) gamma: f64,
    /// Importance-weight clip ρ̄ (controls the fixed point).
    pub(crate) rho_clip: f64,
    /// Trace-cut clip c̄ (controls contraction speed).
    pub(crate) c_clip: f64,
}

impl Default for VtraceConfig {
    fn default() -> Self {
        Self { gamma: 0.99, rho_clip: 1.0, c_clip: 1.0 }
    }
}

/// V-trace outputs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VtraceResult {
    /// Corrected value targets `v_t` (length n).
    pub(crate) vs: Vec<f64>,
    /// Policy-gradient advantages `ρ_t (r_t + γ v_{t+1} - V(s_t))`.
    pub(crate) pg_advantages: Vec<f64>,
    /// The clipped ρ weights actually used.
    pub(crate) rhos: Vec<f64>,
}

/// Compute V-trace targets for (possibly concatenated) trajectory
/// segments.
///
/// * `behaviour_log_probs[t]` — `log μ(a_t|s_t)` recorded at collection;
/// * `target_log_probs[t]` — `log π(a_t|s_t)` under the learner policy;
/// * `rewards[t]`, `values[t] = V(s_t)` — as in GAE;
/// * `next_values[t]` — `V(s_{t+1})` (0 where the episode terminated;
///   the stored bootstrap for truncated/segment tails);
/// * `dones[t]` — cut the trace after step `t` (episode or segment end).
pub(crate) fn vtrace(
    behaviour_log_probs: &[f64],
    target_log_probs: &[f64],
    rewards: &[f64],
    values: &[f64],
    next_values: &[f64],
    dones: &[bool],
    cfg: &VtraceConfig,
) -> VtraceResult {
    let n = rewards.len();
    assert_eq!(behaviour_log_probs.len(), n);
    assert_eq!(target_log_probs.len(), n);
    assert_eq!(values.len(), n);
    assert_eq!(next_values.len(), n);
    assert_eq!(dones.len(), n);

    let mut rhos = Vec::with_capacity(n);
    let mut cs = Vec::with_capacity(n);
    for t in 0..n {
        let ratio = exp(target_log_probs[t] - behaviour_log_probs[t]);
        rhos.push(ratio.min(cfg.rho_clip));
        cs.push(ratio.min(cfg.c_clip));
    }

    // Backward recursion: A_t = δ_t + γ c_t A_{t+1} (trace cut at dones),
    // v_t = V(s_t) + A_t. The bootstrap lives inside next_values, so the
    // recursion is uniform.
    let mut vs = vec![0.0; n];
    let mut acc = 0.0;
    for t in (0..n).rev() {
        let not_done = if dones[t] { 0.0 } else { 1.0 };
        let delta = rhos[t] * (rewards[t] + cfg.gamma * next_values[t] - values[t]);
        acc = delta + cfg.gamma * cs[t] * not_done * acc;
        vs[t] = values[t] + acc;
    }

    // Advantages use the corrected v_{t+1} where the trajectory
    // continues, and the stored bootstrap where it does not.
    let mut pg = Vec::with_capacity(n);
    for t in 0..n {
        let next_v = if !dones[t] && t + 1 < n { vs[t + 1] } else { next_values[t] };
        pg.push(rhos[t] * (rewards[t] + cfg.gamma * next_v - values[t]));
    }

    VtraceResult { vs, pg_advantages: pg, rhos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gae::gae;

    #[test]
    fn on_policy_vtrace_reduces_to_gae_lambda_one() {
        // With π = μ (ratios exactly 1, below both clips) V-trace value
        // targets equal GAE(λ=1) returns.
        let lp = vec![-0.5, -1.0, -0.2, -0.7];
        let rewards = vec![1.0, -0.5, 0.3, 0.8];
        let values = vec![0.2, 0.4, -0.1, 0.3];
        let dones = vec![false, false, false, false];
        let next_values = vec![0.4, -0.1, 0.3, 0.25];
        let res =
            vtrace(&lp, &lp, &rewards, &values, &next_values, &dones, &VtraceConfig::default());
        let (_, rets) = gae(&rewards, &values, &dones, &next_values, 0.99, 1.0);
        for (t, (v, ret)) in res.vs.iter().zip(&rets).enumerate() {
            assert!((v - ret).abs() < 1e-12, "v[{t}]: {v} vs {ret}");
        }
        assert!(res.rhos.iter().all(|&r| (r - 1.0).abs() < 1e-12));
    }

    #[test]
    fn clipping_caps_large_ratios() {
        let res = vtrace(
            &[-5.0], // very unlikely under μ
            &[-0.1], // likely under π: ratio e^{4.9} >> 1
            &[1.0],
            &[0.0],
            &[0.0],
            &[true],
            &VtraceConfig::default(),
        );
        assert_eq!(res.rhos[0], 1.0, "ratio must clip at rho_clip");
        assert!((res.vs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_ratio_discounts_the_correction() {
        let res =
            vtrace(&[-0.1], &[-5.0], &[1.0], &[0.0], &[0.0], &[true], &VtraceConfig::default());
        assert!(res.rhos[0] < 0.01);
        assert!(res.vs[0].abs() < 0.01);
    }

    #[test]
    fn dones_cut_the_trace() {
        let lp = vec![0.0, 0.0];
        let res = vtrace(
            &lp,
            &lp,
            &[0.0, 100.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[true, true],
            &VtraceConfig::default(),
        );
        assert_eq!(res.vs[0], 0.0, "future reward must not leak through a done");
        assert_eq!(res.vs[1], 100.0);
        assert_eq!(res.pg_advantages[0], 0.0);
    }

    #[test]
    fn segment_tails_bootstrap_from_next_values() {
        // A truncated tail (done=true, nonzero stored bootstrap) must use
        // the bootstrap, exactly like the GAE path.
        let lp = vec![0.0];
        let res = vtrace(
            &lp,
            &lp,
            &[1.0],
            &[0.0],
            &[2.0],
            &[true],
            &VtraceConfig { gamma: 0.5, ..Default::default() },
        );
        assert!((res.vs[0] - (1.0 + 0.5 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn vtrace_targets_are_finite_for_mixed_segments() {
        let n = 64;
        let behaviour: Vec<f64> = (0..n).map(|i| -0.3 - 0.01 * (i % 7) as f64).collect();
        let target: Vec<f64> = (0..n).map(|i| -0.4 + 0.02 * (i % 5) as f64).collect();
        let rewards: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 / 11.0 - 0.5).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
        let dones: Vec<bool> = (0..n).map(|i| i % 17 == 16).collect();
        let next_values: Vec<f64> =
            (0..n).map(|i| if dones[i] { 0.0 } else { values[(i + 1) % n] }).collect();
        let res = vtrace(
            &behaviour,
            &target,
            &rewards,
            &values,
            &next_values,
            &dones,
            &VtraceConfig::default(),
        );
        assert!(res.vs.iter().all(|v| v.is_finite()));
        assert!(res.pg_advantages.iter().all(|v| v.is_finite()));
        assert!(res.rhos.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn rho_clip_controls_the_fixed_point() {
        let behaviour = vec![-2.0; 4];
        let target = vec![-0.5; 4]; // ratio e^{1.5} ≈ 4.48
        let rewards = vec![1.0; 4];
        let values = vec![0.0; 4];
        let next_values = vec![0.0; 4];
        let dones = vec![false; 4];
        let loose = vtrace(
            &behaviour,
            &target,
            &rewards,
            &values,
            &next_values,
            &dones,
            &VtraceConfig { rho_clip: 5.0, c_clip: 1.0, gamma: 0.99 },
        );
        let tight = vtrace(
            &behaviour,
            &target,
            &rewards,
            &values,
            &next_values,
            &dones,
            &VtraceConfig { rho_clip: 0.5, c_clip: 1.0, gamma: 0.99 },
        );
        assert!(loose.vs[0] > tight.vs[0], "{} vs {}", loose.vs[0], tight.vs[0]);
    }

    #[test]
    fn concatenated_segments_match_separate_computation() {
        // V-trace over two segments concatenated with done-marked tails
        // must equal per-segment V-trace (the merge invariant the
        // distributed learner relies on).
        let cfg = VtraceConfig::default();
        let seg = |off: f64| {
            let lp_b = vec![-0.6 + off * 0.01, -0.8, -0.4];
            let lp_t = vec![-0.5, -0.7 - off * 0.02, -0.5];
            let rewards = vec![0.5 + off, -0.2, 0.9];
            let values = vec![0.1, 0.2, 0.3];
            let next_values = vec![0.2, 0.3, 0.15]; // tail bootstraps 0.15
            let dones = vec![false, false, true];
            (lp_b, lp_t, rewards, values, next_values, dones)
        };
        let (b1, t1, r1, v1, nv1, d1) = seg(0.0);
        let (b2, t2, r2, v2, nv2, d2) = seg(1.0);
        let res1 = vtrace(&b1, &t1, &r1, &v1, &nv1, &d1, &cfg);
        let res2 = vtrace(&b2, &t2, &r2, &v2, &nv2, &d2, &cfg);

        let cat = |a: &[f64], b: &[f64]| [a, b].concat();
        let dcat = [d1.clone(), d2.clone()].concat();
        let merged = vtrace(
            &cat(&b1, &b2),
            &cat(&t1, &t2),
            &cat(&r1, &r2),
            &cat(&v1, &v2),
            &cat(&nv1, &nv2),
            &dcat,
            &cfg,
        );
        for (i, want) in res1.vs.iter().chain(res2.vs.iter()).enumerate() {
            assert!((merged.vs[i] - want).abs() < 1e-12, "vs[{i}]");
        }
        for (i, want) in res1.pg_advantages.iter().chain(res2.pg_advantages.iter()).enumerate() {
            assert!((merged.pg_advantages[i] - want).abs() < 1e-12, "pg[{i}]");
        }
    }
}
