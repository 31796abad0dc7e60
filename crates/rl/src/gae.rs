//! Generalized Advantage Estimation (Schulman et al., 2016).

/// Compute GAE advantages and value targets.
///
/// Inputs are aligned per time step `t`:
/// * `rewards[t]` — reward received after the action at `t`;
/// * `values[t]` — critic value of the state at `t`;
/// * `next_values[t]` — critic value of the successor state of step `t`:
///   0 where the episode *terminated*, the stored bootstrap `V(s′)` where
///   it was truncated or a worker segment was closed. This is what cuts
///   the bootstrap;
/// * `dones[t]` — the trajectory stops after step `t` (termination,
///   truncation, or the closed tail of a concatenated segment). It cuts
///   only the λ-chain, so a cut-off is never scored as a termination.
///
/// Returns `(advantages, returns)` with `returns[t] = adv[t] + values[t]`.
///
/// ```
/// use rl_algos::gae::gae;
/// let (adv, ret) = gae(&[1.0], &[0.4], &[true], &[0.0], 0.99, 0.95);
/// assert!((adv[0] - 0.6).abs() < 1e-12);
/// assert!((ret[0] - 1.0).abs() < 1e-12);
/// ```
pub fn gae(
    rewards: &[f64],
    values: &[f64],
    dones: &[bool],
    next_values: &[f64],
    gamma: f64,
    lambda: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = rewards.len();
    assert_eq!(values.len(), n);
    assert_eq!(dones.len(), n);
    assert_eq!(next_values.len(), n);
    let mut adv = vec![0.0; n];
    let mut running = 0.0;
    for t in (0..n).rev() {
        let not_done = if dones[t] { 0.0 } else { 1.0 };
        let delta = rewards[t] + gamma * next_values[t] - values[t];
        running = delta + gamma * lambda * not_done * running;
        adv[t] = running;
    }
    let rets = adv.iter().zip(values).map(|(a, v)| a + v).collect();
    (adv, rets)
}

/// Normalize advantages to zero mean / unit variance (PPO batch trick).
pub(crate) fn normalize(adv: &mut [f64]) {
    if adv.len() < 2 {
        return;
    }
    let n = adv.len() as f64;
    let mean = adv.iter().sum::<f64>() / n;
    let var = adv.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt().max(1e-8);
    for a in adv {
        *a = (*a - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_step_episode_advantage_is_td_error() {
        let (adv, ret) = gae(&[1.0], &[0.3], &[true], &[0.0], 0.99, 0.95);
        assert!((adv[0] - (1.0 - 0.3)).abs() < 1e-12);
        assert!((ret[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_step_bootstraps_from_its_stored_value() {
        // `done` with a non-zero bootstrap is a cut-off, not a
        // termination: the TD error keeps γ·V(s′).
        let (adv, _) = gae(&[1.0], &[0.3], &[true], &[0.4], 0.9, 0.95);
        assert!((adv[0] - (1.0 + 0.9 * 0.4 - 0.3)).abs() < 1e-12);
    }

    #[test]
    fn lambda_one_returns_are_discounted_sums_across_a_closed_tail() {
        // Two concatenated worker segments; the first tail is closed
        // mid-episode with its bootstrap kept, the second terminates.
        let rewards = [1.0, -0.5, 0.3, 0.8];
        let values = [0.5, 0.2, -0.1, 0.4];
        let next_values = [0.2, 0.7, 0.4, 0.0];
        let dones = [false, true, false, true];
        let (_, returns) = gae(&rewards, &values, &dones, &next_values, 0.9, 1.0);
        // Each segment's discounted reward sum, plus γ^k · V(s′) of its
        // closed tail (the terminated one bootstraps nothing).
        let want = [1.0 + 0.9 * -0.5 + 0.9 * 0.9 * 0.7, -0.5 + 0.9 * 0.7, 0.3 + 0.9 * 0.8, 0.8];
        for (r, w) in returns.iter().zip(want) {
            assert!((r - w).abs() < 1e-12, "{r} vs {w}");
        }
    }

    #[test]
    fn lambda_one_gives_monte_carlo_advantage() {
        // With λ=1 and an episode ending at T, adv[0] = Σ γ^k r_k - v[0].
        let rewards = [1.0, 1.0, 1.0];
        let values = [0.5, 0.4, 0.3];
        let dones = [false, false, true];
        let next_values = [0.4, 0.3, 0.0];
        let gamma = 0.9;
        let (adv, _) = gae(&rewards, &values, &dones, &next_values, gamma, 1.0);
        let mc = 1.0 + gamma * 1.0 + gamma * gamma * 1.0;
        assert!((adv[0] - (mc - 0.5)).abs() < 1e-12, "{} vs {}", adv[0], mc - 0.5);
    }

    #[test]
    fn lambda_zero_gives_one_step_td() {
        let rewards = [0.0, 2.0];
        let values = [1.0, 1.5];
        let dones = [false, true];
        let next_values = [1.5, 0.0];
        let gamma = 0.9;
        let (adv, _) = gae(&rewards, &values, &dones, &next_values, gamma, 0.0);
        assert!((adv[0] - (0.0 + 0.9 * 1.5 - 1.0)).abs() < 1e-12);
        assert!((adv[1] - (2.0 - 1.5)).abs() < 1e-12);
    }

    #[test]
    fn done_cuts_credit_assignment() {
        // Reward after the done must not leak backwards.
        let rewards = [0.0, 100.0];
        let values = [0.0, 0.0];
        let dones = [true, true];
        let next_values = [0.0, 0.0];
        let (adv, _) = gae(&rewards, &values, &dones, &next_values, 0.99, 0.95);
        assert_eq!(adv[0], 0.0, "future reward must not leak through a done");
        assert_eq!(adv[1], 100.0);
    }

    #[test]
    fn returns_equal_advantage_plus_value() {
        let rewards = [0.1, -0.2, 0.3, 0.0];
        let values = [1.0, 2.0, 3.0, 4.0];
        let dones = [false, false, false, false];
        let next_values = [2.0, 3.0, 4.0, 5.0];
        let (adv, ret) = gae(&rewards, &values, &dones, &next_values, 0.99, 0.95);
        for t in 0..4 {
            assert!((ret[t] - (adv[t] + values[t])).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_produces_zero_mean_unit_std() {
        let mut adv = vec![1.0, 2.0, 3.0, 4.0, 10.0];
        normalize(&mut adv);
        let mean = adv.iter().sum::<f64>() / adv.len() as f64;
        let var = adv.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / adv.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_is_noop_for_singletons() {
        let mut adv = vec![5.0];
        normalize(&mut adv);
        assert_eq!(adv, vec![5.0]);
    }
}
