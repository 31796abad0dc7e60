//! IMPALA-style learning: policy gradient with V-trace correction.
//!
//! §II-A: "IMPALA, a highly scalable agent introducing a new off-policy
//! algorithm called V-trace". [`OnPolicyLearner::impala`] — the
//! (V-trace, plain) setting of the one on-policy learner — consumes
//! rollouts collected by *stale* policy snapshots (the regime the
//! RLlib-like backend creates on two nodes) and corrects them with
//! `crate::vtrace::vtrace`, so throughput can scale without the reward
//! degradation the paper observes for naive distribution (§VI-D, configs
//! 7 vs 8). This module holds its hyperparameters.
//!
//! Approximation note: true IMPALA evaluates `V` with the learner's
//! critic; our rollout buffers store the behaviour snapshot's values
//! (they lack successor observations). The snapshots are at most a few
//! updates stale, and the ρ/c importance corrections — which address the
//! *policy* mismatch, the dominant error source — are exact.
//!
//! [`OnPolicyLearner::impala`]: crate::on_policy::OnPolicyLearner::impala

/// IMPALA hyperparameters.
#[derive(Debug, Clone)]
pub struct ImpalaConfig {
    /// Learning rate.
    pub lr: f64,
    /// Discount γ.
    pub gamma: f64,
    /// V-trace ρ̄ clip.
    pub rho_clip: f64,
    /// V-trace c̄ clip.
    pub c_clip: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden sizes.
    pub hidden: Vec<usize>,
    /// Steps per update batch.
    pub n_steps: usize,
}

impl Default for ImpalaConfig {
    fn default() -> Self {
        Self {
            lr: 6e-4,
            gamma: 0.99,
            rho_clip: 1.0,
            c_clip: 1.0,
            ent_coef: 0.01,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
            n_steps: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::RolloutBuffer;
    use crate::collect::collect_steps;
    use crate::on_policy::OnPolicyLearner;
    use crate::policy::ActorCritic;
    use gymrs::envs::GridWorld;
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Collect with a behaviour snapshot; returns the rollout and the
    /// returns of the episodes it finished.
    fn collect(
        behaviour: &ActorCritic,
        env: &mut GridWorld,
        obs: &mut Vec<f64>,
        n: usize,
        rng: &mut StdRng,
    ) -> (RolloutBuffer, Vec<f64>) {
        let out = collect_steps(behaviour, env, obs, n, rng);
        (out.rollout, out.episodes.iter().map(|e| e.0).collect())
    }

    fn learner(env: &GridWorld, cfg: ImpalaConfig, rng: &mut StdRng) -> OnPolicyLearner {
        OnPolicyLearner::impala(2, &env.action_space(), cfg, rng)
    }

    #[test]
    fn impala_learns_grid_world_with_stale_actors() {
        // The defining property: the *behaviour* policy lags the learner
        // by several updates (as remote IMPALA actors do), and learning
        // still works thanks to the V-trace correction.
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = GridWorld::new(3);
        env.seed(3);
        let cfg = ImpalaConfig { hidden: vec![32, 32], n_steps: 128, ..ImpalaConfig::default() };
        let mut learner = learner(&env, cfg, &mut rng);
        let mut behaviour = learner.policy.clone();
        let mut obs = env.reset();
        let mut recent = Vec::new();
        for iter in 0..120 {
            // Actors refresh their snapshot only every 4 iterations.
            if iter % 4 == 0 {
                behaviour.copy_params_from(&learner.policy);
            }
            let (rollout, rets) = collect(&behaviour, &mut env, &mut obs, 128, &mut rng);
            recent.extend(rets);
            let stats = learner.update(&rollout, &mut rng);
            assert!(stats.value_loss.is_finite());
            assert!((0.0..=1.0 + 1e-9).contains(&stats.mean_rho));
        }
        let tail = &recent[recent.len().saturating_sub(15)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean > 0.3, "stale-actor IMPALA should still learn: {mean}");
        assert!(!learner.policy.actor.has_non_finite());
    }

    #[test]
    fn on_policy_rho_is_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = GridWorld::new(3);
        env.seed(5);
        let cfg = ImpalaConfig { hidden: vec![16], ..ImpalaConfig::default() };
        let mut learner = learner(&env, cfg, &mut rng);
        let behaviour = learner.policy.clone();
        let mut obs = env.reset();
        let (rollout, _) = collect(&behaviour, &mut env, &mut obs, 64, &mut rng);
        let stats = learner.update(&rollout, &mut rng);
        assert!(
            (stats.mean_rho - 1.0).abs() < 1e-9,
            "fresh snapshot => on-policy => mean rho 1, got {}",
            stats.mean_rho
        );
    }

    #[test]
    fn stale_rollouts_reduce_mean_rho() {
        // After the learner moves away from the behaviour snapshot, the
        // clipped importance weights drop below 1 on average.
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = GridWorld::new(3);
        env.seed(7);
        let cfg = ImpalaConfig { hidden: vec![16], n_steps: 64, ..ImpalaConfig::default() };
        let mut learner = learner(&env, cfg, &mut rng);
        let behaviour = learner.policy.clone();
        let mut obs = env.reset();
        // Several updates with fresh data move the learner away.
        for _ in 0..10 {
            let (rollout, _) = collect(&learner.policy.clone(), &mut env, &mut obs, 64, &mut rng);
            learner.update(&rollout, &mut rng);
        }
        let (stale, _) = collect(&behaviour, &mut env, &mut obs, 64, &mut rng);
        let stats = learner.update(&stale, &mut rng);
        assert!(stats.mean_rho < 1.0, "stale data must clip: {}", stats.mean_rho);
    }
}
