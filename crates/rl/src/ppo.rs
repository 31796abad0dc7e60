//! Proximal Policy Optimization (clipped surrogate objective).
//!
//! The on-policy algorithm of the paper's study. The semantics are the
//! reference ones shared by Stable Baselines, RLlib and TF-Agents: GAE-λ
//! advantages, ratio clipping, minibatched epochs over the rollout,
//! entropy bonus and a separate value network, advantages normalised per
//! batch. [`crate::on_policy::OnPolicyLearner`] is the learner; this
//! module holds its hyperparameters.

use crate::on_policy::OnPolicyLearner;

/// PPO hyperparameters (defaults follow the frameworks' shared defaults).
#[derive(Debug, Clone)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clip range ε.
    pub clip: f64,
    /// Optimisation epochs per rollout.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden layer sizes of actor and critic.
    pub hidden: Vec<usize>,
    /// Rollout horizon (steps collected per update, per environment).
    pub n_steps: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            lr: 3e-4,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            epochs: 10,
            minibatch: 64,
            ent_coef: 0.0,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
            n_steps: 2048,
        }
    }
}

impl PpoConfig {
    /// A small/fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self { hidden: vec![32, 32], n_steps: 256, epochs: 6, minibatch: 64, ..Self::default() }
    }
}

/// The PPO learner: [`OnPolicyLearner::new`] takes a [`PpoConfig`].
pub type PpoLearner = OnPolicyLearner;

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::{GridWorld, PointMass};
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eval_greedy(learner: &PpoLearner, env: &mut dyn Environment, episodes: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..episodes {
            let mut obs = env.reset();
            loop {
                let s = env.step(&learner.policy.act_greedy(&obs));
                total += s.reward;
                let done = s.done();
                obs = s.obs;
                if done {
                    break;
                }
            }
        }
        total / episodes as f64
    }

    fn train_on<E: Environment>(
        env: &mut E,
        cfg: PpoConfig,
        iters: usize,
        seed: u64,
    ) -> PpoLearner {
        let mut rng = StdRng::seed_from_u64(seed);
        env.seed(seed);
        let obs_dim = env.observation_space().dim();
        let aspace = env.action_space();
        let mut learner = PpoLearner::new(obs_dim, &aspace, cfg, &mut rng);
        let mut obs = env.reset();
        for _ in 0..iters {
            let out = learner.collect(env, &mut obs, learner.n_steps(), &mut rng);
            learner.update(&out.rollout, &mut rng);
        }
        learner
    }

    #[test]
    fn ppo_learns_grid_world() {
        let mut env = GridWorld::new(4);
        let cfg = PpoConfig { ent_coef: 0.01, ..PpoConfig::fast_test() };
        let learner = train_on(&mut env, cfg, 35, 7);
        // Evaluate the stochastic policy (the greedy argmax of a still-
        // entropic policy can deadlock against a wall; sampling is what
        // training-time returns measure).
        let mut rng = StdRng::seed_from_u64(100);
        let mut total = 0.0;
        let episodes = 20;
        for _ in 0..episodes {
            let mut obs = env.reset();
            loop {
                let (a, _, _) = learner.policy.act(&obs, &mut rng);
                let s = env.step(&a);
                total += s.reward;
                let done = s.done();
                obs = s.obs;
                if done {
                    break;
                }
            }
        }
        let score = total / episodes as f64;
        // Optimal is 0.8; a random policy scores far below 0.
        assert!(score > 0.4, "sampled return {score} should be near-optimal");
    }

    #[test]
    fn ppo_learns_point_mass() {
        let mut env = PointMass::new();
        let cfg = PpoConfig { n_steps: 512, ..PpoConfig::fast_test() };
        let mut learner = train_on(&mut env, cfg, 25, 11);
        let score = eval_greedy(&learner, &mut env, 10);
        // An idle policy scores around -1.5 .. -2.5 (drift); a trained one
        // must decisively beat it.
        assert!(score > -0.9, "greedy return {score} too low");
        let _ = &mut learner;
    }

    #[test]
    fn update_improves_surrogate_on_fixed_batch() {
        // The clipped objective on the same batch must not get worse after
        // an update (sanity of gradient signs).
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = PointMass::new();
        env.seed(3);
        let mut learner = PpoLearner::new(4, &env.action_space(), PpoConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 256, &mut rng);
        let stats1 = learner.update(&out.rollout, &mut rng);
        // Re-evaluate the surrogate on the same data with the new policy:
        // the ratios should have moved toward higher-advantage actions, so
        // approximate KL should be positive and finite.
        assert!(stats1.approx_kl.abs() < 0.5, "KL exploded: {}", stats1.approx_kl);
        assert!(stats1.value_loss.is_finite());
        assert!(!learner.policy.actor.has_non_finite());
    }

    #[test]
    fn collect_handles_episode_boundaries() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = GridWorld::new(3);
        env.seed(5);
        let mut learner = PpoLearner::new(2, &env.action_space(), PpoConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 300, &mut rng);
        assert_eq!(out.rollout.len(), 300);
        assert!(!out.episodes.is_empty(), "300 steps must finish some episodes");
        // Terminated steps must have zero bootstrap value.
        for (i, &term) in out.rollout.terminateds.iter().enumerate() {
            if term {
                assert_eq!(out.rollout.next_values[i], 0.0);
            }
        }
        assert_eq!(out.env_work, 300, "grid world costs 1 unit per step");
    }

    #[test]
    fn log_std_stays_in_clamp_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = PointMass::new();
        env.seed(9);
        let mut learner = PpoLearner::new(
            4,
            &env.action_space(),
            PpoConfig { lr: 0.05, ..PpoConfig::fast_test() },
            &mut rng,
        );
        let mut obs = env.reset();
        for _ in 0..5 {
            let out = learner.collect(&mut env, &mut obs, 128, &mut rng);
            learner.update(&out.rollout, &mut rng);
        }
        for &ls in &learner.policy.log_std {
            assert!((-4.0..=1.0).contains(&ls), "log_std out of range: {ls}");
        }
    }
}
