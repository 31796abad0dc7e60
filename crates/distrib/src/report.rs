//! Backend training outcomes.

use cluster_sim::Usage;
use gymrs::Environment;
use rl_algos::policy::ActorCritic;
use rl_algos::sac::SacLearner;
use rl_algos::Greedy;

/// A trained model returned by a backend (evaluated later on the
/// reference environment by the study harness).
pub enum TrainedModel {
    /// PPO actor-critic (boxed: the nets dwarf the enum's other variant).
    Ppo(Box<ActorCritic>),
    /// SAC learner (kept whole: the greedy policy needs the actor net).
    Sac(Box<SacLearner>),
}

impl TrainedModel {
    /// The greedy policy the evaluator runs.
    pub fn greedy(&self) -> Greedy<'_> {
        match self {
            TrainedModel::Ppo(p) => Greedy::Ppo(p),
            TrainedModel::Sac(l) => Greedy::Sac(l),
        }
    }

    /// Evaluate the greedy policy: mean return over `episodes` episodes.
    pub fn evaluate(&self, env: &mut dyn Environment, episodes: usize, max_steps: usize) -> f64 {
        self.evaluate_episodes(env, episodes, max_steps).0
    }

    /// Evaluate the greedy policy (see [`rl_algos::eval`]), keeping the
    /// per-episode returns.
    ///
    /// Returns `(mean, per_episode_returns)`. The mean folds every step
    /// reward of every episode, in episode order, into one sum — the
    /// summation order of the one-episode-after-another loop — while the
    /// per-episode vector feeds the distribution-first metrics
    /// (dispersion, CVaR, bootstrap CIs).
    pub fn evaluate_episodes(
        &self,
        env: &mut dyn Environment,
        episodes: usize,
        max_steps: usize,
    ) -> (f64, Vec<f64>) {
        let rewards = self.greedy().episode_rewards(env, episodes, max_steps);
        let total = rewards.iter().flatten().fold(0.0, |sum, r| sum + r);
        let per_episode = rewards.iter().map(|steps| steps.iter().fold(0.0, |sum, r| sum + r));
        (total / episodes as f64, per_episode.collect())
    }
}

/// Everything a backend reports about one training execution.
pub struct ExecReport {
    /// The trained model.
    pub model: TrainedModel,
    /// Simulated resource usage (time, energy, traffic).
    pub usage: Usage,
    /// Environment steps actually executed.
    pub env_steps: u64,
    /// Environment work units consumed.
    pub env_work: u64,
    /// Learning FLOPs spent.
    pub learn_flops: u64,
    /// Returns of training episodes in completion order.
    pub train_returns: Vec<f64>,
    /// Gradient updates performed.
    pub updates: u64,
    /// True when the trial survived a worker quarantine: the numbers are
    /// real but came from a reduced worker set (DegradedResult).
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::GridWorld;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trained_model_evaluates_on_env() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let model = TrainedModel::Ppo(Box::new(policy));
        let mut env = GridWorld::new(3);
        env.seed(2);
        let r = model.evaluate(&mut env, 3, 50);
        assert!(r.is_finite());
    }

    #[test]
    fn evaluate_episodes_preserves_scalar_mean_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let model = TrainedModel::Ppo(Box::new(policy));
        let mut env = GridWorld::new(3);
        env.seed(2);
        let scalar = model.evaluate(&mut env, 3, 50);
        let mut env = GridWorld::new(3);
        env.seed(2);
        let (mean, eps) = model.evaluate_episodes(&mut env, 3, 50);
        assert_eq!(mean.to_bits(), scalar.to_bits(), "same stream, same sum order");
        assert_eq!(eps.len(), 3);
        assert!(eps.iter().all(|r| r.is_finite()));
    }
}
