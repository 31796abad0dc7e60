//! Single-node training loop driving PPO or SAC on any environment.
//!
//! This is the non-distributed baseline; the three framework-like
//! distributed drivers live in the `dist-exec` crate and reuse the same
//! learners. PPO collects as they do, through
//! [`collect_lockstep`], with the environment a width-1 [`VecEnv`].

use crate::collect::collect_lockstep;
use crate::eval::Greedy;
use crate::ppo::{PpoConfig, PpoLearner};
use crate::sac::{SacConfig, SacLearner};
use crate::Algorithm;
use gymrs::rollout::EpisodeStats;
use gymrs::{Environment, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What to train.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// PPO or SAC.
    pub algorithm: Algorithm,
    /// Total environment steps (the paper's study uses 200,000).
    pub total_steps: usize,
    /// PPO hyperparameters (used when `algorithm == Ppo`).
    pub ppo: PpoConfig,
    /// SAC hyperparameters (used when `algorithm == Sac`).
    pub sac: SacConfig,
    /// Master seed (environment, networks, exploration).
    pub seed: u64,
}

/// Final-evaluation settings.
#[derive(Debug, Clone, Copy)]
pub struct EvalSpec {
    /// Number of greedy evaluation episodes.
    pub episodes: usize,
    /// Hard per-episode step cap.
    pub max_steps: usize,
}

impl Default for EvalSpec {
    fn default() -> Self {
        Self { episodes: 10, max_steps: 10_000 }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean return of the greedy evaluation on the evaluation environment.
    pub eval_mean_return: f64,
    /// Environment steps executed.
    pub env_steps: u64,
    /// Returns of training episodes, in completion order.
    pub train_returns: Vec<f64>,
}

/// A trained policy wrapper for greedy evaluation.
pub enum TrainedPolicy<'a> {
    /// PPO policy.
    Ppo(&'a PpoLearner),
    /// SAC policy.
    Sac(&'a SacLearner),
}

impl TrainedPolicy<'_> {
    /// The greedy policy the evaluator runs.
    pub(crate) fn greedy(&self) -> Greedy<'_> {
        match self {
            TrainedPolicy::Ppo(l) => Greedy::Ppo(&l.policy),
            TrainedPolicy::Sac(l) => Greedy::Sac(l),
        }
    }
}

/// Evaluate a greedy policy on `env` (see [`crate::eval`]).
pub fn evaluate(
    policy: &TrainedPolicy<'_>,
    env: &mut dyn Environment,
    spec: &EvalSpec,
) -> EpisodeStats {
    let episodes: Vec<(f64, usize)> = policy
        .greedy()
        .episode_rewards(env, spec.episodes, spec.max_steps)
        .iter()
        .map(|steps| (steps.iter().fold(0.0, |ret, r| ret + r), steps.len()))
        .collect();
    EpisodeStats::from_episodes(&episodes)
}

/// Train on `env`, evaluate greedily on `eval_env`.
///
/// `eval_env` lets callers score the policy under different dynamics than
/// it trained on — the reproduction evaluates on the reference (order-8)
/// airdrop environment regardless of the training RK order (DESIGN.md §3).
pub fn train(
    env: &mut dyn Environment,
    eval_env: &mut dyn Environment,
    spec: &TrainSpec,
    eval: &EvalSpec,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    env.seed(spec.seed.wrapping_add(1));
    eval_env.seed(spec.seed.wrapping_add(2));
    let obs_dim = env.observation_space().dim();
    let aspace = env.action_space();

    let mut env_steps = 0u64;
    let mut train_returns = Vec::new();

    let stats = match spec.algorithm {
        Algorithm::Ppo => {
            let mut learner = PpoLearner::new(obs_dim, &aspace, spec.ppo.clone(), &mut rng);
            // The lane carries the observation and the open episode from
            // round to round, so an episode that spans rounds is logged
            // whole.
            let mut lane = VecEnv::new_preseeded(vec![env]);
            lane.reset_all();
            while (env_steps as usize) < spec.total_steps {
                let n = spec.ppo.n_steps.min(spec.total_steps - env_steps as usize);
                let out = collect_lockstep(&learner.policy, &mut lane, n, &mut rng);
                env_steps += n as u64;
                train_returns.extend(out.episodes.iter().map(|e| e.0));
                learner.update(&out.rollout, &mut rng);
            }
            evaluate(&TrainedPolicy::Ppo(&learner), eval_env, eval)
        }
        Algorithm::Sac => {
            let mut learner = SacLearner::new(obs_dim, &aspace, spec.sac.clone(), &mut rng);
            let (mut obs, mut ep_ret) = (env.reset(), 0.0);
            while (env_steps as usize) < spec.total_steps {
                let (_, finished) = learner.interact(env, &mut obs, &mut ep_ret, &mut rng);
                env_steps += 1;
                train_returns.extend(finished);
            }
            evaluate(&TrainedPolicy::Sac(&learner), eval_env, eval)
        }
    };
    TrainReport { eval_mean_return: stats.mean_return, env_steps, train_returns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::{GridWorld, PointMass};

    fn spec(algorithm: Algorithm, total_steps: usize, seed: u64) -> TrainSpec {
        let (ppo, sac) = (PpoConfig::fast_test(), SacConfig::fast_test());
        TrainSpec { algorithm, total_steps, ppo, sac, seed }
    }

    #[test]
    fn ppo_train_loop_produces_consistent_report() {
        let mut env = GridWorld::new(3);
        let mut eval_env = GridWorld::new(3);
        let spec = spec(Algorithm::Ppo, 1024, 3);
        let report = train(&mut env, &mut eval_env, &spec, &EvalSpec::default());
        assert_eq!(report.env_steps, 1024);
        assert!(report.eval_mean_return.is_finite());
    }

    #[test]
    fn sac_train_loop_produces_consistent_report() {
        let mut env = PointMass::new();
        let mut eval_env = PointMass::new();
        let mut spec = spec(Algorithm::Sac, 600, 5);
        spec.sac.start_steps = 100;
        let report =
            train(&mut env, &mut eval_env, &spec, &EvalSpec { episodes: 3, max_steps: 100 });
        assert_eq!(report.env_steps, 600);
        assert!(report.eval_mean_return.is_finite());
        assert!(!report.train_returns.is_empty());
    }

    #[test]
    fn seeded_training_is_reproducible() {
        let run = || {
            let mut env = GridWorld::new(3);
            let mut eval_env = GridWorld::new(3);
            let spec = spec(Algorithm::Ppo, 512, 9);
            train(&mut env, &mut eval_env, &spec, &EvalSpec { episodes: 3, max_steps: 200 })
        };
        let a = run();
        let b = run();
        assert_eq!(a.eval_mean_return, b.eval_mean_return);
        assert_eq!(a.train_returns, b.train_returns);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut env = GridWorld::new(3);
            let mut eval_env = GridWorld::new(3);
            let spec = spec(Algorithm::Ppo, 512, seed);
            train(&mut env, &mut eval_env, &spec, &EvalSpec { episodes: 3, max_steps: 200 })
        };
        assert_ne!(run(1).train_returns, run(2).train_returns);
    }
}
