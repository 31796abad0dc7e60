//! # rl-algos — PPO and SAC from scratch
//!
//! The two learning algorithms of the paper's study (§V-b): Proximal
//! Policy Optimization (Schulman et al., 2017) and Soft Actor-Critic
//! (Haarnoja et al., 2018), implemented on the `tinynn` substrate against
//! `gymrs` environments.
//!
//! Layout:
//!
//! * [`gae`] — generalized advantage estimation;
//! * [`buffer`] — on-policy rollout storage and the off-policy replay
//!   ring buffer;
//! * [`collect`] — the lockstep collection loop over vectorized envs (one
//!   actor/critic forward per tick, however many sub-envs), the single-node
//!   paths' too at width 1;
//! * [`eval`] — greedy evaluation, every episode a lane of a lockstep
//!   batch split over two threads;
//! * [`policy`] — actor-critic policy heads (categorical / diagonal
//!   Gaussian) shared by the trainers;
//! * [`on_policy`] — the on-policy actor-critic learner: GAE-λ targets
//!   and the clipped surrogate over shuffled minibatch epochs;
//! * [`ppo`] — its hyperparameters;
//! * [`sac`] — twin-critic SAC with automatic entropy temperature; critic
//!   2's passes and the actor's pass over s′ run on the process's one
//!   helper thread (`helper`);
//! * [`trainer`] — a single-node training loop driving either algorithm
//!   on any environment (the distributed drivers live in `dist-exec`).
//!
//! Both learners expose *pure update* APIs (`OnPolicyLearner::update`,
//! `SacLearner::update_from_batch`) so the distributed backends can feed
//! them data collected elsewhere — exactly the separation of acting from
//! learning the paper describes for distributed RL architectures (§II-A).

pub mod buffer;
pub mod collect;
pub mod eval;
pub mod gae;
mod helper;
pub mod on_policy;
pub mod policy;
pub mod ppo;
pub mod sac;
pub mod trainer;

pub use buffer::Transition;
pub use collect::collect_lockstep;
pub use eval::Greedy;
pub use on_policy::OnPolicyLearner;
pub use policy::ActorCritic;
pub use ppo::{PpoConfig, PpoLearner};
pub use sac::{SacConfig, SacLearner};
pub use trainer::train;

/// Which of the paper's two algorithms a configuration uses (Table I's
/// "Algorithm" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Proximal Policy Optimization.
    Ppo,
    /// Soft Actor-Critic.
    Sac,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Ppo => write!(f, "PPO"),
            Algorithm::Sac => write!(f, "SAC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_display_matches_paper() {
        assert_eq!(Algorithm::Ppo.to_string(), "PPO");
        assert_eq!(Algorithm::Sac.to_string(), "SAC");
    }
}
