//! Frozen workload sizes.
//!
//! They were sized once so that a unit of every workload takes three to
//! five seconds on the two-core machine the baseline was taken on, which
//! lets three or more units fit in one run of `run_seconds`. Every result
//! is stamped with them. Changing one changes what every number in the
//! ledger means, so it is a new baseline, never part of another change.

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// `table1`: environment steps per training. PPO rows round up to one
    /// 1024-step rollout, so this sets the SAC rows' share.
    pub table1_steps: usize,
    /// `table1`: greedy evaluation episodes per row.
    pub table1_eval_episodes: usize,
    /// `deploy_uds`: environment steps per training (three PPO rounds).
    pub deploy_steps: usize,
    /// `deploy_uds`: greedy evaluation episodes per deployment.
    pub deploy_eval_episodes: usize,
    /// `whatif`: E, recorded episodes per unit.
    pub whatif_episodes: usize,
    /// `whatif`: a decision point every this many steps.
    pub whatif_stride: usize,
    /// `whatif`: K, alternatives per decision point.
    pub whatif_alternatives: usize,
    /// `whatif`: N, continuation rollouts per action.
    pub whatif_rollouts: usize,
    /// `whatif`: continuation horizon in steps.
    pub whatif_horizon: usize,
    /// `whatif`: only episodes this long are analysed, so that the work of
    /// a unit does not depend on which drop altitudes a seed draws.
    pub whatif_episode_len: (usize, usize),
    /// `study_core`: M, studies per unit.
    pub core_studies: usize,
    /// `study_core`: trial budget of each study.
    pub core_trials: usize,
    /// `study_core`: samples in each trial's reward distribution.
    pub core_samples: usize,
    /// `study_core`: bootstrap resamples in the rank phase.
    pub core_resamples: usize,
}

pub const FULL: Budgets = Budgets {
    table1_steps: 256,
    table1_eval_episodes: 20,
    deploy_steps: 3072,
    deploy_eval_episodes: 10,
    whatif_episodes: 48,
    whatif_stride: 32,
    whatif_alternatives: 7,
    whatif_rollouts: 16,
    whatif_horizon: 256,
    whatif_episode_len: (320, 480),
    core_studies: 64,
    core_trials: 72,
    core_samples: 64,
    core_resamples: 200,
};

/// `--smoke`: every code path, every check and every probe once, in
/// seconds. Its numbers mean nothing and `compare` refuses them.
pub const SMOKE: Budgets = Budgets {
    table1_steps: 96,
    table1_eval_episodes: 2,
    deploy_steps: 1024,
    deploy_eval_episodes: 2,
    whatif_episodes: 2,
    whatif_stride: 64,
    whatif_alternatives: 3,
    whatif_rollouts: 4,
    whatif_horizon: 64,
    whatif_episode_len: (100, 700),
    core_studies: 8,
    core_trials: 24,
    core_samples: 16,
    core_resamples: 50,
};

impl Budgets {
    pub fn to_json(self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        obj([
            ("table1_steps", n(self.table1_steps)),
            ("table1_eval_episodes", n(self.table1_eval_episodes)),
            ("deploy_steps", n(self.deploy_steps)),
            ("deploy_eval_episodes", n(self.deploy_eval_episodes)),
            ("whatif_episodes", n(self.whatif_episodes)),
            ("whatif_stride", n(self.whatif_stride)),
            ("whatif_alternatives", n(self.whatif_alternatives)),
            ("whatif_rollouts", n(self.whatif_rollouts)),
            ("whatif_horizon", n(self.whatif_horizon)),
            ("whatif_episode_len_min", n(self.whatif_episode_len.0)),
            ("whatif_episode_len_max", n(self.whatif_episode_len.1)),
            ("core_studies", n(self.core_studies)),
            ("core_trials", n(self.core_trials)),
            ("core_samples", n(self.core_samples)),
            ("core_resamples", n(self.core_resamples)),
        ])
    }
}
