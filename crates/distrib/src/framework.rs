//! Framework identities and the `Architecture` each one stands for.
//!
//! The paper's frameworks differ in *architecture* — who collects, who
//! infers, when weights travel — and that difference is data: one
//! `Architecture` value per framework, read by the one training loop in
//! [`crate::backends`]. `Framework::architecture` is the table; nothing
//! else in the crate branches on which framework is running.

use crate::runtime::SyncPolicy;
use crate::spec::Deployment;

/// The three frameworks of the paper's study (Table I column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Ray RLlib — distributed actor–learner.
    RayRllib,
    /// Stable Baselines — vectorized environments.
    StableBaselines,
    /// TF-Agents — parallel single-node driver.
    TfAgents,
}

impl Framework {
    /// All frameworks, in Table I order.
    pub const ALL: [Framework; 3] =
        [Framework::RayRllib, Framework::StableBaselines, Framework::TfAgents];

    /// The cost profile used by the cluster narration.
    pub fn profile(self) -> FrameworkProfile {
        self.architecture().profile
    }

    /// The framework's execution architecture.
    ///
    /// The cost profiles are calibrated against Table I's anchored cells
    /// (EXPERIMENTS.md): the anchors imply the per-step framework path
    /// *dominates* the RK integration cost (configuration 8, order 8,
    /// takes only ~26% longer than configuration 2, order 3, at equal
    /// deployment), so the overheads here are large relative to the
    /// ~7–43 derivative evaluations a control step costs.
    pub(crate) fn architecture(self) -> Architecture {
        match self {
            // Ray: rollout actors pinned to nodes ship experience to a
            // central learner; remote nodes get fresh weights only every
            // other iteration (§VI-D: faster, staler, less reward).
            // Powerful but heavyweight — object store, scheduler
            // round-trips, per-iteration synchronization. The configs 2/8
            // ratio gives a raw B ≈ 134; the end-to-end narration adds
            // learner, iteration and transfer overheads worth ~4–5
            // simulated minutes at 200k steps, so the profile carries the
            // net value that lands the *measured* anchors on target.
            Framework::RayRllib => Architecture {
                profile: FrameworkProfile {
                    per_iter_overhead_s: 0.6,
                    per_step_overhead_units: 118.0,
                    learner_streams: 2,
                    name: "Ray RLlib",
                },
                collectors: Collectors::PerEnv,
                sync: SyncPolicy::RemotePeriodic { period: 2 },
                sampling: Sampling::PerRound { salt: 1 },
                inference: Inference::WithCollection,
                multi_node: true,
                sac_seed_salt: 2,
            },
            // SB3: one process stepping `cores` sub-environments in
            // lockstep (§VI-C "one vectorized environment is used per CPU
            // core"), collection, inference and learning strictly
            // serialized on one rng stream — the most deterministic and
            // reward-wise most reliable loop. The leanest per step
            // (derived from configs 14 and 16), but inference/learning
            // serialize with collection on the learner's threads.
            Framework::StableBaselines => Architecture {
                profile: FrameworkProfile {
                    per_iter_overhead_s: 0.3,
                    per_step_overhead_units: 55.0,
                    learner_streams: 2,
                    name: "Stable Baselines",
                },
                collectors: Collectors::Vectorized,
                sync: SyncPolicy::EveryRound,
                sampling: Sampling::Master,
                inference: Inference::OnLearner,
                multi_node: false,
                sac_seed_salt: 1,
            },
            // TF-Agents: slightly heavier per step than SB3 (config 11),
            // but its parallel driver keeps every core busy through
            // collection, inference *and* learning — the §VI-B
            // "cost-effective use of the CPUs" that makes it the power
            // winner among the configurations the study sampled.
            Framework::TfAgents => Architecture {
                profile: FrameworkProfile {
                    per_iter_overhead_s: 0.2,
                    per_step_overhead_units: 66.0,
                    learner_streams: 4,
                    name: "TF-Agents",
                },
                collectors: Collectors::Vectorized,
                sync: SyncPolicy::EveryRound,
                sampling: Sampling::PerRound { salt: 1000 },
                inference: Inference::WithCollection,
                multi_node: false,
                sac_seed_salt: 1,
            },
        }
    }
}

/// How a framework spreads work over cores and nodes: everything the
/// training loop needs to know to behave like that framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Architecture {
    /// Cost constants for the cluster narration.
    pub(crate) profile: FrameworkProfile,
    /// Shape of the worker set.
    pub(crate) collectors: Collectors,
    /// When fresh weights reach which workers.
    pub(crate) sync: SyncPolicy,
    /// Where a round's sampling randomness comes from.
    pub(crate) sampling: Sampling,
    /// Where collection-time policy inference is charged.
    pub(crate) inference: Inference,
    /// Whether a deployment may span more than one node.
    pub(crate) multi_node: bool,
    /// Round salt of the SAC environments' `worker_seed`.
    pub(crate) sac_seed_salt: u64,
}

/// Shape of a framework's worker set. Either way every worker steps its
/// lanes in lockstep with batched policy evaluation, and a round's step
/// count is in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Collectors {
    /// One worker on node 0 with one lane per core.
    Vectorized,
    /// `nodes × cores` single-lane workers (RLlib's rollout workers),
    /// worker `w` pinned to node `w / cores`; a quarantined worker's
    /// share of the round moves to the survivors.
    PerEnv,
}

impl Collectors {
    /// `(workers, lanes per worker)` on `deployment`: every worker steps
    /// a `VecEnv` of that many lanes.
    pub(crate) fn shape(self, deployment: Deployment) -> (usize, usize) {
        match self {
            Collectors::Vectorized => (1, deployment.cores_per_node),
            Collectors::PerEnv => (deployment.total_cores(), 1),
        }
    }
}

/// Where a collection round's sampling randomness comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sampling {
    /// The learner's master stream rides the collect command and comes
    /// back advanced: collect, then update, on one stream. One stream
    /// serves one worker, so this goes with [`Collectors::Vectorized`].
    Master,
    /// Worker `w` samples round `i` from a fresh
    /// `worker_seed(seed, w, i + salt)` stream, decoupled from the
    /// learner's.
    PerRound {
        /// Offset added to the iteration index.
        salt: u64,
    },
}

/// Where collection-time policy inference is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inference {
    /// Its own compute phase on the learner's streams, serialized with
    /// the loop.
    OnLearner,
    /// Inside the collection phase, overlapped across the collecting
    /// cores.
    WithCollection,
}

impl std::fmt::Display for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.profile().name)
    }
}

/// Per-framework cost constants (calibrated against Table I anchors; see
/// EXPERIMENTS.md for the calibration notes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkProfile {
    /// Glue/scheduling seconds charged per training iteration.
    pub(crate) per_iter_overhead_s: f64,
    /// Extra work units charged per environment step (serialization,
    /// Python-side bookkeeping in the originals).
    pub per_step_overhead_units: f64,
    /// Cores the learner's linear algebra uses.
    pub learner_streams: usize,
    /// Display name.
    pub(crate) name: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_rllib_is_multi_node() {
        // §V-b: "Distributed training on 2 nodes is available with RLlib;
        // TF-Agents and Stable-Baselines parallelize on a single node".
        assert!(Framework::RayRllib.architecture().multi_node);
        assert!(!Framework::StableBaselines.architecture().multi_node);
        assert!(!Framework::TfAgents.architecture().multi_node);
    }

    #[test]
    fn per_step_overheads_follow_the_calibration() {
        // SB3's vectorized loop is leanest, TF-Agents close behind, Ray's
        // distributed machinery costs the most per step (EXPERIMENTS.md).
        let sb = Framework::StableBaselines.profile().per_step_overhead_units;
        let tfa = Framework::TfAgents.profile().per_step_overhead_units;
        let ray = Framework::RayRllib.profile().per_step_overhead_units;
        assert!(sb < tfa && tfa < ray, "{sb} {tfa} {ray}");
    }

    #[test]
    fn tf_agents_keeps_all_cores_busy_in_learning() {
        // The mechanism behind its low energy: learner uses every core.
        assert_eq!(Framework::TfAgents.profile().learner_streams, 4);
        assert!(Framework::StableBaselines.profile().learner_streams < 4);
    }

    #[test]
    fn rllib_has_the_largest_iteration_overhead() {
        let ray = Framework::RayRllib.profile();
        for other in [Framework::TfAgents, Framework::StableBaselines] {
            assert!(ray.per_iter_overhead_s > other.profile().per_iter_overhead_s);
        }
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(Framework::RayRllib.to_string(), "Ray RLlib");
        assert_eq!(Framework::StableBaselines.to_string(), "Stable Baselines");
        assert_eq!(Framework::TfAgents.to_string(), "TF-Agents");
    }
}
