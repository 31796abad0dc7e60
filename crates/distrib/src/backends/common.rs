//! Shared machinery of the backends: the workers' policy-driven
//! collection, which does not need the learner, and the per-worker seeds.

use gymrs::{Environment, VecEnv};
use rand::Rng;
use rl_algos::buffer::RolloutBuffer;
use rl_algos::collect::collect_lockstep;
use rl_algos::policy::ActorCritic;

/// Result of one collection segment.
pub struct Segment {
    /// The collected steps: each lane's run in lane order, every lane's
    /// tail closed.
    pub rollout: RolloutBuffer,
    /// Environment work units consumed.
    pub env_work: u64,
    /// Finished episodes as `(return, length)`.
    pub episodes: Vec<(f64, usize)>,
    /// Inference FLOPs spent during collection.
    pub infer_flops: u64,
}

impl Segment {
    /// Collect `ticks` lockstep sweeps of `venv` with a fixed policy
    /// snapshot and batched policy evaluation: every worker's one
    /// collection loop. Segment tails are closed per lane by the
    /// collector, so the segments of a round concatenate into learner
    /// updates without leaking advantage across lanes or workers.
    pub(crate) fn collect<E: Environment>(
        policy: &ActorCritic,
        venv: &mut VecEnv<E>,
        ticks: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let out = collect_lockstep(policy, venv, ticks, rng);
        Segment {
            infer_flops: out.infer_flops(policy),
            rollout: out.rollout,
            env_work: out.env_work,
            episodes: out.episodes,
        }
    }
}

/// Deterministic per-worker seed derivation.
pub fn worker_seed(master: u64, worker: usize, round: u64) -> u64 {
    // SplitMix-style mixing keeps worker streams decorrelated.
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(round + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::GridWorld;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A width-1 `VecEnv` over GridWorld(`n`), seeded and reset: an RLlib
    /// worker's collector.
    fn lane(n: usize, seed: u64) -> VecEnv<GridWorld> {
        let mut venv = VecEnv::new(vec![GridWorld::new(n)], seed);
        venv.reset_all();
        venv
    }

    #[test]
    fn a_lane_segment_closes_the_tail() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let seg = Segment::collect(&policy, &mut lane(5, 1), 10, &mut rng);
        assert_eq!(seg.rollout.len(), 10);
        assert_eq!(seg.rollout.dones.last(), Some(&true));
        assert!(seg.infer_flops > 0);
        assert_eq!(seg.env_work, 10);
    }

    #[test]
    fn closed_tail_keeps_bootstrap_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        // Big grid: no episode ends in 5 steps.
        let seg = Segment::collect(&policy, &mut lane(8, 2), 5, &mut rng);
        assert!(!seg.rollout.terminateds[4], "episode did not terminate");
        assert!(seg.rollout.dones[4], "tail closed");
        assert_ne!(seg.rollout.next_values[4], 0.0, "bootstrap value kept");
    }

    #[test]
    fn concatenated_segments_do_not_leak_advantage() {
        // GAE over two concatenated segments must equal per-segment GAE.
        let mut rng = StdRng::seed_from_u64(3);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let a = Segment::collect(&policy, &mut lane(8, 10), 6, &mut rng);
        let b = Segment::collect(&policy, &mut lane(8, 11), 6, &mut rng);
        let (adv_a, _) = a.rollout.advantages(0.99, 0.95);
        let (adv_b, _) = b.rollout.advantages(0.99, 0.95);
        let mut merged = a.rollout.clone();
        merged.extend(b.rollout.clone());
        let (adv_m, _) = merged.advantages(0.99, 0.95);
        for (i, &x) in adv_a.iter().enumerate() {
            assert!((adv_m[i] - x).abs() < 1e-12);
        }
        for (i, &x) in adv_b.iter().enumerate() {
            assert!((adv_m[adv_a.len() + i] - x).abs() < 1e-12);
        }
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..8 {
            for r in 0..8 {
                assert!(seen.insert(worker_seed(42, w, r)));
            }
        }
    }

    #[test]
    fn worker_seeds_are_deterministic() {
        assert_eq!(worker_seed(7, 3, 5), worker_seed(7, 3, 5));
        assert_ne!(worker_seed(7, 3, 5), worker_seed(8, 3, 5));
    }
}
