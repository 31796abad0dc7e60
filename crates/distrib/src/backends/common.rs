//! Shared machinery of the backends: policy-driven collection that does
//! not need the learner, SAC interaction helpers, and narration utilities.

use gymrs::{Action, Environment, VecEnv};
use rand::Rng;
use rl_algos::buffer::{RolloutBuffer, Transition};
use rl_algos::collect::{collect_lockstep, collect_steps, Collected};
use rl_algos::policy::ActorCritic;
use rl_algos::sac::SacLearner;

/// Result of one collection segment.
pub struct Segment {
    /// The collected steps (contiguous, single environment).
    pub rollout: RolloutBuffer,
    /// Environment work units consumed.
    pub env_work: u64,
    /// Finished episodes as `(return, length)`.
    pub episodes: Vec<(f64, usize)>,
    /// Inference FLOPs spent during collection.
    pub infer_flops: u64,
}

impl Segment {
    fn new(policy: &ActorCritic, out: Collected) -> Self {
        Segment {
            infer_flops: out.infer_flops(policy),
            rollout: out.rollout,
            env_work: out.env_work,
            episodes: out.episodes,
        }
    }
}

/// Collect `n` steps from `env` with a fixed policy snapshot:
/// [`collect_steps`] with the segment tail closed. If the final step did
/// not end its episode, it is marked `done` with its bootstrap value
/// kept, so concatenated segments never leak advantage across workers.
pub(crate) fn collect_segment(
    policy: &ActorCritic,
    env: &mut dyn Environment,
    obs: &mut Vec<f64>,
    n: usize,
    rng: &mut impl Rng,
) -> Segment {
    let mut out = collect_steps(policy, env, obs, n, rng);
    if let Some(last) = out.rollout.dones.last_mut() {
        *last = true;
    }
    Segment::new(policy, out)
}

/// Collect `ticks` lockstep sweeps from a vectorized environment with
/// batched policy evaluation — the fast path for backends that drive
/// several sub-environments per worker (Stable-Baselines-style
/// vectorization, TF-Agents-style batched drivers). Segment tails are
/// closed per sub-env by the collector, so the merged rollout
/// concatenates into learner updates exactly like per-env segments.
pub(crate) fn collect_segment_vec<E: Environment>(
    policy: &ActorCritic,
    venv: &mut VecEnv<E>,
    ticks: usize,
    rng: &mut impl Rng,
) -> Segment {
    Segment::new(policy, collect_lockstep(policy, venv, ticks, rng))
}

/// One SAC interaction step: act, step the env, feed the learner.
///
/// Returns `(env_work, finished_episode_return)`.
pub(crate) fn sac_step(
    learner: &mut SacLearner,
    env: &mut dyn Environment,
    obs: &mut Vec<f64>,
    ep_ret: &mut f64,
    rng: &mut impl Rng,
) -> (u64, Option<f64>) {
    let a = learner.act(obs, rng);
    let s = env.step(&a);
    let work = env.last_step_work();
    *ep_ret += s.reward;
    let t = Transition {
        obs: std::mem::take(obs),
        action: match &a {
            Action::Continuous(v) => v.clone(),
            Action::Discrete(_) => unreachable!("SAC acts continuously"),
        },
        reward: s.reward,
        next_obs: s.obs.clone(),
        terminated: s.terminated,
    };
    learner.observe(t, rng);
    let finished = if s.done() {
        let r = *ep_ret;
        *ep_ret = 0.0;
        *obs = env.reset();
        Some(r)
    } else {
        *obs = s.obs;
        None
    };
    (work, finished)
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
    use gymrs::envs::{GridWorld, PointMass};
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl_algos::sac::SacConfig;

    #[test]
    fn collect_segment_closes_the_tail() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let mut env = GridWorld::new(5);
        env.seed(1);
        let mut obs = env.reset();
        let seg = collect_segment(&policy, &mut env, &mut obs, 10, &mut rng);
        assert_eq!(seg.rollout.len(), 10);
        assert_eq!(seg.rollout.dones.last(), Some(&true));
        assert!(seg.infer_flops > 0);
        assert_eq!(seg.env_work, 10);
    }

    #[test]
    fn closed_tail_keeps_bootstrap_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let mut env = GridWorld::new(8); // big grid: no episode ends in 5 steps
        env.seed(2);
        let mut obs = env.reset();
        let seg = collect_segment(&policy, &mut env, &mut obs, 5, &mut rng);
        assert!(!seg.rollout.terminateds[4], "episode did not terminate");
        assert!(seg.rollout.dones[4], "tail closed");
        assert_ne!(seg.rollout.next_values[4], 0.0, "bootstrap value kept");
    }

    #[test]
    fn concatenated_segments_do_not_leak_advantage() {
        // GAE over two concatenated segments must equal per-segment GAE.
        let mut rng = StdRng::seed_from_u64(3);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let mk = |seed: u64, rng: &mut StdRng| {
            let mut env = GridWorld::new(8);
            env.seed(seed);
            let mut obs = env.reset();
            collect_segment(&policy, &mut env, &mut obs, 6, rng)
        };
        let a = mk(10, &mut rng);
        let b = mk(11, &mut rng);
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
    fn vectorized_segment_matches_sequential_on_one_env() {
        // With one sub-environment the batched segment collector must
        // reproduce collect_segment exactly (same rng order, bitwise
        // identical batched kernels, and both close the tail).
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(5));
        let mut env = GridWorld::new(4);
        env.seed(9);
        let mut obs = env.reset();
        let seq = collect_segment(&policy, &mut env, &mut obs, 60, &mut StdRng::seed_from_u64(13));

        let mut venv = VecEnv::new(vec![GridWorld::new(4)], 9);
        venv.reset_all();
        let vec_seg = collect_segment_vec(&policy, &mut venv, 60, &mut StdRng::seed_from_u64(13));

        assert_eq!(vec_seg.rollout.obs, seq.rollout.obs);
        assert_eq!(vec_seg.rollout.actions, seq.rollout.actions);
        assert_eq!(vec_seg.rollout.dones, seq.rollout.dones);
        assert_eq!(vec_seg.rollout.values, seq.rollout.values);
        assert_eq!(vec_seg.rollout.next_values, seq.rollout.next_values);
        assert_eq!(vec_seg.rollout.log_probs, seq.rollout.log_probs);
        assert_eq!(vec_seg.env_work, seq.env_work);
        assert_eq!(vec_seg.episodes, seq.episodes);
    }

    #[test]
    fn sac_step_feeds_learner_and_tracks_episodes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = PointMass::new();
        env.seed(4);
        let mut learner = SacLearner::new(4, &env.action_space(), SacConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let mut ep_ret = 0.0;
        let mut finished = 0;
        for _ in 0..130 {
            let (w, fin) = sac_step(&mut learner, &mut env, &mut obs, &mut ep_ret, &mut rng);
            assert_eq!(w, 1);
            if fin.is_some() {
                finished += 1;
            }
        }
        assert_eq!(learner.steps_observed, 130);
        assert_eq!(finished, 2, "horizon 60 => two episodes in 130 steps");
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
