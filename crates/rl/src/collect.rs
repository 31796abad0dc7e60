//! Collection: the lockstep batched loop over a [`VecEnv`], the one way
//! PPO experience is gathered.
//!
//! [`collect_lockstep`] serves every caller. The distributed workers each
//! own a `VecEnv` (`dist_exec`): Stable Baselines' vectorized envs and
//! TF-Agents' batched driver step one lane per core, an RLlib rollout
//! worker a single lane. The single-node paths, [`crate::train`] and
//! [`crate::on_policy::OnPolicyLearner::collect`], step the caller's
//! environment as a width-1 `VecEnv`. Instead of one network forward per
//! environment per step, each lockstep tick performs **one** actor
//! forward and **one** critic forward over the whole `n_envs × obs_dim`
//! observation batch. The blocked matmul kernels in `tinynn` guarantee
//! batched rows are bitwise identical to single-row evaluation, so with
//! one sub-environment it reproduces a per-step loop's trajectory exactly
//! (same rng draws, same values) — the tests pin that down against a
//! per-step oracle.
//!
//! Critic economy: the successor value computed for bootstrapping step
//! `t` is exactly the current-state value of step `t + 1`, so it is cached
//! instead of recomputed — roughly halving critic forwards versus naive
//! per-step collection, with bitwise-identical results (the critic is
//! deterministic and draws nothing from the rng). Only truncated episodes
//! need an extra critic row (their bootstrap state is the *pre-reset*
//! observation, preserved by [`gymrs::vec_env::TickBatch::final_obs`]).
//!
//! Lockstep stepping goes through [`VecEnv::step_lockstep`], which takes
//! the batched ODE fast path when the sub-environments support it (one
//! batched integrator call per substep across all lanes) and is
//! bitwise-identical to the scalar sweep either way.

use crate::buffer::RolloutBuffer;
use crate::policy::ActorCritic;
use gymrs::{Environment, VecEnv};
use rand::Rng;
use tinynn::{forward_flops, Matrix, Tape};

/// Result of one collection.
#[derive(Debug)]
pub struct Collected {
    /// The collected steps: per-env segments concatenated in env order,
    /// each tail closed (`dones.last == true`) so the λ-chain cannot leak
    /// across environment boundaries.
    pub rollout: RolloutBuffer,
    /// Environment work units consumed (derivative evaluations).
    pub env_work: u64,
    /// `(return, length)` of episodes that finished, in step order.
    pub episodes: Vec<(f64, usize)>,
    /// Observation rows pushed through the actor (FLOP accounting).
    pub(crate) actor_rows: u64,
    /// Observation rows pushed through the critic (FLOP accounting).
    pub(crate) critic_rows: u64,
}

impl Collected {
    /// Inference FLOPs of this collection under `policy`'s network shapes.
    pub fn infer_flops(&self, policy: &ActorCritic) -> u64 {
        forward_flops(&policy.actor.sizes(), self.actor_rows as usize)
            + forward_flops(&policy.critic.sizes(), self.critic_rows as usize)
    }
}

/// Collect `ticks` lockstep sweeps of experience from `venv`.
///
/// The caller must have called [`VecEnv::reset_all`] (or stepped the
/// env before, or built it with [`VecEnv::resume`]) so current
/// observations are valid; collection continues from wherever the envs
/// stand.
/// The `VecEnv` carries each lane's open episode across calls, so an
/// episode that spans several calls is logged whole in the call it ends in.
///
/// Actions are sampled env-by-env in index order from `rng`, so with one
/// sub-environment the rng stream matches per-step collection.
pub fn collect_lockstep<E: Environment>(
    policy: &ActorCritic,
    venv: &mut VecEnv<E>,
    ticks: usize,
    rng: &mut impl Rng,
) -> Collected {
    let n = venv.len();
    let work_before = venv.total_work;
    let mut buffers: Vec<RolloutBuffer> =
        (0..n).map(|_| RolloutBuffer::with_capacity(ticks)).collect();
    let mut episodes = Vec::new();
    let mut actor_rows = 0u64;
    let mut critic_rows = 0u64;

    // Batch scratch, grown once and reused every tick. Per tick, what
    // still allocates is what the rollout keeps (each lane's observation
    // row and sampled action), each lane's `Dist` (its probabilities, or
    // its mean and log-std), and the `VecEnv`'s copy of a finished lane's
    // final state.
    let mut flat = Vec::new();
    let mut obs_mat = Matrix::default();
    let mut next_mat = Matrix::default();
    let mut trunc_mat = Matrix::default();
    let mut trunc_flat = Vec::new();
    let (mut actor_tape, mut critic_tape) = (Tape::new(), Tape::new());
    let mut dists = Vec::with_capacity(n);
    let mut actions = Vec::with_capacity(n);
    let mut log_probs = Vec::with_capacity(n);
    let mut next_vals = Vec::with_capacity(n);
    let mut trunc_vals = Vec::with_capacity(n);

    // V(s) of the current lockstep observations, carried tick to tick.
    let (rows, cols) = venv.write_obs_flat(&mut flat);
    obs_mat.copy_from_flat(rows, cols, &flat);
    let mut vals = policy.critic.infer_into(&obs_mat, &mut critic_tape).as_slice().to_vec();
    critic_rows += rows as u64;

    for _ in 0..ticks {
        // `obs_mat` keeps the pre-step observations for the buffers.
        let (rows, cols) = venv.write_obs_flat(&mut flat);
        obs_mat.copy_from_flat(rows, cols, &flat);
        let out = policy.actor.infer_into(&obs_mat, &mut actor_tape);
        dists.clear();
        dists.extend((0..rows).map(|r| policy.dist_from_actor_row(out.row_slice(r))));
        actor_rows += rows as u64;

        log_probs.clear();
        for d in &dists {
            let a = d.sample(rng);
            log_probs.push(d.log_prob(&a));
            actions.push(a);
        }
        venv.step_lockstep(&actions);
        let batch = venv.last_tick();

        // One batched critic pass over the post-step (auto-reset)
        // observations serves double duty: bootstrap values for non-done
        // steps and the cached V(s) of the next tick.
        venv.write_obs_flat(&mut flat);
        next_mat.copy_from_flat(rows, cols, &flat);
        next_vals.clear();
        let nv = policy.critic.infer_into(&next_mat, &mut critic_tape);
        next_vals.extend_from_slice(nv.as_slice());
        critic_rows += rows as u64;

        // Truncated episodes bootstrap from the real final state, which
        // the auto-reset replaced; those rows need their own critic pass.
        trunc_flat.clear();
        let mut truncated = 0;
        for (s, fin) in batch.steps.iter().zip(&batch.final_obs) {
            if s.done() && !s.terminated {
                let fin = fin.as_deref().expect("truncated env must record final_obs");
                trunc_flat.extend_from_slice(fin);
                truncated += 1;
            }
        }
        trunc_vals.clear();
        if truncated > 0 {
            trunc_mat.copy_from_flat(truncated, cols, &trunc_flat);
            let tv = policy.critic.infer_into(&trunc_mat, &mut critic_tape);
            trunc_vals.extend_from_slice(tv.as_slice());
            critic_rows += truncated as u64;
        }

        let mut boot = trunc_vals.iter();
        for (i, (action, &log_prob)) in actions.drain(..).zip(&log_probs).enumerate() {
            let s = &batch.steps[i];
            let next_value = if s.terminated {
                0.0
            } else if s.done() {
                *boot.next().expect("one bootstrap value per truncation")
            } else {
                next_vals[i]
            };
            buffers[i].push(
                obs_mat.row_slice(i).to_vec(),
                action,
                s.reward,
                s.terminated,
                s.done(),
                vals[i],
                next_value,
                log_prob,
            );
        }
        episodes.extend(batch.finished.iter().map(|&(_, ret, len)| (ret, len)));
        std::mem::swap(&mut vals, &mut next_vals);
    }

    let mut rollout = RolloutBuffer::with_capacity(ticks * n);
    for mut b in buffers {
        if let Some(last) = b.dones.last_mut() {
            *last = true;
        }
        rollout.extend(b);
    }
    Collected {
        rollout,
        env_work: venv.total_work - work_before,
        episodes,
        actor_rows,
        critic_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::GridWorld;
    use gymrs::{Action, Space};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(seed: u64) -> ActorCritic {
        ActorCritic::new(2, &Space::Discrete(4), &[16, 16], &mut StdRng::seed_from_u64(seed))
    }

    /// The sequential per-step reference (PPO-collect semantics, without
    /// the tail close).
    fn sequential_collect(
        policy: &ActorCritic,
        env: &mut GridWorld,
        n: usize,
        rng: &mut StdRng,
    ) -> RolloutBuffer {
        let mut rollout = RolloutBuffer::with_capacity(n);
        let mut obs = env.reset();
        for _ in 0..n {
            let (action, log_prob, value) = policy.act(&obs, rng);
            let s = env.step(&action);
            let done = s.done();
            let next_value = if s.terminated { 0.0 } else { policy.value(&s.obs) };
            rollout.push(
                std::mem::take(&mut obs),
                action,
                s.reward,
                s.terminated,
                done,
                value,
                next_value,
                log_prob,
            );
            obs = if done { env.reset() } else { s.obs };
        }
        rollout
    }

    #[test]
    fn single_env_lockstep_matches_sequential_collect() {
        // With one sub-environment the lockstep collector must reproduce
        // the per-step path exactly: same rng draws, bitwise-equal values
        // (the batched-kernel determinism contract).
        let p = policy(1);
        let ticks = 120;

        let mut env = GridWorld::new(3);
        env.seed(7);
        let mut seq_rng = StdRng::seed_from_u64(42);
        let seq = sequential_collect(&p, &mut env, ticks, &mut seq_rng);

        let mut venv = VecEnv::new(vec![GridWorld::new(3)], 7);
        venv.reset_all();
        let mut rng = StdRng::seed_from_u64(42);
        let out = collect_lockstep(&p, &mut venv, ticks, &mut rng);

        assert_eq!(out.rollout.len(), ticks);
        assert_eq!(out.rollout.obs, seq.obs);
        assert_eq!(out.rollout.actions, seq.actions);
        assert_eq!(out.rollout.rewards, seq.rewards);
        assert_eq!(out.rollout.terminateds, seq.terminateds);
        assert_eq!(out.rollout.values, seq.values);
        assert_eq!(out.rollout.next_values, seq.next_values);
        assert_eq!(out.rollout.log_probs, seq.log_probs);
        // Only the closed tail may differ.
        assert_eq!(&out.rollout.dones[..ticks - 1], &seq.dones[..ticks - 1]);
        assert!(out.rollout.dones[ticks - 1]);
        // The tail close never changes advantages of a single segment
        // (the λ-chain past the last index is empty either way).
        let (adv_a, ret_a) = out.rollout.advantages(0.99, 0.95);
        let (adv_b, ret_b) = seq.advantages(0.99, 0.95);
        assert_eq!(adv_a, adv_b);
        assert_eq!(ret_a, ret_b);
    }

    /// `(return, length)` of every episode `calls` calls of `steps` ticks
    /// each log on one width-1 `VecEnv` over GridWorld(5), which carries
    /// the observation and the open episode from call to call.
    fn episodes_over_calls(calls: usize, steps: usize) -> Vec<(f64, usize)> {
        let p = policy(4);
        let mut venv = VecEnv::new(vec![GridWorld::new(5)], 7);
        venv.reset_all();
        let mut rng = StdRng::seed_from_u64(11);
        (0..calls).flat_map(|_| collect_lockstep(&p, &mut venv, steps, &mut rng).episodes).collect()
    }

    #[test]
    fn an_episode_spanning_calls_is_logged_whole() {
        let whole = episodes_over_calls(1, 400);
        // Some episode starts in one 100-step call and ends in a later one.
        let mut start = 0;
        let straddles = whole.iter().any(|&(_, len)| {
            let (first, last) = (start, start + len - 1);
            start += len;
            first / 100 != last / 100
        });
        assert!(straddles, "the probe must cross a call boundary: {whole:?}");
        assert_eq!(episodes_over_calls(4, 100), whole);
    }

    #[test]
    fn lockstep_merges_env_segments_with_closed_tails() {
        let p = policy(2);
        let n_envs = 3;
        let ticks = 40;
        let mut venv = VecEnv::new((0..n_envs).map(|_| GridWorld::new(3)).collect::<Vec<_>>(), 5);
        venv.reset_all();
        let mut rng = StdRng::seed_from_u64(9);
        let out = collect_lockstep(&p, &mut venv, ticks, &mut rng);

        assert_eq!(out.rollout.len(), n_envs * ticks);
        assert_eq!(out.env_work, (n_envs * ticks) as u64, "grid world costs 1 unit/step");
        assert!(!out.episodes.is_empty(), "120 random steps finish some episodes");
        for seg in 0..n_envs {
            assert!(out.rollout.dones[(seg + 1) * ticks - 1], "segment {seg} tail closed");
        }
        for (i, &term) in out.rollout.terminateds.iter().enumerate() {
            if term {
                assert_eq!(out.rollout.next_values[i], 0.0, "terminated step {i}");
            }
        }
        // Actions are valid for the Discrete(4) space.
        for a in &out.rollout.actions {
            match a {
                Action::Discrete(k) => assert!(*k < 4),
                other => panic!("unexpected action kind: {other:?}"),
            }
        }
    }

    #[test]
    fn lockstep_counts_inference_rows() {
        let p = policy(3);
        let n_envs = 2;
        let ticks = 25;
        let mut venv = VecEnv::new((0..n_envs).map(|_| GridWorld::new(3)).collect::<Vec<_>>(), 0);
        venv.reset_all();
        let mut rng = StdRng::seed_from_u64(4);
        let out = collect_lockstep(&p, &mut venv, ticks, &mut rng);
        // One actor row per env per tick; critic rows are the initial
        // batch plus one per env per tick plus one per truncation.
        assert_eq!(out.actor_rows, (n_envs * ticks) as u64);
        assert!(out.critic_rows >= (n_envs * (ticks + 1)) as u64);
        // The cached-value scheme must beat the naive two-critic-passes
        // sweep (2 rows per env per tick plus bootstraps).
        assert!(out.critic_rows <= (2 * n_envs * ticks) as u64);
    }
}
