//! Greedy evaluation: every episode is one lane of a lockstep batch.
//!
//! The caller's environment draws every episode's reset, in episode
//! order, and each lane is its [`Environment::duplicate`] taken right
//! after that reset. When steps read no RNG
//! ([`Environment::steps_read_rng`] is false) the lanes therefore run the
//! very episodes a one-after-another loop would, and the caller's
//! environment ends with its RNG where that loop leaves it.
//!
//! The lanes are dealt alternately into two halves. The second half runs
//! on a scoped thread, joined once per evaluation, and each half has its
//! own tape, observation matrix and batcher. Per tick a half runs one
//! actor forward over its live rows and one
//! [`Environment::lockstep_batcher`] step — or gym's scalar tick,
//! [`step_lanes`], when the half starts below [`batch_crossover`] — and a
//! lane leaves the batch when its episode ends. A half that starts
//! batched stays batched as it shrinks: a lane moved to its scalar
//! stepper mid-episode would start that stepper with an empty FSAL cache.
//!
//! An environment whose steps read the RNG, or that cannot duplicate
//! itself, runs at width 1: the caller's own environment, one episode
//! after another.

use crate::policy::ActorCritic;
use crate::sac::SacLearner;
use gymrs::vec_env::{step_lanes, LaneStep};
use gymrs::{Action, Environment};
use simd_kernels::crossover::batch_crossover;
use tinynn::{Matrix, Tape};

/// A trained policy's greedy actions, a batch of rows at a time.
#[derive(Clone, Copy)]
pub enum Greedy<'a> {
    /// PPO's actor-critic: the head's mode.
    Ppo(&'a ActorCritic),
    /// SAC's squashed Gaussian actor: `tanh` of the mean.
    Sac(&'a SacLearner),
}

impl Greedy<'_> {
    /// Greedy actions for the rows of `obs`, from one actor forward on
    /// `tape`; row for row the bits of the policies' `act_greedy`.
    pub(crate) fn act_batch(self, obs: &Matrix, tape: &mut Tape) -> Vec<Action> {
        match self {
            Greedy::Ppo(p) => p.act_greedy_batch(obs, tape),
            Greedy::Sac(l) => l.act_greedy_batch(obs, tape),
        }
    }

    /// Run `episodes` greedy episodes of at most `max_steps` steps each on
    /// `env` and return every episode's step rewards, in episode order.
    pub fn episode_rewards(
        self,
        env: &mut dyn Environment,
        episodes: usize,
        max_steps: usize,
    ) -> Vec<Vec<f64>> {
        let mut rewards = vec![Vec::new(); episodes];
        if episodes == 0 {
            return rewards;
        }
        let first = env.reset();
        let Some(copy) = (if env.steps_read_rng() { None } else { env.duplicate() }) else {
            let mut first = Some(first);
            for out in &mut rewards {
                let obs = first.take().unwrap_or_else(|| env.reset());
                let lanes = Lanes { envs: vec![&mut *env], obs: vec![obs], ids: vec![0] };
                *out = run(self, lanes, max_steps).remove(0).1;
            }
            return rewards;
        };

        let mut copies = vec![copy];
        let mut firsts = vec![first];
        for _ in 1..episodes {
            firsts.push(env.reset());
            copies.push(env.duplicate().expect("an environment that duplicated once does again"));
        }
        let mut halves = [Lanes::default(), Lanes::default()];
        for (episode, (copy, obs)) in copies.iter_mut().zip(firsts).enumerate() {
            let half = &mut halves[episode % 2];
            half.envs.push(&mut **copy);
            half.obs.push(obs);
            half.ids.push(episode);
        }
        let [front, back] = halves;
        let finished = std::thread::scope(|s| {
            let back = (!back.envs.is_empty()).then(|| s.spawn(move || run(self, back, max_steps)));
            let mut finished = run(self, front, max_steps);
            if let Some(back) = back {
                finished.extend(back.join().expect("the evaluation half panicked"));
            }
            finished
        });
        for (episode, steps) in finished {
            rewards[episode] = steps;
        }
        rewards
    }
}

/// The live lanes of one half, in parallel vectors: the batcher takes
/// the environments and the observations as two slices.
#[derive(Default)]
struct Lanes<'e> {
    envs: Vec<&'e mut dyn Environment>,
    obs: Vec<Vec<f64>>,
    ids: Vec<usize>,
}

/// Step `lanes` greedily until every episode has ended or run
/// `max_steps` steps; returns `(episode id, step rewards)` per lane, in
/// retirement order.
fn run(policy: Greedy<'_>, mut lanes: Lanes<'_>, max_steps: usize) -> Vec<(usize, Vec<f64>)> {
    let n = lanes.envs.len();
    let mut rewards = vec![Vec::new(); n];
    let mut finished = Vec::with_capacity(n);
    if max_steps == 0 {
        return lanes.ids.into_iter().zip(rewards).collect();
    }
    let mut batcher = if n >= batch_crossover() { lanes.envs[0].lockstep_batcher(n) } else { None };
    let obs_dim = lanes.obs[0].len();
    let (mut tape, mut x, mut steps, mut keep) = (Tape::new(), Matrix::default(), vec![], vec![]);
    while !lanes.envs.is_empty() {
        let live = lanes.envs.len();
        x.resize_zeroed(live, obs_dim);
        for (i, o) in lanes.obs.iter().enumerate() {
            x.row_slice_mut(i).copy_from_slice(o);
        }
        let actions = policy.act_batch(&x, &mut tape);
        steps.clear();
        steps.resize(live, LaneStep::default());
        let batched = batcher.as_mut().is_some_and(|b| {
            b.step_lockstep(&mut lanes.envs, &actions, Some(&mut lanes.obs), &mut steps)
        });
        if !batched {
            // No batcher, or it refused these lanes — which it does only
            // before its first step, so no integrator cache is lost.
            batcher = None;
            step_lanes(&mut lanes.envs, &actions, Some(&mut lanes.obs), &mut steps);
        }
        keep.clear();
        for (step, r) in steps.iter().zip(&mut rewards) {
            r.push(step.reward);
            keep.push(!step.done() && r.len() < max_steps);
        }
        if keep.iter().all(|&k| k) {
            continue;
        }
        for (i, &k) in keep.iter().enumerate() {
            if !k {
                finished.push((lanes.ids[i], std::mem::take(&mut rewards[i])));
            }
        }
        retain(&mut lanes.envs, &keep);
        retain(&mut lanes.obs, &keep);
        retain(&mut lanes.ids, &keep);
        retain(&mut rewards, &keep);
        if let Some(b) = batcher.as_mut().filter(|_| !lanes.envs.is_empty()) {
            b.retain_lanes(&keep);
        }
    }
    finished
}

/// Keep `v[i]` where `keep[i]`.
fn retain<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per lane"));
}
