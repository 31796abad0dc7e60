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
//! on a scoped thread, joined once per evaluation, and each half is one
//! [`run_episodes`] call with its own tape and observation matrix: per
//! tick one actor forward over the half's live rows, and gym's runner
//! steps them — through the environment's batcher from
//! [`batch_crossover`] lanes up, else through the scalar tick — and
//! retires a lane when its episode ends. A half that starts batched stays
//! batched as it shrinks: a lane moved to its scalar stepper mid-episode
//! would start that stepper with an empty FSAL cache.
//!
//! An environment whose steps read the RNG, or that cannot duplicate
//! itself, runs at width 1: the caller's own environment, one episode
//! after another.
//!
//! [`batch_crossover`]: simd_kernels::crossover::batch_crossover

use crate::policy::ActorCritic;
use crate::sac::SacLearner;
use gymrs::vec_env::run_episodes;
use gymrs::{Action, Environment};
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
                *out = run(self, vec![&mut *env], vec![obs], max_steps).remove(0);
            }
            return rewards;
        };

        let mut copies = vec![copy];
        let mut firsts = vec![first];
        for _ in 1..episodes {
            firsts.push(env.reset());
            copies.push(env.duplicate().expect("an environment that duplicated once does again"));
        }
        let (mut front, mut back): (Vec<&mut dyn Environment>, _) = (Vec::new(), Vec::new());
        let (mut front_obs, mut back_obs) = (Vec::new(), Vec::new());
        for (episode, (copy, obs)) in copies.iter_mut().zip(firsts).enumerate() {
            let (envs, firsts) = if episode.is_multiple_of(2) {
                (&mut front, &mut front_obs)
            } else {
                (&mut back, &mut back_obs)
            };
            envs.push(&mut **copy);
            firsts.push(obs);
        }
        let (front, back) = std::thread::scope(|s| {
            let back =
                (!back.is_empty()).then(|| s.spawn(move || run(self, back, back_obs, max_steps)));
            let front = run(self, front, front_obs, max_steps);
            (front, back.map(|b| b.join().expect("the evaluation half panicked")))
        });
        // Episode `e` was lane `e / 2` of half `e % 2`.
        for (lane, steps) in front.into_iter().enumerate() {
            rewards[2 * lane] = steps;
        }
        for (lane, steps) in back.into_iter().flatten().enumerate() {
            rewards[2 * lane + 1] = steps;
        }
        rewards
    }
}

/// Step `envs`, each standing at its `obs`, greedily until every episode
/// has ended or run `max_steps` steps; returns each lane's step rewards.
fn run(
    policy: Greedy<'_>,
    envs: Vec<&mut dyn Environment>,
    obs: Vec<Vec<f64>>,
    max_steps: usize,
) -> Vec<Vec<f64>> {
    let (mut tape, mut x) = (Tape::new(), Matrix::default());
    let mut greedy = |rows: &[Vec<f64>]| {
        x.resize_zeroed(rows.len(), rows[0].len());
        for (i, o) in rows.iter().enumerate() {
            x.row_slice_mut(i).copy_from_slice(o);
        }
        policy.act_batch(&x, &mut tape)
    };
    let mut rewards = vec![Vec::new(); envs.len()];
    run_episodes(
        envs,
        greedy(&obs),
        max_steps,
        None,
        true,
        |lane, step| rewards[lane].push(step.reward),
        |_, obs, actions| {
            let next = greedy(obs.expect("greedy evaluation reads every observation"));
            for (a, next) in actions.iter_mut().zip(next) {
                *a = next;
            }
        },
    );
    rewards
}
