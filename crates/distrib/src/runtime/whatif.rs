//! Counterfactual continuation orders: "from this snapshot, what if the
//! agent had done X?"
//!
//! A [`WhatIfPayload`] names everything a runner needs to answer without
//! touching any collector state: the environment recipe, the captured
//! [`EnvSnapshot`] of the decision point, the forked first actions (one
//! [`WhatIfTask`] each), the continuation policy and a step budget. The
//! runner replays each task from the snapshot and answers with one
//! undiscounted return per task.
//!
//! Determinism: every task carries its own plain `u64` seed — the replay
//! env is restored from the snapshot and then reseeded, so a task's
//! return depends only on `(snapshot, first_action, seed, policy)` and
//! never on which thread or batch lane executed it. The scalar runner
//! [`run_whatif`] is the reference semantics; the lockstep runner
//! [`run_whatif_batched`] — what `Exec::Batched` of the `counterfactual`
//! crate answers through — must agree with it bit for bit.
//!
//! The harness pays only for what the model reads (Sim-Env, PAPERS.md).
//! The lockstep runner is gym's [`run_episodes`], which retires a lane at
//! its first `done`, so a finished continuation stops stepping.
//! Observations are produced when a continuation asks for them:
//! `ContinuationPolicy::reads_observations` says whether it does, and
//! one that does not steps the action list it started with, with no
//! observation computed. Seeds matter only when `step` reads the RNG
//! ([`Environment::steps_read_rng`]): the lockstep runner steps one lane
//! per distinct continuation ([`LanePlan`]) and copies its return to every
//! task that shares it.

use std::cmp::Ordering;

use gymrs::vec_env::run_episodes;
use gymrs::{Action, EnvSnapshot, Environment, SnapshotError};
use rl_algos::policy::ActorCritic;

use super::transport::EnvBlueprint;

/// One forked continuation: the alternative first action and the RNG
/// seed the replayed environment runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfTask {
    /// The action taken at the decision point instead of the recorded one.
    pub first_action: Action,
    /// Seed for the replay env (applied after the snapshot restore).
    pub seed: u64,
}

/// How the rollout continues after the forked first action.
#[derive(Clone)]
pub enum ContinuationPolicy {
    /// Repeat the forked action every step — an open-loop probe that
    /// needs no policy weights.
    Hold,
    /// Follow the greedy action of a policy (deterministic — no sampling,
    /// so parity across execution paths does not hinge on RNG draws).
    Greedy(Box<ActorCritic>),
}

impl ContinuationPolicy {
    /// The next action given the latest observation and the task's fork.
    pub fn next_action(&self, first_action: &Action, obs: &[f64]) -> Action {
        match self {
            ContinuationPolicy::Hold => first_action.clone(),
            ContinuationPolicy::Greedy(policy) => policy.act_greedy(obs),
        }
    }

    /// Whether [`Self::next_action`] depends on the observation it is
    /// handed. An open-loop continuation (`Hold`) does not, so a runner
    /// that knows its environment can skip producing observations for it.
    pub(crate) fn reads_observations(&self) -> bool {
        match self {
            ContinuationPolicy::Hold => false,
            ContinuationPolicy::Greedy(_) => true,
        }
    }
}

/// A complete counterfactual order for one decision point.
pub struct WhatIfPayload {
    /// How to rebuild the environment.
    pub env: EnvBlueprint,
    /// The captured decision point.
    pub snapshot: EnvSnapshot,
    /// Maximum continuation steps per task (the forked step included).
    pub horizon: usize,
    /// Continuation behaviour after the forked action.
    pub policy: ContinuationPolicy,
    /// The forked continuations to evaluate.
    pub tasks: Vec<WhatIfTask>,
}

impl WhatIfPayload {
    /// The lanes [`run_whatif_batched`] steps for this payload: one per
    /// distinct continuation, the seed counting only when the
    /// environment's `step` reads its RNG.
    pub fn lane_plan(&self) -> LanePlan {
        LanePlan::new(&self.tasks, self.env.build(0).steps_read_rng())
    }
}

/// Which lane answers each task of a payload. Two tasks share a lane when
/// their continuations cannot differ: the same first action bit for bit
/// and, if `step` reads the RNG, the same seed — the payload already fixes
/// the snapshot and the policy. Lanes are numbered in the task order of
/// their first task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePlan {
    /// Per task, the lane that answers it.
    lane_of: Vec<usize>,
    /// Per lane, its first task, whose action and seed the lane runs.
    leaders: Vec<usize>,
}

impl LanePlan {
    /// The plan for `tasks`; `seeded` puts the seed into the key.
    pub(crate) fn new(tasks: &[WhatIfTask], seeded: bool) -> Self {
        let same = |a: usize, b: usize| lane_key_cmp(&tasks[a], &tasks[b], seeded).is_eq();
        // A stable sort puts equal keys side by side, each run headed by
        // its lowest task index: O(n log n), never pairwise.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| lane_key_cmp(&tasks[a], &tasks[b], seeded));
        // First pass: each task's leader. Second, in task order: leaders
        // open lanes, everyone else takes the leader's (already numbered).
        let mut lane_of = vec![0; tasks.len()];
        let mut prev = None;
        for &i in &order {
            lane_of[i] = match prev {
                Some(p) if same(p, i) => lane_of[p],
                _ => i,
            };
            prev = Some(i);
        }
        let mut leaders = Vec::new();
        for i in 0..tasks.len() {
            lane_of[i] = if lane_of[i] == i {
                leaders.push(i);
                leaders.len() - 1
            } else {
                lane_of[lane_of[i]]
            };
        }
        LanePlan { lane_of, leaders }
    }

    /// Number of lanes — distinct continuations.
    pub fn lanes(&self) -> usize {
        self.leaders.len()
    }

    /// Per-lane results copied out to task order.
    fn scatter(&self, per_lane: &[f64]) -> Vec<f64> {
        self.lane_of.iter().map(|&lane| per_lane[lane]).collect()
    }
}

/// Orders tasks by lane key: the seed when `seeded`, then the first action
/// bit for bit — `0.0` and `-0.0` differ, and a NaN matches only a NaN of
/// the same bits.
fn lane_key_cmp(a: &WhatIfTask, b: &WhatIfTask, seeded: bool) -> Ordering {
    let seeds = if seeded { a.seed.cmp(&b.seed) } else { Ordering::Equal };
    seeds.then_with(|| match (&a.first_action, &b.first_action) {
        (Action::Discrete(x), Action::Discrete(y)) => x.cmp(y),
        (Action::Continuous(x), Action::Continuous(y)) => {
            x.iter().map(|v| v.to_bits()).cmp(y.iter().map(|v| v.to_bits()))
        }
        (Action::Discrete(_), Action::Continuous(_)) => Ordering::Less,
        (Action::Continuous(_), Action::Discrete(_)) => Ordering::Greater,
    })
}

/// Replay every task from the snapshot, scalar, one env reused across
/// tasks (each restore fully overwrites the previous task's state).
/// Returns one undiscounted return per task, in task order.
///
/// This is the reference execution path (`Exec::Scalar`, and the oracle
/// of the parity suites): [`run_whatif_batched`], which `Exec::Batched`
/// runs, must bitwise agree with this function.
pub fn run_whatif(payload: &WhatIfPayload) -> Result<Vec<f64>, SnapshotError> {
    let mut env = payload.env.build(0);
    let mut returns = Vec::with_capacity(payload.tasks.len());
    for task in &payload.tasks {
        returns.push(run_one(env.as_mut(), payload, task)?);
    }
    Ok(returns)
}

/// One task's continuation return on a caller-provided env.
pub(crate) fn run_one(
    env: &mut dyn Environment,
    payload: &WhatIfPayload,
    task: &WhatIfTask,
) -> Result<f64, SnapshotError> {
    env.restore(&payload.snapshot)?;
    env.seed(task.seed);
    let mut ret = 0.0;
    let mut action = task.first_action.clone();
    for _ in 0..payload.horizon {
        let step = env.step(&action);
        ret += step.reward;
        if step.done() {
            break;
        }
        action = payload.policy.next_action(&task.first_action, &step.obs);
    }
    Ok(ret)
}

/// Replay every distinct continuation of `payload` in lockstep: one lane
/// per lane of [`WhatIfPayload::lane_plan`], each restored from the shared
/// snapshot and reseeded with its first task's seed, all stepped by gym's
/// [`run_episodes`] (which engages the SIMD ODE batcher for homogeneous
/// airdrop lanes above the calibrated crossover).
///
/// `force_batched` overrides the auto-detected batcher: `Some(true)`
/// installs it regardless of lane count, `Some(false)` forces the
/// scalar lockstep fallback, `None` keeps the crossover heuristic.
///
/// Returns one undiscounted return per task, in task order, bitwise
/// equal to [`run_whatif`] on the same payload: a lane retires at its
/// first `done` tick, and its return is copied to every task it answers.
/// A continuation that reads observations gets each lane's own post-step
/// observation exactly as the scalar loop hands it over; one that does
/// not (`ContinuationPolicy::reads_observations`) keeps the action list
/// it started with, and no observation is computed for it.
pub fn run_whatif_batched(
    payload: &WhatIfPayload,
    force_batched: Option<bool>,
) -> Result<Vec<f64>, SnapshotError> {
    let plan = payload.lane_plan();
    let mut envs = Vec::with_capacity(plan.lanes());
    for &leader in &plan.leaders {
        let mut env = payload.env.build(0);
        env.restore(&payload.snapshot)?;
        env.seed(payload.tasks[leader].seed);
        envs.push(env);
    }
    Ok(plan.scatter(&continue_lanes(payload, &plan, envs, force_batched)))
}

/// Each lane's return: `envs[i]` stands where `plan`'s lane `i` starts
/// and follows that lane's continuation of `payload`. Generic over the
/// lane type so that a test can hand it lanes that count their steps.
fn continue_lanes<E: Environment>(
    payload: &WhatIfPayload,
    plan: &LanePlan,
    envs: Vec<E>,
    force_batched: Option<bool>,
) -> Vec<f64> {
    let fork = |lane: usize| &payload.tasks[plan.leaders[lane]].first_action;
    let mut returns = vec![0.0f64; envs.len()];
    run_episodes(
        envs,
        (0..plan.lanes()).map(|lane| fork(lane).clone()).collect(),
        payload.horizon,
        force_batched,
        payload.policy.reads_observations(),
        |lane, step| returns[lane] += step.reward,
        |live, obs, actions| {
            for ((action, &lane), obs) in actions.iter_mut().zip(live).zip(obs.unwrap_or(&[])) {
                *action = payload.policy.next_action(fork(lane), obs);
            }
        },
    );
    returns
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdrop_sim::{AirdropConfig, AirdropEnv};
    use gymrs::envs::GridWorld;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;

    fn grid_payload(policy: ContinuationPolicy, tasks: Vec<WhatIfTask>) -> WhatIfPayload {
        let mut env = EnvBlueprint::Grid { n: 5 }.build(3);
        env.reset();
        env.step(&Action::Discrete(1));
        let snapshot = env.snapshot().expect("grid world snapshots");
        WhatIfPayload { env: EnvBlueprint::Grid { n: 5 }, snapshot, horizon: 30, policy, tasks }
    }

    #[test]
    fn returns_are_per_task_and_reproducible() {
        let tasks = vec![
            WhatIfTask { first_action: Action::Discrete(0), seed: 1 },
            WhatIfTask { first_action: Action::Discrete(1), seed: 2 },
            WhatIfTask { first_action: Action::Discrete(2), seed: 3 },
        ];
        let payload = grid_payload(ContinuationPolicy::Hold, tasks.clone());
        let a = run_whatif(&payload).expect("runs");
        assert_eq!(a.len(), 3);
        let payload = grid_payload(ContinuationPolicy::Hold, tasks);
        let b = run_whatif(&payload).expect("runs");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "same payload, same returns, bit for bit");
    }

    #[test]
    fn task_seed_controls_the_continuation() {
        // Tasks sharing a seed replay identically; the seed is the only
        // free variable once the snapshot and fork are fixed.
        let task = |seed| WhatIfTask { first_action: Action::Discrete(1), seed };
        let mut env = EnvBlueprint::Grid { n: 6 }.build(9);
        env.reset();
        let payload = WhatIfPayload {
            env: EnvBlueprint::Grid { n: 6 },
            snapshot: env.snapshot().expect("snapshot"),
            horizon: 40,
            policy: ContinuationPolicy::Hold,
            tasks: vec![task(10), task(10), task(11)],
        };
        let r = run_whatif(&payload).expect("runs");
        assert_eq!(r[0].to_bits(), r[1].to_bits(), "same seed, same return");
    }

    #[test]
    fn greedy_continuation_follows_the_policy() {
        let mut rng = StdRng::seed_from_u64(4);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        let tasks = vec![WhatIfTask { first_action: Action::Discrete(0), seed: 5 }];
        let payload = grid_payload(ContinuationPolicy::Greedy(Box::new(policy)), tasks);
        let r = run_whatif(&payload).expect("runs");
        assert_eq!(r.len(), 1);
        assert!(r[0].is_finite());
    }

    #[test]
    fn restore_failure_surfaces_as_an_error() {
        let mut payload = grid_payload(
            ContinuationPolicy::Hold,
            vec![WhatIfTask { first_action: Action::Discrete(0), seed: 1 }],
        );
        payload.env = EnvBlueprint::PointMass; // kind mismatch
        assert_eq!(run_whatif(&payload), Err(SnapshotError::Mismatch("kind")));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A mid-range action of `blueprint`'s action space.
    fn first_action(blueprint: &EnvBlueprint) -> Action {
        match blueprint.build(0).action_space() {
            Space::Discrete(_) => Action::Discrete(1),
            Space::Box { low, high } => Action::Continuous(
                low.iter().zip(&high).map(|(&l, &h)| 0.5 * (l.max(-1.0) + h.min(1.0))).collect(),
            ),
        }
    }

    /// `n_tasks` forks of one action, one step into an episode of `blueprint`.
    fn payload(blueprint: EnvBlueprint, n_tasks: usize, horizon: usize) -> WhatIfPayload {
        let mut env = blueprint.build(7);
        env.reset();
        env.step(&first_action(&blueprint));
        let snapshot = env.snapshot().expect("blueprint envs snapshot");
        let tasks = (0..n_tasks)
            .map(|i| WhatIfTask { first_action: first_action(&blueprint), seed: 100 + i as u64 })
            .collect();
        WhatIfPayload { env: blueprint, snapshot, horizon, policy: ContinuationPolicy::Hold, tasks }
    }

    #[test]
    fn batched_matches_scalar_on_every_blueprint() {
        for blueprint in [
            EnvBlueprint::Grid { n: 5 },
            EnvBlueprint::PointMass,
            EnvBlueprint::Pendulum,
            EnvBlueprint::AirdropFast,
        ] {
            let p = payload(blueprint, 6, 25);
            let scalar = run_whatif(&p).expect("scalar runs");
            let batched = run_whatif_batched(&p, Some(true)).expect("batched runs");
            let fallback = run_whatif_batched(&p, Some(false)).expect("fallback runs");
            assert_eq!(bits(&scalar), bits(&batched), "forced batcher must match scalar");
            assert_eq!(bits(&scalar), bits(&fallback), "lockstep fallback must match scalar");
        }
    }

    /// An environment that counts the steps taken through it.
    struct Counted(Box<dyn Environment>, Arc<AtomicUsize>);

    impl Environment for Counted {
        fn observation_space(&self) -> Space {
            self.0.observation_space()
        }
        fn action_space(&self) -> Space {
            self.0.action_space()
        }
        fn seed(&mut self, seed: u64) {
            self.0.seed(seed)
        }
        fn reset(&mut self) -> Vec<f64> {
            self.0.reset()
        }
        fn step(&mut self, action: &Action) -> gymrs::Step {
            self.1.fetch_add(1, AtomicOrdering::Relaxed);
            self.0.step(action)
        }
    }

    #[test]
    fn a_finished_continuation_stops_stepping() {
        // Eight steering commands held from one point of a low drop: the
        // lanes land at different ticks (11 to 14), and the longest are
        // cut by the horizon. Each lane takes min(its length, horizon)
        // steps — 98 in all, where stepping every lane until the last one
        // ends would take 8 × 13 = 104.
        let mut p = payload(EnvBlueprint::AirdropFast, 0, 0);
        p.tasks = (0..8)
            .map(|i| WhatIfTask {
                first_action: Action::Continuous(vec![-1.0 + i as f64 / 3.5]),
                seed: 1,
            })
            .collect();
        let plan = p.lane_plan();
        let lane = |task: usize| {
            let mut env = p.env.build(0);
            env.restore(&p.snapshot).expect("restores");
            env.seed(p.tasks[task].seed);
            env
        };
        let lens: Vec<usize> = plan
            .leaders
            .iter()
            .map(|&t| {
                let mut env = lane(t);
                (1..).find(|_| env.step(&p.tasks[t].first_action).done()).unwrap()
            })
            .collect();
        p.horizon = 13;
        let (shortest, longest) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(shortest < &p.horizon && longest > &p.horizon, "lengths {lens:?}");
        let steps = Arc::new(AtomicUsize::new(0));
        let envs = plan.leaders.iter().map(|&t| Counted(lane(t), steps.clone())).collect();
        let returns = plan.scatter(&continue_lanes(&p, &plan, envs, Some(false)));
        assert_eq!(bits(&returns), bits(&run_whatif_batched(&p, None).expect("runs")));
        assert_eq!(bits(&returns), bits(&run_whatif(&p).expect("runs")));
        let taken: usize = lens.iter().map(|&len| len.min(p.horizon)).sum();
        assert_eq!(steps.load(AtomicOrdering::Relaxed), taken);
    }

    #[test]
    fn batched_respects_per_task_seeds() {
        let mut p = payload(EnvBlueprint::Grid { n: 6 }, 3, 40);
        p.tasks[1].seed = p.tasks[0].seed;
        let r = run_whatif_batched(&p, None).expect("runs");
        assert_eq!(r[0].to_bits(), r[1].to_bits(), "shared seed, shared return");
    }

    #[test]
    fn batched_degenerate_payloads() {
        let mut p = payload(EnvBlueprint::PointMass, 4, 12);
        p.horizon = 0;
        assert_eq!(run_whatif_batched(&p, None).expect("runs"), vec![0.0; 4]);
        p.tasks.clear();
        assert!(run_whatif_batched(&p, None).expect("runs").is_empty());
    }

    #[test]
    fn batched_surfaces_snapshot_mismatch() {
        let mut p = payload(EnvBlueprint::Grid { n: 5 }, 2, 10);
        p.env = EnvBlueprint::Pendulum;
        assert_eq!(run_whatif_batched(&p, None), Err(SnapshotError::Mismatch("kind")));
    }

    #[test]
    fn only_an_open_loop_continuation_skips_observations() {
        assert!(!ContinuationPolicy::Hold.reads_observations());
        let mut rng = StdRng::seed_from_u64(4);
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
        assert!(ContinuationPolicy::Greedy(Box::new(policy)).reads_observations());
    }

    #[test]
    fn horizon_bounds_the_continuation() {
        let tasks = vec![WhatIfTask { first_action: Action::Discrete(3), seed: 1 }];
        let mut payload = grid_payload(ContinuationPolicy::Hold, tasks);
        payload.horizon = 0;
        let r = run_whatif(&payload).expect("runs");
        assert_eq!(r[0], 0.0, "zero horizon accumulates nothing");
    }

    // ---- steps_read_rng declarations -----------------------------

    /// `count` snapshots along an episode of `blueprint` holding its
    /// mid-range action, resetting whenever the episode ends.
    fn snapshots(blueprint: &EnvBlueprint, count: usize) -> Vec<EnvSnapshot> {
        let mut env = blueprint.build(11);
        env.reset();
        (0..count)
            .map(|_| {
                let snapshot = env.snapshot().expect("blueprint envs snapshot");
                if env.step(&first_action(blueprint)).done() {
                    env.reset();
                }
                snapshot
            })
            .collect()
    }

    #[test]
    fn an_env_that_declares_a_seed_free_step_replays_every_seed_alike() {
        for blueprint in [
            EnvBlueprint::Grid { n: 5 },
            EnvBlueprint::PointMass,
            EnvBlueprint::Pendulum,
            EnvBlueprint::AirdropFast,
            EnvBlueprint::AirdropPaper,
        ] {
            let env = blueprint.build(0);
            assert!(!env.steps_read_rng(), "{blueprint:?} declares a seed-free step");
            let mut rng = StdRng::seed_from_u64(5);
            let actor = ActorCritic::new(
                env.observation_space().dim(),
                &env.action_space(),
                &[8],
                &mut rng,
            );
            for policy in [ContinuationPolicy::Hold, ContinuationPolicy::Greedy(Box::new(actor))] {
                for snapshot in snapshots(&blueprint, 8) {
                    let tasks = (0..8)
                        .map(|s| WhatIfTask {
                            first_action: first_action(&blueprint),
                            seed: s * 7919,
                        })
                        .collect();
                    let payload = WhatIfPayload {
                        env: blueprint.clone(),
                        snapshot,
                        horizon: 24,
                        policy: policy.clone(),
                        tasks,
                    };
                    let returns = bits(&run_whatif(&payload).expect("runs"));
                    assert!(returns.iter().all(|&r| r == returns[0]), "{blueprint:?}: {returns:?}");
                }
            }
        }
    }

    #[test]
    fn an_env_whose_step_draws_says_so_and_its_seeds_disagree() {
        let mut slippery = GridWorld::new(5);
        slippery.slip = 0.2;
        assert!(slippery.steps_read_rng());
        let gusty = AirdropConfig {
            altitude_limits: (300.0, 300.0),
            gusts_enabled: true,
            gust_probability: 0.3,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let mut env = AirdropEnv::new(gusty);
        assert!(env.steps_read_rng());
        env.seed(3);
        env.reset();
        let payload = WhatIfPayload {
            env: EnvBlueprint::AirdropPaper, // never built: `run_one` drives `env`
            snapshot: env.snapshot().expect("airdrop snapshots"),
            horizon: 24,
            policy: ContinuationPolicy::Hold,
            tasks: (0..8)
                .map(|s| WhatIfTask { first_action: Action::Continuous(vec![0.0]), seed: s })
                .collect(),
        };
        let mut returns: Vec<u64> = payload
            .tasks
            .iter()
            .map(|task| run_one(&mut env, &payload, task).expect("restores").to_bits())
            .collect();
        returns.sort_unstable();
        returns.dedup();
        assert!(returns.len() >= 2, "gusts make the seed matter: {returns:?}");
    }

    // ---- the lane plan -------------------------------------------

    fn task(action: f64, seed: u64) -> WhatIfTask {
        WhatIfTask { first_action: Action::Continuous(vec![action]), seed }
    }

    #[test]
    fn a_seeded_key_keeps_distinct_action_seed_pairs_apart() {
        let tasks = [task(0.5, 1), task(0.5, 2), task(-0.5, 1), task(0.5, 1)];
        let plan = LanePlan::new(&tasks, true);
        assert_eq!(plan.lane_of, [0, 1, 2, 0]);
        assert_eq!(plan.leaders, [0, 1, 2]);
    }

    #[test]
    fn a_seed_free_key_merges_them() {
        let tasks = [task(0.5, 1), task(0.5, 2), task(-0.5, 1), task(0.5, 1)];
        let plan = LanePlan::new(&tasks, false);
        assert_eq!(plan.lane_of, [0, 0, 1, 0]);
        assert_eq!(plan.leaders, [0, 2]);
        assert_eq!(plan.scatter(&[3.0, 4.0]), [3.0, 3.0, 4.0, 3.0]);
    }

    #[test]
    fn a_factual_action_equal_to_an_alternative_shares_its_lane() {
        // The analyzer's layout: N = 2 rollouts of the factual 0.0, then of
        // the K = 3 box grid, whose middle point is 0.0 again.
        let tasks: Vec<WhatIfTask> =
            [0.0, -0.5, 0.0, 0.5].into_iter().flat_map(|a| [task(a, 10), task(a, 11)]).collect();
        let plan = LanePlan::new(&tasks, false);
        assert_eq!(plan.lanes(), 3);
        assert_eq!(plan.lane_of, [0, 0, 1, 1, 0, 0, 2, 2]);
    }

    #[test]
    fn the_key_is_bitwise() {
        let plan = LanePlan::new(&[task(0.0, 1), task(-0.0, 1)], false);
        assert_eq!(plan.lanes(), 2, "0.0 == -0.0, but not bit for bit");
        let discrete = WhatIfTask { first_action: Action::Discrete(0), seed: 1 };
        assert_eq!(LanePlan::new(&[task(0.0, 1), discrete], false).lanes(), 2);
    }

    #[test]
    fn a_nan_action_gets_its_own_lane() {
        let nan = f64::NAN;
        let tasks = [task(nan, 1), task(0.0, 1), task(1.0, 1), task(nan, 2), task(-nan, 1)];
        let plan = LanePlan::new(&tasks, false);
        // Apart from every number and from the NaN of the other sign; its
        // exact bits again replay exactly, so they share its lane.
        assert_eq!(plan.lane_of, [0, 1, 2, 0, 3]);
        // Both runners agree on it, bit for bit.
        let mut p = payload(EnvBlueprint::PointMass, 0, 12);
        p.tasks = tasks
            .iter()
            .map(|t| {
                let a = t.first_action.continuous()[0];
                WhatIfTask { first_action: Action::Continuous(vec![a, a]), seed: t.seed }
            })
            .collect();
        assert_eq!(
            bits(&run_whatif_batched(&p, None).expect("runs")),
            bits(&run_whatif(&p).expect("runs"))
        );
    }

    #[test]
    fn the_payload_plans_from_its_environment() {
        // Six seeds of one action: one lane where the step reads no RNG.
        let p = payload(EnvBlueprint::Grid { n: 5 }, 6, 25);
        assert_eq!(p.lane_plan(), LanePlan::new(&p.tasks, false));
        assert_eq!(p.lane_plan().lanes(), 1);
    }
}
