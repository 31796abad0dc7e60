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
//! Observations are the harness's view of the model, produced when a
//! continuation asks for them: [`ContinuationPolicy::reads_observations`]
//! says whether it does, and a continuation that does not read them does
//! not pay for them — the lockstep runner then steps through
//! [`VecEnv::step_unobserved`] and builds its action list once.

use gymrs::{Action, EnvSnapshot, Environment, SnapshotError, VecEnv};
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
    pub fn reads_observations(&self) -> bool {
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
pub fn run_one(
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

/// Replay every task of `payload` in lockstep: one `VecEnv` lane per
/// task, each restored from the shared snapshot and reseeded with its
/// task seed, all lanes advanced together (which engages the SIMD ODE
/// batcher for homogeneous airdrop lanes above the calibrated crossover).
///
/// `force_batched` overrides the auto-detected batcher: `Some(true)`
/// installs it regardless of lane count, `Some(false)` forces the
/// scalar lockstep fallback, `None` keeps the crossover heuristic.
///
/// Returns one undiscounted return per task, in task order, bitwise
/// equal to [`run_whatif`] on the same payload: a lane stops
/// accumulating at its first `done` tick (the auto-reset episodes that
/// keep a finished lane steppable are ignored). A continuation that
/// reads observations gets each lane's own post-step observation exactly
/// as the scalar loop hands it over; one that does not
/// ([`ContinuationPolicy::reads_observations`]) keeps the action list it
/// started with and steps unobserved — no observation write and no
/// action clone per lane-tick.
pub fn run_whatif_batched(
    payload: &WhatIfPayload,
    force_batched: Option<bool>,
) -> Result<Vec<f64>, SnapshotError> {
    let n = payload.tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if payload.horizon == 0 {
        return Ok(vec![0.0; n]);
    }
    let mut envs: Vec<Box<dyn Environment>> = Vec::with_capacity(n);
    for task in &payload.tasks {
        let mut env = payload.env.build(0);
        env.restore(&payload.snapshot)?;
        env.seed(task.seed);
        envs.push(env);
    }
    // new_preseeded keeps the restored state — reset_all would wipe it.
    let mut venv = VecEnv::new_preseeded(envs);
    if let Some(on) = force_batched {
        venv.set_batched(on);
    }
    let observed = payload.policy.reads_observations();
    let mut returns = vec![0.0f64; n];
    let mut live = vec![true; n];
    let mut remaining = n;
    let mut actions: Vec<Action> = payload.tasks.iter().map(|t| t.first_action.clone()).collect();
    for _ in 0..payload.horizon {
        if observed {
            venv.step_lockstep(&actions);
        } else {
            venv.step_unobserved(&actions);
        }
        let tick = venv.last_tick();
        for i in 0..n {
            if !live[i] {
                continue; // auto-reset follow-on episode: not this task's return
            }
            returns[i] += tick.steps[i].reward;
            if tick.steps[i].done() {
                live[i] = false;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
        if observed {
            let obs = venv.observations();
            for i in 0..n {
                if live[i] {
                    actions[i] =
                        payload.policy.next_action(&payload.tasks[i].first_action, &obs[i]);
                }
                // Finished lanes keep their last action; whatever the
                // reset episode does with it is discarded above.
            }
        }
    }
    Ok(returns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
