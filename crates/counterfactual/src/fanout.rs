//! Fan-out executors for what-if task sets: one batched lockstep runner
//! plus the [`Exec`] switch that makes the scalar loop, the batched path
//! and the distributed runtime interchangeable.
//!
//! The contract all three share is set by [`dist_exec::run_whatif`]: a
//! task's return depends only on `(snapshot, first_action, seed,
//! policy)`. The batched runner reproduces it bitwise because each task
//! gets its *own* environment lane (restored and reseeded exactly like
//! the scalar loop) and the lockstep batcher is bit-compatible with
//! scalar stepping by the `VecEnv` parity guarantees; the distributed
//! path reproduces it because workers literally call `run_whatif`.

use dist_exec::{run_whatif, Runtime, RuntimeError, WhatIfPayload, WhatIfTask};
use gymrs::{Action, Environment, SnapshotError, VecEnv};

/// Why a counterfactual fan-out failed.
#[derive(Debug)]
pub enum CfError {
    /// A snapshot did not fit the environment it was restored into.
    Snapshot(SnapshotError),
    /// The distributed runtime lost or timed out a worker.
    Runtime(RuntimeError),
    /// The distributed runtime answered fewer returns than tasks sent —
    /// some chunk landed on a quarantined worker and was skipped.
    Incomplete {
        /// Tasks dispatched.
        expected: usize,
        /// Returns received.
        got: usize,
    },
}

impl std::fmt::Display for CfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfError::Snapshot(e) => write!(f, "counterfactual replay rejected: {e}"),
            CfError::Runtime(e) => write!(f, "counterfactual fan-out failed: {e}"),
            CfError::Incomplete { expected, got } => {
                write!(f, "counterfactual fan-out incomplete: {got} of {expected} returns")
            }
        }
    }
}

impl std::error::Error for CfError {}

impl From<SnapshotError> for CfError {
    fn from(e: SnapshotError) -> Self {
        CfError::Snapshot(e)
    }
}

impl From<RuntimeError> for CfError {
    fn from(e: RuntimeError) -> Self {
        CfError::Runtime(e)
    }
}

/// Replay every task of `payload` through the batched lockstep path:
/// one `VecEnv` lane per task, each restored from the shared snapshot
/// and reseeded with its task seed, all lanes advanced together by
/// [`VecEnv::step_lockstep`] (which engages the SIMD ODE batcher for
/// homogeneous airdrop lanes above the calibrated crossover).
///
/// `force_batched` overrides the auto-detected batcher: `Some(true)`
/// installs it regardless of lane count, `Some(false)` forces the
/// scalar lockstep fallback, `None` keeps the crossover heuristic.
///
/// Returns one undiscounted return per task, in task order, bitwise
/// equal to [`dist_exec::run_whatif`] on the same payload: a lane stops
/// accumulating at its first `done` tick (the auto-reset episodes that
/// keep a finished lane steppable are ignored), and the continuation
/// action is computed from the lane's own post-step observation exactly
/// as the scalar loop does.
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
    let mut returns = vec![0.0f64; n];
    let mut live = vec![true; n];
    let mut remaining = n;
    let mut actions: Vec<Action> = payload.tasks.iter().map(|t| t.first_action.clone()).collect();
    for _ in 0..payload.horizon {
        venv.step_lockstep(&actions);
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
        let obs = venv.observations();
        for i in 0..n {
            if live[i] {
                actions[i] = payload.policy.next_action(&payload.tasks[i].first_action, &obs[i]);
            }
            // Finished lanes keep their last action; whatever the reset
            // episode does with it is discarded above.
        }
    }
    Ok(returns)
}

/// Which machinery answers a what-if payload. All variants are bitwise
/// interchangeable (the parity suite pins this); they differ only in
/// wall-clock shape.
pub enum Exec<'rt, 'f> {
    /// The reference loop: one env, tasks in sequence.
    Scalar,
    /// [`run_whatif_batched`]: one `VecEnv` lane per task.
    Batched {
        /// Batcher override, as in [`run_whatif_batched`].
        force: Option<bool>,
    },
    /// [`Runtime::whatif_round`]: tasks split into contiguous per-worker
    /// chunks, answered over whatever transport the runtime runs on.
    Distributed {
        /// The worker pool to fan out over.
        runtime: &'rt mut Runtime<'f>,
        /// Order counter; bumped before each round so stale answers from
        /// earlier rounds are discarded. Start anywhere.
        round: u64,
    },
}

impl Exec<'_, '_> {
    /// Run one payload, returning per-task returns in task order.
    pub fn run(&mut self, payload: &WhatIfPayload) -> Result<Vec<f64>, CfError> {
        match self {
            Exec::Scalar => Ok(run_whatif(payload)?),
            Exec::Batched { force } => Ok(run_whatif_batched(payload, *force)?),
            Exec::Distributed { runtime, round } => {
                *round += 1;
                let chunks = split_contiguous(&payload.tasks, runtime.n_workers());
                let merged = runtime.whatif_round(
                    *round,
                    &payload.env,
                    &payload.snapshot,
                    payload.horizon,
                    &payload.policy,
                    chunks,
                )?;
                let returns: Vec<f64> = merged.into_iter().flatten().collect();
                if returns.len() != payload.tasks.len() {
                    return Err(CfError::Incomplete {
                        expected: payload.tasks.len(),
                        got: returns.len(),
                    });
                }
                Ok(returns)
            }
        }
    }
}

/// Split `tasks` into `n` contiguous chunks whose concatenation is the
/// original order (the first `len % n` chunks are one task longer), so
/// the worker-index-ordered merge of [`Runtime::whatif_round`] restores
/// task order by plain flattening.
fn split_contiguous(tasks: &[WhatIfTask], n: usize) -> Vec<Vec<WhatIfTask>> {
    assert!(n > 0, "need at least one worker");
    let base = tasks.len() / n;
    let extra = tasks.len() % n;
    let mut chunks = Vec::with_capacity(n);
    let mut at = 0;
    for w in 0..n {
        let take = base + usize::from(w < extra);
        chunks.push(tasks[at..at + take].to_vec());
        at += take;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist_exec::{ContinuationPolicy, EnvBlueprint};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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

    fn first_action(blueprint: &EnvBlueprint) -> Action {
        match blueprint.build(0).action_space() {
            gymrs::Space::Discrete(_) => Action::Discrete(1),
            gymrs::Space::Box { low, high } => Action::Continuous(
                low.iter().zip(&high).map(|(&l, &h)| 0.5 * (l.max(-1.0) + h.min(1.0))).collect(),
            ),
        }
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
    fn contiguous_split_preserves_order_and_balance() {
        let tasks: Vec<WhatIfTask> =
            (0..7).map(|i| WhatIfTask { first_action: Action::Discrete(0), seed: i }).collect();
        let chunks = split_contiguous(&tasks, 3);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 2, 2]);
        let flat: Vec<u64> = chunks.into_iter().flatten().map(|t| t.seed).collect();
        assert_eq!(flat, (0..7).collect::<Vec<u64>>());
        // More workers than tasks: trailing chunks are empty, order kept.
        let chunks = split_contiguous(&tasks[..2], 4);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn exec_scalar_and_batched_agree_through_the_switch() {
        let p = payload(EnvBlueprint::Grid { n: 5 }, 5, 30);
        let a = Exec::Scalar.run(&p).expect("scalar");
        let b = Exec::Batched { force: Some(true) }.run(&p).expect("batched");
        assert_eq!(bits(&a), bits(&b));
    }
}
