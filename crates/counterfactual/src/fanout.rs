//! The [`Exec`] switch that makes the scalar loop, the lockstep runner
//! and the distributed runtime interchangeable, and the thread fan-out
//! that answers an episode's decision points on every core.
//!
//! The contract all three share is set by [`dist_exec::run_whatif`]: a
//! task's return depends only on `(snapshot, first_action, seed,
//! policy)`. [`run_whatif_batched`] reproduces it bitwise because each
//! task gets its *own* environment lane (restored and reseeded exactly
//! like the scalar loop) and the lockstep batcher is bit-compatible with
//! scalar stepping by the `VecEnv` parity guarantees; the distributed
//! path reproduces it because every worker answers its chunk through
//! that same runner.
//!
//! Grain of parallelism: the decision point. Every payload of an episode
//! is independent of every other, so `Exec::Batched` answers them on
//! scoped threads that pull the next payload from a shared index; inside
//! a payload the lanes advance in SIMD lockstep on one thread. Results
//! land in per-point slots and are read in point order after the join,
//! so no bit and no trace event depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dist_exec::{run_whatif, Runtime, RuntimeError, WhatIfPayload, WhatIfTask};
use gymrs::SnapshotError;

pub use dist_exec::run_whatif_batched;

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

/// Which machinery answers a what-if payload. All variants are bitwise
/// interchangeable (the parity suite pins this); they differ only in
/// wall-clock shape.
pub enum Exec<'rt, 'f> {
    /// The reference loop: one env, tasks in sequence.
    Scalar,
    /// [`run_whatif_batched`]: one `VecEnv` lane per task, and — when
    /// an analysis hands over an episode's payloads together — one
    /// payload per thread at a time.
    Batched {
        /// Batcher override, as in [`run_whatif_batched`].
        force: Option<bool>,
    },
    /// [`Runtime::whatif_round`]: tasks split into contiguous per-worker
    /// chunks, each answered by [`run_whatif_batched`] on its worker, over
    /// whatever transport the runtime runs on.
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

    /// Answer `payloads` (one per decision point), in payload order. The
    /// result either has one entry per payload or ends with the first
    /// error met. `Batched` spreads the payloads over up to `threads`
    /// threads, none of which outlives the call; the other two answer
    /// them one after another and stop at the first failure.
    pub(crate) fn run_all(
        &mut self,
        payloads: &[WhatIfPayload],
        threads: usize,
    ) -> Vec<Result<Vec<f64>, CfError>> {
        if let Exec::Batched { force } = self {
            return fan_out(payloads, *force, threads);
        }
        let mut answers = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let answer = self.run(payload);
            let failed = answer.is_err();
            answers.push(answer);
            if failed {
                break;
            }
        }
        answers
    }
}

/// [`run_whatif_batched`] over every payload on `threads.min(payloads)`
/// threads — the caller's plus scoped ones, so one thread spawns nothing.
/// Each thread claims the next unanswered index and fills that index's
/// slot; which thread answered a payload leaves no mark on its returns.
fn fan_out(
    payloads: &[WhatIfPayload],
    force: Option<bool>,
    threads: usize,
) -> Vec<Result<Vec<f64>, CfError>> {
    // Relaxed: the index publishes no data. The payloads are shared
    // borrows, a slot synchronises its own write, and the scope's join
    // orders every write before the reads below.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<Vec<f64>, SnapshotError>>> =
        payloads.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(payload) = payloads.get(i) else { break };
        let fresh = slots[i].set(run_whatif_batched(payload, force)).is_ok();
        debug_assert!(fresh, "index {i} was handed out twice");
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(payloads.len()) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| Ok(slot.into_inner().expect("every index below the length was answered")?))
        .collect()
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
    use gymrs::Action;

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
    fn fan_out_answers_in_payload_order_at_any_width() {
        let payloads: Vec<WhatIfPayload> =
            (3..6).map(|n_tasks| payload(EnvBlueprint::AirdropFast, n_tasks, 10)).collect();
        let one_by_one: Vec<Vec<u64>> =
            payloads.iter().map(|p| bits(&run_whatif(p).expect("scalar"))).collect();
        // One thread, fewer threads than payloads, more threads than payloads.
        for threads in [1, 2, 8] {
            let answers: Vec<Vec<u64>> = Exec::Batched { force: None }
                .run_all(&payloads, threads)
                .into_iter()
                .map(|a| bits(&a.expect("runs")))
                .collect();
            assert_eq!(answers, one_by_one, "{threads} threads");
        }
        assert!(Exec::Batched { force: None }.run_all(&[], 4).is_empty());
    }

    #[test]
    fn in_order_executors_stop_at_the_first_failure() {
        let mut payloads: Vec<WhatIfPayload> =
            (0..4).map(|_| payload(EnvBlueprint::Grid { n: 5 }, 2, 10)).collect();
        payloads[1].env = EnvBlueprint::Pendulum;
        let answers = Exec::Scalar.run_all(&payloads, 4);
        assert_eq!(answers.len(), 2, "nothing is run past the failure");
        assert!(answers[0].is_ok());
        assert!(matches!(answers[1], Err(CfError::Snapshot(SnapshotError::Mismatch("kind")))));
        // The thread fan-out answers everything and keeps the failure in its slot.
        let answers = Exec::Batched { force: None }.run_all(&payloads, 2);
        assert_eq!(
            answers.iter().map(Result::is_ok).collect::<Vec<_>>(),
            [true, false, true, true]
        );
    }

    #[test]
    fn exec_scalar_and_batched_agree_through_the_switch() {
        let p = payload(EnvBlueprint::Grid { n: 5 }, 5, 30);
        let a = Exec::Scalar.run(&p).expect("scalar");
        let b = Exec::Batched { force: Some(true) }.run(&p).expect("batched");
        assert_eq!(bits(&a), bits(&b));
    }
}
