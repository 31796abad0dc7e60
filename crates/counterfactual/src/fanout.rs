//! The [`Exec`] switch between the scalar loop and the lockstep runner,
//! and the thread fan-out that answers an episode's decision points on
//! every core.
//!
//! The contract both share is set by [`dist_exec::run_whatif`]: a task's
//! return depends only on `(snapshot, first_action, seed, policy)`.
//! [`run_whatif_batched`] reproduces it bitwise because each distinct
//! continuation gets its *own* environment lane (restored and reseeded
//! exactly like the scalar loop), the tasks sharing a lane could not have
//! differed ([`LanePlan`](dist_exec::runtime::whatif::LanePlan)), and the
//! lockstep batcher is bit-compatible with scalar stepping by the `VecEnv`
//! parity guarantees.
//!
//! Grain of parallelism: the decision point. Every payload of an episode
//! is independent of every other, so `Exec::Batched` answers them on
//! scoped threads that pull the next payload from a shared index; inside
//! a payload the lanes advance in SIMD lockstep on one thread. Results
//! land in per-point slots and are read in point order after the join,
//! so no bit and no trace event depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dist_exec::{run_whatif, run_whatif_batched, WhatIfPayload};
use gymrs::SnapshotError;

/// Which machinery answers a what-if payload. Both variants are bitwise
/// interchangeable (the parity suite pins this); they differ only in
/// wall-clock shape.
pub enum Exec {
    /// The reference loop: one env, tasks in sequence.
    Scalar,
    /// [`run_whatif_batched`]: one `VecEnv` lane per distinct
    /// continuation, and — when
    /// an analysis hands over an episode's payloads together — one
    /// payload per thread at a time.
    Batched {
        /// Batcher override, as in [`run_whatif_batched`].
        force: Option<bool>,
    },
}

impl Exec {
    /// Run one payload, returning per-task returns in task order.
    pub fn run(&mut self, payload: &WhatIfPayload) -> Result<Vec<f64>, SnapshotError> {
        match self {
            Exec::Scalar => run_whatif(payload),
            Exec::Batched { force } => run_whatif_batched(payload, *force),
        }
    }

    /// Answer `payloads` (one per decision point), in payload order. The
    /// result either has one entry per payload or ends with the first
    /// error met. `Batched` spreads the payloads over up to `threads`
    /// threads, none of which outlives the call; `Scalar` answers them
    /// one after another and stops at the first failure.
    pub(crate) fn run_all(
        &mut self,
        payloads: &[WhatIfPayload],
        threads: usize,
    ) -> Vec<Result<Vec<f64>, SnapshotError>> {
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
) -> Vec<Result<Vec<f64>, SnapshotError>> {
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
        .map(|slot| slot.into_inner().expect("every index below the length was answered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfTask};
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
        assert_eq!(answers[1], Err(SnapshotError::Mismatch("kind")));
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
