//! The [`Exec`] switch between the scalar loop and the lockstep runner,
//! and how an episode's decision points are answered on every core.
//!
//! The contract both share is set by [`dist_exec::run_whatif`]: a task's
//! return depends only on `(snapshot, first_action, seed, policy)`.
//! [`run_whatif_batched`] reproduces it bitwise because each distinct
//! continuation gets its *own* environment lane (restored and reseeded
//! exactly like the scalar loop), the tasks sharing a lane could not have
//! differed ([`LanePlan`](dist_exec::runtime::whatif::LanePlan)), and
//! gym's lockstep runner steps each lane bit for bit as its scalar
//! stepping would, batcher or not.
//!
//! Grain of parallelism: the decision point. Every payload of an episode
//! is independent of every other, so [`Exec::run_all`] answers them with
//! `decision`'s thread fan-out ([`map_blocks`], one payload per block) —
//! on the caller's thread alone for `Exec::Scalar`, on up to `threads`
//! threads for `Exec::Batched` — and inside a payload the lanes advance in
//! SIMD lockstep on one thread. Answers come back in point order, so no
//! bit and no trace event depends on the thread count.

use decision::spread::map_blocks;
use dist_exec::{run_whatif, run_whatif_batched, WhatIfPayload};
use gymrs::SnapshotError;

/// Which machinery answers a what-if payload. Both variants are bitwise
/// interchangeable (the parity suite pins this); they differ only in
/// wall-clock shape.
#[derive(Clone)]
pub enum Exec {
    /// The reference loop: one env, tasks in sequence.
    Scalar,
    /// [`run_whatif_batched`]: one lockstep lane per distinct
    /// continuation, and — when an analysis hands over an episode's
    /// payloads together — one payload per thread at a time.
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

    /// Answer `payloads` (one per decision point), in payload order, one
    /// answer each. `Batched` spreads the payloads over up to `threads`
    /// threads, each with its own copy of the executor, none of which
    /// outlives the call; `Scalar` answers them one after another on this
    /// one.
    pub(crate) fn run_all(
        &self,
        payloads: &[WhatIfPayload],
        threads: usize,
    ) -> Vec<Result<Vec<f64>, SnapshotError>> {
        let threads = match self {
            Exec::Scalar => 1,
            Exec::Batched { .. } => threads.min(payloads.len()),
        };
        map_blocks(payloads.len(), threads, 1, || self.clone(), |exec, i| exec.run(&payloads[i]))
    }
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
    fn both_executors_answer_every_payload_and_keep_a_failure_in_its_slot() {
        let mut payloads: Vec<WhatIfPayload> =
            (0..4).map(|_| payload(EnvBlueprint::Grid { n: 5 }, 2, 10)).collect();
        payloads[1].env = EnvBlueprint::Pendulum;
        for exec in [Exec::Scalar, Exec::Batched { force: None }] {
            let answers = exec.run_all(&payloads, 2);
            assert_eq!(
                answers.iter().map(Result::is_ok).collect::<Vec<_>>(),
                [true, false, true, true]
            );
            assert_eq!(answers[1], Err(SnapshotError::Mismatch("kind")));
        }
    }

    #[test]
    fn exec_scalar_and_batched_agree_through_the_switch() {
        let p = payload(EnvBlueprint::Grid { n: 5 }, 5, 30);
        let a = Exec::Scalar.run(&p).expect("scalar");
        let b = Exec::Batched { force: Some(true) }.run(&p).expect("batched");
        assert_eq!(bits(&a), bits(&b));
    }
}
