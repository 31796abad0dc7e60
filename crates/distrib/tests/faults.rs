//! Chaos suite for the fault-tolerant execution runtime.
//!
//! Every test hands a deterministic [`FaultPlan`] (schedule-addressed
//! worker panics, crashes, hangs and slowdowns) to the run that should
//! suffer it — on its `ExecSpec` / `ImpalaOpts`, or at `Runtime` spawn —
//! so the tests run side by side; each runs real training
//! through the public backend entry points, and asserts the three
//! invariants the fault policy promises:
//!
//! 1. **No study abort** — faults the policy can absorb never surface;
//!    faults it cannot absorb surface as `Err`, never as a panic.
//! 2. **Merge determinism** — the surviving-worker merge stays in
//!    worker-index order, so a faulted run repeated under the same plan
//!    is bitwise identical, and a quarantined worker's absence looks
//!    exactly like a smaller clean deployment.
//! 3. **Accounting reconciliation** — the telemetry snapshot rolls up to
//!    the cluster session's usage bit for bit even when retry backoff
//!    and quarantines land in the books mid-trial.

#![cfg(feature = "fault-inject")]

mod common;

use cluster_sim::{ClusterSpec, Usage};
use common::{fingerprint, grid_factory};
use dist_exec::backend::run_recorded;
use dist_exec::runtime::{
    Collector, FaultKind, FaultPlan, FaultPolicy, RngStream, Runtime, RuntimeError, WorkerSpec,
};
use dist_exec::{train_impala, Deployment, ExecSpec, Framework, ImpalaOpts, TransportConfig};
use gymrs::envs::GridWorld;
use gymrs::{Environment, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::policy::ActorCritic;
use rl_algos::Algorithm;
use std::sync::Arc;
use testkit::sweep;

/// The four backends, addressed uniformly for the chaos sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Sb3,
    Tfa,
    Rllib,
    Impala,
}

const TARGETS: [Target; 4] = [Target::Sb3, Target::Tfa, Target::Rllib, Target::Impala];

impl Target {
    /// Runtime actors this target spawns (the fault plan's worker-index
    /// address space). SB3/TF-Agents run one vectorized actor.
    fn workers(self) -> usize {
        match self {
            Target::Sb3 | Target::Tfa => 1,
            Target::Rllib | Target::Impala => 4,
        }
    }

    fn nodes(self) -> usize {
        match self {
            Target::Sb3 | Target::Tfa => 1,
            Target::Rllib | Target::Impala => 2,
        }
    }

    /// Collection rounds each chaos run executes (1024 steps / 256 per
    /// round) — the fault plan's round address space.
    fn rounds(self) -> u64 {
        4
    }
}

/// Run one full training on `target` under `plan`, assert the telemetry
/// rollup reconciles with the session accounting bitwise, and return
/// `(fingerprint, degraded)`.
fn run_target(
    target: Target,
    fault: FaultPolicy,
    plan: &FaultPlan,
) -> Result<(Vec<u64>, bool), String> {
    let deployment = Deployment { nodes: target.nodes(), cores_per_node: 2 };
    let ring = Arc::new(telemetry::RingRecorder::new());
    let (returns, usage, degraded) = match target {
        Target::Impala => {
            let opts = ImpalaOpts {
                deployment,
                total_steps: 1_024,
                seed: 23,
                config: rl_algos::impala::ImpalaConfig {
                    hidden: vec![16, 16],
                    n_steps: 256,
                    ..Default::default()
                },
                actor_sync_period: 2,
                fault,
                window: None,
                transport: None,
                fault_plan: plan.clone(),
            };
            let report = train_impala(&opts, &grid_factory(), ring.clone())?;
            (report.train_returns, report.usage, report.degraded)
        }
        _ => {
            let framework = match target {
                Target::Sb3 => Framework::StableBaselines,
                Target::Tfa => Framework::TfAgents,
                _ => Framework::RayRllib,
            };
            let mut spec = ExecSpec::new(framework, Algorithm::Ppo, deployment, 1_024, 23);
            spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
            spec.fault = fault;
            spec.fault_plan = plan.clone();
            let report = run_recorded(&spec, &grid_factory(), ring.clone())?;
            (report.train_returns, report.usage, report.degraded)
        }
    };

    // Invariant 3: the recorder's view of the trial rolls up to the
    // session's usage bit for bit, faults and all.
    let rolled =
        Usage::from_snapshot(&ring.snapshot(), &ClusterSpec::paper_testbed(target.nodes()));
    assert_eq!(
        rolled.wall_s.to_bits(),
        usage.wall_s.to_bits(),
        "{target:?}: telemetry wall-clock must reconcile under faults"
    );
    assert_eq!(
        rolled.energy_j.to_bits(),
        usage.energy_j.to_bits(),
        "{target:?}: telemetry energy must reconcile under faults"
    );

    Ok((fingerprint(&returns, &usage), degraded))
}

/// A policy generous enough to absorb every chaos schedule: more
/// retries than any schedule has faults at one address.
fn chaos_policy() -> FaultPolicy {
    FaultPolicy {
        max_retries: 4,
        backoff_base_s: 0.25,
        backoff_factor: 2.0,
        quarantine: true,
        recv_timeout_ms: Some(5_000),
    }
}

/// Enough consecutive crashes at one `(worker, round)` address to blow
/// through [`FaultPolicy::resilient`]'s retry budget and quarantine the
/// worker even though a respawn factory is available.
fn lethal_plan(worker: usize, round: u64) -> FaultPlan {
    let crashes = FaultPolicy::resilient().max_retries + 1;
    FaultPlan::new().repeated(worker, round, FaultKind::Crash, crashes)
}

// ---- tentpole acceptance: kill one worker at round k ------------------

#[test]
fn killed_worker_degrades_but_completes_and_reproduces() {
    let plan = lethal_plan(1, 1);
    for target in [Target::Rllib, Target::Impala] {
        let (a, degraded_a) = run_target(target, FaultPolicy::resilient(), &plan)
            .unwrap_or_else(|e| panic!("{target:?}: study aborted: {e}"));
        let (b, degraded_b) = run_target(target, FaultPolicy::resilient(), &plan)
            .unwrap_or_else(|e| panic!("{target:?}: study aborted: {e}"));
        assert!(degraded_a, "{target:?}: a quarantine must set the DegradedResult flag");
        assert_eq!(degraded_a, degraded_b);
        assert_eq!(a, b, "{target:?}: a degraded run must still be bitwise reproducible");
    }
}

#[test]
fn quarantined_merge_matches_a_smaller_clean_runtime() {
    // Runtime-level form of the acceptance bar: kill the *last* of three
    // workers and the surviving merge must be bitwise the one a clean
    // two-worker runtime produces — same segments, same order.
    let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(5));
    let collector = |w: u64| {
        let mut env = GridWorld::new(3);
        env.seed(w + 1);
        let obs = env.reset();
        Collector::PerEnv { env: Box::new(env), obs }
    };
    let rngs = |n: usize, round: u64| -> Vec<RngStream> {
        (0..n).map(|w| RngStream::fresh(100 * round + w as u64)).collect()
    };

    let specs = (0..3).map(|w| WorkerSpec::new(0, collector(w))).collect();
    let mut faulted =
        Runtime::spawn_faulted(specs, &policy, TransportConfig::InProcess, lethal_plan(2, 0))
            .with_fault_policy(FaultPolicy::resilient());

    let specs = (0..2).map(|w| WorkerSpec::new(0, collector(w))).collect();
    let mut clean = Runtime::spawn(specs, &policy);

    for round in 0..2u64 {
        let f = faulted.collect_round(round, 16, rngs(3, round)).expect("survivors collect");
        let c = clean.collect_round(round, 16, rngs(2, round)).expect("clean collects");
        if round == 0 {
            assert_eq!(f.faults.quarantined.len(), 1, "worker 2 must be quarantined in round 0");
            assert_eq!(f.faults.quarantined[0].worker, 2);
        }
        assert!(faulted.is_degraded());
        assert_eq!(faulted.active_workers(), 2);
        assert_eq!(f.segments.len(), c.segments.len(), "round {round}: surviving-worker set");
        for (fs, cs) in f.segments.iter().zip(&c.segments) {
            assert_eq!(fs.worker, cs.worker, "round {round}: index-ordered merge");
            assert_eq!(fs.segment.rollout.actions, cs.segment.rollout.actions);
            assert_eq!(
                bits(&fs.segment.rollout.values),
                bits(&cs.segment.rollout.values),
                "round {round}, worker {}: values must match bitwise",
                fs.worker
            );
            assert_eq!(bits(&fs.segment.rollout.log_probs), bits(&cs.segment.rollout.log_probs));
            assert_eq!(bits(&fs.segment.rollout.rewards), bits(&cs.segment.rollout.rewards));
        }
    }
    faulted.shutdown();
    clean.shutdown();
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

// ---- hangs ------------------------------------------------------------

#[test]
fn hung_worker_is_quarantined_under_a_resilient_policy() {
    let plan = FaultPlan::new().fault(3, 1, FaultKind::Hang { millis: 600 });
    let policy = FaultPolicy { recv_timeout_ms: Some(100), ..FaultPolicy::resilient() };
    let (_, degraded) =
        run_target(Target::Rllib, policy, &plan).expect("the study must survive a hang");
    assert!(degraded, "a timed-out worker is a quarantine, hence a degraded result");
}

#[test]
fn hung_worker_fails_fast_by_default() {
    let plan = FaultPlan::new().fault(3, 1, FaultKind::Hang { millis: 600 });
    let policy = FaultPolicy { recv_timeout_ms: Some(100), ..FaultPolicy::fail_fast() };
    let err =
        run_target(Target::Rllib, policy, &plan).expect_err("fail-fast must surface the hang");
    assert!(err.contains("timed out"), "error names the hang: {err}");
    assert_eq!(
        err,
        RuntimeError::WorkerTimedOut { worker: 3, round: 1 }.to_string(),
        "the error carries the worker and round"
    );
}

// ---- satellite: failures are errors, never panics ---------------------

#[test]
fn failures_error_instead_of_panicking_on_every_backend() {
    let plan = FaultPlan::new().fault(0, 0, FaultKind::Crash);
    for target in TARGETS {
        let err = run_target(target, FaultPolicy::fail_fast(), &plan)
            .expect_err("fail-fast turns the crash into an Err");
        assert!(
            err.contains("worker 0") && err.contains("round 0"),
            "{target:?}: error locates the failure: {err}"
        );
    }
}

// ---- chaos sweep ------------------------------------------------------

/// 16 seeded random fault schedules × 4 backends = 64 chaos runs,
/// each executed twice: none may abort, and each pair must agree
/// bitwise (the telemetry reconciliation runs inside `run_target`).
#[test]
fn random_fault_schedules_never_abort_and_stay_deterministic() {
    sweep(16, 0xFA17, |g| {
        let seed = g.int_in(0u64..1 << 16);
        for target in TARGETS {
            let plan = FaultPlan::random(seed, target.workers(), target.rounds(), 2);
            let (a, degraded_a) = run_target(target, chaos_policy(), &plan)
                .unwrap_or_else(|e| panic!("{target:?} seed {seed}: study aborted: {e}"));
            let (b, degraded_b) = run_target(target, chaos_policy(), &plan)
                .unwrap_or_else(|e| panic!("{target:?} seed {seed}: repeat aborted: {e}"));
            assert_eq!(&a, &b, "{:?} seed {}: chaos runs must be bitwise identical", target, seed);
            assert_eq!(degraded_a, degraded_b);
        }
    });
}
