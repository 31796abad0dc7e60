//! Determinism regression tests for the actor-style execution runtime.
//!
//! The runtime drains worker segments into worker-index order before any
//! learner sees them, so training must be bitwise reproducible no matter
//! how the OS schedules the worker threads. These tests force adversarial
//! schedules from the test's side of the `Environment` interface (a
//! wrapper that naps before each step, longest for the lowest worker
//! index) and assert that the multi-node RLlib-like and IMPALA-like
//! backends report *identical* rewards, simulated wall-clock and energy
//! with and without the skew. Nothing process-wide is involved: the skew
//! belongs to the factory a run is given, so the tests run side by side.

mod common;

use common::{fingerprint, grid_factory, impala_opts, ppo_spec};
use dist_exec::backend::{run, EnvFactory, FnEnvFactory};
use dist_exec::backends::common::worker_seed;
use dist_exec::spec::{Deployment, ExecSpec};
use dist_exec::{train_impala, Framework, ImpalaOpts};
use gymrs::envs::GridWorld;
use gymrs::{Action, Environment, Space, Step};
use rl_algos::Algorithm;
use std::time::Duration;

/// A test-side [`Environment`] newtype: the stepping interface goes
/// straight through to `inner`, after a nap per step. `as_any_mut` and
/// `lockstep_batcher` keep their defaults, so a `VecEnv` of these steps
/// every lane on the scalar path whatever `inner` could batch.
struct Wrapped<E> {
    inner: E,
    nap: Duration,
}

impl<E: Environment> Environment for Wrapped<E> {
    fn observation_space(&self) -> Space {
        self.inner.observation_space()
    }
    fn action_space(&self) -> Space {
        self.inner.action_space()
    }
    fn seed(&mut self, seed: u64) {
        self.inner.seed(seed)
    }
    fn reset(&mut self) -> Vec<f64> {
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> Step {
        std::thread::sleep(self.nap);
        self.inner.step(action)
    }
    fn last_step_work(&self) -> u64 {
        self.inner.last_step_work()
    }
}

/// Master seed of the two grid-world runs below; the skewed factory
/// recognises worker `w`'s environment by `worker_seed(SEED, w, 0)`.
const SEED: u64 = 13;

/// Per-step naps (µs) of workers 0–3. Worker 0 is slowest, so segments
/// complete in the reverse of index order — the worst case for a merge
/// that must end up in index order. At 32–64 steps a round the skew is
/// tens of milliseconds a round.
const NAPS_US: [u64; 4] = [1_000, 750, 500, 250];

/// [`grid_factory`] with the [`NAPS_US`] skew.
fn skewed_grid_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let nap = (0..NAPS_US.len())
            .find(|&w| worker_seed(SEED, w, 0) == seed)
            .map_or(Duration::ZERO, |w| Duration::from_micros(NAPS_US[w]));
        let mut inner = GridWorld::new(3);
        inner.seed(seed);
        Box::new(Wrapped { inner, nap }) as Box<dyn Environment>
    })
}

fn run_rllib_two_nodes(factory: &dyn EnvFactory) -> Vec<u64> {
    let mut spec = ExecSpec::new(
        Framework::RayRllib,
        Algorithm::Ppo,
        Deployment { nodes: 2, cores_per_node: 2 },
        512,
        SEED,
    );
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    let report = run(&spec, factory).expect("rllib runs");
    fingerprint(&report.train_returns, &report.usage)
}

fn run_impala_two_nodes(factory: &dyn EnvFactory) -> Vec<u64> {
    let opts = ImpalaOpts {
        deployment: Deployment { nodes: 2, cores_per_node: 4 },
        total_steps: 1_024,
        seed: SEED,
        config: rl_algos::impala::ImpalaConfig {
            hidden: vec![16, 16],
            n_steps: 256,
            ..Default::default()
        },
        actor_sync_period: 4,
        ..Default::default()
    };
    let report = train_impala(&opts, factory, telemetry::null_recorder()).expect("impala runs");
    fingerprint(&report.train_returns, &report.usage)
}

/// Run `f` with workers skewed so that *later* workers answer *first*,
/// then with no skew, and demand identical bits.
fn assert_schedule_independent(label: &str, f: fn(&dyn EnvFactory) -> Vec<u64>) {
    let skewed = f(&skewed_grid_factory());
    let clean = f(&grid_factory());
    assert_eq!(
        skewed, clean,
        "{label}: reports must be bitwise identical regardless of worker completion order"
    );
}

#[test]
fn rllib_reports_are_independent_of_worker_completion_order() {
    assert_schedule_independent("rllib 2n2c ppo", run_rllib_two_nodes);
}

#[test]
fn impala_reports_are_independent_of_worker_completion_order() {
    assert_schedule_independent("impala 2n4c", run_impala_two_nodes);
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let factory = grid_factory();
    assert_eq!(run_rllib_two_nodes(&factory), run_rllib_two_nodes(&factory));
    assert_eq!(run_impala_two_nodes(&factory), run_impala_two_nodes(&factory));
}

// ---- batched ODE fast path -------------------------------------------
//
// The backends drive airdrop environments through `VecEnv`s of boxed
// envs; with batching auto-detected those take one SoA integrator call
// per substep instead of n scalar integrations. The fast path promises
// bitwise-identical training — these regressions run each backend on
// plain airdrop environments (batcher auto-detected) and on the same
// environments behind [`Wrapped`] (no batcher to detect: the scalar
// path) and demand identical report bits.

/// Airdrop environments, bare (`batchable`) or behind [`Wrapped`].
fn airdrop_factory(batchable: bool) -> impl EnvFactory {
    FnEnvFactory(move |seed| {
        let mut e = airdrop_sim::AirdropEnv::new(airdrop_sim::AirdropConfig::fast_test());
        e.seed(seed);
        if batchable {
            Box::new(e) as Box<dyn Environment>
        } else {
            Box::new(Wrapped { inner: e, nap: Duration::ZERO })
        }
    })
}

fn run_airdrop(framework: Framework, batchable: bool) -> Vec<u64> {
    let report =
        run(&ppo_spec(framework, None), &airdrop_factory(batchable)).expect("backend runs");
    fingerprint(&report.train_returns, &report.usage)
}

fn run_airdrop_impala(batchable: bool) -> Vec<u64> {
    let report =
        train_impala(&impala_opts(None), &airdrop_factory(batchable), telemetry::null_recorder())
            .expect("impala runs");
    fingerprint(&report.train_returns, &report.usage)
}

/// Run `f(batchable)` with the batched lockstep fast path available and
/// hidden and demand bitwise-identical reports.
fn assert_batching_invisible(label: &str, f: impl Fn(bool) -> Vec<u64>) {
    let batched = f(true);
    let scalar = f(false);
    assert_eq!(
        batched, scalar,
        "{label}: the batched ODE fast path must not change a single bit of the report"
    );
}

#[test]
fn sb3_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("sb3 1n2c ppo airdrop", |b| {
        run_airdrop(Framework::StableBaselines, b)
    });
}

#[test]
fn tfa_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("tfa 1n2c ppo airdrop", |b| run_airdrop(Framework::TfAgents, b));
}

#[test]
fn rllib_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("rllib 2n2c ppo airdrop", |b| run_airdrop(Framework::RayRllib, b));
}

#[test]
fn impala_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("impala 2n2c airdrop", run_airdrop_impala);
}

// ---- degraded runs ----------------------------------------------------
//
// A worker quarantined mid-study must not cost determinism: the merge
// over the *surviving* worker set stays in worker-index order, so the
// degraded run is as schedule-independent as a clean one. Needs the
// fault-injection layer, so it only compiles with `--features
// fault-inject` (the CI chaos job runs it).

#[cfg(feature = "fault-inject")]
fn run_rllib_with_midstudy_quarantine(factory: &dyn EnvFactory) -> Vec<u64> {
    use dist_exec::runtime::{FaultKind, FaultPlan};
    use dist_exec::FaultPolicy;

    let mut spec = ExecSpec::new(
        Framework::RayRllib,
        Algorithm::Ppo,
        Deployment { nodes: 2, cores_per_node: 2 },
        1_024,
        SEED,
    );
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    spec.fault = FaultPolicy::resilient();
    // Enough consecutive crashes at (worker 3, round 1) to exhaust the
    // resilient policy's retries and quarantine the worker mid-study.
    spec.fault_plan = FaultPlan::new().repeated(3, 1, FaultKind::Crash, spec.fault.max_retries + 1);
    let report = run(&spec, factory).expect("the degraded study must still complete");
    assert!(report.degraded, "the quarantine must be reported");
    fingerprint(&report.train_returns, &report.usage)
}

#[cfg(feature = "fault-inject")]
#[test]
fn quarantine_mid_study_keeps_the_surviving_merge_schedule_independent() {
    assert_schedule_independent(
        "rllib 2n2c ppo, worker 3 quarantined in round 1",
        run_rllib_with_midstudy_quarantine,
    );
}
