//! Determinism regression tests for the actor-style execution runtime.
//!
//! The runtime drains worker segments into worker-index order before any
//! learner sees them, so training must be bitwise reproducible no matter
//! how the OS schedules the worker threads. These tests force adversarial
//! schedules with the runtime's test-only stagger hook (artificial
//! per-worker delays injected before each collect) and assert that the
//! multi-node RLlib-like and IMPALA-like backends report *identical*
//! rewards, simulated wall-clock and energy with and without the skew.
//!
//! The stagger hook is process-global, so every test that touches it
//! serializes on [`HOOK_LOCK`].

mod common;

use common::grid_factory;
use dist_exec::backend::{run, EnvFactory, FnEnvFactory};
use dist_exec::runtime::test_hooks;
use dist_exec::spec::{Deployment, ExecSpec};
use dist_exec::{train_impala, Framework, ImpalaOpts};
use gymrs::Environment;
use rl_algos::Algorithm;
use std::sync::Mutex;

static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Bitwise fingerprint of a training run: every training return plus the
/// simulated wall-clock and energy, all as raw bits.
fn fingerprint(returns: &[f64], wall_s: f64, energy_j: f64) -> Vec<u64> {
    let mut bits: Vec<u64> = returns.iter().map(|v| v.to_bits()).collect();
    bits.push(wall_s.to_bits());
    bits.push(energy_j.to_bits());
    bits
}

fn run_rllib_two_nodes() -> Vec<u64> {
    let mut spec = ExecSpec::new(
        Framework::RayRllib,
        Algorithm::Ppo,
        Deployment { nodes: 2, cores_per_node: 2 },
        512,
        13,
    );
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    let report = run(&spec, &grid_factory()).expect("rllib runs");
    fingerprint(&report.train_returns, report.usage.wall_s, report.usage.energy_j)
}

fn run_impala_two_nodes() -> Vec<u64> {
    let opts = ImpalaOpts {
        deployment: Deployment { nodes: 2, cores_per_node: 4 },
        total_steps: 1_024,
        seed: 13,
        config: rl_algos::impala::ImpalaConfig {
            hidden: vec![16, 16],
            n_steps: 256,
            ..Default::default()
        },
        actor_sync_period: 4,
        ..Default::default()
    };
    let mut session = cluster_sim::ClusterSession::new(cluster_sim::ClusterSpec::paper_testbed(2));
    let report = train_impala(&opts, &grid_factory(), &mut session).expect("impala runs");
    let usage = session.finish();
    fingerprint(&report.train_returns, usage.wall_s, usage.energy_j)
}

/// Run `f` with workers skewed so that *later* workers answer *first*
/// (reversed delays), then with no skew, and demand identical bits.
fn assert_schedule_independent(label: &str, f: fn() -> Vec<u64>) {
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Worker 0 is slowest: completion order is the reverse of index
    // order, the worst case for a merge that must end up in index order.
    test_hooks::set_stagger_ms(vec![40, 30, 20, 10, 0, 0, 0, 0]);
    let skewed = f();
    test_hooks::clear_stagger();
    let clean = f();
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
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    test_hooks::clear_stagger();
    assert_eq!(run_rllib_two_nodes(), run_rllib_two_nodes());
    assert_eq!(run_impala_two_nodes(), run_impala_two_nodes());
}

// ---- batched ODE fast path -------------------------------------------
//
// The backends drive airdrop environments through `VecEnv`s of boxed
// envs; with batching auto-detected those take one SoA integrator call
// per substep instead of n scalar integrations. The fast path promises
// bitwise-identical training — these regressions run each backend with
// the batcher enabled and disabled (the `gymrs` auto-batch test hook,
// process-global, hence HOOK_LOCK) and demand identical report bits.

fn airdrop_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let mut e = airdrop_sim::AirdropEnv::new(airdrop_sim::AirdropConfig::fast_test());
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    })
}

fn run_airdrop(framework: Framework) -> Vec<u64> {
    // SB3 and TF-Agents parallelize on one node only (paper §V-b).
    let nodes = if framework == Framework::RayRllib { 2 } else { 1 };
    let mut spec =
        ExecSpec::new(framework, Algorithm::Ppo, Deployment { nodes, cores_per_node: 2 }, 384, 17);
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    let report = run(&spec, &airdrop_factory()).expect("backend runs");
    fingerprint(&report.train_returns, report.usage.wall_s, report.usage.energy_j)
}

fn run_airdrop_impala() -> Vec<u64> {
    let opts = ImpalaOpts {
        deployment: Deployment { nodes: 2, cores_per_node: 2 },
        total_steps: 512,
        seed: 17,
        config: rl_algos::impala::ImpalaConfig {
            hidden: vec![16, 16],
            n_steps: 128,
            ..Default::default()
        },
        actor_sync_period: 4,
        ..Default::default()
    };
    let mut session = cluster_sim::ClusterSession::new(cluster_sim::ClusterSpec::paper_testbed(2));
    let report = train_impala(&opts, &airdrop_factory(), &mut session).expect("impala runs");
    let usage = session.finish();
    fingerprint(&report.train_returns, usage.wall_s, usage.energy_j)
}

/// Run `f` with the batched lockstep fast path enabled and disabled and
/// demand bitwise-identical reports. Restores the hook either way.
fn assert_batching_invisible(label: &str, f: fn() -> Vec<u64>) {
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    test_hooks::clear_stagger();
    gymrs::vec_env::test_hooks::set_auto_batch(true);
    let batched = f();
    gymrs::vec_env::test_hooks::set_auto_batch(false);
    let scalar = f();
    gymrs::vec_env::test_hooks::set_auto_batch(true);
    assert_eq!(
        batched, scalar,
        "{label}: the batched ODE fast path must not change a single bit of the report"
    );
}

#[test]
fn sb3_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("sb3 1n2c ppo airdrop", || run_airdrop(Framework::StableBaselines));
}

#[test]
fn tfa_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("tfa 1n2c ppo airdrop", || run_airdrop(Framework::TfAgents));
}

#[test]
fn rllib_airdrop_report_is_independent_of_ode_batching() {
    assert_batching_invisible("rllib 2n2c ppo airdrop", || run_airdrop(Framework::RayRllib));
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
fn run_rllib_with_midstudy_quarantine() -> Vec<u64> {
    use dist_exec::runtime::{clear_plan, install_plan, FaultKind, FaultPlan};
    use dist_exec::FaultPolicy;

    // Enough consecutive crashes at (worker 3, round 1) to exhaust the
    // resilient policy's retries and quarantine the worker mid-study.
    let mut plan = FaultPlan::new();
    for _ in 0..=FaultPolicy::resilient().max_retries {
        plan = plan.fault(3, 1, FaultKind::Crash);
    }
    install_plan(plan);

    let mut spec = ExecSpec::new(
        Framework::RayRllib,
        Algorithm::Ppo,
        Deployment { nodes: 2, cores_per_node: 2 },
        1_024,
        13,
    );
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    spec.fault = FaultPolicy::resilient();
    let report = run(&spec, &grid_factory()).expect("the degraded study must still complete");
    clear_plan();
    assert!(report.degraded, "the quarantine must be reported");
    fingerprint(&report.train_returns, report.usage.wall_s, report.usage.energy_j)
}

#[cfg(feature = "fault-inject")]
#[test]
fn quarantine_mid_study_keeps_the_surviving_merge_schedule_independent() {
    assert_schedule_independent(
        "rllib 2n2c ppo, worker 3 quarantined in round 1",
        run_rllib_with_midstudy_quarantine,
    );
}
