//! One suite over every architecture: what must hold for all of them is
//! asserted in a loop over [`Framework::ALL`], what distinguishes them is
//! asserted against the [`Architecture`] table.

use crate::backend::{run, run_recorded, EnvFactory, FnEnvFactory};
use crate::framework::{Architecture, Collectors, Framework, Inference, Sampling};
use crate::report::ExecReport;
use crate::runtime::{
    EnvBlueprint, FaultKind, FaultPlan, FaultPolicy, RngStream, Runtime, SyncPolicy,
};
use crate::spec::{Deployment, ExecSpec};
use cluster_sim::{keys as session_keys, ClusterSpec, Usage};
use gymrs::envs::{GridWorld, PointMass};
use gymrs::{Environment, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::policy::ActorCritic;
use rl_algos::ppo::PpoConfig;
use rl_algos::sac::SacConfig;
use rl_algos::Algorithm;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn grid_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let mut e = GridWorld::new(3);
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    })
}

fn point_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let mut e = PointMass::new();
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    })
}

fn spec(
    framework: Framework,
    algorithm: Algorithm,
    nodes: usize,
    cores: usize,
    steps: usize,
) -> ExecSpec {
    let seed = match framework {
        Framework::StableBaselines => 7,
        Framework::TfAgents => 11,
        Framework::RayRllib => 13,
    };
    let deployment = Deployment { nodes, cores_per_node: cores };
    let mut s = ExecSpec::new(framework, algorithm, deployment, steps, seed);
    s.ppo = PpoConfig::fast_test();
    s.sac = SacConfig { start_steps: 64, ..SacConfig::fast_test() };
    s
}

fn ppo(framework: Framework, nodes: usize, cores: usize, steps: usize) -> ExecReport {
    run(&spec(framework, Algorithm::Ppo, nodes, cores, steps), &grid_factory()).expect("runs")
}

fn sac(framework: Framework, nodes: usize, cores: usize, steps: usize) -> ExecReport {
    run(&spec(framework, Algorithm::Sac, nodes, cores, steps), &point_factory()).expect("runs")
}

/// A recorder that asks for a stop after two iteration events.
#[derive(Default)]
struct StopAfterTwo(AtomicU64);

impl telemetry::Recorder for StopAfterTwo {
    fn counter_add(&self, _: telemetry::Key, _: u64) {}
    fn accum_add(&self, _: telemetry::Key, _: f64) {}
    fn gauge_set(&self, _: telemetry::Key, _: f64) {}
    fn span_begin(&self, _: telemetry::Key) -> telemetry::SpanId {
        telemetry::SpanId(0)
    }
    fn span_end(&self, _: telemetry::SpanId) {}
    fn event(&self, key: telemetry::Key, _: &[(telemetry::Key, telemetry::Value)]) {
        if key == crate::keys::TRIAL_ITERATION {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn should_stop(&self) -> bool {
        self.0.load(Ordering::SeqCst) >= 2
    }
}

#[test]
fn architecture_table_matches_the_design_matrix() {
    // DESIGN.md §6 "Execution runtime": sync policy, collector shape and
    // which workers collect on a stale snapshot, per architecture.
    let sb3 = Framework::StableBaselines.architecture();
    let tfa = Framework::TfAgents.architecture();
    let rllib = Framework::RayRllib.architecture();
    let shape = |a: &Architecture| (a.sync, a.collectors, a.multi_node);
    assert_eq!(shape(&sb3), (SyncPolicy::EveryRound, Collectors::Vectorized, false));
    assert_eq!(shape(&tfa), (SyncPolicy::EveryRound, Collectors::Vectorized, false));
    assert_eq!(shape(&rllib), (SyncPolicy::RemotePeriodic { period: 2 }, Collectors::PerEnv, true));

    // Workers left stale before an off-period round of a 2x2 worker set.
    let stale = |a: &Architecture| -> Vec<usize> {
        let fresh = a.sync.recipients(1, &[0, 0, 1, 1]);
        (0..4).filter(|w| !fresh.contains(w)).collect()
    };
    assert!(stale(&sb3).is_empty() && stale(&tfa).is_empty());
    assert_eq!(stale(&rllib), [2, 3], "remote nodes between periods");

    // Only the SB3-like loop samples from the learner's stream and pays
    // for inference on the learner's threads.
    for a in [&tfa, &rllib] {
        assert!(matches!(a.sampling, Sampling::PerRound { .. }));
        assert_eq!(a.inference, Inference::WithCollection);
    }
    assert_eq!((sb3.sampling, sb3.inference), (Sampling::Master, Inference::OnLearner));
}

#[test]
fn an_rllib_worker_logs_an_episode_that_straddles_rounds_whole() {
    // An RLlib rollout worker keeps its environment from round to round,
    // so R rounds of n steps on one carried sampling stream must log the
    // episodes one round of R·n steps logs — including the one that
    // begins in one round and ends in a later one.
    let arch = Framework::RayRllib.architecture();
    let deployment = Deployment { nodes: 1, cores_per_node: 1 };
    let factory = EnvBlueprint::Grid { n: 5 };
    let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(5));
    let episodes = |rounds: u64, steps: usize| {
        let specs =
            super::train::collectors(&arch, deployment, 7, &factory, telemetry::null_recorder());
        let mut runtime = Runtime::spawn(specs, &policy);
        let mut stream = RngStream::fresh(3);
        let mut episodes = Vec::new();
        for round in 0..rounds {
            let mut outcome = runtime.collect_round(round, steps, vec![stream]).expect("collects");
            let worker = outcome.segments.pop().expect("one worker");
            episodes.extend(worker.segment.episodes);
            stream = worker.rng;
        }
        episodes
    };
    let whole = episodes(1, 400);
    let mut start = 0;
    let straddles = whole.iter().any(|&(_, len)| {
        let (first, last) = (start, start + len - 1);
        start += len;
        first / 100 != last / 100
    });
    assert!(straddles, "an episode must cross a round boundary: {whole:?}");
    assert_eq!(episodes(4, 100), whole);
}

#[test]
fn factory_seeds_environments() {
    let f = grid_factory();
    assert_eq!(f.make(1).reset(), f.make(1).reset());
}

#[test]
fn bad_inputs_are_rejected_before_anything_is_built() {
    let untouched = FnEnvFactory(|_| -> Box<dyn Environment> { panic!("nothing may be built") });
    let shape = |nodes, cores_per_node| Deployment { nodes, cores_per_node };
    let cases: [(&str, Deployment, usize, Option<&str>); 5] = [
        ("no node", shape(0, 4), 512, None),
        ("no core", shape(1, 0), 512, None),
        ("no steps", shape(1, 2), 0, None),
        ("malformed transport", shape(1, 2), 512, Some("smoke-signals")),
        ("tcp transport", shape(1, 2), 512, Some("tcp")),
    ];
    for (what, deployment, total_steps, transport) in cases {
        let transport = transport.map(str::to_owned);
        for framework in Framework::ALL {
            let mut s = spec(framework, Algorithm::Ppo, 1, 2, total_steps);
            s.deployment = deployment;
            s.transport = transport.clone();
            assert!(run(&s, &untouched).is_err(), "{framework:?}: {what}");
        }
    }
    for framework in [Framework::StableBaselines, Framework::TfAgents] {
        let s = spec(framework, Algorithm::Ppo, 2, 4, 512);
        assert!(run(&s, &untouched).is_err(), "{framework:?}: single node only");
    }
}

#[test]
fn a_sac_spec_is_refused_a_wire_or_a_fault_plan_it_would_drop() {
    // SAC trains in process and spawns no runtime: a `uds` request would
    // report `wire_bytes == 0` and a plan would never fire, so both are
    // refused before anything is built. An `inproc` SAC spec still runs
    // (the `train.*.sac.airdrop` fingerprints rows).
    let untouched = FnEnvFactory(|_| -> Box<dyn Environment> { panic!("nothing may be built") });
    for framework in Framework::ALL {
        let wired = spec(framework, Algorithm::Sac, 1, 2, 256).with_transport("uds");
        let mut faulted = spec(framework, Algorithm::Sac, 1, 2, 256);
        faulted.fault_plan = FaultPlan::new().fault(0, 0, FaultKind::Crash);
        for (what, s) in [("uds", wired), ("fault plan", faulted)] {
            let Err(err) = run(&s, &untouched) else { panic!("{framework:?}: ran with {what}") };
            assert!(err.contains("SAC"), "{framework:?}, {what}: {err}");
        }
    }
}

#[test]
fn ppo_runs_report_consistent_accounting() {
    for framework in Framework::ALL {
        let report = ppo(framework, 1, 4, 1024);
        assert!(report.env_steps >= 1024, "{framework:?}");
        assert_eq!(report.env_work, report.env_steps, "{framework:?}: grid world, 1 unit/step");
        assert!(report.updates > 0, "{framework:?}");
        assert!(report.usage.wall_s > 0.0, "{framework:?}");
        assert!(report.usage.energy_j > 0.0, "{framework:?}");
        assert_eq!(report.usage.bytes_moved, 0, "{framework:?}: single node ships nothing");
    }
}

#[test]
fn sac_runs_report_consistent_accounting() {
    for framework in Framework::ALL {
        let report = sac(framework, 1, 2, 300);
        assert!(report.env_steps >= 300, "{framework:?}");
        assert!(report.updates > 0, "{framework:?}: SAC must update after warmup");
        assert!(report.usage.wall_s > 0.0, "{framework:?}");
        assert!(report.learn_flops > 0, "{framework:?}");
    }
}

#[test]
fn sac_loop_differs_between_frameworks_only_through_the_profile() {
    // SB3-like and TF-Agents-like share collectors shape and SAC seed
    // salt, so at equal seed the learning is the same and only the cost
    // constants move the clock.
    let mut tfa_spec = spec(Framework::TfAgents, Algorithm::Sac, 1, 2, 300);
    tfa_spec.seed = spec(Framework::StableBaselines, Algorithm::Sac, 1, 2, 300).seed;
    let tfa = run(&tfa_spec, &point_factory()).expect("runs");
    let sb3 = sac(Framework::StableBaselines, 1, 2, 300);
    assert_eq!(sb3.train_returns, tfa.train_returns);
    assert_eq!(sb3.env_steps, tfa.env_steps);
    assert_eq!(sb3.updates, tfa.updates);
    assert_eq!(sb3.learn_flops, tfa.learn_flops);
    assert_ne!(sb3.usage.wall_s, tfa.usage.wall_s);
}

#[test]
fn sac_two_nodes_completes_with_traffic() {
    let report = sac(Framework::RayRllib, 2, 2, 300);
    assert!(report.env_steps >= 300);
    assert!(report.usage.bytes_moved > 0);
}

#[test]
fn more_cores_is_faster_in_simulated_time() {
    for framework in Framework::ALL {
        let two = ppo(framework, 1, 2, 1024).usage.wall_s;
        let four = ppo(framework, 1, 4, 1024).usage.wall_s;
        assert!(four < two, "{framework:?}: 4 cores {four} should beat 2 cores {two}");
    }
}

#[test]
fn runs_are_reproducible() {
    // Per-worker seeding and the index-ordered merge decouple results
    // from thread scheduling, on one node and on two.
    let shapes = [
        (Framework::StableBaselines, 1, 4),
        (Framework::TfAgents, 1, 4),
        (Framework::RayRllib, 1, 2),
        (Framework::RayRllib, 2, 2),
    ];
    for (framework, nodes, cores) in shapes {
        let a = ppo(framework, nodes, cores, 512);
        let b = ppo(framework, nodes, cores, 512);
        assert_eq!(a.train_returns, b.train_returns, "{framework:?} {nodes}x{cores}");
        assert_eq!(a.usage.wall_s.to_bits(), b.usage.wall_s.to_bits(), "{framework:?}");
    }
}

#[test]
fn one_faulted_spec_run_twice_suffers_the_same_faults_twice() {
    // The spec holds the schedule and every run arms its own clone of it:
    // were arming shared instead, the second run would find every crash
    // already spent and come back clean.
    let mut s = spec(Framework::RayRllib, Algorithm::Ppo, 2, 2, 1024);
    s.fault = FaultPolicy::resilient();
    s.fault_plan = FaultPlan::new().repeated(3, 1, FaultKind::Crash, s.fault.max_retries + 1);
    let bits = |r: &ExecReport| -> Vec<u64> {
        let usage = [r.usage.wall_s, r.usage.energy_j];
        r.train_returns.iter().chain(&usage).map(|v| v.to_bits()).collect()
    };
    let first = run(&s, &grid_factory()).expect("degrades, completes");
    let second = run(&s, &grid_factory()).expect("degrades, completes");
    assert!(first.degraded && second.degraded, "worker 3 is quarantined in both runs");
    assert_eq!(bits(&first), bits(&second), "and both report the same bits");
    assert!(s.clone().fault_plan.take(3, 1).is_some(), "a cloned spec starts armed");

    s.fault_plan = FaultPlan::new();
    let clean = run(&s, &grid_factory()).expect("runs");
    assert!(!clean.degraded);
    assert_ne!(bits(&clean), bits(&first), "the faults were real");
}

#[test]
fn tfa_uses_less_energy_than_rllib_at_equal_config() {
    // The §VI-B signal at equal deployment: the lean driver undercuts
    // Ray's heavyweight per-step machinery on both time and energy.
    let tfa_spec = spec(Framework::TfAgents, Algorithm::Ppo, 1, 4, 1024);
    let ray_spec = ExecSpec { framework: Framework::RayRllib, ..tfa_spec.clone() };
    let tfa = run(&tfa_spec, &grid_factory()).expect("runs").usage;
    let ray = run(&ray_spec, &grid_factory()).expect("runs").usage;
    assert!(
        tfa.energy_j < ray.energy_j,
        "TF-Agents {} J should undercut RLlib {} J",
        tfa.energy_j,
        ray.energy_j
    );
    assert!(tfa.wall_s < ray.wall_s);
}

#[test]
fn rllib_two_nodes_trade_traffic_and_power_for_time() {
    // The paper's core RLlib observation (solutions 2 and 5).
    let one = ppo(Framework::RayRllib, 1, 4, 2048).usage;
    let two = ppo(Framework::RayRllib, 2, 4, 2048).usage;
    assert!(two.bytes_moved > 0, "remote rollouts must cross the wire");
    assert!(two.network_s > 0.0);
    assert!(two.transfers > 0);
    assert!(two.wall_s < one.wall_s, "2 nodes {} should beat 1 node {}", two.wall_s, one.wall_s);
    assert!(two.mean_watts() > one.mean_watts());
}

#[test]
fn two_node_trace_interleaves_compute_and_transfers() {
    // Narration structure, read off the recorded session events: each
    // iteration produces a concurrent compute phase across both nodes,
    // experience transfers, a learner phase and overhead.
    let ring = Arc::new(telemetry::RingRecorder::new());
    let spec = spec(Framework::RayRllib, Algorithm::Ppo, 2, 2, 512);
    run_recorded(&spec, &grid_factory(), ring.clone()).expect("runs");
    let snap = ring.snapshot();
    // Per compute event: (node, start). Nodes of one phase share a start.
    let computes: Vec<(u64, f64)> = snap
        .events_named(session_keys::PHASE.name())
        .filter_map(|e| {
            let node = e.field_u64(session_keys::PHASE_NODE.name())?;
            Some((node, e.field_f64(session_keys::PHASE_START_S.name())?))
        })
        .collect();
    let phase_starts: std::collections::BTreeSet<u64> =
        computes.iter().map(|(_, start)| start.to_bits()).collect();
    assert!(phase_starts.len() >= 2, "collection + learner phases per iteration");
    let transfers = snap.events_named(session_keys::TRANSFER.name()).count();
    assert!(transfers >= 1, "experience/weights must cross the wire");
    let has_two_node_phase =
        computes.windows(2).any(|w| w[0].0 == 0 && w[1].0 == 1 && w[0].1 == w[1].1);
    assert!(has_two_node_phase, "concurrent collection spans both nodes");
}

#[test]
fn recorded_rollup_reproduces_report_usage_bitwise() {
    for framework in Framework::ALL {
        let ring = Arc::new(telemetry::RingRecorder::new());
        let spec = spec(framework, Algorithm::Ppo, 1, 2, 512);
        let report = run_recorded(&spec, &grid_factory(), ring.clone()).expect("runs");
        let snap = ring.snapshot();
        let rolled = Usage::from_snapshot(&snap, &ClusterSpec::paper_testbed(1));
        assert_eq!(
            rolled.wall_s.to_bits(),
            report.usage.wall_s.to_bits(),
            "{framework:?}: wall-clock must come out of the recorder bit for bit"
        );
        assert_eq!(
            rolled.energy_j.to_bits(),
            report.usage.energy_j.to_bits(),
            "{framework:?}: energy must come out of the recorder bit for bit"
        );
        assert_eq!(snap.counter(crate::keys::ENV_STEPS.name()), Some(report.env_steps));
        assert_eq!(snap.counter(crate::keys::ENV_WORK.name()), Some(report.env_work));
        let iterations = snap.events_named(crate::keys::TRIAL_ITERATION.name()).count();
        assert!(iterations > 0, "{framework:?}: trial lifecycle events recorded");
    }
}

#[test]
fn recorder_should_stop_ends_the_trial_early() {
    for framework in Framework::ALL {
        let spec = spec(framework, Algorithm::Ppo, 1, 2, 1024);
        let full = run(&spec, &grid_factory()).expect("runs");
        let stopped =
            run_recorded(&spec, &grid_factory(), Arc::new(StopAfterTwo::default())).expect("runs");
        assert!(stopped.env_steps < full.env_steps, "{framework:?}: stop consumed fewer steps");
        assert!(stopped.env_steps > 0);
    }
}
