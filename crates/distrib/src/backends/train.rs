//! The two training loops — on-policy (PPO) and SAC — each written once
//! and steered by the [`Architecture`] of the spec's framework.
//!
//! Every iteration narrates to the cluster session in a fixed order:
//! weight broadcast `Transfer`, collection `Compute`, the learner-side
//! inference `Compute` ([`Inference::OnLearner`] only), the shipped
//! experience `Transfer` (remote nodes only), the update `Compute`, the
//! per-iteration `Overhead`. The session accumulates floats in call
//! order, so that order is part of the bitwise contract.

use crate::backend::EnvFactory;
use crate::backends::common::worker_seed;
use crate::framework::{Architecture, FrameworkProfile, Inference, Sampling};
use crate::report::{ExecReport, TrainedModel};
use crate::runtime::{
    merge_wave, CollectorBlueprint, Driver, RngStream, Runtime, TransportConfig, WorkerSpec,
};
use crate::spec::{check_run, Deployment, ExecSpec};
use cluster_sim::{ClusterSession, ClusterSpec, NodeWork, SessionEvent};
use gymrs::{Environment, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::on_policy::OnPolicyLearner;
use rl_algos::sac::SacLearner;
use rl_algos::Algorithm;
use telemetry::SharedRecorder;

/// Train `spec` on environments from `factory` (the body of
/// [`crate::run_recorded`]). Worker failures the spec's
/// [`FaultPolicy`](crate::FaultPolicy) cannot absorb surface as `Err` —
/// training never panics the study.
pub(crate) fn train(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    let arch = spec.framework.architecture();
    let transport = check_run(spec, &arch)?;
    match spec.algorithm {
        Algorithm::Ppo => train_on_policy(spec, &arch, transport, factory, recorder),
        Algorithm::Sac => Ok(train_sac(spec, &arch, factory, recorder)),
    }
}

/// Build the worker set `arch` prescribes: every worker a `VecEnv`, one
/// lane per core for the vectorized worker and a single lane for each
/// per-env worker. Lane `i` of the deployment is seeded
/// `worker_seed(seed, i, 0)`; every worker can be respawned from its
/// seeds after a thread death, and carries a blueprint (so it can run in
/// a child process) when the factory has one.
pub(super) fn collectors<'f>(
    arch: &Architecture,
    deployment: Deployment,
    seed: u64,
    factory: &'f dyn EnvFactory,
    recorder: SharedRecorder,
) -> Vec<WorkerSpec<'f>> {
    let (workers, lanes) = arch.collectors.shape(deployment);
    (0..workers)
        .map(|w| {
            let seeds: Vec<u64> =
                (w * lanes..(w + 1) * lanes).map(|i| worker_seed(seed, i, 0)).collect();
            let blueprint =
                factory.blueprint().map(|env| CollectorBlueprint::lanes(env, seeds.clone()));
            let recorder = recorder.clone();
            let spawn = move || {
                let mut venv =
                    VecEnv::new_preseeded(seeds.iter().map(|&s| factory.make(s)).collect());
                venv.set_recorder(recorder.clone());
                venv.reset_all();
                venv
            };
            let node = w * lanes / deployment.cores_per_node;
            let spec = WorkerSpec::new(node, spawn()).with_respawn(spawn);
            match blueprint {
                Some(bp) => spec.with_blueprint(bp),
                None => spec,
            }
        })
        .collect()
}

/// Narrate `flops` of network arithmetic on the learner's node and
/// streams.
fn learner_compute(driver: &mut Driver<'_>, profile: &FrameworkProfile, flops: u64) {
    let units = driver.cluster().node.flops_to_units(flops);
    let work = vec![NodeWork { node: 0, units, streams: profile.learner_streams }];
    driver.apply(&SessionEvent::Compute { work });
}

/// PPO over the runtime's workers. Like [`train_sac`], it narrates to a
/// session of its own on `recorder` and reports that session's usage.
fn train_on_policy(
    spec: &ExecSpec,
    arch: &Architecture,
    transport: TransportConfig,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    let ExecSpec { deployment, total_steps, seed, .. } = *spec;
    let profile = arch.profile;
    let nodes = deployment.nodes;
    let cores = deployment.cores_per_node;
    // The learner's master stream. It lives in an [`RngStream`] so that
    // under [`Sampling::Master`] it can ride the collect command across
    // any transport; otherwise it is the plain `StdRng` it wraps.
    let mut rng = RngStream::fresh(seed);

    let probe = factory.make(0);
    let obs_dim = probe.observation_space().dim();
    let actions = probe.action_space();
    drop(probe);
    let mut learner = OnPolicyLearner::new(obs_dim, &actions, spec.ppo.clone(), rng.rng_mut());

    let specs = collectors(arch, deployment, seed, factory, recorder.clone());
    let (n_workers, lanes) = arch.collectors.shape(deployment);
    let mut runtime =
        Runtime::spawn_faulted(specs, &learner.policy, transport, spec.fault_plan.clone())
            .with_fault_policy(spec.fault);
    runtime.set_recorder(recorder.clone());
    let mut session = ClusterSession::with_recorder(ClusterSpec::paper_testbed(nodes), recorder);
    let mut driver = Driver::new(&mut session);
    let batch = learner.n_steps();
    let mut infer_total = 0u64;

    while (driver.env_steps() as usize) < total_steps {
        // Weights crossing to remote nodes are narrated as one transfer;
        // workers the sync policy skips this round collect on a stale
        // snapshot.
        driver.broadcast(&mut runtime, &learner.policy, arch.sync)?;

        // The round batch is divided across the lanes of the *healthy*
        // workers, so a quarantined worker's share moves to the
        // survivors instead of shrinking the batch.
        let per_worker = (batch / (runtime.active_workers().max(1) * lanes)).max(1);
        let rngs = match arch.sampling {
            Sampling::Master => vec![rng.clone()],
            Sampling::PerRound { salt } => (0..n_workers)
                .map(|w| RngStream::fresh(worker_seed(seed, w, driver.iteration() + salt)))
                .collect(),
        };
        // Workers finish in any order; the runtime drains their segments
        // into worker-index order before the learner sees them.
        let outcome = runtime.collect_round(driver.iteration(), per_worker, rngs)?;
        driver.note_faults(&outcome.faults);
        let wave = merge_wave(outcome, nodes);
        if arch.sampling == Sampling::Master {
            rng = wave.rngs.into_iter().next().expect("a completed round has a segment");
        }
        driver.note_returns(wave.returns);
        let merged = wave.merged;
        driver.note_steps(merged.len() as u64, wave.node_env_work.iter().sum());
        let infer_flops: u64 = wave.node_infer_flops.iter().sum();
        infer_total += infer_flops;

        let flops_before = learner.flops;
        learner.update(&merged, rng.rng_mut());
        let update_flops = learner.flops - flops_before;

        let node = driver.cluster().node;
        let overhead = profile.per_step_overhead_units * (per_worker * cores) as f64;
        let work = (0..nodes)
            .map(|n| {
                let env = wave.node_env_work[n] as f64;
                let units = match arch.inference {
                    Inference::WithCollection => {
                        env + node.flops_to_units(wave.node_infer_flops[n]) + overhead
                    }
                    Inference::OnLearner => env + overhead,
                };
                NodeWork { node: n, units, streams: cores }
            })
            .collect();
        driver.apply(&SessionEvent::Compute { work });
        if arch.inference == Inference::OnLearner {
            learner_compute(&mut driver, &profile, infer_flops);
        }
        if wave.shipped_bytes > 0 {
            driver.apply(&SessionEvent::Transfer { bytes: wave.shipped_bytes });
        }
        learner_compute(&mut driver, &profile, update_flops);
        driver.apply(&SessionEvent::Overhead { seconds: profile.per_iter_overhead_s });
        if driver.end_iteration() {
            break;
        }
    }
    driver.note_wire(runtime.transport_stats().bytes_total());
    runtime.shutdown();

    let stats = driver.finish();
    Ok(ExecReport {
        model: TrainedModel::Ppo(Box::new(learner.policy.clone())),
        usage: session.finish(),
        env_steps: stats.env_steps,
        env_work: stats.env_work,
        learn_flops: learner.flops + infer_total,
        train_returns: stats.train_returns,
        updates: learner.updates,
        degraded: stats.degraded,
    })
}

/// SAC keeps the learner in the interaction loop (every step feeds the
/// replay buffer and may trigger updates), so there is no detachable
/// collection to hand to runtime actors; the driver still owns the
/// bookkeeping, and the narration keeps the deployment's shape
/// (concurrent nodes, experience and weight traffic past node 0).
fn train_sac(
    spec: &ExecSpec,
    arch: &Architecture,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> ExecReport {
    let profile = arch.profile;
    let nodes = spec.deployment.nodes;
    let cores = spec.deployment.cores_per_node;
    let n_workers = nodes * cores;
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let mut envs: Vec<Box<dyn Environment>> = (0..n_workers)
        .map(|w| factory.make(worker_seed(spec.seed, w, arch.sac_seed_salt)))
        .collect();
    let obs_dim = envs[0].observation_space().dim();
    let actions = envs[0].action_space();
    let mut learner = SacLearner::new(obs_dim, &actions, spec.sac.clone(), &mut rng);
    let mut obs: Vec<Vec<f64>> = envs.iter_mut().map(|e| e.reset()).collect();
    let mut ep_rets = vec![0.0; n_workers];

    let mut session = ClusterSession::with_recorder(ClusterSpec::paper_testbed(nodes), recorder);
    let mut driver = Driver::new(&mut session);
    // Round size: lockstep sweeps over the environments per iteration.
    let round = 32usize;
    // Approximate per-transition payload for the experience shipping.
    let transition_bytes = (obs_dim * 2 + 4) as u64 * 8;

    while (driver.env_steps() as usize) < spec.total_steps {
        let flops_before = learner.flops;
        let mut node_env_work = vec![0u64; nodes];
        let mut remote_steps = 0u64;
        let mut iter_steps = 0u64;
        for _ in 0..round {
            for w in 0..n_workers {
                if (driver.env_steps() + iter_steps) as usize >= spec.total_steps {
                    break;
                }
                let (units, fin) =
                    learner.interact(envs[w].as_mut(), &mut obs[w], &mut ep_rets[w], &mut rng);
                let node = w / cores;
                node_env_work[node] += units;
                if node != 0 {
                    remote_steps += 1;
                }
                iter_steps += 1;
                if let Some(r) = fin {
                    driver.note_return(r);
                }
            }
        }
        driver.note_steps(iter_steps, node_env_work.iter().sum());
        let update_flops = learner.flops - flops_before;

        let work: Vec<NodeWork> = (0..nodes)
            .map(|n| NodeWork {
                node: n,
                units: node_env_work[n] as f64
                    + profile.per_step_overhead_units * (round * cores) as f64,
                streams: cores,
            })
            .collect();
        driver.apply(&SessionEvent::Compute { work });
        if remote_steps > 0 {
            driver.apply(&SessionEvent::Transfer { bytes: remote_steps * transition_bytes });
            // Weight broadcast back to the remote interaction workers.
            driver.apply(&SessionEvent::Transfer { bytes: learner.param_bytes() });
        }
        learner_compute(&mut driver, &profile, update_flops);
        driver.apply(&SessionEvent::Overhead {
            seconds: profile.per_iter_overhead_s * round as f64 / 256.0,
        });
        if driver.end_iteration() {
            break;
        }
    }

    let stats = driver.finish();
    ExecReport {
        learn_flops: learner.flops,
        updates: learner.updates,
        model: TrainedModel::Sac(Box::new(learner)),
        usage: session.finish(),
        env_steps: stats.env_steps,
        env_work: stats.env_work,
        train_returns: stats.train_returns,
        degraded: stats.degraded,
    }
}
