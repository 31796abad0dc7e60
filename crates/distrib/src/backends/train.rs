//! The two training loops — on-policy (PPO for the three frameworks,
//! V-trace for the IMPALA-like extension) and SAC — each written once and
//! steered by an [`Architecture`] value.
//!
//! Every iteration narrates to the cluster session in a fixed order:
//! weight broadcast `Transfer`, collection `Compute`, the learner-side
//! inference `Compute` ([`Inference::OnLearner`] only), the shipped
//! experience `Transfer` (remote nodes only), the update `Compute`, the
//! per-iteration `Overhead`. The session accumulates floats in call
//! order, so that order is part of the bitwise contract.

use crate::backend::EnvFactory;
use crate::backends::common::{sac_step, worker_seed};
use crate::framework::{Architecture, Collectors, FrameworkProfile, Inference, Sampling};
use crate::report::{ExecReport, TrainedModel};
use crate::runtime::{
    merge_wave, Collector, CollectorBlueprint, Driver, FaultPolicy, RngStream, Runtime,
    TransportConfig, WorkerCtx, WorkerSpec,
};
use crate::spec::{check_run, Deployment, ExecSpec};
use cluster_sim::{ClusterSession, ClusterSpec, NodeWork, SessionEvent};
use gymrs::{Environment, Space, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::impala::ImpalaConfig;
use rl_algos::on_policy::OnPolicyLearner;
use rl_algos::sac::{SacConfig, SacLearner};
use rl_algos::Algorithm;
use telemetry::SharedRecorder;

/// IMPALA execution options.
#[derive(Debug, Clone)]
pub struct ImpalaOpts {
    /// Node/core assignment (IMPALA scales across nodes by design).
    pub deployment: Deployment,
    /// Total environment steps.
    pub total_steps: usize,
    /// Master seed.
    pub seed: u64,
    /// Learner hyperparameters.
    pub config: ImpalaConfig,
    /// Iterations between actor snapshot refreshes (IMPALA tolerates
    /// large values; the RLlib-like architecture uses 2 for its remote
    /// nodes).
    pub actor_sync_period: u64,
    /// How the runtime reacts to actor failures.
    pub fault: FaultPolicy,
    /// Transport (`inproc`, `uds`, `tcp`, `tcp:<addr>`); `None` is
    /// in-process.
    pub transport: Option<String>,
    /// Faults to inject into this run's runtime; a schedule, armed afresh
    /// by every run (see `ExecSpec::fault_plan`).
    #[cfg(any(test, feature = "fault-inject"))]
    pub fault_plan: crate::runtime::FaultPlan,
}

impl Default for ImpalaOpts {
    fn default() -> Self {
        Self {
            deployment: Deployment { nodes: 2, cores_per_node: 4 },
            total_steps: 20_000,
            seed: 0,
            config: ImpalaConfig::default(),
            actor_sync_period: 4,
            fault: FaultPolicy::default(),
            transport: None,
            #[cfg(any(test, feature = "fault-inject"))]
            fault_plan: Default::default(),
        }
    }
}

/// What one run needs besides its learner: the architecture plus the
/// fields [`ExecSpec`] and [`ImpalaOpts`] share.
struct Run {
    arch: Architecture,
    deployment: Deployment,
    total_steps: usize,
    seed: u64,
    fault: FaultPolicy,
    transport: TransportConfig,
    /// The hooks value the run's runtime is spawned with.
    hooks: WorkerCtx,
}

/// Train `spec` on environments from `factory` (the body of
/// [`crate::run_recorded`]). Worker failures the spec's [`FaultPolicy`]
/// cannot absorb surface as `Err` — training never panics the study.
pub(crate) fn train(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    let arch = spec.framework.architecture();
    let transport = check_run(&arch, spec.deployment, spec.total_steps, spec.transport.as_deref())?;
    let run = Run {
        arch,
        deployment: spec.deployment,
        total_steps: spec.total_steps,
        seed: spec.seed,
        fault: spec.fault,
        transport,
        hooks: WorkerCtx::default(),
    };
    #[cfg(any(test, feature = "fault-inject"))]
    let run = Run { hooks: WorkerCtx::armed(spec.fault_plan.clone()), ..run };
    match spec.algorithm {
        Algorithm::Ppo => {
            let ppo = |obs_dim: usize, actions: &Space, rng: &mut StdRng| {
                OnPolicyLearner::new(obs_dim, actions, spec.ppo.clone(), rng)
            };
            train_on_policy(&run, ppo, factory, recorder)
        }
        Algorithm::Sac => Ok(train_sac(&run, &spec.sac, factory, recorder)),
    }
}

/// Train with the IMPALA-like architecture (`Architecture::impala`):
/// actors refresh their snapshot only every
/// [`ImpalaOpts::actor_sync_period`] iterations and the learner corrects
/// the off-policyness with V-trace — the paper's §VI-D trade-off
/// (distribute ⇒ faster but less accurate) attacked at the algorithm
/// level instead of the deployment level. Shaped like
/// [`crate::run_recorded`]: the session's accounting, and every other
/// layer's telemetry, land on `recorder`, and the report's `usage` is
/// the session's. Worker failures the [`FaultPolicy`] cannot absorb
/// surface as `Err`.
pub fn train_impala(
    opts: &ImpalaOpts,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    let arch = Architecture::impala(opts.actor_sync_period);
    let transport = check_run(&arch, opts.deployment, opts.total_steps, opts.transport.as_deref())?;
    let run = Run {
        arch,
        deployment: opts.deployment,
        total_steps: opts.total_steps,
        seed: opts.seed,
        fault: opts.fault,
        transport,
        hooks: WorkerCtx::default(),
    };
    #[cfg(any(test, feature = "fault-inject"))]
    let run = Run { hooks: WorkerCtx::armed(opts.fault_plan.clone()), ..run };
    let impala = |obs_dim: usize, actions: &Space, rng: &mut StdRng| {
        OnPolicyLearner::impala(obs_dim, actions, opts.config.clone(), rng)
    };
    train_on_policy(&run, impala, factory, recorder)
}

/// Build the worker set `arch` prescribes. Sub-environment `i` is seeded
/// `worker_seed(seed, i, 0)`; every worker can be respawned from those
/// seeds after a thread death, and carries a blueprint (so it can run in
/// a child process) when the factory has one.
fn collectors<'f>(
    arch: &Architecture,
    deployment: Deployment,
    seed: u64,
    factory: &'f dyn EnvFactory,
    recorder: SharedRecorder,
) -> Vec<WorkerSpec<'f>> {
    fn worker<'f>(
        node: usize,
        spawn: impl Fn() -> Collector + 'f,
        blueprint: Option<CollectorBlueprint>,
    ) -> WorkerSpec<'f> {
        let spec = WorkerSpec::new(node, spawn()).with_respawn(spawn);
        match blueprint {
            Some(bp) => spec.with_blueprint(bp),
            None => spec,
        }
    }

    let cores = deployment.cores_per_node;
    let env_seed = move |i: usize| worker_seed(seed, i, 0);
    match arch.collectors {
        Collectors::Vectorized => {
            let spawn = move || {
                let envs: Vec<_> = (0..cores).map(|i| factory.make(env_seed(i))).collect();
                let mut venv = VecEnv::new_preseeded(envs);
                venv.set_recorder(recorder.clone());
                venv.reset_all();
                Collector::Vectorized { venv }
            };
            let blueprint = factory
                .blueprint()
                .map(|env| CollectorBlueprint::vectorized(env, (0..cores).map(env_seed).collect()));
            vec![worker(0, spawn, blueprint)]
        }
        Collectors::PerEnv => (0..deployment.total_cores())
            .map(|w| {
                let spawn = move || {
                    let mut env = factory.make(env_seed(w));
                    let obs = env.reset();
                    Collector::PerEnv { env, obs }
                };
                let blueprint =
                    factory.blueprint().map(|env| CollectorBlueprint::per_env(env, env_seed(w)));
                worker(w / cores, spawn, blueprint)
            })
            .collect(),
    }
}

/// Narrate `flops` of network arithmetic on the learner's node and
/// streams.
fn learner_compute(driver: &mut Driver<'_>, profile: &FrameworkProfile, flops: u64) {
    let units = driver.cluster().node.flops_to_units(flops);
    let work = vec![NodeWork { node: 0, units, streams: profile.learner_streams }];
    driver.apply(&SessionEvent::Compute { work });
}

/// `make_learner(obs_dim, action_space, rng)` picks the setting of the one
/// on-policy learner (PPO or IMPALA-style); the loop is the same for both.
/// Like [`train_sac`], it narrates to a session of its own on `recorder`
/// and reports that session's usage.
fn train_on_policy(
    run: &Run,
    make_learner: impl FnOnce(usize, &Space, &mut StdRng) -> OnPolicyLearner,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> Result<ExecReport, String> {
    let Run { arch, deployment, total_steps, seed, .. } = *run;
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
    let mut learner = make_learner(obs_dim, &actions, rng.rng_mut());

    let specs = collectors(&arch, deployment, seed, factory, recorder.clone());
    let n_workers = specs.len();
    let mut runtime =
        Runtime::spawn_hooked(specs, &learner.policy, run.transport.clone(), run.hooks.clone())
            .with_fault_policy(run.fault);
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

        // The round batch is divided across the *healthy* per-env
        // workers, so a quarantined worker's share moves to the
        // survivors instead of shrinking the batch.
        let per_worker = match arch.collectors {
            Collectors::Vectorized => batch / cores,
            Collectors::PerEnv => batch / runtime.active_workers().max(1),
        }
        .max(1);
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
    run: &Run,
    cfg: &SacConfig,
    factory: &dyn EnvFactory,
    recorder: SharedRecorder,
) -> ExecReport {
    let profile = run.arch.profile;
    let nodes = run.deployment.nodes;
    let cores = run.deployment.cores_per_node;
    let n_workers = nodes * cores;
    let mut rng = StdRng::seed_from_u64(run.seed);

    let mut envs: Vec<Box<dyn Environment>> = (0..n_workers)
        .map(|w| factory.make(worker_seed(run.seed, w, run.arch.sac_seed_salt)))
        .collect();
    let obs_dim = envs[0].observation_space().dim();
    let actions = envs[0].action_space();
    let mut learner = SacLearner::new(obs_dim, &actions, cfg.clone(), &mut rng);
    let mut obs: Vec<Vec<f64>> = envs.iter_mut().map(|e| e.reset()).collect();
    let mut ep_rets = vec![0.0; n_workers];

    let mut session = ClusterSession::with_recorder(ClusterSpec::paper_testbed(nodes), recorder);
    let mut driver = Driver::new(&mut session);
    // Round size: lockstep sweeps over the environments per iteration.
    let round = 32usize;
    // Approximate per-transition payload for the experience shipping.
    let transition_bytes = (obs_dim * 2 + 4) as u64 * 8;

    while (driver.env_steps() as usize) < run.total_steps {
        let flops_before = learner.flops;
        let mut node_env_work = vec![0u64; nodes];
        let mut remote_steps = 0u64;
        let mut iter_steps = 0u64;
        for _ in 0..round {
            for w in 0..n_workers {
                if (driver.env_steps() + iter_steps) as usize >= run.total_steps {
                    break;
                }
                let (units, fin) = sac_step(
                    &mut learner,
                    envs[w].as_mut(),
                    &mut obs[w],
                    &mut ep_rets[w],
                    &mut rng,
                );
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
