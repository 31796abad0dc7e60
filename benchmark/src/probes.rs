//! Probes: each calls one layer's public function directly, at the shape
//! the workloads use, and reports the median over repeated calls.
//!
//! A probe takes up to [`SAMPLES`] timed samples. One that costs
//! milliseconds per call stops when its time budget is spent instead, but
//! never before [`MIN_SAMPLES`]; the sample count is printed beside every
//! value. Probes do not depend on the workload or the seed: their inputs
//! are fixed, so two runs of one commit differ only by noise.

use crate::sys::{median, Scratch};
use airdrop_sim::dynamics::{initial_state, ParafoilDynamics, ParafoilParams, STATE_DIM};
use airdrop_sim::{AirdropConfig, AirdropEnv, BatchedAirdropDynamics};
use bench::harness::{harness_ppo, harness_sac};
use bench::{HarnessOpts, PaperRow};
use cluster_sim::session::{NodeWork, SessionEvent};
use cluster_sim::{ClusterSession, ClusterSpec};
use counterfactual::{js_divergence, wasserstein_1, AnalyzerConfig, CounterfactualAnalyzer, Exec};
use decision::prelude::*;
use dist_exec::runtime::transport::codec::{self, FrameWriter};
use dist_exec::runtime::transport::RngCache;
use dist_exec::runtime::{
    CollectorBlueprint, Event, RngStream, Runtime, TransportConfig, TransportKind, WorkerSpec,
};
use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfPayload, WhatIfTask};
use gymrs::{Action, Environment, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rk_ode::{AnyBatchStepper, RkOrder, Work};
use rl_algos::buffer::{ReplayBuffer, RolloutBuffer, Transition};
use rl_algos::policy::ActorCritic;
use rl_algos::trainer::{evaluate, EvalSpec, TrainSpec, TrainedPolicy};
use rl_algos::{collect_lockstep, Algorithm, PpoLearner, SacLearner};
use simd_kernels::{AlignedF64, Isa};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::{Key, Recorder, RingRecorder, Value};
use tinynn::{Activation, Adam, Matrix, Mlp, Optimizer};

/// Timed samples per probe.
pub const SAMPLES: usize = 31;
/// Fewest samples a slow probe is cut to.
pub const MIN_SAMPLES: usize = 5;
/// Time one probe may spend sampling before it is cut short.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Probe results by metric name.
#[derive(Default)]
pub struct Probes {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    /// Unit costs the attribution model needs that are not metrics.
    aux: BTreeMap<&'static str, f64>,
}

impl Probes {
    /// The unit cost a probe measured, for the attribution model.
    pub fn get(&self, name: &str) -> f64 {
        self.value(name).unwrap_or_else(|| panic!("probe '{name}' was not run"))
    }

    pub fn aux(&self, name: &str) -> f64 {
        self.aux.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.samples.get(name).copied().unwrap_or(0)
    }

    /// The value of a metric, if it is a probe.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }
}

/// How many samples to take; `--smoke` takes one.
#[derive(Clone, Copy)]
struct Sampler {
    samples: usize,
    min_samples: usize,
}

impl Sampler {
    /// Median seconds per call of `f`, each sample timing `inner` calls,
    /// after one untimed call.
    fn time(&self, inner: usize, mut f: impl FnMut()) -> (f64, usize) {
        f();
        let started = Instant::now();
        let mut seconds = Vec::with_capacity(self.samples);
        while seconds.len() < self.samples
            && (seconds.len() < self.min_samples || started.elapsed() < PROBE_BUDGET)
        {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            seconds.push(t.elapsed().as_secs_f64() / inner as f64);
        }
        (median(&seconds), seconds.len())
    }

    /// Like [`Sampler::time`], but `f` times itself and returns seconds:
    /// for probes whose set-up must stay outside the measurement.
    fn time_with(&self, mut f: impl FnMut() -> f64) -> (f64, usize) {
        let started = Instant::now();
        let mut seconds = Vec::with_capacity(self.samples);
        while seconds.len() < self.samples
            && (seconds.len() < self.min_samples || started.elapsed() < PROBE_BUDGET)
        {
            seconds.push(f());
        }
        (median(&seconds), seconds.len())
    }
}

/// Run every probe. `scratch` holds the journals and sockets they create.
pub fn run_all(scratch: &Scratch, smoke: bool) -> Result<Probes, String> {
    let sampler = if smoke {
        Sampler { samples: 1, min_samples: 1 }
    } else {
        Sampler { samples: SAMPLES, min_samples: MIN_SAMPLES }
    };
    let mut p = Probes::default();
    simd(&mut p, sampler);
    ode(&mut p, sampler);
    airdrop(&mut p, sampler);
    gym(&mut p, sampler);
    nn(&mut p, sampler);
    rl(&mut p, sampler, smoke);
    distrib(&mut p, sampler)?;
    cluster(&mut p, sampler);
    core(&mut p, sampler, scratch)?;
    counterfactual_layer(&mut p, sampler)?;
    telemetry_layer(&mut p, sampler);
    Ok(p)
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

fn simd(p: &mut Probes, s: Sampler) {
    let isa = Isa::cached();
    // The 64×64 hidden layer at batch 64: one row kernel call per row.
    let a = vec![0.5f64; 64 * 64];
    let b = vec![0.25f64; 64 * 64];
    let mut out = vec![0.0f64; 64 * 64];
    let (t, n) = s.time(20, || {
        out.fill(0.0);
        for i in 0..64 {
            simd_kernels::nnf64::row_matmul_acc(
                isa,
                &a[i * 64..(i + 1) * 64],
                &b,
                &mut out[i * 64..(i + 1) * 64],
                64,
                64,
            );
        }
        black_box(out[0]);
    });
    p.set("simd.matmul_ns.b64", t * NS, n);

    // One fused RK stage over the airdrop state of 32 lanes, six stages in.
    let len = STATE_DIM * 32;
    let coeffs = [0.1, 0.2, 0.15, 0.25, 0.05, 0.25];
    let k = vec![0.3f64; coeffs.len() * len];
    let y = vec![1.0f64; len];
    let mut stage = vec![0.0f64; len];
    let (t, n) = s.time(2_000, || {
        simd_kernels::odef64::stage_update(isa, &coeffs, &k, &y, 0.25, &mut stage);
        black_box(stage[0]);
    });
    p.set("simd.stage_update_ns.n32", t * NS, n);
}

fn ode(p: &mut Probes, s: Sampler) {
    let params = ParafoilParams::default();
    let substep = AirdropConfig::default().substep;
    // One 0.5 s control interval in two substeps, as the environment does.
    let dyns = ParafoilDynamics { params, command: 0.7, wind: (1.0, -0.5) };
    let y0 = initial_state(100.0, -50.0, 400.0, 0.3, &params);
    for (order, name) in [
        (RkOrder::Three, "ode.interval_ns.rk3"),
        (RkOrder::Five, "ode.interval_ns.rk5"),
        (RkOrder::Eight, "ode.interval_ns.rk8"),
    ] {
        let mut stepper = order.stepper_for(STATE_DIM);
        let (t, n) = s.time(200, || {
            let mut y = y0;
            stepper.reset();
            let w1 = stepper.step(&dyns, 0.0, substep, &mut y);
            let w2 = stepper.step(&dyns, substep, substep, &mut y);
            black_box((y, w1, w2));
        });
        p.set(name, t * NS, n);
    }

    for (lanes, name) in [
        (4usize, "ode.batch_interval_ns_per_lane.rk8.n4"),
        (32, "ode.batch_interval_ns_per_lane.rk8.n32"),
    ] {
        let mut batched = BatchedAirdropDynamics::new(params, lanes);
        let mut y = AlignedF64::zeroed(STATE_DIM * lanes);
        for e in 0..lanes {
            batched.set_lane(e, ((e as f64) * 0.37).sin() * 0.8, (1.0, -0.5));
            let state = initial_state(10.0 + e as f64, -5.0, 300.0, 0.1 * e as f64, &params);
            for (d, v) in state.iter().enumerate() {
                y[d * lanes + e] = *v;
            }
        }
        let mut stepper = AnyBatchStepper::new(RkOrder::Eight, STATE_DIM, lanes);
        let active = vec![true; lanes];
        let mut work = vec![Work::default(); lanes];
        let (t, n) = s.time(50, || {
            stepper.step(&batched, 0.0, substep, &mut y, &active, &mut work);
            stepper.step(&batched, substep, substep, &mut y, &active, &mut work);
            black_box(y[0]);
        });
        p.set(name, t * NS / lanes as f64, n);
    }
}

/// An airdrop configuration dropped from a fixed 400 m, so that the
/// measured steps stay in mid-flight.
fn mid_flight(config: AirdropConfig) -> AirdropConfig {
    AirdropConfig { altitude_limits: (400.0, 400.0), ..config }
}

fn lockstep_env(config: AirdropConfig, lanes: usize) -> (VecEnv<AirdropEnv>, Vec<Action>) {
    let envs: Vec<AirdropEnv> = (0..lanes).map(|_| AirdropEnv::new(config.clone())).collect();
    let mut venv = VecEnv::new(envs, 11);
    venv.reset_all();
    let actions =
        (0..lanes).map(|i| Action::Continuous(vec![((i as f64) * 0.37).sin() * 0.8])).collect();
    (venv, actions)
}

fn airdrop(p: &mut Probes, s: Sampler) {
    let action = Action::Continuous(vec![0.2]);
    for (config, name) in [
        (AirdropConfig::paper_study(RkOrder::Three), "airdrop.step_ns.rk3"),
        (AirdropConfig::paper_study(RkOrder::Eight), "airdrop.step_ns.rk8"),
        // The reference evaluation environment every trained policy is scored on.
        (AirdropConfig::default().reference(), "airdrop.ref_step_ns"),
    ] {
        let mut env = AirdropEnv::new(mid_flight(config));
        env.seed(7);
        env.reset();
        let (t, n) = s.time(100, || {
            let step = env.step(&action);
            if step.done() {
                env.reset();
            }
            black_box(step.reward);
        });
        p.set(name, t * NS, n);
    }

    // `airdrop_sim::batch` under the heaviest integrator.
    let (mut venv, actions) =
        lockstep_env(mid_flight(AirdropConfig::paper_study(RkOrder::Eight)), 32);
    venv.set_batched(true);
    let (t, n) = s.time(10, || {
        venv.step_lockstep(&actions);
        black_box(venv.last_tick().steps.len());
    });
    p.set("airdrop.batch_step_ns_per_lane.n32", t * NS / 32.0, n);

    let mut env = AirdropEnv::new(mid_flight(AirdropConfig::default()));
    env.seed(7);
    env.reset();
    env.step(&action);
    let (t, n) = s.time(200, || {
        let snapshot = env.snapshot().expect("airdrop environments snapshot");
        env.restore(&snapshot).expect("own snapshot restores");
        black_box(&snapshot);
    });
    p.set("airdrop.snapshot_restore_ns", t * NS, n);
}

fn gym(p: &mut Probes, s: Sampler) {
    // The paper scenario (order 5), as `whatif` and `deploy_uds` step it.
    // Two and four lanes are the SB3 and TF-Agents collector shapes.
    for (lanes, name) in [
        (2usize, "gym.vecenv_tick_ns_per_env.n2"),
        (4, "gym.vecenv_tick_ns_per_env.n4"),
        (32, "gym.vecenv_tick_ns_per_env.n32"),
    ] {
        let (mut venv, actions) = lockstep_env(mid_flight(AirdropConfig::default()), lanes);
        let (t, n) = s.time(320 / lanes, || {
            venv.step_lockstep(&actions);
            black_box(venv.last_tick().steps.len());
        });
        p.set(name, t * NS / lanes as f64, n);
    }
}

fn policy_net(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[11, 64, 64, 1], Activation::Tanh, Activation::Identity, rng)
}

fn nn(p: &mut Probes, s: Sampler) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = policy_net(&mut rng);
    for (batch, inner, name) in
        [(1usize, 500, "nn.forward_ns_per_row.b1"), (64, 20, "nn.forward_ns_per_row.b64")]
    {
        let x = Matrix::full(batch, 11, 0.3);
        let (t, n) = s.time(inner, || {
            black_box(net.infer(&x));
        });
        p.set(name, t * NS / batch as f64, n);
    }

    let x = Matrix::full(64, 11, 0.3);
    let dout = Matrix::full(64, 1, 1.0);
    let (t, n) = s.time(10, || {
        let tape = net.forward(&x);
        net.zero_grad();
        black_box(net.backward(&tape, &dout));
    });
    p.set("nn.backward_ns_per_row.b64", t * NS / 64.0, n);

    let mut opt = Adam::new(3e-4);
    let (t, n) = s.time(50, || {
        opt.step(&mut net);
        black_box(net.param_count());
    });
    p.set("nn.adam_step_us", t * US, n);
}

fn transition(i: usize) -> Transition {
    Transition {
        obs: vec![i as f64; 11],
        action: vec![0.1],
        reward: -0.1,
        next_obs: vec![i as f64 + 1.0; 11],
        terminated: i % 100 == 99,
    }
}

fn rl(p: &mut Probes, s: Sampler, smoke: bool) {
    let opts = HarnessOpts { out_dir: None, ..HarnessOpts::default() };
    let config =
        AirdropConfig { altitude_limits: opts.altitude_limits, ..AirdropConfig::default() };
    let mut env = AirdropEnv::new(config.clone());
    env.seed(3);
    let obs_dim = env.observation_space().dim();
    let action_space = env.action_space();
    let mut rng = StdRng::seed_from_u64(5);

    let policy = ActorCritic::new(obs_dim, &action_space, &[64, 64], &mut rng);
    let obs4 = Matrix::full(4, obs_dim, 0.3);
    let (t, n) = s.time(100, || {
        black_box(policy.act_batch(&obs4, &mut rng));
    });
    p.set("rl.act_batch_ns_per_row.b4", t * NS / 4.0, n);

    // One full PPO update over a 1024-step rollout at the harness settings.
    let mut learner = PpoLearner::new(obs_dim, &action_space, harness_ppo(&opts), &mut rng);
    let mut obs = env.reset();
    let rollout = learner.collect(&mut env, &mut obs, 1024, &mut rng).rollout;
    let (t, n) = s.time(1, || {
        black_box(learner.update(&rollout, &mut rng));
    });
    p.set("rl.ppo_update_ms", t * MS, n);

    let mut sac = SacLearner::new(obs_dim, &action_space, harness_sac(&opts), &mut rng);
    let mut obs = env.reset();
    for _ in 0..512 {
        let action = sac.act(&obs, &mut rng);
        let step = env.step(&action);
        let next_obs = if step.done() { env.reset() } else { step.obs.clone() };
        sac.observe(
            Transition {
                obs: std::mem::replace(&mut obs, next_obs),
                action: action.continuous().to_vec(),
                reward: step.reward,
                next_obs: step.obs,
                terminated: step.terminated,
            },
            &mut rng,
        );
    }
    let (t, n) = s.time(5, || {
        black_box(sac.update_from_batch(&mut rng));
    });
    p.set("rl.sac_update_us", t * US, n);

    let mut replay = ReplayBuffer::new(50_000);
    for i in 0..10_000 {
        replay.push(transition(i));
    }
    let (t, n) = s.time(100, || {
        black_box(replay.sample(64, &mut rng).len());
    });
    p.set("rl.replay_sample_us.b64", t * US, n);

    let mut rollout = RolloutBuffer::with_capacity(1024);
    for i in 0..1024 {
        let last = i % 200 == 199;
        rollout.push(
            vec![0.1; 11],
            Action::Continuous(vec![0.0]),
            -0.01,
            last,
            last,
            0.5,
            if last { 0.0 } else { 0.4 },
            -1.0,
        );
    }
    let (t, n) = s.time(20, || {
        black_box(rollout.advantages(0.99, 0.95));
    });
    p.set("rl.gae_us.n1024", t * US, n);

    let envs: Vec<AirdropEnv> = (0..4).map(|_| AirdropEnv::new(config.clone())).collect();
    let mut venv = VecEnv::new(envs, 9);
    venv.reset_all();
    let (t, n) = s.time(1, || {
        black_box(collect_lockstep(&policy, &mut venv, 64, &mut rng).rollout.len());
    });
    p.set("rl.collect_lockstep_us_per_step.n4", t * US / 256.0, n);

    // Greedy episodes on the reference environment, as every trial ends.
    let mut reference = AirdropEnv::new(config.clone().reference());
    reference.seed(999);
    let eval = EvalSpec { episodes: 4, max_steps: 100_000 };
    let (t, n) = s.time(1, || {
        black_box(evaluate(&TrainedPolicy::Ppo(&learner), &mut reference, &eval));
    });
    p.set("rl.evaluate_ms_per_episode", t * MS / eval.episodes as f64, n);

    // The plain one-thread training loop: the baseline the backends'
    // scaling efficiency is measured against.
    let few = if smoke { 1 } else { 3 };
    let once = Sampler { samples: few, min_samples: few };
    for (algorithm, steps, name) in [
        (Algorithm::Ppo, 1024usize, "rl.single_thread_steps_per_s.ppo"),
        (Algorithm::Sac, 256, "rl.single_thread_steps_per_s.sac"),
    ] {
        let spec = TrainSpec {
            algorithm,
            total_steps: steps,
            ppo: harness_ppo(&opts),
            sac: harness_sac(&HarnessOpts { steps, ..opts.clone() }),
            seed: 11,
        };
        let eval = EvalSpec { episodes: 1, max_steps: 1 };
        let mut rates = Vec::new();
        let (_, n) = once.time_with(|| {
            let mut env = AirdropEnv::new(config.clone());
            let mut eval_env = AirdropEnv::new(config.clone());
            let t = Instant::now();
            let report = rl_algos::train(&mut env, &mut eval_env, &spec, &eval);
            let seconds = t.elapsed().as_secs_f64();
            rates.push(report.env_steps as f64 / seconds);
            seconds
        });
        p.set(name, median(&rates), n);
    }
}

fn worker_specs<'f>(workers: usize) -> Vec<WorkerSpec<'f>> {
    (0..workers as u64)
        .map(|w| {
            let blueprint = CollectorBlueprint::per_env(EnvBlueprint::AirdropFast, w + 1);
            WorkerSpec::new(0, blueprint.build()).with_blueprint(blueprint)
        })
        .collect()
}

fn round(runtime: &mut Runtime<'_>, policy: &ActorCritic, index: u64, steps: usize) {
    let workers = runtime.n_workers();
    let rngs = (0..workers).map(|w| RngStream::fresh(1000 * index + w as u64)).collect();
    let outcome = runtime.collect_round(index, steps, rngs).expect("probe round");
    black_box(outcome.segments.len());
    let all: Vec<usize> = (0..workers).collect();
    runtime.broadcast_weights(index, policy, &all).expect("probe broadcast");
}

fn distrib(p: &mut Probes, s: Sampler) -> Result<(), String> {
    const WORKERS: usize = 4;
    let probe_env = EnvBlueprint::AirdropFast.build(0);
    let mut rng = StdRng::seed_from_u64(7);
    let policy = ActorCritic::new(
        probe_env.observation_space().dim(),
        &probe_env.action_space(),
        &[64, 64],
        &mut rng,
    );

    for (config, kind, spawn, shutdown) in [
        (TransportConfig::InProcess, TransportKind::InProcess, "distrib.spawn_ms.inproc.w4", None),
        (
            TransportConfig::Uds,
            TransportKind::Uds,
            "distrib.spawn_ms.uds.w4",
            Some("distrib.shutdown_ms.uds.w4"),
        ),
    ] {
        let mut spawn_s = Vec::new();
        let mut shutdown_s = Vec::new();
        let mut fell_back = false;
        let (_, n) = s.time_with(|| {
            let specs = worker_specs(WORKERS);
            let t = Instant::now();
            let runtime = Runtime::spawn_with(specs, &policy, config.clone());
            let seconds = t.elapsed().as_secs_f64();
            spawn_s.push(seconds);
            fell_back |= runtime.transport_kind() != kind;
            let t = Instant::now();
            runtime.shutdown();
            shutdown_s.push(t.elapsed().as_secs_f64());
            seconds
        });
        if fell_back {
            return Err(format!(
                "the {} transport fell back to channels: rldt-worker is not beside this binary",
                kind.as_str()
            ));
        }
        p.set(spawn, median(&spawn_s) * MS, n);
        if let Some(name) = shutdown {
            p.set(name, median(&shutdown_s) * MS, n);
        }
    }

    // A round is one collection of 256 steps (64 per worker) and one
    // weight broadcast. A one-step round is what dispatch alone costs.
    for (config, round_name, dispatch_name) in [
        (
            TransportConfig::InProcess,
            "distrib.round_us.inproc.w4",
            Some("distrib.dispatch_us.inproc.w4"),
        ),
        (TransportConfig::Uds, "distrib.round_us.uds.w4", None),
    ] {
        let mut runtime = Runtime::spawn_with(worker_specs(WORKERS), &policy, config);
        let mut index = 0u64;
        let bytes_before = runtime.transport_stats().bytes_total();
        let (t, n) = s.time(1, || {
            index += 1;
            round(&mut runtime, &policy, index, 64);
        });
        p.set(round_name, t * US, n);
        let rounds = index.max(1) as f64;
        let bytes = (runtime.transport_stats().bytes_total() - bytes_before) as f64 / rounds;
        if let Some(name) = dispatch_name {
            let (t, n) = s.time(4, || {
                index += 1;
                round(&mut runtime, &policy, index, 1);
            });
            p.set(name, t * US, n);
        } else {
            p.aux.insert("distrib.round_bytes.uds.w4", bytes);
        }
        runtime.shutdown();
    }

    // One 256-step segment through the wire codec.
    let mut runtime = Runtime::spawn_with(worker_specs(1), &policy, TransportConfig::InProcess);
    let outcome = runtime
        .collect_round(0, 256, vec![RngStream::fresh(42)])
        .map_err(|e| format!("codec probe round: {e}"))?;
    runtime.shutdown();
    let segment = outcome.segments.into_iter().next().ok_or("codec probe: no segment")?;
    let mut event = Event::SegmentReady {
        worker: segment.worker,
        node: segment.node,
        round: 0,
        segment: Box::new(segment.segment),
        rng: segment.rng,
    };
    let mut writer = FrameWriter::new();
    let mut cache = RngCache::new();
    let (t, n) = s.time(20, || {
        black_box(codec::encode_event(&mut writer, &mut event, &mut cache).len());
    });
    p.set("distrib.codec_encode_us.rollout256", t * US, n);
    let frame = codec::encode_event(&mut writer, &mut event, &mut cache).to_vec();
    let mut decode_cache = RngCache::new();
    let (t, n) = s.time(20, || {
        // A frame is `[u32 length][tag][body]`.
        black_box(codec::decode_event(frame[4], &frame[5..], &mut decode_cache).is_ok());
    });
    p.set("distrib.codec_decode_us.rollout256", t * US, n);
    Ok(())
}

fn cluster(p: &mut Probes, s: Sampler) {
    let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
    let event =
        SessionEvent::Compute { work: vec![NodeWork { node: 0, units: 1_000.0, streams: 4 }] };
    let (t, n) = s.time(1_000, || {
        black_box(session.apply(&event));
    });
    p.set("cluster.apply_ns", t * NS, n);
}

/// `count` finished trials over random Table I configurations, each with a
/// 64-sample reward distribution: the shape `study_core` ranks.
fn synthetic_trials(count: usize) -> Vec<Trial> {
    let space = PaperRow::space();
    let mut rng = StdRng::seed_from_u64(17);
    (0..count)
        .map(|id| {
            let config = space.sample(&mut rng);
            let metrics = crate::workloads::study_core::surrogate(&config, 17, 64)
                .expect("sampled configurations decode");
            Trial::complete(id, config, metrics)
        })
        .collect()
}

fn core(p: &mut Probes, s: Sampler, scratch: &Scratch) -> Result<(), String> {
    let dir = scratch.fresh_dir("probe-wal");
    let trials = synthetic_trials(2_000);
    let completed = |i: usize| StudyEvent::TrialCompleted {
        trial: i,
        metrics: trials[i % trials.len()].metrics.clone(),
    };

    for (durability, inner, file, name) in [
        (Durability::Buffered, 50usize, "buffered.jsonl", "core.wal_append_us.buffered"),
        (Durability::Flush, 50, "flush.jsonl", "core.wal_append_us.flush"),
        (Durability::Sync, 2, "sync.jsonl", "core.wal_append_us.sync"),
    ] {
        let journal = Journal::new(dir.join(file)).with_durability(durability);
        let event = completed(0);
        let mut failed = None;
        let (t, n) = s.time(inner, || {
            if let Err(e) = journal.append(&event) {
                failed = Some(e.to_string());
            }
        });
        if let Some(e) = failed {
            return Err(format!("{name}: {e}"));
        }
        journal.flush().map_err(|e| format!("{name}: {e}"))?;
        p.set(name, t * US, n);
    }

    // 1000 trials, a start and a finish record each.
    let journal = Journal::new(dir.join("load.jsonl")).with_durability(Durability::Buffered);
    for (i, trial) in trials.iter().take(1_000).enumerate() {
        journal
            .append(&StudyEvent::TrialStarted { trial: i, config: trial.config.clone() })
            .and_then(|_| journal.append(&completed(i)))
            .map_err(|e| format!("core.wal_load_ms.n2000: {e}"))?;
    }
    journal.flush().map_err(|e| format!("core.wal_load_ms.n2000: {e}"))?;
    let (t, n) = s.time(1, || {
        black_box(journal.load().map(|load| load.events.len()).unwrap_or(0));
    });
    p.set("core.wal_load_ms.n2000", t * MS, n);

    // What a study adds around an objective that does nothing.
    let (t, n) = s.time(1, || {
        let study = Study::builder("overhead")
            .space(PaperRow::space())
            .explorer(RandomSearch::new(200))
            .metric(MetricDef::maximize("score"))
            .objective(|_cfg: &Configuration, _ctx: &mut TrialContext| {
                Ok(MetricValues::new().with("score", 1.0))
            })
            .build()
            .expect("overhead study builds");
        black_box(study.run().map(|t| t.len()).unwrap_or(0));
    });
    p.set("core.study_overhead_us_per_trial", t * US / 200.0, n);

    let cache = TrialCache::new();
    cache.absorb(&trials[..1_000], "probe", 17);
    let mut i = 0usize;
    let (t, n) = s.time(1_000, || {
        i = (i + 1) % 1_000;
        black_box(cache.lookup(&trials[i].config, "probe", 17).is_some());
    });
    p.set("core.cache_lookup_ns", t * NS, n);

    let reward = trials[0].metrics.distribution_key(metric_keys::REWARD).expect("surrogate reward");
    let spec = BootstrapSpec { level: 0.95, resamples: 1_000, seed: 0x5EED };
    let (t, n) = s.time(2, || {
        black_box(reward.bootstrap_ci(&spec));
    });
    p.set("core.bootstrap_ci_us.n64.r1000", t * US, n);

    let reward = MetricDef::maximize_key(metric_keys::REWARD);
    let time = MetricDef::minimize_key(metric_keys::TIME_MIN);
    let power = MetricDef::minimize_key(metric_keys::POWER_KJ);
    let metrics = [reward.clone(), time.clone(), power];
    let (t, n) = s.time(1, || {
        black_box(ParetoFront::compute(&trials, &metrics).len());
    });
    p.set("core.pareto_front_ms.n2000", t * MS, n);

    let spec = BootstrapSpec { level: 0.95, resamples: 200, seed: 0x5EED };
    let gate = RankSpec::sorted().metric(reward.clone()).bootstrap(spec).ci_gate(0.95);
    let (t, n) = s.time(1, || {
        black_box(gate.rank(&trials).tiers.len());
    });
    p.set("core.rank_ci_gate_ms.n2000", t * MS, n);

    let params = ["draw", "rk_order", "framework", "algorithm", "nodes", "cores"];
    let front = ParetoFront::compute(&trials, &[time.clone(), reward.clone()]);
    let (t, n) = s.time(1, || {
        use decision::report::{csv, markdown, svg, table};
        black_box(table::render_table_with_dispersion(&trials, &params, &metrics, &spec));
        black_box(csv::trials_to_csv_with_dispersion(&trials, &params, &metrics, &spec));
        black_box(markdown::trials_to_markdown_with_ci(
            &trials,
            &params,
            &metrics,
            Some(&front),
            &spec,
        ));
        black_box(
            svg::ScatterPlot::new("probe", time.clone(), reward.clone())
                .with_whiskers(spec)
                .render(&trials, &front),
        );
    });
    p.set("core.report_ms.n2000", t * MS, n);
    Ok(())
}

fn counterfactual_layer(p: &mut Probes, s: Sampler) -> Result<(), String> {
    let analyzer =
        CounterfactualAnalyzer::new(EnvBlueprint::AirdropFast, AnalyzerConfig::default());
    let episode = analyzer.record_episode(3, 4, |_, _| Action::Continuous(vec![0.1]));
    let point = episode.points.last().ok_or("counterfactual probe: no decision point")?;
    let payload = WhatIfPayload {
        env: EnvBlueprint::AirdropFast,
        snapshot: point.snapshot.clone(),
        horizon: 64,
        policy: ContinuationPolicy::Hold,
        tasks: (0..32)
            .map(|j| WhatIfTask {
                first_action: Action::Continuous(vec![-0.5 + j as f64 / 32.0]),
                seed: 0xFA9_0000u64 + j as u64,
            })
            .collect(),
    };
    for (name, mut exec) in [
        ("counterfactual.fanout_us.scalar.w32", Exec::Scalar),
        ("counterfactual.fanout_us.batched.w32", Exec::Batched { force: None }),
    ] {
        let mut failed = None;
        let (t, n) = s.time(1, || match exec.run(&payload) {
            Ok(returns) => {
                black_box(returns.len());
            }
            Err(e) => failed = Some(e.to_string()),
        });
        if let Some(e) = failed {
            return Err(format!("{name}: {e}"));
        }
        p.set(name, t * US, n);
    }

    let a = Distribution::from_samples((0..16).map(|i| -0.5 + 0.03 * i as f64).collect());
    let b = Distribution::from_samples((0..16).map(|i| -0.7 + 0.05 * i as f64).collect());
    let (t, n) = s.time(200, || {
        black_box(js_divergence(&a, &b, 16) + wasserstein_1(&a, &b));
    });
    p.set("counterfactual.divergence_us.n16", t * US, n);
    Ok(())
}

fn telemetry_layer(p: &mut Probes, s: Sampler) {
    let ring = RingRecorder::with_capacity(1 << 16);
    let (t, n) = s.time(1_000, || ring.counter_add(Key("probe.counter"), 1));
    p.set("telemetry.counter_add_ns", t * NS, n);
    let (t, n) = s.time(1_000, || {
        let span = ring.span_begin(Key("probe.span"));
        ring.span_end(span);
    });
    p.set("telemetry.span_ns", t * NS, n);
    let (t, n) = s.time(1_000, || {
        ring.event(Key("probe.event"), &[(Key("a"), Value::U64(1)), (Key("b"), Value::F64(0.5))]);
    });
    p.set("telemetry.event_ns", t * NS, n);
}
