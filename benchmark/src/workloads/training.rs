//! One training trial built from the layers' public pieces, shared by the
//! `deploy_uds` workload and by the traced pass of `table1`.
//!
//! It is `bench`'s private `run_row_once` put together again: an
//! `ExecSpec`, `harness_ppo` / `harness_sac`, `run_recorded`, the usage
//! rolled up from the trial's own recorder, and
//! `TrainedModel::evaluate_episodes` on the reference environment. The
//! traced pass of `table1` asserts that it reproduces the product path bit
//! for bit, which is what lets its spans stand for the product's time.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use bench::PAPER_STEPS;
use cluster_sim::{ClusterSpec, Usage};
use decision::prelude::*;
use dist_exec::{run_recorded, EnvFactory, ExecSpec, Framework};
use gymrs::Environment;
use rk_ode::RkOrder;
use rl_algos::Algorithm;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{Key, Recorder, RingRecorder, Snapshot};

/// The benchmark's own spans around the three stages of a trial.
pub const SPAN_TRAIN: Key = Key("bench.train");
pub const SPAN_EVAL: Key = Key("bench.eval");
pub const SPAN_METRICS: Key = Key("bench.metrics");

/// Everything one trial needs.
pub struct TrainJob<'a> {
    pub spec: ExecSpec,
    pub factory: &'a dyn EnvFactory,
    /// RK order of the training environment (for the cost model).
    pub rk_order: RkOrder,
    /// The reference environment the trained policy is scored on.
    pub eval_config: AirdropConfig,
    pub eval_seed: u64,
    pub eval_episodes: usize,
}

/// What the traced pass keeps of one trial.
#[derive(Debug, Clone)]
pub struct TrialSample {
    pub framework: Framework,
    pub algorithm: Algorithm,
    pub rk_order: RkOrder,
    pub workers: usize,
    pub env_steps: u64,
    pub env_work: u64,
    pub updates: u64,
    pub learn_flops: u64,
    pub train_s: f64,
    pub eval_s: f64,
    pub metrics_s: f64,
    /// Simulated raw seconds of the cluster model for this trial.
    pub sim_wall_s: f64,
}

/// Accumulates the per-trial recorders of a traced pass. Each trial
/// records into a ring of its own, as the product path does — the usage
/// roll-up reads one trial's counters — and the totals are summed here.
pub struct Tracer {
    /// The benchmark's spans and the study's own trial spans.
    pub ring: Arc<RingRecorder>,
    totals: Mutex<Totals>,
}

#[derive(Default)]
pub struct Totals {
    pub counters: BTreeMap<String, u64>,
    pub occupancy_sum: f64,
    pub occupancy_count: u64,
    pub wire_flush_ns: u64,
    pub dropped_events: u64,
    pub trials: Vec<TrialSample>,
}

impl Totals {
    pub fn counter(&self, key: Key) -> f64 {
        self.counters.get(key.name()).copied().unwrap_or(0) as f64
    }
}

impl Tracer {
    pub fn new() -> Self {
        // Sized so that no event of a traced unit is dropped.
        Tracer {
            ring: Arc::new(RingRecorder::with_capacity(1 << 18)),
            totals: Mutex::new(Totals::default()),
        }
    }

    fn absorb(&self, snap: &Snapshot, sample: TrialSample) {
        let mut totals = self.totals.lock().expect("no trial panics while absorbing");
        for (name, value) in &snap.counters {
            *totals.counters.entry(name.clone()).or_default() += value;
        }
        if let Some(g) = snap.gauge(dist_exec::keys::RT_OCCUPANCY.name()) {
            totals.occupancy_sum += g.sum;
            totals.occupancy_count += g.count;
        }
        totals.wire_flush_ns += snap
            .spans_named(dist_exec::keys::RT_WIRE_FLUSH.name())
            .map(|s| s.duration_ns())
            .sum::<u64>();
        totals.dropped_events += snap.dropped_events;
        totals.trials.push(sample);
    }

    pub fn into_totals(self) -> (Arc<RingRecorder>, Totals) {
        (self.ring, self.totals.into_inner().expect("no trial panicked while absorbing"))
    }
}

/// Train, roll the usage up, evaluate on the reference environment and
/// report the study's metrics. With a tracer, each stage is wrapped in
/// one of the benchmark's spans and the trial's recorder is absorbed.
pub fn train_and_score(
    job: &TrainJob<'_>,
    tracer: Option<&Tracer>,
) -> Result<MetricValues, String> {
    let outer: &dyn Recorder = match tracer {
        Some(t) => t.ring.as_ref(),
        None => &telemetry::NullRecorder,
    };
    let nodes = job.spec.deployment.nodes;

    let ring = Arc::new(RingRecorder::new());
    let span = outer.span_begin(SPAN_TRAIN);
    let started = Instant::now();
    let report = run_recorded(&job.spec, job.factory, ring.clone())?;
    let train_s = started.elapsed().as_secs_f64();
    outer.span_end(span);

    let span = outer.span_begin(SPAN_EVAL);
    let started = Instant::now();
    let mut eval_env = AirdropEnv::new(job.eval_config.clone());
    eval_env.seed(job.eval_seed);
    let (reward, eval_returns) =
        report.model.evaluate_episodes(&mut eval_env, job.eval_episodes, 100_000);
    let eval_s = started.elapsed().as_secs_f64();
    outer.span_end(span);

    let span = outer.span_begin(SPAN_METRICS);
    let started = Instant::now();
    let snap = ring.snapshot();
    let usage = Usage::from_snapshot(&snap, &ClusterSpec::paper_testbed(nodes));
    let env_steps = snap.counter(dist_exec::keys::ENV_STEPS.name()).unwrap_or(report.env_steps);
    // Backends round the budget up to whole rollouts: extrapolate to the
    // paper's 200k steps from the steps actually executed.
    let scale = PAPER_STEPS as f64 / env_steps.max(1) as f64;
    let mut metrics = MetricValues::new()
        .with_key(metric_keys::REWARD, reward)
        .with_key(metric_keys::TIME_MIN, usage.minutes() * scale)
        .with_key(metric_keys::POWER_KJ, usage.kilojoules() * scale)
        .with_key(metric_keys::RAW_MINUTES, usage.minutes())
        .with_key(metric_keys::ENV_STEPS, env_steps as f64)
        .with_key(metric_keys::BYTES_MOVED, usage.bytes_moved as f64)
        .with_key(metric_keys::DEGRADED, if report.degraded { 1.0 } else { 0.0 })
        .with(super::WIRE_BYTES, usage.wire_bytes as f64);
    metrics.set_distribution_key(metric_keys::REWARD, Distribution::from_samples(eval_returns));
    let metrics_s = started.elapsed().as_secs_f64();
    outer.span_end(span);

    if let Some(tracer) = tracer {
        tracer.absorb(
            &snap,
            TrialSample {
                framework: job.spec.framework,
                algorithm: job.spec.algorithm,
                rk_order: job.rk_order,
                workers: job.spec.deployment.total_cores(),
                env_steps,
                env_work: report.env_work,
                updates: report.updates,
                learn_flops: report.learn_flops,
                train_s,
                eval_s,
                metrics_s,
                sim_wall_s: usage.wall_s,
            },
        );
    }
    Ok(metrics)
}

/// Per-layer values of a traced training workload (`table1`,
/// `deploy_uds`): the summed counters of the trials' recorders, the
/// benchmark's spans, and the modelled attribution of `bench.train_s`.
pub fn layer_values(
    totals: &Totals,
    outer: &Snapshot,
    probes: &crate::probes::Probes,
) -> super::LayerValues {
    use dist_exec::keys as dk;
    let mut v = super::LayerValues::new();
    let trials = &totals.trials;
    let sum = |f: fn(&TrialSample) -> f64| trials.iter().map(f).sum::<f64>();

    let train_s = sum(|t| t.train_s);
    let eval_s = sum(|t| t.eval_s);
    let metrics_s = sum(|t| t.metrics_s);
    let trial_span_s = outer
        .spans_named(study_keys::TRIAL.name())
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum::<f64>();
    v.insert("bench.train_s", train_s);
    v.insert("bench.eval_s", eval_s);
    v.insert("bench.metrics_s", metrics_s);
    v.insert("bench.unattributed_s", trial_span_s - (train_s + eval_s + metrics_s));

    for (framework, name) in [
        (Framework::RayRllib, "distrib.train_s.rllib"),
        (Framework::StableBaselines, "distrib.train_s.sb3"),
        (Framework::TfAgents, "distrib.train_s.tfa"),
    ] {
        v.insert(name, trials.iter().filter(|t| t.framework == framework).map(|t| t.train_s).sum());
    }
    v.insert("distrib.commands", totals.counter(dk::RT_COMMANDS));
    v.insert("distrib.events", totals.counter(dk::RT_EVENTS));
    v.insert("distrib.broadcasts", totals.counter(dk::RT_BROADCASTS));
    v.insert("distrib.broadcast_bytes", totals.counter(dk::RT_BROADCAST_BYTES));
    let wire_bytes = totals.counter(dk::RT_WIRE_BYTES_OUT) + totals.counter(dk::RT_WIRE_BYTES_IN);
    v.insert("distrib.wire_bytes", wire_bytes);
    v.insert(
        "distrib.wire_frames",
        totals.counter(dk::RT_WIRE_FRAMES_OUT) + totals.counter(dk::RT_WIRE_FRAMES_IN),
    );
    v.insert("distrib.wire_flushes", totals.counter(dk::RT_WIRE_FLUSHES));
    v.insert("distrib.wire_flush_s", totals.wire_flush_ns as f64 / 1e9);
    v.insert(
        "distrib.occupancy_mean",
        if totals.occupancy_count == 0 {
            0.0
        } else {
            totals.occupancy_sum / totals.occupancy_count as f64
        },
    );
    v.insert("distrib.retries", totals.counter(dk::RT_RETRIES));
    v.insert("distrib.quarantines", totals.counter(dk::RT_QUARANTINES));

    // Backend steps per second against the plain one-thread loop times the
    // threads the deployment can really use here.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single = probes.get("rl.single_thread_steps_per_s.ppo");
    for (framework, name) in [
        (Framework::RayRllib, "distrib.scaling_efficiency.rllib"),
        (Framework::StableBaselines, "distrib.scaling_efficiency.sb3"),
        (Framework::TfAgents, "distrib.scaling_efficiency.tfa"),
    ] {
        let ratios: Vec<f64> = trials
            .iter()
            .filter(|t| t.framework == framework && t.algorithm == Algorithm::Ppo)
            .map(|t| (t.env_steps as f64 / t.train_s) / (single * t.workers.min(nproc) as f64))
            .collect();
        let mean =
            if ratios.is_empty() { 0.0 } else { ratios.iter().sum::<f64>() / ratios.len() as f64 };
        v.insert(name, mean);
    }

    let drift: Vec<f64> = trials.iter().map(|t| t.sim_wall_s / t.train_s).collect();
    v.insert(
        "cluster.sim_over_real",
        if drift.is_empty() { 0.0 } else { crate::sys::median(&drift) },
    );

    v.insert("ode.fn_evals", totals.counter(dk::ENV_WORK));
    v.insert("gym.steps", totals.counter(gymrs::keys::STEPS));
    v.insert("gym.episodes", totals.counter(gymrs::keys::EPISODES));
    let ticks = totals.counter(gymrs::keys::TICKS);
    v.insert(
        "gym.batched_tick_share",
        if ticks == 0.0 { 0.0 } else { totals.counter(gymrs::keys::BATCHED_TICKS) / ticks },
    );

    // Acting forwards are computed from the step counts; update passes
    // are the learners' own accounting.
    let obs_dim = AirdropEnv::new(AirdropConfig::default()).observation_space().dim();
    let net = [obs_dim, 64, 64, 1];
    let forward: u64 = trials
        .iter()
        .map(|t| {
            let nets = if t.algorithm == Algorithm::Ppo { 2 } else { 1 };
            nets * tinynn::forward_flops(&net, t.env_steps as usize)
        })
        .sum();
    v.insert("nn.flops_forward", forward as f64);
    v.insert("nn.flops_backward", trials.iter().map(|t| t.learn_flops).sum::<u64>() as f64);

    // The attribution of `bench.train_s`: a traced count times the unit
    // cost a probe measured. It is a model, not a measurement — work done
    // in parallel is counted at its serial cost — and what it does not
    // reach is reported as `unexplained`.
    let ode_ns_per_eval = |order: RkOrder| {
        let interval = match order {
            RkOrder::Three => probes.get("ode.interval_ns.rk3"),
            RkOrder::Five => probes.get("ode.interval_ns.rk5"),
            RkOrder::Eight => probes.get("ode.interval_ns.rk8"),
        };
        interval / bench::calibration::evals_per_control_step(order)
    };
    let env_overhead_ns = (((probes.get("airdrop.step_ns.rk3")
        - probes.get("ode.interval_ns.rk3"))
        + (probes.get("airdrop.step_ns.rk8") - probes.get("ode.interval_ns.rk8")))
        / 2.0)
        .max(0.0);
    let mut ode_ns = 0.0;
    let mut env_ns = 0.0;
    let mut forward_ns = 0.0;
    let mut update_ns = 0.0;
    for t in trials {
        ode_ns += t.env_work as f64 * ode_ns_per_eval(t.rk_order);
        env_ns += t.env_steps as f64 * env_overhead_ns;
        match t.algorithm {
            Algorithm::Ppo => {
                forward_ns += t.env_steps as f64 * probes.get("rl.act_batch_ns_per_row.b4");
                update_ns += t.env_steps as f64 / 1024.0 * probes.get("rl.ppo_update_ms") * 1e6;
            }
            Algorithm::Sac => {
                forward_ns += t.env_steps as f64 * probes.get("nn.forward_ns_per_row.b1");
                update_ns += t.updates as f64 * probes.get("rl.sac_update_us") * 1e3;
            }
        }
    }
    // A probe round of four workers is sixteen messages: four collection
    // commands, four segments, four weight updates, four heartbeats.
    let messages = totals.counter(dk::RT_COMMANDS) + totals.counter(dk::RT_EVENTS);
    let runtime_ns = messages / 16.0 * probes.get("distrib.dispatch_us.inproc.w4") * 1e3;
    let round_bytes = probes.aux("distrib.round_bytes.uds.w4");
    let wire_ns_per_byte = if round_bytes > 0.0 {
        ((probes.get("distrib.round_us.uds.w4") - probes.get("distrib.round_us.inproc.w4")) * 1e3
            / round_bytes)
            .max(0.0)
    } else {
        0.0
    };
    let wire_ns = wire_bytes * wire_ns_per_byte;
    let train_ns = train_s * 1e9;
    let mut explained = 0.0;
    for (name, ns) in [
        ("bench.est_share.ode", ode_ns),
        ("bench.est_share.env", env_ns),
        ("bench.est_share.policy_forward", forward_ns),
        ("bench.est_share.update", update_ns),
        ("bench.est_share.runtime", runtime_ns),
        ("bench.est_share.wire", wire_ns),
    ] {
        let share = if train_ns > 0.0 { ns / train_ns } else { 0.0 };
        explained += share;
        v.insert(name, share);
    }
    v.insert("bench.est_share.unexplained", 1.0 - explained);
    v
}
