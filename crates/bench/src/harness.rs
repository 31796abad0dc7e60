//! The experiment harness: run Table I configurations end-to-end.
//!
//! Each trial trains for real (PPO or SAC on the airdrop simulator via
//! the configured framework backend), evaluates the learned policy on the
//! reference environment (order-8, fine-step — DESIGN.md §3), and reports
//! the paper's three metrics:
//!
//! * `reward` — mean greedy evaluation return (landing precision);
//! * `time_min` — simulated wall-clock, extrapolated to the paper's
//!   200,000-step budget so Table I comparisons line up;
//! * `power_kj` — simulated energy, extrapolated the same way.

use crate::paper::PaperRow;
use airdrop_sim::{AirdropConfig, AirdropEnv};
use cluster_sim::{ClusterSpec, Usage};
use decision::prelude::*;
use decision::storage::Journal;
use dist_exec::{run_recorded, Deployment, ExecSpec, FnEnvFactory};
use gymrs::Environment;
use rl_algos::ppo::PpoConfig;
use rl_algos::sac::SacConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// The paper's training budget (§V-a).
pub const PAPER_STEPS: usize = 200_000;

/// Harness options shared by the `experiments` binary, the benchmark and
/// the tests.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Environment steps per training (default: scaled-down budget).
    pub steps: usize,
    /// Master seed.
    pub seed: u64,
    /// Drop-altitude interval (the default harness shortens episodes; the
    /// `--paper` flag restores the paper's `[30, 1000]`).
    pub altitude_limits: (f64, f64),
    /// Greedy evaluation episodes on the reference environment.
    pub eval_episodes: usize,
    /// Output directory for CSV/SVG artifacts and the trial journal.
    pub out_dir: Option<PathBuf>,
    /// Restrict to these solution ids (1-based).
    pub only: Option<Vec<usize>>,
    /// Training replicas per row: rewards are averaged over this many
    /// independent seeds (times/energies are seed-independent up to
    /// episode-length jitter and are averaged too). The paper trains each
    /// configuration once; replicas tame the seed noise our scaled-down
    /// budget would otherwise leave on the reward axis.
    pub replicas: usize,
    /// Install a median pruner on the Table I study: per-iteration reward
    /// reports from the execution runtime feed
    /// [`decision::pruner::MedianPruner`], so clearly-losing rows stop
    /// early. Off by default — the paper trains every configuration to
    /// completion.
    pub prune: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            steps: 24_000,
            seed: 42,
            altitude_limits: (30.0, 600.0),
            eval_episodes: 20,
            out_dir: Some(PathBuf::from("results")),
            only: None,
            replicas: 1,
            prune: false,
        }
    }
}

impl HarnessOpts {
    /// The paper's full-scale configuration.
    pub fn paper() -> Self {
        Self { steps: PAPER_STEPS, altitude_limits: (30.0, 1000.0), ..Self::default() }
    }

    /// A tiny smoke-test configuration (used by integration tests).
    pub fn smoke() -> Self {
        Self {
            steps: 1_500,
            altitude_limits: (20.0, 60.0),
            eval_episodes: 4,
            out_dir: None,
            ..Self::default()
        }
    }

    /// Parse the `gantt` and `telemetry_smoke` command lines: `--steps N`,
    /// `--seed N`, `--out DIR`, `--no-out`.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--steps" => opts.steps = take("--steps")?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => opts.seed = take("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--out" => opts.out_dir = Some(PathBuf::from(take("--out")?)),
                "--no-out" => opts.out_dir = None,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

/// The identity a harness study's journal is checked against: the study
/// name, the journal's file name under `out_dir`, and the objective
/// fingerprint. `rows` are the Table I study's row ids; `None` names the
/// §VI-D ablation study.
///
/// Both fingerprints begin `steps S altitudes (A, B) eval E replicas R`,
/// the options a trial's bits depend on besides the seed; Table I's goes
/// on ` prune P rows [ids]`. The checked-in journals' checkpoints hold
/// these strings byte for byte, so any change here makes them refused.
pub fn journal_identity(
    opts: &HarnessOpts,
    rows: Option<&[usize]>,
) -> (&'static str, String, String) {
    let (steps, seed, replicas) = (opts.steps, opts.seed, opts.replicas);
    let (altitudes, eval) = (opts.altitude_limits, opts.eval_episodes);
    let options = format!("steps {steps} altitudes {altitudes:?} eval {eval} replicas {replicas}");
    match rows {
        Some(ids) => (
            "airdrop-table1",
            format!("trials_steps{steps}_seed{seed}_rep{replicas}.jsonl"),
            format!("{options} prune {} rows {ids:?}", opts.prune),
        ),
        None => ("airdrop-ablations", "ablations.jsonl".into(), options),
    }
}

/// Training-time environment for a row: the study configuration's RK
/// order, shaping on.
fn train_env_config(row: &PaperRow, opts: &HarnessOpts) -> AirdropConfig {
    AirdropConfig {
        altitude_limits: opts.altitude_limits,
        ..AirdropConfig::paper_study(row.rk_order)
    }
}

/// Reference evaluation environment (identical drops across rows).
fn eval_env_config(opts: &HarnessOpts) -> AirdropConfig {
    AirdropConfig { altitude_limits: opts.altitude_limits, ..AirdropConfig::default() }.reference()
}

/// PPO hyperparameters used by every framework (their shared defaults,
/// lightly scaled to the step budget).
pub fn harness_ppo(opts: &HarnessOpts) -> PpoConfig {
    PpoConfig {
        n_steps: if opts.steps >= 100_000 { 2048 } else { 1024 },
        epochs: 8,
        ent_coef: 1e-3,
        ..PpoConfig::default()
    }
}

/// SAC hyperparameters (scaled so the real runtime stays tractable; the
/// *simulated* cost still reflects SAC's much heavier update path).
pub fn harness_sac(opts: &HarnessOpts) -> SacConfig {
    if opts.steps >= 100_000 {
        SacConfig::default()
    } else {
        SacConfig {
            batch: 64,
            update_every: 1,
            start_steps: (opts.steps / 20).clamp(64, 1_000),
            ..SacConfig::default()
        }
    }
}

/// Bridges the execution runtime's per-iteration telemetry to the
/// `decision` crate's [`TrialContext`]: every
/// [`dist_exec::keys::TRIAL_ITERATION`] event's tail-mean return is
/// reported against the iteration clock (every configuration reports at
/// iterations 1, 2, 3, … so [`MedianPruner`]'s same-step comparison finds
/// peers even when rollout sizes differ), and the pruner's verdict flows
/// back through [`should_stop`](telemetry::Recorder::should_stop), which
/// stops the trial's backends mid-training. One code path therefore feeds
/// both the cluster trace and the pruning curve.
///
/// A [`TrialContext`] borrows from its study, so it cannot live inside
/// the `'static` [`telemetry::SharedRecorder`] handle. The bridge instead
/// rendezvous with the thread that owns the context: each iteration event
/// blocks on a zero-capacity channel until the context has seen the
/// report and answered, so pruning stays exactly as synchronous as it
/// was — the trial stops at the iteration the pruner fired on.
struct PrunerBridge {
    /// The trace recorder every instrument call is forwarded to.
    ring: Arc<telemetry::RingRecorder>,
    /// Iteration reports out to the context thread; `None` once closed.
    reports: Mutex<Option<SyncSender<(u64, f64)>>>,
    /// The context thread's prune verdict for each report sent.
    verdicts: Mutex<Receiver<bool>>,
    /// Latched once the pruner fires.
    stopped: AtomicBool,
}

impl PrunerBridge {
    /// Stop relaying reports (the training run is over); the context
    /// thread's receive loop ends when the sender drops.
    fn close(&self) {
        self.reports.lock().expect("bridge lock").take();
    }
}

impl telemetry::Recorder for PrunerBridge {
    fn enabled(&self) -> bool {
        true
    }
    fn counter_add(&self, key: telemetry::Key, n: u64) {
        self.ring.counter_add(key, n);
    }
    fn accum_add(&self, key: telemetry::Key, v: f64) {
        self.ring.accum_add(key, v);
    }
    fn gauge_set(&self, key: telemetry::Key, v: f64) {
        self.ring.gauge_set(key, v);
    }
    fn span_begin(&self, key: telemetry::Key) -> telemetry::SpanId {
        self.ring.span_begin(key)
    }
    fn span_end(&self, span: telemetry::SpanId) {
        self.ring.span_end(span);
    }
    fn event(&self, key: telemetry::Key, fields: &[(telemetry::Key, telemetry::Value)]) {
        self.ring.event(key, fields);
        if key != dist_exec::keys::TRIAL_ITERATION {
            return;
        }
        let field = |name: telemetry::Key| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
        let Some(telemetry::Value::U64(iteration)) = field(dist_exec::keys::F_ITERATION) else {
            return;
        };
        let Some(telemetry::Value::F64(mean)) = field(dist_exec::keys::F_MEAN_RETURN) else {
            return;
        };
        // NaN until the first episode finishes: nothing to prune on yet.
        if !mean.is_finite() {
            return;
        }
        let guard = self.reports.lock().expect("bridge lock");
        if let Some(tx) = guard.as_ref() {
            if tx.send((*iteration, *mean)).is_ok() {
                if let Ok(true) = self.verdicts.lock().expect("bridge lock").recv() {
                    self.stopped.store(true, Ordering::SeqCst);
                }
            }
        }
    }
    fn should_stop(&self) -> bool {
        self.stopped.load(Ordering::SeqCst) || self.ring.should_stop()
    }
}

/// Run one Table I row; returns the study metrics (averaged over
/// `opts.replicas` independently-seeded trainings).
pub fn run_row(row: &PaperRow, opts: &HarnessOpts) -> Result<MetricValues, String> {
    run_row_with(row, opts, None)
}

/// [`run_row`] with an optional trial context: when given, the first
/// replica streams per-iteration returns to the study's pruner and the
/// remaining replicas are skipped if it fires (the trial is recorded as
/// pruned; partial averages are still returned).
pub(crate) fn run_row_with(
    row: &PaperRow,
    opts: &HarnessOpts,
    mut ctx: Option<&mut TrialContext<'_>>,
) -> Result<MetricValues, String> {
    let mut reward_sum = 0.0;
    let mut time_sum = 0.0;
    let mut power_sum = 0.0;
    let mut raw_minutes = 0.0;
    let mut env_steps_last = 0.0;
    let mut bytes_last = 0.0;
    let mut degraded_sum = 0.0;
    let mut rewards = Vec::with_capacity(opts.replicas);
    let mut times = Vec::with_capacity(opts.replicas);
    let mut powers = Vec::with_capacity(opts.replicas);
    let mut pooled_eval: Vec<f64> = Vec::new();
    let mut iter_curve: Option<Distribution> = None;
    let mut ran = 0usize;
    for k in 0..opts.replicas {
        let m = match ctx.as_deref_mut() {
            // Only the first replica reports: the pruner compares trials
            // on one seed's learning curve, not a moving mixture.
            Some(ctx) if k == 0 => run_row_once(row, opts, k as u64, Some(ctx))?,
            _ => run_row_once(row, opts, k as u64, None)?,
        };
        ran += 1;
        let r = m.get_key(metric_keys::REWARD).unwrap_or(f64::NAN);
        rewards.push(r);
        reward_sum += r;
        let t = m.get_key(metric_keys::TIME_MIN).unwrap_or(0.0);
        times.push(t);
        time_sum += t;
        let p = m.get_key(metric_keys::POWER_KJ).unwrap_or(0.0);
        powers.push(p);
        power_sum += p;
        raw_minutes += m.get_key(metric_keys::RAW_MINUTES).unwrap_or(0.0);
        env_steps_last = m.get_key(metric_keys::ENV_STEPS).unwrap_or(0.0);
        bytes_last = m.get_key(metric_keys::BYTES_MOVED).unwrap_or(0.0);
        degraded_sum += m.get_key(metric_keys::DEGRADED).unwrap_or(0.0);
        if let Some(d) = m.distribution_key(metric_keys::REWARD) {
            pooled_eval.extend_from_slice(d.samples());
        }
        if k == 0 {
            // Replica 0's learning curve only: concatenating replicas
            // would fabricate drawdowns at the seams, and it is the same
            // replica whose curve fed the pruner.
            iter_curve = m.distribution_key(metric_keys::REWARD_ITER).cloned();
        }
        if ctx.as_ref().is_some_and(|c| c.is_pruned()) {
            break;
        }
    }
    let n = ran as f64;
    let mean_reward = reward_sum / n;
    let reward_std = (rewards.iter().map(|r| (r - mean_reward).powi(2)).sum::<f64>() / n).sqrt();
    let eval_dist = Distribution::from_samples(pooled_eval);
    let mut m = MetricValues::new()
        .with_key(metric_keys::REWARD, mean_reward)
        .with_key(metric_keys::REWARD_STD, reward_std)
        .with_key(metric_keys::REWARD_STD_EPISODES, eval_dist.std())
        .with_key(metric_keys::TIME_MIN, time_sum / n)
        .with_key(metric_keys::POWER_KJ, power_sum / n)
        .with_key(metric_keys::RAW_MINUTES, raw_minutes / n)
        .with_key(metric_keys::ENV_STEPS, env_steps_last)
        .with_key(metric_keys::BYTES_MOVED, bytes_last)
        .with_key(metric_keys::DEGRADED, degraded_sum / n);
    // Evidence behind the scalars: pooled greedy-evaluation returns for
    // the reward, per-replica spreads for time/power, and replica 0's
    // per-iteration reward stream for learning-curve risk (drawdown).
    m.set_distribution_key(metric_keys::REWARD, eval_dist);
    m.set_distribution_key(metric_keys::TIME_MIN, Distribution::from_samples(times));
    m.set_distribution_key(metric_keys::POWER_KJ, Distribution::from_samples(powers));
    if let Some(curve) = iter_curve {
        m.set_key(metric_keys::REWARD_ITER, curve.mean());
        m.set_distribution_key(metric_keys::REWARD_ITER, curve);
    }
    Ok(m)
}

/// One training replica of a row. When `ctx` is given, per-iteration
/// returns stream to the study's pruner through a [`PrunerBridge`].
fn run_row_once(
    row: &PaperRow,
    opts: &HarnessOpts,
    replica: u64,
    ctx: Option<&mut TrialContext<'_>>,
) -> Result<MetricValues, String> {
    let mut spec = ExecSpec::new(
        row.framework,
        row.algorithm,
        Deployment { nodes: row.nodes, cores_per_node: row.cores },
        opts.steps,
        opts.seed.wrapping_add(row.id as u64 * 1000 + replica * 77),
    );
    spec.ppo = harness_ppo(opts);
    spec.sac = harness_sac(opts);

    let env_cfg = train_env_config(row, opts);
    let factory = FnEnvFactory(move |seed| {
        let mut env = AirdropEnv::new(env_cfg.clone());
        env.seed(seed);
        Box::new(env) as Box<dyn Environment>
    });

    // Record the whole execution trace; Computation Time and Power
    // Consumption are then rebuilt from the recorder's rollup rather than
    // read off the session's internal accounting. The two are
    // bitwise-identical by construction (the debug assertions check it).
    let ring = Arc::new(telemetry::RingRecorder::new());
    let report = match ctx {
        None => run_recorded(&spec, &factory, ring.clone())?,
        Some(ctx) => {
            let (report_tx, report_rx) = sync_channel::<(u64, f64)>(0);
            let (verdict_tx, verdict_rx) = sync_channel::<bool>(0);
            let bridge = Arc::new(PrunerBridge {
                ring: ring.clone(),
                reports: Mutex::new(Some(report_tx)),
                verdicts: Mutex::new(verdict_rx),
                stopped: AtomicBool::new(false),
            });
            // Training runs on a scoped thread so this thread can hold
            // the (study-borrowing) trial context and answer each
            // iteration report as it arrives; the rendezvous channels
            // keep the exchange as synchronous as a direct call.
            let spec_ref = &spec;
            let factory_ref = &factory;
            std::thread::scope(|s| {
                let b = bridge.clone();
                let training = s.spawn(move || {
                    let report = run_recorded(spec_ref, factory_ref, b.clone());
                    b.close();
                    report
                });
                while let Ok((iteration, mean)) = report_rx.recv() {
                    let prune = ctx.report(iteration, mean);
                    if verdict_tx.send(prune).is_err() {
                        break;
                    }
                }
                training.join().map_err(|_| "training thread panicked".to_string())?
            })?
        }
    };
    let snap = ring.snapshot();
    let usage = Usage::from_snapshot(&snap, &ClusterSpec::paper_testbed(row.nodes));
    debug_assert_eq!(usage.wall_s.to_bits(), report.usage.wall_s.to_bits());
    debug_assert_eq!(usage.energy_j.to_bits(), report.usage.energy_j.to_bits());
    let env_steps = snap.counter(dist_exec::keys::ENV_STEPS.name()).unwrap_or(report.env_steps);

    // Score on the reference dynamics with identical drops for every row.
    // `evaluate_episodes` accumulates the mean in the same order the
    // scalar `evaluate` did (bitwise-identical reward) while keeping the
    // per-episode returns for the distribution-first metrics.
    let mut eval_env = AirdropEnv::new(eval_env_config(opts));
    eval_env.seed(opts.seed.wrapping_add(999));
    let (reward, eval_returns) =
        report.model.evaluate_episodes(&mut eval_env, opts.eval_episodes, 100_000);

    // The per-iteration training reward stream (the same tail means the
    // pruner sees), in iteration order for drawdown statistics.
    let iter_returns: Vec<f64> = snap
        .events_named(dist_exec::keys::TRIAL_ITERATION.name())
        .filter_map(|e| e.field_f64(dist_exec::keys::F_MEAN_RETURN.name()))
        .collect();
    let iter_dist = Distribution::from_samples(iter_returns);

    // Backends round the budget up to whole rollout batches; extrapolate
    // from the steps actually executed so the 200k-step projection is
    // unbiased.
    let scale = PAPER_STEPS as f64 / env_steps.max(1) as f64;
    let mut m = MetricValues::new()
        .with_key(metric_keys::REWARD, reward)
        .with_key(metric_keys::TIME_MIN, usage.minutes() * scale)
        .with_key(metric_keys::POWER_KJ, usage.kilojoules() * scale)
        .with_key(metric_keys::RAW_MINUTES, usage.minutes())
        .with_key(metric_keys::ENV_STEPS, env_steps as f64)
        .with_key(metric_keys::BYTES_MOVED, usage.bytes_moved as f64)
        .with_key(metric_keys::DEGRADED, if report.degraded { 1.0 } else { 0.0 });
    m.set_distribution_key(metric_keys::REWARD, Distribution::from_samples(eval_returns));
    if !iter_dist.is_empty() {
        m.set_key(metric_keys::REWARD_ITER, iter_dist.mean());
        m.set_distribution_key(metric_keys::REWARD_ITER, iter_dist);
    }
    Ok(m)
}

/// Run the full Table I study (or the `only` subset) through the
/// `decision` crate, journaling to the output directory when set.
///
/// The journal is named and fingerprinted by [`journal_identity`], so a
/// journal recorded under other options is refused with the study's
/// "belongs to a different study" error instead of served.
pub fn run_table1_study(opts: &HarnessOpts) -> Result<Vec<Trial>, String> {
    let rows: Vec<&PaperRow> = crate::paper::TABLE1
        .iter()
        .filter(|r| opts.only.as_ref().map(|ids| ids.contains(&r.id)).unwrap_or(true))
        .collect();
    let configs: Vec<Configuration> = rows.iter().map(|r| r.to_config()).collect();
    let ids: Vec<usize> = rows.iter().map(|r| r.id).collect();
    let (name, file, fingerprint) = journal_identity(opts, Some(&ids));

    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }

    let opts2 = opts.clone();
    let mut builder = Study::builder(name)
        .space(PaperRow::space())
        .explorer(PresetList::new(configs))
        .metric(MetricDef::maximize_key(metric_keys::REWARD))
        .metric(MetricDef::minimize_key(metric_keys::TIME_MIN))
        .metric(MetricDef::minimize_key(metric_keys::POWER_KJ))
        .seed(opts.seed)
        .objective_fingerprint(fingerprint)
        .objective(move |cfg: &Configuration, ctx: &mut TrialContext| {
            let row = PaperRow::from_config(cfg)?;
            let canonical =
                PaperRow::by_id(row.id).ok_or_else(|| format!("unknown draw id {}", row.id))?;
            eprintln!(
                "[table1] running solution {:>2}: {} {} RK{} {}x{} cores",
                row.id,
                canonical.framework,
                canonical.algorithm,
                canonical.rk_order.order(),
                canonical.nodes,
                canonical.cores
            );
            run_row_with(canonical, &opts2, Some(ctx))
        });
    if opts.prune {
        builder = builder.pruner(MedianPruner::with_startup(5));
    }
    if let Some(dir) = &opts.out_dir {
        builder = builder.journal(Journal::new(dir.join(file)));
    }
    let study = builder.build()?;
    study.run()
}

/// Write a figure's CSV and SVG artifacts; returns the front's solution
/// ids (1-based, sorted).
pub fn emit_figure(
    name: &str,
    title: &str,
    trials: &[Trial],
    x: MetricDef,
    y: MetricDef,
    opts: &HarnessOpts,
) -> Result<Vec<usize>, String> {
    let metrics = [x.clone(), y.clone()];
    let front = ParetoFront::compute(trials, &metrics);
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let svg = decision::report::svg::ScatterPlot::new(title, x.clone(), y.clone())
            .render(trials, &front);
        std::fs::write(dir.join(format!("{name}.svg")), svg).map_err(|e| e.to_string())?;
        let csv = decision::report::csv::trials_to_csv(
            trials,
            &["rk_order", "framework", "algorithm", "nodes", "cores", "draw"],
            &[x, y],
        );
        std::fs::write(dir.join(format!("{name}.csv")), csv).map_err(|e| e.to_string())?;
    }
    let mut ids: Vec<usize> = front
        .indices()
        .iter()
        .map(|&i| trials[i].config.int("draw").unwrap_or(i as i64 + 1) as usize)
        .collect();
    ids.sort_unstable();
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE1;

    #[test]
    fn default_opts_are_scaled_down() {
        let o = HarnessOpts::default();
        assert!(o.steps < PAPER_STEPS);
    }

    #[test]
    fn paper_opts_restore_the_study() {
        let o = HarnessOpts::paper();
        assert_eq!(o.steps, PAPER_STEPS);
        assert_eq!(o.altitude_limits, (30.0, 1000.0));
    }

    #[test]
    fn arg_parsing_round_trip() {
        let o = HarnessOpts::from_args(
            ["--steps", "5000", "--seed", "7", "--out", "/tmp/x"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.steps, 5000);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out_dir, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn arg_parsing_rejects_unknown_flags() {
        assert!(HarnessOpts::from_args(["--bogus".to_string()].into_iter()).is_err());
        assert!(HarnessOpts::from_args(["--steps".to_string()].into_iter()).is_err());
    }

    #[test]
    fn smoke_row_runs_end_to_end() {
        // The cheapest PPO row at a tiny budget: exercises the whole
        // pipeline (backend, cluster session, reference evaluation).
        let opts = HarnessOpts::smoke();
        let row = TABLE1.iter().find(|r| r.id == 16).unwrap();
        let metrics = run_row(row, &opts).expect("row runs");
        assert!(metrics.get_key(metric_keys::REWARD).unwrap().is_finite());
        assert!(metrics.get_key(metric_keys::TIME_MIN).unwrap() > 0.0);
        assert!(metrics.get_key(metric_keys::POWER_KJ).unwrap() > 0.0);
        assert!(metrics.get_key(metric_keys::ENV_STEPS).unwrap() as usize >= opts.steps);
        // Distribution-first evidence rides along with the scalars.
        let eval = metrics.distribution_key(metric_keys::REWARD).expect("eval returns attached");
        assert!(!eval.is_empty());
        let curve =
            metrics.distribution_key(metric_keys::REWARD_ITER).expect("learning curve attached");
        assert!(!curve.is_empty());
        // One replica: the replica-mean spread is exactly zero, while the
        // per-episode spread is the pooled distribution's own std.
        assert_eq!(metrics.get_key(metric_keys::REWARD_STD), Some(0.0));
        let std_eps = metrics.get_key(metric_keys::REWARD_STD_EPISODES).unwrap();
        assert_eq!(std_eps.to_bits(), eval.std().to_bits(), "std recomputed from the evidence");
    }

    #[test]
    fn pruner_verdict_stops_training_mid_trial() {
        // An always-fire pruner wired through the PrunerBridge must stop
        // the backend after its first iteration: far fewer env steps than
        // the requested budget, and the trial recorded as pruned.
        struct AlwaysPrune;
        impl decision::pruner::Pruner for AlwaysPrune {
            fn should_prune(&self, _trial: usize, _step: u64, _value: f64) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "always"
            }
        }
        let opts = HarnessOpts { steps: 6_000, ..HarnessOpts::smoke() };
        let row = *TABLE1.iter().find(|r| r.id == 16).unwrap();
        let opts2 = opts.clone();
        let study = Study::builder("prune-bridge")
            .space(PaperRow::space())
            .explorer(PresetList::new(vec![row.to_config()]))
            .metric(MetricDef::maximize("reward"))
            .pruner(AlwaysPrune)
            .objective(move |_cfg, ctx| run_row_with(&row, &opts2, Some(ctx)))
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].status, TrialStatus::Pruned);
        assert!(!trials[0].intermediate.is_empty(), "bridge must report iterations");
        let steps = trials[0].metrics.get_key(metric_keys::ENV_STEPS).unwrap_or(f64::NAN);
        assert!(
            steps < opts.steps as f64,
            "pruned trial ran {steps} steps, expected fewer than {}",
            opts.steps
        );
    }

    #[test]
    fn rk_order_raises_simulated_time_at_fixed_deployment() {
        // The §IV-B coupling, measured through the whole stack.
        let opts = HarnessOpts::smoke();
        let lo = run_row(TABLE1.iter().find(|r| r.id == 14).unwrap(), &opts).unwrap();
        let hi = run_row(TABLE1.iter().find(|r| r.id == 17).unwrap(), &opts).unwrap();
        // 14: SB PPO RK3 2 cores; 17: SB PPO RK8 2 cores.
        assert!(
            hi.get_key(metric_keys::TIME_MIN).unwrap() > lo.get_key(metric_keys::TIME_MIN).unwrap(),
            "RK8 must cost more simulated time than RK3"
        );
    }
}
