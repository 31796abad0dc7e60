//! `table1`: the paper's 18-configuration study end to end — the
//! north-star workload of ROADMAP.
//!
//! `bench::run_table1_study` over every `TABLE1` row (one replica,
//! altitudes `[30, 600]`, in-process transport, WAL on), then the three
//! figure fronts and the rendered table.

use super::training::{self, Tracer, TrainJob};
use super::{
    env_steps, failed_trials, trial_bits, Baseline, LayerValues, Reference, Unit, Workload,
};
use crate::budgets::Budgets;
use crate::probes::Probes;
use crate::sys::Scratch;
use airdrop_sim::{AirdropConfig, AirdropEnv};
use bench::harness::{emit_figure, harness_ppo, harness_sac};
use bench::paper::figures;
use bench::{run_table1_study, HarnessOpts, PaperRow, TABLE1};
use decision::prelude::*;
use dist_exec::{Deployment, ExecSpec, FnEnvFactory};
use gymrs::Environment;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

const PARAMS: [&str; 6] = ["draw", "rk_order", "framework", "algorithm", "nodes", "cores"];

pub struct Table1 {
    opts: HarnessOpts,
}

impl Table1 {
    pub fn setup(seed: u64, budgets: Budgets) -> Self {
        Table1 {
            opts: HarnessOpts {
                steps: budgets.table1_steps,
                seed,
                altitude_limits: (30.0, 600.0),
                eval_episodes: budgets.table1_eval_episodes,
                out_dir: None,
                only: None,
                replicas: 1,
                prune: false,
            },
        }
    }

    fn opts_in(&self, dir: PathBuf) -> HarnessOpts {
        HarnessOpts { out_dir: Some(dir), ..self.opts.clone() }
    }
}

fn study_metrics() -> [MetricDef; 3] {
    [
        MetricDef::maximize_key(metric_keys::REWARD),
        MetricDef::minimize_key(metric_keys::TIME_MIN),
        MetricDef::minimize_key(metric_keys::POWER_KJ),
    ]
}

/// The three figure fronts over the PPO solutions and the Table I
/// rendering: everything the user sees after the study.
fn render_reports(trials: &[Trial], opts: &HarnessOpts) -> Result<Vec<String>, String> {
    let ppo: Vec<Trial> =
        trials.iter().filter(|t| t.config.str("algorithm") == Some("PPO")).cloned().collect();
    let mut notes = Vec::new();
    for (name, title, (x, y)) in [
        ("fig4", "Reward vs. Computation Time", figures::fig4_metrics()),
        ("fig5", "Power Consumption vs. Computation Time", figures::fig5_metrics()),
        ("fig6", "Reward vs. Power Consumption", figures::fig6_metrics()),
    ] {
        let front = emit_figure(name, title, &ppo, x, y, opts)?;
        notes.push(format!("{name} front (solution ids): {front:?}"));
    }
    black_box(decision::report::table::render_table(trials, &PARAMS, &study_metrics()));
    Ok(notes)
}

/// The six §VI shape checks the `table1` binary prints. They depend on
/// the stand-in RNG stream and the shrunken budget, so they are reported
/// and never gated.
fn shape_checks(trials: &[Trial]) -> Vec<String> {
    let get = |id: usize, key: MetricKey| -> Option<f64> {
        trials
            .iter()
            .find(|t| t.config.int("draw") == Some(id as i64))
            .and_then(|t| t.metrics.get_key(key))
    };
    let best_reward = |algorithm: &str| -> Option<f64> {
        trials
            .iter()
            .filter(|t| t.config.str("algorithm") == Some(algorithm))
            .filter_map(|t| t.metrics.get_key(metric_keys::REWARD))
            .reduce(f64::max)
    };
    let ppo_power_min = trials
        .iter()
        .filter(|t| t.config.str("algorithm") == Some("PPO"))
        .filter_map(|t| Some((t.config.int("draw")?, t.metrics.get_key(metric_keys::POWER_KJ)?)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(draw, _)| draw);
    let time = metric_keys::TIME_MIN;
    let checks: [(&str, Option<bool>); 6] = [
        (
            "PPO beats SAC everywhere",
            best_reward("PPO").zip(best_reward("SAC")).map(|(p, s)| p > s),
        ),
        ("2 nodes faster than 1 (2 vs 1)", get(2, time).zip(get(1, time)).map(|(a, b)| a < b)),
        (
            "1 node better reward than 2 (7 vs 8)",
            get(7, metric_keys::REWARD).zip(get(8, metric_keys::REWARD)).map(|(a, b)| a > b),
        ),
        ("4 cores faster than 2 (11 vs 10)", get(11, time).zip(get(10, time)).map(|(a, b)| a < b)),
        (
            "RK8 costs more time than RK3 (17 vs 14)",
            get(17, time).zip(get(14, time)).map(|(a, b)| a > b),
        ),
        ("config 11 is the PPO power minimum", ppo_power_min.map(|draw| draw == 11)),
    ];
    checks
        .iter()
        .map(|(label, verdict)| {
            let mark = match verdict {
                Some(true) => "PASS",
                Some(false) => "MISS",
                None => "n/a",
            };
            format!("shape check [{mark}] {label}")
        })
        .collect()
}

impl Workload for Table1 {
    fn unit(&self, scratch: &Scratch) -> Result<Unit, String> {
        let opts = self.opts_in(scratch.fresh_dir("table1"));
        let trials = run_table1_study(&opts)?;
        let mut notes = render_reports(&trials, &opts)?;
        notes.extend(shape_checks(&trials));
        Ok(Unit {
            work: env_steps(&trials),
            attempted: TABLE1.len() as u64,
            failed: failed_trials(&trials) + (TABLE1.len() - trials.len().min(TABLE1.len())) as u64,
            fingerprint: trial_bits(&trials),
            checks: Vec::new(),
            notes,
        })
    }

    /// Nothing to compare against before the timed loop: the check on
    /// this workload is that every timed unit returns the same bits.
    fn reference(&self, _scratch: &Scratch) -> Result<Reference, String> {
        Ok(Reference::default())
    }

    fn traced(
        &self,
        scratch: &Scratch,
        probes: &Probes,
        baseline: &Baseline<'_>,
    ) -> Result<(LayerValues, telemetry::Snapshot), String> {
        let tracer = Arc::new(Tracer::new());
        let opts = self.opts_in(scratch.fresh_dir("table1-traced"));
        let objective_opts = opts.clone();
        let objective_tracer = tracer.clone();
        let study = Study::builder("airdrop-table1")
            .space(PaperRow::space())
            .explorer(PresetList::new(TABLE1.iter().map(PaperRow::to_config)))
            .metric(MetricDef::maximize_key(metric_keys::REWARD))
            .metric(MetricDef::minimize_key(metric_keys::TIME_MIN))
            .metric(MetricDef::minimize_key(metric_keys::POWER_KJ))
            .seed(opts.seed)
            .recorder(tracer.ring.clone())
            .journal(Journal::new(
                opts.out_dir.as_ref().expect("traced run journals").join("trials.jsonl"),
            ))
            .objective(move |cfg: &Configuration, _ctx: &mut TrialContext| {
                let opts = &objective_opts;
                let id = PaperRow::from_config(cfg)?.id;
                let row = PaperRow::by_id(id).ok_or_else(|| format!("unknown draw id {id}"))?;
                let mut spec = ExecSpec::new(
                    row.framework,
                    row.algorithm,
                    Deployment { nodes: row.nodes, cores_per_node: row.cores },
                    opts.steps,
                    opts.seed.wrapping_add(row.id as u64 * 1000),
                );
                spec.ppo = harness_ppo(opts);
                spec.sac = harness_sac(opts);
                let env_cfg = AirdropConfig {
                    altitude_limits: opts.altitude_limits,
                    ..AirdropConfig::paper_study(row.rk_order)
                };
                let factory = FnEnvFactory(move |seed| {
                    let mut env = AirdropEnv::new(env_cfg.clone());
                    env.seed(seed);
                    Box::new(env) as Box<dyn Environment>
                });
                let job = TrainJob {
                    spec,
                    factory: &factory,
                    rk_order: row.rk_order,
                    eval_config: AirdropConfig {
                        altitude_limits: opts.altitude_limits,
                        ..AirdropConfig::default()
                    }
                    .reference(),
                    eval_seed: opts.seed.wrapping_add(999),
                    eval_episodes: opts.eval_episodes,
                };
                training::train_and_score(&job, Some(&objective_tracer))
            })
            .build()?;
        let trials = study.run()?;
        render_reports(&trials, &opts)?;
        drop(study);

        // The untraced unit went through the product path.
        if trial_bits(&trials) != baseline.unit_fingerprint {
            return Err("traced objective is not bit-equal to bench::run_table1_study".into());
        }
        let tracer = Arc::try_unwrap(tracer).map_err(|_| "tracer still shared".to_string())?;
        let (ring, totals) = tracer.into_totals();
        let mut snapshot = ring.snapshot();
        snapshot.dropped_events += totals.dropped_events;
        let values = training::layer_values(&totals, &snapshot, probes);
        Ok((values, snapshot))
    }
}
