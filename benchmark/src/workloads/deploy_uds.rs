//! `deploy_uds`: one PPO study over the eight valid
//! `{framework} × {1, 2 nodes} × {2, 4 cores}` deployments, with every
//! collection round crossing a process boundary.
//!
//! It is the training stack of `table1` with the wire switched on: worker
//! processes are spawned per trial and speak the binary codec over Unix
//! sockets. Spawn, codec, socket flush and runtime dispatch do real work
//! here and none on `table1`; a SAC-only change must not move it.

use super::training::{self, Tracer, TrainJob};
use super::{
    env_steps, failed_trials, trial_bits, Baseline, Check, LayerValues, Reference, Unit, Workload,
    WIRE_BYTES,
};
use crate::budgets::Budgets;
use crate::probes::Probes;
use crate::sys::Scratch;
use airdrop_sim::AirdropConfig;
use bench::harness::harness_ppo;
use bench::HarnessOpts;
use decision::prelude::*;
use dist_exec::{Deployment, EnvBlueprint, ExecSpec, Framework};
use rl_algos::Algorithm;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct DeployUds {
    opts: HarnessOpts,
    configs: Vec<Configuration>,
}

fn space() -> ParamSpace {
    ParamSpace::builder()
        .kind(ParamKind::Algorithm)
        .categorical("framework", Framework::ALL.map(|f| f.to_string()))
        .kind(ParamKind::System)
        .categorical_int("nodes", [1, 2])
        .categorical_int("cores", [2, 4])
        .build()
}

fn decode(cfg: &Configuration) -> Result<(Framework, Deployment), String> {
    let name = cfg.str("framework").ok_or("missing framework")?;
    let framework = Framework::ALL
        .into_iter()
        .find(|f| f.to_string() == name)
        .ok_or_else(|| format!("unknown framework {name}"))?;
    let nodes = cfg.int("nodes").ok_or("missing nodes")? as usize;
    let cores = cfg.int("cores").ok_or("missing cores")? as usize;
    Ok((framework, Deployment { nodes, cores_per_node: cores }))
}

impl DeployUds {
    pub fn setup(seed: u64, budgets: Budgets) -> Self {
        let mut configs = Vec::new();
        for framework in Framework::ALL {
            for nodes in [1usize, 2] {
                for cores in [2usize, 4] {
                    if (Deployment { nodes, cores_per_node: cores }).validate(framework).is_ok() {
                        configs.push(
                            Configuration::new()
                                .with("framework", ParamValue::Str(framework.to_string()))
                                .with("nodes", ParamValue::Int(nodes as i64))
                                .with("cores", ParamValue::Int(cores as i64)),
                        );
                    }
                }
            }
        }
        let opts = HarnessOpts {
            steps: budgets.deploy_steps,
            seed,
            eval_episodes: budgets.deploy_eval_episodes,
            out_dir: None,
            ..HarnessOpts::default()
        };
        DeployUds { opts, configs }
    }

    /// The study over `transport`, then one Pareto front over its trials.
    fn run(
        &self,
        transport: &'static str,
        journal_dir: &Path,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Vec<Trial>, String> {
        let opts = self.opts.clone();
        let objective_tracer = tracer.clone();
        let mut builder = Study::builder("deploy")
            .space(space())
            .explorer(PresetList::new(self.configs.clone()))
            .metric(MetricDef::maximize_key(metric_keys::REWARD))
            .metric(MetricDef::minimize_key(metric_keys::TIME_MIN))
            .metric(MetricDef::minimize_key(metric_keys::POWER_KJ))
            .seed(opts.seed)
            .journal(Journal::new(journal_dir.join("trials.jsonl")))
            .objective(move |cfg: &Configuration, _ctx: &mut TrialContext| {
                let (framework, deployment) = decode(cfg)?;
                let mut spec =
                    ExecSpec::new(framework, Algorithm::Ppo, deployment, opts.steps, opts.seed)
                        .with_transport(transport);
                spec.ppo = harness_ppo(&opts);
                let blueprint = EnvBlueprint::AirdropPaper;
                let job = TrainJob {
                    spec,
                    factory: &blueprint,
                    rk_order: AirdropConfig::default().rk_order,
                    eval_config: AirdropConfig::default().reference(),
                    eval_seed: opts.seed.wrapping_add(999),
                    eval_episodes: opts.eval_episodes,
                };
                training::train_and_score(&job, objective_tracer.as_deref())
            });
        if let Some(tracer) = &tracer {
            builder = builder.recorder(tracer.ring.clone());
        }
        let study = builder.build()?;
        let trials = study.run()?;
        black_box(ParetoFront::compute(&trials, &study.metrics()));
        Ok(trials)
    }
}

impl Workload for DeployUds {
    fn unit(&self, scratch: &Scratch) -> Result<Unit, String> {
        let trials = self.run("uds", &scratch.fresh_dir("deploy"), None)?;
        let expected = self.configs.len();
        let wire_bytes: f64 = trials.iter().filter_map(|t| t.metrics.get(WIRE_BYTES)).sum();
        Ok(Unit {
            work: env_steps(&trials),
            attempted: expected as u64,
            failed: failed_trials(&trials) + (expected - trials.len().min(expected)) as u64,
            fingerprint: trial_bits(&trials),
            // A socket transport that moved nothing fell back to channels
            // without saying so.
            checks: vec![Check::new(
                "wire_was_used",
                wire_bytes > 0.0,
                format!("{wire_bytes} wire bytes"),
            )],
            notes: Vec::new(),
        })
    }

    /// The same study on in-process channels. Every timed unit must
    /// reproduce its bits over the process transport.
    fn reference(&self, scratch: &Scratch) -> Result<Reference, String> {
        let started = Instant::now();
        let inproc = self.run("inproc", &scratch.fresh_dir("deploy-inproc"), None)?;
        let wall_s = started.elapsed().as_secs_f64();
        let wire_bytes: f64 = inproc.iter().filter_map(|t| t.metrics.get(WIRE_BYTES)).sum();
        Ok(Reference {
            checks: vec![Check::new(
                "inproc_moves_no_bytes",
                wire_bytes == 0.0 && inproc.len() == self.configs.len(),
                format!("{} in-process trials, {wire_bytes} wire bytes", inproc.len()),
            )],
            work: None,
            fingerprint: Some(trial_bits(&inproc)),
            wall_s: Some(wall_s),
            layer: LayerValues::new(),
        })
    }

    fn traced(
        &self,
        scratch: &Scratch,
        probes: &Probes,
        baseline: &Baseline<'_>,
    ) -> Result<(LayerValues, telemetry::Snapshot), String> {
        let tracer = Arc::new(Tracer::new());
        let trials = self.run("uds", &scratch.fresh_dir("deploy-traced"), Some(tracer.clone()))?;
        if trial_bits(&trials) != baseline.unit_fingerprint {
            return Err("traced study is not bit-equal to the untraced one".into());
        }
        let tracer = Arc::try_unwrap(tracer).map_err(|_| "tracer still shared".to_string())?;
        let (ring, totals) = tracer.into_totals();
        let mut snapshot = ring.snapshot();
        snapshot.dropped_events += totals.dropped_events;
        let mut values = training::layer_values(&totals, &snapshot, probes);
        // Both walls are untraced, so the transports are compared like for like.
        let inproc_wall_s =
            baseline.reference.wall_s.ok_or("reference pass did not time the in-process study")?;
        values
            .insert("distrib.transport_overhead_share", 1.0 - inproc_wall_s / baseline.unit_wall_s);
        Ok((values, snapshot))
    }
}
