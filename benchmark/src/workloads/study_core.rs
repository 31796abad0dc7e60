//! `study_core`: the explorer ablation at scale — the `decision` crate
//! used the opposite way from `table1`.
//!
//! M studies of 72 trials over `PaperRow::space()`, cycling RandomSearch,
//! RandomSearch without duplicates, GridSearch and TpeLite. The objective
//! is the calibrated surrogate plus a seeded reward distribution, so a
//! trial costs microseconds and the work is WAL append, replay, cache,
//! scheduler, bootstrap and ranking. Three phases: `cold` (every study
//! through one `StudyServer`, sharing a `TrialCache`, journaling at
//! `Durability::Flush`), `resume` (a fresh server over the same journals,
//! which must execute nothing) and `rank` (pool every trial, rank and
//! render). Writes sit beside reads, so a WAL change that helps one and
//! costs the other shows.

use super::{trial_bits, Baseline, Check, LayerValues, Reference, Unit, Workload};
use crate::budgets::Budgets;
use crate::probes::Probes;
use crate::sys::Scratch;
use bench::calibration::{predicted_kilojoules, predicted_minutes};
use bench::PaperRow;
use decision::prelude::*;
use decision::report::{csv, markdown, svg, table};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{Key, Recorder, RingRecorder, SharedRecorder};

const PARAMS: [&str; 6] = ["draw", "rk_order", "framework", "algorithm", "nodes", "cores"];
const FINGERPRINT: &str = "calibrated-surrogate-v1";
/// Trials the server runs at once: the machine the baseline was taken on
/// has two cores.
const SERVER_WIDTH: usize = 2;
/// Distinct study seeds; studies beyond `4 explorers × 8 seeds` repeat an
/// earlier one and are served from the shared cache.
const STUDY_SEEDS: u64 = 8;

const SPAN_COLD: Key = Key("core.cold");
const SPAN_RESUME: Key = Key("core.resume");
const SPAN_RANK: Key = Key("core.rank");

pub struct StudyCore {
    seed: u64,
    budgets: Budgets,
    /// The objective's answers, built in set-up: for each study seed, the
    /// metrics of every configuration of the space by canonical key.
    answers: Arc<Vec<BTreeMap<String, MetricValues>>>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The surrogate objective: Table I's calibrated closed forms for time and
/// energy, and a right-skewed reward distribution (mostly nominal
/// landings, a thin tail of misses) seeded by the configuration, so that
/// the mean and the CVaR orderings differ.
pub(crate) fn surrogate(
    cfg: &Configuration,
    seed: u64,
    samples: usize,
) -> Result<MetricValues, String> {
    let row = PaperRow::from_config(cfg)?;
    let mut state = seed ^ 0x5EED_0B1E;
    for byte in cfg.canonical_key().bytes() {
        state = (state ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let unit = |state: &mut u64| splitmix(state) as f64 / u64::MAX as f64;
    let nominal = -0.4 - 0.05 * row.rk_order.order() as f64 / (row.nodes * row.cores) as f64;
    let returns: Vec<f64> = (0..samples)
        .map(|_| {
            let (u, v) = (unit(&mut state), unit(&mut state));
            if u < 0.1 {
                nominal - 2.0 * v
            } else {
                nominal + 0.2 * (v - 0.5)
            }
        })
        .collect();
    let reward = Distribution::from_samples(returns);
    let mut metrics = MetricValues::new()
        .with_key(metric_keys::REWARD, reward.mean())
        .with_key(metric_keys::TIME_MIN, predicted_minutes(&row))
        .with_key(metric_keys::POWER_KJ, predicted_kilojoules(&row));
    metrics.set_distribution_key(metric_keys::REWARD, reward);
    Ok(metrics)
}

/// What only the traced pass reports of a unit.
struct Side {
    cache_hits: u64,
    cache_misses: u64,
    wal_bytes: u64,
}

impl StudyCore {
    /// Draw every synthetic reward distribution the studies can ask for.
    /// The objective is then a lookup, so that what the timed phases
    /// measure is the study machinery and not the surrogate.
    pub fn setup(seed: u64, budgets: Budgets) -> Self {
        let grid = PaperRow::space().grid();
        let answers = (0..STUDY_SEEDS)
            .map(|k| {
                let study_seed = seed.wrapping_mul(STUDY_SEEDS).wrapping_add(k);
                grid.iter()
                    .filter_map(|cfg| {
                        let metrics = surrogate(cfg, study_seed, budgets.core_samples).ok()?;
                        Some((cfg.canonical_key(), metrics))
                    })
                    .collect()
            })
            .collect();
        StudyCore { seed, budgets, answers: Arc::new(answers) }
    }

    fn study(
        &self,
        index: usize,
        dir: &Path,
        cache: &Arc<TrialCache>,
        executed: &Arc<AtomicU64>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<Study, String> {
        let budget = self.budgets.core_trials;
        let seed_index = index / 4 % STUDY_SEEDS as usize;
        let seed = self.seed.wrapping_mul(STUDY_SEEDS).wrapping_add(seed_index as u64);
        let answers = self.answers.clone();
        let explorer: Box<dyn Explorer> = match index % 4 {
            0 => Box::new(RandomSearch::new(budget)),
            1 => Box::new(RandomSearch::new(budget).without_duplicates()),
            2 => Box::new(GridSearch::with_limit(budget)),
            _ => Box::new(TpeLite::new(budget, metric_keys::REWARD.name(), Direction::Maximize)),
        };
        let executed = executed.clone();
        let mut builder = Study::builder(format!("core-{index}"))
            .space(PaperRow::space())
            .explorer_boxed(explorer)
            .metric(MetricDef::maximize_key(metric_keys::REWARD))
            .metric(MetricDef::minimize_key(metric_keys::TIME_MIN))
            .metric(MetricDef::minimize_key(metric_keys::POWER_KJ))
            .seed(seed)
            .journal(
                Journal::new(dir.join(format!("study-{index}.jsonl")))
                    .with_durability(Durability::Flush),
            )
            .reuse_cache(cache.clone())
            .objective_fingerprint(FINGERPRINT)
            .objective(move |cfg: &Configuration, _ctx: &mut TrialContext| {
                executed.fetch_add(1, Ordering::Relaxed);
                answers[seed_index].get(&cfg.canonical_key()).cloned().ok_or_else(|| {
                    format!("configuration outside the grid: {}", cfg.canonical_key())
                })
            });
        if let Some(recorder) = recorder {
            builder = builder.recorder(recorder.clone());
        }
        builder.build()
    }

    /// One server run over every study's journal in `dir`.
    fn serve(
        &self,
        dir: &Path,
        executed: &Arc<AtomicU64>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<(Vec<StudyOutcome>, (u64, u64)), String> {
        let cache = Arc::new(TrialCache::new());
        let mut server = StudyServer::new(SERVER_WIDTH);
        if let Some(recorder) = recorder {
            server = server.with_recorder(recorder.clone());
        }
        for index in 0..self.budgets.core_studies {
            server.submit(self.study(index, dir, &cache, executed, recorder)?);
        }
        Ok((server.run_all(), cache.stats()))
    }

    /// Pool every trial, rank it four ways and render every report.
    fn rank(&self, pooled: &[Trial]) -> Vec<String> {
        let spec =
            BootstrapSpec { level: 0.95, resamples: self.budgets.core_resamples, seed: 0x5EED };
        let reward = MetricDef::maximize_key(metric_keys::REWARD);
        let time = MetricDef::minimize_key(metric_keys::TIME_MIN);
        let power = MetricDef::minimize_key(metric_keys::POWER_KJ);
        let pareto = |reward: MetricDef| {
            RankSpec::pareto()
                .metric(reward)
                .metric(time.clone())
                .metric(power.clone())
                .rank(pooled)
        };
        let by_mean = pareto(reward.clone());
        let by_cvar = pareto(reward.clone().with_risk(Risk::Cvar(0.25)));
        let gated =
            RankSpec::sorted().metric(reward.clone()).bootstrap(spec).ci_gate(0.95).rank(pooled);
        let hypervolume =
            Hypervolume::new(time.clone(), reward.clone(), (1_000.0, -5.0)).value(pooled);

        let metrics = [reward.clone(), time.clone(), power];
        black_box(table::render_table_with_dispersion(pooled, &PARAMS, &metrics, &spec));
        black_box(csv::trials_to_csv_with_dispersion(pooled, &PARAMS, &metrics, &spec));
        let front = ParetoFront::compute(pooled, &[time.clone(), reward.clone()]);
        black_box(markdown::trials_to_markdown_with_ci(
            pooled,
            &PARAMS,
            &metrics,
            Some(&front),
            &spec,
        ));
        black_box(
            svg::ScatterPlot::new("study_core", time, reward)
                .with_whiskers(spec)
                .render(pooled, &front),
        );
        vec![format!(
            "{} pooled trials: mean front {}, CVaR(0.25) front {}, {} CI-gated tiers, hypervolume {hypervolume:.1}",
            pooled.len(),
            by_mean.front.len(),
            by_cvar.front.len(),
            gated.tiers.len(),
        )]
    }

    /// The three phases. With a recorder, the studies and the server
    /// record into it and the benchmark's spans wrap each phase.
    fn run(
        &self,
        scratch: &Scratch,
        recorder: Option<&SharedRecorder>,
    ) -> Result<(Unit, Side), String> {
        let outer: &dyn Recorder = match recorder {
            Some(r) => r.as_ref(),
            None => &telemetry::NullRecorder,
        };
        let dir = scratch.fresh_dir("core");
        let executed = Arc::new(AtomicU64::new(0));

        let span = outer.span_begin(SPAN_COLD);
        let (cold, (cache_hits, cache_misses)) = self.serve(&dir, &executed, recorder)?;
        outer.span_end(span);
        let cold_executed = executed.load(Ordering::Relaxed);

        let span = outer.span_begin(SPAN_RESUME);
        let (resumed, _) = self.serve(&dir, &executed, recorder)?;
        outer.span_end(span);
        let resume_executed = executed.load(Ordering::Relaxed) - cold_executed;

        let expected = 2 * (self.budgets.core_studies * self.budgets.core_trials) as u64;
        let done = cold
            .iter()
            .chain(&resumed)
            .map(|o| o.trials.iter().filter(|t| t.is_complete()).count() as u64)
            .sum::<u64>();
        let errors = cold.iter().chain(&resumed).filter(|o| o.error.is_some()).count();
        let resumed_bits: Vec<u64> = resumed.iter().flat_map(|o| trial_bits(&o.trials)).collect();
        let cold_bits: Vec<u64> = cold.iter().flat_map(|o| trial_bits(&o.trials)).collect();

        let span = outer.span_begin(SPAN_RANK);
        let pooled: Vec<Trial> = cold.into_iter().flat_map(|o| o.trials).collect();
        let notes = self.rank(&pooled);
        outer.span_end(span);

        let wal_bytes = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|meta| meta.len())
            .sum();
        let unit = Unit {
            work: done as f64,
            attempted: expected,
            failed: expected - done.min(expected),
            checks: vec![
                Check::new(
                    "resume_executes_nothing",
                    resume_executed == 0 && errors == 0,
                    format!(
                        "{cold_executed} objectives cold, {resume_executed} on resume, {errors} study errors"
                    ),
                ),
                Check::new(
                    "resume_returns_cold_trials",
                    resumed_bits == cold_bits && !cold_bits.is_empty(),
                    format!("{} trials compared bit for bit", cold_bits.len() / 3),
                ),
            ],
            fingerprint: cold_bits,
            notes,
        };
        Ok((unit, Side { cache_hits, cache_misses, wal_bytes }))
    }
}

impl Workload for StudyCore {
    fn unit(&self, scratch: &Scratch) -> Result<Unit, String> {
        self.run(scratch, None).map(|(unit, _)| unit)
    }

    /// The resume check is part of every unit; nothing runs beforehand.
    fn reference(&self, _scratch: &Scratch) -> Result<Reference, String> {
        Ok(Reference::default())
    }

    fn traced(
        &self,
        scratch: &Scratch,
        _probes: &Probes,
        baseline: &Baseline<'_>,
    ) -> Result<(LayerValues, telemetry::Snapshot), String> {
        // Every trial leaves a span: size the ring so that none is dropped.
        let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
        let recorder: SharedRecorder = ring.clone();
        let (unit, side) = self.run(scratch, Some(&recorder))?;
        if unit.fingerprint != baseline.unit_fingerprint {
            return Err("traced studies are not bit-equal to the untraced ones".into());
        }
        let snapshot = ring.snapshot();
        let span_s = |key: Key| {
            snapshot.spans_named(key.name()).map(|s| s.duration_ns() as f64 / 1e9).sum::<f64>()
        };
        let counter = |key: Key| snapshot.counter(key.name()).unwrap_or(0) as f64;
        let mut trial_s: Vec<f64> = snapshot
            .spans_named(study_keys::TRIAL.name())
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        trial_s.sort_by(f64::total_cmp);

        let mut values = LayerValues::new();
        values.insert("core.cold_s", span_s(SPAN_COLD));
        values.insert("core.resume_s", span_s(SPAN_RESUME));
        values.insert("core.rank_s", span_s(SPAN_RANK));
        values.insert("core.trial_wall_s.p50", crate::sys::median(&trial_s));
        values.insert("core.trial_wall_s.max", trial_s.last().copied().unwrap_or(0.0));
        values.insert("core.trials_complete", counter(study_keys::TRIALS_COMPLETE));
        values.insert("core.trials_reused", counter(study_keys::TRIALS_REUSED));
        values.insert("core.trials_resumed", counter(study_keys::TRIALS_RESUMED));
        values.insert("core.trials_failed", counter(study_keys::TRIALS_FAILED));
        let lookups = (side.cache_hits + side.cache_misses) as f64;
        values.insert(
            "core.cache_hit_share",
            if lookups == 0.0 { 0.0 } else { side.cache_hits as f64 / lookups },
        );
        values.insert("core.wal_bytes", side.wal_bytes as f64);
        Ok((values, snapshot))
    }
}
