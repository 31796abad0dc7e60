//! The [`Study`]: wiring the methodology's five stages together.
//!
//! A study owns a parameter space (stage b), an explorer (stage c), a
//! metric set (stage d) and a user-supplied objective that embodies the
//! case study (stage a). Running it produces the trials that the ranking
//! methods (stage e) and reports consume.
//!
//! ## Durability and resume
//!
//! With a [`Journal`] configured, every trial transition is appended to
//! an event-sourced WAL (see [`crate::wal`]) *as it happens*: a
//! `trial.started` record before the objective runs, one `trial.report`
//! per intermediate value, and a finish record. A study that is killed at
//! any point resumes by replaying the log: finished trials are adopted
//! without re-executing, an interrupted trial re-runs with its logged
//! configuration, and the explorer RNG is reconstructed by burning one
//! proposal per adopted trial against the same history prefix the
//! original run saw — so a resumed study produces bitwise-identical
//! trials to an uninterrupted one. Replayed intermediates are fed back
//! into the pruner so pruning decisions also match.
//!
//! ## Incremental reuse
//!
//! With a shared [`TrialCache`] attached, a proposed configuration whose
//! outcome is already cached (same canonical key, objective fingerprint,
//! and seed) is adopted without executing the objective, and a
//! `trial.reused` event makes the adoption durable.

use crate::cache::TrialCache;
use crate::explore::Explorer;
use crate::metrics::{Direction, MetricDef, MetricValues};
use crate::pruner::{NopPruner, Pruner};
use crate::space::ParamSpace;
use crate::storage::Journal;
use crate::trial::{Configuration, Trial, TrialStatus};
use crate::wal::{self, Replay, StudyEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use telemetry::SharedRecorder;

/// Telemetry keys for the trial lifecycle recorded by [`Study`].
pub mod study_keys {
    use telemetry::Key;

    /// Span: one objective evaluation (open while the trial runs).
    pub const TRIAL: Key = Key("study.trial");

    /// Counter: trials that completed with full metric coverage.
    pub const TRIALS_COMPLETE: Key = Key("study.trials_complete");

    /// Counter: trials stopped early by the pruner.
    pub(crate) const TRIALS_PRUNED: Key = Key("study.trials_pruned");

    /// Counter: trials that errored or missed a study metric.
    pub const TRIALS_FAILED: Key = Key("study.trials_failed");

    /// Counter: trials adopted from the reuse cache without executing.
    pub const TRIALS_REUSED: Key = Key("study.trials_reused");

    /// Counter: trials adopted from the journal on resume.
    pub const TRIALS_RESUMED: Key = Key("study.trials_resumed");
}

/// Handle given to the objective while a trial runs: intermediate
/// reporting (for pruning) and trial identity.
pub struct TrialContext<'a> {
    /// Sequential trial id.
    pub trial_id: usize,
    pruner: &'a dyn Pruner,
    orient: Direction,
    intermediate: Vec<(u64, f64)>,
    pruned: bool,
    wal: Option<&'a Journal>,
}

impl TrialContext<'_> {
    /// Report an intermediate objective value (bigger = better after the
    /// study's orientation). The report is appended to the WAL before the
    /// pruner sees it, so a crash loses at most the report in flight.
    /// Returns `true` when the pruner asks the trial to stop; the
    /// objective should then return promptly (the study records the trial
    /// as pruned).
    pub fn report(&mut self, step: u64, value: f64) -> bool {
        if let Some(j) = self.wal {
            let ev = StudyEvent::TrialReport { trial: self.trial_id, step, value };
            if let Err(e) = j.append(&ev) {
                eprintln!("[decision] journal append failed: {e}");
            }
        }
        self.intermediate.push((step, value));
        let oriented = self.orient.orient(value);
        if self.pruner.should_prune(self.trial_id, step, oriented) {
            self.pruned = true;
        }
        self.pruned
    }

    /// Whether the pruner has fired for this trial.
    pub fn is_pruned(&self) -> bool {
        self.pruned
    }
}

/// The objective: evaluates one configuration into metric values.
pub(crate) type Objective =
    dyn Fn(&Configuration, &mut TrialContext<'_>) -> Result<MetricValues, String> + Send + Sync;

/// A fully-specified decision-analysis study.
pub struct Study {
    name: String,
    space: ParamSpace,
    explorer: Mutex<Box<dyn Explorer>>,
    metrics: Vec<MetricDef>,
    objective: Arc<Objective>,
    pruner: Arc<dyn Pruner>,
    /// Direction used to orient intermediate reports (first metric's).
    prune_metric_direction: Direction,
    journal: Option<Journal>,
    seed: u64,
    recorder: SharedRecorder,
    reuse_cache: Option<Arc<TrialCache>>,
    objective_fingerprint: String,
}

/// One unit of work handed out by a [`Session`]: either a trial that is
/// already decided (journal replay or cache hit) or one to execute.
pub(crate) enum Slot {
    /// Finished without execution.
    Done(Trial),
    /// Execute the objective for `id` with `config`.
    Run {
        /// Sequential trial id.
        id: usize,
        /// Proposed configuration.
        config: Configuration,
    },
}

/// Live run state of one study: the explorer lock, the exploration RNG,
/// the accumulated history, and the replayed journal state. The wave loop
/// (`crate::server::run_waves`, under [`Study::run`],
/// [`Study::run_parallel`] and [`crate::server::StudyServer`]) pulls
/// [`Slot`]s from a session, executes the runnable ones, and feeds results
/// back in id order.
pub(crate) struct Session<'a> {
    study: &'a Study,
    explorer: MutexGuard<'a, Box<dyn Explorer>>,
    rng: StdRng,
    trials: Vec<Trial>,
    finished: BTreeMap<usize, Trial>,
    in_flight: BTreeMap<usize, (Configuration, Vec<(u64, f64)>)>,
    /// Slots handed out but not yet absorbed.
    handed: usize,
    exhausted: bool,
}

/// A study's journal, read and folded: what opening a [`Session`] needs
/// of the file. Building one touches nothing but that file, so the
/// journals of many studies can be replayed at once.
#[derive(Default)]
pub(crate) struct Replayed {
    replay: Replay,
    /// The load dropped a torn tail record.
    torn_tail: bool,
}

impl Replayed {
    /// Read and fold `study`'s journal; empty when it has none.
    pub(crate) fn load(study: &Study) -> Result<Replayed, String> {
        let Some(j) = &study.journal else { return Ok(Replayed::default()) };
        let load = j.load().map_err(|e| e.to_string())?;
        Ok(Replayed { replay: Replay::from_events(load.events)?, torn_tail: load.torn_tail })
    }
}

impl<'a> Session<'a> {
    /// Open a session over the study's replayed journal: validate that
    /// the log belongs to this study, take the explorer lock, and append a
    /// `study.checkpoint` marker.
    pub(crate) fn open(study: &'a Study, replayed: Replayed) -> Result<Session<'a>, String> {
        let Replayed { replay, torn_tail } = replayed;
        if let Some(j) = &study.journal {
            if torn_tail {
                eprintln!(
                    "[decision] journal {}: dropped a torn tail record from an interrupted run",
                    j.path().display()
                );
            }
            for ckpt in &replay.checkpoints {
                if let StudyEvent::Checkpoint { study: s, seed, explorer, fingerprint, .. } = ckpt {
                    let explorer_name = study.explorer().name().to_string();
                    if *s != study.name
                        || *seed != study.seed
                        || *explorer != explorer_name
                        || *fingerprint != study.objective_fingerprint
                    {
                        return Err(format!(
                            "journal {} belongs to a different study \
                             (logged {s}/{explorer}/seed {seed}/fingerprint '{fingerprint}', \
                             this study is {}/{explorer_name}/seed {}/fingerprint '{}')",
                            j.path().display(),
                            study.name,
                            study.seed,
                            study.objective_fingerprint,
                        ));
                    }
                }
            }
        }
        let session = Session {
            explorer: study.explorer(),
            rng: StdRng::seed_from_u64(study.seed),
            trials: Vec::new(),
            finished: replay.finished,
            in_flight: replay.in_flight,
            handed: 0,
            exhausted: false,
            study,
        };
        session.study.journal_event(&session.checkpoint_event());
        Ok(session)
    }

    fn checkpoint_event(&self) -> StudyEvent {
        StudyEvent::Checkpoint {
            study: self.study.name.clone(),
            seed: self.study.seed,
            explorer: self.explorer.name().to_string(),
            fingerprint: self.study.objective_fingerprint.clone(),
            trials: (self.trials.len() + self.finished.len()) as u64,
        }
    }

    /// Burn one explorer proposal so positional (RNG-driven) explorers
    /// stay in sync with the uninterrupted run; keyed explorers dedupe
    /// against the history themselves.
    fn burn_proposal(&mut self) {
        if !self.explorer.supports_keyed_resume() {
            let _ = self.explorer.propose(&self.study.space, &self.trials, &mut self.rng);
        }
    }

    /// Hand out the next slot. Proposals see the history as of the last
    /// [`Session::absorb`]: every slot of a wave is proposed against the
    /// trials of the waves before it.
    pub(crate) fn next_slot(&mut self) -> Option<Slot> {
        let id = self.trials.len() + self.handed;
        if let Some(t) = self.finished.remove(&id) {
            // Adopted from the journal: keep explorer RNG and pruner
            // state identical to the run that produced it.
            self.burn_proposal();
            self.study.replay_into_pruner(&t);
            self.study.count(study_keys::TRIALS_RESUMED);
            self.handed += 1;
            return Some(Slot::Done(t));
        }
        let config = match self.in_flight.remove(&id) {
            Some((config, _reports)) => {
                // Started but never finished: re-run with the logged
                // configuration (the fresh start supersedes in the WAL).
                self.burn_proposal();
                config
            }
            None => {
                if self.exhausted {
                    return None;
                }
                match self.explorer.propose(&self.study.space, &self.trials, &mut self.rng) {
                    Some(config) => config,
                    None => {
                        self.exhausted = true;
                        return None;
                    }
                }
            }
        };
        if let Some(hit) = self.study.cache_lookup(&config) {
            let trial = hit.into_trial(id);
            self.study.journal(|seq, out| wal::push_finished(&trial, seq, out));
            self.study.replay_into_pruner(&trial);
            self.study.count(study_keys::TRIALS_REUSED);
            self.handed += 1;
            return Some(Slot::Done(trial));
        }
        self.handed += 1;
        Some(Slot::Run { id, config })
    }

    /// Feed back the result of a slot handed out earlier. Results come in
    /// id order whatever order they completed in, so the history — and
    /// therefore every later explorer proposal — is deterministic.
    pub(crate) fn absorb(&mut self, trial: Trial) {
        debug_assert_eq!(trial.id, self.trials.len(), "results are absorbed in id order");
        self.handed -= 1;
        self.trials.push(trial);
    }

    /// Close the session after a normal (exhausted) finish: append a
    /// final checkpoint and return the trials.
    pub(crate) fn finish(self) -> Vec<Trial> {
        self.study.journal_event(&self.checkpoint_event());
        self.into_trials()
    }

    /// Return the trials without a closing checkpoint (early drain). Every
    /// session ends here, so this is where a [`crate::Durability::Buffered`]
    /// journal's pending lines reach the OS.
    pub(crate) fn into_trials(self) -> Vec<Trial> {
        if let Some(j) = &self.study.journal {
            if let Err(e) = j.flush() {
                eprintln!("[decision] journal flush failed: {e}");
            }
        }
        self.trials
    }
}

impl Study {
    /// Start building a study.
    pub fn builder(name: impl Into<String>) -> StudyBuilder {
        StudyBuilder {
            name: name.into(),
            space: None,
            explorer: None,
            metrics: Vec::new(),
            objective: None,
            pruner: Arc::new(NopPruner),
            journal: None,
            seed: 0,
            recorder: telemetry::null_recorder(),
            reuse_cache: None,
            objective_fingerprint: String::new(),
        }
    }

    /// Study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metric definitions.
    pub fn metrics(&self) -> Vec<MetricDef> {
        self.metrics.clone()
    }

    pub(crate) fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// The file its journal writes to, if it has one.
    pub(crate) fn journal_path(&self) -> Option<&std::path::Path> {
        self.journal.as_ref().map(Journal::path)
    }

    fn explorer(&self) -> MutexGuard<'_, Box<dyn Explorer>> {
        self.explorer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn journal_event(&self, ev: &StudyEvent) {
        self.journal(|seq, out| ev.push_line(seq, out));
    }

    /// Append the line `push` writes (see [`Journal::append_with`]).
    fn journal(&self, push: impl FnOnce(u64, &mut String)) {
        if let Some(j) = &self.journal {
            // Journaling failures must not kill the study; surface them.
            if let Err(e) = j.append_with(push) {
                eprintln!("[decision] journal append failed: {e}");
            }
        }
    }

    fn count(&self, key: telemetry::Key) {
        if self.recorder.enabled() {
            self.recorder.counter_add(key, 1);
        }
    }

    fn cache_lookup(&self, config: &Configuration) -> Option<crate::cache::CachedOutcome> {
        self.reuse_cache
            .as_ref()
            .and_then(|c| c.lookup(config, &self.objective_fingerprint, self.seed))
    }

    /// Replay a finished trial's intermediates into the pruner so its
    /// history matches a run that executed the trial live.
    fn replay_into_pruner(&self, trial: &Trial) {
        for (step, value) in &trial.intermediate {
            let oriented = self.prune_metric_direction.orient(*value);
            let _ = self.pruner.should_prune(trial.id, *step, oriented);
        }
    }

    pub(crate) fn run_one(&self, id: usize, config: Configuration) -> Trial {
        self.journal(|seq, out| wal::push_started(id, &config, seq, out));
        let mut ctx = TrialContext {
            trial_id: id,
            pruner: self.pruner.as_ref(),
            orient: self.prune_metric_direction,
            intermediate: Vec::new(),
            pruned: false,
            wal: self.journal.as_ref(),
        };
        let span = self.recorder.span_begin(study_keys::TRIAL);
        let result = (self.objective)(&config, &mut ctx);
        self.recorder.span_end(span);
        let mut trial = match result {
            Ok(metrics) if ctx.pruned => Trial {
                id,
                config,
                metrics,
                status: TrialStatus::Pruned,
                intermediate: Vec::new(),
                error: None,
                reused: false,
            },
            Ok(metrics) => Trial::complete(id, config, metrics),
            Err(e) => Trial {
                id,
                config,
                metrics: MetricValues::new(),
                status: TrialStatus::Failed,
                intermediate: Vec::new(),
                error: Some(e),
                reused: false,
            },
        };
        trial.intermediate = ctx.intermediate;
        if trial.status == TrialStatus::Complete && !trial.metrics.covers(&self.metrics) {
            trial.status = TrialStatus::Failed;
            trial.error = Some(format!(
                "objective did not report every study metric ({:?})",
                self.metrics.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
            ));
        }
        let outcome = match trial.status {
            TrialStatus::Complete => study_keys::TRIALS_COMPLETE,
            TrialStatus::Pruned => study_keys::TRIALS_PRUNED,
            TrialStatus::Failed => study_keys::TRIALS_FAILED,
        };
        self.count(outcome);
        self.journal(|seq, out| wal::push_finished(&trial, seq, out));
        if let Some(cache) = &self.reuse_cache {
            cache.store(&trial, &self.objective_fingerprint, self.seed);
        }
        trial
    }

    /// Run trials sequentially until the explorer's budget is exhausted.
    ///
    /// Resumes from the journal when one is configured: already-stored
    /// trials count against the explorer budget, seed its history, and
    /// replay into the pruner; an interrupted trial re-runs with its
    /// logged configuration. When the recorder's
    /// [`telemetry::Recorder::should_stop`] flag trips, the study drains
    /// gracefully between trials — everything already finished is durable
    /// and a later run picks up where it left off.
    pub fn run(&self) -> Result<Vec<Trial>, String> {
        self.run_parallel(1)
    }

    /// Explicit crash-resume entry point: identical to [`Study::run`]
    /// (which always resumes when a journal is configured), but fails
    /// fast when no journal is attached instead of silently starting
    /// from scratch.
    pub fn resume(&self) -> Result<Vec<Trial>, String> {
        if self.journal.is_none() {
            return Err("Study::resume requires a journal".into());
        }
        self.run()
    }

    /// Run trials in waves of `parallelism`, on that many threads.
    ///
    /// Exploration stays sequential between waves (adaptive explorers see
    /// the history of all previous waves), while objective evaluations
    /// within a wave run concurrently — the "distributed hyperparameter
    /// search" §III-C attributes to Optuna/Hyperopt. Each trial of a
    /// distributed backend spins up its own simulated cluster (worker
    /// actors pinned to threads), so keep `parallelism` near the host's
    /// core count.
    pub fn run_parallel(&self, parallelism: usize) -> Result<Vec<Trial>, String> {
        let outcome =
            crate::server::run_waves(&[self], parallelism, &telemetry::NullRecorder).remove(0);
        outcome.error.map_or(Ok(outcome.trials), Err)
    }
}

/// Builder for [`Study`].
pub struct StudyBuilder {
    name: String,
    space: Option<ParamSpace>,
    explorer: Option<Box<dyn Explorer>>,
    metrics: Vec<MetricDef>,
    objective: Option<Arc<Objective>>,
    pruner: Arc<dyn Pruner>,
    journal: Option<Journal>,
    seed: u64,
    recorder: SharedRecorder,
    reuse_cache: Option<Arc<TrialCache>>,
    objective_fingerprint: String,
}

impl StudyBuilder {
    /// Set the parameter space (stage b).
    pub fn space(mut self, space: ParamSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Set the exploratory method (stage c).
    pub fn explorer(mut self, explorer: impl Explorer + 'static) -> Self {
        self.explorer = Some(Box::new(explorer));
        self
    }

    /// Set a type-erased exploratory method, for callers that pick the
    /// explorer kind at runtime (a table of explorers compared on one
    /// objective, or a benchmark choosing one by name).
    pub fn explorer_boxed(mut self, explorer: Box<dyn Explorer>) -> Self {
        self.explorer = Some(explorer);
        self
    }

    /// Add an evaluation metric (stage d). The first metric's direction
    /// orients intermediate reports for the pruner.
    pub fn metric(mut self, metric: MetricDef) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Set the objective (stage a — the case study).
    pub fn objective<F>(mut self, f: F) -> Self
    where
        F: Fn(&Configuration, &mut TrialContext<'_>) -> Result<MetricValues, String>
            + Send
            + Sync
            + 'static,
    {
        self.objective = Some(Arc::new(f));
        self
    }

    /// Install a pruner (Optuna-style early stopping).
    pub fn pruner(mut self, pruner: impl Pruner + 'static) -> Self {
        self.pruner = Arc::new(pruner);
        self
    }

    /// Journal every trial transition to an event-sourced WAL and resume
    /// from it.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Seed for the exploration RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a telemetry recorder. The study opens a
    /// [`study_keys::TRIAL`] span around every objective evaluation and
    /// counts trial outcomes under the [`study_keys`] counters. Defaults
    /// to the no-op [`telemetry::null_recorder`].
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a shared trial-reuse cache: configurations whose outcome is
    /// already cached (same canonical key, objective fingerprint, and
    /// seed) are adopted without executing the objective.
    pub fn reuse_cache(mut self, cache: Arc<TrialCache>) -> Self {
        self.reuse_cache = Some(cache);
        self
    }

    /// Version tag of the objective, mixed into the reuse-cache key (and
    /// the journal checkpoint). Bump it whenever the objective's
    /// behaviour changes so stale cached outcomes stop matching.
    /// Defaults to the empty string.
    pub fn objective_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.objective_fingerprint = fingerprint.into();
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Study, String> {
        let space = self.space.ok_or("study needs a parameter space")?;
        if space.is_empty() {
            return Err("parameter space is empty".into());
        }
        let explorer = self.explorer.ok_or("study needs an explorer")?;
        if self.metrics.is_empty() {
            return Err("study needs at least one metric".into());
        }
        let objective = self.objective.ok_or("study needs an objective")?;
        let prune_metric_direction = self.metrics[0].direction;
        Ok(Study {
            name: self.name,
            space,
            explorer: Mutex::new(explorer),
            metrics: self.metrics,
            objective,
            pruner: self.pruner,
            prune_metric_direction,
            journal: self.journal,
            seed: self.seed,
            recorder: self.recorder,
            reuse_cache: self.reuse_cache,
            objective_fingerprint: self.objective_fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{GridSearch, RandomSearch};
    use crate::pruner::MedianPruner;
    use crate::wal::wal_keys;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn space() -> ParamSpace {
        ParamSpace::builder().categorical_int("k", [1, 2, 3]).categorical_int("j", [0, 1]).build()
    }

    fn quadratic(cfg: &Configuration, _ctx: &mut TrialContext<'_>) -> Result<MetricValues, String> {
        let k = cfg.int("k").unwrap() as f64;
        Ok(MetricValues::new().with("loss", (k - 2.0).powi(2)))
    }

    #[test]
    fn sequential_run_exhausts_the_explorer() {
        let study = Study::builder("t")
            .space(space())
            .explorer(RandomSearch::new(5))
            .metric(MetricDef::minimize("loss"))
            .objective(quadratic)
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert_eq!(trials.len(), 5);
        assert!(trials.iter().all(|t| t.is_complete()));
        assert_eq!(trials.iter().map(|t| t.id).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn grid_study_covers_the_space() {
        let study = Study::builder("t")
            .space(space())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .objective(quadratic)
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert_eq!(trials.len(), 6);
    }

    #[test]
    fn parallel_run_matches_sequential_results() {
        let mk = || {
            Study::builder("t")
                .space(space())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .objective(quadratic)
                .build()
                .unwrap()
        };
        let seq = mk().run().unwrap();
        let par = mk().run_parallel(3).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn objective_errors_become_failed_trials() {
        let study = Study::builder("t")
            .space(space())
            .explorer(RandomSearch::new(3))
            .metric(MetricDef::minimize("loss"))
            .objective(|_, _| Err("boom".into()))
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert!(trials.iter().all(|t| t.status == TrialStatus::Failed));
        assert_eq!(trials[0].error.as_deref(), Some("boom"));
    }

    #[test]
    fn missing_metrics_fail_the_trial() {
        let study = Study::builder("t")
            .space(space())
            .explorer(RandomSearch::new(1))
            .metric(MetricDef::minimize("loss"))
            .metric(MetricDef::minimize("missing"))
            .objective(quadratic)
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert_eq!(trials[0].status, TrialStatus::Failed);
    }

    #[test]
    fn pruning_marks_trials() {
        // Objective reports its k value; median pruner with 2 startup
        // trials prunes below-median reporters.
        let study = Study::builder("t")
            .space(ParamSpace::builder().categorical_int("k", [6, 5, 4, 3, 2, 1]).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::maximize("score"))
            .pruner(MedianPruner::with_startup(2))
            .objective(|cfg, ctx| {
                let k = cfg.int("k").unwrap() as f64;
                if ctx.report(1, k) {
                    return Ok(MetricValues::new().with("score", k));
                }
                Ok(MetricValues::new().with("score", k))
            })
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert!(
            trials.iter().any(|t| t.status == TrialStatus::Pruned),
            "later low-k trials should get pruned against the early high-k median"
        );
        assert!(trials.iter().all(|t| !t.intermediate.is_empty()));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("decision-study-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn journal_resume_skips_completed_trials() {
        let path = tmp("resume");
        let calls = Arc::new(AtomicUsize::new(0));
        let mk = |calls: Arc<AtomicUsize>| {
            Study::builder("t")
                .space(space())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .journal(Journal::new(&path))
                .objective(move |cfg, ctx| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    quadratic(cfg, ctx)
                })
                .build()
                .unwrap()
        };
        Journal::new(&path).clear().unwrap();
        let first = mk(calls.clone()).run().unwrap();
        assert_eq!(first.len(), 6);
        assert_eq!(calls.load(Ordering::SeqCst), 6);
        // Second run: everything is in the journal; no new objective calls.
        let second = mk(calls.clone()).resume().unwrap();
        assert_eq!(second.len(), 6);
        assert_eq!(calls.load(Ordering::SeqCst), 6, "resume must not re-run trials");
        assert_eq!(first, second, "resumed trials must be identical");
        Journal::new(&path).clear().unwrap();
    }

    #[test]
    fn journal_from_a_different_study_is_rejected() {
        let path = tmp("mismatch");
        Journal::new(&path).clear().unwrap();
        let mk = |seed: u64| {
            Study::builder("t")
                .space(space())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .journal(Journal::new(&path))
                .seed(seed)
                .objective(quadratic)
                .build()
                .unwrap()
        };
        mk(1).run().unwrap();
        let err = mk(2).run().unwrap_err();
        assert!(err.contains("different study"), "unexpected error: {err}");
        Journal::new(&path).clear().unwrap();
    }

    #[test]
    fn parallel_run_with_journal_produces_clean_lines() {
        let path = tmp("parallel");
        Journal::new(&path).clear().unwrap();
        let study = Study::builder("t")
            .space(ParamSpace::builder().categorical_int("k", 0..24).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .journal(Journal::new(&path))
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap();
        let trials = study.run_parallel(8).unwrap();
        assert_eq!(trials.len(), 24);
        let load = Journal::new(&path).load().unwrap();
        assert!(!load.torn_tail, "concurrent appends must not interleave");
        let completed = load.events.iter().filter(|e| e.key() == wal_keys::TRIAL_COMPLETED).count();
        assert_eq!(completed, 24);
        let replayed = Replay::from_events(load.events).unwrap();
        assert!(replayed.in_flight.is_empty());
        assert_eq!(replayed.finished.into_values().collect::<Vec<_>>(), trials);
        Journal::new(&path).clear().unwrap();
    }

    #[test]
    fn reuse_cache_skips_execution_and_journals_reused_events() {
        let path = tmp("reuse");
        Journal::new(&path).clear().unwrap();
        let cache = Arc::new(TrialCache::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let mk = |name: &str, journal: Option<Journal>| {
            let calls = calls.clone();
            let mut b = Study::builder(name)
                .space(space())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .reuse_cache(cache.clone())
                .objective_fingerprint("quadratic-v1")
                .objective(move |cfg, ctx| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    quadratic(cfg, ctx)
                });
            if let Some(j) = journal {
                b = b.journal(j);
            }
            b.build().unwrap()
        };
        let cold = mk("cold", None).run().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6);
        assert!(cold.iter().all(|t| !t.reused));

        // A second submission over the same space executes nothing.
        let warm = mk("warm", Some(Journal::new(&path))).run().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6, "warm run must execute 0 trials");
        assert_eq!(warm.len(), 6);
        assert!(warm.iter().all(|t| t.reused));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.metrics, w.metrics);
            assert_eq!(c.config, w.config);
        }
        let load = Journal::new(&path).load().unwrap();
        let reused = load.events.iter().filter(|e| e.key() == wal_keys::TRIAL_REUSED).count();
        assert_eq!(reused, 6, "every adopted result must be journaled as trial.reused");
        Journal::new(&path).clear().unwrap();
    }

    #[test]
    fn recorder_sees_trial_lifecycle() {
        let ring = Arc::new(telemetry::RingRecorder::new());
        let study = Study::builder("t")
            .space(ParamSpace::builder().categorical_int("k", [1, 2, 3, 4]).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::maximize("score"))
            .recorder(ring.clone())
            .objective(|cfg, ctx| {
                let k = cfg.int("k").unwrap();
                if k == 2 {
                    return Err("boom".into());
                }
                if k == 3 {
                    ctx.pruned = true;
                }
                Ok(MetricValues::new().with("score", k as f64))
            })
            .build()
            .unwrap();
        let trials = study.run().unwrap();
        assert_eq!(trials.len(), 4);
        let snap = ring.snapshot();
        assert_eq!(snap.counter(study_keys::TRIALS_COMPLETE.name()), Some(2));
        assert_eq!(snap.counter(study_keys::TRIALS_FAILED.name()), Some(1));
        assert_eq!(snap.counter(study_keys::TRIALS_PRUNED.name()), Some(1));
        assert_eq!(snap.spans_named(study_keys::TRIAL.name()).count(), 4);
    }

    #[test]
    fn builder_rejects_incomplete_studies() {
        assert!(Study::builder("t").build().is_err());
        assert!(Study::builder("t").space(space()).build().is_err());
        assert!(Study::builder("t").space(space()).explorer(RandomSearch::new(1)).build().is_err());
        let no_metric =
            Study::builder("t").space(space()).explorer(RandomSearch::new(1)).objective(quadratic);
        assert_eq!(no_metric.build().err().as_deref(), Some("study needs at least one metric"));
        assert!(Study::builder("t")
            .space(ParamSpace::builder().build())
            .explorer(RandomSearch::new(1))
            .metric(MetricDef::minimize("loss"))
            .objective(quadratic)
            .build()
            .is_err());
    }
}
