//! Multi-study scheduling: a service-shaped front end over the study core.
//!
//! The paper's workflow is service-like — experts *submit* studies and a
//! shared execution substrate works through them — so the crate exposes a
//! [`StudyServer`] that runs every submitted study through one set of
//! trial slots. Its wave loop is the crate's only driver: [`Study::run`]
//! is the same loop at width 1 over one study, [`Study::run_parallel`] at
//! width `p`.
//!
//! Scheduling is by **waves**: each wave is filled in passes over the open
//! studies in submission order, one slot per study per pass, until the
//! width is reached; the wave then executes concurrently and results are
//! absorbed back into each study's session in id order. Every pass starts
//! at the earliest open study, so the earliest studies fill a wave first.
//! A two-study server with width 4 runs 2+2 trials per wave while both
//! have work, and the survivor widens to 4 once the other is exhausted.
//! With more open studies than `width`, the later studies get no slot
//! until an earlier one finishes: studies past the width wait their turn
//! rather than interleave.
//!
//! Every study keeps its own journal, explorer state, and resume
//! semantics (sessions replay their WALs), so killing a server and
//! resubmitting the same studies resumes all of them. Studies sharing a
//! [`crate::cache::TrialCache`] reuse each other's finished trials across
//! submissions.
//!
//! [`Study::run`]: crate::study::Study::run
//! [`Study::run_parallel`]: crate::study::Study::run_parallel

use crate::spread::map_blocks;
use crate::study::{Replayed, Session, Slot, Study};
use crate::trial::{Configuration, Trial};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, PoisonError};
use telemetry::{Key, Recorder, SharedRecorder, Value};

/// Telemetry keys recorded by [`StudyServer`].
pub(crate) mod server_keys {
    use telemetry::Key;

    /// Span: one submitted study, open from session start to drain.
    pub(crate) const STUDY: Key = Key("server.study");

    /// Event: one scheduling wave (`wave`, `trials` fields).
    pub(crate) const WAVE: Key = Key("server.wave");

    /// Counter: trial slots executed (or adopted) across all studies.
    pub(crate) const TRIALS: Key = Key("server.trials");
}

/// The result of one submitted study after [`StudyServer::run_all`].
#[derive(Debug)]
pub struct StudyOutcome {
    /// Its trials (empty when the session failed to start).
    pub trials: Vec<Trial>,
    /// Why the study produced no trials, if it didn't (e.g. its journal
    /// belongs to a different study).
    pub error: Option<String>,
}

/// A scheduler that runs many studies through one execution runtime, in
/// waves filled from the earliest open study (see the module docs).
pub struct StudyServer {
    width: usize,
    recorder: SharedRecorder,
    studies: Vec<Study>,
}

/// One submitted study's live scheduling state.
struct Lane<'a> {
    session: Session<'a>,
    span: telemetry::SpanId,
    /// The session returned `None` during the current fill pass.
    idle: bool,
}

/// A trial to run: its position in the wave, then what `Study::run_one` takes.
type Job<'a> = (usize, &'a Study, usize, Configuration);

/// A job's position in the wave and its trial, or the panic that ended it.
type Done = (usize, std::thread::Result<Trial>);

fn run_job((at, study, id, config): Job<'_>) -> Done {
    (at, catch_unwind(AssertUnwindSafe(|| study.run_one(id, config))))
}

/// Execute a wave: adopted slots are trials already; of those to run, the
/// last runs here and each of the others on a worker. Results come back
/// in wave order; a trial's panic resumes here once every other trial of
/// the wave has ended.
fn run_wave<'a>(
    wave: Vec<(usize, Slot)>,
    studies: &[&'a Study],
    jobs: &Sender<Job<'a>>,
    done: &Receiver<Done>,
) -> Vec<(usize, Trial)> {
    let mut out: Vec<(usize, Option<Trial>)> = Vec::with_capacity(wave.len());
    let (mut own, mut sent) = (None, 0);
    for (lane, slot) in wave {
        match slot {
            Slot::Done(trial) => out.push((lane, Some(trial))),
            Slot::Run { id, config } => {
                // Keep the latest for this thread, post the one kept so far.
                if let Some(job) = own.replace((out.len(), studies[lane], id, config)) {
                    jobs.send(job).expect("the workers outlive the wave loop");
                    sent += 1;
                }
                out.push((lane, None));
            }
        }
    }
    let posted = (0..sent).map(|_| done.recv().expect("a worker reports every job it takes"));
    let mut panic = None;
    for (at, result) in own.map(run_job).into_iter().chain(posted) {
        match result {
            Ok(trial) => out[at].1 = Some(trial),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    out.into_iter().map(|(lane, trial)| (lane, trial.expect("every slot reported"))).collect()
}

/// Replay the studies' journals ahead of opening their sessions, on
/// `min(width, studies)` threads (this one among them) that take study
/// indices from a shared counter. Entry `i` is study `i`'s replay, or
/// `None` when its journal file is an earlier study's too: that one it
/// replays when its turn to open comes, after the earlier study's
/// checkpoint is appended, as when the two open in turn.
fn replay_ahead(studies: &[&Study], width: usize) -> Vec<Option<Result<Replayed, String>>> {
    let mut paths = BTreeSet::new();
    let ahead: Vec<usize> = (0..studies.len())
        .filter(|&i| studies[i].journal_path().is_none_or(|p| paths.insert(p)))
        .collect();
    let threads = width.min(ahead.len());
    let replayed =
        map_blocks(ahead.len(), threads, 1, || (), |(), k| Replayed::load(studies[ahead[k]]));
    let mut out: Vec<Option<Result<Replayed, String>>> = studies.iter().map(|_| None).collect();
    for (&i, replayed) in ahead.iter().zip(replayed) {
        out[i] = Some(replayed);
    }
    out
}

/// The one wave loop: run every study to completion, at most `width`
/// trials at once; outcomes are in the order given. A wave with at most
/// one trial to run needs no worker, so a call of width 1 never starts a
/// thread; a wider one keeps the scoped workers it starts (at most
/// `width - 1`, as waves need them) until it returns — per call, never per
/// wave, so a long run does not start a thread per wave. `recorder` is the
/// scheduler's own; studies keep theirs.
pub(crate) fn run_waves(
    studies: &[&Study],
    width: usize,
    recorder: &dyn Recorder,
) -> Vec<StudyOutcome> {
    assert!(width > 0, "a wave holds at least one trial");
    let mut outcomes: Vec<StudyOutcome> =
        studies.iter().map(|_| StudyOutcome { trials: Vec::new(), error: None }).collect();
    let mut lanes: Vec<Option<Lane<'_>>> = Vec::with_capacity(studies.len());
    // Journals replay across threads; sessions open in submission order.
    let ahead = replay_ahead(studies, width);
    for ((study, outcome), replayed) in studies.iter().zip(&mut outcomes).zip(ahead) {
        let replayed = replayed.unwrap_or_else(|| Replayed::load(study));
        lanes.push(match replayed.and_then(|r| Session::open(study, r)) {
            Ok(session) => {
                Some(Lane { session, span: recorder.span_begin(server_keys::STUDY), idle: false })
            }
            Err(e) => {
                outcome.error = Some(e);
                None
            }
        });
    }

    let (jobs, posted) = channel::<Job<'_>>();
    let posted = Mutex::new(posted);
    let (report, done) = channel::<Done>();
    std::thread::scope(|scope| {
        // Dropped when this closure ends, by return or by unwinding: the
        // workers' `recv` fails and they leave.
        let jobs = jobs;
        let mut hired = 0;
        let mut wave_no: u64 = 0;
        while lanes.iter().any(Option::is_some) {
            // Fill the wave round-robin: one slot per open lane per pass.
            let mut wave: Vec<(usize, Slot)> = Vec::with_capacity(width);
            loop {
                let mut pulled = false;
                for (i, entry) in lanes.iter_mut().enumerate() {
                    if wave.len() == width {
                        break;
                    }
                    let Some(lane) = entry else { continue };
                    if lane.idle {
                        continue;
                    }
                    match lane.session.next_slot() {
                        Some(slot) => {
                            wave.push((i, slot));
                            pulled = true;
                        }
                        None => lane.idle = true,
                    }
                }
                if !pulled || wave.len() == width {
                    break;
                }
            }

            // An empty wave skips to the close: every open lane is out of work.
            let ran = !wave.is_empty();
            if ran {
                wave_no += 1;
                recorder.event(
                    server_keys::WAVE,
                    &[
                        (Key("wave"), Value::U64(wave_no)),
                        (Key("trials"), Value::U64(wave.len() as u64)),
                    ],
                );
                recorder.counter_add(server_keys::TRIALS, wave.len() as u64);

                let runs = wave.iter().filter(|(_, slot)| matches!(slot, Slot::Run { .. })).count();
                while hired + 1 < runs {
                    let (posted, report) = (&posted, report.clone());
                    scope.spawn(move || loop {
                        // A statement of its own: the lock goes before the trial runs.
                        let job = posted.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        match job {
                            Ok(job) => drop(report.send(run_job(job))),
                            Err(_) => return,
                        }
                    });
                    hired += 1;
                }
                // Wave order is id order within each study.
                for (i, trial) in run_wave(wave, studies, &jobs, &done) {
                    let lane = lanes[i].as_mut().expect("a lane with a slot in flight is open");
                    lane.session.absorb(trial);
                }
            }

            // A session that has once said `None` has nothing more to say:
            // its lane closes now that its last slots are absorbed.
            let stop = ran
                && (recorder.should_stop() || studies.iter().any(|s| s.recorder().should_stop()));
            for (i, entry) in lanes.iter_mut().enumerate() {
                if let Some(lane) = entry.take_if(|lane| stop || lane.idle) {
                    let session = lane.session;
                    outcomes[i].trials =
                        if stop { session.into_trials() } else { session.finish() };
                    recorder.span_end(lane.span);
                }
            }
        }
    });
    outcomes
}

impl StudyServer {
    /// A server executing at most `width` trials concurrently across all
    /// submitted studies.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "server width must be at least 1");
        Self { width, recorder: telemetry::null_recorder(), studies: Vec::new() }
    }

    /// Install a telemetry recorder for the scheduler itself (per-study
    /// `server_keys::STUDY` spans, per-wave `server_keys::WAVE`
    /// events). Studies keep their own recorders.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Submit a study; returns its index into the outcomes of
    /// [`StudyServer::run_all`].
    pub fn submit(&mut self, study: Study) -> usize {
        self.studies.push(study);
        self.studies.len() - 1
    }

    /// Number of submitted studies.
    pub fn len(&self) -> usize {
        self.studies.len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.studies.is_empty()
    }

    /// Run every submitted study to completion in waves of at most
    /// `width` trials, each filled one slot per open study per pass from
    /// the earliest one; a study past the first `width` open ones starts
    /// when an earlier one finishes. Outcomes are in submission order. A
    /// study whose session cannot start (corrupt or mismatched journal) is
    /// reported in its outcome's `error` without sinking the others.
    ///
    /// When the server recorder's cooperative-stop flag trips, the
    /// current wave finishes, every study drains gracefully (finished
    /// trials stay durable in each journal) and partial outcomes are
    /// returned — resubmitting the same studies resumes them.
    pub fn run_all(&self) -> Vec<StudyOutcome> {
        run_waves(&self.studies.iter().collect::<Vec<_>>(), self.width, self.recorder.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::GridSearch;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::space::ParamSpace;
    use crate::storage::Journal;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn grid_study(name: &str, n: i64) -> Study {
        Study::builder(name)
            .space(ParamSpace::builder().categorical_int("k", 0..n).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap()
    }

    #[test]
    fn interleaved_studies_match_solo_runs() {
        let mut server = StudyServer::new(4);
        server.submit(grid_study("a", 7));
        server.submit(grid_study("b", 5));
        let outcomes = server.run_all();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.error.is_none()));

        let solo_a = grid_study("a", 7).run_parallel(4).unwrap();
        let solo_b = grid_study("b", 5).run_parallel(4).unwrap();
        assert_eq!(outcomes[0].trials, solo_a, "interleaving must not change study a");
        assert_eq!(outcomes[1].trials, solo_b, "interleaving must not change study b");
    }

    #[test]
    fn waves_interleave_fairly() {
        // Two studies with work share a width-4 wave 2+2, so neither ever
        // has more than two trials in flight.
        let live = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let peak = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let mk = |idx: usize| {
            let (live, peak) = (live.clone(), peak.clone());
            Study::builder(format!("s{idx}"))
                .space(ParamSpace::builder().categorical_int("k", 0..8).build())
                .explorer(GridSearch::new())
                .metric(MetricDef::minimize("loss"))
                .objective(move |cfg, _| {
                    let now = live[idx].fetch_add(1, Ordering::SeqCst) + 1;
                    peak[idx].fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    live[idx].fetch_sub(1, Ordering::SeqCst);
                    Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64))
                })
                .build()
                .unwrap()
        };
        let mut server = StudyServer::new(4);
        server.submit(mk(0));
        server.submit(mk(1));
        let outcomes = server.run_all();
        assert!(outcomes.iter().all(|o| o.trials.len() == 8));
        for (i, p) in peak.iter().enumerate() {
            let p = p.load(Ordering::SeqCst);
            assert!(p <= 2, "study {i} ran {p} trials at once in its half of a width-4 wave");
        }
    }

    #[test]
    fn studies_past_the_width_wait_for_an_earlier_one_to_finish() {
        // Each trial logs (study, started?) when it starts and ends.
        let log = Arc::new(Mutex::new(Vec::new()));
        let sizes = [3, 5, 4];
        let mut server = StudyServer::new(2);
        for (idx, n) in sizes.into_iter().enumerate() {
            let log = log.clone();
            server.submit(
                Study::builder(format!("s{idx}"))
                    .space(ParamSpace::builder().categorical_int("k", 0..n).build())
                    .explorer(GridSearch::new())
                    .metric(MetricDef::minimize("loss"))
                    .objective(move |cfg, _| {
                        log.lock().unwrap().push((idx, true));
                        let loss = cfg.int("k").unwrap() as f64;
                        log.lock().unwrap().push((idx, false));
                        Ok(MetricValues::new().with("loss", loss))
                    })
                    .build()
                    .unwrap(),
            );
        }
        let outcomes = server.run_all();
        for (outcome, n) in outcomes.iter().zip(sizes) {
            assert_eq!(outcome.trials.len(), n as usize);
        }
        let log = log.lock().unwrap();
        let first = log.iter().position(|&(s, started)| s == 2 && started).unwrap();
        let ended =
            |s: usize| log[..first].iter().filter(|&&(t, started)| t == s && !started).count();
        assert!(
            ended(0) == 3 || ended(1) == 5,
            "study 2 started after {} of 3 and {} of 5 trials of the studies before it",
            ended(0),
            ended(1)
        );
    }

    #[test]
    fn scheduler_records_spans_waves_and_trial_counts() {
        let ring = Arc::new(telemetry::RingRecorder::new());
        let mut server = StudyServer::new(4).with_recorder(ring.clone());
        server.submit(grid_study("a", 6));
        server.submit(grid_study("b", 4));
        let outcomes = server.run_all();
        assert_eq!(outcomes[0].trials.len() + outcomes[1].trials.len(), 10);
        let snap = ring.snapshot();
        assert_eq!(snap.spans_named(server_keys::STUDY.name()).count(), 2);
        assert_eq!(snap.counter(server_keys::TRIALS.name()), Some(10));
        assert!(snap.events.iter().any(|e| e.key == server_keys::WAVE.name()));
    }

    #[test]
    fn a_bad_journal_fails_its_study_without_sinking_the_server() {
        let mut path = std::env::temp_dir();
        path.push(format!("decision-server-badwal-{}", std::process::id()));
        Journal::new(&path).clear().unwrap();
        // Seed the journal with a different study's checkpoint.
        let other = Study::builder("other")
            .space(ParamSpace::builder().categorical_int("k", 0..2).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .journal(Journal::new(&path))
            .seed(99)
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap();
        other.run().unwrap();

        let mismatched = Study::builder("mismatched")
            .space(ParamSpace::builder().categorical_int("k", 0..2).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::minimize("loss"))
            .journal(Journal::new(&path))
            .objective(|cfg, _| Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64)))
            .build()
            .unwrap();
        let mut server = StudyServer::new(2);
        server.submit(mismatched);
        server.submit(grid_study("fine", 3));
        let outcomes = server.run_all();
        assert!(outcomes[0].error.as_deref().unwrap().contains("different study"));
        assert!(outcomes[0].trials.is_empty());
        assert_eq!(outcomes[1].trials.len(), 3);
        assert!(outcomes[1].error.is_none());
        Journal::new(&path).clear().unwrap();
    }
}
