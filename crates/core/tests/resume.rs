//! Crash-resume kill-point suite.
//!
//! The WAL's contract is that a study killed at *any* event boundary —
//! and even mid-line — resumes to the bitwise-identical trial set an
//! uninterrupted run produces, executing only the objectives the log does
//! not already cover. This suite enumerates every kill point of a
//! 32-trial study (with pruning and a failing configuration, so all
//! finish kinds appear in the log) rather than sampling a few.

use decision::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("decision-resume-{name}-{}", std::process::id()));
    p
}

/// Every durability level a journal can append at.
const LEVELS: [Durability; 3] = [Durability::Buffered, Durability::Flush, Durability::Sync];

/// A 32-trial study (k in 15..=0 × j in 0..2) whose log contains every
/// event kind: intermediate reports, pruned trials (descending k walks
/// under the running median), and one failing configuration.
fn study(path: &Path, calls: Arc<AtomicUsize>) -> Study {
    study_on(Journal::new(path), calls, "unlucky configuration")
}

/// [`study`] on `journal`, with the failing configuration's error message.
fn study_on(journal: Journal, calls: Arc<AtomicUsize>, error: &'static str) -> Study {
    Study::builder("killpoints")
        .space(
            ParamSpace::builder()
                .categorical_int("k", (0..16).rev())
                .categorical_int("j", 0..2)
                .build(),
        )
        .explorer(GridSearch::new())
        .metric(MetricDef::maximize("score"))
        .pruner(MedianPruner::with_startup(4))
        .seed(11)
        .journal(journal)
        .objective(move |cfg, ctx| {
            calls.fetch_add(1, Ordering::SeqCst);
            let k = cfg.int("k").unwrap();
            let j = cfg.int("j").unwrap();
            let (kf, jf) = (k as f64, j as f64);
            if ctx.report(1, kf + jf) {
                return Ok(MetricValues::new().with("score", kf));
            }
            if ctx.report(2, 2.0 * kf + jf) {
                return Ok(MetricValues::new().with("score", kf));
            }
            // An early configuration (inside the pruner's startup window,
            // so it cannot be pruned first) that always errors.
            if k == 15 && j == 1 {
                return Err(error.into());
            }
            Ok(MetricValues::new().with("score", kf * 10.0 + jf))
        })
        .build()
        .unwrap()
}

fn finish_events(lines: &[&str]) -> usize {
    lines
        .iter()
        .map(|l| StudyEvent::from_line(l).expect("reference WAL parses"))
        .filter(|e| {
            matches!(
                e.key(),
                k if k == wal_keys::TRIAL_COMPLETED
                    || k == wal_keys::TRIAL_PRUNED
                    || k == wal_keys::TRIAL_FAILED
            )
        })
        .count()
}

/// At every durability level: the reference run leaves the same log on
/// disk, a finished study resumes without running anything, and every
/// kill point resumes to the reference.
#[test]
fn killing_the_study_at_every_event_boundary_resumes_bitwise_identically() {
    const ERROR: &str = "unlucky configuration";
    let refpath = tmp("boundary-ref");
    let path = tmp("boundary");
    let mut first_wal: Option<String> = None;
    for level in LEVELS {
        let journal = |path: &Path| Journal::new(path).with_durability(level);
        Journal::new(&refpath).clear().unwrap();
        let ref_calls = Arc::new(AtomicUsize::new(0));
        let reference = study_on(journal(&refpath), ref_calls.clone(), ERROR).run().unwrap();
        assert_eq!(reference.len(), 32);
        assert_eq!(ref_calls.load(Ordering::SeqCst), 32);
        assert!(reference.iter().any(|t| t.status == TrialStatus::Pruned), "needs pruned trials");
        assert!(reference.iter().any(|t| t.status == TrialStatus::Failed), "needs a failed trial");

        let wal = std::fs::read_to_string(&refpath).unwrap();
        let lines: Vec<&str> = wal.lines().collect();
        assert!(lines.len() >= 98, "{level:?}: expected a rich log, got {} lines", lines.len());
        let first = first_wal.get_or_insert_with(|| wal.clone());
        assert!(*first == wal, "{level:?}: the log differs from the {:?} one", LEVELS[0]);

        let calls = Arc::new(AtomicUsize::new(0));
        let again = study_on(journal(&refpath), calls.clone(), ERROR).resume().unwrap();
        assert_eq!(format!("{again:?}"), format!("{reference:?}"), "{level:?}: finished resume");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "{level:?}: a finished study re-ran trials");

        for cut in 0..=lines.len() {
            let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, &prefix).unwrap();
            let calls = Arc::new(AtomicUsize::new(0));
            let resumed = study_on(journal(&path), calls.clone(), ERROR).resume().unwrap();
            // Debug text compares NaN-safely and to full float precision.
            assert_eq!(
                format!("{resumed:?}"),
                format!("{reference:?}"),
                "{level:?}: kill point {cut}/{} diverged",
                lines.len()
            );
            assert_eq!(
                calls.load(Ordering::SeqCst),
                32 - finish_events(&lines[..cut]),
                "{level:?}: kill point {cut}: resume re-ran already-finished trials"
            );
        }
    }
    Journal::new(&refpath).clear().unwrap();
    Journal::new(&path).clear().unwrap();
}

#[test]
fn a_torn_final_record_is_discarded_and_resume_still_matches() {
    let refpath = tmp("torn-ref");
    let path = tmp("torn");
    Journal::new(&refpath).clear().unwrap();
    let reference = study(&refpath, Arc::new(AtomicUsize::new(0))).run().unwrap();
    let wal = std::fs::read_to_string(&refpath).unwrap();
    let lines: Vec<&str> = wal.lines().collect();

    for cut in [1, lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        let mut text: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        // A crash mid-append leaves a torn, unterminated record.
        text.push_str(&lines[cut][..lines[cut].len() / 2]);
        std::fs::write(&path, &text).unwrap();
        let load = Journal::new(&path).load().unwrap();
        assert!(load.torn_tail, "kill point {cut}: torn tail not detected");
        assert_eq!(load.events.len(), cut);

        let resumed = study(&path, Arc::new(AtomicUsize::new(0))).resume().unwrap();
        assert_eq!(
            format!("{resumed:?}"),
            format!("{reference:?}"),
            "torn kill point {cut} diverged"
        );
        let repaired = Journal::new(&path).load().unwrap();
        assert!(!repaired.torn_tail, "resume must repair the torn tail");
    }
    Journal::new(&refpath).clear().unwrap();
    Journal::new(&path).clear().unwrap();
}

/// A failed trial journals its error message, and a message may carry
/// non-ASCII text (`dist_exec`'s deployment check cites "paper §V-b"). A
/// crash that tears the record inside such a character leaves invalid
/// UTF-8 at the end of the file: a torn tail like any other.
#[test]
fn a_tear_inside_a_multi_byte_character_is_a_torn_tail() {
    const ERROR: &str = "single node only (paper §V-b)";
    let refpath = tmp("utf8-ref");
    let path = tmp("utf8");
    Journal::new(&refpath).clear().unwrap();
    let reference =
        study_on(Journal::new(&refpath), Arc::new(AtomicUsize::new(0)), ERROR).run().unwrap();
    let wal = std::fs::read(&refpath).unwrap();
    let at = wal.windows(2).position(|w| w == "§".as_bytes()).expect("the failure is journalled");
    // Keep the first byte of `§` and lose everything after it.
    std::fs::write(&path, &wal[..=at]).unwrap();
    let load = Journal::new(&path).load().unwrap();
    assert!(load.torn_tail, "a tear inside a character is a torn tail");
    assert_eq!(load.events.len(), wal[..at].iter().filter(|&&b| b == b'\n').count());

    let resumed =
        study_on(Journal::new(&path), Arc::new(AtomicUsize::new(0)), ERROR).resume().unwrap();
    assert_eq!(format!("{resumed:?}"), format!("{reference:?}"));
    assert!(!Journal::new(&path).load().unwrap().torn_tail, "resume must repair the torn tail");
    Journal::new(&refpath).clear().unwrap();
    Journal::new(&path).clear().unwrap();
}

#[test]
fn corruption_before_the_tail_fails_resume_loudly() {
    let path = tmp("corrupt");
    Journal::new(&path).clear().unwrap();
    study(&path, Arc::new(AtomicUsize::new(0))).run().unwrap();
    let wal = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = wal.lines().map(str::to_string).collect();
    let mid = lines.len() / 2;
    lines[mid] = "{\"ty\":\"event\",\"key\":\"trial.sta".to_string();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let err = study(&path, Arc::new(AtomicUsize::new(0))).resume().unwrap_err();
    assert!(err.contains("corrupt"), "unexpected error: {err}");
    Journal::new(&path).clear().unwrap();
}

#[test]
fn warm_cache_resubmission_executes_zero_trials() {
    let path = tmp("warm");
    Journal::new(&path).clear().unwrap();
    let cache = Arc::new(TrialCache::new());
    let calls = Arc::new(AtomicUsize::new(0));
    let mk = |journal: Option<Journal>| {
        let calls = calls.clone();
        let mut b = Study::builder("cached")
            .space(
                ParamSpace::builder()
                    .categorical_int("k", (0..16).rev())
                    .categorical_int("j", 0..2)
                    .build(),
            )
            .explorer(GridSearch::new())
            .metric(MetricDef::maximize("score"))
            .pruner(MedianPruner::with_startup(4))
            .seed(11)
            .reuse_cache(cache.clone())
            .objective_fingerprint("score-v1")
            .objective(move |cfg, ctx| {
                calls.fetch_add(1, Ordering::SeqCst);
                let (k, j) = (cfg.int("k").unwrap() as f64, cfg.int("j").unwrap() as f64);
                if ctx.report(1, k + j) {
                    return Ok(MetricValues::new().with("score", k));
                }
                Ok(MetricValues::new().with("score", k * 10.0 + j))
            });
        if let Some(j) = journal {
            b = b.journal(j);
        }
        b.build().unwrap()
    };

    let cold = mk(None).run().unwrap();
    assert_eq!(cold.len(), 32);
    assert_eq!(calls.load(Ordering::SeqCst), 32);

    let warm = mk(Some(Journal::new(&path))).run().unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 32, "warm resubmission must execute 0 trials");
    assert_eq!(warm.len(), 32);
    assert!(warm.iter().all(|t| t.reused));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.config, w.config);
        assert_eq!(c.status, w.status);
        assert_eq!(c.metrics, w.metrics);
        assert_eq!(c.intermediate, w.intermediate);
    }
    let load = Journal::new(&path).load().unwrap();
    let reused = load.events.iter().filter(|e| e.key() == wal_keys::TRIAL_REUSED).count();
    assert_eq!(reused, 32, "every adopted result must be reported as trial.reused");
    let (hits, _) = cache.stats();
    assert_eq!(hits, 32);
    Journal::new(&path).clear().unwrap();
}

mod sweeps {
    use super::*;
    use decision::param::ParamValue;
    use testkit::sweep;

    /// Fold arbitrary `(op, step, value)` triples into a semantically
    /// valid event sequence (starts precede reports/finishes, ids are
    /// unique). Values hit the non-finite spellings via the step counter.
    fn build_events(ops: &[(u8, u64, f64)]) -> Vec<StudyEvent> {
        let mut events = Vec::new();
        let mut next_trial = 0usize;
        let mut open: Vec<usize> = Vec::new();
        let mut finished = 0u64;
        for &(op, step, value) in ops {
            let value = match step % 13 {
                11 => f64::NAN,
                12 => f64::NEG_INFINITY,
                _ => value,
            };
            match op % 6 {
                0 => {
                    let config = Configuration::new()
                        .with("k", ParamValue::Int(next_trial as i64 - 4))
                        .with("lr", ParamValue::Float(value))
                        .with("algo", ParamValue::Str(format!("a{step}")))
                        .with("fast", ParamValue::Bool(step % 2 == 0));
                    events.push(StudyEvent::TrialStarted { trial: next_trial, config });
                    open.push(next_trial);
                    next_trial += 1;
                }
                1 => {
                    if let Some(&t) = open.last() {
                        events.push(StudyEvent::TrialReport { trial: t, step, value });
                    }
                }
                2 => {
                    if let Some(t) = open.pop() {
                        events.push(StudyEvent::TrialCompleted {
                            trial: t,
                            metrics: MetricValues::new().with("score", value),
                        });
                        finished += 1;
                    }
                }
                3 => {
                    if let Some(t) = open.pop() {
                        events.push(StudyEvent::TrialFailed {
                            trial: t,
                            error: format!("err {step}"),
                            metrics: MetricValues::new(),
                        });
                        finished += 1;
                    }
                }
                4 => {
                    events.push(StudyEvent::TrialReused {
                        trial: next_trial,
                        config: Configuration::new().with("k", ParamValue::Int(step as i64)),
                        status: TrialStatus::Pruned,
                        metrics: MetricValues::new().with("score", value),
                        intermediate: vec![(step, value)],
                    });
                    next_trial += 1;
                    finished += 1;
                }
                _ => {
                    events.push(StudyEvent::Checkpoint {
                        study: "prop".into(),
                        seed: 1,
                        explorer: "grid".into(),
                        fingerprint: String::new(),
                        trials: finished,
                    });
                }
            }
        }
        events
    }

    /// replay(load(append(events))) round-trips: appending any valid
    /// event sequence and loading it back yields the same events, a
    /// clean (non-torn) log, and an identical replayed state.
    #[test]
    fn wal_append_load_replay_round_trips() {
        sweep(64, 0x3A1, |g| {
            let ops = g
                .vec(0..60, |g| (g.int_in(0u8..12), g.int_in(0u64..1000), g.f64_in(-1.0e9..1.0e9)));
            let case = g.u64();
            let events = build_events(&ops);
            let mut path = std::env::temp_dir();
            path.push(format!("decision-wal-prop-{}-{case}", std::process::id()));
            let journal = Journal::new(&path);
            journal.clear().unwrap();
            for e in &events {
                journal.append(e).unwrap();
            }
            drop(journal);
            let load = Journal::new(&path).load().unwrap();
            assert!(!load.torn_tail);
            assert_eq!(format!("{:?}", load.events), format!("{events:?}"));
            let replayed = Replay::from_events(load.events).unwrap();
            let original = Replay::from_events(events).unwrap();
            assert_eq!(
                format!("{:?}", (&replayed.finished, &replayed.in_flight)),
                format!("{:?}", (&original.finished, &original.in_flight))
            );
            Journal::new(&path).clear().unwrap();
        });
    }
}
