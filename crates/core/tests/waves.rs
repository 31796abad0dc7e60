//! The one wave loop under its three entry points: `Study::run` is the
//! loop at width 1, `Study::run_parallel(p)` at width `p`, and a
//! `StudyServer` the same loop over many studies. Equal input must give
//! equal trials — and, at width 1, byte-equal journals — whichever door
//! it came through; a wave's panic reaches the caller after its peers
//! ended; and the threads are per call, never per wave.

use decision::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::RingRecorder;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("decision-waves-{name}-{}", std::process::id()));
    Journal::new(&p).clear().unwrap();
    p
}

/// 40 seeded random proposals over a mixed space, with intermediate
/// reports, so the explorer's stream, the WAL's every event kind and
/// (when `pruned`) the pruner's history all have to line up.
fn seeded_study(journal: Option<&PathBuf>, pruned: bool) -> Study {
    let space = ParamSpace::builder()
        .categorical_int("k", 0..6)
        .float("x", 0.0, 1.0)
        .categorical_int("j", [0, 1])
        .build();
    let mut builder = Study::builder("waves")
        .space(space)
        .explorer(RandomSearch::new(40))
        .metric(MetricDef::maximize("score"))
        .seed(0x5EED)
        .objective(|cfg, ctx| {
            let (k, x) = (cfg.int("k").unwrap() as f64, cfg.float("x").unwrap());
            if ctx.report(1, k + x) || ctx.report(2, 2.0 * k - x) {
                return Ok(MetricValues::new().with("score", k));
            }
            if cfg.int("j") == Some(1) && x > 0.5 {
                return Err(format!("x = {x} is out of the envelope"));
            }
            Ok(MetricValues::new().with("score", 10.0 * k + x))
        });
    if pruned {
        builder = builder.pruner(MedianPruner::with_startup(4));
    }
    if let Some(path) = journal {
        builder = builder.journal(Journal::new(path));
    }
    builder.build().unwrap()
}

fn served(width: usize, study: Study) -> Vec<Trial> {
    let mut server = StudyServer::new(width);
    server.submit(study);
    let mut outcomes = server.run_all();
    assert!(outcomes[0].error.is_none(), "{:?}", outcomes[0].error);
    outcomes.remove(0).trials
}

#[test]
fn width_one_is_one_loop_through_three_doors() {
    let paths = [tmp("run"), tmp("parallel-1"), tmp("server-1")];
    let run = seeded_study(Some(&paths[0]), true).run().unwrap();
    let parallel = seeded_study(Some(&paths[1]), true).run_parallel(1).unwrap();
    let server = served(1, seeded_study(Some(&paths[2]), true));
    assert_eq!(run.len(), 40);
    for status in [TrialStatus::Complete, TrialStatus::Pruned, TrialStatus::Failed] {
        assert!(run.iter().any(|t| t.status == status), "no {status:?} trial in the fixture");
    }
    assert_eq!(run, parallel);
    assert_eq!(run, server);
    let wal = std::fs::read(&paths[0]).unwrap();
    assert!(wal.len() > 4_000, "the journal holds the run: {} bytes", wal.len());
    assert_eq!(wal, std::fs::read(&paths[1]).unwrap(), "run vs run_parallel(1) journal");
    assert_eq!(wal, std::fs::read(&paths[2]).unwrap(), "run vs StudyServer::new(1) journal");
    for path in &paths {
        Journal::new(path).clear().unwrap();
    }
}

#[test]
fn width_three_is_the_same_loop_through_two_doors() {
    // No pruner: its verdicts depend on which trial of a wave reports first.
    let parallel = seeded_study(None, false).run_parallel(3).unwrap();
    let server = served(3, seeded_study(None, false));
    assert_eq!(parallel.len(), 40);
    assert_eq!(parallel, server);
    // Random search ignores the history, so the wave width is invisible.
    assert_eq!(parallel, seeded_study(None, false).run().unwrap());
}

/// The kernel's id for the calling thread, where `/proc` says.
fn os_thread() -> Option<PathBuf> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(PathBuf::from("/proc").join(link))
}

#[test]
fn a_panic_reaches_the_caller_after_its_peers_ended_and_leaves_no_thread() {
    let ended = Arc::new(AtomicUsize::new(0));
    let threads = Arc::new(Mutex::new(BTreeSet::new()));
    let (e, t) = (ended.clone(), threads.clone());
    let study = Study::builder("boom")
        .space(ParamSpace::builder().categorical_int("k", 0..3).build())
        .explorer(GridSearch::new())
        .metric(MetricDef::minimize("loss"))
        .objective(move |cfg, _| {
            t.lock().unwrap().extend(os_thread());
            if cfg.int("k") == Some(1) {
                panic!("trial 1 blew up");
            }
            std::thread::sleep(Duration::from_millis(60));
            e.fetch_add(1, Ordering::SeqCst);
            Ok(MetricValues::new().with("loss", 0.0))
        })
        .build()
        .unwrap();
    let caller = os_thread();
    let panic = catch_unwind(AssertUnwindSafe(|| study.run_parallel(3))).unwrap_err();
    assert_eq!(ended.load(Ordering::SeqCst), 2, "both peers ran to their end first");
    assert_eq!(panic.downcast_ref::<&str>(), Some(&"trial 1 blew up"));

    // Every thread that ran a trial, the caller apart, is gone (the scope
    // has joined them; the kernel may take a moment to drop the entry).
    let threads = threads.lock().unwrap();
    if caller.is_some() {
        assert!(threads.len() > 1, "the wave ran on the caller alone: {threads:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for thread in threads.iter().filter(|&t| Some(t) != caller.as_ref()) {
        while thread.exists() {
            assert!(Instant::now() < deadline, "{} outlived the call", thread.display());
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Distinct threads among the trial spans `recorder` holds.
fn trial_threads(recorder: &RingRecorder) -> usize {
    let snap = recorder.snapshot();
    snap.spans_named(study_keys::TRIAL.name()).map(|s| s.thread).collect::<BTreeSet<_>>().len()
}

fn recorded_study(trials: i64, recorder: &Arc<RingRecorder>) -> Study {
    Study::builder("recorded")
        .space(ParamSpace::builder().categorical_int("k", 0..trials).build())
        .explorer(GridSearch::new())
        .metric(MetricDef::minimize("loss"))
        .recorder(recorder.clone())
        .objective(|cfg, _| {
            std::thread::sleep(Duration::from_micros(100));
            Ok(MetricValues::new().with("loss", cfg.int("k").unwrap() as f64))
        })
        .build()
        .unwrap()
}

#[test]
fn five_hundred_waves_record_from_at_most_width_threads() {
    // A thread per wave would leave the recorder a thousand rings.
    let recorder = Arc::new(RingRecorder::new());
    let trials = recorded_study(1_500, &recorder).run_parallel(3).unwrap();
    assert_eq!(trials.len(), 1_500);
    let threads = trial_threads(&recorder);
    assert!((2..=3).contains(&threads), "{threads} threads ran the trials of 500 width-3 waves");
}

#[test]
fn run_records_from_the_calling_thread_alone() {
    let recorder = Arc::new(RingRecorder::new());
    assert_eq!(recorded_study(50, &recorder).run().unwrap().len(), 50);
    assert_eq!(trial_threads(&recorder), 1);
}

/// What a server over half-finished journals is made of: per study, its
/// name, explorer, seed, and the file its journal uses (`None`: none).
struct Submission {
    name: &'static str,
    grid: bool,
    seed: u64,
    journal: Option<&'static str>,
}

const BUDGET: usize = 12;

/// Index 1's journal belongs to another study and index 3's is corrupt
/// before its tail; index 6 writes to index 5's fresh journal, so it
/// meets index 5's checkpoint once that study has opened. The studies that
/// open have one budget, so at width 2 and 4 the ones a wave reaches take
/// a slot each and finish together: no journal has two trials in flight,
/// and its bytes cannot depend on which trial ended first.
const SUBMITTED: [Submission; 8] = [
    Submission { name: "half", grid: false, seed: 1, journal: Some("half") },
    Submission { name: "intruder", grid: false, seed: 2, journal: Some("foreign") },
    Submission { name: "torn", grid: true, seed: 3, journal: Some("torn") },
    Submission { name: "corrupt", grid: false, seed: 4, journal: Some("corrupt") },
    Submission { name: "in-flight", grid: false, seed: 5, journal: Some("in-flight") },
    Submission { name: "fresh", grid: false, seed: 6, journal: Some("fresh") },
    Submission { name: "sharer", grid: false, seed: 7, journal: Some("fresh") },
    // Without a journal and last: once the others are done this study
    // alone fills each wave, and its trials' events go nowhere.
    Submission { name: "unjournalled", grid: false, seed: 8, journal: None },
];

fn discrete_study(name: &str, grid: bool, seed: u64, journal: Option<PathBuf>) -> Study {
    let space = ParamSpace::builder()
        .categorical_int("k", 0..6)
        .int("j", 0, 3)
        .categorical("c", ["a", "b"])
        .build();
    let mut builder = Study::builder(name)
        .space(space)
        .metric(MetricDef::minimize("loss"))
        .seed(seed)
        .objective(|cfg, ctx| {
            let (k, j) = (cfg.int("k").unwrap() as f64, cfg.int("j").unwrap() as f64);
            ctx.report(1, k - j);
            let spread = Distribution::from_samples(vec![k, j, k * j + 0.25]);
            Ok(MetricValues::new().with("loss", k / (1.0 + j)).with_distribution("spread", spread))
        });
    builder = if grid {
        builder.explorer(GridSearch::with_limit(BUDGET))
    } else {
        builder.explorer(RandomSearch::new(BUDGET))
    };
    if let Some(path) = journal {
        builder = builder.journal(Journal::new(path));
    }
    builder.build().unwrap()
}

/// The journals the server starts from, by file name: each cut from a
/// full width-1 run of the study that wrote it.
fn half_finished_journals(scratch: &Path) -> Vec<(&'static str, Vec<u8>)> {
    let full = |name: &str, grid: bool, seed: u64| {
        let path = scratch.join(name);
        discrete_study(name, grid, seed, Some(path.clone())).run().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        text.lines().map(|l| format!("{l}\n")).collect::<Vec<_>>()
    };
    let half = full("half", false, 1);
    let half = half[..half.len() / 2].concat();
    let foreign = full("other", false, 2).concat();
    let torn = full("torn", true, 3);
    let cut = torn.len() / 2;
    let torn = format!("{}{}", torn[..cut].concat(), &torn[cut][..torn[cut].len() / 2]);
    let mut corrupt = full("corrupt", false, 4);
    let middle = corrupt.len() / 2;
    corrupt[middle] = "{\"ty\":\"event\",\"key\":\"trial.completed\",\"t_ns\":\n".into();
    let in_flight = full("in-flight", false, 5);
    let started = (in_flight.len() / 3..)
        .find(|&i| in_flight[i].contains("\"trial.started\""))
        .expect("a trial starts past the first third");
    let in_flight = in_flight[..=started].concat();
    let corrupt = corrupt.concat();
    let texts = [half, foreign, torn, corrupt, in_flight].map(String::into_bytes);
    ["half", "foreign", "torn", "corrupt", "in-flight"].into_iter().zip(texts).collect()
}

/// What a server left: each study's trials (`Debug` prints every float
/// exactly) and error (the directory cut out), and every journal's bytes
/// by file name.
struct Served {
    trials: Vec<String>,
    errors: Vec<Option<String>>,
    journals: Vec<(String, Vec<u8>)>,
}

/// Serve `SUBMITTED` at `width` over copies of `journals` in a directory
/// of its own.
fn serve_half_finished(width: usize, journals: &[(&str, Vec<u8>)]) -> Served {
    let dir = tmp(&format!("replay-width-{width}"));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, bytes) in journals {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    let mut server = StudyServer::new(width);
    for s in &SUBMITTED {
        server.submit(discrete_study(s.name, s.grid, s.seed, s.journal.map(|f| dir.join(f))));
    }
    let outcomes = server.run_all();
    let prefix = dir.display().to_string();
    let mut journals: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path.file_name().unwrap().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    journals.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    Served {
        trials: outcomes.iter().map(|o| format!("{:?}", o.trials)).collect(),
        errors: outcomes
            .iter()
            .map(|o| o.error.as_ref().map(|e| e.replace(&prefix, "…")))
            .collect(),
        journals,
    }
}

#[test]
fn replay_is_the_same_at_every_width() {
    let scratch = tmp("replay-templates");
    std::fs::create_dir_all(&scratch).unwrap();
    let journals = half_finished_journals(&scratch);
    std::fs::remove_dir_all(&scratch).unwrap();

    let serial = serve_half_finished(1, &journals);
    let errors = &serial.errors;
    let failed: Vec<usize> = (0..errors.len()).filter(|&i| errors[i].is_some()).collect();
    assert_eq!(failed, [1, 3, 6], "{errors:?}");
    assert!(errors[1].as_deref().unwrap().contains("belongs to a different study"));
    assert!(errors[3].as_deref().unwrap().contains("line"), "{:?}", errors[3]);
    assert!(errors[6].as_deref().unwrap().contains("belongs to a different study"));
    for (i, t) in serial.trials.iter().enumerate() {
        let expected = if failed.contains(&i) { 0 } else { BUDGET };
        assert_eq!(t.matches("Trial {").count(), expected, "study {i}");
    }
    assert_eq!(serial.journals.len(), 6);
    for width in [2, 4] {
        let served = serve_half_finished(width, &journals);
        assert_eq!(served.trials, serial.trials, "width {width}: trials");
        assert_eq!(served.errors, serial.errors, "width {width}: errors");
        // Compared without printing: a journal runs to kilobytes.
        let names = |s: &Served| s.journals.iter().map(|j| j.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&served), names(&serial));
        for ((file, bytes), (_, at_width)) in serial.journals.iter().zip(&served.journals) {
            assert!(bytes == at_width, "width {width}: journal {file} differs");
        }
    }
}
