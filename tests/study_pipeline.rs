//! End-to-end integration: the methodology pipeline on the real airdrop
//! case study — spaces → explorer → backends → metrics → Pareto fronts →
//! reports, with journaling and resume.

use bench::harness::{run_table1_study, HarnessOpts};
use bench::paper::{figures, PaperRow, TABLE1};
use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::decision::report;

fn tiny_opts(out: Option<std::path::PathBuf>) -> HarnessOpts {
    HarnessOpts { out_dir: out, ..HarnessOpts::smoke() }
}

#[test]
fn mini_study_produces_complete_trials_and_fronts() {
    // Three PPO rows covering all three frameworks at the smoke budget.
    let opts = HarnessOpts { only: Some(vec![2, 11, 16]), ..tiny_opts(None) };
    let trials = run_table1_study(&opts).expect("study runs");
    assert_eq!(trials.len(), 3);
    for t in &trials {
        assert!(t.is_complete(), "trial {} failed: {:?}", t.id, t.error);
        for m in ["reward", "time_min", "power_kj"] {
            let v = t.metrics.get(m).unwrap_or(f64::NAN);
            assert!(v.is_finite(), "metric {m} missing on trial {}", t.id);
        }
    }

    // All three figures' fronts are computable and non-empty.
    for (x, y) in [figures::fig4_metrics(), figures::fig5_metrics(), figures::fig6_metrics()] {
        let front = ParetoFront::compute(&trials, &[x, y]);
        assert!(!front.is_empty());
    }

    // The Table-I-style report renders every configuration column.
    let table = report::table::render_table(
        &trials,
        &["rk_order", "framework", "algorithm", "nodes", "cores"],
        &MetricDef::paper_metrics()
            .into_iter()
            .map(|m| MetricDef { name: m.name, direction: m.direction, risk: m.risk })
            .collect::<Vec<_>>(),
    );
    assert!(table.contains("Stable Baselines"));
    assert!(table.contains("TF-Agents"));
    assert!(table.contains("Ray RLlib"));
}

#[test]
fn journal_resume_skips_finished_rows() {
    let dir = std::env::temp_dir().join(format!("airdrop-study-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = HarnessOpts { only: Some(vec![16]), ..tiny_opts(Some(dir.clone())) };

    let first = run_table1_study(&opts).expect("first run");
    assert_eq!(first.len(), 1);

    // Second run must replay the WAL and not re-train: it returns the
    // identical trial, and the log shows exactly one started/completed
    // pair (the resumed run only appends its checkpoint markers).
    let second = run_table1_study(&opts).expect("second run");
    assert_eq!(second.len(), 1);
    assert_eq!(first[0].metrics, second[0].metrics);

    let journal_file = std::fs::read_dir(&dir)
        .expect("out dir exists")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("trials_"))
        .expect("journal written");
    let load = Journal::new(journal_file.path()).load().expect("valid WAL");
    assert!(!load.torn_tail);
    let count = |key: &str| load.events.iter().filter(|e| e.key() == key).count();
    assert_eq!(count(wal_keys::TRIAL_STARTED), 1, "resume must not re-run the trial");
    assert_eq!(count(wal_keys::TRIAL_COMPLETED), 1, "resume must not append duplicates");
    assert!(count(wal_keys::CHECKPOINT) >= 2, "each run checkpoints the log");

    // The file name keys on steps, seed and replicas only: a journal
    // recorded under other altitudes or another row list shares it, and
    // the objective fingerprint refuses it instead of serving its rows.
    for other in [
        HarnessOpts { altitude_limits: (20.0, 80.0), ..opts.clone() },
        HarnessOpts { only: Some(vec![14]), ..opts.clone() },
    ] {
        let err = run_table1_study(&other).expect_err("a foreign journal is refused");
        assert!(err.contains("belongs to a different study"), "unexpected error: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure_artifacts_are_emitted() {
    let dir = std::env::temp_dir().join(format!("airdrop-figs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = HarnessOpts { only: Some(vec![14, 16]), ..tiny_opts(Some(dir.clone())) };
    let trials = run_table1_study(&opts).expect("study runs");

    let (x, y) = figures::fig4_metrics();
    let ids = bench::harness::emit_figure("fig4_test", "test figure", &trials, x, y, &opts)
        .expect("emit");
    assert!(!ids.is_empty());
    let svg = std::fs::read_to_string(dir.join("fig4_test.svg")).expect("svg written");
    assert!(svg.contains("<svg") && svg.contains("Pareto front"));
    let csv = std::fs::read_to_string(dir.join("fig4_test.csv")).expect("csv written");
    assert!(csv.lines().count() >= 3, "header + two rows");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_table_is_internally_consistent() {
    // The reconstruction itself (no training): every row decodes, the
    // space contains every configuration, and the three paper-side
    // fronts match the prose.
    let space = PaperRow::space();
    for row in &TABLE1 {
        assert!(space.contains(&row.to_config()));
    }
    let trials: Vec<Trial> = TABLE1.iter().map(|r| r.to_paper_trial()).collect();
    let (x4, y4) = figures::fig4_metrics();
    let f4 = ParetoFront::compute(&trials, &[x4, y4]);
    let mut ids: Vec<usize> = f4.indices().iter().map(|&i| i + 1).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![2, 5, 11, 16]);
}
