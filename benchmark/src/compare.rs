//! `ledger compare A.jsonl B.jsonl`: is B worse than A?
//!
//! Each file holds the records that runs appended with `--out`. For every
//! workload and end-to-end metric it prints both medians, their ratio with
//! A as the base, and a verdict under the metric's bound:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — better by more than the bound;
//! * `unchanged` — within the bound;
//! * `unresolved` — the run-to-run spread of either side (quartile
//!   distance over median) exceeds the bound, so the medians cannot
//!   settle it — unless every run of one side beats every run of the
//!   other, which settles it whatever the spread.
//!
//! Counts of the traced pass are compared per seed: a count is only
//! evidence if it repeats exactly. The exit code is non-zero on any
//! `regressed` row and on any failed operation.

use crate::catalogue::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Json};
use crate::sys::{median, quartiles};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartile distance over median; infinite when there are too few runs to
/// have one.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => ((q3 - q1) / median(values)).abs(),
        None => f64::INFINITY,
    }
}

/// The verdict on one metric of one workload.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worsening = better.worsening(median(a), median(b));
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| better.worsening(x, y) < 0.0));
    let every_a_beats_every_b = a.iter().all(|&x| b.iter().all(|&y| better.worsening(x, y) > 0.0));
    if spread(a).max(spread(b)) > bound {
        return if every_b_beats_every_a && worsening < -bound {
            Verdict::Improved
        } else if every_a_beats_every_b && worsening > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The records of one file, split by pass.
#[derive(Default)]
struct Side {
    /// workload → metric → one value per timed run.
    timed: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) → count metric → one value per traced run.
    counts: BTreeMap<(String, u64), BTreeMap<String, Vec<f64>>>,
    budgets: Option<Json>,
    attempted: f64,
    failed: f64,
    incorrect: usize,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let record = json::parse(line).map_err(|e| at(&e))?;
        let stamp = record.get("stamp").ok_or_else(|| at("no stamp"))?;
        if stamp.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(at("a --smoke record: its numbers mean nothing and are not compared"));
        }
        let budgets = stamp.get("budgets").cloned().ok_or_else(|| at("no budgets in the stamp"))?;
        if *side.budgets.get_or_insert_with(|| budgets.clone()) != budgets {
            return Err(at("records with different budgets in one file"));
        }
        let workload =
            record.get("workload").and_then(Json::as_str).ok_or_else(|| at("no workload"))?;
        let seed = stamp.get("seed").and_then(Json::as_f64).ok_or_else(|| at("no seed"))? as u64;
        let metrics =
            record.get("metrics").and_then(Json::as_obj).ok_or_else(|| at("no metrics"))?;
        side.attempted += record.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        side.failed += record.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        side.incorrect += usize::from(record.get("correct").and_then(Json::as_bool) != Some(true));
        let traced = record.get("trace").and_then(Json::as_bool).unwrap_or(false);
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            if !traced {
                side.timed
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            } else if PER_LAYER.iter().any(|m| m.name == name && m.unit == "count") {
                side.counts
                    .entry((workload.to_string(), seed))
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: ledger compare A.jsonl B.jsonl".into());
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    if a.budgets != b.budgets {
        return Err(
            "the two files were run with different budgets: their numbers measure different work"
                .into(),
        );
    }

    let mut ok = true;
    println!(
        "{:<11} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let (Some(ma), Some(mb)) = (a.timed.get(workload), b.timed.get(workload)) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(metric.name), mb.get(metric.name)) else {
                continue;
            };
            let verdict = judge(metric.better, metric.bound, va, vb);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<11} {:<12} {:>14.6} {:>14.6} {:>8.4} {:>7.4} {:>7.2}  {}",
                workload,
                metric.name,
                median(va),
                median(vb),
                median(vb) / median(va),
                spread(va).max(spread(vb)),
                metric.bound,
                verdict.as_str()
            );
        }
    }

    // A count is compared only between runs of one workload and one seed.
    let mut compared = 0usize;
    for (key, counts_a) in &a.counts {
        let Some(counts_b) = b.counts.get(key) else { continue };
        for (name, va) in counts_a {
            let Some(vb) = counts_b.get(name) else { continue };
            compared += 1;
            let first = va[0];
            if va.iter().chain(vb).any(|v| v.to_bits() != first.to_bits()) {
                println!("count {} seed {} {name}: differs ({va:?} vs {vb:?})", key.0, key.1);
            }
        }
    }
    if compared > 0 {
        println!("counts: {compared} (workload, seed, metric) cells compared; any that differ are listed above");
    }

    for (label, side) in [("A", &a), ("B", &b)] {
        let share = side.failed / side.attempted.max(1.0);
        println!(
            "failed_share {label}: {share} ({} of {} operations, {} runs with a failed check)",
            side.failed, side.attempted, side.incorrect
        );
        ok &= side.failed == 0.0 && side.incorrect == 0;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn a_steady_metric_is_judged_by_its_bound() {
        let lower = Better::Lower;
        let shifted = |by: f64| TIGHT_A.map(|v| v * by);
        assert_eq!(judge(lower, 0.08, &TIGHT_A, &shifted(1.02)), Verdict::Unchanged);
        assert_eq!(judge(lower, 0.08, &TIGHT_A, &shifted(1.20)), Verdict::Regressed);
        assert_eq!(judge(lower, 0.08, &TIGHT_A, &shifted(0.80)), Verdict::Improved);
        // For a rate, more is better.
        assert_eq!(judge(Better::Higher, 0.08, &TIGHT_A, &shifted(0.80)), Verdict::Regressed);
        assert_eq!(judge(Better::Higher, 0.08, &TIGHT_A, &shifted(1.20)), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(Better::Lower, 0.08, &noisy, &noisy.map(|v| v * 1.15)),
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(judge(Better::Lower, 0.08, &noisy, &noisy.map(|v| v * 0.5)), Verdict::Improved);
        assert_eq!(judge(Better::Lower, 0.08, &noisy, &noisy.map(|v| v * 2.0)), Verdict::Regressed);
        // One run a side has no spread to speak of.
        assert_eq!(judge(Better::Lower, 0.08, &[10.0], &[10.1]), Verdict::Unresolved);
    }

    fn record(workload: &str, smoke: bool, wall: f64, failed: u64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":false,\"correct\":true,\"attempted\":18,\
             \"failed\":{failed},\"stamp\":{{\"smoke\":{smoke},\"seed\":1,\"budgets\":{{\"x\":1}}}},\
             \"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}"
        )
    }

    fn write(name: &str, lines: &[String]) -> String {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/unit-test-compare");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn files_are_compared_and_smoke_or_failures_are_not_accepted() {
        let steady: Vec<String> =
            [4.0, 4.02, 3.98, 4.01].iter().map(|&w| record("table1", false, w, 0)).collect();
        let slower: Vec<String> =
            [6.0, 6.02, 5.98, 6.01].iter().map(|&w| record("table1", false, w, 0)).collect();
        let a = write("a.jsonl", &steady);
        let same = write("same.jsonl", &steady);
        let slow = write("slow.jsonl", &slower);
        assert_eq!(main(&[a.clone(), same]), Ok(true));
        assert_eq!(
            main(&[a.clone(), slow]),
            Ok(false),
            "half as slow again is a regression under any bound"
        );

        let smoke = write("smoke.jsonl", &[record("table1", true, 4.0, 0)]);
        assert!(main(&[a.clone(), smoke]).is_err(), "smoke numbers are refused");

        let mut failing = steady.clone();
        failing.push(record("table1", false, 4.0, 3));
        let failing = write("failing.jsonl", &failing);
        assert_eq!(main(&[a, failing]), Ok(false), "a failed operation fails the comparison");
    }
}
