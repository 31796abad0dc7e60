//! # bench — reproduction harnesses for the paper's evaluation
//!
//! Binaries:
//!
//! * `experiments` (only flag `--paper`) — the Table I and §VI-D ablation
//!   studies as journalled, resumable studies under `journals/scaled/`,
//!   and every results block of EXPERIMENTS.md (Table I, the §VI shape
//!   checks, the Fig. 4–6 fronts with their SVG/CSV, the ablations, the
//!   §VII explorer table) rewritten from those journals; over complete
//!   journals it only reads;
//! * `gantt` (`--steps N`, `--seed N`, `--out DIR`) — Gantt charts drawn
//!   from each run's recorded session events;
//! * `telemetry_smoke` — CI gate: one short recorded trial whose
//!   JSON-lines trace is validated against
//!   `schemas/telemetry_trace.schema.json` and rolled back up to the
//!   reported usage bit for bit;
//! * `fingerprints` (no flags) — the determinism contract as one command:
//!   the kernel tier in effect, then one `path hash` line per small run of
//!   each contract path (learner updates, training on every backend,
//!   what-if, a journalled study with its rankings and reports). CI diffs
//!   it across `RLDT_SIMD` tiers and against the merge base.
//!
//! What each substrate costs is a row of the decision-latency ledger
//! (`bash benchmark/run.sh --workload W --seed 1 --trace 1`), not a bench
//! in this crate.

pub mod calibration;
pub mod harness;
pub mod paper;

pub use harness::{run_row, run_table1_study, HarnessOpts, PAPER_STEPS};
pub use paper::{PaperRow, TABLE1};
