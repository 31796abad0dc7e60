//! # bench — reproduction harnesses for the paper's evaluation
//!
//! Binaries (each accepts `--steps N`, `--seed N`, `--paper`, `--smoke`,
//! `--only 2,5,11`, `--out DIR`, `--no-out`, `--eval-episodes N`):
//!
//! * `table1` — run the 18 configurations of Table I end-to-end and print
//!   the measured vs. paper-reported table;
//! * `fig <4|5|6>` — compute and render (SVG + CSV) one of the three
//!   Pareto fronts; it reuses `table1`'s journal when present, so
//!   `table1 && fig 4 && fig 5 && fig 6` trains only once;
//! * `ablations` — the §VI-D single-factor sweeps (RK order, node count,
//!   core count, vectorization);
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

pub use harness::{run_row, run_row_with, run_table1_study, HarnessOpts, PAPER_STEPS};
pub use paper::{PaperRow, TABLE1};
