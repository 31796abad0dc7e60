//! The four workloads. Each is a black-box driver over the layers'
//! public functions; none of them reaches into a crate.

pub mod deploy_uds;
pub mod study_core;
pub mod table1;
pub mod training;
pub mod whatif;

use crate::budgets::Budgets;
use crate::probes::Probes;
use crate::sys::Scratch;
use std::collections::BTreeMap;

/// What one timed unit of a workload did.
pub struct Unit {
    /// Work done, in the workload's own unit: environment steps on
    /// `table1`, `deploy_uds` and `whatif`, trials on `study_core`. Zero
    /// when only the reference pass can count it.
    pub work: f64,
    /// Operations attempted (trials, what-if rounds) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Bit patterns of every result that must repeat exactly whenever the
    /// same inputs run again.
    pub fingerprint: Vec<u64>,
    /// Checks this unit can make on its own results.
    pub checks: Vec<Check>,
    /// Lines for the human-readable report (reported, never gated).
    pub notes: Vec<String>,
}

/// One correctness check and whether it held.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check { name, ok, detail: detail.into() }
    }
}

/// The untimed pass before the timed loop: correctness checks against a
/// second execution path, which also warms caches and lazy set-up.
#[derive(Default)]
pub struct Reference {
    pub checks: Vec<Check>,
    /// The unit's work, when a timed unit cannot count it itself.
    pub work: Option<f64>,
    /// Fingerprint the timed units must reproduce.
    pub fingerprint: Option<Vec<u64>>,
    /// Wall-clock of the reference execution path, where it is a full unit.
    pub wall_s: Option<f64>,
    /// Per-layer counts only this pass can take.
    pub layer: LayerValues,
}

/// What the traced pass is compared against: the reference pass and one
/// untraced, timed unit of the same invocation.
pub struct Baseline<'a> {
    pub reference: &'a Reference,
    pub unit_wall_s: f64,
    pub unit_fingerprint: &'a [u64],
}

/// Per-layer values of the traced pass, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// One unit of work, from submit to the last rendered report.
    fn unit(&self, scratch: &Scratch) -> Result<Unit, String>;

    /// The untimed reference pass.
    fn reference(&self, scratch: &Scratch) -> Result<Reference, String>;

    /// The unit again with recorders attached and the benchmark's own
    /// spans around each call into a layer. It must reproduce the untraced
    /// unit's fingerprint. Returns the traced values and the snapshot to
    /// export.
    fn traced(
        &self,
        scratch: &Scratch,
        probes: &Probes,
        baseline: &Baseline<'_>,
    ) -> Result<(LayerValues, telemetry::Snapshot), String>;
}

/// Build a workload's inputs from the seed. This is what `setup_s` times.
pub fn setup(name: &str, seed: u64, budgets: Budgets) -> Result<Box<dyn Workload>, String> {
    match name {
        "table1" => Ok(Box::new(table1::Table1::setup(seed, budgets))),
        "deploy_uds" => Ok(Box::new(deploy_uds::DeployUds::setup(seed, budgets))),
        "whatif" => Ok(Box::new(whatif::WhatIf::setup(seed, budgets)?)),
        "study_core" => Ok(Box::new(study_core::StudyCore::setup(seed, budgets))),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The bits of the three study metrics of every trial, in trial order.
pub fn trial_bits(trials: &[decision::Trial]) -> Vec<u64> {
    use decision::metric_keys::{POWER_KJ, REWARD, TIME_MIN};
    trials
        .iter()
        .flat_map(|t| {
            [REWARD, TIME_MIN, POWER_KJ]
                .map(|key| t.metrics.get_key(key).map_or(u64::MAX, f64::to_bits))
        })
        .collect()
}

/// Failed or degraded trials: both count as failed operations.
pub fn failed_trials(trials: &[decision::Trial]) -> u64 {
    trials
        .iter()
        .filter(|t| {
            !t.is_complete()
                || t.metrics.get_key(decision::metric_keys::DEGRADED).unwrap_or(0.0) > 0.0
        })
        .count() as u64
}

/// Name of the trial metric carrying the bytes a training really put on
/// the wire (zero on in-process channels).
pub const WIRE_BYTES: &str = "wire_bytes";

/// Sum of the trials' `env_steps` metric.
pub fn env_steps(trials: &[decision::Trial]) -> f64 {
    trials.iter().filter_map(|t| t.metrics.get_key(decision::metric_keys::ENV_STEPS)).sum()
}
