//! Fault tolerance for the execution runtime: the per-trial
//! [`FaultPolicy`], the per-round [`FaultLog`] accounting, the
//! [`RuntimeError`] surfaced when a failure cannot be absorbed, and the
//! deterministic [`FaultPlan`] injection layer the chaos tests drive. It
//! is part of every build: a plan is a value, empty unless a run is given
//! one, and each runtime arms its own copy, so concurrent runtimes never
//! see each other's faults.
//!
//! Recovery ladder, in order:
//!
//! 1. **Retry with backoff** — a failed round-command is re-dispatched
//!    (from the saved pre-dispatch rng, so the retried segment is
//!    bitwise the one a clean worker would have produced) up to
//!    [`FaultPolicy::max_retries`] times. Each attempt charges
//!    deterministic exponential backoff to *simulated* time
//!    (`FaultPolicy::backoff_s`); no real sleeping happens, so retries
//!    are free in wall-clock but visible in the cluster accounting.
//! 2. **Respawn** — when a worker *thread* is dead (it panicked in an
//!    unrecoverable way or its channel is gone), the runtime rebuilds the
//!    actor from the spec's respawn factory, seeds it with the latest
//!    broadcast policy snapshot, and re-dispatches.
//! 3. **Quarantine** — once retries are exhausted (or a worker hangs past
//!    the receive timeout), the worker is quarantined: it receives no
//!    further commands, its lanes are redistributed across survivors by
//!    the backends (`batch / active_workers`), a `worker.quarantined`
//!    telemetry event is emitted and the trial's report carries a
//!    `degraded` flag. The surviving-worker merge stays in worker-index
//!    order and therefore bitwise deterministic.
//!
//! The default policy is [`FaultPolicy::fail_fast`]: no retries, no
//! quarantine — a failure surfaces as an `Err` (never a panic).

use super::transport::codec::fault_tag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// How the runtime reacts to worker failures. See the module docs for
/// the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Re-dispatch attempts per failed round-command before giving up
    /// (0 = first failure is terminal for that worker).
    pub max_retries: u32,
    /// Simulated seconds charged for the first retry; each later retry
    /// charges twice the one before (`BACKOFF_FACTOR`).
    pub backoff_base_s: f64,
    /// When retries are exhausted (or a worker hangs), quarantine the
    /// worker and degrade instead of aborting the study.
    pub quarantine: bool,
    /// How long the driver waits for *any* worker event before declaring
    /// the slowest outstanding worker hung.
    pub recv_timeout_ms: u64,
}

/// Multiplier applied per retry: attempt `k` (0-based) charges
/// `backoff_base_s * BACKOFF_FACTOR^k` simulated seconds.
pub(crate) const BACKOFF_FACTOR: f64 = 2.0;

impl FaultPolicy {
    /// No retries, no quarantine: the first worker failure ends the
    /// trial with an `Err`. Hangs still surface after 30 s.
    pub fn fail_fast() -> Self {
        Self { max_retries: 0, backoff_base_s: 0.0, quarantine: false, recv_timeout_ms: 30_000 }
    }

    /// Absorb faults: 2 retries with 0.5 s/2× exponential simulated
    /// backoff, then quarantine and degrade.
    pub fn resilient() -> Self {
        Self { max_retries: 2, backoff_base_s: 0.5, quarantine: true, recv_timeout_ms: 30_000 }
    }

    /// Simulated seconds charged for retry attempt `attempt` (0-based):
    /// `backoff_base_s * BACKOFF_FACTOR^attempt`.
    pub(crate) fn backoff_s(&self, attempt: u32) -> f64 {
        self.backoff_base_s * BACKOFF_FACTOR.powi(attempt as i32)
    }
}

impl Default for FaultPolicy {
    /// Defaults to [`FaultPolicy::fail_fast`].
    fn default() -> Self {
        Self::fail_fast()
    }
}

/// Why a worker was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultCause {
    /// The worker's collection panicked (thread survived).
    Panicked,
    /// No event arrived before the receive timeout.
    TimedOut,
    /// The worker thread is gone and could not be respawned.
    Dead,
}

impl FaultCause {
    /// Stable text used in telemetry event fields.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            FaultCause::Panicked => "panicked",
            FaultCause::TimedOut => "timed_out",
            FaultCause::Dead => "dead",
        }
    }
}

/// One quarantined worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantine {
    /// Worker index.
    pub worker: usize,
    /// The worker's node.
    pub(crate) node: usize,
    /// Round in which the worker was quarantined.
    pub(crate) round: u64,
    /// Why.
    pub(crate) cause: FaultCause,
}

/// Fault accounting for one runtime operation (a collection round or a
/// broadcast). Backends hand this to
/// `Driver::note_faults`, which narrates
/// the backoff as simulated overhead and latches the degraded flag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Commands re-dispatched after a non-fatal failure.
    pub(crate) retries: u32,
    /// Worker threads rebuilt from their respawn factory.
    pub(crate) respawns: u32,
    /// Workers that blew the receive timeout.
    pub(crate) timeouts: u32,
    /// Simulated seconds of retry backoff accumulated.
    pub(crate) backoff_s: f64,
    /// Workers quarantined during this operation.
    pub quarantined: Vec<Quarantine>,
}

/// A failure the [`FaultPolicy`] could not absorb. The runtime never
/// panics on worker failures; every abort path is one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A worker failed and the policy had no retries (or respawns) left.
    WorkerFailed {
        /// Worker index.
        worker: usize,
        /// Round of the failed command.
        round: u64,
        /// Panic payload rendered to text.
        reason: String,
    },
    /// A worker produced no event before the receive timeout.
    WorkerTimedOut {
        /// Worker index.
        worker: usize,
        /// Round of the outstanding command.
        round: u64,
    },
    /// Every worker is quarantined; nobody is left to collect.
    NoHealthyWorkers {
        /// Round that could not be dispatched.
        round: u64,
    },
    /// The shared event channel closed unexpectedly.
    Disconnected,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkerFailed { worker, round, reason } => {
                write!(f, "runtime worker {worker} failed in round {round}: {reason}")
            }
            RuntimeError::WorkerTimedOut { worker, round } => {
                write!(f, "runtime worker {worker} timed out in round {round}")
            }
            RuntimeError::NoHealthyWorkers { round } => {
                write!(f, "no healthy workers left to collect round {round}")
            }
            RuntimeError::Disconnected => write!(f, "runtime event channel disconnected"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<RuntimeError> for String {
    fn from(e: RuntimeError) -> Self {
        e.to_string()
    }
}

/// What an injected fault does to the worker when its `(worker, round)`
/// address comes up. Only a [`FaultPlan`] schedules one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the collection (caught; the thread survives and
    /// can be retried).
    Panic,
    /// Kill the worker thread outright (only a respawn recovers it).
    Crash,
    /// Sleep without answering, so the driver's receive timeout
    /// fires. The thread wakes afterwards and its late events must
    /// be dropped as stale.
    Hang {
        /// Real milliseconds to sleep.
        millis: u64,
    },
    /// Delay the answer without failing (scheduling adversary; the
    /// merge must stay bitwise identical).
    Slow {
        /// Real milliseconds to sleep before collecting.
        millis: u64,
    },
}

/// One schedule-addressable fault. Fires exactly once: N entries at
/// the same address model N consecutive failures (retry exhaustion).
#[derive(Debug)]
struct InjectedFault {
    /// Target worker index.
    worker: usize,
    /// Target round.
    round: u64,
    /// What happens.
    kind: FaultKind,
    armed: AtomicBool,
}

/// A seeded fault schedule, handed by value to the one runtime that
/// should suffer it: the `fault_plan` field of an `ExecSpec`, or
/// `Runtime::spawn_faulted` directly. The spawn arms
/// its own clone and shares that one copy among its workers, so no
/// other runtime in the process can consume an entry.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan schedules no fault at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add one fault at `(worker, round)`.
    pub fn fault(mut self, worker: usize, round: u64, kind: FaultKind) -> Self {
        self.faults.push(InjectedFault { worker, round, kind, armed: AtomicBool::new(true) });
        self
    }

    /// Add `times` faults at one address: `times` consecutive
    /// failures there, which is how a retry budget gets exhausted.
    pub fn repeated(self, worker: usize, round: u64, kind: FaultKind, times: u32) -> Self {
        (0..times).fold(self, |plan, _| plan.fault(worker, round, kind))
    }

    /// A seeded random schedule: `n_faults` faults over `workers`
    /// workers and `rounds` rounds, drawn from the retryable kinds
    /// (panic / crash / slow). Hangs need timeout coordination and
    /// are injected explicitly by the tests that cover them.
    pub fn random(seed: u64, workers: usize, rounds: u64, n_faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for _ in 0..n_faults {
            let worker = rng.gen_range(0..workers);
            let round = rng.gen_range(0..rounds);
            let kind = match rng.gen_range(0..3u8) {
                0 => FaultKind::Panic,
                1 => FaultKind::Crash,
                _ => FaultKind::Slow { millis: rng.gen_range(1..12) },
            };
            plan = plan.fault(worker, round, kind);
        }
        plan
    }

    /// Consume (disarm) the first still-armed fault addressed to
    /// `(worker, round)`, if any.
    pub(crate) fn take(&self, worker: usize, round: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .filter(|f| f.worker == worker && f.round == round)
            .find(|f| f.armed.swap(false, Ordering::SeqCst))
            .map(|f| f.kind)
    }

    /// The still-armed entries addressed to `worker` as the
    /// `(worker, round, kind tag, millis)` tuples a `Hello` carries,
    /// so a respawned child doesn't re-arm faults that already fired.
    pub(crate) fn to_wire(&self, worker: usize) -> Vec<(usize, u64, u8, u64)> {
        self.faults
            .iter()
            .filter(|f| f.worker == worker && f.armed.load(Ordering::SeqCst))
            .map(|f| {
                let (tag, millis) = match f.kind {
                    FaultKind::Panic => (fault_tag::PANIC, 0),
                    FaultKind::Crash => (fault_tag::CRASH, 0),
                    FaultKind::Hang { millis } => (fault_tag::HANG, millis),
                    FaultKind::Slow { millis } => (fault_tag::SLOW, millis),
                };
                (f.worker, f.round, tag, millis)
            })
            .collect()
    }

    /// The child's side of [`Self::to_wire`]; unknown tags are skipped.
    pub(crate) fn from_wire(faults: &[(usize, u64, u8, u64)]) -> Self {
        let mut plan = Self::new();
        for &(worker, round, tag, millis) in faults {
            let kind = match tag {
                fault_tag::PANIC => FaultKind::Panic,
                fault_tag::CRASH => FaultKind::Crash,
                fault_tag::HANG => FaultKind::Hang { millis },
                fault_tag::SLOW => FaultKind::Slow { millis },
                _ => continue,
            };
            plan = plan.fault(worker, round, kind);
        }
        plan
    }
}

impl Clone for FaultPlan {
    /// A clone is the same schedule with every fault armed again,
    /// whatever has fired on `self` — which is what lets one spec be
    /// run twice. To *share* arming (a runtime and its workers), clone
    /// an `Arc<FaultPlan>` instead.
    fn clone(&self) -> Self {
        let mut plan = Self::new();
        for f in &self.faults {
            plan = plan.fault(f.worker, f.round, f.kind);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = FaultPolicy { backoff_base_s: 0.5, ..FaultPolicy::resilient() };
        assert_eq!(p.backoff_s(0).to_bits(), 0.5f64.to_bits());
        assert_eq!(p.backoff_s(1).to_bits(), 1.0f64.to_bits());
        assert_eq!(p.backoff_s(2).to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn default_policy_fails_fast() {
        let p = FaultPolicy::default();
        assert_eq!(p.max_retries, 0);
        assert!(!p.quarantine);
        assert_eq!(p.recv_timeout_ms, 30_000, "hangs still surface by default");
    }

    #[test]
    fn injected_faults_fire_exactly_once_per_entry() {
        let plan = FaultPlan::new()
            .fault(1, 3, FaultKind::Panic)
            .fault(1, 3, FaultKind::Crash)
            .fault(0, 0, FaultKind::Slow { millis: 5 });
        assert_eq!(plan.take(1, 3), Some(FaultKind::Panic));
        assert_eq!(plan.take(1, 3), Some(FaultKind::Crash), "second entry, second failure");
        assert_eq!(plan.take(1, 3), None, "both consumed");
        assert_eq!(plan.take(2, 2), None, "unaddressed");
        // A clone re-arms the schedule.
        let fresh = plan.clone();
        assert_eq!(fresh.take(1, 3), Some(FaultKind::Panic));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 4, 8, 3);
        let b = FaultPlan::random(42, 4, 8, 3);
        // Every fault the plan fires, in address order.
        let sig = |p: &FaultPlan| -> Vec<(usize, u64, FaultKind)> {
            let mut fired = Vec::new();
            for worker in 0..4 {
                for round in 0..8 {
                    while let Some(kind) = p.take(worker, round) {
                        fired.push((worker, round, kind));
                    }
                }
            }
            fired
        };
        let fired = sig(&a);
        assert_eq!(fired, sig(&b));
        assert_eq!(fired.len(), 3);
    }

    #[test]
    fn runtime_error_renders_context() {
        let e = RuntimeError::WorkerFailed { worker: 2, round: 5, reason: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("worker 2") && s.contains("round 5") && s.contains("boom"));
        assert!(RuntimeError::WorkerTimedOut { worker: 1, round: 0 }
            .to_string()
            .contains("timed out"));
    }
}
