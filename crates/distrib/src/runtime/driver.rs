//! The driver side of the runtime: weight-sync policies, deterministic
//! wave merging and iteration bookkeeping.
//!
//! A `Driver` wraps the trial's `ClusterSession` and owns the
//! bookkeeping of a training loop: environment step/work counters, the
//! training-return log, and the iteration index. Costs are narrated
//! exclusively through `Driver::apply` — one [`SessionEvent`] per phase
//! — so the cluster trace and the per-iteration reward reports come from
//! one code path. Study-level concerns (pruning, live reward curves) tap
//! the loop through the session's telemetry recorder: every iteration
//! emits a [`keys::TRIAL_ITERATION`] event, and a recorder answering
//! `true` from [`should_stop`](telemetry::Recorder::should_stop) ends the
//! trial at the next iteration boundary.
//!
//! Which `SyncPolicy` keeps which framework's workers fresh is a column
//! of the `Architecture` table in
//! [`crate::framework`].

use super::fault::{FaultLog, RuntimeError};
use super::transport::RngStream;
use super::{RoundOutcome, Runtime};
use crate::keys;
use cluster_sim::{ClusterSession, ClusterSpec, SessionEvent};
use rl_algos::buffer::RolloutBuffer;
use rl_algos::policy::ActorCritic;
use telemetry::{SharedRecorder, Value};

/// How many trailing training returns the per-iteration progress reports
/// average over (the [`keys::TRIAL_ITERATION`] `mean_return` field uses
/// this window).
pub(crate) const REPORT_WINDOW: usize = 20;

/// Mean of the last [`REPORT_WINDOW`] returns; NaN before the first
/// finished episode.
fn report_mean(returns: &[f64]) -> f64 {
    let tail = &returns[returns.len().saturating_sub(REPORT_WINDOW)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// When a driver pushes fresh weights to which workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncPolicy {
    /// Every worker, every round (strict synchrony).
    EveryRound,
    /// Workers on the learner's node (node 0) every round; workers on
    /// remote nodes only when `round` is a multiple of `period`.
    RemotePeriodic {
        /// Rounds between remote-node refreshes.
        period: u64,
    },
}

impl SyncPolicy {
    /// Worker indices to refresh before collection round `round`, given
    /// each worker's node assignment.
    pub(crate) fn recipients(&self, round: u64, worker_nodes: &[usize]) -> Vec<usize> {
        match self {
            SyncPolicy::EveryRound => (0..worker_nodes.len()).collect(),
            SyncPolicy::RemotePeriodic { period } => {
                if round.is_multiple_of(*period) {
                    (0..worker_nodes.len()).collect()
                } else {
                    worker_nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, &node)| node == 0)
                        .map(|(w, _)| w)
                        .collect()
                }
            }
        }
    }
}

/// A collection round merged into learner-ready form, deterministically
/// (worker-index order, regardless of completion order).
pub(crate) struct WaveOutcome {
    /// All segments concatenated in worker-index order.
    pub(crate) merged: RolloutBuffer,
    /// Finished-episode returns in merge order.
    pub(crate) returns: Vec<f64>,
    /// Environment work units per node.
    pub(crate) node_env_work: Vec<u64>,
    /// Collection-inference FLOPs per node.
    pub(crate) node_infer_flops: Vec<u64>,
    /// Experience bytes shipped from remote nodes to the learner.
    pub(crate) shipped_bytes: u64,
    /// Each worker's sampling rng stream, advanced past its segment.
    pub(crate) rngs: Vec<RngStream>,
}

/// Merge a [`RoundOutcome`] into a [`WaveOutcome`].
pub(crate) fn merge_wave(outcome: RoundOutcome, nodes: usize) -> WaveOutcome {
    let total: usize = outcome.segments.iter().map(|s| s.segment.rollout.len()).sum();
    let mut merged = RolloutBuffer::with_capacity(total);
    let mut returns = Vec::new();
    let mut node_env_work = vec![0u64; nodes];
    let mut node_infer_flops = vec![0u64; nodes];
    let mut shipped_bytes = 0u64;
    let mut rngs = Vec::with_capacity(outcome.segments.len());
    for ws in outcome.segments {
        debug_assert!(ws.node < nodes);
        node_env_work[ws.node] += ws.segment.env_work;
        node_infer_flops[ws.node] += ws.segment.infer_flops;
        if ws.node != 0 {
            shipped_bytes += ws.segment.rollout.payload_bytes();
        }
        returns.extend(ws.segment.episodes.iter().map(|e| e.0));
        merged.extend(ws.segment.rollout);
        rngs.push(ws.rng);
    }
    WaveOutcome { merged, returns, node_env_work, node_infer_flops, shipped_bytes, rngs }
}

/// Per-trial driver state: the session and the counters every training
/// loop needs. See the module docs.
pub(crate) struct Driver<'a> {
    session: &'a mut ClusterSession,
    recorder: SharedRecorder,
    iteration: u64,
    env_steps: u64,
    env_work: u64,
    train_returns: Vec<f64>,
    degraded: bool,
}

/// The driver's accumulated counters, surrendered by [`Driver::finish`].
pub(crate) struct DriverStats {
    /// Total environment steps.
    pub(crate) env_steps: u64,
    /// Total environment work units.
    pub(crate) env_work: u64,
    /// All logged training returns.
    pub(crate) train_returns: Vec<f64>,
    /// True when any worker was quarantined mid-trial: the result is
    /// real but came from a reduced worker set.
    pub(crate) degraded: bool,
}

impl<'a> Driver<'a> {
    /// Wrap a session for one trial. The driver inherits the session's
    /// recorder, so trial-level telemetry ([`keys::TRIAL_ITERATION`]
    /// events, step/work counters) lands in the same stream as the
    /// cluster accounting.
    pub(crate) fn new(session: &'a mut ClusterSession) -> Self {
        let recorder = session.recorder();
        Self {
            session,
            recorder,
            iteration: 0,
            env_steps: 0,
            env_work: 0,
            train_returns: Vec::new(),
            degraded: false,
        }
    }

    /// The simulated cluster being narrated to.
    pub(crate) fn cluster(&self) -> &ClusterSpec {
        self.session.spec()
    }

    /// Iterations completed.
    pub(crate) fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Environment steps consumed.
    pub(crate) fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Narrate one event to the cluster session. Returns the simulated
    /// duration of the phase.
    pub(crate) fn apply(&mut self, event: &SessionEvent) -> f64 {
        self.session.apply(event)
    }

    /// Refresh worker snapshots per `policy` and narrate the broadcast:
    /// weights crossing to remote nodes become one [`SessionEvent::Transfer`].
    /// Faults absorbed mid-broadcast land in the accounting via
    /// [`Self::note_faults`].
    pub(crate) fn broadcast(
        &mut self,
        runtime: &mut Runtime<'_>,
        policy: &ActorCritic,
        sync: SyncPolicy,
    ) -> Result<u64, RuntimeError> {
        let recipients = sync.recipients(self.iteration, runtime.worker_nodes());
        let outcome = runtime.broadcast_weights(self.iteration, policy, &recipients)?;
        if outcome.bytes > 0 {
            self.apply(&SessionEvent::Transfer { bytes: outcome.bytes });
        }
        self.note_faults(&outcome.faults);
        Ok(outcome.bytes)
    }

    /// Record real wire traffic (the process transport's frame bytes)
    /// on the session's observational `wire_bytes` counter. This never
    /// touches the simulated clock or energy — Table I's calibrated
    /// `bytes_moved` stays the *modeled* interconnect traffic, identical
    /// across transports.
    pub(crate) fn note_wire(&mut self, bytes: u64) {
        if bytes > 0 {
            self.session.observe_wire(bytes);
        }
    }

    /// Fold a round's [`FaultLog`] into the trial accounting: retry
    /// backoff is charged to simulated time as [`SessionEvent::Overhead`]
    /// (so `Usage::from_snapshot` and `session.finish()` keep agreeing
    /// bitwise), and any quarantine latches the degraded flag.
    pub(crate) fn note_faults(&mut self, faults: &FaultLog) {
        if faults.backoff_s > 0.0 {
            self.apply(&SessionEvent::Overhead { seconds: faults.backoff_s });
        }
        if !faults.quarantined.is_empty() {
            self.degraded = true;
        }
    }

    /// Account a batch of environment steps and their work units.
    pub(crate) fn note_steps(&mut self, steps: u64, work: u64) {
        self.env_steps += steps;
        self.env_work += work;
        if self.recorder.enabled() {
            self.recorder.counter_add(keys::ENV_STEPS, steps);
            self.recorder.counter_add(keys::ENV_WORK, work);
        }
    }

    /// Log one finished-episode return.
    pub(crate) fn note_return(&mut self, ret: f64) {
        self.train_returns.push(ret);
    }

    /// Log a batch of finished-episode returns (merge order).
    pub(crate) fn note_returns<I: IntoIterator<Item = f64>>(&mut self, rets: I) {
        self.train_returns.extend(rets);
    }

    /// Close the current iteration: bump the counter and emit the
    /// [`keys::TRIAL_ITERATION`] event. Returns `true` if the recorder —
    /// via [`should_stop`](telemetry::Recorder::should_stop) — wants the
    /// trial stopped early (e.g. a pruner decided it is hopeless).
    pub(crate) fn end_iteration(&mut self) -> bool {
        self.iteration += 1;
        if self.recorder.enabled() {
            self.recorder.event(
                keys::TRIAL_ITERATION,
                &[
                    (keys::F_ITERATION, Value::U64(self.iteration)),
                    (keys::F_ENV_STEPS, Value::U64(self.env_steps)),
                    (keys::F_WALL_S, Value::F64(self.session.now())),
                    (keys::F_MEAN_RETURN, Value::F64(report_mean(&self.train_returns))),
                ],
            );
        }
        self.recorder.should_stop()
    }

    /// Surrender the accumulated counters.
    pub(crate) fn finish(self) -> DriverStats {
        DriverStats {
            env_steps: self.env_steps,
            env_work: self.env_work,
            train_returns: self.train_returns,
            degraded: self.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ClusterSpec;

    #[test]
    fn report_mean_averages_the_trailing_window() {
        assert!(report_mean(&[]).is_nan(), "no finished episode yet");
        let mut returns = vec![100.0; 5];
        returns.extend([1.0; REPORT_WINDOW]);
        assert_eq!(report_mean(&returns), 1.0, "only the last {REPORT_WINDOW} count");
    }

    #[test]
    fn every_round_refreshes_everyone() {
        let nodes = [0, 0, 1, 1];
        for round in 0..4 {
            assert_eq!(SyncPolicy::EveryRound.recipients(round, &nodes), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn remote_periodic_staggers_remote_nodes() {
        let nodes = [0, 0, 1, 1];
        let policy = SyncPolicy::RemotePeriodic { period: 2 };
        assert_eq!(policy.recipients(0, &nodes), vec![0, 1, 2, 3], "sync round");
        assert_eq!(policy.recipients(1, &nodes), vec![0, 1], "stale round: node 0 only");
        assert_eq!(policy.recipients(2, &nodes), vec![0, 1, 2, 3]);
    }

    /// A recorder that answers `should_stop` after seeing `limit`
    /// [`keys::TRIAL_ITERATION`] events — the recorder-native analogue
    /// of the old per-iteration pruning hook.
    struct StopAfter {
        limit: u64,
        seen: std::sync::atomic::AtomicU64,
    }
    impl telemetry::Recorder for StopAfter {
        fn counter_add(&self, _: telemetry::Key, _: u64) {}
        fn accum_add(&self, _: telemetry::Key, _: f64) {}
        fn gauge_set(&self, _: telemetry::Key, _: f64) {}
        fn span_begin(&self, _: telemetry::Key) -> telemetry::SpanId {
            telemetry::SpanId(0)
        }
        fn span_end(&self, _: telemetry::SpanId) {}
        fn event(&self, key: telemetry::Key, _: &[(telemetry::Key, Value)]) {
            if key == keys::TRIAL_ITERATION {
                self.seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        fn should_stop(&self) -> bool {
            self.seen.load(std::sync::atomic::Ordering::SeqCst) >= self.limit
        }
    }

    #[test]
    fn driver_counts_and_stops_via_the_recorder() {
        let stopper =
            std::sync::Arc::new(StopAfter { limit: 2, seen: std::sync::atomic::AtomicU64::new(0) });
        let mut session =
            ClusterSession::with_recorder(ClusterSpec::paper_testbed(1), stopper.clone());
        let mut driver = Driver::new(&mut session);
        driver.note_steps(128, 128);
        driver.note_return(1.5);
        assert!(!driver.end_iteration(), "recorder stops only at iteration 2");
        driver.note_steps(128, 128);
        assert!(driver.end_iteration());
        let stats = driver.finish();
        assert_eq!(stats.env_steps, 256);
        assert_eq!(stats.env_work, 256);
        assert_eq!(stats.train_returns, vec![1.5]);
    }

    #[test]
    fn note_faults_charges_backoff_and_latches_degraded() {
        use super::super::fault::{FaultCause, Quarantine};
        let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
        let mut driver = Driver::new(&mut session);
        assert!(!driver.degraded);
        let mut faults = FaultLog { retries: 1, backoff_s: 0.5, ..FaultLog::default() };
        driver.note_faults(&faults);
        assert!(!driver.degraded, "retries alone do not degrade the result");
        faults.quarantined.push(Quarantine {
            worker: 1,
            node: 0,
            round: 3,
            cause: FaultCause::Panicked,
        });
        driver.note_faults(&faults);
        assert!(driver.degraded);
        driver.end_iteration();
        let stats = driver.finish();
        assert!(stats.degraded);
        // Both backoff charges landed in simulated time.
        assert!(session.now() >= 1.0);
    }

    #[test]
    fn iteration_events_carry_simulated_time() {
        let ring = std::sync::Arc::new(telemetry::RingRecorder::new());
        let mut session =
            ClusterSession::with_recorder(ClusterSpec::paper_testbed(1), ring.clone());
        let mut driver = Driver::new(&mut session);
        driver.apply(&SessionEvent::Overhead { seconds: 2.5 });
        driver.end_iteration();
        let snap = ring.snapshot();
        let e = snap.events_named(keys::TRIAL_ITERATION.name()).next().expect("iteration event");
        assert!(e.field_f64(keys::F_WALL_S.name()).expect("wall_s field") >= 2.5);
    }
}
