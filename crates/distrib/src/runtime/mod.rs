//! The actor-style execution runtime shared by every backend.
//!
//! A [`Runtime`] owns a set of long-lived worker actors and the typed
//! [`Command`]/[`Event`] protocol connecting them to the driver. The
//! wire behind that protocol is pluggable (see [`transport`]): the
//! default in-process transport runs workers as threads over mpsc
//! channels, the process transport runs them as spawned `rldt-worker`
//! child processes over Unix domain sockets (`ExecSpec::transport` =
//! `uds`). Workers are spawned **once per trial** and keep their
//! environment, observation and policy-snapshot state across iterations;
//! the per-iteration `std::thread::scope` + channel churn of the old
//! backends is gone.
//!
//! Determinism: collection results are drained into worker-index order
//! regardless of completion order, and every worker samples from an
//! explicitly passed rng stream (see [`crate::backends::common::worker_seed`]).
//! Reports are therefore bitwise independent of thread scheduling *and*
//! of the transport in use.
//!
//! Concurrency: a dispatch window bounds the collection commands in
//! flight at once, capped by `std::thread::available_parallelism` — a
//! 2×4 deployment on a 4-core host no longer oversubscribes the machine
//! with 8 simultaneously-collecting threads.
//!
//! Fault tolerance: worker failures never panic the driver. A
//! [`FaultPolicy`] decides between bounded retry (with deterministic
//! exponential backoff charged to *simulated* time), respawn (thread or
//! child process, via `WorkerSpec::with_respawn` / the worker's
//! blueprint) and quarantine-with-degradation; hung workers surface
//! through the policy's receive timeout. See [`fault`] for the recovery
//! ladder and the injection layer: every runtime carries a [`FaultPlan`],
//! empty unless it was spawned with one.

pub mod driver;
pub mod event;
pub mod fault;
pub mod transport;
pub mod whatif;
pub mod worker;

pub(crate) use driver::{merge_wave, Driver, SyncPolicy};
pub use event::{Command, Event, WILDCARD_ROUND};
pub use fault::{FaultKind, FaultPlan, FaultPolicy, RuntimeError};
#[cfg(unix)]
pub use transport::process::run_worker_process;
pub use transport::{CollectorBlueprint, EnvBlueprint, RngStream, TransportConfig, TransportKind};
pub use whatif::{run_whatif, run_whatif_batched, ContinuationPolicy, WhatIfPayload, WhatIfTask};
pub use worker::Collector;

use crate::backends::common::Segment;
use crate::keys;
use fault::{FaultCause, FaultLog, Quarantine};
use rl_algos::policy::ActorCritic;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{SharedRecorder, Value};
use transport::channel::ChannelTransport;
use transport::{Transport, TransportStats};

/// Rebuilds a worker's [`Collector`] after its thread died.
pub(crate) type RespawnFn<'f> = Box<dyn Fn() -> Collector + 'f>;

/// Blueprint for one worker actor.
pub struct WorkerSpec<'f> {
    node: usize,
    collector: Collector,
    respawn: Option<RespawnFn<'f>>,
    blueprint: Option<CollectorBlueprint>,
}

impl<'f> WorkerSpec<'f> {
    /// A worker pinned to `node`, owning `collector`.
    pub fn new(node: usize, collector: Collector) -> Self {
        Self { node, collector, respawn: None, blueprint: None }
    }

    /// Attach a factory that rebuilds the collector if the worker thread
    /// dies; without one, a dead thread can only be quarantined.
    pub(crate) fn with_respawn(mut self, factory: impl Fn() -> Collector + 'f) -> Self {
        self.respawn = Some(Box::new(factory));
        self
    }

    /// Attach the serializable recipe for this worker's collector. Only
    /// workers with blueprints can run on the process transport —
    /// closure-built collectors cannot cross a process boundary, so a
    /// spec without one forces the in-process fallback.
    pub fn with_blueprint(mut self, blueprint: CollectorBlueprint) -> Self {
        self.blueprint = Some(blueprint);
        self
    }
}

/// One worker's contribution to a collection round.
pub struct WorkerSegment {
    /// Worker index.
    pub worker: usize,
    /// The worker's node.
    pub node: usize,
    /// The collected segment.
    pub segment: Segment,
    /// The sampling rng stream, advanced past the segment.
    pub rng: RngStream,
}

/// All segments of one collection round.
pub struct RoundOutcome {
    /// Segments sorted by worker index (the deterministic merge order).
    /// Quarantined workers contribute nothing, so under degradation this
    /// holds fewer than `n_workers` entries — still index-ordered.
    pub segments: Vec<WorkerSegment>,
    /// What the fault policy absorbed during this round. Hand to
    /// `Driver::note_faults` so backoff lands in the accounting.
    pub faults: FaultLog,
}

impl std::fmt::Debug for RoundOutcome {
    /// Segments hold rollout buffers; show shape, not contents.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundOutcome")
            .field("segments", &self.segments.len())
            .field("faults", &self.faults)
            .finish()
    }
}

/// Result of a weight broadcast.
pub struct BroadcastOutcome {
    /// Bytes that crossed the interconnect (one policy payload per
    /// healthy recipient on a node other than 0).
    pub(crate) bytes: u64,
    /// What the fault policy absorbed during the broadcast.
    pub(crate) faults: FaultLog,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    Quarantined(FaultCause),
}

/// An outstanding collection command: everything needed to retry it
/// deterministically (the pre-dispatch rng stream) and to notice it
/// hanging.
struct InFlight {
    rng: RngStream,
    attempts: u32,
    deadline: Instant,
}

/// The worker actor pool behind a pluggable transport. See the module
/// docs.
pub struct Runtime<'f> {
    transport: Box<dyn Transport>,
    respawners: Vec<Option<RespawnFn<'f>>>,
    health: Vec<Health>,
    nodes: Vec<usize>,
    window: usize,
    recorder: SharedRecorder,
    policy: FaultPolicy,
    /// Latest broadcast weights; respawned workers boot from this.
    snapshot: Box<ActorCritic>,
    /// Most collection commands ever in flight at once.
    #[cfg(test)]
    peak_outstanding: usize,
}

impl<'f> Runtime<'f> {
    /// Spawn one long-lived worker per [`WorkerSpec`], each booting from
    /// a clone of `initial_policy`, on the in-process transport.
    pub fn spawn(specs: Vec<WorkerSpec<'f>>, initial_policy: &ActorCritic) -> Self {
        Self::spawn_with(specs, initial_policy, TransportConfig::InProcess)
    }

    /// [`Runtime::spawn`] with an explicit transport choice. A process
    /// transport request falls back to in-process — with a warning, never
    /// an error — when a spec has no blueprint, the `rldt-worker` binary
    /// cannot be found, or the children fail to connect.
    pub fn spawn_with(
        specs: Vec<WorkerSpec<'f>>,
        initial_policy: &ActorCritic,
        config: TransportConfig,
    ) -> Self {
        Self::spawn_faulted(specs, initial_policy, config, FaultPlan::new())
    }

    /// [`Runtime::spawn_with`] for a runtime that suffers `plan`: the
    /// plan moves in, this runtime's workers (respawned ones included)
    /// share it, and no other runtime can see it.
    pub fn spawn_faulted(
        mut specs: Vec<WorkerSpec<'f>>,
        initial_policy: &ActorCritic,
        config: TransportConfig,
        plan: FaultPlan,
    ) -> Self {
        let plan = Arc::new(plan);
        assert!(!specs.is_empty(), "runtime needs at least one worker");
        let nodes: Vec<usize> = specs.iter().map(|s| s.node).collect();
        let respawners: Vec<Option<RespawnFn<'f>>> =
            specs.iter_mut().map(|s| s.respawn.take()).collect();

        let selected: Option<Box<dyn Transport>> = match config {
            TransportConfig::InProcess => None,
            TransportConfig::Uds => Self::connect_uds(&specs, &nodes, initial_policy, &plan)
                .map_err(|why| {
                    eprintln!("process transport unavailable ({why}); falling back to in-process")
                })
                .ok(),
        };
        let transport = selected.unwrap_or_else(|| {
            Box::new(ChannelTransport::spawn(
                specs.into_iter().map(|s| (s.node, s.collector)).collect(),
                initial_policy,
                plan,
            ))
        });

        let window = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let health = vec![Health::Healthy; nodes.len()];
        Self {
            transport,
            respawners,
            health,
            nodes,
            window,
            recorder: telemetry::null_recorder(),
            policy: FaultPolicy::default(),
            snapshot: Box::new(initial_policy.clone()),
            #[cfg(test)]
            peak_outstanding: 0,
        }
    }

    /// The process transport for `specs`, or why it cannot host them.
    fn connect_uds(
        specs: &[WorkerSpec<'f>],
        nodes: &[usize],
        initial_policy: &ActorCritic,
        plan: &Arc<FaultPlan>,
    ) -> Result<Box<dyn Transport>, String> {
        let blueprints: Vec<CollectorBlueprint> = specs
            .iter()
            .map(|s| s.blueprint.clone())
            .collect::<Option<_>>()
            .ok_or("a worker has no blueprint")?;
        let bin = transport::resolve_worker_bin().ok_or("rldt-worker binary not found")?;
        #[cfg(unix)]
        return transport::process::ProcessTransport::connect(
            bin,
            blueprints,
            nodes.to_vec(),
            initial_policy,
            plan.clone(),
            transport::process::HANDSHAKE_TIMEOUT,
        )
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .map_err(|e| e.to_string());
        #[cfg(not(unix))]
        {
            let _ = (blueprints, bin, nodes, initial_policy, plan);
            Err("no Unix domain sockets on this target".into())
        }
    }

    /// Route dispatch counters, the occupancy gauge and the transport's
    /// wire counters (see [`crate::keys`]) to `recorder`. Defaults to
    /// the null recorder.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.transport.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Which wire this runtime is using.
    pub fn transport_kind(&self) -> TransportConfig {
        self.transport.kind()
    }

    /// Wire traffic totals so far (all zero in-process).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Number of worker actors (healthy or not).
    pub fn n_workers(&self) -> usize {
        self.nodes.len()
    }

    /// Node assignment of every worker, by worker index.
    pub(crate) fn worker_nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Override the dispatch window (clamped to ≥ 1).
    #[cfg(test)]
    pub(crate) fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Replace the fault policy (builder form).
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Is `worker` still receiving commands?
    pub(crate) fn is_healthy(&self, worker: usize) -> bool {
        self.health[worker] == Health::Healthy
    }

    /// Workers still receiving commands. Backends divide the round batch
    /// by this, which is what redistributes a quarantined worker's lanes
    /// across the survivors.
    pub fn active_workers(&self) -> usize {
        self.health.iter().filter(|h| **h == Health::Healthy).count()
    }

    /// True once any worker has been quarantined (the trial result is
    /// degraded).
    pub fn is_degraded(&self) -> bool {
        self.active_workers() < self.nodes.len()
    }

    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_millis(self.policy.recv_timeout_ms)
    }

    /// Rebuild a reaped worker, booting it from the latest broadcast
    /// snapshot, and count the respawn. The in-process transport needs
    /// the spec's respawn factory; the process transport rebuilds from
    /// its blueprint. False when the worker cannot be rebuilt.
    fn revive(&mut self, worker: usize, faults: &mut FaultLog) -> bool {
        if !self.transport.respawn(worker, self.respawners[worker].as_deref(), &self.snapshot) {
            return false;
        }
        faults.respawns += 1;
        if self.recorder.enabled() {
            self.recorder.counter_add(keys::RT_RESPAWNS, 1);
        }
        true
    }

    /// Reap a worker that announced (or demonstrated) its death.
    fn reap(&mut self, worker: usize) {
        self.transport.reap(worker);
    }

    fn quarantine(&mut self, worker: usize, round: u64, cause: FaultCause, faults: &mut FaultLog) {
        self.health[worker] = Health::Quarantined(cause);
        let node = self.nodes[worker];
        faults.quarantined.push(Quarantine { worker, node, round, cause });
        if self.recorder.enabled() {
            self.recorder.counter_add(keys::RT_QUARANTINES, 1);
            self.recorder.event(
                keys::WORKER_QUARANTINED,
                &[
                    (keys::F_WORKER, Value::U64(worker as u64)),
                    (keys::F_NODE, Value::U64(node as u64)),
                    (keys::F_ROUND, Value::U64(round)),
                    (keys::F_CAUSE, Value::Str(cause.as_str())),
                ],
            );
        }
    }

    /// Terminal failure handling: quarantine under a degrading policy,
    /// error otherwise.
    fn quarantine_or_err(
        &mut self,
        worker: usize,
        round: u64,
        cause: FaultCause,
        reason: &str,
        faults: &mut FaultLog,
    ) -> Result<(), RuntimeError> {
        if self.policy.quarantine {
            self.quarantine(worker, round, cause, faults);
            return Ok(());
        }
        Err(match cause {
            FaultCause::TimedOut => RuntimeError::WorkerTimedOut { worker, round },
            _ => RuntimeError::WorkerFailed { worker, round, reason: reason.to_string() },
        })
    }

    /// `worker` blew the receive timeout in `round`: count it, then
    /// quarantine or error. Hung workers are never retried — the old
    /// thread may still wake and double-drive its collector.
    fn time_out(
        &mut self,
        worker: usize,
        round: u64,
        faults: &mut FaultLog,
    ) -> Result<(), RuntimeError> {
        faults.timeouts += 1;
        if self.recorder.enabled() {
            self.recorder.counter_add(keys::RT_TIMEOUTS, 1);
        }
        self.quarantine_or_err(worker, round, FaultCause::TimedOut, "hung", faults)
    }

    /// React to a failed round-command: retry (respawning first if the
    /// worker died) while budget remains, else quarantine or error.
    /// Returns the refreshed in-flight entry when a retry was dispatched.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        worker: usize,
        round: u64,
        steps: usize,
        mut entry: InFlight,
        fatal: bool,
        reason: &str,
        faults: &mut FaultLog,
    ) -> Result<Option<InFlight>, RuntimeError> {
        if fatal {
            self.reap(worker);
        }
        let cause = if fatal { FaultCause::Dead } else { FaultCause::Panicked };
        if entry.attempts >= self.policy.max_retries {
            self.quarantine_or_err(worker, round, cause, reason, faults)?;
            return Ok(None);
        }
        // Deterministic exponential backoff, charged to simulated time by
        // Driver::note_faults — no real sleeping.
        let backoff = self.policy.backoff_s(entry.attempts);
        entry.attempts += 1;
        faults.backoff_s += backoff;
        if fatal && !self.revive(worker, faults) {
            self.quarantine_or_err(worker, round, FaultCause::Dead, reason, faults)?;
            return Ok(None);
        }
        let cmd = Command::Collect { round, steps, rng: entry.rng.clone() };
        if self.transport.send(worker, cmd).is_err() {
            self.reap(worker);
            self.quarantine_or_err(worker, round, FaultCause::Dead, reason, faults)?;
            return Ok(None);
        }
        faults.retries += 1;
        if self.recorder.enabled() {
            self.recorder.counter_add(keys::RT_RETRIES, 1);
            self.recorder.counter_add(keys::RT_COMMANDS, 1);
            self.recorder.accum_add(keys::RT_BACKOFF_S, backoff);
        }
        entry.deadline = self.deadline();
        Ok(Some(entry))
    }

    /// First dispatch of a round-command to `worker`. `Ok(None)` means
    /// the worker was quarantined instead (dead, no way to respawn).
    fn dispatch(
        &mut self,
        worker: usize,
        round: u64,
        steps: usize,
        rng: RngStream,
        faults: &mut FaultLog,
    ) -> Result<Option<InFlight>, RuntimeError> {
        let cmd = Command::Collect { round, steps, rng: rng.clone() };
        if self.transport.send(worker, cmd).is_ok() {
            return Ok(Some(InFlight { rng, attempts: 0, deadline: self.deadline() }));
        }
        // The worker died outside a round (defensive): respawn or give up.
        self.reap(worker);
        if self.revive(worker, faults) {
            let retry = Command::Collect { round, steps, rng: rng.clone() };
            if self.transport.send(worker, retry).is_ok() {
                return Ok(Some(InFlight { rng, attempts: 0, deadline: self.deadline() }));
            }
        }
        self.quarantine_or_err(worker, round, FaultCause::Dead, "worker is dead", faults)?;
        Ok(None)
    }

    /// Run one collection round: dispatch a [`Command::Collect`] to every
    /// healthy worker (at most the dispatch window outstanding at a time),
    /// drain the [`Event::SegmentReady`]s, and return the segments in
    /// worker-index order. `rngs` supplies one sampling stream per worker
    /// (quarantined workers' streams are skipped, keeping indexing
    /// stable).
    ///
    /// Failures go through the [`FaultPolicy`] ladder; an absorbed fault
    /// shows up in [`RoundOutcome::faults`], an unabsorbed one as an
    /// `Err`. This never panics.
    pub fn collect_round(
        &mut self,
        round: u64,
        steps: usize,
        rngs: Vec<RngStream>,
    ) -> Result<RoundOutcome, RuntimeError> {
        let n = self.nodes.len();
        assert_eq!(rngs.len(), n, "one rng stream per worker");
        let mut faults = FaultLog::default();
        let mut queue: VecDeque<(usize, RngStream)> =
            rngs.into_iter().enumerate().filter(|(w, _)| self.is_healthy(*w)).collect();
        if queue.is_empty() {
            return Err(RuntimeError::NoHealthyWorkers { round });
        }
        let mut segments: Vec<Option<WorkerSegment>> = (0..n).map(|_| None).collect();
        let mut in_flight: Vec<Option<InFlight>> = (0..n).map(|_| None).collect();
        let mut outstanding = 0usize;
        let mut remaining = queue.len();
        let recording = self.recorder.enabled();
        while remaining > 0 {
            // Fill the dispatch window.
            let mut dispatched = 0u64;
            while outstanding < self.window {
                let Some((w, rng)) = queue.pop_front() else { break };
                match self.dispatch(w, round, steps, rng, &mut faults)? {
                    Some(entry) => {
                        in_flight[w] = Some(entry);
                        outstanding += 1;
                        dispatched += 1;
                    }
                    None => remaining -= 1, // quarantined at dispatch
                }
            }
            #[cfg(test)]
            {
                self.peak_outstanding = self.peak_outstanding.max(outstanding);
            }
            if recording {
                if dispatched > 0 {
                    self.recorder.counter_add(keys::RT_COMMANDS, dispatched);
                }
                self.recorder
                    .gauge_set(keys::RT_OCCUPANCY, outstanding as f64 / self.window as f64);
            }
            if remaining == 0 {
                break;
            }
            // A command is in flight whenever results remain; the fallback
            // only keeps the wait bounded if that ever stops holding.
            let next_deadline = in_flight.iter().flatten().map(|f| f.deadline).min();
            let next_deadline = next_deadline.unwrap_or_else(|| self.deadline());
            let Some(ev) = self.transport.recv_deadline(next_deadline)? else {
                // Deadline expired: every overdue worker is hung.
                let now = Instant::now();
                let overdue: Vec<usize> = in_flight
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.as_ref().is_some_and(|f| f.deadline <= now))
                    .map(|(w, _)| w)
                    .collect();
                for w in overdue {
                    in_flight[w] = None;
                    outstanding -= 1;
                    remaining -= 1;
                    self.time_out(w, round, &mut faults)?;
                }
                continue;
            };
            match ev {
                Event::SegmentReady { worker, node, round: r, segment, rng } => {
                    if r != round || !self.is_healthy(worker) || in_flight[worker].is_none() {
                        continue; // stale: late answer from a hung/retired command
                    }
                    in_flight[worker] = None;
                    outstanding -= 1;
                    remaining -= 1;
                    segments[worker] = Some(WorkerSegment { worker, node, segment: *segment, rng });
                    if recording {
                        self.recorder.counter_add(keys::RT_EVENTS, 1);
                    }
                }
                Event::Heartbeat { .. } => {} // stray ack; ignore
                Event::WorkerFailed { worker, round: r, reason, fatal } => {
                    // A transport that couldn't attribute the death (a
                    // child process found dead at EOF) names no round;
                    // charge it to the round being driven.
                    let r = if r == WILDCARD_ROUND { round } else { r };
                    if r != round || !self.is_healthy(worker) || in_flight[worker].is_none() {
                        if fatal {
                            self.reap(worker); // stale death announcement
                        }
                        continue;
                    }
                    let entry = in_flight[worker].take().expect("checked in flight");
                    outstanding -= 1;
                    match self.recover(worker, round, steps, entry, fatal, &reason, &mut faults)? {
                        Some(entry) => {
                            in_flight[worker] = Some(entry);
                            outstanding += 1;
                        }
                        None => remaining -= 1, // quarantined
                    }
                }
            }
        }
        let segments: Vec<WorkerSegment> = segments.into_iter().flatten().collect();
        if segments.is_empty() {
            return Err(RuntimeError::NoHealthyWorkers { round });
        }
        Ok(RoundOutcome { segments, faults })
    }

    /// Send fresh weights to `recipients` (worker indices) and wait for
    /// their [`Event::Heartbeat`] acks. `BroadcastOutcome::bytes`
    /// counts the interconnect traffic: one policy payload per healthy
    /// recipient on a node other than 0 (the learner's node).
    ///
    /// Quarantined recipients are skipped; a recipient that fails or
    /// hangs mid-broadcast goes through the [`FaultPolicy`] (broadcasts
    /// are not retried — the next sync round refreshes the worker).
    pub fn broadcast_weights(
        &mut self,
        round: u64,
        policy: &ActorCritic,
        recipients: &[usize],
    ) -> Result<BroadcastOutcome, RuntimeError> {
        *self.snapshot = policy.clone();
        let mut faults = FaultLog::default();
        let mut bytes = 0u64;
        let mut awaiting: Vec<usize> = Vec::with_capacity(recipients.len());
        for &w in recipients {
            if !self.is_healthy(w) {
                continue;
            }
            let cmd = Command::UpdateWeights { round, policy: Box::new(policy.clone()) };
            if self.transport.send(w, cmd).is_err() {
                // Dead worker: a respawned one boots straight from the
                // fresh snapshot, so no ack is owed.
                self.reap(w);
                if self.revive(w, &mut faults) {
                    if self.nodes[w] != 0 {
                        bytes += policy.param_bytes();
                    }
                } else {
                    self.quarantine_or_err(w, round, FaultCause::Dead, "dead", &mut faults)?;
                }
                continue;
            }
            awaiting.push(w);
            if self.nodes[w] != 0 {
                bytes += policy.param_bytes();
            }
        }
        if self.recorder.enabled() && !awaiting.is_empty() {
            self.recorder.counter_add(keys::RT_COMMANDS, awaiting.len() as u64);
            self.recorder.counter_add(keys::RT_EVENTS, awaiting.len() as u64);
            self.recorder.counter_add(keys::RT_BROADCASTS, 1);
            self.recorder.counter_add(keys::RT_BROADCAST_BYTES, bytes);
        }
        let deadline = self.deadline();
        while !awaiting.is_empty() {
            let Some(ev) = self.transport.recv_deadline(deadline)? else {
                // Every remaining ack is overdue.
                for w in std::mem::take(&mut awaiting) {
                    self.time_out(w, round, &mut faults)?;
                }
                continue;
            };
            match ev {
                Event::Heartbeat { worker, round: r } => {
                    if r == round {
                        awaiting.retain(|&w| w != worker);
                    }
                }
                Event::SegmentReady { .. } => {
                    // Stale: a hung worker's late answer to an old order.
                }
                Event::WorkerFailed { worker, round: r, reason, fatal } => {
                    let r = if r == WILDCARD_ROUND { round } else { r };
                    if fatal {
                        self.reap(worker);
                    }
                    if r != round || !awaiting.contains(&worker) {
                        continue; // stale failure
                    }
                    awaiting.retain(|&w| w != worker);
                    let cause = if fatal { FaultCause::Dead } else { FaultCause::Panicked };
                    self.quarantine_or_err(worker, round, cause, &reason, &mut faults)?;
                }
            }
        }
        Ok(BroadcastOutcome { bytes, faults })
    }

    fn shutdown_inner(&mut self) {
        let health = std::mem::take(&mut self.health);
        if health.is_empty() {
            return; // already shut down (explicit shutdown, then drop)
        }
        let skip: Vec<bool> = (0..self.nodes.len())
            .map(|i| matches!(health.get(i), Some(Health::Quarantined(FaultCause::TimedOut))))
            .collect();
        self.transport.shutdown(&skip);
        if self.recorder.enabled() {
            let stats = self.transport.stats();
            if stats.frames_out + stats.frames_in > 0 {
                self.recorder.counter_add(keys::RT_WIRE_FRAMES_OUT, stats.frames_out);
                self.recorder.counter_add(keys::RT_WIRE_FRAMES_IN, stats.frames_in);
                self.recorder.counter_add(keys::RT_WIRE_BYTES_OUT, stats.bytes_out);
                self.recorder.counter_add(keys::RT_WIRE_BYTES_IN, stats.bytes_in);
                self.recorder.counter_add(keys::RT_WIRE_FLUSHES, stats.flushes);
            }
        }
    }

    /// Stop and join every worker. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl Drop for Runtime<'_> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_collector(seed: u64) -> Collector {
        CollectorBlueprint::per_env(EnvBlueprint::Grid { n: 3 }, seed).build()
    }

    fn specs(nodes: &[usize]) -> (Vec<WorkerSpec<'static>>, ActorCritic) {
        let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(5));
        let specs = nodes
            .iter()
            .map(|&node| WorkerSpec::new(node, grid_collector(node as u64 + 1)))
            .collect();
        (specs, policy)
    }

    fn streams(n: u64) -> Vec<RngStream> {
        (0..n).map(RngStream::fresh).collect()
    }

    /// An in-process runtime that suffers `plan` — and is the only one
    /// that does.
    fn faulted<'f>(
        specs: Vec<WorkerSpec<'f>>,
        policy: &ActorCritic,
        plan: FaultPlan,
    ) -> Runtime<'f> {
        Runtime::spawn_faulted(specs, policy, TransportConfig::InProcess, plan)
    }

    #[test]
    fn collect_round_returns_worker_index_order() {
        let (specs, policy) = specs(&[0, 0, 1, 1]);
        let mut rt = Runtime::spawn(specs, &policy);
        let outcome = rt.collect_round(0, 16, streams(4)).expect("collects");
        let order: Vec<usize> = outcome.segments.iter().map(|s| s.worker).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(outcome.segments[2].node, 1);
        assert_eq!(outcome.faults, FaultLog::default());
        for s in &outcome.segments {
            assert_eq!(s.segment.rollout.len(), 16);
        }
        rt.shutdown();
    }

    #[test]
    fn narrow_window_limits_dispatch_but_completes() {
        let (specs, policy) = specs(&[0, 0, 0]);
        let mut rt = Runtime::spawn(specs, &policy).with_window(1);
        let outcome = rt.collect_round(0, 8, streams(3)).expect("collects");
        assert_eq!(outcome.segments.len(), 3);
        assert_eq!(rt.peak_outstanding, 1, "one command in flight at a time");
    }

    #[test]
    fn window_is_clamped_to_one() {
        let (specs, policy) = specs(&[0, 0, 0]);
        let mut rt = Runtime::spawn(specs, &policy).with_window(0);
        let outcome = rt.collect_round(0, 8, streams(3)).expect("collects");
        assert_eq!(outcome.segments.len(), 3);
        assert_eq!(rt.peak_outstanding, 1, "dispatched one at a time");
    }

    #[test]
    fn default_transport_is_in_process() {
        let (specs, policy) = specs(&[0]);
        let rt = Runtime::spawn(specs, &policy);
        assert_eq!(rt.transport_kind(), TransportConfig::InProcess);
        assert_eq!(rt.transport_stats(), TransportStats::default());
    }

    #[test]
    fn broadcast_counts_only_remote_bytes() {
        let (specs, policy) = specs(&[0, 1]);
        let mut rt = Runtime::spawn(specs, &policy);
        let local = rt.broadcast_weights(0, &policy, &[0]).expect("acks");
        assert_eq!(local.bytes, 0, "node 0 is local");
        let both = rt.broadcast_weights(0, &policy, &[0, 1]).expect("acks");
        assert_eq!(both.bytes, policy.param_bytes());
        assert_eq!(both.faults, FaultLog::default());
    }

    #[test]
    fn collection_uses_broadcast_weights() {
        // After a broadcast, workers collect with the *new* snapshot:
        // identical to a fresh runtime spawned with that policy.
        let (specs_a, old) = specs(&[0]);
        let fresh = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut StdRng::seed_from_u64(99));
        let mut a = Runtime::spawn(specs_a, &old);
        a.broadcast_weights(0, &fresh, &[0]).expect("acks");
        let seg_a = a.collect_round(0, 16, vec![RngStream::fresh(7)]).expect("collects");

        let (specs_b, _) = specs(&[0]);
        let mut b = Runtime::spawn(specs_b, &fresh);
        let seg_b = b.collect_round(0, 16, vec![RngStream::fresh(7)]).expect("collects");
        assert_eq!(
            seg_a.segments[0].segment.rollout.actions,
            seg_b.segments[0].segment.rollout.actions
        );
        assert_eq!(
            seg_a.segments[0].segment.rollout.values,
            seg_b.segments[0].segment.rollout.values
        );
    }

    #[test]
    fn failure_without_policy_is_an_err_not_a_panic() {
        let plan = FaultPlan::new().fault(1, 0, FaultKind::Panic);
        let (specs, policy) = specs(&[0, 0]);
        let mut rt = faulted(specs, &policy, plan);
        let err = rt.collect_round(0, 8, streams(2)).expect_err("fail-fast surfaces the failure");
        match err {
            RuntimeError::WorkerFailed { worker, round, ref reason } => {
                assert_eq!((worker, round), (1, 0));
                assert!(reason.contains("injected panic"), "payload text: {reason}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        // The runtime is still shut-downable without hanging.
        rt.shutdown();
    }

    #[test]
    fn retry_absorbs_a_contained_panic() {
        let plan = FaultPlan::new().fault(0, 1, FaultKind::Panic);
        let (specs, policy) = specs(&[0, 0]);
        let retry_once = FaultPolicy { max_retries: 1, ..FaultPolicy::resilient() };
        let mut rt = faulted(specs, &policy, plan).with_fault_policy(retry_once);
        let clean = rt.collect_round(0, 8, streams(2));
        assert_eq!(clean.expect("round 0 is clean").faults, FaultLog::default());
        let outcome = rt.collect_round(1, 8, streams(2)).expect("retried");
        assert_eq!(outcome.segments.len(), 2, "both workers contribute after the retry");
        assert_eq!(outcome.faults.retries, 1);
        assert_eq!(
            outcome.faults.backoff_s.to_bits(),
            retry_once.backoff_s(0).to_bits(),
            "first attempt charges the base backoff"
        );
        assert!(!rt.is_degraded());
    }

    #[test]
    fn respawn_recovers_a_dead_thread() {
        let plan = FaultPlan::new().fault(1, 0, FaultKind::Crash);
        let (mut specs, policy) = specs(&[0, 0]);
        specs[1] = WorkerSpec::new(0, grid_collector(2)).with_respawn(|| grid_collector(2));
        let mut rt = faulted(specs, &policy, plan)
            .with_fault_policy(FaultPolicy { max_retries: 1, ..FaultPolicy::resilient() });
        let outcome = rt.collect_round(0, 8, streams(2)).expect("respawned");
        assert_eq!(outcome.segments.len(), 2);
        assert_eq!(outcome.faults.respawns, 1);
        assert!(!rt.is_degraded());
        // The respawned worker keeps serving later rounds.
        let again = rt.collect_round(1, 8, streams(2));
        assert_eq!(again.expect("healthy").faults, FaultLog::default());
    }

    #[test]
    fn exhausted_retries_quarantine_and_degrade() {
        let plan = FaultPlan::new().fault(2, 0, FaultKind::Panic);
        let (specs, policy) = specs(&[0, 0, 0]);
        let mut rt = faulted(specs, &policy, plan).with_fault_policy(FaultPolicy {
            max_retries: 0,
            quarantine: true,
            ..FaultPolicy::resilient()
        });
        let outcome = rt.collect_round(0, 8, streams(3)).expect("degrades");
        assert_eq!(outcome.segments.len(), 2, "survivors still merge");
        let order: Vec<usize> = outcome.segments.iter().map(|s| s.worker).collect();
        assert_eq!(order, vec![0, 1], "index order on the surviving set");
        assert_eq!(outcome.faults.quarantined.len(), 1);
        assert_eq!(outcome.faults.quarantined[0].worker, 2);
        assert_eq!(outcome.faults.quarantined[0].cause, FaultCause::Panicked);
        assert!(rt.is_degraded());
        assert_eq!(rt.active_workers(), 2);
        // Later rounds skip the quarantined worker without stalling.
        let later = rt.collect_round(1, 8, streams(3)).expect("collects");
        assert_eq!(later.segments.len(), 2);
    }

    /// Everything round 0 produced, as raw bits in merge order.
    fn round_bits(outcome: &RoundOutcome) -> Vec<u64> {
        let mut bits = Vec::new();
        for s in &outcome.segments {
            let r = &s.segment.rollout;
            bits.push(s.worker as u64);
            bits.extend(r.actions.iter().map(|a| a.discrete() as u64));
            for xs in [&r.rewards, &r.values, &r.log_probs] {
                bits.extend(xs.iter().map(|x| x.to_bits()));
            }
        }
        bits
    }

    /// Spawn a two-worker runtime that suffers `plan`, pass `gate` twice
    /// (if there is one) between the spawn and the collection, then
    /// collect round 0 under a one-retry policy.
    fn suffer(plan: FaultPlan, gate: Option<&std::sync::Barrier>) -> (FaultLog, Vec<u64>) {
        let (mut specs, policy) = specs(&[0, 0]);
        specs[1] = WorkerSpec::new(0, grid_collector(2)).with_respawn(|| grid_collector(2));
        let mut rt = faulted(specs, &policy, plan)
            .with_fault_policy(FaultPolicy { max_retries: 1, ..FaultPolicy::resilient() });
        if let Some(gate) = gate {
            gate.wait(); // every faulted runtime is spawned and armed
            gate.wait(); // the plan-free runtime has come and gone
        }
        let outcome = rt.collect_round(0, 8, streams(2)).expect("the policy absorbs one fault");
        let bits = round_bits(&outcome);
        (outcome.faults, bits)
    }

    #[test]
    fn concurrent_runtimes_suffer_exactly_their_own_plans() {
        // Three runtimes alive at once, all addressed at round 0 of the
        // same two workers: one plan panics worker 0, the other crashes
        // worker 1, the third runtime has no plan. The barrier forces the
        // interleaving a shared plan could not survive — the plan-free
        // runtime collects while both plans are armed and unfired, then
        // the two faulted ones collect side by side.
        let panic_plan = || FaultPlan::new().fault(0, 0, FaultKind::Panic);
        let crash_plan = || FaultPlan::new().fault(1, 0, FaultKind::Crash);
        let solo_panic = suffer(panic_plan(), None);
        let solo_crash = suffer(crash_plan(), None);
        let solo_clean = suffer(FaultPlan::new(), None);

        let gate = std::sync::Barrier::new(3);
        let (with_panic, with_crash, clean) = std::thread::scope(|s| {
            let a = s.spawn(|| suffer(panic_plan(), Some(&gate)));
            let b = s.spawn(|| suffer(crash_plan(), Some(&gate)));
            gate.wait();
            let clean = suffer(FaultPlan::new(), None);
            gate.wait();
            (a.join().expect("no panic"), b.join().expect("no panic"), clean)
        });

        let backoff_s = FaultPolicy::resilient().backoff_s(0);
        let retried = FaultLog { retries: 1, backoff_s, ..FaultLog::default() };
        assert_eq!(with_panic.0, retried, "one contained panic, one retry, nothing else");
        assert_eq!(with_crash.0, FaultLog { respawns: 1, ..retried }, "one crash, one respawn");
        assert_eq!(clean.0, FaultLog::default(), "no plan, no fault");
        assert_eq!(with_panic, solo_panic, "the same bits as the same plan run alone");
        assert_eq!(with_crash, solo_crash);
        assert_eq!(clean, solo_clean);
    }

    #[test]
    fn injected_hang_surfaces_as_worker_timed_out() {
        let plan = FaultPlan::new().fault(0, 0, FaultKind::Hang { millis: 300 });
        let (specs, policy) = specs(&[0, 0]);
        let mut rt = faulted(specs, &policy, plan)
            .with_fault_policy(FaultPolicy { recv_timeout_ms: 40, ..FaultPolicy::fail_fast() });
        let err = rt.collect_round(0, 8, streams(2));
        match err.expect_err("the hang must time out") {
            RuntimeError::WorkerTimedOut { worker, round } => {
                assert_eq!((worker, round), (0, 0));
            }
            other => panic!("expected WorkerTimedOut, got {other:?}"),
        }
    }

    #[test]
    fn hang_quarantine_drops_the_stale_answer() {
        let plan = FaultPlan::new().fault(0, 0, FaultKind::Hang { millis: 120 });
        let (specs, policy) = specs(&[0, 0]);
        let mut rt = faulted(specs, &policy, plan).with_fault_policy(FaultPolicy {
            recv_timeout_ms: 40,
            quarantine: true,
            ..FaultPolicy::resilient()
        });
        let outcome = rt.collect_round(0, 8, streams(2)).expect("degrades");
        assert_eq!(outcome.segments.len(), 1, "only the healthy worker contributes");
        assert_eq!(outcome.faults.timeouts, 1);
        assert_eq!(outcome.faults.quarantined[0].cause, FaultCause::TimedOut);
        // Give the hung thread time to wake and emit its stale segment,
        // then collect again: the stale answer must not corrupt round 1.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let later = rt.collect_round(1, 8, streams(2)).expect("collects");
        assert_eq!(later.segments.len(), 1);
        assert_eq!(later.segments[0].worker, 1);
        assert_eq!(later.faults, FaultLog::default());
    }
}
