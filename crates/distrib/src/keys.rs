//! Telemetry keys recorded by the execution [`runtime`](crate::runtime).
//!
//! `driver.*` names describe trial-level progress emitted by
//! `runtime::Driver`; `runtime.*` names describe the
//! actor pool's channel traffic.

use telemetry::Key;

/// Event: one completed training iteration. Fields: [`F_ITERATION`],
/// `F_ENV_STEPS`, `F_WALL_S`, [`F_MEAN_RETURN`].
pub const TRIAL_ITERATION: Key = Key("driver.iteration");

/// Counter: environment steps consumed (mirrors `Driver::env_steps`).
pub const ENV_STEPS: Key = Key("driver.env_steps");

/// Counter: environment work units consumed (mirrors `Driver::env_work`).
pub const ENV_WORK: Key = Key("driver.env_work");

/// [`TRIAL_ITERATION`] field: iterations completed (1-based).
pub const F_ITERATION: Key = Key("iteration");

/// [`TRIAL_ITERATION`] field: environment steps consumed so far.
pub(crate) const F_ENV_STEPS: Key = Key("env_steps");

/// [`TRIAL_ITERATION`] field: simulated wall-clock seconds elapsed.
pub(crate) const F_WALL_S: Key = Key("wall_s");

/// [`TRIAL_ITERATION`] field: mean of the last
/// `runtime::driver::REPORT_WINDOW` training
/// returns (NaN before the first finished episode).
pub const F_MEAN_RETURN: Key = Key("mean_return");

/// Counter: commands dispatched to worker actors.
pub const RT_COMMANDS: Key = Key("runtime.commands");

/// Counter: events drained from worker actors.
pub const RT_EVENTS: Key = Key("runtime.events");

/// Gauge: collection commands in flight over the dispatch window
/// (1.0 = the window is saturated).
pub const RT_OCCUPANCY: Key = Key("runtime.occupancy");

/// Counter: weight broadcasts issued.
pub const RT_BROADCASTS: Key = Key("runtime.broadcasts");

/// Counter: weight bytes that crossed the interconnect.
pub const RT_BROADCAST_BYTES: Key = Key("runtime.broadcast_bytes");

/// Counter: failed round-commands re-dispatched by the fault policy.
pub const RT_RETRIES: Key = Key("runtime.retries");

/// Counter: dead worker threads rebuilt from their respawn factory.
pub(crate) const RT_RESPAWNS: Key = Key("runtime.respawns");

/// Counter: commands that outlived the fault policy's receive timeout.
pub(crate) const RT_TIMEOUTS: Key = Key("runtime.timeouts");

/// Counter: workers quarantined after the recovery ladder was exhausted.
pub const RT_QUARANTINES: Key = Key("runtime.quarantines");

/// Accumulator: simulated seconds of retry backoff charged to the trial.
pub(crate) const RT_BACKOFF_S: Key = Key("runtime.backoff_s");

/// Counter: wire frames encoded for workers (process transport only;
/// recorded once as a trial total at runtime shutdown).
pub const RT_WIRE_FRAMES_OUT: Key = Key("runtime.wire.frames_out");

/// Counter: wire frames decoded from workers (process transport only).
pub const RT_WIRE_FRAMES_IN: Key = Key("runtime.wire.frames_in");

/// Counter: wire bytes sent to workers, frame headers included.
pub const RT_WIRE_BYTES_OUT: Key = Key("runtime.wire.bytes_out");

/// Counter: wire bytes received from workers, frame headers included.
pub const RT_WIRE_BYTES_IN: Key = Key("runtime.wire.bytes_in");

/// Counter: socket writes — batched frames amortize these.
pub const RT_WIRE_FLUSHES: Key = Key("runtime.wire.flushes");

/// Span: one driver-side flush of buffered command frames to the wire.
pub const RT_WIRE_FLUSH: Key = Key("runtime.wire.flush");

/// Event: a worker left the active set for good. Fields: [`F_WORKER`],
/// [`F_NODE`], [`F_ROUND`], [`F_CAUSE`].
pub(crate) const WORKER_QUARANTINED: Key = Key("worker.quarantined");

/// [`WORKER_QUARANTINED`] field: worker index.
pub(crate) const F_WORKER: Key = Key("worker");

/// [`WORKER_QUARANTINED`] field: the worker's simulated node.
pub(crate) const F_NODE: Key = Key("node");

/// [`WORKER_QUARANTINED`] field: the round the quarantine happened in.
pub(crate) const F_ROUND: Key = Key("round");

/// [`WORKER_QUARANTINED`] field: why — see
/// [`FaultCause::as_str`](crate::runtime::fault::FaultCause::as_str).
pub(crate) const F_CAUSE: Key = Key("cause");
