//! Telemetry keys recorded by [`crate::ClusterSession`].
//!
//! The session mirrors its internal accounting into these instruments in
//! the exact arithmetic order it updates its own state, so a per-trial
//! rollup built from a snapshot ([`crate::rollup`]) reproduces
//! [`crate::ClusterSession::finish`] bit for bit.

use telemetry::Key;

/// f64 accumulator: simulated wall-clock seconds (mirrors the session
/// clock, one add per phase).
pub(crate) const WALL_S: Key = Key("session.wall_s");

/// f64 accumulator: marginal-above-idle active energy in joules (one add
/// per busy interval, in narration order).
pub(crate) const ACTIVE_J: Key = Key("session.active_j");

/// f64 accumulator: seconds spent in compute/overhead phases.
pub(crate) const COMPUTE_S: Key = Key("session.compute_s");

/// f64 accumulator: seconds spent in blocking transfers.
pub(crate) const NETWORK_S: Key = Key("session.network_s");

/// Counter: payload bytes moved between processes.
pub(crate) const BYTES_MOVED: Key = Key("session.bytes_moved");

/// Counter: number of blocking transfers.
pub(crate) const TRANSFERS: Key = Key("session.transfers");

/// Counter: real bytes measured on a worker transport's wire
/// ([`crate::ClusterSession::observe_wire`]); observational, charged no
/// simulated time or energy.
pub(crate) const WIRE_BYTES: Key = Key("session.wire_bytes");

/// Counter: number of compute phases.
pub(crate) const COMPUTE_PHASES: Key = Key("session.compute_phases");

/// Event: one busy interval. Fields: [`PHASE_NODE`] (absent on
/// overhead), `PHASE_BUSY` (busy cores, f64), `PHASE_SECONDS`
/// (duration) and [`PHASE_START_S`]. Replaying busy/seconds through
/// `crate::PowerModel::active_joules` reproduces the session's active
/// energy exactly; the nodes of one concurrent compute phase are
/// consecutive events sharing a start.
pub const PHASE: Key = Key("session.phase");

/// Event field on [`PHASE`]: the node (u64) of a compute interval.
pub const PHASE_NODE: Key = Key("node");

/// Event field on [`PHASE`]: busy cores during the interval.
pub(crate) const PHASE_BUSY: Key = Key("busy");

/// Event field on [`PHASE`] and [`TRANSFER`]: duration in seconds.
pub(crate) const PHASE_SECONDS: Key = Key("seconds");

/// Event field on [`PHASE`] and [`TRANSFER`]: simulated start time (s).
pub const PHASE_START_S: Key = Key("start_s");

/// Event: one blocking transfer. Fields: `TRANSFER_BYTES` (u64),
/// `PHASE_SECONDS` and [`PHASE_START_S`].
pub const TRANSFER: Key = Key("session.transfer");

/// Event field on [`TRANSFER`]: payload size.
pub(crate) const TRANSFER_BYTES: Key = Key("bytes");

/// Gauge: per-interval busy fraction of one node (`busy / cores`),
/// sampled once per busy interval.
pub(crate) const BUSY_FRACTION: Key = Key("session.busy_fraction");
