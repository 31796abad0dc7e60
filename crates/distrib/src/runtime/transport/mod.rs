//! Pluggable transports behind the `Command`/`Event` driver protocol.
//!
//! The runtime's driver loop is transport-agnostic: it sends typed
//! [`Command`]s to workers and drains typed [`Event`]s, merging results
//! in worker-index order. This module provides the seam:
//!
//! * `channel` — the default in-process transport: one long-lived
//!   thread per worker, `mpsc` channels, values moved by ownership.
//!   Bitwise-identical to the pre-transport runtime (it *is* that
//!   runtime, behind the trait).
//! * `process` — workers as spawned child processes speaking the
//!   [`codec`] wire format over Unix domain sockets (Unix targets only;
//!   elsewhere a `uds` request runs in process).
//!
//! Because both transports run the same worker state machine on the
//! same RNG streams and the driver merges by worker index, a study
//! produces **bitwise-identical** results on either — the
//! cross-transport determinism tests assert it per backend.

pub mod blueprint;
pub mod codec;
pub mod rng;

pub(crate) mod channel;
#[cfg(unix)]
pub(crate) mod process;

pub use blueprint::{CollectorBlueprint, EnvBlueprint};
pub use rng::{RngCache, RngStream};

use super::event::{Command, Event};
use super::fault::RuntimeError;
use super::worker::Collector;
use rl_algos::policy::ActorCritic;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::SharedRecorder;

/// Which wire a runtime runs on: what `ExecSpec::transport` requests
/// and what [`Runtime::transport_kind`](super::Runtime::transport_kind)
/// reports. A `uds` request runs in process when a worker spec has no
/// blueprint (a closure-built environment), the `rldt-worker` binary is
/// missing, the children fail to connect, or the target has no Unix
/// domain sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// Threads + mpsc channels (default).
    #[default]
    InProcess,
    /// Child processes over Unix domain sockets.
    Uds,
}

/// The name `benchmark/src/probes.rs` gives a runtime's reported wire.
pub type TransportKind = TransportConfig;

impl TransportConfig {
    /// Parse a transport request: exactly `inproc` or `uds`.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        [Self::InProcess, Self::Uds]
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| format!("unknown transport {s:?} (use inproc or uds)"))
    }

    /// The name `parse` takes for this variant, and a bench column.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::InProcess => "inproc",
            Self::Uds => "uds",
        }
    }
}

/// Wire-level traffic totals. All zeros for the in-process transport —
/// nothing is serialized there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames encoded for workers (commands + handshakes).
    pub(crate) frames_out: u64,
    /// Frames decoded from workers (events + handshakes).
    pub(crate) frames_in: u64,
    /// Bytes encoded for workers, including frame headers.
    pub(crate) bytes_out: u64,
    /// Bytes decoded from workers, including frame headers.
    pub(crate) bytes_in: u64,
    /// Socket writes — batched frames amortize these.
    pub(crate) flushes: u64,
}

impl TransportStats {
    /// Total bytes that crossed the wire in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_out + self.bytes_in
    }
}

/// The worker `commands` side failed — the worker is unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendError;

/// What the runtime needs from a worker pool, whatever the wire.
///
/// Contracts the driver loop relies on:
/// * `send` may buffer; `recv_deadline` flushes pending output before
///   blocking, so a send followed by a receive never deadlocks.
/// * Per-worker event order is preserved; cross-worker order is
///   unspecified (identical to threads racing an mpsc channel). The
///   driver's index-ordered merge owns determinism.
/// * A worker death eventually surfaces as a fatal
///   [`Event::WorkerFailed`]; transports that cannot attribute a round
///   use [`super::event::WILDCARD_ROUND`] and the runtime substitutes
///   the round it is currently driving.
/// * `reap` and `shutdown` are idempotent per worker.
pub(crate) trait Transport: Send {
    fn kind(&self) -> TransportConfig;

    /// Route telemetry (wire counters, flush spans) to `recorder`.
    fn set_recorder(&mut self, _recorder: SharedRecorder) {}

    /// Queue a command for `worker`. An error means the worker is
    /// already known-unreachable.
    fn send(&mut self, worker: usize, cmd: Command) -> Result<(), SendError>;

    /// Push buffered frames to the wire (no-op in-process).
    fn flush(&mut self) {}

    /// Wait for the next event; `Ok(None)` means the deadline expired.
    /// Flushes pending output before blocking.
    fn recv_deadline(&mut self, deadline: Instant) -> Result<Option<Event>, RuntimeError>;

    /// Collect a dead worker's corpse (join the thread / wait the
    /// process). Safe to call repeatedly and on workers already reaped.
    fn reap(&mut self, worker: usize);

    /// Bring a dead worker back, booting it from `policy`. `maker` is
    /// the spec's respawn closure — the in-process transport requires
    /// it; the process transport rebuilds from its blueprint instead.
    fn respawn(
        &mut self,
        worker: usize,
        maker: Option<&(dyn Fn() -> Collector + '_)>,
        policy: &ActorCritic,
    ) -> bool;

    /// Stop every worker. `skip[w]` marks workers that may never answer
    /// (hang-quarantined): threads are leaked, processes killed, instead
    /// of waiting forever.
    fn shutdown(&mut self, skip: &[bool]);

    /// Traffic totals so far.
    fn stats(&self) -> TransportStats;
}

// ------------------------------------------------------- worker binary

/// Locate the `rldt-worker` binary: `RLDT_WORKER_BIN`, then siblings of
/// the current executable (the bin itself in `target/<profile>/`, or one
/// directory up for test executables living in `deps/` — which is where
/// cargo puts the freshly built bin an integration test runs against).
pub(crate) fn resolve_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("RLDT_WORKER_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("rldt-worker{}", std::env::consts::EXE_SUFFIX);
    let dir = exe.parent()?;
    let sibling = dir.join(&name);
    if sibling.is_file() {
        return Some(sibling);
    }
    let up = dir.parent()?.join(&name);
    up.is_file().then_some(up)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_config_parses_the_documented_forms() {
        assert_eq!(TransportConfig::parse("inproc"), Ok(TransportConfig::InProcess));
        assert_eq!(TransportConfig::parse("uds"), Ok(TransportConfig::Uds));
        assert!(TransportConfig::parse("smoke-signals").is_err());
        for gone in ["tcp", "tcp:", "tcp:127.0.0.1:9000"] {
            assert!(TransportConfig::parse(gone).is_err(), "{gone:?} is not a transport");
        }
        for alias in ["", "channel", "thread", "unix", " uds"] {
            assert!(TransportConfig::parse(alias).is_err(), "{alias:?} is not a documented form");
        }
    }

    #[test]
    fn kind_names_are_stable_bench_columns() {
        assert_eq!(TransportConfig::InProcess.as_str(), "inproc");
        assert_eq!(TransportConfig::Uds.as_str(), "uds");
    }
}
