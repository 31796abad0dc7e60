//! Typed command/event messages between the driver and worker actors.
//!
//! Commands flow driver → worker over a per-worker channel; events flow
//! worker → driver over one shared channel. Large payloads (policies,
//! segments) are boxed so the enums stay channel-friendly.
//!
//! RNG streams ride along with the messages: a [`Command::Collect`]
//! carries the rng the worker must sample actions from, and the matching
//! [`Event::SegmentReady`] hands it back. This is what lets the
//! Stable-Baselines-like backend round-trip its *master* rng through the
//! vectorized collection worker and keep the exact pre-runtime draw order
//! (collect, then update, from one stream).
//!
//! Every event echoes the round of the command that caused it. The
//! driver uses that echo to drop *stale* events — a quarantined-then-woken
//! worker may answer long after its round closed. Events carry their
//! worker index too: the runtime files each segment under that index and
//! reads the round's segments back in worker-index order, so completion
//! order never reaches a report.

use super::transport::RngStream;
use crate::backends::common::Segment;
use rl_algos::policy::ActorCritic;

/// The round a transport uses when it cannot attribute a failure to a
/// specific command — e.g. a worker process found dead at EOF. The
/// runtime substitutes the round it is currently driving.
pub const WILDCARD_ROUND: u64 = u64::MAX;

/// A driver-issued order to one worker actor.
// The big variant carries an `RngStream` (a whole ChaCha12 block buffer)
// by value, like `Event::SegmentReady`; the two fields stay one type.
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// Collect a segment for `round`: `steps` lockstep ticks of the
    /// worker's `VecEnv` (each advances every lane once), sampling from
    /// `rng`.
    Collect {
        /// Iteration index (for event correlation).
        round: u64,
        /// Ticks to collect.
        steps: usize,
        /// The action-sampling stream; returned in the matching
        /// [`Event::SegmentReady`].
        rng: RngStream,
    },
    /// Replace the worker's policy snapshot with fresh learner weights.
    /// The worker acknowledges with an [`Event::Heartbeat`].
    UpdateWeights {
        /// Iteration index.
        round: u64,
        /// The new weights (boxed: policies are large).
        policy: Box<ActorCritic>,
    },
    /// Stop the worker loop; the thread exits.
    Shutdown,
}

/// A worker-emitted event.
// The big variant carries an `RngStream` (a whole ChaCha12 block buffer)
// by value. `benchmark/src/probes.rs` writes `Event::SegmentReady { rng, .. }`
// out field by field, so boxing it is a change to the measuring stick.
#[allow(clippy::large_enum_variant)]
pub enum Event {
    /// A collection order finished.
    SegmentReady {
        /// Worker index.
        worker: usize,
        /// Simulated node the worker is pinned to.
        node: usize,
        /// Iteration index echoed from the command.
        round: u64,
        /// The collected segment (boxed: rollouts are large).
        segment: Box<Segment>,
        /// The action-sampling stream, advanced past this segment.
        rng: RngStream,
    },
    /// Liveness/acknowledgement signal (sent after a weight update).
    Heartbeat {
        /// Worker index.
        worker: usize,
        /// Iteration index echoed from the command.
        round: u64,
    },
    /// The worker's command panicked.
    WorkerFailed {
        /// Worker index.
        worker: usize,
        /// Iteration index of the failed command.
        round: u64,
        /// Panic payload rendered to text (see `panic_text`).
        reason: String,
        /// `true` when the worker thread is exiting (only a respawn can
        /// recover it); `false` when the panic was contained and the
        /// thread keeps serving commands (a retry suffices).
        fatal: bool,
    },
}

/// Render a caught panic payload as text: `&str` and `String` payloads
/// verbatim, anything else as an opaque marker.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any};

    /// Run `f`, which must panic, and return the payload with the
    /// default "thread panicked" stderr chatter suppressed for the call.
    fn capture_panic<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> Box<dyn std::any::Any + Send> {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let payload = catch_unwind(f).expect_err("closure must panic");
        std::panic::set_hook(prev);
        payload
    }

    #[test]
    fn panic_text_renders_str_payloads() {
        let payload = capture_panic(|| panic!("static boom"));
        assert_eq!(panic_text(payload.as_ref()), "static boom");
    }

    #[test]
    fn panic_text_renders_string_payloads() {
        let round = 7;
        let payload = capture_panic(move || panic!("boom in round {round}"));
        assert_eq!(panic_text(payload.as_ref()), "boom in round 7");
    }

    #[test]
    fn panic_text_marks_opaque_payloads() {
        let payload = capture_panic(|| panic_any(42usize));
        assert_eq!(panic_text(payload.as_ref()), "worker panicked");
        let payload = capture_panic(|| panic_any(vec![1u8, 2, 3]));
        assert_eq!(panic_text(payload.as_ref()), "worker panicked");
    }
}
