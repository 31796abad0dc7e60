//! Low-overhead structured telemetry for the training stack.
//!
//! The paper's decision analysis runs over *measured* metrics — Reward,
//! Computation Time, Power Consumption — so every layer of the stack needs
//! one uniform, cheap way to report what it did. This crate defines that
//! layer: a [`Recorder`] trait with four primitive instrument families
//! (monotonic counters, f64 accumulators, gauge samples, and structured
//! events/spans), a [`RingRecorder`] implementation that aggregates
//! counters in atomic slot tables and keeps events and spans in one
//! mutex-guarded ring per recorder, and a [`NullRecorder`] whose methods
//! compile to no-ops so instrumentation costs nothing when disabled.
//!
//! Design constraints, in order:
//!
//! 1. **Zero allocation on the hot path.** Keys are `&'static str`
//!    newtypes, event payloads are bounded `Copy` arrays, and the ring
//!    recorder allocates its slot tables and its event ring when it is
//!    built, never while recording. The disabled path is a virtual call
//!    returning immediately.
//! 2. **Determinism-preserving.** Recording never perturbs floating-point
//!    evaluation order or RNG streams; all instruments are observe-only.
//!    f64 accumulators apply deltas in call order, so a single recording
//!    thread reproduces the instrumented code's own sums bit for bit.
//! 3. **No dependencies.** The crate sits below every other crate in the
//!    workspace; its exporter ([`export`]) writes the trace by hand and
//!    reads it back through [`json`], the one JSON reader in the tree.
//!
//! A snapshot of everything recorded is taken with
//! [`RingRecorder::snapshot`], giving a [`Snapshot`] that [`export`]
//! serializes as a JSON-lines trace and that per-trial rollups consume.

pub mod export;
mod fixed;
pub mod json;
pub mod ring;
mod shortest;
pub mod snapshot;

pub use fixed::push_fixed;
pub use ring::RingRecorder;
pub use shortest::push_shortest;
pub use snapshot::{FieldValue, SnapEvent, Snapshot};

use std::fmt;
use std::sync::{Arc, OnceLock};

/// An instrument name: a typed newtype over a `&'static str`.
///
/// Keys compare and hash by string content, so two `Key` constants with
/// the same name address the same instrument. By convention names are
/// dot-separated, lowercase, and namespaced by subsystem
/// (`"vecenv.steps"`, `"session.wall_s"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub &'static str);

impl Key {
    /// The key's name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A field value attached to a structured event.
///
/// All variants are `Copy` so event payloads never allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, ids, step numbers).
    U64(u64),
    /// A double (durations, returns, fractions).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A static string (status labels, method names).
    Str(&'static str),
}

/// Identifies an open span returned by [`Recorder::span_begin`].
///
/// `SpanId(0)` is the null span, used by disabled recorders; ending it is
/// a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// The unified instrumentation interface.
///
/// One subscriber API for everything the stack reports: monotonic
/// counters, f64 accumulators, gauge samples, timing spans, and
/// structured events. Implementations must be cheap enough to leave
/// enabled in hot loops and must never panic on the recording path.
///
/// All methods take `&self`: recorders are shared across threads (see
/// [`SharedRecorder`]) and synchronize internally.
pub trait Recorder {
    /// Whether this recorder keeps anything at all. Callers may use this
    /// to skip *preparing* expensive payloads; they do not need to guard
    /// plain instrument calls, which are no-ops when disabled.
    fn enabled(&self) -> bool {
        true
    }

    /// Add `delta` to the monotonic counter `key`.
    fn counter_add(&self, key: Key, delta: u64);

    /// Add `delta` to the f64 accumulator `key`. Deltas are applied in
    /// call order, so a single-threaded caller gets a bitwise-exact sum.
    fn accum_add(&self, key: Key, delta: f64);

    /// Record an instantaneous sample of the gauge `key`. The recorder
    /// keeps last/count/sum/min/max.
    fn gauge_set(&self, key: Key, value: f64);

    /// Open a timing span named `key`; pair with [`Recorder::span_end`].
    fn span_begin(&self, key: Key) -> SpanId;

    /// Close a span previously returned by [`Recorder::span_begin`].
    fn span_end(&self, id: SpanId);

    /// Record a structured event with up to
    /// `ring::MAX_EVENT_FIELDS` key/value fields (extra fields are
    /// dropped).
    fn event(&self, key: Key, fields: &[(Key, Value)]);

    /// Cooperative cancellation: instrumented drivers poll this between
    /// iterations and stop early when it returns `true`. This is how
    /// pruners reach into a running trial through the telemetry layer.
    fn should_stop(&self) -> bool {
        false
    }
}

/// A recorder that records nothing: every method is an empty body the
/// optimizer can see through, so instrumented code pays one indirect call
/// (or nothing, when monomorphized) per instrument.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn counter_add(&self, _key: Key, _delta: u64) {}
    fn accum_add(&self, _key: Key, _delta: f64) {}
    fn gauge_set(&self, _key: Key, _value: f64) {}
    fn span_begin(&self, _key: Key) -> SpanId {
        SpanId(0)
    }
    fn span_end(&self, _id: SpanId) {}
    fn event(&self, _key: Key, _fields: &[(Key, Value)]) {}
}

/// A shared, thread-safe recorder handle, cloneable across workers.
pub type SharedRecorder = Arc<dyn Recorder + Send + Sync>;

/// The process-wide null recorder. Cloning an `Arc` is one atomic
/// increment, so this is the cheap default for every instrumented struct.
pub fn null_recorder() -> SharedRecorder {
    static NULL: OnceLock<SharedRecorder> = OnceLock::new();
    NULL.get_or_init(|| Arc::new(NullRecorder)).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_compare_by_content() {
        const A: Key = Key("x.y");
        let b = Key("x.y");
        assert_eq!(A, b);
        assert_ne!(A, Key("x.z"));
        assert_eq!(A.name(), "x.y");
        assert_eq!(format!("{A}"), "x.y");
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = null_recorder();
        assert!(!r.enabled());
        assert!(!r.should_stop());
        r.counter_add(Key("c"), 1);
        r.accum_add(Key("a"), 1.0);
        r.gauge_set(Key("g"), 1.0);
        let span = r.span_begin(Key("s"));
        assert_eq!(span, SpanId(0));
        r.span_end(span);
        r.event(Key("e"), &[(Key("f"), Value::Bool(true))]);
    }

    #[test]
    fn null_recorder_is_a_shared_singleton() {
        let a = null_recorder();
        let b = null_recorder();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
