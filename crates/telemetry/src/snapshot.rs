//! Owned snapshots of everything a recorder captured.
//!
//! A [`Snapshot`] is the bridge between the zero-copy recording side
//! (static keys, `Copy` payloads) and the consuming side (exporters,
//! per-trial rollups): keys become owned `String`s, aggregates land in
//! sorted maps, and the event stream is flattened into a vector that
//! preserves each recording thread's FIFO order.

use std::collections::BTreeMap;

/// Summary statistics kept for a gauge instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStats {
    /// The most recently recorded sample.
    pub(crate) last: f64,
    /// How many samples were recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: f64,
    /// Smallest sample seen.
    pub min: f64,
    /// Largest sample seen.
    pub max: f64,
}

/// An owned event field value; the snapshot-side mirror of
/// [`crate::Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A double.
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A string label.
    Str(String),
}

impl FieldValue {
    /// The value as f64 if it is numeric (`U64` widens losslessly up to
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as u64 if it is an unsigned integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

/// One structured event drained from a recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapEvent {
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Dense index of the recording thread.
    pub thread: usize,
    /// The event's key name.
    pub key: String,
    /// Field name/value pairs, in recording order.
    pub fields: Vec<(String, FieldValue)>,
}

impl SnapEvent {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Look up a numeric field by name.
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(FieldValue::as_f64)
    }

    /// Look up an unsigned-integer field by name.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(FieldValue::as_u64)
    }
}

/// One completed timing span. An unmatched `span_begin` is closed at its
/// own start time, so `duration_ns` is zero rather than garbage.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapSpan {
    /// The span's key name.
    pub(crate) key: String,
    /// Dense index of the thread that opened the span.
    pub thread: usize,
    /// Start, nanoseconds since the recorder was created.
    pub(crate) begin_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub(crate) end_ns: u64,
}

impl SnapSpan {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Everything a recorder captured, in owned form.
///
/// Aggregate instruments are keyed by name in sorted maps; the event
/// stream is globally ordered by timestamp with each thread's FIFO order
/// preserved (per-thread timestamps are monotonic, and the merge sort is
/// stable). `dropped_events` counts ring-buffer overwrites: when it is
/// nonzero the oldest events are missing and replay-style consumers
/// should fall back to the aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// f64 accumulators by name.
    pub(crate) accums: BTreeMap<String, f64>,
    /// Gauge statistics by name.
    pub(crate) gauges: BTreeMap<String, GaugeStats>,
    /// Structured events in timestamp order.
    pub events: Vec<SnapEvent>,
    /// Completed spans in start-time order.
    pub(crate) spans: Vec<SnapSpan>,
    /// Events lost to ring-buffer wrap-around.
    pub dropped_events: u64,
}

impl Snapshot {
    /// A counter's value, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// An accumulator's value, if it was ever touched.
    pub fn accum(&self, name: &str) -> Option<f64> {
        self.accums.get(name).copied()
    }

    /// A gauge's statistics, if it was ever sampled.
    pub fn gauge(&self, name: &str) -> Option<GaugeStats> {
        self.gauges.get(name).copied()
    }

    /// All events with the given key name, in stream order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SnapEvent> {
        self.events.iter().filter(move |e| e.key == name)
    }

    /// All completed spans with the given key name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SnapSpan> {
        self.spans.iter().filter(move |s| s.key == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_field_lookups() {
        let e = SnapEvent {
            t_ns: 7,
            thread: 0,
            key: "k".into(),
            fields: vec![
                ("a".into(), FieldValue::U64(3)),
                ("b".into(), FieldValue::F64(0.5)),
                ("c".into(), FieldValue::Str("x".into())),
            ],
        };
        assert_eq!(e.field_u64("a"), Some(3));
        assert_eq!(e.field_f64("a"), Some(3.0));
        assert_eq!(e.field_f64("b"), Some(0.5));
        assert_eq!(e.field_f64("c"), None);
        assert!(e.field("missing").is_none());
    }

    #[test]
    fn span_duration_saturates() {
        let s = SnapSpan { key: "s".into(), thread: 0, begin_ns: 10, end_ns: 4 };
        assert_eq!(s.duration_ns(), 0);
        let s = SnapSpan { key: "s".into(), thread: 0, begin_ns: 4, end_ns: 10 };
        assert_eq!(s.duration_ns(), 6);
    }
}
