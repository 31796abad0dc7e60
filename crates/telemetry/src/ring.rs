//! The ring-buffer recorder.
//!
//! [`RingRecorder`] splits its instruments by access pattern:
//!
//! - **Aggregates** (counters, f64 accumulators, gauges) live in
//!   fixed-capacity slot tables. A slot claims its key on first touch
//!   through a `OnceLock`; afterwards every update is one acquire load per
//!   slot scanned and a single atomic RMW on the slot — no lock, no
//!   allocation. f64 updates use a CAS loop over the value's bits.
//! - **Events and spans** go to one mutex-guarded ring per recorder,
//!   reserved at its capacity when the recorder is built and written only
//!   as entries arrive. Each entry carries its thread's dense index and a
//!   timestamp taken under the lock, so the ring is in time order. When
//!   the ring is full, the oldest entry is overwritten and counted in
//!   `Snapshot::dropped_events`.
//!
//! Recording allocates nothing after construction, which the airdrop
//! zero-overhead test pins down.
//!
//! Concurrency contract: any thread may record at any time, and
//! `snapshot()` may run concurrently with recording: it copies the ring
//! under the lock, so it holds every surviving entry recorded before it
//! and none after. Take snapshots at quiescent points (end of trial) for
//! complete traces.

use crate::snapshot::{FieldValue, GaugeStats, SnapEvent, SnapSpan, Snapshot};
use crate::{Key, Recorder, SpanId, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Maximum number of fields kept per structured event; extras are
/// silently dropped so the hot path never allocates.
pub(crate) const MAX_EVENT_FIELDS: usize = 4;

/// Number of slots in each aggregate table (distinct keys per instrument
/// family). The stack uses a couple dozen; overflowing keys are dropped.
const TABLE_SLOTS: usize = 64;

/// Default event ring capacity, in entries.
const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// Sentinel-packed f64 cell: `0` means "never written", otherwise the
/// stored value is `f64::from_bits(cell - 1)`. Packing sidesteps the
/// initialization race a plain `+inf` min / `-inf` max seed would have.
fn pack(x: f64) -> u64 {
    x.to_bits().wrapping_add(1)
}

fn unpack(cell: u64) -> Option<f64> {
    if cell == 0 {
        None
    } else {
        Some(f64::from_bits(cell.wrapping_sub(1)))
    }
}

/// One aggregate slot: a claimed key plus five atomic registers whose
/// meaning depends on the instrument family (see [`RingRecorder`]).
#[derive(Default)]
struct Slot {
    key: OnceLock<Key>,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
    d: AtomicU64,
    e: AtomicU64,
}

/// A fixed-capacity key → slot table (linear scan; the key universe is a
/// handful of static names, so scans stay short).
struct Table {
    slots: Box<[Slot]>,
}

impl Table {
    fn new() -> Self {
        Table { slots: (0..TABLE_SLOTS).map(|_| Slot::default()).collect() }
    }

    /// Find the slot for `key`, claiming the first empty slot when the
    /// key is new. Returns `None` when the table is full (the sample is
    /// dropped rather than blocking the hot path).
    fn slot(&self, key: Key) -> Option<&Slot> {
        self.slots.iter().find(|s| *s.key.get_or_init(|| key) == key)
    }

    /// The claimed slots with their key names.
    fn claimed(&self) -> impl Iterator<Item = (String, &Slot)> {
        self.slots.iter().filter_map(|s| Some((s.key.get()?.0.to_string(), s)))
    }
}

/// Lock-free `cell = op(cell)` over sentinel-packed f64 bits.
fn update_packed(cell: &AtomicU64, mut op: impl FnMut(Option<f64>) -> Option<f64>) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = match op(unpack(cur)) {
            Some(v) => pack(v),
            None => return,
        };
        match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One raw entry in the event ring. `Copy` and field-bounded so a write
/// is a plain memcpy.
#[derive(Clone, Copy)]
struct TraceEntry {
    t_ns: u64,
    thread: usize,
    key: Key,
    kind: EntryKind,
    span: u64,
    n_fields: u8,
    fields: [(Key, Value); MAX_EVENT_FIELDS],
}

#[derive(Clone, Copy, PartialEq)]
enum EntryKind {
    Event,
    SpanBegin,
    SpanEnd,
}

/// The event ring: the newest entries in recording order, and how many
/// older ones they overwrote.
struct Trace {
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

/// Dense per-process thread indices for snapshot labelling.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's dense index, assigned on first telemetry use.
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// The aggregating + tracing [`Recorder`] implementation.
///
/// Aggregate semantics per table: counters use register `a` as the
/// running sum; accumulators keep call-ordered f64 bits in `a`; gauges
/// use `a`=last (packed), `b`=count, `c`=sum (packed), `d`=min (packed),
/// `e`=max (packed).
pub struct RingRecorder {
    capacity: usize,
    epoch: Instant,
    counters: Table,
    accums: Table,
    gauges: Table,
    trace: Mutex<Trace>,
    next_span: AtomicU64,
}

impl RingRecorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose one event ring holds `capacity` entries before
    /// wrapping. The capacity is per recorder, shared by every thread that
    /// records events or spans into it (dropped events are counted, never
    /// silently reordered).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            capacity,
            epoch: Instant::now(),
            counters: Table::new(),
            accums: Table::new(),
            gauges: Table::new(),
            trace: Mutex::new(Trace { entries: VecDeque::with_capacity(capacity), dropped: 0 }),
            next_span: AtomicU64::new(1),
        }
    }

    fn push_entry(&self, key: Key, kind: EntryKind, span: u64, fields: &[(Key, Value)]) {
        let n = fields.len().min(MAX_EVENT_FIELDS);
        let mut entry = TraceEntry {
            t_ns: 0,
            thread: THREAD_INDEX.with(|t| *t),
            key,
            kind,
            span,
            n_fields: n as u8,
            fields: [(Key(""), Value::U64(0)); MAX_EVENT_FIELDS],
        };
        entry.fields[..n].copy_from_slice(&fields[..n]);
        // Every update leaves the ring whole, so a poisoned lock is still
        // a valid ring, and recording never panics.
        let mut trace = self.trace.lock().unwrap_or_else(PoisonError::into_inner);
        entry.t_ns = self.epoch.elapsed().as_nanos() as u64;
        if trace.entries.len() == self.capacity {
            trace.entries.pop_front();
            trace.dropped += 1;
        }
        trace.entries.push_back(entry);
    }

    /// Collect everything recorded so far into an owned [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();

        for (name, slot) in self.counters.claimed() {
            snap.counters.insert(name, slot.a.load(Ordering::Acquire));
        }
        for (name, slot) in self.accums.claimed() {
            snap.accums.insert(name, unpack(slot.a.load(Ordering::Acquire)).unwrap_or(0.0));
        }
        for (name, slot) in self.gauges.claimed() {
            let stats = GaugeStats {
                last: unpack(slot.a.load(Ordering::Acquire)).unwrap_or(f64::NAN),
                count: slot.b.load(Ordering::Acquire),
                sum: unpack(slot.c.load(Ordering::Acquire)).unwrap_or(0.0),
                min: unpack(slot.d.load(Ordering::Acquire)).unwrap_or(f64::NAN),
                max: unpack(slot.e.load(Ordering::Acquire)).unwrap_or(f64::NAN),
            };
            snap.gauges.insert(name, stats);
        }

        // Copy the ring out, so that recorders wait for the copy only, not
        // for the conversion to owned strings.
        let entries: Vec<TraceEntry> = {
            let trace = self.trace.lock().unwrap_or_else(PoisonError::into_inner);
            snap.dropped_events = trace.dropped;
            trace.entries.iter().copied().collect()
        };

        let mut open: Vec<(u64, String, usize, u64)> = Vec::new();
        for entry in entries {
            match entry.kind {
                EntryKind::Event => {
                    let fields = entry.fields[..entry.n_fields as usize]
                        .iter()
                        .map(|(k, v)| {
                            let fv = match *v {
                                Value::U64(x) => FieldValue::U64(x),
                                Value::F64(x) => FieldValue::F64(x),
                                Value::Bool(x) => FieldValue::Bool(x),
                                Value::Str(x) => FieldValue::Str(x.to_string()),
                            };
                            (k.0.to_string(), fv)
                        })
                        .collect();
                    snap.events.push(SnapEvent {
                        t_ns: entry.t_ns,
                        thread: entry.thread,
                        key: entry.key.0.to_string(),
                        fields,
                    });
                }
                EntryKind::SpanBegin => {
                    open.push((entry.span, entry.key.0.to_string(), entry.thread, entry.t_ns));
                }
                EntryKind::SpanEnd => {
                    if let Some(pos) = open.iter().rposition(|(id, ..)| *id == entry.span) {
                        let (_, key, thread, begin_ns) = open.remove(pos);
                        snap.spans.push(SnapSpan { key, thread, begin_ns, end_ns: entry.t_ns });
                    }
                }
            }
        }
        // Close dangling spans at their own start so they stay visible.
        for (_, key, thread, begin_ns) in open {
            snap.spans.push(SnapSpan { key, thread, begin_ns, end_ns: begin_ns });
        }
        snap.spans.sort_by_key(|s| s.begin_ns);
        snap
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingRecorder").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl Recorder for RingRecorder {
    fn counter_add(&self, key: Key, delta: u64) {
        if let Some(slot) = self.counters.slot(key) {
            slot.a.fetch_add(delta, Ordering::AcqRel);
        }
    }

    fn accum_add(&self, key: Key, delta: f64) {
        if let Some(slot) = self.accums.slot(key) {
            update_packed(&slot.a, |cur| Some(cur.unwrap_or(0.0) + delta));
        }
    }

    fn gauge_set(&self, key: Key, value: f64) {
        if let Some(slot) = self.gauges.slot(key) {
            update_packed(&slot.a, |_| Some(value));
            slot.b.fetch_add(1, Ordering::AcqRel);
            update_packed(&slot.c, |cur| Some(cur.unwrap_or(0.0) + value));
            update_packed(&slot.d, |cur| match cur {
                Some(m) if m <= value => None,
                _ => Some(value),
            });
            update_packed(&slot.e, |cur| match cur {
                Some(m) if m >= value => None,
                _ => Some(value),
            });
        }
    }

    fn span_begin(&self, key: Key) -> SpanId {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.push_entry(key, EntryKind::SpanBegin, id, &[]);
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        if id.0 != 0 {
            self.push_entry(Key(""), EntryKind::SpanEnd, id.0, &[]);
        }
    }

    fn event(&self, key: Key, fields: &[(Key, Value)]) {
        self.push_entry(key, EntryKind::Event, 0, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_and_accums_aggregate_in_order() {
        let r = RingRecorder::new();
        r.counter_add(Key("c.x"), 2);
        r.counter_add(Key("c.x"), 3);
        r.counter_add(Key("c.y"), 1);
        let mut expect = 0.0f64;
        for i in 0..100 {
            let d = (i as f64) * 0.1 + 0.01;
            r.accum_add(Key("a.sum"), d);
            expect += d;
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("c.x"), Some(5));
        assert_eq!(snap.counter("c.y"), Some(1));
        assert_eq!(snap.counter("c.z"), None);
        // Call-ordered adds reproduce the caller's own sum bit for bit.
        assert_eq!(snap.accum("a.sum").unwrap().to_bits(), expect.to_bits());
    }

    #[test]
    fn gauges_track_last_count_sum_min_max() {
        let r = RingRecorder::new();
        for v in [3.0, -1.0, 7.0, 2.0] {
            r.gauge_set(Key("g"), v);
        }
        let g = r.snapshot().gauge("g").unwrap();
        assert_eq!(g.last, 2.0);
        assert_eq!(g.count, 4);
        assert_eq!(g.sum, 11.0);
        assert_eq!(g.min, -1.0);
        assert_eq!(g.max, 7.0);
    }

    #[test]
    fn events_preserve_thread_fifo_order_and_fields() {
        let r = RingRecorder::new();
        for i in 0..5u64 {
            r.event(
                Key("tick"),
                &[(Key("i"), Value::U64(i)), (Key("half"), Value::F64(i as f64 / 2.0))],
            );
        }
        let snap = r.snapshot();
        let ticks: Vec<_> = snap.events_named("tick").collect();
        assert_eq!(ticks.len(), 5);
        for (i, e) in ticks.iter().enumerate() {
            assert_eq!(e.field_u64("i"), Some(i as u64));
            assert_eq!(e.field_f64("half"), Some(i as f64 / 2.0));
        }
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn ring_wrap_counts_dropped_events() {
        let r = RingRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.event(Key("e"), &[(Key("i"), Value::U64(i))]);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 8);
        assert_eq!(snap.dropped_events, 12);
        // The survivors are the newest entries, still in order.
        assert_eq!(snap.events[0].field_u64("i"), Some(12));
        assert_eq!(snap.events[7].field_u64("i"), Some(19));
    }

    /// Assert what every snapshot of one writer's `seq` stream into a
    /// capacity-8 ring must hold, whenever it is taken: at most 8 events,
    /// each with the fields it was recorded with, numbered consecutively
    /// from the count of overwritten ones.
    fn assert_consistent_tail(snap: &Snapshot) {
        assert!(snap.events.len() <= 8, "{} events in a ring of 8", snap.events.len());
        for (k, e) in snap.events.iter().enumerate() {
            assert_eq!(e.key, "seq");
            assert_eq!(e.field("tag"), Some(&FieldValue::Str("writer".into())));
            assert_eq!(e.fields.len(), 2);
            assert_eq!(e.field_u64("i"), Some(snap.dropped_events + k as u64));
        }
    }

    #[test]
    fn snapshots_taken_while_the_ring_wraps_see_whole_entries() {
        const WRITTEN: u64 = 100_000;
        let r = Arc::new(RingRecorder::with_capacity(8));
        let start = Arc::new(std::sync::Barrier::new(2));
        let writer = {
            let (r, start) = (r.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..WRITTEN {
                    r.event(
                        Key("seq"),
                        &[(Key("i"), Value::U64(i)), (Key("tag"), Value::Str("writer"))],
                    );
                }
            })
        };
        start.wait();
        // Snapshot until one taken after the writer ended.
        loop {
            let done = writer.is_finished();
            assert_consistent_tail(&r.snapshot());
            if done {
                break;
            }
        }
        writer.join().unwrap();
        let snap = r.snapshot();
        assert_consistent_tail(&snap);
        assert_eq!(snap.events.len() as u64 + snap.dropped_events, WRITTEN);
    }

    #[test]
    fn two_writers_keep_their_own_order_and_thread_labels() {
        const EACH: u64 = 2_000;
        let r = Arc::new(RingRecorder::new());
        let start = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (r, start) = (r.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        r.event(
                            Key("tick"),
                            &[(Key("writer"), Value::U64(w)), (Key("i"), Value::U64(i))],
                        );
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.dropped_events, 0);
        assert_eq!(snap.events.len() as u64, 2 * EACH);
        assert!(snap.events.windows(2).all(|p| p[0].t_ns <= p[1].t_ns), "ring is in time order");
        let mut labels = Vec::new();
        for w in 0..2u64 {
            let mine: Vec<_> =
                snap.events.iter().filter(|e| e.field_u64("writer") == Some(w)).collect();
            let seq: Vec<u64> = mine.iter().map(|e| e.field_u64("i").unwrap()).collect();
            assert_eq!(seq, (0..EACH).collect::<Vec<_>>(), "writer {w} lost its FIFO order");
            assert!(mine.iter().all(|e| e.thread == mine[0].thread), "writer {w} changed label");
            labels.push(mine[0].thread);
        }
        assert_ne!(labels[0], labels[1], "two threads share one label");
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let r = RingRecorder::new();
        let outer = r.span_begin(Key("outer"));
        let inner = r.span_begin(Key("inner"));
        r.span_end(inner);
        r.span_end(outer);
        let dangling = r.span_begin(Key("dangling"));
        assert_ne!(dangling, SpanId(0));
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let outer = snap.spans_named("outer").next().unwrap();
        let inner = snap.spans_named("inner").next().unwrap();
        assert!(outer.begin_ns <= inner.begin_ns);
        assert!(outer.end_ns >= inner.end_ns);
        let dangling = snap.spans_named("dangling").next().unwrap();
        assert_eq!(dangling.duration_ns(), 0);
    }

    #[test]
    fn concurrent_counters_from_many_threads_sum_exactly() {
        let r = Arc::new(RingRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.counter_add(Key("n"), 1);
                        r.accum_add(Key("s"), 1.0);
                    }
                    r.event(Key("done"), &[]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(40_000));
        // Adding 1.0 is exact regardless of interleaving.
        assert_eq!(snap.accum("s"), Some(40_000.0));
        assert_eq!(snap.events_named("done").count(), 4);
    }

    #[test]
    fn distinct_recorders_do_not_share_state() {
        let a = RingRecorder::new();
        let b = RingRecorder::new();
        a.counter_add(Key("k"), 1);
        a.event(Key("e"), &[]);
        b.counter_add(Key("k"), 10);
        assert_eq!(a.snapshot().counter("k"), Some(1));
        assert_eq!(b.snapshot().counter("k"), Some(10));
        assert_eq!(b.snapshot().events.len(), 0);
    }
}
