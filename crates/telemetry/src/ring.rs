//! The lock-free ring-buffer recorder.
//!
//! [`RingRecorder`] splits its instruments by access pattern:
//!
//! - **Aggregates** (counters, f64 accumulators, gauges) live in global
//!   fixed-capacity slot tables. A slot is claimed for a key on first
//!   touch with a compare-and-swap on an `AtomicPtr`; afterwards every
//!   update is a single atomic RMW on the slot — no locks, no
//!   allocation. f64 updates use a CAS loop over the value's bits.
//! - **Events and spans** stream into per-thread single-writer ring
//!   buffers ("shards"). The owning thread writes an entry and publishes
//!   it with a release store of the head index; [`RingRecorder::snapshot`]
//!   reads heads with acquire loads. When a ring wraps, the oldest
//!   entries are overwritten and counted in `Snapshot::dropped_events`.
//!
//! The hot path allocates only on first touch: one small box per new
//! key, one ring buffer per new (recorder, thread) pair. Steady-state
//! recording is allocation-free, which the airdrop zero-overhead test
//! pins down.
//!
//! Concurrency contract: any thread may record at any time; `snapshot()`
//! may run concurrently with recording and sees a consistent prefix of
//! each shard, but events beyond a wrapped ring are lost. Take snapshots
//! at quiescent points (end of trial) for complete traces.

use crate::snapshot::{FieldValue, GaugeStats, SnapEvent, SnapSpan, Snapshot};
use crate::{Key, Recorder, SpanId, Value};
use std::cell::{RefCell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Maximum number of fields kept per structured event; extras are
/// silently dropped so the hot path never allocates.
pub(crate) const MAX_EVENT_FIELDS: usize = 4;

/// Number of slots in each aggregate table (distinct keys per instrument
/// family). The stack uses a couple dozen; overflowing keys are dropped.
const TABLE_SLOTS: usize = 64;

/// Default per-thread event ring capacity, in events.
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
/// meaning depends on the instrument family (see `Table`).
struct Slot {
    key: AtomicPtr<Key>,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
    d: AtomicU64,
    e: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            key: AtomicPtr::new(ptr::null_mut()),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
            d: AtomicU64::new(0),
            e: AtomicU64::new(0),
        }
    }

    fn key_name(&self) -> Option<&'static str> {
        let p = self.key.load(Ordering::Acquire);
        // SAFETY: a non-null pointer was published by `Table::slot` from
        // `Box::into_raw` and is only freed in `Table::drop`, which takes
        // `&mut self` and therefore cannot race with this shared read.
        if p.is_null() {
            None
        } else {
            Some(unsafe { (*p).0 })
        }
    }
}

/// A fixed-capacity, lock-free key → slot table (linear scan; the key
/// universe is a handful of static names, so scans stay short).
struct Table {
    slots: Box<[Slot]>,
}

impl Table {
    fn new() -> Self {
        Table { slots: (0..TABLE_SLOTS).map(|_| Slot::empty()).collect() }
    }

    /// Find the slot for `key`, claiming the first empty slot when the
    /// key is new. Returns `None` when the table is full (the sample is
    /// dropped rather than blocking the hot path).
    fn slot(&self, key: Key) -> Option<&Slot> {
        for s in self.slots.iter() {
            let p = s.key.load(Ordering::Acquire);
            if p.is_null() {
                let claim = Box::into_raw(Box::new(key));
                match s.key.compare_exchange(
                    ptr::null_mut(),
                    claim,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(s),
                    Err(winner) => {
                        // Lost the claim race: free our box and fall
                        // through to checking the winner's key.
                        // SAFETY: `claim` was never published.
                        drop(unsafe { Box::from_raw(claim) });
                        // SAFETY: `winner` is non-null and published (see
                        // `key_name`).
                        if unsafe { (*winner).0 } == key.0 {
                            return Some(s);
                        }
                    }
                }
            // SAFETY: non-null published pointer (see `key_name`).
            } else if unsafe { (*p).0 } == key.0 {
                return Some(s);
            }
        }
        None
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        for s in self.slots.iter_mut() {
            let p = *s.key.get_mut();
            if !p.is_null() {
                // SAFETY: published by `slot` from `Box::into_raw`;
                // `&mut self` guarantees no concurrent reader.
                drop(unsafe { Box::from_raw(p) });
            }
        }
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

/// One raw entry in a per-thread ring. `Copy` and field-bounded so a
/// write is a plain memcpy.
#[derive(Clone, Copy)]
struct TraceEntry {
    t_ns: u64,
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

impl TraceEntry {
    fn blank() -> Self {
        TraceEntry {
            t_ns: 0,
            key: Key(""),
            kind: EntryKind::Event,
            span: 0,
            n_fields: 0,
            fields: [(Key(""), Value::U64(0)); MAX_EVENT_FIELDS],
        }
    }
}

/// A single-writer ring buffer owned by one recording thread.
///
/// The owner writes `ring[head % cap]` and then publishes with a release
/// store of `head + 1`; readers acquire-load `head` and read the
/// published prefix. Entries older than `head - cap` have been
/// overwritten and are reported as dropped.
struct Shard {
    thread: usize,
    head: AtomicU64,
    ring: UnsafeCell<Box<[TraceEntry]>>,
}

// SAFETY: the ring is written only by its owning thread (enforced by the
// thread-local shard registry) and published via the release/acquire
// `head` protocol; readers only touch published entries.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    fn new(thread: usize, capacity: usize) -> Self {
        Shard {
            thread,
            head: AtomicU64::new(0),
            ring: UnsafeCell::new(vec![TraceEntry::blank(); capacity].into_boxed_slice()),
        }
    }

    /// Owner-thread-only append.
    fn push(&self, entry: TraceEntry) {
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: only the owning thread calls `push` (the shard is found
        // through thread-local storage), so this is the unique writer.
        let ring = unsafe { &mut *self.ring.get() };
        let cap = ring.len() as u64;
        ring[(head % cap) as usize] = entry;
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reader-side drain of the currently published entries, oldest
    /// first. Returns `(entries, dropped)`.
    fn drain(&self) -> (Vec<TraceEntry>, u64) {
        let head = self.head.load(Ordering::Acquire);
        // SAFETY: shared read of published entries; concurrent writes
        // only touch the unpublished `head % cap` cell.
        let ring = unsafe { &*self.ring.get() };
        let cap = ring.len() as u64;
        let n = head.min(cap);
        let start = head - n;
        let out = (start..head).map(|i| ring[(i % cap) as usize]).collect();
        (out, head - n)
    }
}

/// A unique id per `RingRecorder`, keying the thread-local shard cache.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Dense per-process thread indices for snapshot labelling.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's dense index, assigned on first telemetry use.
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);

    /// Cache of (recorder id → shard) for rings this thread writes to.
    /// Entries hold `Weak` references so a dropped recorder's rings are
    /// freed promptly; dead entries are pruned on the next miss.
    static LOCAL_SHARDS: RefCell<Vec<(u64, Weak<Shard>)>> = const { RefCell::new(Vec::new()) };
}

/// The lock-free aggregating + tracing [`Recorder`] implementation.
///
/// Aggregate semantics per table: counters use register `a` as the
/// running sum; accumulators keep call-ordered f64 bits in `a`; gauges
/// use `a`=last (packed), `b`=count, `c`=sum (packed), `d`=min (packed),
/// `e`=max (packed).
pub struct RingRecorder {
    id: u64,
    capacity: usize,
    epoch: Instant,
    counters: Table,
    accums: Table,
    gauges: Table,
    shards: Mutex<Vec<Arc<Shard>>>,
    next_span: AtomicU64,
}

impl RingRecorder {
    /// A recorder with the default per-thread ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose per-thread event rings hold `capacity` entries
    /// before wrapping (dropped events are counted, never silently
    /// reordered).
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            counters: Table::new(),
            accums: Table::new(),
            gauges: Table::new(),
            shards: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` against this thread's shard, creating and registering the
    /// shard on first use (the only allocating path).
    fn with_shard<R>(&self, f: impl FnOnce(&Shard) -> R) -> R {
        LOCAL_SHARDS.with(|cell| {
            let mut local = cell.borrow_mut();
            if let Some(shard) =
                local.iter().find(|(id, _)| *id == self.id).and_then(|(_, w)| w.upgrade())
            {
                return f(&shard);
            }
            local.retain(|(_, w)| w.strong_count() > 0);
            let thread = THREAD_INDEX.with(|t| *t);
            let shard = Arc::new(Shard::new(thread, self.capacity));
            self.shards.lock().unwrap().push(shard.clone());
            local.push((self.id, Arc::downgrade(&shard)));
            f(&shard)
        })
    }

    fn push_entry(&self, key: Key, kind: EntryKind, span: u64, fields: &[(Key, Value)]) {
        let mut entry = TraceEntry::blank();
        entry.t_ns = self.now_ns();
        entry.key = key;
        entry.kind = kind;
        entry.span = span;
        let n = fields.len().min(MAX_EVENT_FIELDS);
        entry.fields[..n].copy_from_slice(&fields[..n]);
        entry.n_fields = n as u8;
        self.with_shard(|shard| shard.push(entry));
    }

    /// Collect everything recorded so far into an owned [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();

        for slot in self.counters.slots.iter() {
            if let Some(name) = slot.key_name() {
                snap.counters.insert(name.to_string(), slot.a.load(Ordering::Acquire));
            }
        }
        for slot in self.accums.slots.iter() {
            if let Some(name) = slot.key_name() {
                let v = unpack(slot.a.load(Ordering::Acquire)).unwrap_or(0.0);
                snap.accums.insert(name.to_string(), v);
            }
        }
        for slot in self.gauges.slots.iter() {
            if let Some(name) = slot.key_name() {
                let stats = GaugeStats {
                    last: unpack(slot.a.load(Ordering::Acquire)).unwrap_or(f64::NAN),
                    count: slot.b.load(Ordering::Acquire),
                    sum: unpack(slot.c.load(Ordering::Acquire)).unwrap_or(0.0),
                    min: unpack(slot.d.load(Ordering::Acquire)).unwrap_or(f64::NAN),
                    max: unpack(slot.e.load(Ordering::Acquire)).unwrap_or(f64::NAN),
                };
                snap.gauges.insert(name.to_string(), stats);
            }
        }

        // Merge shard streams: each shard is already in time order, and a
        // stable sort keeps that FIFO order under timestamp ties.
        let mut entries: Vec<(TraceEntry, usize)> = Vec::new();
        for shard in self.shards.lock().unwrap().iter() {
            let (drained, dropped) = shard.drain();
            snap.dropped_events += dropped;
            entries.extend(drained.into_iter().map(|e| (e, shard.thread)));
        }
        entries.sort_by_key(|(e, _)| e.t_ns);

        let mut open: Vec<(u64, String, usize, u64)> = Vec::new();
        for (entry, thread) in entries {
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
                        thread,
                        key: entry.key.0.to_string(),
                        fields,
                    });
                }
                EntryKind::SpanBegin => {
                    open.push((entry.span, entry.key.0.to_string(), thread, entry.t_ns));
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
        f.debug_struct("RingRecorder")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
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
