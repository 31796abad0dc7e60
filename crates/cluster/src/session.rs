//! The cluster session: a simulated clock plus energy integration.
//!
//! Backends narrate their execution to a session as a sequence of phases:
//!
//! * [`ClusterSession::compute`] — `units` of work spread over `streams`
//!   parallel streams on one node;
//! * `ClusterSession::concurrent` — compute proceeding on several nodes
//!   at once (the distributed rollout phase), advancing the clock by the
//!   slowest participant;
//! * [`ClusterSession::transfer`] — a blocking inter-node message;
//! * `ClusterSession::overhead` — framework bookkeeping time charged at
//!   single-core activity.
//!
//! Idle power of every allocated node accrues for the full wall time, so
//! a 2-node deployment that does not speed up enough *costs more energy*
//! than the single-node one — the effect behind the paper's §VI-B
//! observation that intra-node parallelism is the more efficient choice.

use crate::keys;
use crate::power::PowerModel;
use crate::spec::ClusterSpec;
use crate::usage::Usage;
use std::fmt;
use telemetry::{SharedRecorder, Value};

/// A compute demand on one node (used by `ClusterSession::concurrent`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeWork {
    /// Node index (`< spec.nodes`).
    pub node: usize,
    /// Work units to retire.
    pub units: f64,
    /// Parallel streams (≤ cores; extra streams round-robin).
    pub streams: usize,
}

/// An accounting event: the event-sourced form of the narration API.
///
/// Execution runtimes emit these instead of calling the imperative
/// [`ClusterSession`] methods directly; [`ClusterSession::apply`] folds
/// them into the clock, the energy integral and the recorded
/// `session.*` events. One event maps to exactly one phase, so a record
/// replayed from a stream of events is identical to one narrated
/// imperatively.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// Compute proceeding on one or more nodes at once.
    Compute {
        /// Per-node demands (non-empty).
        work: Vec<NodeWork>,
    },
    /// A blocking inter-node transfer.
    Transfer {
        /// Payload size.
        bytes: u64,
    },
    /// Framework bookkeeping time.
    Overhead {
        /// Duration (s).
        seconds: f64,
    },
}

/// Simulated execution of one training run on the cluster.
///
/// Every accounting update is mirrored into the session's
/// [`telemetry::Recorder`] (a [`telemetry::NullRecorder`] by default) in
/// the same arithmetic order, so [`crate::usage::Usage::from_snapshot`]
/// rebuilds [`ClusterSession::finish`]'s report bit for bit from a
/// recorded snapshot. The recorded [`keys::PHASE`] and [`keys::TRANSFER`]
/// events are the session's execution record: each carries its start on
/// the simulated clock, which only moves forward, so they arrive sorted
/// by start and tile the clock ([`crate::render_gantt`] draws them).
#[derive(Clone)]
pub struct ClusterSession {
    spec: ClusterSpec,
    power: PowerModel,
    clock_s: f64,
    active_j: f64,
    usage: Usage,
    recorder: SharedRecorder,
}

impl fmt::Debug for ClusterSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSession")
            .field("spec", &self.spec)
            .field("clock_s", &self.clock_s)
            .field("active_j", &self.active_j)
            .field("usage", &self.usage)
            .finish_non_exhaustive()
    }
}

impl ClusterSession {
    /// Start a session on the given cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_recorder(spec, telemetry::null_recorder())
    }

    /// Start a session whose accounting is mirrored into `recorder` (see
    /// [`crate::keys`] for the instruments written).
    pub fn with_recorder(spec: ClusterSpec, recorder: SharedRecorder) -> Self {
        let power = PowerModel::new(spec.node);
        Self { spec, power, clock_s: 0.0, active_j: 0.0, usage: Usage::default(), recorder }
    }

    /// A clone of the session's recorder handle, for sharing with the
    /// other instrumented layers of a run (drivers, runtimes, envs).
    pub fn recorder(&self) -> SharedRecorder {
        self.recorder.clone()
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current simulated clock (s).
    pub fn now(&self) -> f64 {
        self.clock_s
    }

    /// Fold one accounting event into the session; returns the wall time
    /// the event consumed. See [`SessionEvent`].
    pub fn apply(&mut self, event: &SessionEvent) -> f64 {
        match event {
            SessionEvent::Compute { work } => self.concurrent(work),
            SessionEvent::Transfer { bytes } => self.transfer(*bytes),
            SessionEvent::Overhead { seconds } => {
                self.overhead(*seconds);
                *seconds
            }
        }
    }

    /// Duration of `units` of work over `streams` streams on one node.
    ///
    /// Streams beyond the core count time-share: 6 streams on 4 cores run
    /// at 4 cores' throughput. The duration is governed by the busiest
    /// core (ceil division of streams onto cores).
    pub fn compute_duration(&self, units: f64, streams: usize) -> f64 {
        assert!(streams > 0, "compute needs at least one stream");
        let cores = self.spec.node.cores;
        let used = streams.min(cores);
        // Load per stream, times streams per busiest core.
        let per_stream = units / streams as f64;
        let streams_on_busiest = streams.div_ceil(used);
        self.spec.node.seconds_for(per_stream * streams_on_busiest as f64)
    }

    /// Run `units` of work in `streams` parallel streams on `node`.
    pub fn compute(&mut self, node: usize, units: f64, streams: usize) -> f64 {
        self.concurrent(&[NodeWork { node, units, streams }])
    }

    /// Run compute on several nodes at once; the clock advances by the
    /// slowest node, each node's active energy accrues for its own busy
    /// duration.
    pub(crate) fn concurrent(&mut self, work: &[NodeWork]) -> f64 {
        assert!(!work.is_empty());
        let mut wall = 0.0f64;
        for w in work {
            assert!(w.node < self.spec.nodes, "node {} out of range", w.node);
            let d = self.compute_duration(w.units, w.streams);
            let busy = w.streams.min(self.spec.node.cores) as f64;
            let joules = self.power.active_joules(busy, d);
            self.active_j += joules;
            self.recorder.accum_add(keys::ACTIVE_J, joules);
            self.recorder.event(
                keys::PHASE,
                &[
                    (keys::PHASE_NODE, Value::U64(w.node as u64)),
                    (keys::PHASE_BUSY, Value::F64(busy)),
                    (keys::PHASE_SECONDS, Value::F64(d)),
                    (keys::PHASE_START_S, Value::F64(self.clock_s)),
                ],
            );
            self.recorder.gauge_set(keys::BUSY_FRACTION, busy / self.spec.node.cores as f64);
            wall = wall.max(d);
        }
        self.clock_s += wall;
        self.usage.compute_s += wall;
        self.usage.compute_phases += 1;
        self.recorder.accum_add(keys::WALL_S, wall);
        self.recorder.accum_add(keys::COMPUTE_S, wall);
        self.recorder.counter_add(keys::COMPUTE_PHASES, 1);
        wall
    }

    /// A blocking transfer of `bytes` between two nodes.
    ///
    /// On a single-node cluster, inter-process traffic stays on the
    /// loopback/shared memory and is charged at 1/20 of the wire time
    /// (still nonzero: serialization is not free).
    pub fn transfer(&mut self, bytes: u64) -> f64 {
        let wire = self.spec.network.transfer_time(bytes);
        let t = if self.spec.nodes > 1 { wire } else { wire / 20.0 };
        self.recorder.event(
            keys::TRANSFER,
            &[
                (keys::TRANSFER_BYTES, Value::U64(bytes)),
                (keys::PHASE_SECONDS, Value::F64(t)),
                (keys::PHASE_START_S, Value::F64(self.clock_s)),
            ],
        );
        self.clock_s += t;
        self.usage.network_s += t;
        self.usage.bytes_moved += bytes;
        self.usage.transfers += 1;
        self.recorder.accum_add(keys::WALL_S, t);
        self.recorder.accum_add(keys::NETWORK_S, t);
        self.recorder.counter_add(keys::BYTES_MOVED, bytes);
        self.recorder.counter_add(keys::TRANSFERS, 1);
        t
    }

    /// Framework bookkeeping time (sampling batches, Python-side glue in
    /// the originals), charged at one active core on node 0.
    pub(crate) fn overhead(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        let start_s = self.clock_s;
        let joules = self.power.active_joules(1.0, seconds);
        self.active_j += joules;
        self.clock_s += seconds;
        self.usage.compute_s += seconds;
        self.recorder.accum_add(keys::ACTIVE_J, joules);
        self.recorder.event(
            keys::PHASE,
            &[
                (keys::PHASE_BUSY, Value::F64(1.0)),
                (keys::PHASE_SECONDS, Value::F64(seconds)),
                (keys::PHASE_START_S, Value::F64(start_s)),
            ],
        );
        self.recorder.accum_add(keys::WALL_S, seconds);
        self.recorder.accum_add(keys::COMPUTE_S, seconds);
    }

    /// Record real bytes measured on a worker transport's wire. Purely
    /// observational: the counter lands in [`Usage::wire_bytes`] (and the
    /// `keys::WIRE_BYTES` instrument) but never moves the simulated
    /// clock or the energy integral — the interconnect model is
    /// calibrated against the paper's testbed, not the host's sockets.
    pub fn observe_wire(&mut self, bytes: u64) {
        self.usage.wire_bytes += bytes;
        self.recorder.counter_add(keys::WIRE_BYTES, bytes);
    }

    /// Finish the session: fold in the idle energy of every allocated node
    /// over the full wall time and return the usage report.
    pub fn finish(mut self) -> Usage {
        self.usage.wall_s = self.clock_s;
        self.usage.energy_j = self.active_j + self.clock_s * self.spec.total_idle_watts();
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NetworkSpec, NodeSpec};
    use std::sync::Arc;
    use telemetry::{FieldValue, RingRecorder};

    fn session(nodes: usize) -> ClusterSession {
        ClusterSession::new(ClusterSpec::paper_testbed(nodes))
    }

    #[test]
    fn more_streams_cut_compute_time() {
        let s = session(1);
        let t1 = s.compute_duration(36_000.0, 1);
        let t2 = s.compute_duration(36_000.0, 2);
        let t4 = s.compute_duration(36_000.0, 4);
        assert!(t1 > t2 && t2 > t4, "{t1} {t2} {t4}");
        assert!((t1 / t4 - 4.0).abs() < 1e-9, "4 cores give 4x on divisible work");
    }

    #[test]
    fn oversubscription_does_not_speed_up() {
        let s = session(1);
        let t4 = s.compute_duration(36_000.0, 4);
        let t8 = s.compute_duration(36_000.0, 8);
        assert!((t8 - t4).abs() < 1e-9, "8 streams on 4 cores = 4-core throughput");
    }

    #[test]
    fn uneven_streams_are_governed_by_busiest_core() {
        let s = session(1);
        // 5 streams on 4 cores: busiest core runs 2 streams.
        let t5 = s.compute_duration(50_000.0, 5);
        let expect = s.spec().node.seconds_for(50_000.0 / 5.0 * 2.0);
        assert!((t5 - expect).abs() < 1e-9);
    }

    #[test]
    fn concurrent_nodes_overlap() {
        let mut one = session(2);
        one.compute(0, 36_000.0, 4);
        one.compute(1, 36_000.0, 4);
        let serial = one.now();

        let mut two = session(2);
        two.concurrent(&[
            NodeWork { node: 0, units: 36_000.0, streams: 4 },
            NodeWork { node: 1, units: 36_000.0, streams: 4 },
        ]);
        assert!((two.now() - serial / 2.0).abs() < 1e-9, "perfect overlap halves wall time");
    }

    #[test]
    fn energy_includes_idle_of_all_nodes() {
        // Same work, same single-node compute; the 2-node session must
        // burn more energy because the second node idles.
        let mut a = session(1);
        a.compute(0, 36_000.0, 4);
        let ua = a.finish();

        let mut b = session(2);
        b.compute(0, 36_000.0, 4);
        let ub = b.finish();

        assert!((ua.wall_s - ub.wall_s).abs() < 1e-12);
        assert!(ub.energy_j > ua.energy_j, "idle second node costs energy");
        let idle_extra = NodeSpec::default().idle_watts * ua.wall_s;
        assert!((ub.energy_j - ua.energy_j - idle_extra).abs() < 1e-6);
    }

    #[test]
    fn fewer_cores_less_power_more_time() {
        // The §VI-D trade-off: 2 cores vs 4 cores on the same work.
        let run = |streams: usize| {
            let mut s = session(1);
            s.compute(0, 360_000.0, streams);
            s.finish()
        };
        let two = run(2);
        let four = run(4);
        assert!(two.wall_s > four.wall_s, "4 cores are faster");
        assert!(two.mean_watts() < four.mean_watts(), "2 cores draw less power");
    }

    #[test]
    fn transfer_cheaper_within_a_node() {
        let mut local = session(1);
        let tl = local.transfer(1_000_000);
        let mut remote = session(2);
        let tr = remote.transfer(1_000_000);
        assert!(tr > tl * 10.0, "wire transfer {tr} vs local {tl}");
    }

    #[test]
    fn transfer_accounts_bytes_and_time() {
        let mut s = session(2);
        s.transfer(2_000_000);
        s.transfer(1_000_000);
        let u = s.finish();
        assert_eq!(u.bytes_moved, 3_000_000);
        assert_eq!(u.transfers, 2);
        let expect = NetworkSpec::default().transfer_time(2_000_000)
            + NetworkSpec::default().transfer_time(1_000_000);
        assert!((u.network_s - expect).abs() < 1e-12);
        assert!((u.wall_s - u.network_s).abs() < 1e-12);
    }

    #[test]
    fn overhead_advances_clock_at_one_core() {
        let mut s = session(1);
        s.overhead(10.0);
        let u = s.finish();
        assert!((u.wall_s - 10.0).abs() < 1e-12);
        let m = PowerModel::new(NodeSpec::default());
        assert!((u.energy_j - m.watts(1.0) * 10.0).abs() < 1e-9);
    }

    #[test]
    fn usage_breakdown_sums_to_wall() {
        let mut s = session(2);
        s.compute(0, 10_000.0, 4);
        s.transfer(500_000);
        s.compute(1, 5_000.0, 2);
        let u = s.finish();
        assert!((u.compute_s + u.network_s - u.wall_s).abs() < 1e-12);
        assert_eq!(u.compute_phases, 2);
    }

    type Record = Vec<(String, Vec<(String, FieldValue)>)>;

    /// Narrate `f` on a 2-node session recording into a ring; the
    /// recorded events as `(key, fields)` and the finished usage.
    fn recorded(f: impl FnOnce(&mut ClusterSession)) -> (Record, Usage) {
        let ring = Arc::new(RingRecorder::new());
        let mut s = ClusterSession::with_recorder(ClusterSpec::paper_testbed(2), ring.clone());
        f(&mut s);
        let events = ring.snapshot().events.into_iter().map(|e| (e.key, e.fields)).collect();
        (events, s.finish())
    }

    fn field(fields: &[(String, FieldValue)], key: telemetry::Key) -> Option<&FieldValue> {
        fields.iter().find(|(n, _)| n == key.name()).map(|(_, v)| v)
    }

    #[test]
    fn records_phases_in_order() {
        let (events, u) = recorded(|s| {
            s.compute(0, 1_000.0, 4);
            s.transfer(5_000);
            s.overhead(0.5);
        });
        let names: Vec<&str> = events.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, [keys::PHASE.name(), keys::TRANSFER.name(), keys::PHASE.name()]);
        assert_eq!(field(&events[0].1, keys::PHASE_NODE), Some(&FieldValue::U64(0)));
        assert_eq!(field(&events[1].1, keys::TRANSFER_BYTES), Some(&FieldValue::U64(5_000)));
        assert_eq!(field(&events[2].1, keys::PHASE_NODE), None, "overhead runs on no node");
        // Durations tile the clock.
        let total: f64 =
            events.iter().filter_map(|(_, f)| field(f, keys::PHASE_SECONDS)?.as_f64()).sum();
        assert!((total - u.wall_s).abs() < 1e-12);
    }

    #[test]
    fn compute_events_carry_node_demands() {
        let (events, _) = recorded(|s| {
            s.compute(0, 10.0, 1);
            s.concurrent(&[
                NodeWork { node: 0, units: 100.0, streams: 4 },
                NodeWork { node: 1, units: 50.0, streams: 2 },
            ]);
        });
        let start = field(&events[1].1, keys::PHASE_START_S).and_then(FieldValue::as_f64);
        assert!(start > Some(0.0), "the concurrent phase starts after the first");
        for ((_, fields), (node, busy)) in events[1..].iter().zip([(0, 4.0), (1, 2.0)]) {
            assert_eq!(field(fields, keys::PHASE_NODE), Some(&FieldValue::U64(node)));
            assert_eq!(field(fields, keys::PHASE_BUSY), Some(&FieldValue::F64(busy)));
            assert_eq!(field(fields, keys::PHASE_START_S).and_then(FieldValue::as_f64), start);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let mut s = session(1);
        s.compute(1, 10.0, 1);
    }

    #[test]
    fn apply_matches_imperative_narration() {
        // The event-sourced path must be indistinguishable from calling
        // the narration methods directly — same usage, same record.
        let events = [
            SessionEvent::Compute {
                work: vec![
                    NodeWork { node: 0, units: 12_000.0, streams: 4 },
                    NodeWork { node: 1, units: 7_000.0, streams: 2 },
                ],
            },
            SessionEvent::Transfer { bytes: 300_000 },
            SessionEvent::Compute { work: vec![NodeWork { node: 0, units: 900.0, streams: 2 }] },
            SessionEvent::Overhead { seconds: 0.7 },
        ];
        let (folded, uf) = recorded(|s| {
            for e in &events {
                s.apply(e);
            }
        });
        let (narrated, un) = recorded(|s| {
            s.concurrent(&[
                NodeWork { node: 0, units: 12_000.0, streams: 4 },
                NodeWork { node: 1, units: 7_000.0, streams: 2 },
            ]);
            s.transfer(300_000);
            s.compute(0, 900.0, 2);
            s.overhead(0.7);
        });

        assert_eq!(folded.len(), 5, "two node phases, a transfer, a phase, an overhead");
        assert_eq!(folded, narrated);
        assert_eq!(uf.wall_s.to_bits(), un.wall_s.to_bits());
        assert_eq!(uf.energy_j.to_bits(), un.energy_j.to_bits());
        assert_eq!(uf.bytes_moved, un.bytes_moved);
        assert_eq!(uf.compute_phases, un.compute_phases);
    }

    #[test]
    fn more_work_more_time_and_energy() {
        // Property-style monotonicity over a few magnitudes.
        let mut prev = Usage::default();
        for k in 1..=4 {
            let mut s = session(1);
            s.compute(0, 10_000.0 * k as f64, 4);
            let u = s.finish();
            assert!(u.wall_s > prev.wall_s);
            assert!(u.energy_j > prev.energy_j);
            prev = u;
        }
    }
}
