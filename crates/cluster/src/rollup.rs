//! Per-trial rollup: rebuild a [`Usage`] report from recorded telemetry.
//!
//! [`ClusterSession`](crate::ClusterSession) mirrors every accounting
//! update into its recorder in the same arithmetic order it applies the
//! update to its own state (see [`crate::keys`]). This module closes the
//! loop: given a [`Snapshot`] of that recorder and the [`ClusterSpec`]
//! the session ran on, [`Usage::from_snapshot`] reproduces
//! [`ClusterSession::finish`](crate::ClusterSession::finish) **bit for
//! bit** — Computation Time and Power Consumption in Table I can come
//! from the telemetry layer instead of hand-wired accounting.
//!
//! Active energy is recomputed by replaying the recorded
//! [`keys::PHASE`] busy intervals through
//! `PowerModel::active_joules` in trace order (same inputs, same f64
//! additions, same result). When the event ring wrapped and intervals
//! are missing (`dropped_events > 0`), the rollup falls back to the
//! `keys::ACTIVE_J` accumulator, which was itself built from the very
//! same sequence of adds and is therefore also exact.

use crate::keys;
use crate::power::PowerModel;
use crate::spec::ClusterSpec;
use crate::usage::Usage;
use telemetry::Snapshot;

impl Usage {
    /// Rebuild the usage report of a finished session from a telemetry
    /// snapshot. `spec` must be the [`ClusterSpec`] the recorded session
    /// ran on (it supplies the power curve and idle draw).
    ///
    /// For a snapshot recorded by exactly one
    /// [`ClusterSession`](crate::ClusterSession), the result equals that
    /// session's `finish()` report bitwise.
    pub fn from_snapshot(snap: &Snapshot, spec: &ClusterSpec) -> Usage {
        let wall_s = snap.accum(keys::WALL_S.name()).unwrap_or(0.0);
        let active_j = if snap.dropped_events == 0 {
            let model = PowerModel::new(spec.node);
            let mut total = 0.0f64;
            for event in snap.events_named(keys::PHASE.name()) {
                let busy = event.field_f64(keys::PHASE_BUSY.name()).unwrap_or(0.0);
                let seconds = event.field_f64(keys::PHASE_SECONDS.name()).unwrap_or(0.0);
                total += model.active_joules(busy, seconds);
            }
            total
        } else {
            snap.accum(keys::ACTIVE_J.name()).unwrap_or(0.0)
        };
        Usage {
            wall_s,
            energy_j: active_j + wall_s * spec.total_idle_watts(),
            compute_s: snap.accum(keys::COMPUTE_S.name()).unwrap_or(0.0),
            network_s: snap.accum(keys::NETWORK_S.name()).unwrap_or(0.0),
            bytes_moved: snap.counter(keys::BYTES_MOVED.name()).unwrap_or(0),
            compute_phases: snap.counter(keys::COMPUTE_PHASES.name()).unwrap_or(0),
            transfers: snap.counter(keys::TRANSFERS.name()).unwrap_or(0),
            wire_bytes: snap.counter(keys::WIRE_BYTES.name()).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ClusterSession, NodeWork};
    use std::sync::Arc;
    use telemetry::RingRecorder;

    /// Narrate a representative mix of phases.
    fn narrate(session: &mut ClusterSession) {
        for k in 1..=25u64 {
            session.concurrent(&[
                NodeWork { node: 0, units: 1_000.0 * k as f64 + 0.1, streams: 4 },
                NodeWork { node: 1, units: 700.0 * k as f64 + 0.7, streams: 2 },
            ]);
            session.transfer(30_000 * k + 13);
            session.overhead(0.01 * k as f64 + 0.003);
        }
        session.compute(0, 12_345.6, 3);
    }

    #[test]
    fn rollup_reproduces_finish_bitwise_via_phase_replay() {
        let spec = ClusterSpec::paper_testbed(2);
        let ring = Arc::new(RingRecorder::new());
        let mut session = ClusterSession::with_recorder(spec.clone(), ring.clone());
        narrate(&mut session);
        let reference = session.finish();

        let snap = ring.snapshot();
        assert_eq!(snap.dropped_events, 0, "trace must be complete for the replay path");
        let rolled = Usage::from_snapshot(&snap, &spec);

        assert_eq!(rolled.wall_s.to_bits(), reference.wall_s.to_bits());
        assert_eq!(rolled.energy_j.to_bits(), reference.energy_j.to_bits());
        assert_eq!(rolled.compute_s.to_bits(), reference.compute_s.to_bits());
        assert_eq!(rolled.network_s.to_bits(), reference.network_s.to_bits());
        assert_eq!(rolled.bytes_moved, reference.bytes_moved);
        assert_eq!(rolled.compute_phases, reference.compute_phases);
        assert_eq!(rolled.transfers, reference.transfers);
    }

    #[test]
    fn rollup_accumulator_fallback_is_also_bitwise() {
        // A tiny ring drops phase events, forcing the ACTIVE_J fallback;
        // the accumulator saw the same adds, so it is still exact.
        let spec = ClusterSpec::paper_testbed(2);
        let ring = Arc::new(RingRecorder::with_capacity(4));
        let mut session = ClusterSession::with_recorder(spec.clone(), ring.clone());
        narrate(&mut session);
        let reference = session.finish();

        let snap = ring.snapshot();
        assert!(snap.dropped_events > 0, "small ring must wrap");
        let rolled = Usage::from_snapshot(&snap, &spec);
        assert_eq!(rolled.wall_s.to_bits(), reference.wall_s.to_bits());
        assert_eq!(rolled.energy_j.to_bits(), reference.energy_j.to_bits());
    }

    #[test]
    fn replay_and_accumulator_agree() {
        // The two active-energy paths are the same sequence of f64 adds.
        let spec = ClusterSpec::paper_testbed(2);
        let ring = Arc::new(RingRecorder::new());
        let mut session = ClusterSession::with_recorder(spec.clone(), ring.clone());
        narrate(&mut session);
        session.finish();

        let snap = ring.snapshot();
        let model = PowerModel::new(spec.node);
        let mut replayed = 0.0f64;
        for e in snap.events_named(keys::PHASE.name()) {
            replayed += model.active_joules(
                e.field_f64(keys::PHASE_BUSY.name()).unwrap(),
                e.field_f64(keys::PHASE_SECONDS.name()).unwrap(),
            );
        }
        let accumulated = snap.accum(keys::ACTIVE_J.name()).unwrap();
        assert_eq!(replayed.to_bits(), accumulated.to_bits());
    }

    #[test]
    fn busy_fraction_gauge_covers_narrated_utilization() {
        let spec = ClusterSpec::paper_testbed(2);
        let ring = Arc::new(RingRecorder::new());
        let mut session = ClusterSession::with_recorder(spec.clone(), ring.clone());
        session.compute(0, 1_000.0, 4); // fully busy
        session.compute(0, 1_000.0, 1); // one core
        let g = ring.snapshot().gauge(keys::BUSY_FRACTION.name()).unwrap();
        assert_eq!(g.count, 2);
        assert_eq!(g.max, 1.0);
        assert_eq!(g.min, 0.25);
    }

    #[test]
    fn default_session_records_nothing() {
        let mut session = ClusterSession::new(ClusterSpec::paper_testbed(1));
        assert!(!session.recorder().enabled());
        session.compute(0, 100.0, 2); // must not panic or allocate
    }
}
