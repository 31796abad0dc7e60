//! Gantt-chart view of a session's recorded execution.
//!
//! One lane per node plus a network lane; compute phases are drawn as
//! bars shaded by stream utilization, transfers and overhead in their
//! own colors. Useful for *seeing* why a deployment is slow — e.g. the
//! RLlib-like backend's learner phases serializing after every
//! collection wave, or the second node idling through them.
//!
//! The chart is drawn from a telemetry [`Snapshot`] of the session's
//! recorder: a [`keys::PHASE`] event with a node is that node's share of
//! a compute phase, one without is overhead, and a [`keys::TRANSFER`]
//! event is a transfer (see [`crate::ClusterSession`] for the ordering
//! the events arrive in).

use crate::keys;
use crate::spec::ClusterSpec;
use telemetry::{Key, SnapEvent, Snapshot};

/// What one drawn phase was.
enum Kind {
    /// One concurrent compute phase: `(node, busy cores)` per node.
    Compute(Vec<(u64, f64)>),
    /// A blocking transfer of this many bytes.
    Transfer(u64),
    /// Framework overhead.
    Overhead,
}

/// One drawn phase: start, duration (the slowest node's, for compute)
/// and kind.
type Phase = (f64, f64, Kind);

/// Regroup the session's recorded events into phases. Consecutive node
/// events with one start form one concurrent compute phase; a node seen
/// again opens a new one, so back-to-back phases of zero duration stay
/// apart.
fn phases(snap: &Snapshot) -> Result<Vec<Phase>, String> {
    if snap.dropped_events > 0 {
        return Err(format!(
            "the event ring dropped {} event(s); refusing to draw a partial chart",
            snap.dropped_events
        ));
    }
    let missing = |e: &SnapEvent, field: Key| format!("{} event without '{field}'", e.key);
    let number =
        |e: &SnapEvent, field: Key| e.field_f64(field.name()).ok_or_else(|| missing(e, field));
    let mut out: Vec<Phase> = Vec::new();
    for e in &snap.events {
        let is_transfer = e.key == keys::TRANSFER.name();
        if !is_transfer && e.key != keys::PHASE.name() {
            continue;
        }
        let start = number(e, keys::PHASE_START_S)?;
        let seconds = number(e, keys::PHASE_SECONDS)?;
        if is_transfer {
            let bytes = e
                .field_u64(keys::TRANSFER_BYTES.name())
                .ok_or_else(|| missing(e, keys::TRANSFER_BYTES))?;
            out.push((start, seconds, Kind::Transfer(bytes)));
            continue;
        }
        let Some(node) = e.field_u64(keys::PHASE_NODE.name()) else {
            out.push((start, seconds, Kind::Overhead));
            continue;
        };
        let busy = number(e, keys::PHASE_BUSY)?;
        match out.last_mut() {
            Some((s, wall, Kind::Compute(nodes)))
                if *s == start && nodes.iter().all(|&(n, _)| n != node) =>
            {
                *wall = wall.max(seconds);
                nodes.push((node, busy));
            }
            _ => out.push((start, seconds, Kind::Compute(vec![(node, busy)]))),
        }
    }
    Ok(out)
}

/// Render a session's recorded execution as an SVG Gantt chart.
///
/// `snap` must hold the events of one [`crate::ClusterSession`] on
/// `spec`. A snapshot whose ring dropped events is refused with an error
/// naming the count: a chart missing its oldest phases would misstate
/// the run.
pub fn render_gantt(spec: &ClusterSpec, snap: &Snapshot, title: &str) -> Result<String, String> {
    let phases = phases(snap)?;
    let total = phases.iter().map(|(start, d, _)| start + d).fold(0.0, f64::max).max(1e-9);

    let lanes = spec.nodes + 1; // nodes + network/overhead lane
    let (w, lane_h, ml, mt) = (900.0, 34.0, 90.0, 48.0);
    let plot_w = w - ml - 20.0;
    let h = mt + lanes as f64 * lane_h + 40.0;
    let sx = |t: f64| ml + (t / total) * plot_w;

    let mut s = String::new();
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    ));
    s.push_str(&format!(r#"<rect width="{w}" height="{h}" fill="white"/>"#));
    s.push_str(&format!(
        r#"<text x="{}" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">{}</text>"#,
        w / 2.0,
        xml_escape(title)
    ));
    // Lane labels and separators.
    for lane in 0..lanes {
        let y = mt + lane as f64 * lane_h;
        let label = if lane < spec.nodes { format!("node {lane}") } else { "net/ovh".to_string() };
        s.push_str(&format!(
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="end">{}</text>"#,
            ml - 8.0,
            y + lane_h * 0.65,
            label
        ));
        s.push_str(&format!(
            r##"<line x1="{ml}" y1="{y}" x2="{}" y2="{y}" stroke="#ddd"/>"##,
            ml + plot_w
        ));
    }

    // Phases.
    let bh = lane_h - 8.0;
    let net_y = mt + spec.nodes as f64 * lane_h + 4.0;
    for (start, seconds, kind) in &phases {
        let x0 = sx(*start);
        let bw = (sx(start + seconds) - x0).max(0.5);
        match kind {
            Kind::Compute(nodes) => {
                for &(node, busy) in nodes {
                    if node >= spec.nodes as u64 {
                        continue;
                    }
                    let y = mt + node as f64 * lane_h + 4.0;
                    // Utilization shades the bar from light to saturated.
                    let alpha = 0.35 + 0.65 * (busy / spec.node.cores as f64);
                    s.push_str(&format!(
                        r##"<rect x="{x0:.1}" y="{y:.1}" width="{bw:.1}" height="{bh:.1}" fill="#1f77b4" fill-opacity="{alpha:.2}"/>"##
                    ));
                }
            }
            Kind::Transfer(bytes) => s.push_str(&format!(
                r##"<rect x="{x0:.1}" y="{net_y:.1}" width="{bw:.1}" height="{bh:.1}" fill="#d62728"><title>{bytes} B</title></rect>"##
            )),
            Kind::Overhead => s.push_str(&format!(
                r##"<rect x="{x0:.1}" y="{net_y:.1}" width="{bw:.1}" height="{bh:.1}" fill="#7f7f7f" fill-opacity="0.6"/>"##
            )),
        }
    }

    // Time axis.
    let y_axis = mt + lanes as f64 * lane_h + 8.0;
    for k in 0..=4 {
        let t = total * k as f64 / 4.0;
        s.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="middle">{:.1}s</text>"#,
            sx(t),
            y_axis + 14.0,
            t
        ));
    }
    s.push_str("</svg>\n");
    Ok(s)
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ClusterSession, NodeWork};
    use std::sync::Arc;
    use telemetry::RingRecorder;

    /// A 2-node session narrating into a ring of `capacity` events per
    /// thread; the spec, the snapshot and the finished wall time.
    fn recorded(capacity: usize) -> (ClusterSpec, Snapshot, f64) {
        let spec = ClusterSpec::paper_testbed(2);
        let ring = Arc::new(RingRecorder::with_capacity(capacity));
        let mut s = ClusterSession::with_recorder(spec.clone(), ring.clone());
        s.concurrent(&[
            NodeWork { node: 0, units: 1000.0, streams: 4 },
            NodeWork { node: 1, units: 800.0, streams: 4 },
        ]);
        s.transfer(250_000);
        s.compute(0, 300.0, 2);
        s.overhead(0.4);
        (spec, ring.snapshot(), s.finish().wall_s)
    }

    #[test]
    fn gantt_is_well_formed() {
        let (spec, snap, _) = recorded(64);
        let svg = render_gantt(&spec, &snap, "RLlib-like iteration").expect("complete record");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("node 0"));
        assert!(svg.contains("node 1"));
        assert!(svg.contains("net/ovh"));
    }

    #[test]
    fn gantt_draws_one_bar_per_phase_lane() {
        let (spec, snap, _) = recorded(64);
        let svg = render_gantt(&spec, &snap, "t").expect("complete record");
        // background + 2 concurrent-compute bars + 1 transfer + 1 compute
        // + 1 overhead = 6 rects.
        assert_eq!(svg.matches("<rect").count(), 6, "{svg}");
        assert!(svg.contains("250000 B"));
    }

    #[test]
    fn recorded_phases_tile_the_clock() {
        let (_, snap, wall_s) = recorded(64);
        let phases = phases(&snap).expect("complete record");
        assert_eq!(phases.len(), 4, "the two-node compute is one phase");
        let mut clock = 0.0;
        for (start, seconds, _) in &phases {
            assert_eq!(*start, clock, "each phase starts where the last ended");
            clock = start + seconds;
        }
        assert_eq!(clock.to_bits(), wall_s.to_bits());
    }

    #[test]
    fn a_node_seen_again_opens_a_new_phase() {
        let ring = Arc::new(RingRecorder::new());
        let mut s = ClusterSession::with_recorder(ClusterSpec::paper_testbed(2), ring.clone());
        s.compute(0, 0.0, 1);
        s.concurrent(&[
            NodeWork { node: 0, units: 0.0, streams: 1 },
            NodeWork { node: 1, units: 0.0, streams: 1 },
        ]);
        let phases = phases(&ring.snapshot()).expect("complete record");
        let nodes: Vec<usize> = phases
            .iter()
            .map(|(_, _, kind)| match kind {
                Kind::Compute(nodes) => nodes.len(),
                _ => 0,
            })
            .collect();
        assert_eq!(nodes, [1, 2], "zero-duration phases at one start stay apart");
    }

    #[test]
    fn a_wrapped_ring_is_refused_with_the_dropped_count() {
        let (spec, snap, _) = recorded(4);
        assert_eq!(snap.dropped_events, 1, "five events through a ring of four");
        let err = render_gantt(&spec, &snap, "t").expect_err("a partial record");
        assert!(err.contains("dropped 1 event"), "{err}");
    }

    #[test]
    fn empty_record_renders() {
        let spec = ClusterSpec::paper_testbed(1);
        let svg = render_gantt(&spec, &Snapshot::default(), "empty").expect("nothing dropped");
        assert!(svg.contains("</svg>"));
    }
}
