//! Network-model calibration regression (ROADMAP item 2 remainder):
//! cluster-sim *simulates* interconnect traffic (`Usage::bytes_moved`,
//! the modeled payloads the paper's cost model charges transfer time
//! and energy for), while the process transport *measures* real socket
//! traffic (`Usage::wire_bytes`, every frame byte the codec moved).
//!
//! The two counters answer different questions and are not equal — the
//! wire also carries commands, RNG streams, heartbeats and framing,
//! and ships experience the model treats as node-local — but their
//! *ratio* on a fixed workload is a calibration constant of the cost
//! model. If a codec change bloats frames, or a model change silently
//! stops charging for a transfer class, this ratio moves. The band
//! below was measured on the pinned spec and is intentionally loose
//! enough to survive small payload tweaks while catching regime
//! changes (a 2x frame bloat or a dropped transfer class).

use dist_exec::backend::run;
use dist_exec::spec::{Deployment, ExecSpec};
use dist_exec::{EnvBlueprint, Framework};
use rl_algos::Algorithm;

/// The pinned workload: the RLlib-like backend is the only one whose
/// cost model ships experience *and* weights across nodes, so it
/// exercises both modeled transfer classes.
fn pinned_spec() -> ExecSpec {
    let mut spec = ExecSpec::new(
        Framework::RayRllib,
        Algorithm::Ppo,
        Deployment { nodes: 2, cores_per_node: 2 },
        384,
        17,
    );
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    spec.with_transport("uds")
}

#[test]
fn simulated_traffic_tracks_measured_wire_bytes_within_the_calibrated_band() {
    let report = run(&pinned_spec(), &EnvBlueprint::Grid { n: 3 }).expect("backend runs");
    let simulated = report.usage.bytes_moved;
    let measured = report.usage.wire_bytes;
    assert!(simulated > 0, "the 2-node run must model interconnect traffic");
    assert!(measured > 0, "the UDS run must measure real socket traffic");

    let ratio = measured as f64 / simulated as f64;
    // Measured at calibration time on the pinned spec: 54 352 modeled
    // bytes vs 225 433 wire bytes — ratio 4.15. The wire is a constant
    // factor heavier than the model because it also ships collect
    // commands (with RNG streams), per-step observations inside the
    // experience segments, and frame headers the model deliberately
    // ignores. The band is the checked-in tolerance: ±~35% around the
    // calibrated constant.
    const BAND: (f64, f64) = (2.7, 5.6);
    assert!(
        (BAND.0..=BAND.1).contains(&ratio),
        "wire/model byte ratio {ratio:.4} left the calibrated band \
         [{:.2}, {:.2}] (simulated {simulated} B, measured {measured} B): \
         either the wire codec or the network cost model changed regime — \
         recalibrate deliberately, don't let it drift",
        BAND.0,
        BAND.1,
    );
}

#[test]
fn the_calibration_workload_is_deterministic() {
    // The band only means something if the pinned workload reproduces:
    // both counters must be bit-stable across runs.
    let a = run(&pinned_spec(), &EnvBlueprint::Grid { n: 3 }).expect("backend runs");
    let b = run(&pinned_spec(), &EnvBlueprint::Grid { n: 3 }).expect("backend runs");
    assert_eq!(a.usage.bytes_moved, b.usage.bytes_moved);
    assert_eq!(a.usage.wire_bytes, b.usage.wire_bytes);
}
