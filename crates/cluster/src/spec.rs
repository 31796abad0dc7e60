//! Hardware specifications of the simulated cluster.

/// One compute node.
///
/// The default models the paper's testbed machines: Intel Xeon W-2102
/// (4 cores / 4 threads, 2.9 GHz, 120 W TDP class) with 16 GB of memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Physical cores available to the training process.
    pub cores: usize,
    /// Abstract work units (parafoil derivative evaluations) one core
    /// retires per second. Calibrated in the bench crate.
    pub units_per_sec_per_core: f64,
    /// How many NN FLOPs equal one work unit (one derivative evaluation
    /// is a few hundred flops; NN work is converted through this ratio).
    pub flops_per_unit: f64,
    /// Idle package power (W).
    pub idle_watts: f64,
    /// Additional power per fully-busy core (W).
    pub(crate) active_watts_per_core: f64,
    /// Exponent of the utilization→power curve (1 = linear; <1 models the
    /// concave "consumption curve" shape of real CPUs).
    pub(crate) power_gamma: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self {
            // One work unit is one derivative evaluation of the parachute
            // dynamics. The rate and the power constants are calibrated
            // against Table I's anchored cells (config 2: 46 min / 201 kJ
            // on 2×4 cores; config 16: 65 min; config 11: 120 kJ) — see
            // EXPERIMENTS.md for the derivation.
            cores: 4,
            units_per_sec_per_core: 1_250.0,
            flops_per_unit: 2.0e5,
            idle_watts: 10.0,
            active_watts_per_core: 8.0,
            power_gamma: 0.9,
        }
    }
}

impl NodeSpec {
    /// Seconds for one core to retire `units` of work.
    pub(crate) fn seconds_for(&self, units: f64) -> f64 {
        units / self.units_per_sec_per_core
    }

    /// Convert NN FLOPs to work units.
    pub fn flops_to_units(&self, flops: u64) -> f64 {
        flops as f64 / self.flops_per_unit
    }
}

/// The inter-node interconnect.
///
/// Default: the paper's 1 Gbps Ethernet switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NetworkSpec {
    /// Usable bandwidth in bytes/second.
    pub(crate) bandwidth_bps: f64,
    /// Per-message latency in seconds.
    pub(crate) latency_s: f64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self {
            // 1 Gbps line rate, ~80% achievable goodput.
            bandwidth_bps: 0.8 * 125_000_000.0,
            latency_s: 200e-6,
        }
    }
}

impl NetworkSpec {
    /// Transfer time for a message of `bytes`.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// A homogeneous cluster of `nodes` identical machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes in use (the paper's study uses 1 or 2).
    pub(crate) nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Interconnect between nodes.
    pub(crate) network: NetworkSpec,
}

impl ClusterSpec {
    /// The paper's testbed: `nodes` × Xeon W-2102 behind 1 Gbps Ethernet.
    pub fn paper_testbed(nodes: usize) -> Self {
        assert!(nodes >= 1);
        Self { nodes, node: NodeSpec::default(), network: NetworkSpec::default() }
    }

    /// Combined idle power of all allocated nodes (W).
    pub fn total_idle_watts(&self) -> f64 {
        self.nodes as f64 * self.node.idle_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_node_matches_testbed_shape() {
        let n = NodeSpec::default();
        assert_eq!(n.cores, 4, "Xeon W-2102 has 4 cores");
        assert!(n.idle_watts > 0.0 && n.active_watts_per_core > 0.0);
    }

    #[test]
    fn seconds_for_scales_linearly() {
        let n = NodeSpec::default();
        assert!((n.seconds_for(2.0 * n.units_per_sec_per_core) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flops_conversion_round_trip() {
        let n = NodeSpec::default();
        let units = n.flops_to_units(4000);
        assert!((units - 4000.0 / n.flops_per_unit).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let net = NetworkSpec::default();
        assert!(net.transfer_time(0) >= net.latency_s);
        // 100 MB at ~100 MB/s is about a second.
        let t = net.transfer_time(100_000_000);
        assert!(t > 0.9 && t < 1.2, "t = {t}");
    }

    #[test]
    fn bigger_messages_take_longer() {
        let net = NetworkSpec::default();
        assert!(net.transfer_time(1_000_000) > net.transfer_time(1_000));
    }

    #[test]
    fn cluster_totals() {
        let c = ClusterSpec::paper_testbed(2);
        assert!((c.total_idle_watts() - 2.0 * c.node.idle_watts).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_node_cluster_rejected() {
        ClusterSpec::paper_testbed(0);
    }
}
