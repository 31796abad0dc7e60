//! CPU power model.
//!
//! The paper bases its Power Consumption metric on CPU usage, "computed as
//! an equivalence with a consumption curve of the CPU" (§V-d). We model a
//! node's package power as
//!
//! ```text
//! P(u) = idle + cores · active_per_core · u^γ ,   u = busy_cores / cores
//! ```
//!
//! with γ ≤ 1 capturing the concavity of real consumption curves (the
//! first busy core costs disproportionately much because it raises the
//! package out of deep idle states).

use crate::spec::NodeSpec;

/// Power-curve evaluation for one node.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    spec: NodeSpec,
}

impl PowerModel {
    /// Model for a node spec.
    pub fn new(spec: NodeSpec) -> Self {
        Self { spec }
    }

    /// Package power (W) with `busy` cores active.
    pub fn watts(&self, busy: f64) -> f64 {
        let busy = busy.clamp(0.0, self.spec.cores as f64);
        let u = busy / self.spec.cores as f64;
        self.spec.idle_watts
            + self.spec.cores as f64
                * self.spec.active_watts_per_core
                * u.powf(self.spec.power_gamma)
    }

    /// Marginal energy (J) above idle for `busy` cores active over
    /// `seconds`.
    pub(crate) fn active_joules(&self, busy: f64, seconds: f64) -> f64 {
        (self.watts(busy) - self.spec.idle_watts) * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(NodeSpec::default())
    }

    #[test]
    fn idle_power_at_zero_utilization() {
        let m = model();
        assert!((m.watts(0.0) - NodeSpec::default().idle_watts).abs() < 1e-12);
    }

    #[test]
    fn full_power_at_max_utilization() {
        let m = model();
        let s = NodeSpec::default();
        let expect = s.idle_watts + s.cores as f64 * s.active_watts_per_core;
        assert!((m.watts(s.cores as f64) - expect).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let m = model();
        let mut prev = -1.0;
        for i in 0..=8 {
            let w = m.watts(i as f64 * 0.5);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn concave_curve_front_loads_power() {
        // With γ < 1, one busy core costs more than 1/4 of the full active
        // power on a 4-core node.
        let m = model();
        let s = NodeSpec::default();
        let one = m.watts(1.0) - s.idle_watts;
        let four = m.watts(4.0) - s.idle_watts;
        assert!(one > four / 4.0, "one-core power {one} vs quarter of {four}");
    }

    #[test]
    fn utilization_is_clamped() {
        let m = model();
        assert_eq!(m.watts(100.0), m.watts(4.0));
        assert_eq!(m.watts(-3.0), m.watts(0.0));
    }

    #[test]
    fn joules_scale_with_time() {
        let m = model();
        let above_idle = 10.0 * (m.watts(2.0) - m.watts(0.0));
        assert!((m.active_joules(2.0, 10.0) - above_idle).abs() < 1e-9);
    }

    #[test]
    fn linear_gamma_is_proportional() {
        let spec = NodeSpec { power_gamma: 1.0, ..NodeSpec::default() };
        let m = PowerModel::new(spec);
        let one = m.watts(1.0) - spec.idle_watts;
        let four = m.watts(4.0) - spec.idle_watts;
        assert!((four - 4.0 * one).abs() < 1e-9);
    }
}
