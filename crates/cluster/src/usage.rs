//! Aggregated resource-usage report of a simulated run.

/// Resource usage accumulated by a [`crate::ClusterSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Simulated wall-clock time (s).
    pub wall_s: f64,
    /// Total energy (J), idle + active.
    pub energy_j: f64,
    /// Time spent in compute phases (s). Phases on different nodes that
    /// overlap count once (wall time), but `compute_s` sums the maxima of
    /// each concurrent group.
    pub(crate) compute_s: f64,
    /// Time spent blocked on network transfers (s).
    pub network_s: f64,
    /// Bytes moved across the interconnect.
    pub bytes_moved: u64,
    /// Number of compute phases.
    pub compute_phases: u64,
    /// Number of transfers.
    pub transfers: u64,
    /// Real (measured, not simulated) bytes that crossed a worker
    /// transport's wire — zero on the in-process transport. Observational
    /// only: it never feeds the simulated clock or energy integral.
    pub wire_bytes: u64,
}

impl Usage {
    /// Wall time in minutes (the unit Table I reports).
    pub fn minutes(&self) -> f64 {
        self.wall_s / 60.0
    }

    /// Energy in kJ (the unit Table I reports).
    pub fn kilojoules(&self) -> f64 {
        self.energy_j / 1_000.0
    }

    /// Mean power over the run (W).
    pub fn mean_watts(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.energy_j / self.wall_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let u = Usage { wall_s: 120.0, energy_j: 6_000.0, ..Usage::default() };
        assert!((u.minutes() - 2.0).abs() < 1e-12);
        assert!((u.kilojoules() - 6.0).abs() < 1e-12);
        assert!((u.mean_watts() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mean_watts_of_empty_run_is_zero() {
        assert_eq!(Usage::default().mean_watts(), 0.0);
    }
}
