//! Reference ODE problems with known solutions, the oracles of the
//! integrator tests.

use crate::system::System;

/// Exponential decay `y' = -λ y`, solution `y(t) = y0 e^{-λ t}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decay {
    /// Decay rate λ.
    pub lambda: f64,
}

impl System for Decay {
    fn dim(&self) -> usize {
        1
    }
    fn deriv(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = -self.lambda * y[0];
    }
}

impl Decay {
    /// Closed-form solution from `y0` at time `t`.
    pub fn exact(&self, y0: f64, t: f64) -> f64 {
        y0 * (-self.lambda * t).exp()
    }
}

/// Harmonic oscillator `x'' = -ω² x` as a first-order system `[x, v]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Harmonic {
    /// Angular frequency ω.
    pub omega: f64,
}

impl System for Harmonic {
    fn dim(&self) -> usize {
        2
    }
    fn deriv(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[1];
        dydt[1] = -self.omega * self.omega * y[0];
    }
}

impl Harmonic {
    /// Exact state at time `t` from `(x0, v0)`.
    pub fn exact(&self, x0: f64, v0: f64, t: f64) -> (f64, f64) {
        let (s, c) = (self.omega * t).sin_cos();
        (x0 * c + v0 / self.omega * s, -x0 * self.omega * s + v0 * c)
    }

    /// Conserved energy `½ v² + ½ ω² x²` — drift of this quantity is a
    /// sensitive accuracy probe for long integrations.
    pub fn energy(&self, y: &[f64]) -> f64 {
        0.5 * y[1] * y[1] + 0.5 * self.omega * self.omega * y[0] * y[0]
    }
}

/// The Van der Pol oscillator, mildly stiff for large μ. No closed form;
/// a nonlinear system for cost and stability checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VanDerPol {
    /// Nonlinearity/stiffness parameter μ.
    pub mu: f64,
}

impl System for VanDerPol {
    fn dim(&self) -> usize {
        2
    }
    fn deriv(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[1];
        dydt[1] = self.mu * (1.0 - y[0] * y[0]) * y[1] - y[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::{integrate_fixed, TableauFactory};
    use crate::tableau::{DOPRI5, RK4};

    #[test]
    fn decay_exact_matches_integration() {
        let p = Decay { lambda: 2.0 };
        let mut y = vec![3.0];
        integrate_fixed(&TableauFactory(&DOPRI5), &p, &mut y, 0.0, 1.5, 1e-3);
        assert!((y[0] - p.exact(3.0, 1.5)).abs() < 1e-10);
    }

    #[test]
    fn harmonic_exact_matches_integration() {
        let p = Harmonic { omega: 2.0 };
        let mut y = vec![1.0, 0.5];
        integrate_fixed(&TableauFactory(&DOPRI5), &p, &mut y, 0.0, 3.0, 1e-3);
        let (x, v) = p.exact(1.0, 0.5, 3.0);
        assert!((y[0] - x).abs() < 1e-9);
        assert!((y[1] - v).abs() < 1e-9);
    }

    #[test]
    fn harmonic_energy_is_nearly_conserved_by_rk4() {
        let p = Harmonic { omega: 1.0 };
        let mut y = vec![1.0, 0.0];
        let e0 = p.energy(&y);
        integrate_fixed(&TableauFactory(&RK4), &p, &mut y, 0.0, 50.0, 1e-2);
        assert!((p.energy(&y) - e0).abs() < 1e-6);
    }

    #[test]
    fn van_der_pol_stays_bounded_on_limit_cycle() {
        let p = VanDerPol { mu: 1.0 };
        let mut y = vec![0.5, 0.0];
        integrate_fixed(&TableauFactory(&RK4), &p, &mut y, 0.0, 30.0, 1e-3);
        // The limit cycle has |x| ≈ 2.
        assert!(y[0].abs() < 3.0 && y[1].abs() < 5.0);
    }
}
