//! Order-8 integration via Gragg–Bulirsch–Stoer (GBS) extrapolation.
//!
//! The paper's "8th order Runge–Kutta" is SciPy's `DOP853`. Rather than
//! transcribing Hairer's 12-stage coefficient tables (easy to get subtly
//! wrong), we build an order-8 one-step method by Richardson extrapolation
//! of the modified-midpoint rule with the step sequence `{2, 4, 6, 8}` —
//! the construction behind `ODEX`. With a *fixed* sequence the composite is
//! formally an explicit Runge–Kutta method of order 8 (the midpoint rule
//! has an asymptotic error expansion in `h²`; extrapolating four entries
//! cancels the `h²`, `h⁴` and `h⁶` terms).
//!
//! Cost: `Σ (n_j + 1) = 3 + 5 + 7 + 9 = 24` derivative evaluations per
//! step (the sub-integrations share the initial evaluation, bringing the
//! effective cost to 22; we count exactly what we evaluate). This is about
//! twice DOP853's 12 stages, preserving the paper's qualitative ranking:
//! order 8 is by far the most expensive per step.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::stepper::{FixedStepper, StepperFactory};
use crate::system::System;
use crate::Work;

/// Modified-midpoint sub-step counts. Must be even and increasing; four
/// entries cancel error terms up to `h⁶`, leaving order 8.
/// Shared with the batched stepper in [`crate::batch`], which must run the
/// same sequence to stay bitwise-identical to this scalar path.
pub(crate) const SEQUENCE: [usize; 4] = [2, 4, 6, 8];

/// Order-8 stepper: GBS extrapolation of the modified midpoint rule.
pub struct Gbs8Stepper {
    dim: usize,
    /// Extrapolation tableau rows (Aitken–Neville), one per sequence entry.
    table: Vec<Vec<f64>>,
    /// Midpoint recursion states.
    z_prev: Vec<f64>,
    z_cur: Vec<f64>,
    z_next: Vec<f64>,
    /// Shared derivative at (t, y).
    f0: Vec<f64>,
    scratch: Vec<f64>,
}

impl Gbs8Stepper {
    /// Create a stepper for `dim`-dimensional systems.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            table: vec![vec![0.0; dim]; SEQUENCE.len()],
            z_prev: vec![0.0; dim],
            z_cur: vec![0.0; dim],
            z_next: vec![0.0; dim],
            f0: vec![0.0; dim],
            scratch: vec![0.0; dim],
        }
    }

    /// Monomorphized step: like [`FixedStepper::step`] but generic over
    /// the system, so the derivative evaluation inlines into the midpoint
    /// loops. The `&dyn` trait method instantiates this with
    /// `S = dyn System`, so both paths are bitwise identical.
    pub fn step_sys<S: System + ?Sized>(&mut self, sys: &S, t: f64, h: f64, y: &mut [f64]) -> Work {
        debug_assert_eq!(y.len(), self.dim);
        let mut work = Work { steps: 1, ..Work::default() };

        sys.deriv(t, y, &mut self.f0);
        work.fn_evals += 1;

        for (row, &n) in SEQUENCE.iter().enumerate() {
            work.fn_evals += self.midpoint(sys, t, h, y, n, row);
        }

        // Aitken–Neville extrapolation in (H/n)². After processing, the
        // last row holds the order-8 value. Work column-by-column, updating
        // rows bottom-up so each combination uses pre-update neighbours.
        for k in 1..SEQUENCE.len() {
            for j in (k..SEQUENCE.len()).rev() {
                let r = (SEQUENCE[j] as f64 / SEQUENCE[j - k] as f64).powi(2);
                let (lo, hi) = self.table.split_at_mut(j);
                let prev = &lo[j - 1];
                let cur = &mut hi[0];
                for d in 0..self.dim {
                    cur[d] += (cur[d] - prev[d]) / (r - 1.0);
                }
            }
        }

        y.copy_from_slice(&self.table[SEQUENCE.len() - 1]);
        work
    }

    /// One modified-midpoint integration of `sys` over `[t, t+bigh]` with
    /// `n` sub-steps, writing the (smoothed) result into `out`.
    ///
    /// Assumes `self.f0` already holds `f(t, y)`.
    fn midpoint<S: System + ?Sized>(
        &mut self,
        sys: &S,
        t: f64,
        bigh: f64,
        y: &[f64],
        n: usize,
        row: usize,
    ) -> u64 {
        let h = bigh / n as f64;
        let dim = self.dim;
        let mut evals = 0u64;

        // z0 = y; z1 = y + h f(t, y)
        self.z_prev.copy_from_slice(y);
        for d in 0..dim {
            self.z_cur[d] = y[d] + h * self.f0[d];
        }

        // z_{m+1} = z_{m-1} + 2 h f(t + m h, z_m)
        for m in 1..n {
            sys.deriv(t + m as f64 * h, &self.z_cur, &mut self.scratch);
            evals += 1;
            for d in 0..dim {
                self.z_next[d] = self.z_prev[d] + 2.0 * h * self.scratch[d];
            }
            std::mem::swap(&mut self.z_prev, &mut self.z_cur);
            std::mem::swap(&mut self.z_cur, &mut self.z_next);
        }

        // Gragg smoothing: S = (z_n + z_{n-1} + h f(t+H, z_n)) / 2
        sys.deriv(t + bigh, &self.z_cur, &mut self.scratch);
        evals += 1;
        for d in 0..dim {
            self.table[row][d] = 0.5 * (self.z_cur[d] + self.z_prev[d] + h * self.scratch[d]);
        }
        evals
    }
}

impl FixedStepper for Gbs8Stepper {
    fn order(&self) -> u32 {
        8
    }

    fn cost_per_step(&self) -> u64 {
        // 1 shared f(t,y) + Σ_j n_j (midpoint interior evals: n-1 interior
        // + 1 smoothing) = 1 + Σ (n_j) = 1 + 20 ... computed exactly below.
        1 + SEQUENCE.iter().map(|&n| n as u64).sum::<u64>()
    }

    fn name(&self) -> &'static str {
        "GBS extrapolation (order 8)"
    }

    fn step(&mut self, sys: &dyn System, t: f64, h: f64, y: &mut [f64]) -> Work {
        self.step_sys(sys, t, h, y)
    }
}

/// Factory for [`Gbs8Stepper`] (used by [`crate::methods::RkOrder::Eight`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gbs8Factory;

impl StepperFactory for Gbs8Factory {
    fn instantiate(&self, dim: usize) -> Box<dyn FixedStepper> {
        Box::new(Gbs8Stepper::new(dim))
    }
    fn order(&self) -> u32 {
        8
    }
    fn cost_per_step(&self) -> u64 {
        Gbs8Stepper::new(1).cost_per_step()
    }
    fn name(&self) -> &'static str {
        "GBS extrapolation (order 8)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::integrate_fixed;
    use crate::system::FnSystem;

    #[test]
    fn order8_is_extremely_accurate_on_decay() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let mut y = vec![1.0];
        integrate_fixed(&Gbs8Factory, &sys, &mut y, 0.0, 1.0, 0.125);
        assert!((y[0] - (-1.0f64).exp()).abs() < 1e-12, "err = {}", (y[0] - (-1.0f64).exp()).abs());
    }

    #[test]
    fn empirical_order_is_at_least_seven() {
        // Use the harmonic oscillator, whose error behaviour is clean.
        let sys = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        let exact = |t: f64| (t.cos(), -t.sin());
        let err = |h: f64| -> f64 {
            let mut y = vec![1.0, 0.0];
            integrate_fixed(&Gbs8Factory, &sys, &mut y, 0.0, 2.0, h);
            let (c, s) = exact(2.0);
            ((y[0] - c).powi(2) + (y[1] - s).powi(2)).sqrt().max(1e-16)
        };
        let e1 = err(0.5);
        let e2 = err(0.25);
        let p = (e1 / e2).log2();
        assert!(p > 7.0, "empirical order {p} too low (e1={e1}, e2={e2})");
    }

    #[test]
    fn fn_eval_count_matches_cost_per_step() {
        use std::cell::Cell;
        let count = Cell::new(0u64);
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| {
            count.set(count.get() + 1);
            dy[0] = -y[0];
        });
        let mut st = Gbs8Stepper::new(1);
        let mut y = vec![1.0];
        let work = st.step(&sys, 0.0, 0.1, &mut y);
        assert_eq!(work.fn_evals, count.get());
        assert_eq!(work.fn_evals, st.cost_per_step());
    }

    #[test]
    fn order8_costs_more_than_order5_per_step() {
        // The paper's core cost relation: higher order => more work/step.
        use crate::stepper::TableauFactory;
        use crate::tableau::{BS23, DOPRI5};
        let c3 = TableauFactory(&BS23).cost_per_step();
        let c5 = TableauFactory(&DOPRI5).cost_per_step();
        let c8 = Gbs8Factory.cost_per_step();
        assert!(c3 < c5 && c5 < c8, "costs: {c3} {c5} {c8}");
    }
}
