//! # rk-ode — explicit Runge–Kutta integrators with work accounting
//!
//! This crate is the numerical substrate of the airdrop package delivery
//! simulator. The paper (Prigent et al., ScaDL 2022) configures the
//! simulator with Runge–Kutta methods of orders **3, 5 and 8** — the orders
//! offered by SciPy's `solve_ivp` (`RK23`, `RK45`, `DOP853`) — and observes
//! that the order trades result accuracy against computation time.
//!
//! We provide:
//!
//! * a [`System`] trait describing an ODE `y' = f(t, y)`;
//! * Butcher-tableau driven fixed-step steppers ([`tableau`], [`stepper`]):
//!   Euler (1), Heun (2), Bogacki–Shampine (3), classic RK4 (4),
//!   Dormand–Prince (5);
//! * an order-8 integrator built by Gragg–Bulirsch–Stoer extrapolation of
//!   the modified midpoint rule ([`extrapolation`]) — formally an explicit
//!   RK method, used where the paper uses `DOP853` (see DESIGN.md for the
//!   substitution note);
//! * function-evaluation counting ([`Work`]) so that downstream cost
//!   models (the `cluster-sim` crate) can convert numerical work into
//!   simulated wall-clock time and energy.
//!
//! ## Quick example
//!
//! ```
//! use rk_ode::{methods::RkOrder, system::FnSystem, stepper::integrate_fixed};
//!
//! // y' = -y, y(0) = 1  =>  y(t) = exp(-t)
//! let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
//! let mut y = vec![1.0];
//! let work = integrate_fixed(RkOrder::Five.factory().as_ref(), &sys, &mut y, 0.0, 1.0, 1e-2);
//! assert!((y[0] - (-1.0f64).exp()).abs() < 1e-10);
//! assert!(work.fn_evals > 0);
//! ```

pub mod batch;
pub mod extrapolation;
pub mod methods;
pub mod stepper;
pub mod system;
pub mod tableau;

/// Reference problems with closed-form solutions: oracles for the
/// integrator tests.
#[cfg(test)]
mod problems;

pub use batch::{AnyBatchStepper, BatchSystem};
pub use methods::RkOrder;
pub use stepper::{integrate_fixed, FixedStepper, Integration};
pub use system::{FnSystem, System};

/// Accumulated numerical work of an integration.
///
/// `fn_evals` is the ground truth consumed by the cluster cost model: one
/// right-hand-side evaluation of the parafoil dynamics is the atomic work
/// unit of the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Number of right-hand-side (derivative) evaluations performed.
    pub fn_evals: u64,
    /// Number of accepted steps.
    pub steps: u64,
}

impl core::ops::Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work { fn_evals: self.fn_evals + rhs.fn_evals, steps: self.steps + rhs.steps }
    }
}

impl core::ops::AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_add_is_componentwise() {
        let a = Work { fn_evals: 3, steps: 1 };
        let b = Work { fn_evals: 4, steps: 2 };
        let c = a + b;
        assert_eq!(c, Work { fn_evals: 7, steps: 3 });
    }

    #[test]
    fn work_default_is_zero() {
        let w = Work::default();
        assert_eq!(w.fn_evals, 0);
        assert_eq!(w.steps, 0);
    }
}
