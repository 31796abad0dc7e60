//! Properties of the integrator substrate, each a seeded sweep.

use rk_ode::batch::{BatchGbs8Stepper, BatchSystem, BatchTableauStepper};
use rk_ode::extrapolation::Gbs8Stepper;
use rk_ode::stepper::{integrate_fixed, TableauFactory, TableauStepper};
use rk_ode::system::FnSystem;
use rk_ode::tableau::{ALL_TABLEAUS, DOPRI5};
use rk_ode::{RkOrder, Work};
use testkit::sweep;

const SEED: u64 = 0x0DE;

/// Nonlinear per-lane reference dynamics: couples all components so stage
/// order matters, parameterized per lane so lanes genuinely differ.
fn lane_deriv(c: f64, y: &[f64], dydt: &mut [f64]) {
    let dim = y.len();
    for d in 0..dim {
        let prev = y[(d + dim - 1) % dim];
        dydt[d] = (y[d] * c).sin() - 0.5 * prev + c;
    }
}

/// SoA batch wrapper over `lane_deriv`, one coefficient per lane.
struct LaneBatch {
    dim: usize,
    coeffs: Vec<f64>,
}

impl BatchSystem for LaneBatch {
    fn dim(&self) -> usize {
        self.dim
    }
    fn n_lanes(&self) -> usize {
        self.coeffs.len()
    }
    fn deriv_batch(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let n = self.coeffs.len();
        let mut lane = [0.0; 8];
        let mut out = [0.0; 8];
        for (e, &c) in self.coeffs.iter().enumerate() {
            for d in 0..self.dim {
                lane[d] = y[d * n + e];
            }
            lane_deriv(c, &lane[..self.dim], &mut out[..self.dim]);
            for d in 0..self.dim {
                dydt[d * n + e] = out[d];
            }
        }
    }
}

/// Every tableau integrates linear decay with an error bounded by its
/// order's worst case, for arbitrary rates and step sizes.
#[test]
fn all_tableaus_converge_on_decay() {
    sweep(32, SEED, |g| {
        let (lambda, h) = (g.f64_in(0.1..3.0), g.f64_in(0.005..0.05));
        let sys = FnSystem::new(1, move |_t, y: &[f64], dy: &mut [f64]| dy[0] = -lambda * y[0]);
        let exact = (-lambda).exp();
        for tab in ALL_TABLEAUS {
            let mut y = vec![1.0];
            integrate_fixed(&TableauFactory(tab), &sys, &mut y, 0.0, 1.0, h);
            // Even Euler at h=0.05, λ=3 errs below ~0.15; higher orders
            // are far tighter. Use a generous per-order envelope.
            let bound = 3.0 * (lambda * h).powi(tab.order as i32);
            assert!(
                (y[0] - exact).abs() < bound.max(1e-12),
                "{}: err {} vs bound {}",
                tab.name,
                (y[0] - exact).abs(),
                bound
            );
        }
    });
}

/// Halving the step never increases the error (smooth problem, all
/// study orders).
#[test]
fn halving_steps_never_hurts() {
    let check = |lambda: f64| {
        let sys = FnSystem::new(1, move |_t, y: &[f64], dy: &mut [f64]| dy[0] = -lambda * y[0]);
        let exact = (-lambda).exp();
        for order in RkOrder::ALL {
            let err = |h: f64| {
                let mut y = vec![1.0];
                integrate_fixed(order.factory().as_ref(), &sys, &mut y, 0.0, 1.0, h);
                (y[0] - exact).abs()
            };
            let coarse = err(0.2);
            let fine = err(0.1);
            // Below ~1e-12 both errors sit in floating-point roundoff and
            // the ordering is meaningless; allow that absolute floor.
            assert!(fine <= coarse * 1.01 + 1e-12, "{order}: {fine} vs {coarse}");
        }
    };
    // A rate at which both errors sit in roundoff (order 8) and the
    // ordering flips: the case the absolute floor above is there for.
    check(0.2877767838996642);
    sweep(32, SEED, |g| check(g.f64_in(0.2..2.0)));
}

/// Integration is time-translation invariant for autonomous systems.
#[test]
fn autonomous_translation_invariance() {
    sweep(32, SEED, |g| {
        let t0 = g.f64_in(-5.0..5.0);
        let sys = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        let mut a = vec![0.7, -0.3];
        integrate_fixed(&TableauFactory(&DOPRI5), &sys, &mut a, 0.0, 1.5, 0.05);
        let mut b = vec![0.7, -0.3];
        integrate_fixed(&TableauFactory(&DOPRI5), &sys, &mut b, t0, t0 + 1.5, 0.05);
        assert!((a[0] - b[0]).abs() < 1e-12 && (a[1] - b[1]).abs() < 1e-12);
    });
}

/// The batched tableau stepper is bitwise-equal to n independent
/// scalar [`TableauStepper`] runs for *every* tableau — including
/// FSAL reuse across steps and behavior after a mid-run reset of one
/// lane (the batched analogue of an environment reset).
#[test]
fn batch_tableau_stepper_matches_scalar_bitwise() {
    sweep(32, SEED, |g| {
        let (dim, n) = (g.int_in(1usize..5), g.int_in(1usize..6));
        let (inits, coeffs) = (g.f64s(32, -1.5..1.5), g.f64s(8, -1.2..1.2));
        let (h, steps) = (g.f64_in(0.01..0.3), g.int_in(1usize..6));
        let (reset_lane, reset_after) = (g.below(8), g.below(6));
        let coeffs: Vec<f64> = (0..n).map(|e| coeffs[e % coeffs.len()]).collect();
        let init = |e: usize, d: usize| inits[(e * dim + d) % inits.len()];
        let reset_lane = reset_lane % n;

        for tab in ALL_TABLEAUS {
            // Batched run.
            let sys = LaneBatch { dim, coeffs: coeffs.clone() };
            let mut bst = BatchTableauStepper::new(tab, dim, n);
            let mut y = vec![0.0; dim * n];
            for e in 0..n {
                for d in 0..dim {
                    y[d * n + e] = init(e, d);
                }
            }
            let active = vec![true; n];
            let mut bwork = vec![Work::default(); n];
            for s in 0..steps {
                if s == reset_after {
                    bst.reset_lane(reset_lane);
                }
                bst.step(&sys, s as f64 * h, h, &mut y, &active, &mut bwork);
            }

            // n independent scalar runs with the same reset schedule.
            for e in 0..n {
                let c = coeffs[e];
                let scalar =
                    FnSystem::new(dim, move |_t, y: &[f64], dy: &mut [f64]| lane_deriv(c, y, dy));
                let mut st = TableauStepper::new(tab, dim);
                let mut ys: Vec<f64> = (0..dim).map(|d| init(e, d)).collect();
                let mut w = Work::default();
                for s in 0..steps {
                    if s == reset_after && e == reset_lane {
                        rk_ode::FixedStepper::reset(&mut st);
                    }
                    w += st.step_sys(&scalar, s as f64 * h, h, &mut ys);
                }
                for d in 0..dim {
                    assert_eq!(
                        y[d * n + e].to_bits(),
                        ys[d].to_bits(),
                        "{}: lane {} component {}",
                        tab.name,
                        e,
                        d
                    );
                }
                assert_eq!(bwork[e], w, "{}: lane {} work", tab.name, e);
            }
        }
    });
}

/// The batched order-8 (GBS extrapolation, the study's DOP853 slot)
/// stepper is bitwise-equal to n independent scalar runs.
#[test]
fn batch_gbs8_matches_scalar_bitwise() {
    sweep(32, SEED, |g| {
        let (dim, n) = (g.int_in(1usize..5), g.int_in(1usize..5));
        let (inits, coeffs) = (g.f64s(32, -1.2..1.2), g.f64s(8, -1.0..1.0));
        let (h, steps) = (g.f64_in(0.05..0.4), g.int_in(1usize..4));
        let coeffs: Vec<f64> = (0..n).map(|e| coeffs[e % coeffs.len()]).collect();
        let init = |e: usize, d: usize| inits[(e * dim + d) % inits.len()];

        let sys = LaneBatch { dim, coeffs: coeffs.clone() };
        let mut bst = BatchGbs8Stepper::new(dim, n);
        let mut y = vec![0.0; dim * n];
        for e in 0..n {
            for d in 0..dim {
                y[d * n + e] = init(e, d);
            }
        }
        let active = vec![true; n];
        let mut bwork = vec![Work::default(); n];
        for s in 0..steps {
            bst.step(&sys, s as f64 * h, h, &mut y, &active, &mut bwork);
        }

        for e in 0..n {
            let c = coeffs[e];
            let scalar =
                FnSystem::new(dim, move |_t, y: &[f64], dy: &mut [f64]| lane_deriv(c, y, dy));
            let mut st = Gbs8Stepper::new(dim);
            let mut ys: Vec<f64> = (0..dim).map(|d| init(e, d)).collect();
            let mut w = Work::default();
            for s in 0..steps {
                w += st.step_sys(&scalar, s as f64 * h, h, &mut ys);
            }
            for d in 0..dim {
                assert_eq!(
                    y[d * n + e].to_bits(),
                    ys[d].to_bits(),
                    "gbs8: lane {} component {}",
                    e,
                    d
                );
            }
            assert_eq!(bwork[e], w, "gbs8: lane {} work", e);
        }
    });
}

/// Work counters are exact: fn_evals equals the number of derivative
/// callbacks for any tableau and step count.
#[test]
fn work_counter_is_exact() {
    sweep(32, SEED, |g| {
        let steps = g.int_in(1usize..20);
        use std::sync::atomic::{AtomicU64, Ordering};
        for order in RkOrder::ALL {
            let count = AtomicU64::new(0);
            let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| {
                count.fetch_add(1, Ordering::Relaxed);
                dy[0] = -y[0];
            });
            let mut y = vec![1.0];
            let h = 1.0 / steps as f64;
            let work = integrate_fixed(order.factory().as_ref(), &sys, &mut y, 0.0, 1.0, h);
            assert_eq!(work.fn_evals, count.load(Ordering::Relaxed), "{}", order);
            assert_eq!(work.steps, steps as u64);
        }
    });
}
