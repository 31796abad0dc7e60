//! Fixed-step integration driven by Butcher tableaus.
//!
//! The stepper exposes two call surfaces over one implementation:
//!
//! * the object-safe [`FixedStepper`] trait (`&dyn System` derivatives),
//!   used where methods are mixed at runtime — the paper treats the RK
//!   order as a tunable parameter;
//! * generic `*_sys` methods ([`TableauStepper::step_sys`]) that
//!   monomorphize over the concrete system type, so the derivative call
//!   inlines into the stage loops with no virtual dispatch.
//!
//! Both paths run the *same* code — the trait method instantiates the
//! generic one with `S = dyn System` — so their results are bitwise
//! identical by construction. The batched steppers in [`crate::batch`]
//! rely on the same guarantee.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::system::System;
use crate::tableau::Tableau;
use crate::Work;

/// A stepper that advances a state by one fixed step `h`.
///
/// Implementations own their scratch buffers, so stepping performs no
/// allocation after construction (see the hpc guidance: keep the hot loop
/// allocation-free).
pub trait FixedStepper: Send {
    /// Nominal order of accuracy.
    fn order(&self) -> u32;

    /// Derivative evaluations consumed by one step (without FSAL reuse).
    fn cost_per_step(&self) -> u64;

    /// Human-readable method name.
    fn name(&self) -> &'static str;

    /// Advance `y` in place from `t` to `t + h`, returning the work done.
    fn step(&mut self, sys: &dyn System, t: f64, h: f64, y: &mut [f64]) -> Work;

    /// Forget any cached FSAL derivative (call when `t`/`y` jump).
    fn reset(&mut self) {}
}

/// Generic explicit RK stepper driven by a [`Tableau`].
///
/// Stage derivatives live in one contiguous `stages × dim` buffer (stage
/// `i` at `k[i*dim..(i+1)*dim]`), so the stage-combination loops walk flat
/// memory instead of chasing per-stage heap pointers.
pub struct TableauStepper {
    tab: &'static Tableau,
    /// Stage derivatives, flattened: stage `i`, component `d` at `i*dim + d`.
    k: Vec<f64>,
    /// Scratch state for stage evaluations.
    ytmp: Vec<f64>,
    /// Cached `f(t_{n+1}, y_{n+1})` for FSAL reuse (valid when `fsal_valid`).
    fsal: Vec<f64>,
    fsal_valid: bool,
    dim: usize,
}

impl TableauStepper {
    /// Create a stepper for `dim`-dimensional systems.
    pub fn new(tab: &'static Tableau, dim: usize) -> Self {
        debug_assert!(tab.validate().is_ok());
        Self {
            tab,
            k: vec![0.0; tab.stages * dim],
            ytmp: vec![0.0; dim],
            fsal: vec![0.0; dim],
            fsal_valid: false,
            dim,
        }
    }

    /// Monomorphized step: like [`FixedStepper::step`] but generic over the
    /// system, so the derivative evaluation inlines into the stage loops.
    /// The `&dyn` entry point instantiates this with `S = dyn System`, so
    /// both paths execute identical floating-point operations.
    pub fn step_sys<S: System + ?Sized>(&mut self, sys: &S, t: f64, h: f64, y: &mut [f64]) -> Work {
        let n = self.dim;
        debug_assert_eq!(y.len(), n);
        let s = self.tab.stages;
        let mut work = Work { steps: 1, ..Work::default() };

        // Stage 0 — reuse the FSAL derivative when available.
        if self.fsal_valid {
            self.k[..n].copy_from_slice(&self.fsal);
        } else {
            sys.deriv(t, y, &mut self.k[..n]);
            work.fn_evals += 1;
        }

        // Remaining stages.
        for i in 1..s {
            {
                let (done, _) = self.k.split_at(i * n);
                for d in 0..n {
                    let mut acc = 0.0;
                    for j in 0..i {
                        acc += self.tab.a(i, j) * done[j * n + d];
                    }
                    self.ytmp[d] = y[d] + h * acc;
                }
            }
            let (_, rest) = self.k.split_at_mut(i * n);
            sys.deriv(t + self.tab.c[i] * h, &self.ytmp, &mut rest[..n]);
            work.fn_evals += 1;
        }

        // Combine stages into the new state.
        for d in 0..n {
            let mut acc = 0.0;
            for (i, &w) in self.tab.b.iter().enumerate() {
                acc += w * self.k[i * n + d];
            }
            y[d] += h * acc;
        }

        // FSAL: k[s-1] is f(t+h, y_{n+1}).
        if self.tab.fsal {
            self.fsal.copy_from_slice(&self.k[(s - 1) * n..]);
            self.fsal_valid = true;
        }

        work
    }
}

impl FixedStepper for TableauStepper {
    fn order(&self) -> u32 {
        self.tab.order
    }

    fn cost_per_step(&self) -> u64 {
        self.tab.stages as u64
    }

    fn name(&self) -> &'static str {
        self.tab.name
    }

    fn step(&mut self, sys: &dyn System, t: f64, h: f64, y: &mut [f64]) -> Work {
        self.step_sys(sys, t, h, y)
    }

    fn reset(&mut self) {
        self.fsal_valid = false;
    }
}

/// Builder-style configuration of a fixed-step integration run: the
/// single entry point behind [`integrate_fixed`].
///
/// The builder separates the two orthogonal choices — the *method* (a
/// [`StepperFactory`]) and the *step size* — and offers both execution
/// modes over one loop: [`Integration::run`] instantiates
/// a fresh stepper, `Integration::run_with` drives a caller-owned,
/// reusable one.
///
/// ```
/// use rk_ode::{Integration, RkOrder};
/// use rk_ode::system::FnSystem;
///
/// let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
/// let mut y = vec![1.0];
/// let work = Integration::new(RkOrder::Five.factory().as_ref())
///     .step(1e-2)
///     .run(&sys, &mut y, 0.0, 1.0);
/// assert!((y[0] - (-1.0f64).exp()).abs() < 1e-10);
/// assert!(work.fn_evals > 0);
/// ```
#[derive(Clone, Copy)]
pub struct Integration<'a> {
    factory: &'a dyn StepperFactory,
    h: f64,
}

impl<'a> Integration<'a> {
    /// An integration using `factory`'s method. The step size defaults to
    /// unset; call [`Integration::step`] before running.
    pub fn new(factory: &'a dyn StepperFactory) -> Self {
        Integration { factory, h: 0.0 }
    }

    /// Set the (approximately) fixed step size; the final step shrinks to
    /// land exactly on `t1`.
    pub fn step(mut self, h: f64) -> Self {
        self.h = h;
        self
    }

    /// Integrate `sys` from `t0` to `t1`, instantiating a fresh stepper.
    ///
    /// Callers integrating repeatedly should hold a stepper and use
    /// `Integration::run_with` instead — it reuses the scratch buffers
    /// instead of re-allocating them on every call.
    pub fn run(&self, sys: &dyn System, y: &mut [f64], t0: f64, t1: f64) -> Work {
        let mut st = self.factory.instantiate(y.len());
        self.run_with(st.as_mut(), sys, y, t0, t1)
    }

    /// Integrate over a caller-owned stepper: no allocation per call, and
    /// the stepper's FSAL cache carries across the sub-steps.
    ///
    /// The stepper is *not* reset on entry; callers integrating a
    /// different trajectory (or after a state jump) must call
    /// [`FixedStepper::reset`] first, exactly as with manual stepping.
    pub(crate) fn run_with(
        &self,
        st: &mut dyn FixedStepper,
        sys: &dyn System,
        y: &mut [f64],
        t0: f64,
        t1: f64,
    ) -> Work {
        let h = self.h;
        let mut work = Work::default();
        let mut t = t0;
        assert!(h > 0.0 && t1 > t0, "integrate_fixed requires forward integration");
        while t < t1 - 1e-12 {
            let step = h.min(t1 - t);
            work += st.step(sys, t, step, y);
            t += step;
        }
        work
    }
}

/// Integrate `sys` from `t0` to `t1` with (approximately) fixed step `h`,
/// shrinking the final step to land exactly on `t1`.
///
/// Thin wrapper over [`Integration`].
pub fn integrate_fixed(
    stepper: &dyn StepperFactory,
    sys: &dyn System,
    y: &mut [f64],
    t0: f64,
    t1: f64,
    h: f64,
) -> Work {
    Integration::new(stepper).step(h).run(sys, y, t0, t1)
}

/// Factory producing fresh steppers of a fixed method for a given dimension.
///
/// Steppers carry per-dimension scratch space, so the method selection
/// (a cheap, clonable description) is separated from the stateful stepper.
pub trait StepperFactory: Send + Sync {
    /// Build a stepper for `dim`-dimensional systems.
    fn instantiate(&self, dim: usize) -> Box<dyn FixedStepper>;
    /// Nominal order of the produced steppers.
    fn order(&self) -> u32;
    /// Derivative evaluations per step (without FSAL savings).
    fn cost_per_step(&self) -> u64;
    /// Method name.
    fn name(&self) -> &'static str;
}

/// Factory for tableau-based methods.
#[derive(Debug, Clone, Copy)]
pub struct TableauFactory(pub &'static Tableau);

impl StepperFactory for TableauFactory {
    fn instantiate(&self, dim: usize) -> Box<dyn FixedStepper> {
        Box::new(TableauStepper::new(self.0, dim))
    }
    fn order(&self) -> u32 {
        self.0.order
    }
    fn cost_per_step(&self) -> u64 {
        self.0.stages as u64
    }
    fn name(&self) -> &'static str {
        self.0.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FnSystem;
    use crate::tableau::{BS23, DOPRI5, EULER, HEUN2, RK4};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0])
    }

    #[test]
    fn euler_matches_hand_computation() {
        let sys = decay();
        let mut st = TableauStepper::new(&EULER, 1);
        let mut y = vec![1.0];
        st.step(&sys, 0.0, 0.1, &mut y);
        // y1 = y0 + h * (-y0) = 0.9
        assert!((y[0] - 0.9).abs() < 1e-15);
    }

    #[test]
    fn rk4_is_accurate_on_decay() {
        let sys = decay();
        let mut y = vec![1.0];
        integrate_fixed(&TableauFactory(&RK4), &sys, &mut y, 0.0, 1.0, 0.01);
        assert!((y[0] - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn fsal_saves_one_eval_per_step_after_first() {
        let sys = decay();
        let mut st = TableauStepper::new(&DOPRI5, 1);
        let mut y = vec![1.0];
        let w1 = st.step(&sys, 0.0, 0.1, &mut y);
        assert_eq!(w1.fn_evals, 7);
        let w2 = st.step(&sys, 0.1, 0.1, &mut y);
        assert_eq!(w2.fn_evals, 6, "FSAL should reuse the cached derivative");
    }

    #[test]
    fn reset_clears_fsal_cache() {
        let sys = decay();
        let mut st = TableauStepper::new(&BS23, 1);
        let mut y = vec![1.0];
        st.step(&sys, 0.0, 0.1, &mut y);
        st.reset();
        let w = st.step(&sys, 0.1, 0.1, &mut y);
        assert_eq!(w.fn_evals, 4, "after reset all stages must be recomputed");
    }

    #[test]
    fn generic_and_dyn_paths_are_bitwise_identical() {
        // The `&dyn System` trait entry point instantiates the same
        // generic code; a multi-step trajectory must match to the bit,
        // FSAL cache included.
        let sys = decay();
        let mut a = TableauStepper::new(&DOPRI5, 1);
        let mut b = TableauStepper::new(&DOPRI5, 1);
        let mut ya = vec![1.0];
        let mut yb = vec![1.0];
        for i in 0..5 {
            let t = 0.1 * i as f64;
            let wa = FixedStepper::step(&mut a, &sys, t, 0.1, &mut ya);
            let wb = b.step_sys(&sys, t, 0.1, &mut yb);
            assert_eq!(wa, wb);
            assert_eq!(ya[0].to_bits(), yb[0].to_bits());
        }
    }

    #[test]
    fn run_with_reuses_the_stepper() {
        let sys = decay();
        let factory = TableauFactory(&DOPRI5);
        let runner = Integration::new(&factory).step(0.1);
        let mut st = TableauStepper::new(&DOPRI5, 1);
        let mut y = vec![1.0];
        let w1 = runner.run_with(&mut st, &sys, &mut y, 0.0, 1.0);
        // Second call continues the same trajectory: the FSAL cache is
        // still warm, so the first step saves one evaluation.
        let w2 = runner.run_with(&mut st, &sys, &mut y, 1.0, 2.0);
        assert_eq!(w1.steps, w2.steps);
        assert_eq!(w2.fn_evals, w1.fn_evals - 1, "warm FSAL saves the first eval");

        // And it matches the factory-based entry point bit for bit.
        let mut y2 = vec![1.0];
        let mut z = vec![1.0];
        let mut st2 = TableauStepper::new(&DOPRI5, 1);
        runner.run_with(&mut st2, &sys, &mut y2, 0.0, 1.0);
        integrate_fixed(&factory, &sys, &mut z, 0.0, 1.0, 0.1);
        assert_eq!(y2[0].to_bits(), z[0].to_bits());
    }

    #[test]
    fn integrate_fixed_lands_exactly_on_t1() {
        // h does not divide the interval: the last step must shrink.
        let sys = FnSystem::new(1, |_t, _y: &[f64], dy: &mut [f64]| dy[0] = 1.0);
        let mut y = vec![0.0];
        integrate_fixed(&TableauFactory(&HEUN2), &sys, &mut y, 0.0, 1.0, 0.3);
        // y' = 1 => y(1) = 1 regardless of the method.
        assert!((y[0] - 1.0).abs() < 1e-12);
    }

    /// Measure empirical convergence order on y' = -y over [0, 1].
    fn empirical_order(tab: &'static Tableau) -> f64 {
        let sys = decay();
        let exact = (-1.0f64).exp();
        let err = |h: f64| -> f64 {
            let mut y = vec![1.0];
            integrate_fixed(&TableauFactory(tab), &sys, &mut y, 0.0, 1.0, h);
            (y[0] - exact).abs().max(1e-17)
        };
        let e1 = err(0.05);
        let e2 = err(0.025);
        (e1 / e2).log2()
    }

    #[test]
    fn convergence_orders_match_nominal() {
        for (tab, lo, hi) in [
            (&EULER, 0.8, 1.3),
            (&HEUN2, 1.8, 2.3),
            (&BS23, 2.7, 3.4),
            (&RK4, 3.7, 4.4),
            (&DOPRI5, 4.6, 5.6),
        ] {
            let p = empirical_order(tab);
            assert!(
                p > lo && p < hi,
                "{}: empirical order {p}, expected in ({lo}, {hi})",
                tab.name
            );
        }
    }

    #[test]
    fn integration_builder_matches_free_function_bitwise() {
        let sys = decay();
        let factory = TableauFactory(&DOPRI5);

        let mut y_free = vec![1.0];
        let work_free = integrate_fixed(&factory, &sys, &mut y_free, 0.0, 1.0, 0.013);

        let mut y_builder = vec![1.0];
        let work_builder =
            Integration::new(&factory).step(0.013).run(&sys, &mut y_builder, 0.0, 1.0);

        assert_eq!(y_free[0].to_bits(), y_builder[0].to_bits());
        assert_eq!(work_free, work_builder);
    }
}
