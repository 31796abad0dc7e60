//! Batched fixed-step integration: advance `n` independent copies of the
//! same system in one call.
//!
//! States are laid out structure-of-arrays (SoA): component `d` of lane
//! (environment) `e` lives at `y[d * n_lanes + e]`, so every inner loop of
//! the stage math walks contiguous lanes and vectorizes. The derivative is
//! evaluated once per stage for *all* lanes through [`BatchSystem`], and
//! the steppers are generic over the system type — no per-derivative
//! virtual dispatch anywhere on the batched path.
//!
//! ## Determinism contract
//!
//! For every lane, the batched steppers execute exactly the floating-point
//! operations of the scalar steppers ([`crate::stepper::TableauStepper`],
//! [`crate::extrapolation::Gbs8Stepper`]) in the same order — per-lane
//! accumulations never mix lanes, stage combinations accumulate in the
//! same stage order, and FSAL caches are tracked per lane. Batched results
//! are therefore *bitwise identical* to `n` independent scalar
//! integrations; the sweeps in `tests/proptests.rs` pin this down for
//! every tableau and the order-8 extrapolation method.
//!
//! Lanes can be masked inactive (e.g. an environment that already
//! touched down mid-interval): inactive lanes keep their state, consume
//! no work and leave their FSAL cache untouched, exactly as if the scalar
//! stepper had simply not been called for them.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::extrapolation::SEQUENCE;
use crate::methods::RkOrder;
use crate::tableau::Tableau;
use crate::Work;
use simd_kernels::{odef64, AlignedF64, Isa};

/// An ODE right-hand side evaluated for `n_lanes` independent states at
/// once, in SoA layout (`y[d * n_lanes + e]`).
///
/// Implementations must compute each lane independently — lane `e` of
/// `dydt` may depend only on lane `e` of `y` — and must perform, per lane,
/// the same floating-point operations as the scalar system they batch.
pub trait BatchSystem {
    /// State dimension of one lane.
    fn dim(&self) -> usize;

    /// Number of lanes.
    fn n_lanes(&self) -> usize;

    /// Write the derivative of every lane: `dydt[d*n + e] = f_d(t, y_e)`.
    fn deriv_batch(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

/// Batched explicit RK stepper driven by a [`Tableau`].
///
/// The batched counterpart of [`crate::stepper::TableauStepper`]: one
/// contiguous `stages × dim × n_lanes` stage buffer, per-lane FSAL caches
/// and per-lane work counters.
pub struct BatchTableauStepper {
    tab: &'static Tableau,
    dim: usize,
    n: usize,
    /// Stage derivatives: stage `i`, component `d`, lane `e` at
    /// `(i*dim + d)*n + e`. 64-byte aligned so the SoA stage blocks the
    /// microkernels stream over never split cache lines.
    k: AlignedF64,
    /// Scratch state for stage evaluations (SoA, `dim × n`).
    ytmp: AlignedF64,
    /// Stage accumulator block (SoA, `dim × n`).
    acc: AlignedF64,
    /// Cached `f(t_{n+1}, y_{n+1})` per lane (SoA, `dim × n`).
    fsal: AlignedF64,
    fsal_valid: Vec<bool>,
    /// ISA tier the stage microkernels dispatch to (fixed at build).
    isa: Isa,
}

impl BatchTableauStepper {
    /// Create a batched stepper for `n` lanes of a `dim`-dimensional system.
    pub fn new(tab: &'static Tableau, dim: usize, n: usize) -> Self {
        Self::with_isa(tab, dim, n, Isa::cached())
    }

    /// Like [`Self::new`] with an explicit ISA tier. Requests above what
    /// the CPU supports are clamped, so any value is safe to pass.
    #[doc(hidden)]
    pub(crate) fn with_isa(tab: &'static Tableau, dim: usize, n: usize, isa: Isa) -> Self {
        debug_assert!(tab.validate().is_ok());
        assert!(n > 0, "batched stepper needs at least one lane");
        Self {
            tab,
            dim,
            n,
            k: AlignedF64::zeroed(tab.stages * dim * n),
            ytmp: AlignedF64::zeroed(dim * n),
            acc: AlignedF64::zeroed(dim * n),
            fsal: AlignedF64::zeroed(dim * n),
            fsal_valid: vec![false; n],
            isa: isa.min(Isa::detect()),
        }
    }

    /// Advance every *active* lane of `y` (SoA, `dim × n_lanes`) from `t`
    /// to `t + h`, accumulating each lane's cost into `work[e]`.
    ///
    /// Inactive lanes are left untouched (state, work and FSAL cache).
    /// Per-lane work matches what the scalar stepper would report: a lane
    /// with a valid FSAL cache is charged `stages - 1` evaluations even
    /// when another lane's cache miss forces a full-batch stage-0
    /// evaluation.
    pub fn step<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        h: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.isa` is clamped to the detected ISA at
            // construction. The bodies perform only IEEE-exact operations,
            // so the wide compilations are bitwise-identical to scalar.
            Isa::Avx512 => unsafe { self.step_avx512(sys, t, h, y, active, work) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { self.step_avx2(sys, t, h, y, active, work) },
            _ => self.step_inner(sys, t, h, y, active, work),
        }
    }

    /// The stepper body compiled with AVX2 enabled: besides the explicit
    /// stage microkernels, the system's `deriv_batch` inlines here and
    /// autovectorizes 4-wide. Exactly [`Self::step_inner`] otherwise.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        h: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        self.step_inner(sys, t, h, y, active, work)
    }

    /// The stepper body compiled with AVX-512F enabled: `deriv_batch`
    /// inlines here and autovectorizes 8-wide to match the 8-lane stage
    /// microkernels.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f")]
    unsafe fn step_avx512<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        h: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        self.step_inner(sys, t, h, y, active, work)
    }

    #[inline(always)]
    fn step_inner<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        h: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        let (dim, n) = (self.dim, self.n);
        debug_assert_eq!(y.len(), dim * n);
        debug_assert_eq!(active.len(), n);
        debug_assert_eq!(work.len(), n);
        let s = self.tab.stages;
        let lane_len = dim * n;

        // One accounting pass instead of one per stage: every active lane
        // pays `stages - 1` upper-stage evaluations plus stage 0 unless
        // its FSAL cache covers it — identical totals to charging at each
        // evaluation site, without s branchy sweeps per substep.
        for e in 0..n {
            if active[e] {
                work[e].steps += 1;
                let stage0 = u64::from(!(self.tab.fsal && self.fsal_valid[e]));
                work[e].fn_evals += (s as u64 - 1) + stage0;
            }
        }

        // Stage 0 — per-lane FSAL reuse. If every lane has a valid cache
        // the evaluation is skipped outright; otherwise evaluate the whole
        // batch and overwrite the cached lanes (only the misses were
        // charged above).
        let all_valid = self.tab.fsal && self.fsal_valid.iter().all(|&v| v);
        if all_valid {
            self.k[..lane_len].copy_from_slice(&self.fsal);
        } else {
            sys.deriv_batch(t, y, &mut self.k[..lane_len]);
            if self.tab.fsal {
                for e in 0..n {
                    if self.fsal_valid[e] {
                        for d in 0..dim {
                            self.k[d * n + e] = self.fsal[d * n + e];
                        }
                    }
                }
            }
        }

        // Remaining stages. Per lane this is the scalar stepper's
        // `acc = Σ_j a(i,j) k_j; ytmp = y + h*acc` with the identical
        // accumulation order: the fused microkernel seeds each element's
        // accumulator at 0.0 and adds the stage terms in ascending j, and
        // lanes never mix. The tableau's flattened `a` makes stage i's
        // coefficient row a contiguous slice.
        for i in 1..s {
            {
                let (done, _) = self.k.split_at(i * lane_len);
                let row = &self.tab.a[i * (i - 1) / 2..][..i];
                odef64::stage_update(self.isa, row, done, y, h, &mut self.ytmp);
            }
            let (_, rest) = self.k.split_at_mut(i * lane_len);
            sys.deriv_batch(t + self.tab.c[i] * h, &self.ytmp, &mut rest[..lane_len]);
        }

        // Combine stages into the new state. With every lane active the
        // fused kernel updates y directly; otherwise compute the scaled
        // update into scratch and apply it to active lanes only — the
        // same `y[e] += h·Σ` per active element either way.
        let all_active = active.iter().all(|&a| a);
        if all_active {
            odef64::combine_inplace(self.isa, self.tab.b, &self.k, h, y);
        } else {
            odef64::combine_scaled(self.isa, self.tab.b, &self.k, h, &mut self.acc);
            for d in 0..dim {
                let yd = &mut y[d * n..][..n];
                let ad = &self.acc[d * n..][..n];
                for e in 0..n {
                    if active[e] {
                        yd[e] += ad[e];
                    }
                }
            }
        }

        // FSAL: k[s-1] is f(t+h, y_{n+1}) — cache it for active lanes.
        if self.tab.fsal {
            let last = &self.k[(s - 1) * lane_len..][..lane_len];
            if all_active {
                self.fsal.copy_from_slice(last);
                self.fsal_valid.fill(true);
            } else {
                for e in 0..n {
                    if active[e] {
                        for d in 0..dim {
                            self.fsal[d * n + e] = last[d * n + e];
                        }
                        self.fsal_valid[e] = true;
                    }
                }
            }
        }
    }

    /// Forget lane `e`'s FSAL cache (call when that lane's state jumps,
    /// e.g. on an environment reset).
    pub fn reset_lane(&mut self, e: usize) {
        self.fsal_valid[e] = false;
    }

    /// Keep only the lanes with `keep[e]`, in order, each with its FSAL
    /// cache (see [`AnyBatchStepper::retain_lanes`]).
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.n, "one flag per lane");
        let m = keep.iter().filter(|&&k| k).count();
        let mut next = Self::with_isa(self.tab, self.dim, m, self.isa);
        for (j, e) in (0..self.n).filter(|&e| keep[e]).enumerate() {
            next.fsal_valid[j] = self.fsal_valid[e];
            for d in 0..self.dim {
                next.fsal[d * m + j] = self.fsal[d * self.n + e];
            }
        }
        *self = next;
    }
}

/// Batched order-8 stepper: GBS extrapolation of the modified midpoint
/// rule, the counterpart of [`crate::extrapolation::Gbs8Stepper`].
///
/// No FSAL structure — every step costs the full
/// `1 + Σ n_j` evaluations per active lane, like the scalar method.
pub struct BatchGbs8Stepper {
    dim: usize,
    n: usize,
    /// Extrapolation tableau rows, each SoA `dim × n`.
    table: Vec<AlignedF64>,
    z_prev: AlignedF64,
    z_cur: AlignedF64,
    z_next: AlignedF64,
    f0: AlignedF64,
    scratch: AlignedF64,
    /// ISA tier the stage microkernels dispatch to (fixed at build).
    isa: Isa,
}

impl BatchGbs8Stepper {
    /// Create a batched stepper for `n` lanes of a `dim`-dimensional system.
    pub fn new(dim: usize, n: usize) -> Self {
        Self::with_isa(dim, n, Isa::cached())
    }

    /// Like [`Self::new`] with an explicit ISA tier. Requests above what
    /// the CPU supports are clamped, so any value is safe to pass.
    #[doc(hidden)]
    pub(crate) fn with_isa(dim: usize, n: usize, isa: Isa) -> Self {
        assert!(n > 0, "batched stepper needs at least one lane");
        Self {
            dim,
            n,
            table: (0..SEQUENCE.len()).map(|_| AlignedF64::zeroed(dim * n)).collect(),
            z_prev: AlignedF64::zeroed(dim * n),
            z_cur: AlignedF64::zeroed(dim * n),
            z_next: AlignedF64::zeroed(dim * n),
            f0: AlignedF64::zeroed(dim * n),
            scratch: AlignedF64::zeroed(dim * n),
            isa: isa.min(Isa::detect()),
        }
    }

    /// See [`BatchTableauStepper::step`]; identical contract, order-8 math.
    pub fn step<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        bigh: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.isa` is clamped to the detected ISA at
            // construction. The bodies perform only IEEE-exact operations,
            // so the wide compilations are bitwise-identical to scalar.
            Isa::Avx512 => unsafe { self.step_avx512(sys, t, bigh, y, active, work) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { self.step_avx2(sys, t, bigh, y, active, work) },
            _ => self.step_inner(sys, t, bigh, y, active, work),
        }
    }

    /// The stepper body compiled with AVX2 enabled; see
    /// [`BatchTableauStepper::step_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        bigh: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        self.step_inner(sys, t, bigh, y, active, work)
    }

    /// The stepper body compiled with AVX-512F enabled; see
    /// [`BatchTableauStepper::step_avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f")]
    unsafe fn step_avx512<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        bigh: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        self.step_inner(sys, t, bigh, y, active, work)
    }

    #[inline(always)]
    fn step_inner<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        bigh: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        let (dim, n) = (self.dim, self.n);
        debug_assert_eq!(y.len(), dim * n);

        // One accounting pass: the GBS evaluation count is data-
        // independent — `f0` once, then `n_j` evaluations per
        // extrapolation row — and every active lane pays it in full.
        let evals = 1 + SEQUENCE.iter().map(|&nsub| nsub as u64).sum::<u64>();
        for e in 0..n {
            if active[e] {
                work[e].steps += 1;
                work[e].fn_evals += evals;
            }
        }

        sys.deriv_batch(t, y, &mut self.f0);

        for (row, &nsub) in SEQUENCE.iter().enumerate() {
            let h = bigh / nsub as f64;

            // z0 = y; z1 = y + h f(t, y)
            self.z_prev.copy_from_slice(y);
            odef64::axpy_const(self.isa, y, h, &self.f0, &mut self.z_cur);

            // z_{m+1} = z_{m-1} + (2h) f(t + m h, z_m) — the scalar
            // stepper's `2.0 * h * f` also multiplies `2.0 * h` first, so
            // hoisting the product is bitwise-neutral.
            let h2 = 2.0 * h;
            for m in 1..nsub {
                sys.deriv_batch(t + m as f64 * h, &self.z_cur, &mut self.scratch);
                odef64::axpy_const(self.isa, &self.z_prev, h2, &self.scratch, &mut self.z_next);
                std::mem::swap(&mut self.z_prev, &mut self.z_cur);
                std::mem::swap(&mut self.z_cur, &mut self.z_next);
            }

            // Gragg smoothing: S = (z_n + z_{n-1} + h f(t+H, z_n)) / 2
            sys.deriv_batch(t + bigh, &self.z_cur, &mut self.scratch);
            odef64::gragg_smooth(
                self.isa,
                &self.z_cur,
                &self.z_prev,
                h,
                &self.scratch,
                &mut self.table[row],
            );
        }

        // Aitken–Neville extrapolation in (H/n)², element-wise per lane —
        // the same column-by-column, bottom-up sweep as the scalar stepper.
        for k in 1..SEQUENCE.len() {
            for j in (k..SEQUENCE.len()).rev() {
                let r = (SEQUENCE[j] as f64 / SEQUENCE[j - k] as f64).powi(2);
                let (lo, hi) = self.table.split_at_mut(j);
                odef64::neville_update(self.isa, &mut hi[0], &lo[j - 1], r - 1.0);
            }
        }

        let last = &self.table[SEQUENCE.len() - 1];
        if active.iter().all(|&a| a) {
            y.copy_from_slice(last);
        } else {
            for d in 0..dim {
                for e in 0..n {
                    if active[e] {
                        y[d * n + e] = last[d * n + e];
                    }
                }
            }
        }
    }
}

/// A batched stepper of any study order, monomorphized over the system.
///
/// The enum match happens once per sub-step; the inner loops are fully
/// monomorphic. Build with [`RkOrder::batch_stepper`].
pub enum AnyBatchStepper {
    /// Tableau-driven explicit RK (orders 3 and 5 in the study).
    Tableau(BatchTableauStepper),
    /// GBS extrapolation (the study's order 8).
    Gbs8(BatchGbs8Stepper),
}

impl AnyBatchStepper {
    /// Batched stepper for `order`, `n` lanes of a `dim`-dim system.
    pub fn new(order: RkOrder, dim: usize, n: usize) -> Self {
        Self::with_isa(order, dim, n, Isa::cached())
    }

    /// Like [`Self::new`] with an explicit ISA tier (clamped to what the
    /// CPU supports).
    #[doc(hidden)]
    pub(crate) fn with_isa(order: RkOrder, dim: usize, n: usize, isa: Isa) -> Self {
        match order {
            RkOrder::Three => AnyBatchStepper::Tableau(BatchTableauStepper::with_isa(
                &crate::tableau::BS23,
                dim,
                n,
                isa,
            )),
            RkOrder::Five => AnyBatchStepper::Tableau(BatchTableauStepper::with_isa(
                &crate::tableau::DOPRI5,
                dim,
                n,
                isa,
            )),
            RkOrder::Eight => AnyBatchStepper::Gbs8(BatchGbs8Stepper::with_isa(dim, n, isa)),
        }
    }

    /// See [`BatchTableauStepper::step`].
    pub fn step<S: BatchSystem>(
        &mut self,
        sys: &S,
        t: f64,
        h: f64,
        y: &mut [f64],
        active: &[bool],
        work: &mut [Work],
    ) {
        match self {
            AnyBatchStepper::Tableau(st) => st.step(sys, t, h, y, active, work),
            AnyBatchStepper::Gbs8(st) => st.step(sys, t, h, y, active, work),
        }
    }

    /// Forget lane `e`'s FSAL cache (no-op for methods without FSAL).
    pub fn reset_lane(&mut self, e: usize) {
        if let AnyBatchStepper::Tableau(st) = self {
            st.reset_lane(e);
        }
    }

    /// Keep only the lanes with `keep[e]` (at least one), in order: lane
    /// `e`'s FSAL cache moves with it, so every kept lane steps on exactly
    /// as it would have in the wider batch.
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        match self {
            AnyBatchStepper::Tableau(st) => st.retain_lanes(keep),
            AnyBatchStepper::Gbs8(st) => {
                assert_eq!(keep.len(), st.n, "one flag per lane");
                let m = keep.iter().filter(|&&k| k).count();
                *st = BatchGbs8Stepper::with_isa(st.dim, m, st.isa);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extrapolation::Gbs8Stepper;
    use crate::stepper::TableauStepper;
    use crate::system::FnSystem;
    use crate::tableau::{ALL_TABLEAUS, DOPRI5};

    /// Nonlinear scalar reference: dy_d = sin(y_d)·c - y_{d-1} (cyclic).
    fn lane_deriv(c: f64, y: &[f64], dydt: &mut [f64]) {
        let dim = y.len();
        for d in 0..dim {
            let prev = y[(d + dim - 1) % dim];
            dydt[d] = y[d].sin() * c - prev;
        }
    }

    struct TestBatch {
        dim: usize,
        coeffs: Vec<f64>,
    }

    impl BatchSystem for TestBatch {
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

    fn soa_from_lanes(lanes: &[Vec<f64>]) -> Vec<f64> {
        let n = lanes.len();
        let dim = lanes[0].len();
        let mut y = vec![0.0; dim * n];
        for (e, lane) in lanes.iter().enumerate() {
            for d in 0..dim {
                y[d * n + e] = lane[d];
            }
        }
        y
    }

    #[test]
    fn batch_matches_scalar_bitwise_for_every_tableau() {
        let dim = 3;
        let coeffs = vec![0.7, -0.4, 1.3, 0.05];
        let n = coeffs.len();
        let lanes: Vec<Vec<f64>> = (0..n)
            .map(|e| (0..dim).map(|d| 0.3 * (e as f64 + 1.0) + 0.1 * d as f64).collect())
            .collect();

        for tab in ALL_TABLEAUS {
            let sys = TestBatch { dim, coeffs: coeffs.clone() };
            let mut bst = BatchTableauStepper::new(tab, dim, n);
            let mut y = soa_from_lanes(&lanes);
            let active = vec![true; n];
            let mut work = vec![Work::default(); n];
            for s in 0..4 {
                bst.step(&sys, 0.1 * s as f64, 0.1, &mut y, &active, &mut work);
            }

            for (e, lane) in lanes.iter().enumerate() {
                let c = coeffs[e];
                let scalar_sys =
                    FnSystem::new(dim, move |_t, y: &[f64], dy: &mut [f64]| lane_deriv(c, y, dy));
                let mut st = TableauStepper::new(tab, dim);
                let mut ys = lane.clone();
                let mut w = Work::default();
                for s in 0..4 {
                    w += st.step_sys(&scalar_sys, 0.1 * s as f64, 0.1, &mut ys);
                }
                for d in 0..dim {
                    assert_eq!(
                        y[d * n + e].to_bits(),
                        ys[d].to_bits(),
                        "{}: lane {e} component {d}",
                        tab.name
                    );
                }
                assert_eq!(work[e], w, "{}: lane {e} work", tab.name);
            }
        }
    }

    #[test]
    fn batch_gbs8_matches_scalar_bitwise() {
        let dim = 2;
        let coeffs = vec![0.9, -0.2, 0.4];
        let n = coeffs.len();
        let lanes: Vec<Vec<f64>> =
            (0..n).map(|e| vec![1.0 + 0.2 * e as f64, -0.5 * e as f64]).collect();

        let sys = TestBatch { dim, coeffs: coeffs.clone() };
        let mut bst = BatchGbs8Stepper::new(dim, n);
        let mut y = soa_from_lanes(&lanes);
        let active = vec![true; n];
        let mut work = vec![Work::default(); n];
        for s in 0..3 {
            bst.step(&sys, 0.2 * s as f64, 0.2, &mut y, &active, &mut work);
        }

        for (e, lane) in lanes.iter().enumerate() {
            let c = coeffs[e];
            let scalar_sys =
                FnSystem::new(dim, move |_t, y: &[f64], dy: &mut [f64]| lane_deriv(c, y, dy));
            let mut st = Gbs8Stepper::new(dim);
            let mut ys = lane.clone();
            let mut w = Work::default();
            for s in 0..3 {
                w += st.step_sys(&scalar_sys, 0.2 * s as f64, 0.2, &mut ys);
            }
            for d in 0..dim {
                assert_eq!(y[d * n + e].to_bits(), ys[d].to_bits(), "lane {e} component {d}");
            }
            assert_eq!(work[e], w, "lane {e} work");
        }
    }

    #[test]
    fn inactive_lanes_are_frozen_and_free() {
        let dim = 2;
        let coeffs = vec![0.5, 0.5];
        let sys = TestBatch { dim, coeffs };
        let mut st = BatchTableauStepper::new(&DOPRI5, dim, 2);
        let mut y = soa_from_lanes(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
        let frozen: Vec<f64> = (0..dim).map(|d| y[d * 2 + 1]).collect();
        let active = vec![true, false];
        let mut work = vec![Work::default(); 2];
        st.step(&sys, 0.0, 0.1, &mut y, &active, &mut work);
        for d in 0..dim {
            assert_eq!(y[d * 2 + 1], frozen[d], "inactive lane must not move");
            assert_ne!(y[d * 2], frozen[d], "active lane must move");
        }
        assert_eq!(work[1], Work::default(), "inactive lane consumes no work");
        assert_eq!(work[0].fn_evals, 7);
    }

    #[test]
    fn mixed_fsal_caches_charge_only_misses() {
        let dim = 1;
        let coeffs = vec![0.3, 0.3];
        let sys = TestBatch { dim, coeffs };
        let mut st = BatchTableauStepper::new(&DOPRI5, dim, 2);
        let mut y = vec![1.0, 1.0];
        let active = vec![true; 2];
        let mut work = vec![Work::default(); 2];
        st.step(&sys, 0.0, 0.1, &mut y, &active, &mut work);
        assert_eq!(work[0].fn_evals, 7);
        // Invalidate lane 1's cache only: lane 0 keeps the FSAL saving.
        st.reset_lane(1);
        let mut work2 = vec![Work::default(); 2];
        st.step(&sys, 0.1, 0.1, &mut y, &active, &mut work2);
        assert_eq!(work2[0].fn_evals, 6, "cached lane pays stages-1");
        assert_eq!(work2[1].fn_evals, 7, "reset lane pays the full cost");
    }

    #[test]
    fn retained_lanes_step_on_as_in_the_wide_batch() {
        // Warm every FSAL cache, drop lanes 1 and 3, then step on: the
        // kept lanes must match the same lanes of a batch that kept all
        // four, in state bits and in work (a lost cache costs one eval).
        let (dim, coeffs) = (2, vec![0.7, -0.4, 1.3, 0.05]);
        let lanes: Vec<Vec<f64>> =
            (0..4).map(|e| vec![0.3 + 0.2 * e as f64, -0.1 * e as f64]).collect();
        let keep = [true, false, true, false];
        for order in RkOrder::ALL {
            let wide_sys = TestBatch { dim, coeffs: coeffs.clone() };
            let mut wide = AnyBatchStepper::new(order, dim, 4);
            let mut y = soa_from_lanes(&lanes);
            let mut work = vec![Work::default(); 4];
            for s in 0..2 {
                wide.step(&wide_sys, 0.1 * s as f64, 0.1, &mut y, &[true; 4], &mut work);
            }
            let mut narrow = AnyBatchStepper::new(order, dim, 4);
            let mut yn = soa_from_lanes(&lanes);
            let mut wn = vec![Work::default(); 4];
            for s in 0..2 {
                narrow.step(&wide_sys, 0.1 * s as f64, 0.1, &mut yn, &[true; 4], &mut wn);
            }
            narrow.retain_lanes(&keep);
            let kept = [0, 2];
            let narrow_sys = TestBatch { dim, coeffs: kept.iter().map(|&e| coeffs[e]).collect() };
            let mut yk: Vec<f64> = (0..dim).flat_map(|d| kept.map(|e| yn[d * 4 + e])).collect();
            let mut wk = vec![Work::default(); 2];
            let mut ww = vec![Work::default(); 4];
            for s in 2..5 {
                wide.step(&wide_sys, 0.1 * s as f64, 0.1, &mut y, &[true; 4], &mut ww);
                narrow.step(&narrow_sys, 0.1 * s as f64, 0.1, &mut yk, &[true; 2], &mut wk);
            }
            for (j, &e) in kept.iter().enumerate() {
                for d in 0..dim {
                    assert_eq!(yk[d * 2 + j].to_bits(), y[d * 4 + e].to_bits(), "{order} lane {e}");
                }
                assert_eq!(wk[j], ww[e], "{order} lane {e} work");
            }
        }
    }

    #[test]
    fn every_isa_tier_is_bitwise_identical() {
        // The dispatch decision must be unobservable: run the same batch
        // on every tier this CPU supports (including a masked lane and a
        // mid-run FSAL reset) and compare all bits.
        let dim = 3;
        let coeffs = vec![0.7, -0.4, 1.3, 0.05, 0.9];
        let n = coeffs.len();
        let lanes: Vec<Vec<f64>> = (0..n)
            .map(|e| (0..dim).map(|d| 0.25 * (e as f64 + 1.0) - 0.2 * d as f64).collect())
            .collect();
        let mut active = vec![true; n];
        active[2] = false;

        for order in RkOrder::ALL {
            let mut reference: Option<(Vec<f64>, Vec<Work>)> = None;
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let sys = TestBatch { dim, coeffs: coeffs.clone() };
                let mut st = AnyBatchStepper::with_isa(order, dim, n, isa);
                let tier = match &st {
                    AnyBatchStepper::Tableau(st) => st.isa,
                    AnyBatchStepper::Gbs8(st) => st.isa,
                };
                assert_eq!(tier, isa);
                let mut y = soa_from_lanes(&lanes);
                let mut work = vec![Work::default(); n];
                for s in 0..4 {
                    if s == 2 {
                        st.reset_lane(0);
                    }
                    st.step(&sys, 0.1 * s as f64, 0.1, &mut y, &active, &mut work);
                }
                match &reference {
                    None => reference = Some((y, work)),
                    Some((y_ref, w_ref)) => {
                        assert!(
                            y.iter().zip(y_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{order} on {isa}: state diverged from scalar"
                        );
                        assert_eq!(&work, w_ref, "{order} on {isa}: work diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn any_batch_stepper_dispatches_every_order() {
        for order in RkOrder::ALL {
            let dim = 2;
            let sys = TestBatch { dim, coeffs: vec![0.4, -0.4] };
            let mut st = AnyBatchStepper::new(order, dim, 2);
            let mut y = soa_from_lanes(&[vec![1.0, 0.5], vec![0.2, -0.3]]);
            let before = y.clone();
            let mut work = vec![Work::default(); 2];
            st.step(&sys, 0.0, 0.1, &mut y, &[true, true], &mut work);
            assert_ne!(y, before, "{order}: states must advance");
            assert!(work[0].fn_evals > 0 && work[1].fn_evals > 0);
            st.reset_lane(0);
        }
    }
}
