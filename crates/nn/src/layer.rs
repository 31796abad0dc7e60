//! Fully-connected layers and activations with manual backprop.

use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;
use simd_kernels::{mathf64, Isa};

/// Pointwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no activation) — used on output layers.
    Identity,
    /// Hyperbolic tangent — default hidden activation for PPO policies.
    Tanh,
    /// Rectified linear unit — default hidden activation for SAC networks.
    Relu,
}

impl Activation {
    /// Apply the activation to a whole buffer.
    ///
    /// Hoists the variant match out of the sweep so each arm is a tight
    /// loop. Tanh is the in-tree `mathf64::tanh` swept at the process's
    /// SIMD tier: straight-line exact-rounded arithmetic, so every tier
    /// returns the same bits, and those bits do not depend on the host's
    /// `libm`. Relu keeps
    /// `f64::max` for its IEEE `-0.0`/NaN semantics. Identity is a no-op.
    #[inline]
    pub(crate) fn apply_batch(self, xs: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Tanh => mathf64::tanh_inplace(Isa::cached(), xs),
            Activation::Relu => {
                for v in xs {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`.
    ///
    /// (For tanh, `f' = 1 - y²`; for relu, `f' = [y > 0]`; both avoid
    /// keeping the pre-activation around.)
    #[inline]
    pub(crate) fn deriv_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A fully-connected layer `y = act(x · W + b)` with gradient storage.
///
/// `W` is `in_dim × out_dim`; inputs are batches with one sample per row.
#[derive(Debug, Clone)]
pub(crate) struct Linear {
    /// Weights, `in_dim × out_dim`.
    pub(crate) w: Matrix,
    /// Bias, length `out_dim`.
    pub(crate) b: Vec<f64>,
    /// Activation applied after the affine map.
    pub(crate) act: Activation,
    /// Accumulated weight gradient (same shape as `w`).
    pub(crate) gw: Matrix,
    /// Accumulated bias gradient.
    pub(crate) gb: Vec<f64>,
}

impl Linear {
    /// Create a layer with the given initialisation.
    pub(crate) fn new(
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w: init.sample(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            act,
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub(crate) fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub(crate) fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass writing the activated output (`batch × out_dim`) into
    /// a reusable buffer (resized here).
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
        self.act.apply_batch(out.as_mut_slice());
    }

    /// Backward pass: `x` is the input that produced `y` (`batch ×
    /// in_dim`), `y` the forward output (`batch × out_dim`) and `dy` the
    /// gradient of the loss w.r.t. `y`. Accumulates into `gw`/`gb`.
    ///
    /// Caller-provided scratch: `dz` holds the
    /// pre-activation gradient, `wt` the transposed-weight panel of the
    /// `dz · Wᵀ` kernel, `dx` receives the input gradient. All are resized
    /// here, so an [`Mlp`](crate::Mlp) can thread the same buffers through
    /// every layer and every update without reallocating. With `dx: None`
    /// only `gw`/`gb` are accumulated — the first layer of a network whose
    /// input gradient nobody reads skips its `dz · Wᵀ`.
    pub(crate) fn backward_into(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        dy: &Matrix,
        dz: &mut Matrix,
        wt: &mut Vec<f64>,
        dx: Option<&mut Matrix>,
    ) {
        debug_assert_eq!(x.shape(), (dy.rows(), self.in_dim()));
        self.pre_activation_grad(y, dy, dz);
        // gw += xᵀ · dz ; gb += Σ_rows dz ; dx = dz · Wᵀ
        x.transpose_matmul_acc(dz, &mut self.gw);
        dz.sum_rows_into(&mut self.gb);
        if let Some(dx) = dx {
            dz.matmul_transpose_rhs_into(&self.w, wt, dx);
        }
    }

    /// [`Linear::backward_into`] for the input gradient alone: `gw`/`gb`
    /// are left as they are, and `dx` gets the same bits.
    pub(crate) fn backward_input_into(
        &self,
        y: &Matrix,
        dy: &Matrix,
        dz: &mut Matrix,
        wt: &mut Vec<f64>,
        dx: &mut Matrix,
    ) {
        self.pre_activation_grad(y, dy, dz);
        dz.matmul_transpose_rhs_into(&self.w, wt, dx);
    }

    /// `dz = dy ⊙ act'(y)`.
    fn pre_activation_grad(&self, y: &Matrix, dy: &Matrix, dz: &mut Matrix) {
        debug_assert_eq!(dy.cols(), self.out_dim());
        dz.copy_resize_from(dy);
        if self.act != Activation::Identity {
            for (g, &out) in dz.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *g *= self.act.deriv_from_output(out);
            }
        }
    }

    /// Zero the accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gb.fill(0.0);
    }

    /// Number of scalar parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward(layer: &Linear, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward_into(x, &mut y);
        y
    }

    /// Accumulates the gradients and returns the one w.r.t. `x`.
    fn backward(layer: &mut Linear, x: &Matrix, y: &Matrix, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        layer.backward_into(x, y, dy, &mut Matrix::default(), &mut Vec::new(), Some(&mut dx));
        dx
    }

    fn finite_diff_check(act: Activation) {
        // Compare analytic gradients against central finite differences for
        // the scalar loss L = Σ y.
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, act, Init::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.8, 0.5], &[1.2, 0.1, -0.4]]);
        let y = forward(&layer, &x);
        let dy = Matrix::full(2, 2, 1.0);
        layer.zero_grad();
        let dx = backward(&mut layer, &x, &y, &dy);

        let loss = |l: &Linear, x: &Matrix| -> f64 { forward(l, x).as_slice().iter().sum() };
        let eps = 1e-6;

        // Weight gradients.
        for i in 0..3 {
            for j in 0..2 {
                let mut lp = layer.clone();
                lp.w.set(i, j, lp.w.get(i, j) + eps);
                let mut lm = layer.clone();
                lm.w.set(i, j, lm.w.get(i, j) - eps);
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
                let ana = layer.gw.get(i, j);
                assert!((num - ana).abs() < 1e-6, "{act:?} dW[{i}{j}]: {num} vs {ana}");
            }
        }
        // Bias gradients.
        for j in 0..2 {
            let mut lp = layer.clone();
            lp.b[j] += eps;
            let mut lm = layer.clone();
            lm.b[j] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((num - layer.gb[j]).abs() < 1e-6, "{act:?} db[{j}]");
        }
        // Input gradients.
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, xp.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, xm.get(r, c) - eps);
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!((num - dx.get(r, c)).abs() < 1e-6, "{act:?} dx[{r}{c}]");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_identity() {
        finite_diff_check(Activation::Identity);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        finite_diff_check(Activation::Tanh);
    }

    #[test]
    fn gradients_match_finite_differences_relu() {
        finite_diff_check(Activation::Relu);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        let x = Matrix::row(&[1.0, 2.0]);
        let y = forward(&layer, &x);
        let dy = Matrix::full(1, 2, 1.0);
        backward(&mut layer, &x, &y, &dy);
        let g1 = layer.gw.clone();
        backward(&mut layer, &x, &y, &dy);
        let mut doubled = g1.clone();
        doubled.axpy(1.0, &g1);
        assert_eq!(layer.gw, doubled);
        layer.zero_grad();
        assert!(layer.gw.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn activation_derivatives_from_output() {
        assert_eq!(Activation::Identity.deriv_from_output(3.0), 1.0);
        let y = 0.5f64.tanh();
        assert!((Activation::Tanh.deriv_from_output(y) - (1.0 - y * y)).abs() < 1e-15);
        assert_eq!(Activation::Relu.deriv_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.deriv_from_output(0.0), 0.0);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(4, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
    }
}
