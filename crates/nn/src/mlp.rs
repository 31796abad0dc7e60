//! Sequential multilayer perceptrons with forward tapes.

use crate::init::Init;
use crate::layer::{Activation, Linear};
use crate::matrix::Matrix;
use rand::Rng;

/// A feed-forward network: a stack of `Linear` layers.
///
/// The paper's frameworks all default to two 64-unit hidden layers for
/// both policy and value networks.
///
/// ```
/// use tinynn::{Activation, Matrix, Mlp};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = Mlp::new(&[4, 64, 64, 2], Activation::Tanh, Activation::Identity, &mut rng);
/// let out = net.infer(&Matrix::row(&[0.1, 0.2, 0.3, 0.4]));
/// assert_eq!(out.shape(), (1, 2));
/// ```
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// Reused backprop buffers, rebuilt lazily.
    scratch: Scratch,
}

/// A clone copies the layers, their parameters and accumulated gradients,
/// and starts with empty backprop buffers: every backward pass resizes and
/// overwrites each buffer before it reads it, so their contents are never
/// state, and a weight broadcast clones a trained net at the cost of its
/// parameters alone.
impl Clone for Mlp {
    fn clone(&self) -> Self {
        Self { layers: self.layers.clone(), scratch: Scratch::default() }
    }
}

/// Reusable gradient buffers so a backward pass allocates nothing once
/// they have grown to the batch size (PPO runs `epochs × minibatches`
/// backward passes per rollout — the churn was measurable).
#[derive(Debug, Default)]
struct Scratch {
    /// Pre-activation gradient, reused by every layer.
    dz: Matrix,
    /// Transposed-weight panel of the `dz · Wᵀ` kernel, reused by every layer.
    wt: Vec<f64>,
    /// Gradient flowing backward: what the next layer down reads.
    grad: Matrix,
    /// Gradient flowing backward: what the current layer writes.
    next: Matrix,
}

/// Activations recorded during a forward pass, needed for backprop.
///
/// `acts[0]` is the input batch; `acts[i+1]` is the output of layer `i`.
/// A `Tape` can be reused across forward passes ([`Mlp::forward_into`])
/// so the per-layer activation buffers are allocated once per learner,
/// not once per minibatch.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    acts: Vec<Matrix>,
}

impl Tape {
    /// An empty tape, ready to be filled by [`Mlp::forward_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The final network output.
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("tape is empty — run a forward pass first")
    }
}

impl Mlp {
    /// Build an MLP with the given layer sizes; all hidden layers use
    /// `hidden_act`, the output layer uses `out_act`.
    ///
    /// The output layer gets a small-uniform init so initial outputs are
    /// near zero — standard practice for policy/value heads.
    pub fn new(
        sizes: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let hidden_init = match hidden_act {
            Activation::Relu => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        let n = sizes.len() - 1;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let last = i == n - 1;
                let (act, init) =
                    if last { (out_act, Init::Uniform(0.01)) } else { (hidden_act, hidden_init) };
                Linear::new(w[0], w[1], act, init, rng)
            })
            .collect();
        Self { layers, scratch: Scratch::default() }
    }

    /// Layer sizes `[in, h1, ..., out]` (for FLOP accounting).
    pub fn sizes(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.layers.iter().map(|l| l.in_dim()).collect();
        s.push(self.layers.last().expect("non-empty").out_dim());
        s
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass recording a tape for backprop.
    pub fn forward(&self, x: &Matrix) -> Tape {
        let mut tape = Tape::new();
        self.forward_into(x, &mut tape);
        tape
    }

    /// Forward pass recording into a reusable tape: the per-layer
    /// activation buffers are resized in place, so a learner that keeps a
    /// `Tape` around performs zero allocations per minibatch in steady
    /// state.
    pub fn forward_into(&self, x: &Matrix, tape: &mut Tape) {
        let want = self.layers.len() + 1;
        tape.acts.resize_with(want, Matrix::default);
        tape.acts[0].copy_resize_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = tape.acts.split_at_mut(i + 1);
            layer.forward_into(&prev[i], &mut rest[0]);
        }
    }

    /// Forward pass without a tape (inference only).
    ///
    /// Ping-pongs between two buffers, so the pass costs two allocations
    /// regardless of depth; [`Mlp::infer_into`] brings that to zero.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut ping = Matrix::default();
        let mut pong = Matrix::default();
        for (i, layer) in self.layers.iter().enumerate() {
            if i == 0 {
                layer.forward_into(x, &mut ping);
            } else {
                layer.forward_into(&ping, &mut pong);
                std::mem::swap(&mut ping, &mut pong);
            }
        }
        ping
    }

    /// Inference reusing a caller-held tape; returns the output batch.
    /// The hot path for batched policy evaluation: no allocations once the
    /// tape has warmed up.
    pub fn infer_into<'t>(&self, x: &Matrix, tape: &'t mut Tape) -> &'t Matrix {
        self.forward_into(x, tape);
        tape.output()
    }

    /// Backward pass from `dout` (gradient w.r.t. the network output),
    /// accumulating parameter gradients; returns the input gradient.
    ///
    /// Intermediate gradients live in the network's scratch buffers; only
    /// the returned input-gradient matrix is allocated fresh. Callers that
    /// drop it want [`Mlp::backward_params`].
    pub fn backward(&mut self, tape: &Tape, dout: &Matrix) -> Matrix {
        self.backward_impl(tape, dout, true);
        self.scratch.grad.clone()
    }

    /// [`Mlp::backward`] without the input gradient: the first layer skips
    /// its `dz · Wᵀ` product and nothing is allocated. The accumulated
    /// parameter gradients are bit for bit those of [`Mlp::backward`].
    pub fn backward_params(&mut self, tape: &Tape, dout: &Matrix) {
        self.backward_impl(tape, dout, false);
    }

    /// [`Mlp::backward`] without the parameter gradients: every layer's
    /// `gw`/`gb` is left untouched (no `xᵀ·dz`, no bias sums) and the
    /// input gradient — the same bits [`Mlp::backward`] returns — is lent
    /// out of the scratch buffers instead of cloned. SAC's `∂Q/∂a`.
    pub fn backward_input(&mut self, tape: &Tape, dout: &Matrix) -> &Matrix {
        debug_assert_eq!(tape.acts.len(), self.layers.len() + 1);
        let Scratch { dz, wt, grad, next } = &mut self.scratch;
        grad.copy_resize_from(dout);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            layer.backward_input_into(&tape.acts[i + 1], grad, dz, wt, next);
            std::mem::swap(grad, next);
        }
        &self.scratch.grad
    }

    /// The one backward loop; leaves the input gradient in `scratch.grad`
    /// when `need_input_grad` is set.
    fn backward_impl(&mut self, tape: &Tape, dout: &Matrix, need_input_grad: bool) {
        debug_assert_eq!(tape.acts.len(), self.layers.len() + 1);
        let Scratch { dz, wt, grad, next } = &mut self.scratch;
        grad.copy_resize_from(dout);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let dx = (i > 0 || need_input_grad).then_some(&mut *next);
            layer.backward_into(&tape.acts[i], &tape.acts[i + 1], grad, dz, wt, dx);
            std::mem::swap(grad, next);
        }
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visit `(param, grad)` slices of every tensor — the optimizer hook.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        for layer in &mut self.layers {
            f(layer.w.as_mut_slice(), layer.gw.as_slice());
            f(&mut layer.b, &layer.gb);
        }
    }

    /// Visit gradient slices mutably (for clipping).
    pub(crate) fn visit_grads_mut(&mut self, mut f: impl FnMut(&mut [f64])) {
        for layer in &mut self.layers {
            f(layer.gw.as_mut_slice());
            f(&mut layer.gb);
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Serialized parameter byte size — the payload the distributed
    /// backends ship over the simulated network on weight sync.
    pub fn param_bytes(&self) -> u64 {
        (self.param_count() * std::mem::size_of::<f64>()) as u64
    }

    /// Copy all parameters from another structurally identical network.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.sizes(), other.sizes(), "network shapes differ");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.w = src.w.clone();
            dst.b = src.b.clone();
        }
    }

    /// Polyak-average parameters: `self = tau * other + (1 - tau) * self`.
    ///
    /// Used for SAC target networks.
    pub fn polyak_from(&mut self, other: &Mlp, tau: f64) {
        assert_eq!(self.sizes(), other.sizes(), "network shapes differ");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            for (d, s) in dst.w.as_mut_slice().iter_mut().zip(src.w.as_slice()) {
                *d = tau * s + (1.0 - tau) * *d;
            }
            for (d, s) in dst.b.iter_mut().zip(&src.b) {
                *d = tau * s + (1.0 - tau) * *d;
            }
        }
    }

    /// True if any parameter is NaN/inf (training-health check).
    pub fn has_non_finite(&self) -> bool {
        self.layers.iter().any(|l| l.w.has_non_finite() || l.b.iter().any(|x| !x.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(rng_seed: u64) -> Mlp {
        Mlp::new(
            &[3, 8, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut StdRng::seed_from_u64(rng_seed),
        )
    }

    #[test]
    fn forward_and_infer_agree() {
        let net = make(1);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.0, -1.0]]);
        assert_eq!(net.forward(&x).output(), &net.infer(&x));
    }

    #[test]
    fn reused_tape_and_infer_into_agree_with_fresh_passes() {
        let net = make(1);
        let x1 = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.0, -1.0]]);
        let x2 = Matrix::from_rows(&[&[0.7, 0.7, -0.7]]);
        let mut tape = Tape::new();
        net.forward_into(&x1, &mut tape);
        assert_eq!(tape.output(), &net.infer(&x1));
        // Shrinking the batch must fully overwrite the reused buffers.
        assert_eq!(net.infer_into(&x2, &mut tape), &net.infer(&x2));
        // And growing it again must too.
        net.forward_into(&x1, &mut tape);
        assert_eq!(tape.output(), &net.infer(&x1));
    }

    #[test]
    fn batched_rows_match_per_row_inference() {
        // The determinism contract behind act_batch: row r of a batched
        // forward is bitwise identical to inferring that row alone.
        let net = make(12);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.0, -1.0], &[0.4, 0.5, 0.6]]);
        let batched = net.infer(&x);
        for r in 0..x.rows() {
            let single = net.infer(&Matrix::row(x.row_slice(r)));
            assert_eq!(single.as_slice(), batched.row_slice(r));
        }
    }

    #[test]
    fn full_network_gradient_matches_finite_differences() {
        let mut net = make(2);
        let x = Matrix::from_rows(&[&[0.5, -0.4, 0.2]]);
        let tape = net.forward(&x);
        let dout = Matrix::full(1, 2, 1.0);
        net.zero_grad();
        let dx = net.backward(&tape, &dout);

        let loss = |n: &Mlp| -> f64 { n.infer(&x).as_slice().iter().sum() };
        let eps = 1e-6;

        // Check a few first-layer weights (the deepest gradient path).
        for (i, j) in [(0, 0), (1, 3), (2, 7)] {
            let mut np = net.clone();
            let v = np.layers[0].w.get(i, j);
            np.layers[0].w.set(i, j, v + eps);
            let mut nm = net.clone();
            let v = nm.layers[0].w.get(i, j);
            nm.layers[0].w.set(i, j, v - eps);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            let ana = net.layers[0].gw.get(i, j);
            assert!((num - ana).abs() < 1e-6, "dW0[{i}{j}]: {num} vs {ana}");
        }

        // Check input gradient.
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, xp.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, xm.get(0, c) - eps);
            let fp: f64 = net.infer(&xp).as_slice().iter().sum();
            let fm: f64 = net.infer(&xm).as_slice().iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dx.get(0, c)).abs() < 1e-6, "dx[{c}]");
        }
    }

    #[test]
    fn backward_params_accumulates_the_same_gradients_as_backward() {
        // Skipping the first layer's input gradient must not change a bit
        // of any layer's gw/gb — and calling either entry again (scratch
        // buffers put back, not leaked) must reproduce them.
        for hidden in [Activation::Tanh, Activation::Relu] {
            let mut rng = StdRng::seed_from_u64(21);
            let mut full = Mlp::new(&[5, 16, 16, 3], hidden, Activation::Identity, &mut rng);
            let mut params_only = full.clone();
            let x = Matrix::from_vec(7, 5, (0..35).map(|i| (i as f64 * 0.37).sin()).collect());
            let dout = Matrix::from_vec(7, 3, (0..21).map(|i| (i as f64 * 0.53).cos()).collect());
            let tape = full.forward(&x);
            for round in 0..2 {
                full.zero_grad();
                params_only.zero_grad();
                let dx = full.backward(&tape, &dout);
                params_only.backward_params(&tape, &dout);
                assert_eq!(dx.shape(), (7, 5), "{hidden:?} round {round}");
                for (a, b) in full.layers.iter().zip(&params_only.layers) {
                    let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a.gw.as_slice()), bits(b.gw.as_slice()), "{hidden:?} gw");
                    assert_eq!(bits(&a.gb), bits(&b.gb), "{hidden:?} gb");
                }
            }
        }
    }

    #[test]
    fn backward_input_returns_backwards_input_gradient_and_leaves_gradients_alone() {
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let grads = |net: &Mlp| -> Vec<Vec<u64>> {
            net.layers.iter().flat_map(|l| [bits(l.gw.as_slice()), bits(&l.gb)]).collect()
        };
        for hidden in [Activation::Tanh, Activation::Relu] {
            let mut rng = StdRng::seed_from_u64(22);
            let mut full = Mlp::new(&[6, 16, 16, 1], hidden, Activation::Identity, &mut rng);
            let mut input_only = full.clone();
            let x = Matrix::from_vec(9, 6, (0..54).map(|i| (i as f64 * 0.41).sin()).collect());
            let dout = Matrix::from_vec(9, 1, (0..9).map(|i| (i as f64 * 0.29).cos()).collect());
            let tape = full.forward(&x);
            // Gradients left over from an earlier pass must survive.
            input_only.backward_params(&tape, &dout);
            let held = grads(&input_only);
            assert!(held.iter().flatten().any(|&g| g != 0), "{hidden:?}: nothing held");
            for round in 0..2 {
                let want = full.backward(&tape, &dout);
                let got = input_only.backward_input(&tape, &dout);
                assert_eq!(got.shape(), (9, 6), "{hidden:?} round {round}");
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{hidden:?} dx");
                assert_eq!(grads(&input_only), held, "{hidden:?} gw/gb moved");
            }
        }
    }

    #[test]
    fn a_clone_of_a_trained_net_backpropagates_as_its_source() {
        use crate::optim::{Adam, Optimizer};
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let grads = |net: &Mlp| -> Vec<Vec<u64>> {
            net.layers.iter().flat_map(|l| [bits(l.gw.as_slice()), bits(&l.gb)]).collect()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let mut source =
            Mlp::new(&[6, 64, 64, 3], Activation::Tanh, Activation::Identity, &mut rng);
        let mut adam = Adam::new(1e-2);
        let batch = |rows: usize, k: f64| {
            let x =
                Matrix::from_vec(rows, 6, (0..rows * 6).map(|i| (i as f64 * k).sin()).collect());
            let dout =
                Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| (i as f64 * k).cos()).collect());
            (x, dout)
        };
        // Trained on a wide batch, so that the buffers are larger than the
        // narrower batch both nets see next.
        for round in 0..3 {
            let (x, dout) = batch(32, 0.37 + round as f64);
            source.zero_grad();
            source.backward(&source.forward(&x), &dout);
            adam.step(&mut source);
        }
        let (x, dout) = batch(32, 0.91);
        source.backward_params(&source.forward(&x), &dout);
        let mut copy = source.clone();
        assert!(copy.scratch.wt.is_empty() && copy.scratch.dz.as_slice().is_empty());
        assert_eq!(grads(&copy), grads(&source), "accumulated gradients are cloned");
        for rows in [5, 32, 40] {
            let (x, dout) = batch(rows, 0.53);
            let tape = source.forward(&x);
            let want = source.backward(&tape, &dout);
            let got = copy.backward(&tape, &dout);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "dx at {rows} rows");
            assert_eq!(grads(&copy), grads(&source), "gw/gb at {rows} rows");
            let got = bits(copy.backward_input(&tape, &dout).as_slice());
            assert_eq!(got, bits(source.backward_input(&tape, &dout).as_slice()));
        }
    }

    #[test]
    fn copy_params_makes_outputs_identical() {
        let src = make(3);
        let mut dst = make(4);
        let x = Matrix::row(&[0.1, 0.2, 0.3]);
        assert_ne!(src.infer(&x), dst.infer(&x));
        dst.copy_params_from(&src);
        assert_eq!(src.infer(&x), dst.infer(&x));
    }

    #[test]
    fn polyak_with_tau_one_copies() {
        let src = make(5);
        let mut dst = make(6);
        dst.polyak_from(&src, 1.0);
        let x = Matrix::row(&[0.3, -0.3, 0.9]);
        assert_eq!(src.infer(&x), dst.infer(&x));
    }

    #[test]
    fn polyak_with_tau_zero_is_identity() {
        let src = make(7);
        let mut dst = make(8);
        let before = dst.clone();
        dst.polyak_from(&src, 0.0);
        let x = Matrix::row(&[0.3, -0.3, 0.9]);
        assert_eq!(before.infer(&x), dst.infer(&x));
    }

    #[test]
    fn param_count_and_bytes() {
        let net = make(9);
        // 3*8+8 + 8*8+8 + 8*2+2 = 32 + 72 + 18 = 122
        assert_eq!(net.param_count(), 122);
        assert_eq!(net.param_bytes(), 122 * 8);
    }

    #[test]
    fn sizes_round_trip() {
        assert_eq!(make(1).sizes(), vec![3, 8, 8, 2]);
    }
}
