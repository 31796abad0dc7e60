//! The first-order optimizer (Adam) and global gradient-norm clipping.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::mlp::Mlp;
use simd_kernels::nnf64::{self, AdamStep};
use simd_kernels::Isa;

/// A parameter-update rule operating on an [`Mlp`]'s `(param, grad)` pairs.
pub trait Optimizer: Send {
    /// Apply one update from the currently accumulated gradients.
    fn step(&mut self, net: &mut Mlp);
}

/// Adam (Kingma & Ba, 2015) with bias correction — the default optimizer
/// of every framework the paper benchmarks.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with standard `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Update number `t` (the first is 1), at this optimizer's rate and
    /// decays, of a parameter vector that lives outside any [`Mlp`] and
    /// whose moments `m`, `v` the caller holds — PPO's free log-std.
    /// [`Optimizer::step`] is this on every tensor of the network.
    pub fn step_tensor(
        &self,
        t: u64,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        nnf64::adam_step(Isa::cached(), &self.constants(t), params, grads, m, v);
    }

    fn constants(&self, t: u64) -> AdamStep {
        AdamStep::new(self.lr, self.beta1, self.beta2, self.eps, t)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp) {
        self.t += 1;
        let (isa, step) = (Isa::cached(), self.constants(self.t));
        let mut idx = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        net.visit_params(|params, grads| {
            if ms.len() <= idx {
                ms.push(vec![0.0; params.len()]);
                vs.push(vec![0.0; params.len()]);
            }
            nnf64::adam_step(isa, &step, params, grads, &mut ms[idx], &mut vs[idx]);
            idx += 1;
        });
    }
}

/// Scale gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clipping norm (useful as a training-health metric).
pub fn clip_grad_norm(net: &mut Mlp, max_norm: f64) -> f64 {
    let mut sq = 0.0;
    net.visit_grads_mut(|g| {
        for &x in g.iter() {
            sq += x * x;
        }
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        net.visit_grads_mut(|g| {
            for x in g.iter_mut() {
                *x *= scale;
            }
        });
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Train y = 2x - 1 on a 1-layer net; the optimizer must converge.
    fn fit_line(mut opt: impl Optimizer) -> f64 {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(&[1, 1], Activation::Identity, Activation::Identity, &mut rng);
        let xs = Matrix::from_rows(&[&[-1.0], &[0.0], &[1.0], &[2.0]]);
        let ys = [-3.0, -1.0, 1.0, 3.0];
        let mut loss = f64::MAX;
        for _ in 0..2000 {
            let tape = net.forward(&xs);
            let out = tape.output().clone();
            // L = mean (out - y)^2 ; dL/dout = 2 (out - y) / n
            let mut dout = Matrix::zeros(4, 1);
            loss = 0.0;
            for i in 0..4 {
                let e = out.get(i, 0) - ys[i];
                loss += e * e / 4.0;
                dout.set(i, 0, 2.0 * e / 4.0);
            }
            net.zero_grad();
            net.backward(&tape, &dout);
            opt.step(&mut net);
        }
        loss
    }

    #[test]
    fn adam_fits_a_line() {
        assert!(fit_line(Adam::new(0.05)) < 1e-6);
    }

    #[test]
    fn clip_grad_norm_caps_the_norm() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Mlp::new(&[2, 2], Activation::Identity, Activation::Identity, &mut rng);
        let x = Matrix::row(&[10.0, -10.0]);
        let tape = net.forward(&x);
        let dout = Matrix::full(1, 2, 100.0);
        net.zero_grad();
        net.backward(&tape, &dout);
        let before = clip_grad_norm(&mut net, 1.0);
        assert!(before > 1.0);
        // Recompute the norm after clipping: must be 1 (±fp error).
        let mut sq = 0.0;
        net.visit_grads_mut(|g| {
            for &x in g.iter() {
                sq += x * x;
            }
        });
        assert!((sq.sqrt() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_grad_norm_no_op_under_threshold() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Mlp::new(&[2, 1], Activation::Identity, Activation::Identity, &mut rng);
        net.zero_grad();
        let norm = clip_grad_norm(&mut net, 1.0);
        assert_eq!(norm, 0.0);
    }

    #[test]
    fn adam_handles_zero_gradients() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut net = Mlp::new(&[2, 1], Activation::Identity, Activation::Identity, &mut rng);
        let before = net.infer(&Matrix::row(&[1.0, 1.0]));
        net.zero_grad();
        let mut opt = Adam::new(0.1);
        opt.step(&mut net);
        let after = net.infer(&Matrix::row(&[1.0, 1.0]));
        assert_eq!(before, after, "zero grads must not move parameters");
    }
}
