//! # tinynn — a minimal neural-network library
//!
//! The RL algorithms of the reproduction (PPO, SAC — crate `rl-algos`)
//! need multilayer perceptrons with backpropagation, an Adam optimizer and
//! policy-distribution math. No mature pure-Rust ML framework is assumed
//! (repro note in DESIGN.md), so this crate implements the required subset
//! from scratch:
//!
//! * [`matrix`] — a dense row-major `f64` matrix with the handful of
//!   BLAS-1/2/3 operations the MLPs need, written allocation-consciously;
//! * [`layer`] — fully-connected layers with manual backprop;
//! * [`mlp`] — sequential networks with forward tapes and gradient
//!   accumulation;
//! * `optim` — Adam, plus global-norm gradient clipping;
//! * [`init`] — Xavier/He initialisation from a seedable RNG;
//! * [`dist`] — categorical, diagonal-Gaussian and tanh-squashed-Gaussian
//!   policy distributions with log-prob/entropy gradients;
//! * [`ops`] — softmax/log-softmax and friends with backward helpers.
//!
//! Networks are small (the paper's policies are the default 64×64 MLPs of
//! the Python frameworks) but they are evaluated millions of times per
//! study, so the dense kernels are register-blocked (`i-k-j` order with
//! the `k` loop unrolled 4×) and every hot path has an `_into` variant
//! that reuses caller-held buffers — see the "Performance" section of
//! DESIGN.md.

pub mod dist;
pub mod init;
pub mod layer;
pub mod matrix;
pub mod mlp;
pub mod ops;
pub(crate) mod optim;

pub use dist::{Categorical, DiagGaussian};
pub use layer::Activation;
pub use matrix::Matrix;
pub use mlp::{Mlp, Tape};
pub use optim::{clip_grad_norm, Adam, Optimizer};

/// Count of floating-point operations for a forward pass of an MLP with
/// the given layer sizes and batch size — consumed by the cluster cost
/// model to convert learning work into simulated time.
pub fn forward_flops(sizes: &[usize], batch: usize) -> u64 {
    sizes.windows(2).map(|w| 2 * (w[0] * w[1] + w[1]) as u64).sum::<u64>() * batch as u64
}

/// Approximate backward-pass cost: conventionally 2× the forward cost.
pub fn backward_flops(sizes: &[usize], batch: usize) -> u64 {
    2 * forward_flops(sizes, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_scale_linearly_with_batch() {
        let sizes = [4, 64, 64, 2];
        assert_eq!(forward_flops(&sizes, 10), 10 * forward_flops(&sizes, 1));
    }

    #[test]
    fn backward_is_twice_forward() {
        let sizes = [8, 32, 1];
        assert_eq!(backward_flops(&sizes, 3), 2 * forward_flops(&sizes, 3));
    }

    #[test]
    fn flops_count_weights_and_biases() {
        // Single layer 2 -> 3: 2*3 MACs + 3 bias adds, times 2 (mul+add), batch 1.
        assert_eq!(forward_flops(&[2, 3], 1), 2 * (6 + 3));
    }
}
