//! Properties of the tinynn numerical substrate, each a seeded sweep.

use testkit::{sweep, Gen};
use tinynn::{ops, Matrix};

const SEED: u64 = 0x7177;

fn matrix(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, g.f64s(rows * cols, -10.0..10.0))
}

/// A compatible `(m×k, k×n)` pair with random shapes, including the
/// degenerate ones the blocked kernels special-case: single-row inputs
/// (`m == 1`) and empty inner dimensions (`k == 0`).
fn matmul_pair(g: &mut Gen, max: usize) -> (Matrix, Matrix) {
    let (m, k, n) = (g.int_in(1..max + 1), g.int_in(0..max + 1), g.int_in(1..max + 1));
    (matrix(g, m, k), matrix(g, k, n))
}

/// Schoolbook triple loop: the reference the blocked kernels must match.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                s += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, s);
        }
    }
    out
}

fn assert_close(got: &Matrix, want: &Matrix, tol: f64) {
    assert_eq!(got.shape(), want.shape());
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        assert!((x - y).abs() < tol, "{x} vs {y}");
    }
}

/// (A·B)·C == A·(B·C) within floating-point tolerance.
#[test]
fn matmul_is_associative() {
    sweep(64, SEED, |g| {
        let (a, b, c) = (matrix(g, 3, 4), matrix(g, 4, 2), matrix(g, 2, 5));
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    });
}

/// (A·B)ᵀ == Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_identity() {
    sweep(64, SEED, |g| {
        let (a, b) = (matrix(g, 3, 4), matrix(g, 4, 2));
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

/// The fused transpose products match their explicit counterparts.
#[test]
fn fused_transpose_products() {
    sweep(64, SEED, |g| {
        let (a, b, c) = (matrix(g, 3, 4), matrix(g, 5, 4), matrix(g, 3, 2));
        let fused = a.matmul_transpose_rhs(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
        let fused2 = a.transpose_matmul(&c);
        let explicit2 = a.transpose().matmul(&c);
        for (x, y) in fused2.as_slice().iter().zip(explicit2.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

/// axpy is linear: axpy(α, X) twice == axpy(2α, X).
#[test]
fn axpy_linearity() {
    sweep(64, SEED, |g| {
        let (a, b, alpha) = (matrix(g, 3, 3), matrix(g, 3, 3), g.f64_in(-2.0..2.0));
        let mut once = a.clone();
        once.axpy(2.0 * alpha, &b);
        let mut twice = a.clone();
        twice.axpy(alpha, &b);
        twice.axpy(alpha, &b);
        for (x, y) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

/// softmax is invariant to adding a constant to all logits.
#[test]
fn softmax_shift_invariance() {
    sweep(64, SEED, |g| {
        let logits = g.vec(2..6, |g| g.f64_in(-20.0..20.0));
        let shift = g.f64_in(-50.0..50.0);
        let base = ops::softmax(&logits);
        let shifted: Vec<f64> = logits.iter().map(|v| v + shift).collect();
        let after = ops::softmax(&shifted);
        for (x, y) in base.iter().zip(&after) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

/// log_sum_exp dominates the max and is bounded by max + ln n.
#[test]
fn log_sum_exp_bounds() {
    sweep(64, SEED, |g| {
        let xs = g.vec(1..8, |g| g.f64_in(-100.0..100.0));
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = ops::log_sum_exp(&xs);
        assert!(lse >= max - 1e-12);
        assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    });
}

/// Categorical log-prob gradients sum to zero over the simplex
/// (adding a constant to logits does not change probabilities).
#[test]
fn log_prob_gradient_sums_to_zero() {
    sweep(64, SEED, |g| {
        let logits = g.vec(2..6, |g| g.f64_in(-5.0..5.0));
        let action_idx = g.below(6);
        let action = action_idx % logits.len();
        let probs = ops::softmax(&logits);
        let mut grad = vec![0.0; logits.len()];
        ops::d_log_prob_d_logits(&probs, action, &mut grad);
        assert!(grad.iter().sum::<f64>().abs() < 1e-10);
    });
}

/// The register-blocked kernel matches the schoolbook triple loop on
/// arbitrary shapes, including 1×n rows and k = 0 inner dimensions.
#[test]
fn blocked_matmul_matches_naive() {
    sweep(64, SEED, |g| {
        let (a, b) = matmul_pair(g, 9);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-9);
    });
}

/// Fused A·Bᵀ agrees with the naive product on random shapes.
#[test]
fn blocked_matmul_transpose_rhs_matches_naive() {
    sweep(64, SEED, |g| {
        let (m, k, n) = (g.int_in(1usize..10), g.int_in(0usize..10), g.int_in(1usize..10));
        let (a, b) = (matrix(g, m, k), matrix(g, n, k));
        assert_close(&a.matmul_transpose_rhs(&b), &naive_matmul(&a, &b.transpose()), 1e-9);
    });
}

/// Fused Aᵀ·B agrees with the naive product on random shapes.
#[test]
fn blocked_transpose_matmul_matches_naive() {
    sweep(64, SEED, |g| {
        let (k, m, n) = (g.int_in(0usize..10), g.int_in(1usize..10), g.int_in(1usize..10));
        let (a, b) = (matrix(g, k, m), matrix(g, k, n));
        assert_close(&a.transpose_matmul(&b), &naive_matmul(&a.transpose(), &b), 1e-9);
    });
}

/// Batching rows never changes them: each row of a batched product is
/// bitwise identical to the same row multiplied on its own. This is
/// the determinism contract `act_batch` relies on.
#[test]
fn batched_rows_are_bitwise_single_rows() {
    sweep(64, SEED, |g| {
        let (a, b) = matmul_pair(g, 9);
        let batched = a.matmul(&b);
        for i in 0..a.rows() {
            let single = Matrix::row(a.row_slice(i)).matmul(&b);
            assert_eq!(single.as_slice(), batched.row_slice(i));
        }
    });
}

/// Operands past the paper budget's largest product (full-budget SAC's
/// 256×64×64 hidden layer) agree with the schoolbook reference. Few
/// cases: the naive loop is a million multiply-adds each.
#[test]
fn largest_operands_match_naive() {
    sweep(3, SEED, |g| {
        let (a, b) = (matrix(g, 272, 64), matrix(g, 64, 64));
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_close(&out, &naive_matmul(&a, &b), 1e-9);
    });
}
