//! Bitwise-parity suite, seeded sweeps: every microkernel, on every ISA
//! tier the CPU supports, must reproduce its scalar reference bit for
//! bit on randomized shapes and values.
//!
//! The references here are deliberately re-implemented (not imported) so
//! a regression in the crate's own tail loops cannot hide itself. Shapes
//! are drawn to straddle the vector widths: lengths 1..=67 cover scalar
//! tails, half vectors, and multi-vector bodies for both the 4-lane and
//! 8-lane `f64` tiers.

use simd_kernels::{nnf64, odef64, Isa};
use testkit::{sweep, Gen};

const SEED: u64 = 0x51D;

/// One fixed shape through `stage_update`, before the sweeps.
#[test]
fn smoke_stage_update_parity() {
    let y: Vec<f64> = (0..19).map(|i| i as f64 * 0.3 - 2.0).collect();
    let coeffs = [0.25, -0.5, 1.0 / 3.0];
    let k: Vec<f64> = (0..coeffs.len() * y.len()).map(|i| (i % 7) as f64 * 0.4 - 1.0).collect();
    let mut reference = vec![0.0; y.len()];
    for e in 0..y.len() {
        reference[e] = y[e] + 0.1 * ref_weighted_sum(&coeffs, &k, y.len(), e);
    }
    for isa in tiers() {
        let mut out = vec![f64::NAN; y.len()];
        odef64::stage_update(isa, &coeffs, &k, &y, 0.1, &mut out);
        assert!(bits_eq(&out, &reference), "stage_update diverged on {isa}");
    }
}

/// Same for the `out = A · Bᵀ` kernel, on a shape that has a full
/// two-vector block, a single vector and a ragged tail on both vector
/// tiers (`n = 29`) and a `k % 4` remainder (`k = 7`).
#[test]
fn smoke_matmul_transpose_rhs_parity() {
    let (m, k, n) = (3, 7, 29);
    let a: Vec<f64> = (0..m * k).map(|i| (i % 11) as f64 * 0.17 - 0.9).collect();
    let b: Vec<f64> = (0..n * k).map(|i| (i % 13) as f64 * 0.13 - 0.8).collect();
    let reference = ref_matmul_transpose_rhs(&a, &b, m, k, n);
    for isa in tiers() {
        let mut bt = Vec::new();
        nnf64::pack_transposed(isa, &b, n, k, &mut bt);
        let mut out = vec![f64::NAN; m * n];
        nnf64::matmul_transpose_rhs(isa, &a, &b, &bt, &mut out, m, k, n);
        assert!(bits_eq(&out, &reference), "matmul_transpose_rhs diverged on {isa}");
    }
}

fn tiers() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|t| t.available()).collect()
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// Scalar references (independent re-implementations)
// ---------------------------------------------------------------------------

fn ref_weighted_sum(coeffs: &[f64], k: &[f64], len: usize, e: usize) -> f64 {
    let mut acc = 0.0;
    for (j, &c) in coeffs.iter().enumerate() {
        acc += c * k[j * len + e];
    }
    acc
}

/// `A · Bᵀ` (`A` is `m × k`, `B` is `n × k`) with every element reduced
/// by the documented tree: four partial sums over `p ≡ 0..3 (mod 4)`,
/// combined `((s0 + s1) + s2) + s3`, then the `k % 4` leftovers in order.
fn ref_matmul_transpose_rhs(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let (x, y) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            let mut s = [0.0f64; 4];
            let blocked = k - k % 4;
            for p in 0..blocked {
                s[p % 4] += x[p] * y[p];
            }
            let mut acc = ((s[0] + s[1]) + s[2]) + s[3];
            for p in blocked..k {
                acc += x[p] * y[p];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn vecs(g: &mut Gen, len: core::ops::Range<usize>) -> Vec<f64> {
    g.vec(len, |g| g.f64_in(-2.0..2.0))
}

#[test]
fn ode_stage_update_matches_scalar() {
    sweep(64, SEED, |g| {
        let (y, coeffs) = (vecs(g, 1..67), vecs(g, 1..8));
        let (h, kseed) = (g.f64_in(1e-4..1.0), vecs(g, 1..2));
        let len = y.len();
        let k: Vec<f64> =
            (0..coeffs.len() * len).map(|i| kseed[0] * ((i % 17) as f64 - 8.0) * 0.25).collect();
        let mut reference = vec![0.0; len];
        for e in 0..len {
            reference[e] = y[e] + h * ref_weighted_sum(&coeffs, &k, len, e);
        }
        for isa in tiers() {
            let mut out = vec![f64::NAN; len];
            odef64::stage_update(isa, &coeffs, &k, &y, h, &mut out);
            assert!(bits_eq(&out, &reference), "stage_update diverged on {}", isa);
        }
    });
}

#[test]
fn ode_combine_kernels_match_scalar() {
    sweep(64, SEED, |g| {
        let (y0, coeffs, h) = (vecs(g, 1..67), vecs(g, 1..8), g.f64_in(1e-4..1.0));
        let len = y0.len();
        let k: Vec<f64> =
            (0..coeffs.len() * len).map(|i| ((i * 2654435761) % 97) as f64 * 0.03 - 1.4).collect();
        let mut y_ref = y0.clone();
        let mut upd_ref = vec![0.0; len];
        for e in 0..len {
            let acc = ref_weighted_sum(&coeffs, &k, len, e);
            y_ref[e] += h * acc;
            upd_ref[e] = h * acc;
        }
        for isa in tiers() {
            let mut y = y0.clone();
            odef64::combine_inplace(isa, &coeffs, &k, h, &mut y);
            assert!(bits_eq(&y, &y_ref), "combine_inplace diverged on {}", isa);
            let mut upd = vec![f64::NAN; len];
            odef64::combine_scaled(isa, &coeffs, &k, h, &mut upd);
            assert!(bits_eq(&upd, &upd_ref), "combine_scaled diverged on {}", isa);
        }
    });
}

#[test]
fn ode_elementwise_kernels_match_scalar() {
    sweep(64, SEED, |g| {
        let (a, s, h) = (vecs(g, 1..67), g.f64_in(-4.0..4.0), g.f64_in(1e-4..1.0));
        let len = a.len();
        let b: Vec<f64> = a.iter().map(|v| v * 0.7 - 0.1).collect();
        let c: Vec<f64> = a.iter().map(|v| 1.3 - v).collect();

        let axpy_ref: Vec<f64> = (0..len).map(|e| a[e] + s * b[e]).collect();
        let gragg_ref: Vec<f64> = (0..len).map(|e| 0.5 * (a[e] + b[e] + h * c[e])).collect();
        let mut nev_ref = a.clone();
        for e in 0..len {
            nev_ref[e] += (nev_ref[e] - b[e]) / 3.0;
        }

        for isa in tiers() {
            let mut out = vec![f64::NAN; len];
            odef64::axpy_const(isa, &a, s, &b, &mut out);
            assert!(bits_eq(&out, &axpy_ref), "axpy_const diverged on {}", isa);

            let mut out = vec![f64::NAN; len];
            odef64::gragg_smooth(isa, &a, &b, h, &c, &mut out);
            assert!(bits_eq(&out, &gragg_ref), "gragg_smooth diverged on {}", isa);

            let mut cur = a.clone();
            odef64::neville_update(isa, &mut cur, &b, 3.0);
            assert!(bits_eq(&cur, &nev_ref), "neville_update diverged on {}", isa);
        }
    });
}

/// The matmul shape grid: every `m mod 4` and `m mod 2` of the row tiles
/// (and `m = 0`); `k` with and without rank-4 blocks, every rank-1 tail
/// (`k = 2` has no block at all), and sweeps that cross one or three
/// 64-row panels; `n` gives every masked tail of 1 to 7 lanes alone and
/// after full 8-lane vectors (11 to 15, 17, 29, 47), every 4-lane tail
/// after a full vector (5 to 7, 11, 13), the one-row band's four-vector
/// tile followed by a vector and a tail (47), and exact multiples of both
/// vector widths. 4 and 11 are the models' action head and observation width.
const MS: core::ops::Range<usize> = 0..10;
const KS: [usize; 10] = [0, 1, 2, 3, 4, 9, 64, 67, 130, 256];
const NS: [usize; 18] = [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 29, 47, 64];

/// Every shape of the grid, with fresh operands from `g`: about one value
/// in eight is a signed zero, so the `+0` starts of the sums are checked too.
fn matmul_grid(
    g: &mut Gen,
    mut check: impl FnMut(usize, usize, usize, Vec<f64>, Vec<f64>, Vec<f64>),
) {
    let draw = |g: &mut Gen, len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| match g.below(16) {
                0 => 0.0,
                1 => -0.0,
                _ => g.f64_in(-2.0..2.0),
            })
            .collect()
    };
    for &k in &KS {
        for &n in &NS {
            for m in MS {
                let (a, b, out) = (draw(g, m * k), draw(g, k * n), draw(g, m * n));
                check(m, k, n, a, b, out);
            }
        }
    }
}

/// `out += Â · B` by the documented rank-4 tree, one element at a time:
/// `coef(i, p)` is coefficient `p` of output row `i`.
fn ref_rank4(
    coef: impl Fn(usize, usize) -> f64,
    b: &[f64],
    out: &mut [f64],
    (m, k, n): (usize, usize, usize),
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = out[i * n + j];
            let mut p = 0;
            while p + 4 <= k {
                acc += coef(i, p) * b[p * n + j]
                    + coef(i, p + 1) * b[(p + 1) * n + j]
                    + coef(i, p + 2) * b[(p + 2) * n + j]
                    + coef(i, p + 3) * b[(p + 3) * n + j];
                p += 4;
            }
            while p < k {
                acc += coef(i, p) * b[p * n + j];
                p += 1;
            }
            out[i * n + j] = acc;
        }
    }
}

#[test]
fn nn_matmul_acc_matches_scalar_on_the_shape_grid() {
    sweep(2, SEED, |g| {
        matmul_grid(g, |m, k, n, a, b, out0| {
            let mut reference = out0.clone();
            ref_rank4(|i, p| a[i * k + p], &b, &mut reference, (m, k, n));
            for isa in tiers() {
                let mut out = out0.clone();
                nnf64::matmul_acc(isa, &a, &b, &mut out, m, k, n);
                assert!(bits_eq(&out, &reference), "matmul_acc {isa} m={m} k={k} n={n}");
                // The public one-row entry is the 1-row band of the same tile.
                let mut out = out0.clone();
                for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
                    nnf64::row_matmul_acc(isa, &a[i * k..(i + 1) * k], &b, out_row, k, n);
                }
                assert!(bits_eq(&out, &reference), "row_matmul_acc {isa} m={m} k={k} n={n}");
            }
        });
    });
}

#[test]
fn nn_transpose_matmul_acc_matches_scalar_on_the_shape_grid() {
    sweep(2, SEED, |g| {
        // Here `a` is `k × m`: the weight gradient `xᵀ · δ` over a batch of `k`.
        matmul_grid(g, |m, k, n, a, b, out0| {
            let mut reference = out0.clone();
            ref_rank4(|i, p| a[p * m + i], &b, &mut reference, (m, k, n));
            for isa in tiers() {
                let mut out = out0.clone();
                nnf64::transpose_matmul_acc(isa, &a, &b, &mut out, k, m, n);
                assert!(bits_eq(&out, &reference), "transpose_matmul_acc {isa} m={m} k={k} n={n}");
            }
        });
    });
}

#[test]
fn nn_matmul_transpose_rhs_matches_scalar_dot_on_the_shape_grid() {
    sweep(2, SEED, |g| {
        // `b` is `n × k` here; the grid's `k · n` values serve either way.
        matmul_grid(g, |m, k, n, a, b, _| {
            let reference = ref_matmul_transpose_rhs(&a, &b, m, k, n);
            for isa in tiers() {
                let mut bt = Vec::new();
                nnf64::pack_transposed(isa, &b, n, k, &mut bt);
                let mut out = vec![f64::NAN; m * n];
                nnf64::matmul_transpose_rhs(isa, &a, &b, &bt, &mut out, m, k, n);
                assert!(bits_eq(&out, &reference), "matmul_transpose_rhs {isa} m={m} k={k} n={n}");
            }
        });
    });
}

#[test]
fn nn_axpy_matches_scalar() {
    sweep(64, SEED, |g| {
        let (x, alpha) = (vecs(g, 1..67), g.f64_in(-2.0..2.0));
        let y0: Vec<f64> = x.iter().map(|v| 0.5 - v).collect();
        let reference: Vec<f64> = (0..x.len()).map(|e| y0[e] + alpha * x[e]).collect();
        for isa in tiers() {
            let mut y = y0.clone();
            nnf64::axpy(isa, alpha, &x, &mut y);
            assert!(bits_eq(&y, &reference), "nn axpy diverged on {}", isa);
        }
    });
}

/// Several Adam updates in a row, against the textbook loop written out
/// here: moments, bias corrections `1 − βᵗ`, then `lr·m̂/(√v̂ + ε)`. About
/// one gradient in four is exactly zero, and an all-zero tensor with zero
/// moments must not move at all.
#[test]
fn nn_adam_step_matches_scalar() {
    let (lr, b1, b2, eps) = (3e-4, 0.9f64, 0.999f64, 1e-8);
    sweep(64, SEED, |g| {
        let p0 = vecs(g, 0..67);
        let len = p0.len();
        let steps: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                (0..len).map(|_| if g.below(4) == 0 { 0.0 } else { g.f64_in(-2.0..2.0) }).collect()
            })
            .collect();
        let t0 = g.int_in(0..5000u64);

        let (mut p, mut m, mut v) = (p0.clone(), vec![0.0; len], vec![0.0; len]);
        for (i, grads) in steps.iter().enumerate() {
            let t = (t0 + i as u64 + 1) as i32;
            let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
            for e in 0..len {
                m[e] = b1 * m[e] + (1.0 - b1) * grads[e];
                v[e] = b2 * v[e] + (1.0 - b2) * grads[e] * grads[e];
                p[e] -= lr * (m[e] / bc1) / ((v[e] / bc2).sqrt() + eps);
            }
        }

        for isa in tiers() {
            let (mut pi, mut mi, mut vi) = (p0.clone(), vec![0.0; len], vec![0.0; len]);
            for (i, grads) in steps.iter().enumerate() {
                let step = nnf64::AdamStep::new(lr, b1, b2, eps, t0 + i as u64 + 1);
                nnf64::adam_step(isa, &step, &mut pi, grads, &mut mi, &mut vi);
            }
            assert!(bits_eq(&pi, &p), "nn adam_step params diverged on {isa}");
            assert!(bits_eq(&mi, &m) && bits_eq(&vi, &v), "nn adam_step moments diverged on {isa}");

            let (mut still, mut mz, mut vz) = (p0.clone(), vec![0.0; len], vec![0.0; len]);
            let step = nnf64::AdamStep::new(lr, b1, b2, eps, t0 + 1);
            nnf64::adam_step(isa, &step, &mut still, &vec![0.0; len], &mut mz, &mut vz);
            assert!(bits_eq(&still, &p0), "zero gradients moved parameters on {isa}");
        }
    });
}
