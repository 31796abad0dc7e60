//! `f64` microkernels for the row-major MLP matrix math in `tinynn`.
//!
//! These reproduce — bit for bit — the register-blocked scalar loops the
//! `Matrix` type already used. The contract is per output element: its
//! reduction order is fixed by the shared dimension alone, and the vector
//! tiers put *different elements* in their lanes, never the terms of one
//! element's sum. Two trees exist:
//!
//! ```text
//! row_matmul_acc, transpose_matmul_acc (rank-4 panels, rank-1 tail):
//!     out[j] += ((c0·b0[j] + c1·b1[j]) + c2·b2[j]) + c3·b3[j]
//! matmul_transpose_rhs (the 4-accumulator dot):
//!     s_q = Σ a[p]·b[j][p] over p ≡ q (mod 4);  out[j] = ((s0 + s1) + s2) + s3
//!     then the k % 4 leftover products added in order
//! ```
//!
//! Every tier evaluates exactly that tree per column lane (broadcast
//! coefficients, multiply then add, no FMA), so every tier produces
//! identical bits and the forward/backward passes remain batch-size
//! invariant.
//!
//! These three are the crate's only hand-written `std::arch` bodies. The
//! same loops as safe bodies compiled per tier (the `tiered!` idiom)
//! measured, on AVX-512 at batch 64, 1.0–1.13× the explicit time on
//! full-width shapes for the two rank-4 kernels, 1.36× for
//! `matmul_transpose_rhs`, and 1.3–2.9× wherever a row is narrower than a
//! vector or ends in a ragged tail (`n` = 2, 3, 4, 11 — the action heads
//! and the observation width): the register-resident masked tail is not
//! something the compiler derives from the streaming loop. So they keep
//! their intrinsics and their `unsafe`; [`axpy`] and [`adam_step`] lost
//! nothing as plain loops and are `tiered!`.

use crate::isa::tiered;
use crate::Isa;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

#[inline]
fn clamp(isa: Isa) -> Isa {
    isa.min(Isa::detect())
}

/// Mask selecting the low `r` of eight lanes, `1 <= r <= 8`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn low_lanes(r: usize) -> __mmask8 {
    debug_assert!((1..=8).contains(&r));
    0xFF >> (8 - r)
}

/// Scalar reference for one rank-4 column sweep (also the AVX2 tail).
#[inline(always)]
fn rank4_cols_tail(
    c: (f64, f64, f64, f64),
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
    out: &mut [f64],
    from: usize,
) {
    for j in from..out.len() {
        out[j] += c.0 * b0[j] + c.1 * b1[j] + c.2 * b2[j] + c.3 * b3[j];
    }
}

/// Scalar reference for one rank-1 column sweep (also the AVX2 tail).
#[inline(always)]
fn rank1_cols_tail(c: f64, b_row: &[f64], out: &mut [f64], from: usize) {
    for j in from..out.len() {
        out[j] += c * b_row[j];
    }
}

fn row_matmul_acc_scalar(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
    let mut p = 0;
    while p + 4 <= k {
        let c = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
        rank4_cols_tail(
            c,
            &b[p * n..(p + 1) * n],
            &b[(p + 1) * n..(p + 2) * n],
            &b[(p + 2) * n..(p + 3) * n],
            &b[(p + 3) * n..(p + 4) * n],
            out_row,
            0,
        );
        p += 4;
    }
    while p < k {
        rank1_cols_tail(a_row[p], &b[p * n..(p + 1) * n], out_row, 0);
        p += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_matmul_acc_avx2(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut p = 0;
    while p + 4 <= k {
        let c = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
        let v0 = _mm256_set1_pd(c.0);
        let v1 = _mm256_set1_pd(c.1);
        let v2 = _mm256_set1_pd(c.2);
        let v3 = _mm256_set1_pd(c.3);
        let mut j = 0;
        while j + 4 <= n {
            // SAFETY: (p + 3)·n + j + 3 < k·n = b.len(); j + 3 < n.
            unsafe {
                let x0 = _mm256_loadu_pd(bp.add(p * n + j));
                let x1 = _mm256_loadu_pd(bp.add((p + 1) * n + j));
                let x2 = _mm256_loadu_pd(bp.add((p + 2) * n + j));
                let x3 = _mm256_loadu_pd(bp.add((p + 3) * n + j));
                let t = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_add_pd(_mm256_mul_pd(v0, x0), _mm256_mul_pd(v1, x1)),
                        _mm256_mul_pd(v2, x2),
                    ),
                    _mm256_mul_pd(v3, x3),
                );
                _mm256_storeu_pd(op.add(j), _mm256_add_pd(_mm256_loadu_pd(op.add(j)), t));
            }
            j += 4;
        }
        rank4_cols_tail(
            c,
            &b[p * n..(p + 1) * n],
            &b[(p + 1) * n..(p + 2) * n],
            &b[(p + 2) * n..(p + 3) * n],
            &b[(p + 3) * n..(p + 4) * n],
            out_row,
            j,
        );
        p += 4;
    }
    while p < k {
        let c = a_row[p];
        let cv = _mm256_set1_pd(c);
        let mut j = 0;
        while j + 4 <= n {
            // SAFETY: p·n + j + 3 < k·n = b.len(); j + 3 < n.
            unsafe {
                let x = _mm256_loadu_pd(bp.add(p * n + j));
                let t = _mm256_mul_pd(cv, x);
                _mm256_storeu_pd(op.add(j), _mm256_add_pd(_mm256_loadu_pd(op.add(j)), t));
            }
            j += 4;
        }
        rank1_cols_tail(c, &b[p * n..(p + 1) * n], out_row, j);
        p += 1;
    }
}

/// The `n % 8` rightmost columns of one output row of either rank-4
/// kernel, under a lane mask. Unlike the full-vector sweeps, which stream
/// `out` through memory once per rank-4 block, the accumulator stays in a
/// register for the whole `k` sweep: a masked store is not forwarded to
/// the masked load of the next block, and a narrow head (`n < 8`) is
/// nothing but this tail. Per lane the sequence is unchanged — `out[j]`
/// takes block 0's tree, then block 1's, …, then the rank-1 leftovers.
///
/// Coefficient `p` is read from `a.add(p * a_stride)`.
///
/// # Safety
/// Requires AVX-512F and `n % 8 != 0`; `a` must be valid for reads at
/// `p * a_stride` for every `p < k`, `b` for `k·n` reads and `out_row`
/// for `n` reads and writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rank4_cols_tail_avx512(
    a: *const f64,
    a_stride: usize,
    b: *const f64,
    out_row: *mut f64,
    k: usize,
    n: usize,
) {
    let j = n & !7;
    let tail = low_lanes(n - j);
    // SAFETY: the n − j selected lanes are columns j..n of a row p < k of b
    // or of out_row; masked-off lanes are not accessed. Coefficient reads
    // are the caller's bound on `a`.
    unsafe {
        let mut acc = _mm512_maskz_loadu_pd(tail, out_row.add(j));
        let mut p = 0;
        while p + 4 <= k {
            let v0 = _mm512_set1_pd(*a.add(p * a_stride));
            let v1 = _mm512_set1_pd(*a.add((p + 1) * a_stride));
            let v2 = _mm512_set1_pd(*a.add((p + 2) * a_stride));
            let v3 = _mm512_set1_pd(*a.add((p + 3) * a_stride));
            let x0 = _mm512_maskz_loadu_pd(tail, b.add(p * n + j));
            let x1 = _mm512_maskz_loadu_pd(tail, b.add((p + 1) * n + j));
            let x2 = _mm512_maskz_loadu_pd(tail, b.add((p + 2) * n + j));
            let x3 = _mm512_maskz_loadu_pd(tail, b.add((p + 3) * n + j));
            let t = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_add_pd(_mm512_mul_pd(v0, x0), _mm512_mul_pd(v1, x1)),
                    _mm512_mul_pd(v2, x2),
                ),
                _mm512_mul_pd(v3, x3),
            );
            acc = _mm512_add_pd(acc, t);
            p += 4;
        }
        while p < k {
            let cv = _mm512_set1_pd(*a.add(p * a_stride));
            let x = _mm512_maskz_loadu_pd(tail, b.add(p * n + j));
            acc = _mm512_add_pd(acc, _mm512_mul_pd(cv, x));
            p += 1;
        }
        _mm512_mask_storeu_pd(out_row.add(j), tail, acc);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn row_matmul_acc_avx512(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut p = 0;
    // Full vectors only; with n < 8 the row is all tail and both sweeps
    // are skipped.
    while n >= 8 && p + 4 <= k {
        let v0 = _mm512_set1_pd(a_row[p]);
        let v1 = _mm512_set1_pd(a_row[p + 1]);
        let v2 = _mm512_set1_pd(a_row[p + 2]);
        let v3 = _mm512_set1_pd(a_row[p + 3]);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: (p + 3)·n + j + 7 < k·n = b.len(); j + 7 < n.
            unsafe {
                let x0 = _mm512_loadu_pd(bp.add(p * n + j));
                let x1 = _mm512_loadu_pd(bp.add((p + 1) * n + j));
                let x2 = _mm512_loadu_pd(bp.add((p + 2) * n + j));
                let x3 = _mm512_loadu_pd(bp.add((p + 3) * n + j));
                let t = _mm512_add_pd(
                    _mm512_add_pd(
                        _mm512_add_pd(_mm512_mul_pd(v0, x0), _mm512_mul_pd(v1, x1)),
                        _mm512_mul_pd(v2, x2),
                    ),
                    _mm512_mul_pd(v3, x3),
                );
                _mm512_storeu_pd(op.add(j), _mm512_add_pd(_mm512_loadu_pd(op.add(j)), t));
            }
            j += 8;
        }
        p += 4;
    }
    while n >= 8 && p < k {
        let cv = _mm512_set1_pd(a_row[p]);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: p·n + j + 7 < k·n = b.len(); j + 7 < n.
            unsafe {
                let x = _mm512_loadu_pd(bp.add(p * n + j));
                let t = _mm512_mul_pd(cv, x);
                _mm512_storeu_pd(op.add(j), _mm512_add_pd(_mm512_loadu_pd(op.add(j)), t));
            }
            j += 8;
        }
        p += 1;
    }
    if !n.is_multiple_of(8) {
        // SAFETY: a_row holds k coefficients at stride 1, b holds k·n
        // values and out_row n (dispatcher asserts).
        unsafe { rank4_cols_tail_avx512(a_row.as_ptr(), 1, bp, op, k, n) };
    }
}

/// One output row of a row-major matmul, accumulated in place:
/// `out_row += a_row · B` where `B` is `k × n` row-major. Rank-4 blocked
/// over `k` with the exact scalar expression tree per column.
#[inline]
pub fn row_matmul_acc(isa: Isa, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
    assert!(a_row.len() >= k && b.len() >= k * n && out_row.len() >= n, "row_matmul_acc: shape");
    let out_row = &mut out_row[..n];
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { row_matmul_acc_avx512(a_row, b, out_row, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { row_matmul_acc_avx2(a_row, b, out_row, k, n) },
        _ => row_matmul_acc_scalar(a_row, b, out_row, k, n),
    }
}

fn transpose_matmul_acc_scalar(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    let mut p = 0;
    while p + 4 <= k {
        let a0 = &a[p * m..(p + 1) * m];
        let a1 = &a[(p + 1) * m..(p + 2) * m];
        let a2 = &a[(p + 2) * m..(p + 3) * m];
        let a3 = &a[(p + 3) * m..(p + 4) * m];
        for i in 0..m {
            let c = (a0[i], a1[i], a2[i], a3[i]);
            rank4_cols_tail(
                c,
                &b[p * n..(p + 1) * n],
                &b[(p + 1) * n..(p + 2) * n],
                &b[(p + 2) * n..(p + 3) * n],
                &b[(p + 3) * n..(p + 4) * n],
                &mut out[i * n..(i + 1) * n],
                0,
            );
        }
        p += 4;
    }
    while p < k {
        let a_row = &a[p * m..(p + 1) * m];
        for (i, &c) in a_row.iter().enumerate() {
            rank1_cols_tail(c, &b[p * n..(p + 1) * n], &mut out[i * n..(i + 1) * n], 0);
        }
        p += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_matmul_acc_avx2(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut p = 0;
    while p + 4 <= k {
        for i in 0..m {
            let c = (a[p * m + i], a[(p + 1) * m + i], a[(p + 2) * m + i], a[(p + 3) * m + i]);
            let v0 = _mm256_set1_pd(c.0);
            let v1 = _mm256_set1_pd(c.1);
            let v2 = _mm256_set1_pd(c.2);
            let v3 = _mm256_set1_pd(c.3);
            let mut j = 0;
            while j + 4 <= n {
                // SAFETY: (p + 3)·n + j + 3 < k·n = b.len();
                // i·n + j + 3 < m·n = out.len().
                unsafe {
                    let x0 = _mm256_loadu_pd(bp.add(p * n + j));
                    let x1 = _mm256_loadu_pd(bp.add((p + 1) * n + j));
                    let x2 = _mm256_loadu_pd(bp.add((p + 2) * n + j));
                    let x3 = _mm256_loadu_pd(bp.add((p + 3) * n + j));
                    let t = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(_mm256_mul_pd(v0, x0), _mm256_mul_pd(v1, x1)),
                            _mm256_mul_pd(v2, x2),
                        ),
                        _mm256_mul_pd(v3, x3),
                    );
                    let o = op.add(i * n + j);
                    _mm256_storeu_pd(o, _mm256_add_pd(_mm256_loadu_pd(o), t));
                }
                j += 4;
            }
            rank4_cols_tail(
                c,
                &b[p * n..(p + 1) * n],
                &b[(p + 1) * n..(p + 2) * n],
                &b[(p + 2) * n..(p + 3) * n],
                &b[(p + 3) * n..(p + 4) * n],
                &mut out[i * n..(i + 1) * n],
                j,
            );
        }
        p += 4;
    }
    while p < k {
        for i in 0..m {
            let c = a[p * m + i];
            let cv = _mm256_set1_pd(c);
            let mut j = 0;
            while j + 4 <= n {
                // SAFETY: p·n + j + 3 < k·n; i·n + j + 3 < m·n.
                unsafe {
                    let x = _mm256_loadu_pd(bp.add(p * n + j));
                    let o = op.add(i * n + j);
                    _mm256_storeu_pd(o, _mm256_add_pd(_mm256_loadu_pd(o), _mm256_mul_pd(cv, x)));
                }
                j += 4;
            }
            rank1_cols_tail(c, &b[p * n..(p + 1) * n], &mut out[i * n..(i + 1) * n], j);
        }
        p += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_matmul_acc_avx512(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut p = 0;
    // Full vectors only; with n < 8 every row is all tail and both sweeps
    // are skipped.
    while n >= 8 && p + 4 <= k {
        for i in 0..m {
            let v0 = _mm512_set1_pd(a[p * m + i]);
            let v1 = _mm512_set1_pd(a[(p + 1) * m + i]);
            let v2 = _mm512_set1_pd(a[(p + 2) * m + i]);
            let v3 = _mm512_set1_pd(a[(p + 3) * m + i]);
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: (p + 3)·n + j + 7 < k·n = b.len();
                // i·n + j + 7 < m·n = out.len().
                unsafe {
                    let x0 = _mm512_loadu_pd(bp.add(p * n + j));
                    let x1 = _mm512_loadu_pd(bp.add((p + 1) * n + j));
                    let x2 = _mm512_loadu_pd(bp.add((p + 2) * n + j));
                    let x3 = _mm512_loadu_pd(bp.add((p + 3) * n + j));
                    let t = _mm512_add_pd(
                        _mm512_add_pd(
                            _mm512_add_pd(_mm512_mul_pd(v0, x0), _mm512_mul_pd(v1, x1)),
                            _mm512_mul_pd(v2, x2),
                        ),
                        _mm512_mul_pd(v3, x3),
                    );
                    let o = op.add(i * n + j);
                    _mm512_storeu_pd(o, _mm512_add_pd(_mm512_loadu_pd(o), t));
                }
                j += 8;
            }
        }
        p += 4;
    }
    while n >= 8 && p < k {
        for i in 0..m {
            let cv = _mm512_set1_pd(a[p * m + i]);
            let mut j = 0;
            while j + 8 <= n {
                // SAFETY: p·n + j + 7 < k·n; i·n + j + 7 < m·n.
                unsafe {
                    let x = _mm512_loadu_pd(bp.add(p * n + j));
                    let o = op.add(i * n + j);
                    _mm512_storeu_pd(o, _mm512_add_pd(_mm512_loadu_pd(o), _mm512_mul_pd(cv, x)));
                }
                j += 8;
            }
        }
        p += 1;
    }
    if !n.is_multiple_of(8) {
        for i in 0..m {
            // SAFETY: column i of a is k coefficients at stride m, the
            // last at (k − 1)·m + i < k·m = a.len(); b holds k·n values
            // and row i of out ends at (i + 1)·n <= m·n (dispatcher
            // asserts).
            unsafe { rank4_cols_tail_avx512(a.as_ptr().add(i), m, bp, op.add(i * n), k, n) };
        }
    }
}

/// Accumulating transposed-LHS matmul: `out += Aᵀ · B` where `A` is
/// `k × m` and `B` is `k × n`, both row-major (`out` is `m × n`). This
/// is the gradient kernel `∂W = xᵀ · δ`; rank-4 blocked over `k`.
#[inline]
pub fn transpose_matmul_acc(
    isa: Isa,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "transpose_matmul_acc: shape"
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { transpose_matmul_acc_avx512(a, b, out, k, m, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { transpose_matmul_acc_avx2(a, b, out, k, m, n) },
        _ => transpose_matmul_acc_scalar(a, b, out, k, m, n),
    }
}

/// The reduction tree of every [`matmul_transpose_rhs`] output element:
/// four partial sums over `p ≡ 0..3 (mod 4)`, combined
/// `((s0 + s1) + s2) + s3`, then the `k % 4` leftover products added in
/// order. This is the scalar tier and the AVX2 column tail; the vector
/// tiers run the same tree in every lane.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let k = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut p = 0;
    while p + 4 <= k {
        s0 += a[p] * b[p];
        s1 += a[p + 1] * b[p + 1];
        s2 += a[p + 2] * b[p + 2];
        s3 += a[p + 3] * b[p + 3];
        p += 4;
    }
    let mut acc = ((s0 + s1) + s2) + s3;
    while p < k {
        acc += a[p] * b[p];
        p += 1;
    }
    acc
}

/// Columns `from..n` of output row `a_row · Bᵀ`, one [`dot`] each over
/// the contiguous rows of `b` (`n × k`).
#[inline(always)]
fn dot_cols_tail(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, from: usize) {
    for (j, o) in out_row.iter_mut().enumerate().skip(from) {
        *o = dot(a_row, &b[j * k..(j + 1) * k]);
    }
}

/// `V` four-lane column vectors of one output row, starting at column
/// `j`: lane `l` of vector `v` runs [`dot`]'s tree for column
/// `j + 4v + l`, reading that column from the transposed panel `bt`
/// (`k × n`). `V = 2` keeps eight independent add chains in flight.
///
/// # Safety
/// Requires AVX2; `bt` must be valid for `k·n` reads, `out_row` for `n`
/// writes, `a_row.len() == k` and `j + 4·V <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_cols_avx2<const V: usize>(
    a_row: &[f64],
    bt: *const f64,
    out_row: *mut f64,
    n: usize,
    j: usize,
) {
    let k = a_row.len();
    let mut s = [[_mm256_setzero_pd(); 4]; V];
    let mut p = 0;
    while p + 4 <= k {
        for q in 0..4 {
            let c = _mm256_set1_pd(a_row[p + q]);
            for (v, sv) in s.iter_mut().enumerate() {
                // SAFETY: (p + q)·n + j + 4v + 3 < k·n since p + q < k
                // and j + 4V <= n.
                let x = unsafe { _mm256_loadu_pd(bt.add((p + q) * n + j + 4 * v)) };
                sv[q] = _mm256_add_pd(sv[q], _mm256_mul_pd(c, x));
            }
        }
        p += 4;
    }
    let mut acc = [_mm256_setzero_pd(); V];
    for (av, sv) in acc.iter_mut().zip(&s) {
        *av = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(sv[0], sv[1]), sv[2]), sv[3]);
    }
    while p < k {
        let c = _mm256_set1_pd(a_row[p]);
        for (v, av) in acc.iter_mut().enumerate() {
            // SAFETY: p·n + j + 4v + 3 < k·n since p < k and j + 4V <= n.
            let x = unsafe { _mm256_loadu_pd(bt.add(p * n + j + 4 * v)) };
            *av = _mm256_add_pd(*av, _mm256_mul_pd(c, x));
        }
        p += 1;
    }
    for (v, av) in acc.iter().enumerate() {
        // SAFETY: j + 4v + 3 < n, the caller's bound on `out_row`.
        unsafe { _mm256_storeu_pd(out_row.add(j + 4 * v), *av) };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_transpose_rhs_avx2(
    a: &[f64],
    b: &[f64],
    bt: &[f64],
    out: &mut [f64],
    k: usize,
    n: usize,
) {
    let btp = bt.as_ptr();
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let op = out_row.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: bt holds k·n values (dispatcher asserts), out_row n,
            // a_row k, and j + 8 <= n.
            unsafe { dot_cols_avx2::<2>(a_row, btp, op, n, j) };
            j += 8;
        }
        if j + 4 <= n {
            // SAFETY: as above with j + 4 <= n.
            unsafe { dot_cols_avx2::<1>(a_row, btp, op, n, j) };
            j += 4;
        }
        dot_cols_tail(a_row, b, out_row, k, j);
    }
}

/// `V` eight-lane column vectors of one output row, starting at column
/// `j`, the last of them under the lane mask `last` (all ones for a full
/// vector): lane `l` of vector `v` runs [`dot`]'s tree for column
/// `j + 8v + l`, reading that column from the transposed panel `bt`
/// (`k × n`). `V = 2` keeps eight independent add chains in flight.
///
/// # Safety
/// Requires AVX-512F; `bt` must be valid for `k·n` reads, `out_row` for
/// `n` writes, `a_row.len() == k`, and the selected lanes must end at or
/// before column `n`: `j + 8·(V − 1) + popcount(last) <= n` with `last`
/// a low-lanes mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_cols_avx512<const V: usize>(
    a_row: &[f64],
    bt: *const f64,
    out_row: *mut f64,
    n: usize,
    j: usize,
    last: __mmask8,
) {
    let k = a_row.len();
    let mask = |v: usize| if v + 1 == V { last } else { 0xFF };
    let mut s = [[_mm512_setzero_pd(); 4]; V];
    let mut p = 0;
    while p + 4 <= k {
        for q in 0..4 {
            let c = _mm512_set1_pd(a_row[p + q]);
            for (v, sv) in s.iter_mut().enumerate() {
                // SAFETY: the lanes selected by mask(v) are columns
                // j + 8v + l < n of panel row p + q < k, inside bt; masked-off
                // lanes are not accessed.
                let x = unsafe { _mm512_maskz_loadu_pd(mask(v), bt.add((p + q) * n + j + 8 * v)) };
                sv[q] = _mm512_add_pd(sv[q], _mm512_mul_pd(c, x));
            }
        }
        p += 4;
    }
    let mut acc = [_mm512_setzero_pd(); V];
    for (av, sv) in acc.iter_mut().zip(&s) {
        *av = _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(sv[0], sv[1]), sv[2]), sv[3]);
    }
    while p < k {
        let c = _mm512_set1_pd(a_row[p]);
        for (v, av) in acc.iter_mut().enumerate() {
            // SAFETY: as above for panel row p < k.
            let x = unsafe { _mm512_maskz_loadu_pd(mask(v), bt.add(p * n + j + 8 * v)) };
            *av = _mm512_add_pd(*av, _mm512_mul_pd(c, x));
        }
        p += 1;
    }
    for (v, av) in acc.iter().enumerate() {
        // SAFETY: the selected lanes are columns j + 8v + l < n of
        // out_row; masked-off lanes are not written.
        unsafe { _mm512_mask_storeu_pd(out_row.add(j + 8 * v), mask(v), *av) };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_transpose_rhs_avx512(a: &[f64], bt: &[f64], out: &mut [f64], k: usize, n: usize) {
    let btp = bt.as_ptr();
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let op = out_row.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            // SAFETY: bt holds k·n values (dispatcher asserts), out_row n,
            // a_row k, and j + 16 <= n.
            unsafe { dot_cols_avx512::<2>(a_row, btp, op, n, j, 0xFF) };
            j += 16;
        }
        let r = n - j;
        if r > 8 {
            // SAFETY: as above; the second vector selects r − 8 lanes, so
            // the last column touched is j + r − 1 = n − 1.
            unsafe { dot_cols_avx512::<2>(a_row, btp, op, n, j, low_lanes(r - 8)) };
        } else if r > 0 {
            // SAFETY: as above; r lanes from column j end at n − 1.
            unsafe { dot_cols_avx512::<1>(a_row, btp, op, n, j, low_lanes(r)) };
        }
    }
}

/// Write `bt = bᵀ` (`k × n` from the `n × k` row-major `b`): the panel
/// the vector tiers of [`matmul_transpose_rhs`] read columns of `b`'s
/// transpose from. `bt` is caller-owned scratch, resized here and never
/// shrunk, so a warmed-up caller allocates nothing. The scalar tier walks
/// `b`'s own rows and packs nothing.
pub fn pack_transposed(isa: Isa, b: &[f64], n: usize, k: usize, bt: &mut Vec<f64>) {
    assert!(b.len() >= n * k, "pack_transposed: shape");
    if clamp(isa) == Isa::Scalar {
        return;
    }
    bt.resize(k * n, 0.0);
    // Eight source rows at a time: each sweep over `p` then fills one
    // cache line of every panel row instead of one element.
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + 8).min(n);
        for p in 0..k {
            let dst = &mut bt[p * n + j0..p * n + j1];
            for (d, j) in dst.iter_mut().zip(j0..j1) {
                *d = b[j * k + p];
            }
        }
        j0 = j1;
    }
}

/// `out = A · Bᵀ` where `A` is `m × k`, `B` is `n × k` and `out` is
/// `m × n`, all row-major — the input-gradient kernel `∂x = δ · Wᵀ`.
/// `bt` is `B` packed by [`pack_transposed`] for the same `isa`. Every
/// output element follows the 4-accumulator tree of the module docs on
/// every tier; the vector tiers run it for 16 (AVX-512) or 8 (AVX2)
/// columns of one output row at a time.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn matmul_transpose_rhs(
    isa: Isa,
    a: &[f64],
    b: &[f64],
    bt: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        a.len() >= m * k && b.len() >= n * k && out.len() >= m * n,
        "matmul_transpose_rhs: shape"
    );
    if m == 0 || n == 0 {
        return;
    }
    let (a, out) = (&a[..m * k], &mut out[..m * n]);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let isa = clamp(isa);
    assert!(isa == Isa::Scalar || bt.len() >= k * n, "matmul_transpose_rhs: panel not packed");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { matmul_transpose_rhs_avx512(a, bt, out, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { matmul_transpose_rhs_avx2(a, b, bt, out, k, n) },
        _ => {
            for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                dot_cols_tail(a_row, b, out_row, k, 0);
            }
        }
    }
}

tiered! {
    /// `y[e] += alpha · x[e]` (the SGD/Adam parameter update sweep).
    pub fn axpy(isa, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        for (y, &x) in y.iter_mut().zip(x) {
            *y += alpha * x;
        }
    }
}

/// The constants of one Adam update (Kingma & Ba, 2015): step size, decay
/// rates, `ε`, and the bias corrections `1 − βᵗ` of its step count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

impl AdamStep {
    /// The constants of update number `t` (the first update is `t = 1`).
    ///
    /// `powi` takes an `i32`; a count past `i32::MAX` is clamped to it
    /// rather than cast, where both corrections have long since reached 1
    /// (a wrapping cast would make them `1 − β^(negative)` or `1 − β⁰ = 0`).
    pub fn new(lr: f64, beta1: f64, beta2: f64, eps: f64, t: u64) -> Self {
        let t = t.min(i32::MAX as u64) as i32;
        Self { lr, beta1, beta2, eps, bc1: 1.0 - beta1.powi(t), bc2: 1.0 - beta2.powi(t) }
    }
}

tiered! {
    /// One Adam update of a flat tensor: first and second moments `m`, `v`
    /// decay toward `grads` and `grads²`, and `params` move by
    /// `lr · m̂ / (√v̂ + ε)` with `m̂ = m / bc₁`, `v̂ = v / bc₂`. Division and
    /// square root are exact-rounded like the other operations, so every
    /// tier returns the same bits.
    pub fn adam_step(
        isa,
        c: &AdamStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        let n = params.len();
        assert!(grads.len() == n && m.len() == n && v.len() == n, "adam_step: length mismatch");
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let mh = *m / c.bc1;
            let vh = *v / c.bc2;
            *p -= c.lr * mh / (vh.sqrt() + c.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn tiers() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|t| t.available()).collect()
    }

    /// k values cover rank-4 blocks plus every tail length; n values
    /// cover full vectors, half vectors and scalar column tails.
    const KS: [usize; 5] = [1, 3, 4, 9, 12];
    const NS: [usize; 6] = [1, 3, 5, 8, 13, 64];

    #[test]
    fn row_matmul_acc_is_bitwise_identical_across_tiers() {
        for &k in &KS {
            for &n in &NS {
                let a_row = lcg(k as u64, k);
                let b = lcg((k * n) as u64, k * n);
                let seed_out = lcg(7, n);
                let mut reference = seed_out.clone();
                row_matmul_acc_scalar(&a_row, &b, &mut reference, k, n);
                for isa in tiers() {
                    let mut out = seed_out.clone();
                    row_matmul_acc(isa, &a_row, &b, &mut out, k, n);
                    assert!(
                        out.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "row_matmul_acc {isa} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_matmul_acc_is_bitwise_identical_across_tiers() {
        for &k in &KS {
            for &n in &NS {
                let m = 5;
                let a = lcg((k * m) as u64, k * m);
                let b = lcg((k * n + 1) as u64, k * n);
                let seed_out = lcg(11, m * n);
                let mut reference = seed_out.clone();
                transpose_matmul_acc_scalar(&a, &b, &mut reference, k, m, n);
                for isa in tiers() {
                    let mut out = seed_out.clone();
                    transpose_matmul_acc(isa, &a, &b, &mut out, k, m, n);
                    assert!(
                        out.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "transpose_matmul_acc {isa} k={k} m={m} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_transpose_rhs_is_bitwise_identical_across_tiers() {
        for &k in &KS {
            for &n in &NS {
                let m = 3;
                let a = lcg((k * m + 5) as u64, m * k);
                let b = lcg((k * n + 2) as u64, n * k);
                // The scalar tier is the reference; it reads no panel.
                let mut reference = vec![f64::NAN; m * n];
                matmul_transpose_rhs(Isa::Scalar, &a, &b, &[], &mut reference, m, k, n);
                for isa in tiers() {
                    let mut bt = Vec::new();
                    pack_transposed(isa, &b, n, k, &mut bt);
                    let mut out = vec![f64::NAN; m * n];
                    matmul_transpose_rhs(isa, &a, &b, &bt, &mut out, m, k, n);
                    assert!(
                        out.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "matmul_transpose_rhs {isa} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_transposed_reuses_a_larger_panel() {
        // A panel left over from a bigger shape must be fully rewritten.
        let isa = Isa::detect();
        let mut bt = vec![f64::NAN; 100];
        let b = lcg(9, 3 * 5);
        pack_transposed(isa, &b, 3, 5, &mut bt);
        if isa != Isa::Scalar {
            for j in 0..3 {
                for p in 0..5 {
                    assert_eq!(bt[p * 3 + j].to_bits(), b[j * 5 + p].to_bits());
                }
            }
        }
    }

    #[test]
    fn axpy_is_bitwise_identical_across_tiers() {
        for &len in &[1usize, 4, 7, 15, 33, 256] {
            let x = lcg(len as u64, len);
            let y0 = lcg(3 + len as u64, len);
            let reference: Vec<f64> = y0.iter().zip(&x).map(|(y, x)| y + 0.73 * x).collect();
            for isa in tiers() {
                let mut y = y0.clone();
                axpy(isa, 0.73, &x, &mut y);
                assert!(
                    y.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "axpy {isa} len={len}"
                );
            }
        }
    }

    #[test]
    fn adam_step_counts_past_i32_max_stay_finite() {
        // The corrections reached 1 long before; a wrapping cast would
        // give `1 − β^(−2³¹)` = −∞ one past the limit and `1 − β⁰` = 0 at 2³².
        let limit = i32::MAX as u64;
        for t in [limit - 1, limit, limit + 1, 1 << 32, (1 << 32) + 7, u64::MAX] {
            let step = AdamStep::new(1e-3, 0.9, 0.999, 1e-8, t);
            assert_eq!((step.bc1, step.bc2), (1.0, 1.0), "t = {t}");
            let (mut p, mut m, mut v) = ([0.5, -0.25], [0.1, 0.0], [0.01, 0.0]);
            adam_step(Isa::cached(), &step, &mut p, &[0.3, -0.2], &mut m, &mut v);
            assert!(p.iter().all(|x| x.is_finite() && x.abs() < 1.0), "t = {t}: {p:?}");
        }
        assert_eq!(AdamStep::new(1e-3, 0.9, 0.999, 1e-8, 1).bc1, 1.0 - 0.9);
    }

    #[test]
    fn matmul_matches_naive_reference() {
        // Beyond tier parity: the blocked kernel must compute an actual
        // matrix product (approximately — association differs from naive).
        let (m, k, n) = (3, 9, 5);
        let a = lcg(1, m * k);
        let b = lcg(2, k * n);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            row_matmul_acc(
                Isa::cached(),
                &a[i * k..(i + 1) * k],
                &b,
                &mut out[i * n..(i + 1) * n],
                k,
                n,
            );
        }
        for i in 0..m {
            for j in 0..n {
                let naive: f64 = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
                assert!((out[i * n + j] - naive).abs() < 1e-12, "({i},{j})");
            }
        }
    }
}
