//! `f64` microkernels for the row-major MLP matrix math in `tinynn`.
//!
//! These reproduce — bit for bit — the register-blocked scalar loops the
//! `Matrix` type already used. The contract is per output element: its
//! reduction order is fixed by the shared dimension alone, and the vector
//! tiers put *different elements* in their lanes, never the terms of one
//! element's sum. Two trees exist:
//!
//! ```text
//! matmul_acc, row_matmul_acc, transpose_matmul_acc (rank-4 blocks, rank-1 tail):
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
//! The vector tiers run both trees as register tiles: a tile holds the
//! accumulators of `R` output rows × `V` vectors of columns in registers
//! for its whole `k` sweep and loads each `B` vector once for all `R`
//! rows. One rank-4 tile serves `A · B` and `Aᵀ · B`, which differ only in
//! where a row's coefficient `p` lives; the dot tile serves `A · Bᵀ` over
//! a packed `Bᵀ` panel. The tiles are written once (`tiles!`) and stamped
//! into an AVX-512 and an AVX2 module over five lane primitives each, the
//! ragged `n % lanes` columns under a lane mask. These are the crate's
//! only hand-written `std::arch` bodies: the same tile as a safe
//! `[f64; 4]`-array body compiled for AVX2 ran 0.54–0.62× on full-width
//! shapes and 0.08–0.10× on the narrow action and value heads, where the
//! masked, register-resident tail is everything (DESIGN.md, "SIMD
//! microkernels & dispatch"). [`axpy`] and [`adam_step`] lost nothing as plain loops
//! and are `tiered!`. The scalar tier is the reference the tiles are
//! tested against.

use crate::isa::tiered;
use crate::Isa;

#[inline]
fn clamp(isa: Isa) -> Isa {
    isa.min(Isa::detect())
}

/// Register tile shapes, output rows × vectors of columns, chosen by
/// in-process timing against the streaming kernels on both vector tiers
/// (DESIGN.md, "SIMD microkernels & dispatch"). Rank-4 tiles of four rows hold eight
/// accumulators; a leftover row runs as a 1-row tile four vectors wide so
/// that it still has four independent add chains. Dot tiles of two rows
/// hold sixteen partial sums; four rows measured mixed (0.75–2.13×).
const RANK4_ROWS: usize = 4;
const RANK4_VECS: usize = 2;
const ROW_VECS: usize = 4;
const DOT_ROWS: usize = 2;
const DOT_VECS: usize = 2;

/// Rows of `B` one rank-4 sweep covers before its accumulators return to
/// `out`. A multiple of 4, so an element's sequence of rank-4 blocks is
/// unchanged. It keeps the weight gradient's `B` panel in L1 at the
/// paper's `k = 256`: one unbroken sweep ran 1.32–1.39× the streaming
/// kernel there against 1.52–1.55× with the panel (a 1-vector prototype
/// without it ran 0.80×).
const K_PANEL: usize = 64;

/// One rank-4 column sweep: the scalar tier's step.
#[inline(always)]
fn rank4_cols(c: [f64; 4], b: [&[f64]; 4], out: &mut [f64]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o += c[0] * b[0][j] + c[1] * b[1][j] + c[2] * b[2][j] + c[3] * b[3][j];
    }
}

/// The scalar tier of the rank-4 kernels and the tree the tiles match:
/// `out += A · B` with `A` `m × k`, or with `AT` `out += Aᵀ · B` with `A`
/// `k × m`; `lda` is `A`'s row stride, `B` is `k × n` and `out` `m × n`.
fn rank4_scalar<const AT: bool>(
    a: &[f64],
    lda: usize,
    b: &[f64],
    out: &mut [f64],
    (m, k, n): (usize, usize, usize),
) {
    let b_row = |p: usize| &b[p * n..(p + 1) * n];
    for (i, out_row) in out.chunks_exact_mut(n).take(m).enumerate() {
        let c = |p: usize| if AT { a[p * lda + i] } else { a[i * lda + p] };
        let mut p = 0;
        while p + 4 <= k {
            let b4 = [b_row(p), b_row(p + 1), b_row(p + 2), b_row(p + 3)];
            rank4_cols([c(p), c(p + 1), c(p + 2), c(p + 3)], b4, out_row);
            p += 4;
        }
        while p < k {
            for (o, &x) in out_row.iter_mut().zip(b_row(p)) {
                *o += c(p) * x;
            }
            p += 1;
        }
    }
}

/// The one dispatcher of the rank-4 kernels (arguments as for
/// [`rank4_scalar`]). The callers have asserted the slice lengths.
#[inline]
fn rank4_acc<const AT: bool>(
    isa: Isa,
    a: &[f64],
    lda: usize,
    b: &[f64],
    out: &mut [f64],
    (m, k, n): (usize, usize, usize),
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { avx512::rank4::<AT>(a, lda, b, out, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { avx2::rank4::<AT>(a, lda, b, out, m, k, n) },
        _ => rank4_scalar::<AT>(a, lda, b, out, (m, k, n)),
    }
}

/// Accumulating row-major matmul: `out += A · B` where `A` is `m × k`,
/// `B` is `k × n` and `out` is `m × n`. Rank-4 blocked over `k` with the
/// exact scalar expression tree per element, in tiles of four rows.
#[inline]
pub fn matmul_acc(isa: Isa, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n, "matmul_acc: shape");
    rank4_acc::<false>(isa, a, k, b, out, (m, k, n));
}

/// One output row of a row-major matmul, accumulated in place:
/// `out_row += a_row · B` where `B` is `k × n` row-major — [`matmul_acc`]
/// with one row, which runs as the 1-row band of the tile.
#[inline]
pub fn row_matmul_acc(isa: Isa, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
    assert!(a_row.len() >= k && b.len() >= k * n && out_row.len() >= n, "row_matmul_acc: shape");
    rank4_acc::<false>(isa, a_row, k, b, out_row, (1, k, n));
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
    rank4_acc::<true>(isa, a, m, b, out, (m, k, n));
}

/// The reduction tree of every [`matmul_transpose_rhs`] output element:
/// four partial sums over `p ≡ 0..3 (mod 4)`, combined
/// `((s0 + s1) + s2) + s3`, then the `k % 4` leftover products added in
/// order. This is the scalar tier; the vector tiers run the same tree in
/// every lane.
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
/// every tier; the vector tiers run it in tiles of two output rows.
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
        Isa::Avx512 => unsafe { avx512::dot(a, bt, out, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { avx2::dot(a, bt, out, m, k, n) },
        _ => {
            for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = dot(a_row, &b[j * k..(j + 1) * k]);
                }
            }
        }
    }
}

/// The register tiles, written once and stamped into each vector tier's
/// module with that tier's `target_feature`. They call the module's lane
/// primitives: `N` lanes, `splat`, `add`, `mul`, and `load` / `store`,
/// which touch only the low `lanes` lanes when `TAIL` is set (a ragged
/// `n % N` column tail) and a full vector otherwise.
///
/// The tiles are safe functions that `assert!` the bounds of every
/// pointer they form; the entry points `debug_assert!` their shapes.
#[cfg(target_arch = "x86_64")]
macro_rules! tiles {
    ($feature:literal) => {
        use super::{DOT_ROWS, DOT_VECS, K_PANEL, RANK4_ROWS, RANK4_VECS, ROW_VECS};

        /// Rows `0..R` × `V` vectors of columns of a rank-4 kernel — or,
        /// with `TAIL`, one vector of `lanes` columns — over rows `p0..p1`
        /// of `b`: `out[r·n + c] +=` coefficient `p` of row `r` times
        /// `b[p·n + c]`, in rank-4 blocks then rank-1 steps. The
        /// coefficient is `a[r·lda + p]` for `A · B` and `a[p·lda + r]`
        /// for `Aᵀ · B` (`AT`). The accumulators stay in registers for the
        /// sweep and each `b` vector serves all `R` rows.
        #[target_feature(enable = $feature)]
        #[inline]
        fn rank4_tile<const R: usize, const V: usize, const TAIL: bool, const AT: bool>(
            a: &[f64],
            lda: usize,
            b: &[f64],
            out: &mut [f64],
            n: usize,
            (p0, p1): (usize, usize),
            lanes: usize,
        ) {
            assert!(p0 < p1 && (1..=N).contains(&lanes) && if TAIL { V == 1 } else { lanes == N });
            let cols = (V - 1) * N + lanes;
            let last = if AT { (p1 - 1) * lda + R - 1 } else { (R - 1) * lda + p1 - 1 };
            assert!(
                last < a.len() && (p1 - 1) * n + cols <= b.len() && (R - 1) * n + cols <= out.len(),
                "rank4_tile: bounds"
            );
            let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            // SAFETY: coefficient reads are at r·lda + p or p·lda + r for
            // r < R and p < p1, at most `last`; vector reads at p·n + v·N
            // for p < p1 and out accesses at r·n + v·N for r < R, `lanes`
            // values per vector: all inside the slices by the asserts.
            // `load`/`store` touch no other lane.
            unsafe {
                let coef =
                    |r: usize, p: usize| if AT { *a.add(p * lda + r) } else { *a.add(r * lda + p) };
                let mut acc = [[splat(0.0); V]; R];
                for (r, ar) in acc.iter_mut().enumerate() {
                    for (v, av) in ar.iter_mut().enumerate() {
                        *av = load::<TAIL>(out.add(r * n + v * N), lanes);
                    }
                }
                let mut p = p0;
                while p + 4 <= p1 {
                    for v in 0..V {
                        let x = |q: usize| load::<TAIL>(b.add((p + q) * n + v * N), lanes);
                        let (x0, x1, x2, x3) = (x(0), x(1), x(2), x(3));
                        for (r, ar) in acc.iter_mut().enumerate() {
                            let c = |q: usize| splat(coef(r, p + q));
                            let t = add(
                                add(add(mul(c(0), x0), mul(c(1), x1)), mul(c(2), x2)),
                                mul(c(3), x3),
                            );
                            ar[v] = add(ar[v], t);
                        }
                    }
                    p += 4;
                }
                while p < p1 {
                    for v in 0..V {
                        let x = load::<TAIL>(b.add(p * n + v * N), lanes);
                        for (r, ar) in acc.iter_mut().enumerate() {
                            ar[v] = add(ar[v], mul(splat(coef(r, p)), x));
                        }
                    }
                    p += 1;
                }
                for (r, ar) in acc.iter().enumerate() {
                    for (v, &av) in ar.iter().enumerate() {
                        store::<TAIL>(out.add(r * n + v * N), lanes, av);
                    }
                }
            }
        }

        /// One band of `R` output rows of a rank-4 kernel over the panel
        /// `p0..p1`: `V`-vector tiles, then single vectors, then the masked
        /// column tail.
        #[target_feature(enable = $feature)]
        #[inline]
        fn rank4_band<const R: usize, const V: usize, const AT: bool>(
            a: &[f64],
            lda: usize,
            b: &[f64],
            out: &mut [f64],
            n: usize,
            panel: (usize, usize),
        ) {
            let mut j = 0;
            while j + V * N <= n {
                rank4_tile::<R, V, false, AT>(a, lda, &b[j..], &mut out[j..], n, panel, N);
                j += V * N;
            }
            while j + N <= n {
                rank4_tile::<R, 1, false, AT>(a, lda, &b[j..], &mut out[j..], n, panel, N);
                j += N;
            }
            if j < n {
                rank4_tile::<R, 1, true, AT>(a, lda, &b[j..], &mut out[j..], n, panel, n - j);
            }
        }

        /// `out += A · B` (`A` is `m × k` with row stride `lda`) or, with
        /// `AT`, `out += Aᵀ · B` (`A` is `k × m`, row stride `lda`); `B` is
        /// `k × n` and `out` `m × n`. `k` in panels of [`K_PANEL`], each
        /// over bands of [`RANK4_ROWS`] rows and then single rows.
        #[target_feature(enable = $feature)]
        pub(super) fn rank4<const AT: bool>(
            a: &[f64],
            lda: usize,
            b: &[f64],
            out: &mut [f64],
            m: usize,
            k: usize,
            n: usize,
        ) {
            debug_assert!(m > 0 && k > 0 && n > 0, "rank4: empty product");
            debug_assert!(
                (if AT { (k - 1) * lda + m } else { (m - 1) * lda + k }) <= a.len()
                    && k * n <= b.len()
                    && m * n <= out.len(),
                "rank4: shape"
            );
            let row = |i: usize| if AT { i } else { i * lda };
            let mut p0 = 0;
            while p0 < k {
                let p1 = if k - p0 > K_PANEL { p0 + K_PANEL } else { k };
                let mut i = 0;
                while i + RANK4_ROWS <= m {
                    let (a, o) = (&a[row(i)..], &mut out[i * n..]);
                    rank4_band::<RANK4_ROWS, RANK4_VECS, AT>(a, lda, b, o, n, (p0, p1));
                    i += RANK4_ROWS;
                }
                while i < m {
                    let (a, o) = (&a[row(i)..], &mut out[i * n..]);
                    rank4_band::<1, ROW_VECS, AT>(a, lda, b, o, n, (p0, p1));
                    i += 1;
                }
                p0 = p1;
            }
        }

        /// Rows `0..R` × `V` vectors of columns of `out = A · Bᵀ` — or,
        /// with `TAIL`, one vector of `lanes` columns: lane `l` of vector
        /// `v` in row `r` runs the 4-partial-sum tree over `a[r·k..][..k]`
        /// and column `v·N + l` of the packed panel `bt` (`bt[p·n + …]`).
        /// Each panel vector serves all `R` rows.
        #[target_feature(enable = $feature)]
        #[inline]
        fn dot_tile<const R: usize, const V: usize, const TAIL: bool>(
            a: &[f64],
            k: usize,
            bt: &[f64],
            out: &mut [f64],
            n: usize,
            lanes: usize,
        ) {
            assert!(k > 0 && (1..=N).contains(&lanes) && if TAIL { V == 1 } else { lanes == N });
            let cols = (V - 1) * N + lanes;
            assert!(
                R * k <= a.len()
                    && (k - 1) * n + cols <= bt.len()
                    && (R - 1) * n + cols <= out.len(),
                "dot_tile: bounds"
            );
            let (a, bt, out) = (a.as_ptr(), bt.as_ptr(), out.as_mut_ptr());
            // SAFETY: coefficient reads are at r·k + p < R·k, panel reads
            // at p·n + v·N for p < k and out accesses at r·n + v·N for
            // r < R, `lanes` values per vector: all inside the slices by
            // the asserts. `load`/`store` touch no other lane.
            unsafe {
                let mut s = [[[splat(0.0); 4]; V]; R];
                let mut x = [splat(0.0); V];
                let mut p = 0;
                while p + 4 <= k {
                    for q in 0..4 {
                        for (v, x) in x.iter_mut().enumerate() {
                            *x = load::<TAIL>(bt.add((p + q) * n + v * N), lanes);
                        }
                        for (r, sr) in s.iter_mut().enumerate() {
                            let c = splat(*a.add(r * k + p + q));
                            for (sv, &x) in sr.iter_mut().zip(&x) {
                                sv[q] = add(sv[q], mul(c, x));
                            }
                        }
                    }
                    p += 4;
                }
                let mut acc = [[splat(0.0); V]; R];
                for (ar, sr) in acc.iter_mut().zip(&s) {
                    for (av, sv) in ar.iter_mut().zip(sr) {
                        *av = add(add(add(sv[0], sv[1]), sv[2]), sv[3]);
                    }
                }
                while p < k {
                    for (v, x) in x.iter_mut().enumerate() {
                        *x = load::<TAIL>(bt.add(p * n + v * N), lanes);
                    }
                    for (r, ar) in acc.iter_mut().enumerate() {
                        let c = splat(*a.add(r * k + p));
                        for (av, &x) in ar.iter_mut().zip(&x) {
                            *av = add(*av, mul(c, x));
                        }
                    }
                    p += 1;
                }
                for (r, ar) in acc.iter().enumerate() {
                    for (v, &av) in ar.iter().enumerate() {
                        store::<TAIL>(out.add(r * n + v * N), lanes, av);
                    }
                }
            }
        }

        /// One band of `R` output rows of `A · Bᵀ`: [`DOT_VECS`]-vector
        /// tiles, then single vectors, then the masked column tail.
        #[target_feature(enable = $feature)]
        #[inline]
        fn dot_band<const R: usize>(a: &[f64], k: usize, bt: &[f64], out: &mut [f64], n: usize) {
            let mut j = 0;
            while j + DOT_VECS * N <= n {
                dot_tile::<R, DOT_VECS, false>(a, k, &bt[j..], &mut out[j..], n, N);
                j += DOT_VECS * N;
            }
            while j + N <= n {
                dot_tile::<R, 1, false>(a, k, &bt[j..], &mut out[j..], n, N);
                j += N;
            }
            if j < n {
                dot_tile::<R, 1, true>(a, k, &bt[j..], &mut out[j..], n, n - j);
            }
        }

        /// `out = A · Bᵀ` (`A` is `m × k`, `bt` the `k × n` packed `Bᵀ`)
        /// over bands of [`DOT_ROWS`] rows and then single rows.
        #[target_feature(enable = $feature)]
        pub(super) fn dot(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
            debug_assert!(m > 0 && k > 0 && n > 0, "dot: empty product");
            debug_assert!(
                m * k <= a.len() && k * n <= bt.len() && m * n <= out.len(),
                "dot: shape"
            );
            let mut i = 0;
            while i + DOT_ROWS <= m {
                dot_band::<DOT_ROWS>(&a[i * k..], k, bt, &mut out[i * n..], n);
                i += DOT_ROWS;
            }
            while i < m {
                dot_band::<1>(&a[i * k..], k, bt, &mut out[i * n..], n);
                i += 1;
            }
        }
    };
}

/// The AVX-512 tier: eight lanes, ragged tails under a `__mmask8`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;

    const N: usize = 8;

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn add(x: __m512d, y: __m512d) -> __m512d {
        _mm512_add_pd(x, y)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn mul(x: __m512d, y: __m512d) -> __m512d {
        _mm512_mul_pd(x, y)
    }

    /// # Safety
    /// `p` is valid for reading `lanes` values (all `N` unless `TAIL`).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load<const TAIL: bool>(p: *const f64, lanes: usize) -> __m512d {
        // SAFETY: the caller's bound; a masked-off lane is not accessed.
        unsafe {
            if TAIL {
                _mm512_maskz_loadu_pd(0xFF >> (N - lanes), p)
            } else {
                _mm512_loadu_pd(p)
            }
        }
    }

    /// # Safety
    /// `p` is valid for writing `lanes` values (all `N` unless `TAIL`).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store<const TAIL: bool>(p: *mut f64, lanes: usize, x: __m512d) {
        // SAFETY: the caller's bound; a masked-off lane is not accessed.
        unsafe {
            if TAIL {
                _mm512_mask_storeu_pd(p, 0xFF >> (N - lanes), x)
            } else {
                _mm512_storeu_pd(p, x)
            }
        }
    }

    tiles!("avx512f");
}

/// The AVX2 tier: four lanes, ragged tails under `vmaskmovpd`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    const N: usize = 4;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn add(x: __m256d, y: __m256d) -> __m256d {
        _mm256_add_pd(x, y)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul(x: __m256d, y: __m256d) -> __m256d {
        _mm256_mul_pd(x, y)
    }

    /// The `vmaskmovpd` mask selecting the low `lanes` lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn low(lanes: usize) -> __m256i {
        let on = |l: usize| if l < lanes { -1 } else { 0 };
        _mm256_setr_epi64x(on(0), on(1), on(2), on(3))
    }

    /// # Safety
    /// `p` is valid for reading `lanes` values (all `N` unless `TAIL`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load<const TAIL: bool>(p: *const f64, lanes: usize) -> __m256d {
        // SAFETY: the caller's bound; a masked-off lane is not accessed.
        unsafe {
            if TAIL {
                _mm256_maskload_pd(p, low(lanes))
            } else {
                _mm256_loadu_pd(p)
            }
        }
    }

    /// # Safety
    /// `p` is valid for writing `lanes` values (all `N` unless `TAIL`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store<const TAIL: bool>(p: *mut f64, lanes: usize, x: __m256d) {
        // SAFETY: the caller's bound; a masked-off lane is not accessed.
        unsafe {
            if TAIL {
                _mm256_maskstore_pd(p, low(lanes), x)
            } else {
                _mm256_storeu_pd(p, x)
            }
        }
    }

    tiles!("avx2");
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

    /// k values cover no rank-4 block, rank-4 blocks, every tail length and
    /// a second `K_PANEL`; n values cover full vectors and every masked tail
    /// of both widths, alone and after a full vector; m covers every row
    /// count modulo both tile heights.
    const KS: [usize; 7] = [1, 2, 3, 4, 9, 12, 67];
    const NS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 64];
    const MS: std::ops::Range<usize> = 0..10;

    /// Every `(m, k, n)` of the grid above.
    fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        KS.into_iter().flat_map(|k| NS.into_iter().flat_map(move |n| MS.map(move |m| (m, k, n))))
    }

    fn bits_eq(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn rank4_kernels_are_bitwise_identical_across_tiers() {
        for (m, k, n) in shapes() {
            let a = lcg((k * m) as u64, k * m);
            let b = lcg((k * n + 1) as u64, k * n);
            let seed_out = lcg(11, m * n);
            let mut fwd = seed_out.clone();
            rank4_scalar::<false>(&a, k, &b, &mut fwd, (m, k, n));
            let mut grad = seed_out.clone();
            rank4_scalar::<true>(&a, m, &b, &mut grad, (m, k, n));
            for isa in tiers() {
                let mut out = seed_out.clone();
                matmul_acc(isa, &a, &b, &mut out, m, k, n);
                assert!(bits_eq(&out, &fwd), "matmul_acc {isa} m={m} k={k} n={n}");
                let mut out = seed_out.clone();
                transpose_matmul_acc(isa, &a, &b, &mut out, k, m, n);
                assert!(bits_eq(&out, &grad), "transpose_matmul_acc {isa} m={m} k={k} n={n}");
                let mut out = seed_out.clone();
                for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                    row_matmul_acc(isa, a_row, &b, out_row, k, n);
                }
                assert!(bits_eq(&out, &fwd), "row_matmul_acc {isa} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn matmul_transpose_rhs_is_bitwise_identical_across_tiers() {
        for (m, k, n) in shapes() {
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
                assert!(bits_eq(&out, &reference), "matmul_transpose_rhs {isa} m={m} k={k} n={n}");
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
        let (m, k, n) = (6, 9, 5);
        let a = lcg(1, m * k);
        let b = lcg(2, k * n);
        let mut out = vec![0.0; m * n];
        matmul_acc(Isa::cached(), &a, &b, &mut out, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let naive: f64 = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
                assert!((out[i * n + j] - naive).abs() < 1e-12, "({i},{j})");
            }
        }
    }
}
