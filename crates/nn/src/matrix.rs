//! Dense row-major matrix of `f64` with the operations the MLPs require.
//!
//! The three matmul kernels ([`Matrix::matmul_into`],
//! `Matrix::matmul_transpose_rhs_into`, `Matrix::transpose_matmul_into`)
//! are one call each of the `simd_kernels::nnf64` microkernels (8-lane
//! f64 on AVX-512F, 4-lane on AVX2, scalar otherwise). The first and the
//! last are rank-4 blocked over the shared `k` dimension, so every update
//! of an accumulator folds in four multiply-adds; the middle one gives
//! every output element a dot product with four partial sums. The vector
//! tiers compute several output rows per register tile (four rank-4 rows,
//! two dot rows), loading each vector of the right-hand operand once for
//! all of them. What is fixed is the reduction order *of one output
//! element*; the tiers choose only which elements share a register and
//! evaluate the same expression tree in each, so results are
//! bit-identical to the scalar loops on every tier.
//!
//! Determinism contract: the accumulation order for an output element
//! depends only on the shared dimensions (`k`, `n`), never on the number
//! of rows `m` being multiplied or on which tile a row lands in.
//! Evaluating a `batch × features` matrix therefore produces bitwise the
//! same rows as evaluating each row on its own — the property the batched
//! policy API (`act_batch` vs per-row `act`) relies on.

/// A dense `rows × cols` matrix, row-major.
///
/// A `1 × n` matrix doubles as a row vector; batches are stored one sample
/// per row (`batch × features`), matching the convention of the Python
/// frameworks the paper benchmarks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Self { rows, cols, data: vec![v; rows * cols] }
    }

    /// Build from a flat row-major vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A single-row matrix wrapping `v`.
    pub fn row(v: &[f64]) -> Self {
        Self { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_slice_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Set every element to zero (reuses the allocation).
    pub(crate) fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshape to `rows × cols`, all zeros, reusing the allocation.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows × cols` without zeroing; every element must be
    /// overwritten by the caller before being read.
    fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `src`, reusing the allocation.
    pub(crate) fn copy_resize_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Become a `rows × cols` matrix with the given flat row-major
    /// contents, reusing the allocation. Panics if the length mismatches.
    pub fn copy_from_flat(&mut self, rows: usize, cols: usize, data: &[f64]) {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// `out = self · rhs`. Shapes: `(m×k) · (k×n) = (m×n)`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out = self · rhs`, writing into `out` (resized and zeroed here, so
    /// a scratch buffer can be reused across calls of varying batch size).
    ///
    /// One call of the rank-4 kernel for the whole product: `k` blocked 4×
    /// per accumulator update, four output rows per register tile on the
    /// vector tiers.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_zeroed(m, n);
        let isa = simd_kernels::Isa::cached();
        simd_kernels::nnf64::matmul_acc(isa, &self.data, &rhs.data, &mut out.data, m, k, n);
    }

    /// `self · rhsᵀ`; allocates the output and the kernel's panel.
    pub fn matmul_transpose_rhs(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transpose_rhs_into(rhs, &mut Vec::new(), &mut out);
        out
    }

    /// `out = self · rhsᵀ`. Shapes: `(m×k) · (n×k)ᵀ = (m×n)`.
    ///
    /// Every output element is a dot product with four partial sums
    /// (`p ≡ 0..3 mod 4`, combined `((s0+s1)+s2)+s3`, then the `k % 4`
    /// tail), vectorised across the output columns of one row. The vector
    /// tiers read `rhs` column-wise, so it is transposed once per call into
    /// `panel` — scratch the caller keeps between calls, grown here when
    /// needed.
    pub(crate) fn matmul_transpose_rhs_into(
        &self,
        rhs: &Matrix,
        panel: &mut Vec<f64>,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, rhs.cols, "matmul_transpose_rhs shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize_for_overwrite(m, n);
        let isa = simd_kernels::Isa::cached();
        simd_kernels::nnf64::pack_transposed(isa, &rhs.data, n, k, panel);
        let (a, b) = (&self.data, &rhs.data);
        simd_kernels::nnf64::matmul_transpose_rhs(isa, a, b, panel, &mut out.data, m, k, n);
    }

    /// `selfᵀ · rhs` without materialising the transpose.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_matmul_into(rhs, &mut out);
        out
    }

    /// `out = selfᵀ · rhs` without materialising the transpose.
    pub(crate) fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul shape mismatch");
        out.resize_zeroed(self.cols, rhs.cols);
        self.transpose_matmul_acc_impl(rhs, out);
    }

    /// `out += selfᵀ · rhs` — accumulating form used for weight gradients
    /// (`gw += xᵀ · dz`), eliminating the temporary + `axpy` round trip.
    /// `out` must already have shape `self.cols × rhs.cols`.
    pub(crate) fn transpose_matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul shape mismatch");
        assert_eq!(out.shape(), (self.cols, rhs.cols), "transpose_matmul_acc out shape mismatch");
        self.transpose_matmul_acc_impl(rhs, out);
    }

    /// Shared `out += selfᵀ · rhs` kernel: rank-4 blocked over `k` so each
    /// pass over `out` folds in four rank-1 updates. Dispatches to the
    /// explicit SIMD microkernel for the process's cached ISA tier; all
    /// tiers evaluate the same per-element expression tree.
    fn transpose_matmul_acc_impl(&self, rhs: &Matrix, out: &mut Matrix) {
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        simd_kernels::nnf64::transpose_matmul_acc(
            simd_kernels::Isa::cached(),
            &self.data,
            &rhs.data,
            &mut out.data,
            k,
            m,
            n,
        );
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise in-place `self += alpha * other` (SIMD-dispatched).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        simd_kernels::nnf64::axpy(simd_kernels::Isa::cached(), alpha, &other.data, &mut self.data);
    }

    /// Add a row vector to every row (bias broadcast).
    pub(crate) fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias broadcast length mismatch");
        for i in 0..self.rows {
            for (x, b) in self.row_slice_mut(i).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Accumulate the column sums into `out` (`out += Σ_rows self`).
    pub(crate) fn sum_rows_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "sum_rows_into length mismatch");
        for i in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row_slice(i)) {
                *o += x;
            }
        }
    }

    /// True when any element is NaN or infinite.
    pub(crate) fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple-loop reference multiply for kernel validation.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let data = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        for (m, k, n) in [(1, 7, 5), (3, 8, 4), (5, 9, 6), (2, 16, 3), (4, 1, 1)] {
            let a = lcg_matrix(m, k, (m * 100 + k * 10 + n) as u64);
            let b = lcg_matrix(k, n, (n * 100 + m) as u64);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_rows_are_batch_invariant() {
        // Row r of a batched product must be bitwise identical to the
        // product of that single row — the act_batch determinism contract.
        let a = lcg_matrix(6, 13, 42);
        let b = lcg_matrix(13, 9, 43);
        let batched = a.matmul(&b);
        for r in 0..a.rows() {
            let single = Matrix::row(a.row_slice(r)).matmul(&b);
            assert_eq!(single.as_slice(), batched.row_slice(r));
        }
    }

    #[test]
    fn nine_row_products_are_batch_invariant_across_tile_boundaries() {
        // Nine rows are two 4-row rank-4 tiles and a 1-row one, or four
        // 2-row dot tiles and a 1-row one; k = 67 crosses a k panel and
        // n = 29 ends in a ragged column tail on both vector tiers. Each
        // output row must equal the product of its own row alone.
        let (m, k, n) = (9, 67, 29);
        let x = lcg_matrix(m, k, 46);
        let w = lcg_matrix(k, n, 47);
        let batched = x.matmul(&w);
        for r in 0..m {
            assert_eq!(Matrix::row(x.row_slice(r)).matmul(&w).as_slice(), batched.row_slice(r));
        }
        let wt = lcg_matrix(n, k, 48);
        let batched = x.matmul_transpose_rhs(&wt);
        for r in 0..m {
            let single = Matrix::row(x.row_slice(r)).matmul_transpose_rhs(&wt);
            assert_eq!(single.as_slice(), batched.row_slice(r));
        }
        // `xᵀ · δ`: output row r is column r of `x` against `δ`.
        let xt = lcg_matrix(k, m, 49);
        let delta = lcg_matrix(k, n, 50);
        let batched = xt.transpose_matmul(&delta);
        for r in 0..m {
            let column: Vec<f64> = (0..k).map(|p| xt.get(p, r)).collect();
            let single = Matrix::from_vec(k, 1, column).transpose_matmul(&delta);
            assert_eq!(single.as_slice(), batched.row_slice(r));
        }
    }

    #[test]
    fn matmul_handles_degenerate_shapes() {
        // k = 0: the product is all zeros.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b), Matrix::zeros(3, 4));
        // m = 0 and n = 0 produce empty outputs without panicking.
        assert_eq!(Matrix::zeros(0, 5).matmul(&Matrix::zeros(5, 2)).shape(), (0, 2));
        assert_eq!(Matrix::zeros(2, 5).matmul(&Matrix::zeros(5, 0)).shape(), (2, 0));
    }

    #[test]
    fn matmul_into_reuses_buffer_across_shapes() {
        let mut out = Matrix::zeros(1, 1);
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        // Shrink and regrow; stale contents must not leak into the result.
        Matrix::row(&[1.0, 0.0]).matmul_into(&b, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[5.0, 6.0]]));
    }

    #[test]
    fn matmul_transpose_rhs_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, 1.0, -1.0]]);
        assert_eq!(a.matmul_transpose_rhs(&b), a.matmul(&b.transpose()));
    }

    /// The 4-accumulator dot every `matmul_transpose_rhs` element must
    /// equal bit for bit, written out independently of the kernel crate.
    fn dot4(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        let mut s = [0.0f64; 4];
        for p in 0..k - k % 4 {
            s[p % 4] += a[p] * b[p];
        }
        let mut acc = ((s[0] + s[1]) + s[2]) + s[3];
        for p in k - k % 4..k {
            acc += a[p] * b[p];
        }
        acc
    }

    #[test]
    fn matmul_transpose_rhs_rows_are_batch_invariant() {
        // n = 29 has a two-vector block, a single vector and a ragged
        // tail on both vector tiers; k = 13 leaves a k % 4 remainder.
        let a = lcg_matrix(6, 13, 44);
        let b = lcg_matrix(29, 13, 45);
        let batched = a.matmul_transpose_rhs(&b);
        for r in 0..a.rows() {
            let single = Matrix::row(a.row_slice(r)).matmul_transpose_rhs(&b);
            assert_eq!(single.as_slice(), batched.row_slice(r));
            for j in 0..b.rows() {
                let want = dot4(a.row_slice(r), b.row_slice(j));
                assert_eq!(batched.get(r, j).to_bits(), want.to_bits(), "({r},{j})");
            }
        }
    }

    #[test]
    fn matmul_transpose_rhs_handles_degenerate_shapes() {
        // k = 0: every dot is an empty sum. A panel and an output left
        // over from a larger product must not leak into the result.
        let mut panel = vec![f64::NAN; 64];
        let mut out = Matrix::full(7, 7, f64::NAN);
        Matrix::zeros(3, 0).matmul_transpose_rhs_into(&Matrix::zeros(4, 0), &mut panel, &mut out);
        assert_eq!(out, Matrix::zeros(3, 4));
        // m = 0 and n = 0 produce empty outputs without panicking.
        Matrix::zeros(0, 5).matmul_transpose_rhs_into(&Matrix::zeros(2, 5), &mut panel, &mut out);
        assert_eq!(out.shape(), (0, 2));
        Matrix::zeros(2, 5).matmul_transpose_rhs_into(&Matrix::zeros(0, 5), &mut panel, &mut out);
        assert_eq!(out.shape(), (2, 0));
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_matmul_acc_accumulates() {
        let a = lcg_matrix(6, 3, 7);
        let b = lcg_matrix(6, 2, 8);
        let once = a.transpose_matmul(&b);
        let mut acc = once.clone();
        a.transpose_matmul_acc(&b, &mut acc);
        let mut doubled = once.clone();
        doubled.axpy(1.0, &once);
        // Accumulating into a non-zero buffer associates partial sums
        // differently than a fresh product, so compare with a tolerance.
        for (x, y) in acc.as_slice().iter().zip(doubled.as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcast_and_sum_rows_are_adjoint() {
        // Summing rows is the gradient of add_row_broadcast: check shapes/values.
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -2.0]);
        let mut sums = vec![0.0; 2];
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, vec![3.0, -6.0]);
    }

    #[test]
    fn sum_rows_into_accumulates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut acc = vec![10.0, 20.0];
        a.sum_rows_into(&mut acc);
        assert_eq!(acc, vec![14.0, 26.0]);
    }

    #[test]
    fn copy_resize_and_flat_helpers() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Matrix::zeros(5, 5);
        dst.copy_resize_from(&src);
        assert_eq!(dst, src);
        dst.copy_from_flat(1, 4, &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(dst, Matrix::from_rows(&[&[9.0, 8.0, 7.0, 6.0]]));
        dst.resize_zeroed(2, 2);
        assert_eq!(dst, Matrix::zeros(2, 2));
    }

    #[test]
    fn axpy_adds_a_multiple() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::full(2, 2, 2.0));
    }

    #[test]
    fn row_slice_matches_get() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_slice(1), &[3.0, 4.0]);
        assert_eq!(a.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn large_products_match_their_single_rows() {
        // 128×128×128: well past any batch the learners build. Each row
        // must still be bitwise identical to its single-row product.
        let a = lcg_matrix(128, 128, 1);
        let b = lcg_matrix(128, 128, 2);
        let big = a.matmul(&b);
        for r in [0, 63, 127] {
            let single = Matrix::row(a.row_slice(r)).matmul(&b);
            assert_eq!(single.as_slice(), big.row_slice(r));
        }
        // Same for `a · bᵀ`, whose rows share one packed panel.
        let tr = a.matmul_transpose_rhs(&b);
        for r in 0..a.rows() {
            let single = Matrix::row(a.row_slice(r)).matmul_transpose_rhs(&b);
            assert_eq!(single.as_slice(), tr.row_slice(r));
        }
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f64::NAN);
        assert!(a.has_non_finite());
    }
}
