//! Dense row-major `f32` matrices and the kernels the autograd layer is built on.
//!
//! The matrix type is deliberately minimal: two dimensions, `f32` storage,
//! row-major layout. Every model in the SMGCN paper (Bipar-GCN, SGE, the
//! syndrome-induction MLP, all baselines) is expressible with 2-D tensors, so
//! a full n-d tensor type would only add indexing overhead.
//!
//! All binary kernels panic on shape mismatch with a message naming the
//! offending dimensions; shape errors in a training loop are programmer bugs,
//! not recoverable conditions.

use crate::gemm::{self, PackedRhs, Tier};
use crate::par;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix where entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a square identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// `(rows, cols)` pair, convenient for assertions.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice over row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice over row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Copies another matrix's contents into this one.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.assert_same_shape(src, "Matrix::copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise sum, producing a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "Matrix::add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `out = self + other`, fully overwriting `out`.
    ///
    /// # Panics
    /// Panics if any shape differs.
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "Matrix::add_into");
        self.assert_same_shape(out, "Matrix::add_into(out)");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a + b;
        }
    }

    /// In-place element-wise accumulation `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "Matrix::add_assign");
        self.zip_map_assign(other, |a, b| a + b);
    }

    /// Element-wise difference, producing a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "Matrix::sub");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `out = self - other`, fully overwriting `out`.
    ///
    /// # Panics
    /// Panics if any shape differs.
    pub fn sub_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "Matrix::sub_into");
        self.assert_same_shape(out, "Matrix::sub_into(out)");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a - b;
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "Matrix::hadamard");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `out = self ⊙ other`, fully overwriting `out`.
    ///
    /// # Panics
    /// Panics if any shape differs.
    pub fn hadamard_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "Matrix::hadamard_into");
        self.assert_same_shape(out, "Matrix::hadamard_into(out)");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a * b;
        }
    }

    /// In-place element-wise product `self ⊙= other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "Matrix::hadamard_assign");
        self.zip_map_assign(other, |a, b| a * b);
    }

    /// Scalar multiple, producing a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `out = alpha * self`, fully overwriting `out`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn scale_into(&self, alpha: f32, out: &mut Matrix) {
        self.assert_same_shape(out, "Matrix::scale_into");
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = a * alpha;
        }
    }

    /// In-place scalar multiplication.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every entry, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `out[i] = f(self[i])` for every entry, fully overwriting `out`;
    /// disjoint runs of entries on separate threads when there are
    /// enough of them (32k a thread, see [`crate::par`]).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32 + Sync) {
        self.assert_same_shape(out, "Matrix::map_into");
        let (threads, len) = par::split_elems(self.data.len());
        let chunks = out.data.chunks_mut(len).zip(self.data.chunks(len));
        par::for_each_chunk(threads, chunks, |(out, a)| {
            for (o, &a) in out.iter_mut().zip(a) {
                *o = f(a);
            }
        });
    }

    /// `self[i] = f(self[i], other[i])` for every entry, split like
    /// [`map_into`](Self::map_into): the in-place form every activation's
    /// backward map takes.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_map_assign(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) {
        self.assert_same_shape(other, "Matrix::zip_map_assign");
        let (threads, len) = par::split_elems(self.data.len());
        let chunks = self.data.chunks_mut(len).zip(other.data.chunks(len));
        par::for_each_chunk(threads, chunks, |(a, b)| {
            for (a, &b) in a.iter_mut().zip(b) {
                *a = f(*a, b);
            }
        });
    }

    /// Dense matrix product `self @ other`.
    ///
    /// Routes through the register-tiled kernels in [`crate::gemm`]
    /// (the widest exact tile this CPU has, over packed RHS panels).
    /// Each output element is still accumulated in increasing-`k` order
    /// by a single accumulator, a `mul` then an `add` per step, and
    /// parallelism is over disjoint output-row chunks, so results are
    /// bit-for-bit the same on every tier, host and thread count — and
    /// bit-identical to the naive reference kernel.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) into a caller-provided output buffer
    /// (fully overwritten), for allocation-free hot loops.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_on(Tier::detect(), other, out);
    }

    /// [`matmul_into`](Self::matmul_into) on a named tier.
    pub(crate) fn matmul_into_on(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: inner dimensions differ ({}x{} @ {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "Matrix::matmul_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            other.cols
        );
        gemm::matmul_into(
            tier,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Dense matrix product with a transposed right operand: `self @ other^T`.
    ///
    /// This is the hot kernel for the prediction layer
    /// `g(sc, H) = e_syndrome(sc) . e_H^T` (Eq. 13): the RHS rows are
    /// transpose-packed into column panels, so no full transpose is
    /// materialised and the inner loop is the same tiled kernel as
    /// [`matmul`](Self::matmul).
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// [`matmul_transb`](Self::matmul_transb) into a caller-provided
    /// output buffer (fully overwritten).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transb_into_on(Tier::detect(), other, out);
    }

    /// [`matmul_transb_into`](Self::matmul_transb_into) on a named tier.
    pub(crate) fn matmul_transb_into_on(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_transb: inner dimensions differ ({}x{} @ ({}x{})^T)",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "Matrix::matmul_transb_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            other.rows
        );
        gemm::matmul_transb_into(
            tier,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
    }

    /// Packs `self` (`k x n`) as the right operand of
    /// [`matmul`](Self::matmul), once, for many
    /// [`matmul_packed`](Self::matmul_packed) products.
    pub fn pack_rhs(&self) -> PackedRhs {
        PackedRhs::from_rhs(self, Tier::for_cols(self.cols))
    }

    /// Packs `self` (`n x k`) as the right operand of
    /// [`matmul_transb`](Self::matmul_transb), once, for many
    /// [`matmul_packed`](Self::matmul_packed) products.
    pub fn pack_transposed(&self) -> PackedRhs {
        PackedRhs::from_transposed(self, Tier::for_cols(self.rows))
    }

    /// `self` times a pre-packed right operand: `self.matmul(&b)` for
    /// `b.pack_rhs()` and `self.matmul_transb(&b)` for
    /// `b.pack_transposed()` under the [`PackedRhs`] contract (fused
    /// multiply-adds where the CPU has them, so not the same bits as
    /// those two), without packing or touching the thread-local pack
    /// scratch.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows()`.
    pub fn matmul_packed(&self, rhs: &PackedRhs) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.matmul_packed_into(rhs, &mut out);
        out
    }

    /// [`matmul_packed`](Self::matmul_packed) into a caller-provided
    /// output buffer (fully overwritten).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_packed_into(&self, rhs: &PackedRhs, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "Matrix::matmul_packed: inner dimensions differ ({}x{} @ packed {}x{})",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols()),
            "Matrix::matmul_packed_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            rhs.cols()
        );
        rhs.matmul_into(self, &mut out.data);
    }

    /// Dense matrix product with a transposed *left* operand:
    /// `self^T @ other`.
    ///
    /// This is the backward-pass kernel: both `d/dB (A @ B)` and
    /// `d/dB (A @ B^T)` reduce to it. Equivalent to
    /// `self.transpose().matmul(other)` — bit-for-bit, including the
    /// accumulation order — without materialising the transpose.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transa_into(other, &mut out);
        out
    }

    /// [`matmul_transa`](Self::matmul_transa) into a caller-provided
    /// output buffer (fully overwritten).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transa_into_on(Tier::detect(), other, out);
    }

    /// [`matmul_transa_into`](Self::matmul_transa_into) on a named tier.
    pub(crate) fn matmul_transa_into_on(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_transa: inner dimensions differ (({}x{})^T @ {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "Matrix::matmul_transa_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.cols,
            other.cols
        );
        gemm::matmul_transa_into(
            tier,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// `self @ other` through the naive pre-tiling loops (validation and
    /// benchmark baseline; results are bit-identical to `matmul`).
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_reference: dim mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm::matmul_reference_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `self @ other^T` through the naive pre-tiling loops.
    pub fn matmul_transb_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb_reference: dim mismatch"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm::matmul_transb_reference_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// `self^T @ other` through the naive loops (equivalent to
    /// `self.transpose().matmul(other)`).
    pub fn matmul_transa_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa_reference: dim mismatch"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        gemm::matmul_transa_reference_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// Concatenates two matrices with equal row counts along the column axis.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        self.concat_cols_into(other, &mut out);
        out
    }

    /// `out = [self || other]`, fully overwriting `out`.
    ///
    /// # Panics
    /// Panics if row counts or the output shape mismatch.
    pub fn concat_cols_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::concat_cols: row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        assert_eq!(
            out.shape(),
            (self.rows, cols),
            "Matrix::concat_cols_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            cols
        );
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Splits the matrix into two column blocks `[.., left_cols]` and the rest.
    ///
    /// # Panics
    /// Panics if `left_cols > self.cols`.
    pub fn split_cols(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(
            left_cols <= self.cols,
            "Matrix::split_cols: split {} exceeds cols {}",
            left_cols,
            self.cols
        );
        let mut left = Matrix::zeros(self.rows, left_cols);
        let mut right = Matrix::zeros(self.rows, self.cols - left_cols);
        self.split_cols_into(&mut left, &mut right);
        (left, right)
    }

    /// Splits into two column blocks, fully overwriting both outputs; the
    /// split point is `left.cols()`.
    ///
    /// # Panics
    /// Panics unless `left` and `right` jointly tile this matrix's shape.
    pub fn split_cols_into(&self, left: &mut Matrix, right: &mut Matrix) {
        assert!(
            left.rows == self.rows
                && right.rows == self.rows
                && left.cols + right.cols == self.cols,
            "Matrix::split_cols_into: outputs {:?}/{:?} do not tile {:?}",
            left.shape(),
            right.shape(),
            self.shape()
        );
        let lc = left.cols;
        for r in 0..self.rows {
            let row = self.row(r);
            left.row_mut(r).copy_from_slice(&row[..lc]);
            right.row_mut(r).copy_from_slice(&row[lc..]);
        }
    }

    /// Gathers rows by index into a new matrix (embedding lookup).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers rows by index, fully overwriting `out`.
    ///
    /// Index validation is hoisted out of the copy loop: every index is
    /// checked once up front, then rows are copied without per-row bounds
    /// checks. This lookup sits inside every embedding gather, so the
    /// check must not be paid `indices.len()` times. The copy loop is
    /// this file's one `unsafe` block; it relies on nothing but the
    /// validation pass directly above it and `data.len() == rows * cols`
    /// (which every constructor asserts and no method breaks).
    ///
    /// # Panics
    /// Panics if any index is out of bounds or the output shape mismatches.
    pub fn gather_rows_into(&self, indices: &[u32], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "Matrix::gather_rows_into: output shape {:?} does not match {}x{}",
            out.shape(),
            indices.len(),
            self.cols
        );
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= self.rows) {
            panic!(
                "Matrix::gather_rows: index {bad} out of bounds for {} rows",
                self.rows
            );
        }
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        for (dst, &idx) in out.data.chunks_exact_mut(cols).zip(indices) {
            let at = idx as usize * cols;
            // SAFETY: every index was validated above, so
            // `at + cols <= rows * cols = self.data.len()`.
            let src = unsafe { self.data.get_unchecked(at..at + cols) };
            dst.copy_from_slice(src);
        }
    }

    /// Column sums into a `1 x cols` output buffer (fully overwritten).
    ///
    /// # Panics
    /// Panics if `out` is not `1 x cols`.
    pub fn col_sums_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "Matrix::col_sums_into: output shape {:?} is not 1x{}",
            out.shape(),
            self.cols
        );
        out.data.fill(0.0);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of squared entries (`||A||_F^2`).
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.sum_squares().sqrt()
    }

    /// Maximum absolute entry difference against `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "Matrix::max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True when every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// True when every entry is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_and_filled_have_expected_entries() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::filled(3, 2, 1.5);
        assert!(f.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 11.0);
        assert_eq!(a.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 0.0));
        assert!(i.matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        let direct = a.matmul_transb(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(direct.approx_eq(&via_t, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_dim_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_is_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_sub_scale_hadamard() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = m(2, 2, &[1.0, 2.0, 5.0, 6.0]);
        let b = m(2, 3, &[3.0, 4.0, 0.0, 7.0, 8.0, 9.0]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 5));
        assert_eq!(cat.row(0), &[1.0, 2.0, 3.0, 4.0, 0.0]);
        let (l, r) = cat.split_cols(2);
        assert!(l.approx_eq(&a, 0.0));
        assert!(r.approx_eq(&b, 0.0));
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[20.0, 21.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_rejects_oob() {
        let a = Matrix::zeros(2, 2);
        let _ = a.gather_rows(&[5]);
    }

    /// The bounds the unchecked read in `gather_rows_into` rests on: the
    /// last row is readable, the first index past it (and `u32::MAX`) is
    /// refused, and refused *before* any row is copied — validation is a
    /// separate pass, not interleaved with the unchecked reads.
    #[test]
    fn gather_rows_validates_every_index_before_reading() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(a.gather_rows(&[2]).row(0), &[20.0, 21.0]);
        for bad in [3u32, u32::MAX] {
            let mut out = Matrix::filled(2, 2, f32::NAN);
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.gather_rows_into(&[0, bad], &mut out)
            }));
            assert!(refused.is_err(), "index {bad} must be refused");
            assert!(
                out.as_slice().iter().all(|v| v.is_nan()),
                "index {bad}: a row was copied before validation finished"
            );
        }
        // No columns: nothing to read, whatever the (valid) indices.
        assert_eq!(Matrix::zeros(3, 0).gather_rows(&[2, 0]).shape(), (2, 0));
    }

    #[test]
    fn col_sums_and_reductions() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut sums = Matrix::filled(1, 3, f32::NAN);
        a.col_sums_into(&mut sums);
        assert_eq!(sums.as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.sum_squares(), 91.0);
        assert!((a.frobenius_norm() - 91.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn large_matmul_parallel_matches_small_path() {
        // Exercises the chunked parallel path against a sequential reference.
        let a = Matrix::from_fn(257, 31, |r, c| ((r * 7 + c * 3) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(31, 65, |r, c| ((r * 5 + c) % 11) as f32 - 5.0);
        let fast = a.matmul(&b);
        let mut slow = Matrix::zeros(257, 65);
        for r in 0..257 {
            for k in 0..31 {
                for c in 0..65 {
                    let v = slow.get(r, c) + a.get(r, k) * b.get(k, c);
                    slow.set(r, c, v);
                }
            }
        }
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }

    /// Shapes on both sides of a map's split: one value, one long row, a
    /// ragged block, and the trainer's two largest activations.
    pub(crate) const MAP_SHAPES: [(usize, usize); 5] =
        [(1, 1), (1, 100_003), (37, 1009), (1113, 256), (1024, 753)];

    /// Values in `[-4, 4]`, scrambled over the matrix.
    pub(crate) fn scrambled(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * cols + c) * 2_654_435_761 + salt * 97) % 2001) as f32 / 250.0 - 4.0
        })
    }

    pub(crate) fn assert_same_bits(got: &[f32], plain: impl Iterator<Item = f32>, what: &str) {
        let plain: Vec<f32> = plain.collect();
        assert_eq!(got.len(), plain.len(), "{what}");
        let diff = got
            .iter()
            .zip(&plain)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(diff, None, "{what}: first differing element");
    }

    #[test]
    fn split_maps_match_a_sequential_loop_bitwise() {
        let act = crate::tape::tanh;
        let slope = |g: f32, y: f32| g * (1.0 - y * y);
        for (rows, cols) in MAP_SHAPES {
            let what = format!("{rows}x{cols}");
            let (x, y) = (scrambled(rows, cols, 1), scrambled(rows, cols, 2));
            let pairs = || x.as_slice().iter().zip(y.as_slice());
            let mut out = Matrix::filled(rows, cols, f32::NAN);
            x.map_into(&mut out, act);
            assert_same_bits(out.as_slice(), x.as_slice().iter().map(|&v| act(v)), &what);
            let mut z = x.clone();
            z.zip_map_assign(&y, slope);
            assert_same_bits(z.as_slice(), pairs().map(|(&a, &b)| slope(a, b)), &what);
            let mut z = x.clone();
            z.add_assign(&y);
            assert_same_bits(z.as_slice(), pairs().map(|(&a, &b)| a + b), &what);
            let mut z = x.clone();
            z.hadamard_assign(&y);
            assert_same_bits(z.as_slice(), pairs().map(|(&a, &b)| a * b), &what);
        }
    }
}
