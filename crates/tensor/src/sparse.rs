//! Compressed-sparse-row matrices for graph adjacency structure.
//!
//! Every graph in the paper — the symptom–herb bipartite graph `SH`, the
//! synergy graphs `SS`/`HH`, and the per-batch symptom-set pooling matrix —
//! is a sparse 0/1 (or row-normalised) matrix that stays *fixed* during
//! training. The autograd layer therefore treats CSR matrices as constants
//! and only differentiates through the dense operand of [`CsrMatrix::spmm`].

use std::sync::Arc;

use crate::gemm::Tier;
use crate::matrix::Matrix;
use crate::par;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// A sparse matrix in compressed-sparse-row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` bounds row `r`'s entries; length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index per stored entry, sorted within each row.
    indices: Vec<u32>,
    /// Stored value per entry.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed. Entries that
    /// sum to exactly zero are still stored (callers filter beforehand when
    /// they care).
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "CsrMatrix::from_triplets: entry ({r}, {c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        indptr.push(0);
        let mut current_row = 0usize;
        for &(r, c, v) in &sorted {
            let r = r as usize;
            while current_row < r {
                indptr.push(indices.len());
                current_row += 1;
            }
            if let (Some(&last_c), Some(last_v)) = (indices.last(), values.last_mut()) {
                if indptr.len() - 1 == r && last_c == c && indptr[r] < indices.len() {
                    *last_v += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
        }
        while current_row < rows {
            indptr.push(indices.len());
            current_row += 1;
        }
        debug_assert_eq!(indptr.len(), rows + 1);
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An all-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Stored entries of row `r` as parallel `(column, value)` slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r` (the node degree for 0/1 graphs).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Iterates over all stored `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Value at `(r, c)`, zero when not stored.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Returns the transpose in CSR form.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for (r, c, v) in self.iter() {
            let slot = next[c as usize];
            indices[slot] = r;
            values[slot] = v;
            next[c as usize] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Scales each row by `1 / row_sum` (rows with zero sum are left as-is),
    /// producing the mean-aggregation operator `1/|N(v)| * A` used by
    /// Bipar-GCN message merging (Eqs. 2, 3, 7, 9).
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let lo = out.indptr[r];
            let hi = out.indptr[r + 1];
            let sum: f32 = out.values[lo..hi].iter().sum();
            if sum != 0.0 {
                let inv = 1.0 / sum;
                for v in &mut out.values[lo..hi] {
                    *v *= inv;
                }
            }
        }
        out
    }

    /// Sparse-dense product `self @ dense`.
    ///
    /// Parallelised over output-row chunks balanced by *stored-entry
    /// count*, not row count: the co-occurrence graphs are heavily skewed
    /// (hub symptoms/herbs own most edges), so equal-row chunks would
    /// leave most threads idle; how many chunks is decided like a dense
    /// product's, by multiply-adds (`nnz · dense.cols()`). Each output
    /// row still accumulates sequentially, so results are deterministic
    /// and independent of the thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != dense.rows`.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// [`spmm`](Self::spmm) into a caller-provided output buffer (fully
    /// overwritten), for allocation-free hot loops.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_into_on(Tier::detect(), dense, out);
    }

    /// [`spmm_into`](Self::spmm_into) with `tier`'s row kernel where it
    /// has one for this width, the scalar row loop otherwise. Either way
    /// an output element is one accumulator starting at `0.0` and taking
    /// its row's stored entries in order, a `mul` then an `add` each: the
    /// same bits on every tier.
    fn spmm_into_on(&self, tier: Tier, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "CsrMatrix::spmm: inner dimensions differ ({}x{} @ {}x{})",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, dense.cols()),
            "CsrMatrix::spmm_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.rows,
            dense.cols()
        );
        let n = dense.cols();
        let dense_data = dense.as_slice();
        par::for_each_row_chunk_balanced(
            out.as_mut_slice(),
            n,
            self.rows,
            &self.indptr,
            |r0, chunk| {
                for (local_r, out_row) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
                    let (cols, vals) = self.row(r0 + local_r);
                    if simd_row(tier, cols, vals, dense_data, out_row) {
                        continue;
                    }
                    out_row.fill(0.0);
                    for (&c, &a) in cols.iter().zip(vals) {
                        let dense_row = &dense_data[c as usize * n..(c as usize + 1) * n];
                        for (o, &b) in out_row.iter_mut().zip(dense_row) {
                            *o += a * b;
                        }
                    }
                }
            },
        );
    }

    /// Densifies into a [`Matrix`]: each stored value at its place (a
    /// stored `-0.0` stays `-0.0`), zeros elsewhere.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r as usize, c as usize, v);
        }
        out
    }

    /// True if the matrix equals its transpose (synergy graphs must be).
    pub fn is_symmetric(&self) -> bool {
        self.rows == self.cols && *self == self.transpose()
    }
}

/// Computes one output row of a sparse-dense product with `tier`'s SIMD
/// kernel, which holds the row in registers across its stored entries;
/// `false`, with `out_row` untouched, where the tier has no kernel for
/// this width (a ragged one, or the scalar tier).
#[cfg(target_arch = "x86_64")]
fn simd_row(tier: Tier, cols: &[u32], vals: &[f32], dense: &[f32], out_row: &mut [f32]) -> bool {
    let fits = simd::spmm_row_fits(tier, out_row.len());
    if fits {
        simd::spmm_row(tier, cols, vals, dense, out_row);
    }
    fits
}

/// Off x86-64 there is only the scalar row loop.
#[cfg(not(target_arch = "x86_64"))]
fn simd_row(_: Tier, _: &[u32], _: &[f32], _: &[f32], _: &mut [f32]) -> bool {
    false
}

/// Smallest share of its entries an operator must store for
/// [`SharedCsr`] to keep it dense as well. `spmm_vs_dense` in
/// `benches/kernels.rs` prints the record, on the build host (2 cores,
/// AVX-512) at widths 64 and 128: the paper-shape bipartite operators
/// store 61% and run 1.1–2x faster as a dense GEMM than through the SpMM
/// row kernel; the synergy graphs store 10% and 2% and run 4–5x and
/// 11–17x slower dense (two runs). Scaling each operator's SpMM time
/// with the share it stores puts the break-even between about a third
/// and a half stored. A batch's set-pooling operator stores under 2%.
const DENSE_SHARE: f64 = 0.4;

/// A sparse operator paired with its precomputed transpose, shared by
/// forward and backward passes of [`Tape::spmm`](crate::Tape::spmm).
/// Graphs are fixed across training, so the transpose is built once.
///
/// An operator that stores at least two fifths of its entries (the
/// paper-shape symptom–herb mean operators) also keeps `A` and `A^T` as
/// row-major dense matrices, and its products run as exact dense GEMMs
/// on them (a GCN's `bmm(adjacency, support)`). That changes no bit: a
/// CSR row holds its columns ascending, and the SpMM kernel walks them
/// as the GEMM walks the reduction, one accumulator from `+0.0`, a `mul`
/// then an `add` each. The GEMM's extra terms are `±0` products, and
/// adding `±0` never changes an accumulator that starts at `+0.0` (no
/// sum of finite values rounds to `-0.0` unless both addends are `-0.0`).
#[derive(Clone, Debug)]
pub struct SharedCsr {
    forward: Arc<CsrMatrix>,
    backward: Arc<CsrMatrix>,
    /// `[A, A^T]` row-major, for an operator at least [`DENSE_SHARE`]
    /// stored.
    dense: Option<Arc<[Matrix; 2]>>,
}

impl SharedCsr {
    /// Wraps a CSR matrix, precomputing its transpose, and its dense form
    /// when it stores at least two fifths of its entries.
    pub fn new(m: CsrMatrix) -> Self {
        let entries = (m.rows() * m.cols()).max(1);
        let dense = m.nnz() as f64 / entries as f64 >= DENSE_SHARE;
        Self::with_dense_form(m, dense)
    }

    /// [`new`](Self::new) with the dense form kept, or not, by the caller.
    fn with_dense_form(m: CsrMatrix, dense: bool) -> Self {
        let backward = m.transpose();
        Self {
            dense: dense.then(|| Arc::new([m.to_dense(), backward.to_dense()])),
            forward: Arc::new(m),
            backward: Arc::new(backward),
        }
    }

    /// The forward operator `A`.
    pub fn forward(&self) -> &CsrMatrix {
        &self.forward
    }

    /// The backward operator `A^T`.
    pub fn backward(&self) -> &CsrMatrix {
        &self.backward
    }

    /// Shape of the forward operator.
    pub fn shape(&self) -> (usize, usize) {
        self.forward.shape()
    }

    /// Whether products run as dense GEMMs (see the type's docs).
    pub fn is_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// `out = A @ x`, fully overwritten.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        self.product_on(Tier::detect(), false, x, out);
    }

    /// `out = A^T @ g`, fully overwritten: the backward product.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn spmm_transposed_into(&self, g: &Matrix, out: &mut Matrix) {
        self.product_on(Tier::detect(), true, g, out);
    }

    /// `A @ x`, or `A^T @ x`, on `tier`: the dense copy's GEMM where there
    /// is one, the CSR kernel otherwise.
    fn product_on(&self, tier: Tier, transposed: bool, x: &Matrix, out: &mut Matrix) {
        match (&self.dense, transposed) {
            (Some(dense), _) => dense[usize::from(transposed)].matmul_into_on(tier, x, out),
            (None, false) => self.forward.spmm_into_on(tier, x, out),
            (None, true) => self.backward.spmm_into_on(tier, x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_triplets_orders_and_indexes() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5), (1, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_oob() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn unsorted_triplets_match_sorted() {
        let t_sorted = [(0u32, 0u32, 1.0f32), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)];
        let t_shuffled = [(2u32, 1u32, 4.0f32), (0, 2, 2.0), (2, 0, 3.0), (0, 0, 1.0)];
        assert_eq!(
            CsrMatrix::from_triplets(3, 3, &t_sorted),
            CsrMatrix::from_triplets(3, 3, &t_shuffled)
        );
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let s = sample();
        let d = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 2.0);
        let sparse_result = s.spmm(&d);
        let dense_result = s.to_dense().matmul(&d);
        assert!(sparse_result.approx_eq(&dense_result, 1e-6));
    }

    /// Every tier's row kernel against the scalar row loop, bit for bit:
    /// a hub row storing every column, empty rows, sparse rows, and
    /// widths on and off every vector width (1, 15 and 100 take the
    /// scalar loop on every tier; that is the point of listing them).
    #[test]
    fn simd_rows_match_the_scalar_loop_bitwise() {
        use rand::Rng;
        let (rows, cols) = (41usize, 90usize);
        let mut rng = crate::init::seeded_rng(17);
        let mut triplets: Vec<(u32, u32, f32)> = (0..cols as u32)
            .map(|c| (0, c, rng.gen_range(-2.0f32..2.0)))
            .collect();
        for r in (1..rows as u32).filter(|r| r % 5 != 3) {
            for _ in 0..rng.gen_range(1..12u32) {
                let c = rng.gen_range(0..cols as u32);
                triplets.push((r, c, rng.gen_range(-2.0f32..2.0)));
            }
        }
        let a = CsrMatrix::from_triplets(rows, cols, &triplets);
        assert_eq!(a.row_nnz(0), cols, "a hub row");
        assert_eq!(a.row_nnz(3), 0, "an empty row");
        for width in [1usize, 15, 16, 64, 100, 128, 256] {
            let dense = Matrix::from_fn(cols, width, |_, _| rng.gen_range(-3.0f32..3.0));
            let mut scalar = Matrix::filled(rows, width, f32::NAN);
            a.spmm_into_on(Tier::Scalar, &dense, &mut scalar);
            for tier in Tier::available() {
                let mut out = Matrix::filled(rows, width, f32::NAN);
                a.spmm_into_on(tier, &dense, &mut out);
                let same = out
                    .as_slice()
                    .iter()
                    .zip(scalar.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{tier:?} at width {width}");
            }
        }
    }

    #[test]
    fn spmm_on_empty_rows_yields_zeros() {
        let s = CsrMatrix::zeros(2, 3);
        let d = Matrix::filled(3, 2, 1.0);
        let out = s.spmm(&d);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = sample().row_normalized();
        assert!((m.get(0, 0) - 1.0 / 3.0).abs() < 1e-6);
        assert!((m.get(0, 2) - 2.0 / 3.0).abs() < 1e-6);
        // Empty row untouched.
        assert_eq!(m.row_nnz(1), 0);
        assert!((m.get(2, 0) + m.get(2, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(3);
        let d = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        assert!(i.spmm(&d).approx_eq(&d, 0.0));
        assert!(i.is_symmetric());
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric());
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn shared_csr_pairs_transpose() {
        let s = SharedCsr::new(sample());
        assert_eq!(s.backward().shape(), (3, 3));
        assert_eq!(s.forward().get(2, 0), s.backward().get(0, 2));
    }

    /// A `rows x cols` operator storing about `share` of its entries, with
    /// row 0 storing every column, row 1 none, and the rest a mix of
    /// positive, negative and `-0.0` values.
    fn operator(rows: usize, cols: usize, share: f64, seed: u64) -> CsrMatrix {
        use rand::Rng;
        let mut rng = crate::init::seeded_rng(seed);
        let mut triplets: Vec<(u32, u32, f32)> = (0..cols as u32)
            .map(|c| (0, c, rng.gen_range(-1.0f32..1.0)))
            .collect();
        for r in 2..rows as u32 {
            for c in 0..cols as u32 {
                if rng.gen_range(0.0..1.0) < share {
                    let v = match rng.gen_range(0..8u32) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-2.0f32..2.0),
                    };
                    triplets.push((r, c, v));
                }
            }
        }
        let m = CsrMatrix::from_triplets(rows, cols, &triplets);
        assert_eq!((m.row_nnz(0), m.row_nnz(1)), (cols, 0));
        m
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The dense form computes the CSR kernel's bits, forward (`A @ x`)
    /// and backward (`A^T @ g`), on every tier, at SIMD and ragged widths,
    /// for operators on both sides of `DENSE_SHARE`; and so does
    /// `Tape::spmm` through it. The operands hold zeros, `-0.0` and
    /// negatives too.
    #[test]
    fn dense_form_matches_the_csr_kernel_bitwise() {
        use crate::tape::{ParamStore, Tape};
        use rand::Rng;
        let mut rng = crate::init::seeded_rng(29);
        for (share, seed) in [(0.05, 1), (0.3, 2), (0.62, 3), (0.9, 4)] {
            let a = operator(37, 53, share, seed);
            let shared = SharedCsr::with_dense_form(a.clone(), true);
            let at = a.transpose();
            for width in [64usize, 128, 37, 1] {
                let what = format!("share {share}, width {width}");
                let mut operand = |rows| {
                    Matrix::from_fn(rows, width, |_, _| match rng.gen_range(0..6u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-3.0f32..3.0),
                    })
                };
                let (x, g) = (operand(a.cols()), operand(a.rows()));
                let mut want_y = Matrix::filled(a.rows(), width, f32::NAN);
                a.spmm_into_on(Tier::Scalar, &x, &mut want_y);
                let mut want_gx = Matrix::filled(a.cols(), width, f32::NAN);
                at.spmm_into_on(Tier::Scalar, &g, &mut want_gx);
                for tier in Tier::available() {
                    let mut y = Matrix::filled(a.rows(), width, f32::NAN);
                    shared.product_on(tier, false, &x, &mut y);
                    assert!(same_bits(&y, &want_y), "{tier:?} forward, {what}");
                    let mut gx = Matrix::filled(a.cols(), width, f32::NAN);
                    shared.product_on(tier, true, &g, &mut gx);
                    assert!(same_bits(&gx, &want_gx), "{tier:?} backward, {what}");
                }
                // Through the tape: d(Σ y²)/dx = A^T (2 y).
                let mut store = ParamStore::new();
                let id = store.add("x", x.clone());
                let mut tape = Tape::new(&store);
                let vx = tape.param(id);
                let y = tape.spmm(&shared, vx);
                assert!(same_bits(tape.value(y), &want_y), "tape forward, {what}");
                let loss = tape.sum_squares(y);
                let grads = tape.backward(loss);
                let want = at.spmm(&want_y.scale(2.0));
                assert!(
                    same_bits(grads.get(id).unwrap(), &want),
                    "tape backward, {what}"
                );
            }
        }
    }

    #[test]
    fn the_dense_form_is_kept_from_two_fifths_of_the_entries_stored() {
        for (share, dense) in [(0.05, false), (0.3, false), (0.62, true), (0.9, true)] {
            let a = operator(40, 60, share, 7);
            let stored = a.nnz() as f64 / (40.0 * 60.0);
            assert_eq!(
                SharedCsr::new(a).is_dense(),
                dense,
                "{stored:.2} of the entries stored"
            );
        }
        assert!(!SharedCsr::new(CsrMatrix::zeros(0, 3)).is_dense());
        assert!(SharedCsr::new(CsrMatrix::identity(1)).is_dense());
    }
}
