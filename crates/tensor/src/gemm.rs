//! Register-tiled dense GEMM kernels.
//!
//! Every dense product in the workspace — `A @ B`, the prediction-layer
//! `A @ B^T`, and the backward-pass `A^T @ B` — routes through this module.
//! The kernels are plain scalar Rust shaped so LLVM autovectorizes them:
//! a 4x8 register tile of accumulators lives across the entire reduction
//! loop, the right-hand side is packed into contiguous 8-wide column
//! panels, and the left-hand side streams row-major. Compared to the naive
//! loops (kept below as the `*_reference_into` kernels) this removes the
//! per-`k` reload/store of the output row and turns the transposed-B dot
//! products into 32 independent dependency chains.
//!
//! ## Determinism contract
//!
//! Each output element is accumulated by a **single** accumulator walking
//! the reduction dimension in increasing order — exactly the order the
//! naive kernels use. Tiling only changes *which other elements* are
//! computed alongside, never the per-element order, so results are
//! bit-for-bit identical to the reference kernels and independent of the
//! thread count (parallelism is over disjoint output-row ranges, as
//! everywhere else in this crate). The property tests in
//! `tests/gemm_props.rs` assert exact equality, not approximate.
//!
//! One caveat: the reference kernels keep the historical `a == 0.0` term
//! skip, the tiled kernels accumulate every term. Adding a `±0.0 · b`
//! term to a running sum never changes its value, so for finite operands
//! the two agree bit-for-bit except in one contrived corner (an output
//! whose every contribution is an exact zero can differ in the *sign* of
//! its zero — still `==` as floats); with non-finite operands
//! (`0.0 · inf = NaN`) they can genuinely differ. The autograd layer
//! debug-asserts finiteness of every node, so this only matters for
//! direct kernel callers feeding inf/NaN. Within each tiled kernel all
//! code paths (MR blocks and remainder rows) share one semantics, so
//! tiled results never depend on the thread count, non-finite or not.
//!
//! [`set_reference_kernels`] flips every product back to the naive loops
//! at runtime; the `train_throughput` benchmark uses it to measure the
//! tiled kernels against the pre-tiling baseline inside one process.
//!
//! ## Packing once
//!
//! `A @ B` and `A @ B^T` pack their right operand into panels on every
//! call, into a thread-local scratch — right for training, where the
//! weights change every step. A right operand that outlives many products
//! (frozen herb embeddings, a frozen SI head) is packed once into an owned
//! [`PackedRhs`] and multiplied with [`Matrix::matmul_packed`], which goes
//! straight to the panel driver: same panels, same micro-kernels, same
//! bits, no per-call pack and no scratch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::matrix::Matrix;
use crate::par;

/// Register-tile height (rows of the left operand per micro-kernel call).
const MR: usize = 4;
/// Register-tile width (output columns per packed panel).
const NR: usize = 8;

static REFERENCE_KERNELS: AtomicBool = AtomicBool::new(false);

/// Routes all dense products through the naive reference loops (`true`)
/// or the register-tiled kernels (`false`, the default).
///
/// The switch exists so benchmarks can compare both inside one process;
/// results are bit-identical either way, only speed changes.
pub fn set_reference_kernels(on: bool) {
    REFERENCE_KERNELS.store(on, Ordering::Relaxed);
}

/// True when [`set_reference_kernels`] forced the naive loops.
pub fn reference_kernels_enabled() -> bool {
    REFERENCE_KERNELS.load(Ordering::Relaxed)
}

thread_local! {
    /// Scratch for packed right-hand-side panels, reused across calls so
    /// steady-state training performs no pack allocations.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out = lhs @ rhs`; `lhs` is `m x k`, `rhs` is `k x n`, `out` is `m x n`
/// and is fully overwritten.
pub(crate) fn matmul_into(lhs: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if reference_kernels_enabled() {
        matmul_reference_into(lhs, m, k, rhs, n, out);
    } else {
        matmul_tiled_into(lhs, m, k, rhs, n, out);
    }
}

/// The tiled `A @ B` path, bypassing the runtime kernel switch (tests
/// compare it against the reference directly, immune to the global flag).
fn matmul_tiled_into(lhs: &[f32], m: usize, k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        pack_rhs(rhs, k, n, &mut pack);
        run_packed(lhs, k, n, &pack, m, out);
    });
}

/// `out = lhs @ rhs^T`; `lhs` is `m x k`, `rhs` is `n x k` (row-major, so
/// its rows are the logical columns), `out` is `m x n`, fully overwritten.
pub(crate) fn matmul_transb_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if reference_kernels_enabled() {
        matmul_transb_reference_into(lhs, m, k, rhs, n, out);
    } else {
        matmul_transb_tiled_into(lhs, m, k, rhs, n, out);
    }
}

/// The tiled `A @ B^T` path, bypassing the runtime kernel switch.
fn matmul_transb_tiled_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        pack_rhs_transposed(rhs, n, k, &mut pack);
        run_packed(lhs, k, n, &pack, m, out);
    });
}

/// `out = lhs^T @ rhs`; `lhs` is `m x k`, `rhs` is `m x n`, `out` is
/// `k x n`, fully overwritten. This is the backward-pass kernel
/// (`dW = X^T dY`) that previously required materialising a transpose.
pub(crate) fn matmul_transa_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    if reference_kernels_enabled() {
        matmul_transa_reference_into(lhs, m, k, rhs, n, out);
    } else {
        matmul_transa_tiled_into(lhs, m, k, rhs, n, out);
    }
}

/// The tiled `A^T @ B` path, bypassing the runtime kernel switch.
fn matmul_transa_tiled_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if k == 0 || n == 0 {
        return;
    }
    if m == 0 {
        out.fill(0.0);
        return;
    }
    par::for_each_row_chunk(out, n, k, |i0, chunk| {
        transa_chunk(lhs, k, rhs, n, i0, chunk);
    });
}

/// Packs `rhs` (`k x n` row-major) into `ceil(n / NR)` column panels, each
/// `k x NR` with `t`-major layout, zero-padded on the right edge.
fn pack_rhs(rhs: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    grow_scratch(packed, panels * k * NR);
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        for t in 0..k {
            dst[t * NR..t * NR + w].copy_from_slice(&rhs[t * n + j0..t * n + j0 + w]);
            // Only the right-edge panel has padding lanes; zero exactly
            // those rather than memsetting the whole scratch per call.
            dst[t * NR + w..(t + 1) * NR].fill(0.0);
        }
    }
}

/// Packs `rhs` (`n x k` row-major, logically transposed) into the same
/// panel layout as [`pack_rhs`]: `panel[t * NR + jj] = rhs[(j0 + jj) * k + t]`.
fn pack_rhs_transposed(rhs: &[f32], n: usize, k: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    grow_scratch(packed, panels * k * NR);
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        for jj in 0..w {
            let src = &rhs[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (t, &v) in src.iter().enumerate() {
                dst[t * NR + jj] = v;
            }
        }
        if w < NR {
            for t in 0..k {
                dst[t * NR + w..(t + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Grows the pack scratch to at least `len` elements without touching the
/// prefix the packers are about to overwrite anyway.
fn grow_scratch(packed: &mut Vec<f32>, len: usize) {
    if packed.len() < len {
        packed.resize(len, 0.0);
    }
}

/// A right-hand side held in the kernels' panel layout, packed once and
/// multiplied many times ([`Matrix::matmul_packed`]).
///
/// Built by [`Matrix::pack_rhs`] from the `k x n` operand of `A @ B`, or
/// by [`Matrix::pack_transposed`] from the `n x k` operand of `A @ B^T`;
/// both give the same `ceil(n / 8)` zero-padded `k x 8` panels the
/// per-call paths build in scratch, so a product against it is
/// bit-for-bit `matmul` / `matmul_transb` (and their `*_reference`
/// kernels, under the module's determinism contract). It is immutable
/// and `Sync`: any number of threads may multiply against one value.
///
/// [`set_reference_kernels`] does **not** apply: there is no row-major
/// operand left for the naive loops to walk. [`unpack`](Self::unpack) /
/// [`unpack_transposed`](Self::unpack_transposed) recover the original
/// matrix exactly.
#[derive(Clone)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl std::fmt::Debug for PackedRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedRhs({}x{})", self.k, self.n)
    }
}

impl PackedRhs {
    /// Packs the `k x n` right operand of `A @ B`.
    pub(crate) fn pack(rhs: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(rhs.len(), k * n);
        let mut panels = Vec::new();
        pack_rhs(rhs, k, n, &mut panels);
        Self { k, n, panels }
    }

    /// Packs the `n x k` right operand of `A @ B^T`.
    pub(crate) fn pack_transposed(rhs: &[f32], n: usize, k: usize) -> Self {
        debug_assert_eq!(rhs.len(), n * k);
        let mut panels = Vec::new();
        pack_rhs_transposed(rhs, n, k, &mut panels);
        Self { k, n, panels }
    }

    /// Reduction length `k`: the column count a left operand must have.
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output width `n`: the column count of every product.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The operand as the `k x n` matrix [`Matrix::pack_rhs`] was given
    /// (the transpose of what [`Matrix::pack_transposed`] was given).
    pub fn unpack(&self) -> Matrix {
        let (k, n) = (self.k, self.n);
        let mut out = Matrix::zeros(k, n);
        let data = out.as_mut_slice();
        for (p, panel) in self.panels.chunks_exact((k * NR).max(1)).enumerate() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for (t, lanes) in panel.chunks_exact(NR).enumerate() {
                data[t * n + j0..t * n + j0 + w].copy_from_slice(&lanes[..w]);
            }
        }
        out
    }

    /// The operand as the `n x k` matrix [`Matrix::pack_transposed`] was
    /// given.
    pub fn unpack_transposed(&self) -> Matrix {
        self.unpack().transpose()
    }

    /// `out = lhs @ self`; `lhs` is `m x k`, `out` is `m x n`, fully
    /// overwritten.
    pub(crate) fn matmul_into(&self, lhs: &[f32], m: usize, out: &mut [f32]) {
        debug_assert_eq!(lhs.len(), m * self.k);
        debug_assert_eq!(out.len(), m * self.n);
        if m == 0 || self.n == 0 {
            return;
        }
        run_packed(lhs, self.k, self.n, &self.panels, m, out);
    }
}

/// Shared driver for the packed-panel kernels: splits output rows across
/// threads, then walks MR-row blocks against every panel.
fn run_packed(lhs: &[f32], k: usize, n: usize, packed: &[f32], m: usize, out: &mut [f32]) {
    par::for_each_row_chunk(out, n, m, |r0, chunk| {
        let rows = chunk.len() / n;
        let mut i = 0;
        while i + MR <= rows {
            let base = (r0 + i) * k;
            let l = [
                &lhs[base..base + k],
                &lhs[base + k..base + 2 * k],
                &lhs[base + 2 * k..base + 3 * k],
                &lhs[base + 3 * k..base + 4 * k],
            ];
            for (p, j0) in (0..n).step_by(NR).enumerate() {
                let panel = &packed[p * k * NR..(p + 1) * k * NR];
                let acc = kernel_mr(l, panel);
                let w = NR.min(n - j0);
                for (ii, acc_row) in acc.iter().enumerate() {
                    let at = (i + ii) * n + j0;
                    chunk[at..at + w].copy_from_slice(&acc_row[..w]);
                }
            }
            i += MR;
        }
        while i < rows {
            let base = (r0 + i) * k;
            let lrow = &lhs[base..base + k];
            for (p, j0) in (0..n).step_by(NR).enumerate() {
                let panel = &packed[p * k * NR..(p + 1) * k * NR];
                let acc = kernel_1(lrow, panel);
                let w = NR.min(n - j0);
                chunk[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
            }
            i += 1;
        }
    });
}

/// The MR x NR micro-kernel: MR lhs row streams against one packed panel.
/// Every accumulator walks `t` (the reduction index) in increasing order.
#[inline]
fn kernel_mr(l: [&[f32]; MR], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let iter = l[0]
        .iter()
        .zip(l[1])
        .zip(l[2])
        .zip(l[3])
        .zip(panel.chunks_exact(NR));
    for ((((&a0, &a1), &a2), &a3), bp) in iter {
        for (o, &b) in acc[0].iter_mut().zip(bp) {
            *o += a0 * b;
        }
        for (o, &b) in acc[1].iter_mut().zip(bp) {
            *o += a1 * b;
        }
        for (o, &b) in acc[2].iter_mut().zip(bp) {
            *o += a2 * b;
        }
        for (o, &b) in acc[3].iter_mut().zip(bp) {
            *o += a3 * b;
        }
    }
    acc
}

/// Single-row edge kernel (for `m % MR` remainder rows).
#[inline]
fn kernel_1(l: &[f32], panel: &[f32]) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for (&a, bp) in l.iter().zip(panel.chunks_exact(NR)) {
        for (o, &b) in acc.iter_mut().zip(bp) {
            *o += a * b;
        }
    }
    acc
}

/// One thread's share of `lhs^T @ rhs`: output rows `i0..i0 + rows(chunk)`.
/// The reduction walks source rows `r` in increasing order; per `r` the MR
/// lhs values (`lhs[r][ic..ic+MR]`) and NR rhs values (`rhs[r][j0..j0+NR]`)
/// are contiguous loads, so no packing is needed.
fn transa_chunk(lhs: &[f32], k: usize, rhs: &[f32], n: usize, i0: usize, chunk: &mut [f32]) {
    let cols = chunk.len() / n;
    let mut i = 0;
    while i + MR <= cols {
        let ic = i0 + i;
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for (a_row, g_row) in lhs.chunks_exact(k).zip(rhs.chunks_exact(n)) {
                let a = &a_row[ic..ic + MR];
                let g = &g_row[j0..j0 + NR];
                for (acc_row, &av) in acc.iter_mut().zip(a) {
                    for (o, &gv) in acc_row.iter_mut().zip(g) {
                        *o += av * gv;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                let at = (i + ii) * n + j0;
                chunk[at..at + NR].copy_from_slice(acc_row);
            }
            j0 += NR;
        }
        if j0 < n {
            let w = n - j0;
            let mut acc = [[0.0f32; NR]; MR];
            for (a_row, g_row) in lhs.chunks_exact(k).zip(rhs.chunks_exact(n)) {
                let a = &a_row[ic..ic + MR];
                let g = &g_row[j0..];
                for (acc_row, &av) in acc.iter_mut().zip(a) {
                    for (o, &gv) in acc_row.iter_mut().zip(g) {
                        *o += av * gv;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                let at = (i + ii) * n + j0;
                chunk[at..at + w].copy_from_slice(&acc_row[..w]);
            }
        }
        i += MR;
    }
    while i < cols {
        let ic = i0 + i;
        let out_row = &mut chunk[i * n..(i + 1) * n];
        out_row.fill(0.0);
        // No zero-skip here: which rows take this remainder path depends
        // on the per-thread chunk split, so it must share the MR block's
        // exact semantics (accumulate every term) to keep results
        // independent of the thread count even for non-finite inputs.
        for (a_row, g_row) in lhs.chunks_exact(k).zip(rhs.chunks_exact(n)) {
            let a = a_row[ic];
            for (o, &gv) in out_row.iter_mut().zip(g_row) {
                *o += a * gv;
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Reference kernels: the pre-tiling loops, byte-for-byte the same results.
// Kept callable for property tests and as the benchmark baseline.
// ---------------------------------------------------------------------------

/// Naive i-k-j product (the pre-tiling `Matrix::matmul` loop).
pub(crate) fn matmul_reference_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    par::for_each_row_chunk(out, n, m, |r0, chunk| {
        for (local_r, out_row) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
            out_row.fill(0.0);
            let r = r0 + local_r;
            let lhs_row = &lhs[r * k..(r + 1) * k];
            for (t, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs[t * n..(t + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    });
}

/// Naive row-dot-row product (the pre-tiling `Matrix::matmul_transb` loop).
pub(crate) fn matmul_transb_reference_into(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    par::for_each_row_chunk(out, n, m, |r0, chunk| {
        for (local_r, out_row) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
            let r = r0 + local_r;
            let lhs_row = &lhs[r * k..(r + 1) * k];
            for (c, o) in out_row.iter_mut().enumerate() {
                let rhs_row = &rhs[c * k..(c + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in lhs_row.iter().zip(rhs_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    });
}

/// Naive `lhs^T @ rhs` (equivalent to `lhs.transpose().matmul(rhs)`, the
/// pre-PR backward path, without materialising the transpose).
pub(crate) fn matmul_transa_reference_into(
    lhs: &[f32],
    _m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    par::for_each_row_chunk(out, n, k, |i0, chunk| {
        chunk.fill(0.0);
        let cols = chunk.len() / n.max(1);
        for (a_row, g_row) in lhs.chunks_exact(k.max(1)).zip(rhs.chunks_exact(n.max(1))) {
            for (i, out_row) in chunk.chunks_exact_mut(n.max(1)).enumerate().take(cols) {
                let a = a_row[i0 + i];
                if a == 0.0 {
                    continue;
                }
                for (o, &gv) in out_row.iter_mut().zip(g_row) {
                    *o += a * gv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..rows * cols).map(f).collect()
    }

    fn pseudo(i: usize) -> f32 {
        ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0
    }

    #[test]
    fn tiled_matmul_matches_reference_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 7, 9),
            (13, 1, 17),
            (1, 32, 1),
            (33, 19, 41),
        ] {
            let a = mat(m, k, pseudo);
            let b = mat(k, n, |i| pseudo(i + 7));
            let mut tiled = vec![f32::NAN; m * n];
            let mut naive = vec![f32::NAN; m * n];
            // Tiled path invoked directly so a concurrently-running
            // `reference_switch_round_trips` cannot make this vacuous.
            matmul_tiled_into(&a, m, k, &b, n, &mut tiled);
            matmul_reference_into(&a, m, k, &b, n, &mut naive);
            assert!(
                tiled
                    .iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "mismatch at ({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn tiled_transb_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 3, 1), (4, 8, 8), (6, 5, 11), (17, 64, 3)] {
            let a = mat(m, k, pseudo);
            let b = mat(n, k, |i| pseudo(i + 3));
            let mut tiled = vec![f32::NAN; m * n];
            let mut naive = vec![f32::NAN; m * n];
            matmul_transb_tiled_into(&a, m, k, &b, n, &mut tiled);
            matmul_transb_reference_into(&a, m, k, &b, n, &mut naive);
            assert!(
                tiled
                    .iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "mismatch at ({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn tiled_transa_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (8, 4, 8), (9, 6, 10), (3, 21, 33)] {
            let a = mat(m, k, pseudo);
            let g = mat(m, n, |i| pseudo(i + 11));
            let mut tiled = vec![f32::NAN; k * n];
            let mut naive = vec![f32::NAN; k * n];
            matmul_transa_tiled_into(&a, m, k, &g, n, &mut tiled);
            matmul_transa_reference_into(&a, m, k, &g, n, &mut naive);
            assert!(
                tiled
                    .iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "mismatch at ({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn reference_switch_round_trips() {
        assert!(!reference_kernels_enabled());
        set_reference_kernels(true);
        assert!(reference_kernels_enabled());
        set_reference_kernels(false);
        assert!(!reference_kernels_enabled());
    }
}
