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
//! The naive loops are the oracle, not a mode: each product is one
//! function with no run-time dispatch, and the reference kernels are
//! reachable only by name (`Matrix::*_reference`), for the tests that
//! compare against them.
//!
//! ## Packing once: the serving kernels
//!
//! `A @ B` and `A @ B^T` pack their right operand into panels on every
//! call, into a thread-local scratch — right for training, where the
//! weights change every step, and everything above is about them.
//!
//! A right operand that outlives many products (frozen herb embeddings, a
//! frozen SI head) is packed once into an owned [`PackedRhs`] and is
//! **not** bound by training's bit-identity pin, so it gets its own
//! kernels and its own, weaker-across-hosts contract (spelled out on
//! [`PackedRhs`]): one accumulator per output walking `t` ascending,
//! *fused* multiply-add where the CPU has one. Three [`Tier`]s, picked
//! once from `is_x86_feature_detected!`: explicit `std::arch` AVX-512F
//! tiles (8 rows x two 16-wide panels, 16 `zmm` accumulators), explicit
//! AVX2 + FMA tiles (8 x 8, 8 `ymm` accumulators), and the scalar
//! kernels above as the fallback and the reference. The two SIMD tiers
//! agree bit for bit with each other and with a naive `f32::mul_add`
//! loop; the scalar tier agrees bit for bit with `matmul`.
//!
//! Every packed product runs through one driver,
//! [`PackedRhs::for_each_tile`]: column blocks of panels (a constant
//! ≈ 128 KiB of packed operand, so a block stays in L2 while every row
//! block walks it) outer, row blocks inner, each `rows x width` tile
//! handed to a visitor straight from the micro-kernel's stores. The
//! serving layer selects its top-k from the tile while it is in L1 and
//! never writes the score matrix; [`Matrix::matmul_packed`] is the
//! visitor that copies tiles into an output. All `unsafe` of this crate's
//! kernels lives in the private `simd` module, behind one safe function
//! that checks the CPU feature and every length the pointers rely on.

use std::cell::RefCell;

use crate::matrix::Matrix;
use crate::par;

/// Register-tile height (rows of the left operand per micro-kernel call).
const MR: usize = 4;
/// Register-tile width (output columns per packed panel).
const NR: usize = 8;
/// Tile height of the explicit SIMD kernels behind [`PackedRhs`].
const SIMD_ROWS: usize = 8;
/// Narrowest operand dispatch packs for a SIMD tier: the width of the
/// AVX-512 main tile (two 16-wide panels). See [`Tier::for_cols`].
const SIMD_MIN_COLS: usize = 32;

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
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        grow_scratch(&mut pack, packed_len(k, n, NR));
        pack_rhs::<NR>(rhs, k, n, &mut pack);
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
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        grow_scratch(&mut pack, packed_len(k, n, NR));
        pack_rhs_transposed::<NR>(rhs, n, k, &mut pack);
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

/// Packs `rhs` (`k x n` row-major) into `ceil(n / W)` column panels, each
/// `k x W` with `t`-major layout, zero-padded on the right edge. Training
/// packs at `W = NR`; a [`PackedRhs`] packs at its tier's panel width.
fn pack_rhs<const W: usize>(rhs: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    let panels = n.div_ceil(W);
    for p in 0..panels {
        let j0 = p * W;
        let w = W.min(n - j0);
        let dst = &mut packed[p * k * W..(p + 1) * k * W];
        for t in 0..k {
            dst[t * W..t * W + w].copy_from_slice(&rhs[t * n + j0..t * n + j0 + w]);
            // Only the right-edge panel has padding lanes; zero exactly
            // those rather than memsetting the whole scratch per call.
            dst[t * W + w..(t + 1) * W].fill(0.0);
        }
    }
}

/// Packs `rhs` (`n x k` row-major, logically transposed) into the same
/// panel layout as [`pack_rhs`]: `panel[t * W + jj] = rhs[(j0 + jj) * k + t]`.
fn pack_rhs_transposed<const W: usize>(rhs: &[f32], n: usize, k: usize, packed: &mut [f32]) {
    let panels = n.div_ceil(W);
    for p in 0..panels {
        let j0 = p * W;
        let w = W.min(n - j0);
        let dst = &mut packed[p * k * W..(p + 1) * k * W];
        for jj in 0..w {
            let src = &rhs[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (t, &v) in src.iter().enumerate() {
                dst[t * W + jj] = v;
            }
        }
        if w < W {
            for t in 0..k {
                dst[t * W + w..(t + 1) * W].fill(0.0);
            }
        }
    }
}

/// Floats in the `ceil(n / w)` zero-padded `k x w` panels of a `k x n`
/// operand.
fn packed_len(k: usize, n: usize, w: usize) -> usize {
    n.div_ceil(w) * k * w
}

/// Grows the pack scratch to at least `len` elements without touching the
/// prefix the packers are about to overwrite anyway.
fn grow_scratch(packed: &mut Vec<f32>, len: usize) {
    if packed.len() < len {
        packed.resize(len, 0.0);
    }
}

/// The micro-kernel family a [`PackedRhs`] is packed for and multiplied
/// by. Not an option: [`Tier::detect`] reads it off the CPU and the
/// `pack_*` constructors use that ([`Tier::for_cols`]). The explicit-tier constructors
/// ([`PackedRhs::from_rhs`], [`PackedRhs::from_transposed`]) exist so
/// tests and benches can hold every tier a host supports to the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The autovectorised 4 x 8 `mul` + `add` kernels training uses:
    /// the reference, and the only tier off x86-64.
    Scalar,
    /// Explicit FMA tiles of 8 `ymm` accumulators: 8 rows x one 8-wide
    /// panel (AVX2 + FMA).
    Avx2,
    /// Explicit FMA tiles of 16 `zmm` accumulators: 8 rows x two 16-wide
    /// panels (AVX-512F).
    Avx512,
}

impl Tier {
    /// The fastest tier this CPU supports.
    pub fn detect() -> Tier {
        *Tier::available().last().expect("scalar is always there")
    }

    /// The tier [`Matrix::pack_rhs`] / [`Matrix::pack_transposed`] pick
    /// for an operand `cols` columns wide: [`Tier::detect`], except that
    /// an operand narrower than one main tile of the widest tier
    /// ([`SIMD_MIN_COLS`]) stays on the scalar kernels. Nothing that
    /// narrow is a real vocabulary — it is the toy models of tests and of
    /// the protocol goldens, which print scores to the last digit: on the
    /// reference kernels those digits are the same on every host, and
    /// there is no speed to lose on a few columns of mostly padding.
    pub fn for_cols(cols: usize) -> Tier {
        if cols < SIMD_MIN_COLS {
            Tier::Scalar
        } else {
            Tier::detect()
        }
    }

    /// Every tier this CPU supports, slowest first (`Scalar` always).
    pub fn available() -> Vec<Tier> {
        [Tier::Scalar, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|t| t.supported())
            .collect()
    }

    /// Whether this CPU can run the tier's kernels.
    fn supported(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Output columns per packed panel: one vector register of lanes.
    fn panel_width(self) -> usize {
        match self {
            Tier::Scalar | Tier::Avx2 => NR,
            Tier::Avx512 => 16,
        }
    }

    /// Left-operand rows per micro-kernel call (the tile height).
    fn tile_rows(self) -> usize {
        match self {
            Tier::Scalar => MR,
            Tier::Avx2 | Tier::Avx512 => SIMD_ROWS,
        }
    }
}

/// Packed-operand bytes per column block of the tile driver: a block of
/// panels this size plus the tile it produces stay in L2 while every row
/// block of the left operand walks them, so the panels stream from
/// memory once per product, not once per row block.
const BLOCK_BYTES: usize = 128 * 1024;
/// Most columns a tile may have, whatever `k` is: bounds the tile at
/// `8 x 512` f32 = 16 KiB, inside L1 beside the left operand's rows.
const BLOCK_COLS_MAX: usize = 512;

/// A right-hand side held in the kernels' panel layout, packed once and
/// multiplied many times ([`Matrix::matmul_packed`],
/// [`PackedRhs::for_each_tile`]).
///
/// Built by [`Matrix::pack_rhs`] from the `k x n` operand of `A @ B`, or
/// by [`Matrix::pack_transposed`] from the `n x k` operand of `A @ B^T`,
/// as zero-padded `k x W` column panels, `W` the [`Tier`]'s vector width.
/// It is immutable and `Sync`: any number of threads may multiply
/// against one value, and no product touches the per-thread pack scratch.
///
/// ## Contract
///
/// Every output element is **one accumulator walking `t` ascending from
/// `0.0`**, whatever the tile shape, column block or thread count. On
/// the SIMD tiers each step is a fused multiply-add (one rounding), so
/// AVX2 and AVX-512 agree bit for bit with each other and with a scalar
/// `f32::mul_add` loop; on [`Tier::Scalar`] each step is a `mul` then an
/// `add` (two roundings), bit for bit `matmul` / `matmul_transb`. The
/// two differ by at most the rounding of `k` steps — serving is exact
/// per packed value, not across hosts of different tiers.
///
/// [`unpack`](Self::unpack) /
/// [`unpack_transposed`](Self::unpack_transposed) recover the original
/// matrix exactly on every tier.
#[derive(Clone)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    tier: Tier,
    panels: Panels,
}

/// Panel storage that starts on a cache-line boundary, so a 64-byte
/// vector load of a panel row never straddles two lines (a one-query
/// product streams the whole operand through L2 and is bound by exactly
/// those loads: 10.3 -> 6.7 us at the paper shape). Only speed depends
/// on it; the kernels use unaligned loads.
struct Panels {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl Panels {
    /// Floats to a cache line.
    const LINE: usize = 16;

    /// `len` floats, filled in place by `pack`.
    fn packed_by(len: usize, pack: impl FnOnce(&mut [f32])) -> Self {
        let mut buf = vec![0.0f32; len + Self::LINE - 1];
        let start = match buf.as_ptr().align_offset(Self::LINE * 4) {
            offset if offset < Self::LINE => offset,
            _ => 0,
        };
        pack(&mut buf[start..start + len]);
        Self { buf, start, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl Clone for Panels {
    /// A copy is aligned afresh: its buffer lands somewhere else.
    fn clone(&self) -> Self {
        Self::packed_by(self.len, |dst| dst.copy_from_slice(self.as_slice()))
    }
}

impl std::fmt::Debug for PackedRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedRhs({}x{}, {:?})", self.k, self.n, self.tier)
    }
}

/// One `rows x width` block of a product, handed to the visitor of
/// [`PackedRhs::for_each_tile`] straight from the micro-kernel, while it
/// is still in L1.
pub struct Tile<'a> {
    /// Column of the product of every tile row's element 0.
    pub col0: usize,
    width: usize,
    stride: usize,
    data: &'a [f32],
}

impl Tile<'_> {
    /// Rows in the tile (at most the tier's tile height).
    pub fn rows(&self) -> usize {
        self.data.len() / self.stride
    }

    /// Columns in the tile.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r` of the tile: columns `col0 .. col0 + width` of the
    /// product row whose state is the visitor's `r`-th.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.stride..r * self.stride + self.width]
    }
}

impl PackedRhs {
    /// Packs the `k x n` right operand of `A @ B` for `tier`.
    ///
    /// # Panics
    /// Panics if this CPU does not support `tier`.
    pub fn from_rhs(rhs: &Matrix, tier: Tier) -> Self {
        let (k, n) = rhs.shape();
        Self::packed_by(tier, k, n, |w, dst| match w {
            16 => pack_rhs::<16>(rhs.as_slice(), k, n, dst),
            _ => pack_rhs::<NR>(rhs.as_slice(), k, n, dst),
        })
    }

    /// Packs the `n x k` right operand of `A @ B^T` for `tier`.
    ///
    /// # Panics
    /// Panics if this CPU does not support `tier`.
    pub fn from_transposed(rhs: &Matrix, tier: Tier) -> Self {
        let (n, k) = rhs.shape();
        Self::packed_by(tier, k, n, |w, dst| match w {
            16 => pack_rhs_transposed::<16>(rhs.as_slice(), n, k, dst),
            _ => pack_rhs_transposed::<NR>(rhs.as_slice(), n, k, dst),
        })
    }

    /// A `k x n` operand whose panels `pack(panel_width, panels)` fills.
    /// The one place a tier is attached to panels, so the one place that
    /// checks the CPU can run it.
    fn packed_by(tier: Tier, k: usize, n: usize, pack: impl FnOnce(usize, &mut [f32])) -> Self {
        assert!(
            tier.supported(),
            "PackedRhs: {tier:?} is not supported here"
        );
        let w = tier.panel_width();
        let panels = Panels::packed_by(packed_len(k, n, w), |dst| pack(w, dst));
        Self { k, n, tier, panels }
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
        let (k, n, w) = (self.k, self.n, self.tier.panel_width());
        let mut out = Matrix::zeros(k, n);
        let data = out.as_mut_slice();
        for (p, panel) in self
            .panels
            .as_slice()
            .chunks_exact((k * w).max(1))
            .enumerate()
        {
            let j0 = p * w;
            let cols = w.min(n - j0);
            for (t, lanes) in panel.chunks_exact(w).enumerate() {
                data[t * n + j0..t * n + j0 + cols].copy_from_slice(&lanes[..cols]);
            }
        }
        out
    }

    /// The operand as the `n x k` matrix [`Matrix::pack_transposed`] was
    /// given.
    pub fn unpack_transposed(&self) -> Matrix {
        self.unpack().transpose()
    }

    /// Computes `lhs @ self` tile by tile and hands each tile to `visit`
    /// the moment the micro-kernel has stored it, instead of writing an
    /// `m x n` product: the one driver behind every packed product.
    ///
    /// `state` is the visitor's per-row storage, `state.len() / m`
    /// elements for each row of `lhs`; `visit(rows_state, tile)` gets the
    /// elements of exactly the tile's rows. Rows are split across threads
    /// as in every other kernel of this crate (by output size, disjoint
    /// row ranges), each thread walks column blocks outer and row blocks
    /// inner, so per product row the tiles arrive **in ascending column
    /// order** and cover every column exactly once. Returns the number of
    /// threads the rows were split over (a visitor that times itself on
    /// each needs it to turn summed time into wall time).
    ///
    /// # Panics
    /// Panics if `lhs.cols() != self.rows()` or `state.len()` is not a
    /// multiple of `lhs.rows()`.
    pub fn for_each_tile<S, F>(&self, lhs: &Matrix, state: &mut [S], visit: F) -> usize
    where
        S: Send,
        F: Fn(&mut [S], &Tile<'_>) + Sync,
    {
        let (m, k, n) = (lhs.rows(), self.k, self.n);
        assert_eq!(
            lhs.cols(),
            k,
            "PackedRhs::for_each_tile: inner dimensions differ ({}x{} @ packed {k}x{n})",
            m,
            lhs.cols(),
        );
        if m == 0 {
            return 1;
        }
        assert_eq!(
            state.len() % m,
            0,
            "PackedRhs::for_each_tile: {} state elements do not split over {m} rows",
            state.len()
        );
        let per_row = state.len() / m;
        if n == 0 || per_row == 0 {
            return 1;
        }
        let (lhs, packed) = (lhs.as_slice(), self.panels.as_slice());
        let (w, tile_rows) = (self.tier.panel_width(), self.tier.tile_rows());
        let block_cols = (BLOCK_BYTES / (4 * k.max(1))).min(BLOCK_COLS_MAX) / w;
        let block_cols = block_cols.max(1) * w;
        par::for_each_row_chunk_of(state, per_row, m, m * n, |r0, state| {
            let rows = state.len() / per_row;
            let mut tile = vec![0.0f32; rows.min(tile_rows) * block_cols];
            for col0 in (0..n).step_by(block_cols) {
                let width = block_cols.min(n - col0);
                let n_panels = width.div_ceil(w);
                let stride = n_panels * w;
                let panels = &packed[col0 * k..(col0 + stride) * k];
                for i in (0..rows).step_by(tile_rows) {
                    let h = tile_rows.min(rows - i);
                    let a = &lhs[(r0 + i) * k..(r0 + i + h) * k];
                    let data = &mut tile[..h * stride];
                    match self.tier {
                        Tier::Scalar => scalar_rows(a, h, k, panels, data),
                        #[cfg(target_arch = "x86_64")]
                        tier => simd::rows(tier, a, h, k, panels, data),
                        #[cfg(not(target_arch = "x86_64"))]
                        tier => unreachable!("{tier:?} is never supported, so never packed"),
                    }
                    let tile = Tile {
                        col0,
                        width,
                        stride,
                        data,
                    };
                    visit(&mut state[i * per_row..(i + h) * per_row], &tile);
                }
            }
        })
    }

    /// `out = lhs @ self`, fully overwritten: the visitor that copies
    /// every tile to its place.
    pub(crate) fn matmul_into(&self, lhs: &Matrix, out: &mut [f32]) {
        let n = self.n;
        self.for_each_tile(lhs, out, |out_rows, tile| {
            for (r, out_row) in out_rows.chunks_exact_mut(n).enumerate() {
                out_row[tile.col0..tile.col0 + tile.width()].copy_from_slice(tile.row(r));
            }
        });
    }
}

/// The [`Tier::Scalar`] row block: `h <= MR` rows of `a` against every
/// panel of one column block, into `out` (`h` rows of `panels x NR`).
/// Same micro-kernels, so the same bits, as [`run_packed`]. (`k == 0`
/// has no panels to walk and writes nothing: the driver's tile starts
/// zeroed, which is the product.)
fn scalar_rows(a: &[f32], h: usize, k: usize, panels: &[f32], out: &mut [f32]) {
    let stride = out.len() / h;
    let panels = panels.chunks_exact((k * NR).max(1)).take(stride / NR);
    if h == MR {
        let l = [&a[..k], &a[k..2 * k], &a[2 * k..3 * k], &a[3 * k..]];
        for (p, panel) in panels.enumerate() {
            let acc = kernel_mr(l, panel);
            for (ii, acc_row) in acc.iter().enumerate() {
                out[ii * stride + p * NR..][..NR].copy_from_slice(acc_row);
            }
        }
    } else {
        for (p, panel) in panels.enumerate() {
            for (ii, lrow) in a.chunks_exact(k.max(1)).enumerate() {
                out[ii * stride + p * NR..][..NR].copy_from_slice(&kernel_1(lrow, panel));
            }
        }
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

/// The explicit FMA micro-kernels, and all of this module's `unsafe`.
///
/// [`rows`] is the only way in. It checks, in safe code, everything the
/// kernels rely on — the CPU feature, and the three slice lengths that
/// bound every pointer offset they form — so no caller can reach the
/// `unsafe` with arguments that make it unsound.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Tier, SIMD_ROWS};

    /// Computes `h` rows of `a` (`h x k`) against `out.len() / h / W`
    /// consecutive panels (`k x W` each, `W` the tier's vector width)
    /// into `out` (`h` rows, one `W`-wide group per panel).
    ///
    /// # Panics
    /// Panics if `tier` is scalar or unsupported by this CPU, `h` is not
    /// in `1..=SIMD_ROWS`, or the slice lengths disagree with `h` and `k`.
    pub(super) fn rows(tier: Tier, a: &[f32], h: usize, k: usize, panels: &[f32], out: &mut [f32]) {
        let w = tier.panel_width();
        assert!((1..=SIMD_ROWS).contains(&h), "tile height {h}");
        assert_eq!(a.len(), h * k, "left rows");
        assert_eq!(out.len() % (h * w), 0, "tile is whole panels wide");
        let n_panels = out.len() / (h * w);
        assert_eq!(panels.len(), n_panels * k * w, "panel block");
        assert!(tier.supported(), "{tier:?} kernels on a CPU without them");
        let (a, panels, out) = (a.as_ptr(), panels.as_ptr(), out.as_mut_ptr());
        match tier {
            // SAFETY: `tier.supported()` was just asserted, so the CPU has
            // AVX-512F; `a` is `h * k` floats, `panels` is `n_panels`
            // panels of `k * 16`, `out` is `h` rows of `n_panels * 16`
            // (all asserted above), which is what `rows` requires.
            Tier::Avx512 => unsafe { avx512::rows(a, h, k, panels, n_panels, out) },
            // SAFETY: as above, for AVX2 + FMA and 8-wide panels.
            Tier::Avx2 => unsafe { avx2::rows(a, h, k, panels, n_panels, out) },
            Tier::Scalar => panic!("the scalar tier has no SIMD kernel"),
        }
    }

    /// One kernel source for both vector widths. `tile::<R, P>` keeps an
    /// `R x P` grid of accumulator registers (`R` rows of `a`, `P`
    /// consecutive panels) across the whole reduction: each accumulator
    /// is one `fma` chain over `t` ascending from zero — the contract —
    /// and the grid gives the FMA units `R * P` independent chains.
    /// `$x` scales `P` to the register file: 1 for the 16 `ymm` registers
    /// (8 x 1 main tile), 2 for the 32 `zmm` ones (8 x 2: measured 157
    /// against 113 GFLOP/s for 8 x 1 on one core of the build host).
    macro_rules! fma_tier {
        ($tier:ident, $features:literal, $lanes:literal, $x:literal, $zero:ident,
         $set1:ident, $load:ident, $store:ident, $fma:ident) => {
            mod $tier {
                use std::arch::x86_64::*;

                const LANES: usize = $lanes;

                /// `R` rows of `a` against `P` consecutive panels at `b`,
                /// stored at `out` (row stride `stride`).
                ///
                /// # Safety
                /// The CPU must support the enabled features; `a` must be
                /// valid for reads of `R * k` floats, `b` of
                /// `P * k * LANES`, and `out` for writes of `P * LANES`
                /// floats at each of `R` row offsets `r * stride`.
                #[inline]
                #[target_feature(enable = $features)]
                unsafe fn tile<const R: usize, const P: usize>(
                    a: *const f32,
                    k: usize,
                    b: *const f32,
                    out: *mut f32,
                    stride: usize,
                ) {
                    let mut acc = [[$zero(); P]; R];
                    for t in 0..k {
                        let mut bv = [$zero(); P];
                        for (p, bv) in bv.iter_mut().enumerate() {
                            // SAFETY: `p < P` and `t < k`, so the `LANES`
                            // floats read end inside `P * k * LANES`.
                            *bv = unsafe { $load(b.add((p * k + t) * LANES)) };
                        }
                        for (r, acc_row) in acc.iter_mut().enumerate() {
                            // SAFETY: `r < R` and `t < k`: inside `R * k`.
                            let av = $set1(unsafe { *a.add(r * k + t) });
                            for (acc, &bv) in acc_row.iter_mut().zip(&bv) {
                                *acc = $fma(av, bv, *acc);
                            }
                        }
                    }
                    for (r, acc_row) in acc.iter().enumerate() {
                        for (p, &acc) in acc_row.iter().enumerate() {
                            // SAFETY: `r < R`, `p < P`: one of the
                            // `P * LANES` floats of row `r` the caller
                            // vouched for.
                            unsafe { $store(out.add(r * stride + p * LANES), acc) };
                        }
                    }
                }

                /// `R` rows against all `n_panels` panels, `P` at a time
                /// and the last few one by one.
                ///
                /// # Safety
                /// As [`rows`], with `h = R`.
                #[inline]
                #[target_feature(enable = $features)]
                unsafe fn span<const R: usize, const P: usize>(
                    a: *const f32,
                    k: usize,
                    panels: *const f32,
                    n_panels: usize,
                    out: *mut f32,
                ) {
                    let stride = n_panels * LANES;
                    let mut p = 0;
                    while p + P <= n_panels {
                        // SAFETY: panels `p .. p + P` exist, and so do
                        // their `P * LANES` columns of each output row.
                        unsafe {
                            tile::<R, P>(
                                a,
                                k,
                                panels.add(p * k * LANES),
                                out.add(p * LANES),
                                stride,
                            )
                        };
                        p += P;
                    }
                    while p < n_panels {
                        // SAFETY: panel `p` exists, with its output columns.
                        unsafe {
                            tile::<R, 1>(
                                a,
                                k,
                                panels.add(p * k * LANES),
                                out.add(p * LANES),
                                stride,
                            )
                        };
                        p += 1;
                    }
                }

                /// `h` rows of `a` against `n_panels` panels into `out`.
                /// Short row blocks trade rows for panels so that a
                /// 1- or 2-row product (one query, the paper-shape
                /// serving case) still runs four or more chains.
                ///
                /// # Safety
                /// The CPU must support the enabled features, `h` must be
                /// in `1..=8`, and `a` must be valid for reads of `h * k`
                /// floats, `panels` of `n_panels * k * LANES`, `out` for
                /// writes of `h * n_panels * LANES`.
                #[target_feature(enable = $features)]
                pub(super) unsafe fn rows(
                    a: *const f32,
                    h: usize,
                    k: usize,
                    panels: *const f32,
                    n_panels: usize,
                    out: *mut f32,
                ) {
                    // SAFETY: each arm passes the caller's guarantees on
                    // with `R = h`.
                    unsafe {
                        match h {
                            8 => span::<8, { 1 * $x }>(a, k, panels, n_panels, out),
                            7 => span::<7, { 1 * $x }>(a, k, panels, n_panels, out),
                            6 => span::<6, { 1 * $x }>(a, k, panels, n_panels, out),
                            5 => span::<5, { 1 * $x }>(a, k, panels, n_panels, out),
                            4 => span::<4, { 2 * $x }>(a, k, panels, n_panels, out),
                            3 => span::<3, { 2 * $x }>(a, k, panels, n_panels, out),
                            2 => span::<2, { 4 * $x }>(a, k, panels, n_panels, out),
                            1 => span::<1, { 4 * $x }>(a, k, panels, n_panels, out),
                            _ => unreachable!("tile height {h}"),
                        }
                    }
                }
            }
        };
    }

    fma_tier!(
        avx512,
        "avx512f",
        16,
        2,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_fmadd_ps
    );
    fma_tier!(
        avx2,
        "avx2,fma",
        8,
        1,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps
    );
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
// Kept callable as the oracle of the property tests.
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
            matmul_into(&a, m, k, &b, n, &mut tiled);
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
            matmul_transb_into(&a, m, k, &b, n, &mut tiled);
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
            matmul_transa_into(&a, m, k, &g, n, &mut tiled);
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
    fn packed_product_with_empty_reduction_is_zero_on_every_tier() {
        for tier in Tier::available() {
            let packed = PackedRhs::from_rhs(&Matrix::zeros(0, 19), tier);
            let mut out = Matrix::filled(9, 19, f32::NAN);
            Matrix::zeros(9, 0).matmul_packed_into(&packed, &mut out);
            assert!(out.as_slice().iter().all(|&v| v == 0.0), "{tier:?}");
        }
    }

    /// The safe door to the SIMD kernels refuses slices that do not
    /// bound the offsets the kernels form.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_entry_checks_lengths_before_any_pointer_is_formed() {
        let Some(&tier) = Tier::available().iter().find(|&&t| t != Tier::Scalar) else {
            return;
        };
        let (w, k) = (tier.panel_width(), 5);
        let (a, panels) = (vec![1.0f32; 2 * k], vec![1.0f32; 3 * k * w]);
        let refused = |a: &[f32], h: usize, panels: &[f32], out_len: usize| {
            let mut out = vec![0.0f32; out_len];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simd::rows(tier, a, h, k, panels, &mut out)
            }))
            .is_err()
        };
        assert!(!refused(&a, 2, &panels, 2 * 3 * w), "a well-formed call");
        assert!(refused(&a[1..], 2, &panels, 2 * 3 * w), "short left rows");
        assert!(refused(&a, 2, &panels[w..], 2 * 3 * w), "short panel block");
        assert!(refused(&a, 2, &panels, 2 * 3 * w - 1), "ragged tile");
        assert!(refused(&a, 0, &panels, 0), "no rows");
        assert!(
            refused(&[1.0; 9 * 5], 9, &panels, 9 * 3 * w),
            "too many rows"
        );
    }
}
