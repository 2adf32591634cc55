//! Register-tiled dense GEMM kernels.
//!
//! Every dense product in the workspace — `A @ B`, the prediction-layer
//! `A @ B^T`, the backward-pass `A^T @ B`, and serving's products against
//! a [`PackedRhs`] — runs through one driver in this module: the right
//! operand lies in zero-padded column panels one vector register wide,
//! a register tile of accumulators (8 rows x two 16-wide panels on
//! AVX-512, 8 x 8 on AVX2) lives across the entire reduction, and each
//! finished tile is handed to a visitor while it is still in L1. The
//! tiles are explicit `std::arch` kernels chosen **at run time** from
//! what the CPU reports ([`Tier::detect`]); a portable 4 x 8 tile written
//! as plain Rust is the fallback, and the only tier off x86-64.
//!
//! ## Determinism contract: training
//!
//! `Matrix::matmul`, `matmul_transb` and `matmul_transa` compute each
//! output element with a **single** accumulator walking the reduction
//! dimension in increasing order, a `mul` then an `add` per step (two
//! roundings; never a fused multiply-add) — exactly the order and the
//! arithmetic of the naive loops kept below as the `*_reference_into`
//! kernels. Tiling and vector width only change *which other elements*
//! are computed alongside, never the per-element order, so results are
//! bit-for-bit identical to the reference kernels, to each other across
//! tiers and hosts, and independent of the thread count (parallelism is
//! over disjoint output-row ranges, as everywhere else in this crate).
//! "Bit-identical" is measured against those reference loops: the
//! property tests in `tests/gemm_props.rs` assert exact equality, not
//! approximate, for every tier the host supports ([`Tier::matmul`] and
//! its siblings run a chosen tier), and
//! `short_seeded_run_is_pinned_to_the_bit` in `smgcn-core` pins the bits
//! of a whole training run.
//!
//! One caveat: the reference kernels keep the historical `a == 0.0` term
//! skip, the tiled kernels accumulate every term. Adding a `±0.0 · b`
//! term to a running sum never changes its value, so for finite operands
//! the two agree bit-for-bit except in one contrived corner (an output
//! whose every contribution is an exact zero can differ in the *sign* of
//! its zero — still `==` as floats); with non-finite operands
//! (`0.0 · inf = NaN`) they can genuinely differ. The autograd layer
//! debug-asserts finiteness of every node, so this only matters for
//! direct kernel callers feeding inf/NaN. Within each tier all code
//! paths (full tiles and remainder rows) share one semantics, so tiled
//! results never depend on the thread count, non-finite or not.
//!
//! The naive loops are the oracle, not a mode: the reference kernels are
//! reachable only by name (`Matrix::*_reference`), for the tests that
//! compare against them.
//!
//! ## Packing: per call for training, once for serving
//!
//! Training's weights change every step, and most of its right operands
//! are activations and gradients that meet one product, so its three
//! products pack their right operand on every call, into the calling
//! thread's scratch, reused from then on. The pack is a copy into runs
//! of whole panels, and the runs are chunks on the worker team, split
//! like an element-wise map (32k floats a thread). Packing a
//! paper-scale step's operands on one thread measured 2.1 ms on the
//! build host, 0.46 ms of it weights, so a cache of packed weights would
//! buy a fifth of what sharing the copy does. `A^T @ B` also gathers each 8-column strip of `A` into rows,
//! once per strip. The driver's output tile and that strip live in a
//! second scratch of the same kind, one per thread that runs chunks —
//! the caller's and each resident worker's, which outlive the call
//! ([`crate::par`]). Steady-state training performs no pack and no tile
//! allocations.
//!
//! A right operand that outlives many products (frozen herb embeddings, a
//! frozen SI head) is packed once into an owned [`PackedRhs`] and is
//! **not** bound by training's bit-identity pin, so it gets the same
//! tiles with a different step and its own, weaker-across-hosts contract
//! (spelled out on [`PackedRhs`]): one accumulator per output walking `t`
//! ascending, *fused* multiply-add where the CPU has one. The two SIMD
//! tiers agree bit for bit with each other and with a naive
//! `f32::mul_add` loop; the scalar tier agrees bit for bit with `matmul`.
//!
//! ## The driver
//!
//! Each thread's share of the output rows is walked in row blocks of
//! the tile height and column blocks of panels (a constant ≈ 128 KiB of
//! packed operand, so a block stays in L2 while every row block walks
//! it); each `rows x width` tile goes to a visitor straight from the
//! micro-kernel's stores. The serving layer selects its top-k from the
//! tile while it is in L1 and never writes the score matrix;
//! [`Matrix::matmul_packed`] and the training products are the visitor
//! that copies tiles into an output. The thread split is sized by the
//! product's multiply-adds (`m · n · k`), not its output elements, so a
//! weight gradient — few outputs, long reduction — is shared out too
//! (from 2M multiply-adds a thread: `par::threads_for_macs`). The shares
//! are the chunks of one `par::for_each_chunk` call: the calling thread
//! takes one and the process's resident workers the others, so a
//! product spawns no thread, and runs whole on its caller when the team
//! is busy with another call.
//! All `unsafe` of this crate's kernels lives in the private `simd`
//! module, behind safe functions that check the CPU feature and every
//! length the pointers rely on.

use std::cell::{Cell, RefCell};

use crate::matrix::Matrix;
use crate::par;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// Register-tile height of the portable kernels (rows of the left
/// operand per micro-kernel call).
const MR: usize = 4;
/// Register-tile width of the portable kernels, and of an AVX2 panel.
const NR: usize = 8;
/// Tile height of the explicit SIMD kernels.
pub(crate) const SIMD_ROWS: usize = 8;
/// Narrowest operand serving packs for a SIMD tier: the width of the
/// AVX-512 main tile (two 16-wide panels). See [`Tier::for_cols`].
const SIMD_MIN_COLS: usize = 32;
/// Floats to a cache line.
const LINE: usize = 16;

thread_local! {
    /// Scratch for the training products' packed right-hand-side panels,
    /// the calling thread's (workers write disjoint runs of it), reused
    /// across calls so steady-state training performs no pack
    /// allocations.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Scratch for the tile driver's output tile and, for a transposed
    /// left operand, its gathered strip: one per thread that runs chunks
    /// (the caller's and each resident worker's), grown and never shrunk
    /// like `PACK`. Taken out for the length of a chunk and put back, so
    /// a visitor that multiplies finds it empty instead of borrowed.
    static TILE: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// How a micro-kernel folds `a * b` into its accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arith {
    /// One fused multiply-add, one rounding: serving's SIMD tiers.
    Fused,
    /// A `mul` then an `add`, two roundings — the reference kernels'
    /// arithmetic: training on every tier, and the scalar tier always.
    Exact,
}

/// `out = lhs @ rhs` on `tier`'s exact kernels; `lhs` is `m x k`, `rhs`
/// is `k x n`, `out` is `m x n` and is fully overwritten.
pub(crate) fn matmul_into(
    tier: Tier,
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let pack = |w, p0, panels: &mut [f32]| pack_rhs(w, rhs, k, n, p0, panels);
    exact_product(tier, Lhs::Rows(lhs), m, k, n, pack, out);
}

/// `out = lhs @ rhs^T` on `tier`'s exact kernels; `lhs` is `m x k`, `rhs`
/// is `n x k` (row-major, so its rows are the logical columns), `out` is
/// `m x n`, fully overwritten.
pub(crate) fn matmul_transb_into(
    tier: Tier,
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
    let pack = |w, p0, panels: &mut [f32]| pack_rhs_transposed(w, rhs, n, k, p0, panels);
    exact_product(tier, Lhs::Rows(lhs), m, k, n, pack, out);
}

/// `out = lhs^T @ rhs` on `tier`'s exact kernels; `lhs` is `m x k`, `rhs`
/// is `m x n`, `out` is `k x n`, fully overwritten. This is the
/// backward-pass kernel (`dW = X^T dY`): the same product as the other
/// two, with `m` as the reduction, once each strip of `lhs` columns has
/// been gathered into rows.
pub(crate) fn matmul_transa_into(
    tier: Tier,
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
    let pack = |w, p0, panels: &mut [f32]| pack_rhs(w, rhs, m, n, p0, panels);
    exact_product(tier, Lhs::Cols(lhs), k, m, n, pack, out);
}

/// One training product: `rows` output rows taken from `lhs`, reduction
/// length `k`, `n` output columns whose operand `pack(panel_width,
/// first_panel, panels)` lays out in this thread's scratch, a run of
/// whole panels at a time. The runs are chunks on the worker team
/// (a copy changes no bit, wherever it runs).
fn exact_product(
    tier: Tier,
    lhs: Lhs<'_>,
    rows: usize,
    k: usize,
    n: usize,
    pack: impl Fn(usize, usize, &mut [f32]) + Sync,
    out: &mut [f32],
) {
    if rows == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    assert!(tier.supported(), "{tier:?} is not supported here");
    PACK.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let w = tier.panel_width();
        let len = packed_len(k, n, w);
        // Grown, never shrunk, and never cleared: the packers overwrite
        // every float of the prefix they are given.
        if scratch.len() < len + LINE - 1 {
            scratch.resize(len + LINE - 1, 0.0);
        }
        let start = line_offset(&scratch);
        let panels = &mut scratch[start..start + len];
        let (threads, per_thread) = par::split_elems(len);
        let run = per_thread.div_ceil(k * w) * k * w;
        par::for_each_chunk(threads, panels.chunks_mut(run).enumerate(), |(i, dst)| {
            pack(w, i * run / (k * w), dst);
        });
        let rhs = PanelsRef {
            k,
            n,
            tier,
            arith: Arith::Exact,
            panels,
        };
        rhs.for_each_tile(lhs, rows, out, store_tile(n));
    });
}

/// The visitor that copies every tile to its place in an `n`-wide output.
fn store_tile(n: usize) -> impl Fn(&mut [f32], &Tile<'_>) + Sync {
    move |out_rows, tile| {
        for (r, out_row) in out_rows.chunks_exact_mut(n).enumerate() {
            out_row[tile.col0..tile.col0 + tile.width()].copy_from_slice(tile.row(r));
        }
    }
}

/// Offset of the first float of `buf` that starts a cache line (0 if
/// the allocation is not even float-aligned to one, which no allocator
/// does), so a 64-byte vector load of a panel row never straddles two.
/// Only speed depends on it; the kernels use unaligned loads.
fn line_offset(buf: &[f32]) -> usize {
    match buf.as_ptr().align_offset(LINE * 4) {
        offset if offset < LINE => offset,
        _ => 0,
    }
}

/// [`pack_rhs_w`] at the panel width `w` of a tier.
fn pack_rhs(w: usize, rhs: &[f32], k: usize, n: usize, p0: usize, packed: &mut [f32]) {
    match w {
        16 => pack_rhs_w::<16>(rhs, k, n, p0, packed),
        _ => pack_rhs_w::<NR>(rhs, k, n, p0, packed),
    }
}

/// [`pack_rhs_transposed_w`] at the panel width `w` of a tier.
pub(crate) fn pack_rhs_transposed(
    w: usize,
    rhs: &[f32],
    n: usize,
    k: usize,
    p0: usize,
    packed: &mut [f32],
) {
    match w {
        16 => pack_rhs_transposed_w::<16>(rhs, n, k, p0, packed),
        _ => pack_rhs_transposed_w::<NR>(rhs, n, k, p0, packed),
    }
}

/// Packs `rhs` (`k x n` row-major) into its column panels `p0 ..`, as many
/// as `packed` holds of the `ceil(n / W)`: each `k x W` with `t`-major
/// layout, zero-padded on the right edge, `W` the tier's panel width.
fn pack_rhs_w<const W: usize>(rhs: &[f32], k: usize, n: usize, p0: usize, packed: &mut [f32]) {
    for (p, dst) in (p0..).zip(packed.chunks_exact_mut((k * W).max(1))) {
        let j0 = p * W;
        let w = W.min(n - j0);
        for t in 0..k {
            dst[t * W..t * W + w].copy_from_slice(&rhs[t * n + j0..t * n + j0 + w]);
            // Only the right-edge panel has padding lanes; zero exactly
            // those rather than memsetting the whole scratch per call.
            dst[t * W + w..(t + 1) * W].fill(0.0);
        }
    }
}

/// Packs `rhs` (`n x k` row-major, logically transposed) into the same
/// panel layout as [`pack_rhs_w`], panels `p0 ..` as many as `packed`
/// holds: `panel[t * W + jj] = rhs[(j0 + jj) * k + t]`.
fn pack_rhs_transposed_w<const W: usize>(
    rhs: &[f32],
    n: usize,
    k: usize,
    p0: usize,
    packed: &mut [f32],
) {
    for (p, dst) in (p0..).zip(packed.chunks_exact_mut((k * W).max(1))) {
        let j0 = p * W;
        let w = W.min(n - j0);
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

/// The micro-kernel family a product runs on. Not an option:
/// [`Tier::detect`] reads it off the CPU, the training products use that
/// and the `pack_*` constructors use [`Tier::for_cols`]. The
/// explicit-tier entry points ([`Tier::matmul`] and its siblings,
/// [`PackedRhs::from_rhs`], [`PackedRhs::from_transposed`]) exist so
/// tests and benches can hold every tier a host supports to the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Portable 4 x 8 `mul` + `add` tiles in plain Rust: the fallback,
    /// the reference, and the only tier off x86-64.
    Scalar,
    /// Explicit tiles of 8 `ymm` accumulators: 8 rows x one 8-wide
    /// panel (AVX2, and FMA for serving's fused step).
    Avx2,
    /// Explicit tiles of 16 `zmm` accumulators: 8 rows x two 16-wide
    /// panels (AVX-512F).
    Avx512,
}

impl Tier {
    /// The fastest tier this CPU supports.
    pub fn detect() -> Tier {
        [Tier::Avx512, Tier::Avx2]
            .into_iter()
            .find(|tier| tier.supported())
            .unwrap_or(Tier::Scalar)
    }

    /// `a @ b` on this tier's exact kernels: what [`Matrix::matmul`]
    /// computes where [`Tier::detect`] is this tier — and, the contract
    /// says, the same bits on every other.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.rows()` or this CPU does not support the
    /// tier.
    pub fn matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into_on(self, b, &mut out);
        out
    }

    /// `a @ b^T` on this tier's exact kernels ([`Matrix::matmul_transb`]).
    ///
    /// # Panics
    /// Panics if `a.cols() != b.cols()` or this CPU does not support the
    /// tier.
    pub fn matmul_transb(self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        a.matmul_transb_into_on(self, b, &mut out);
        out
    }

    /// `a^T @ b` on this tier's exact kernels ([`Matrix::matmul_transa`]).
    ///
    /// # Panics
    /// Panics if `a.rows() != b.rows()` or this CPU does not support the
    /// tier.
    pub fn matmul_transa(self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        a.matmul_transa_into_on(self, b, &mut out);
        out
    }

    /// The tier [`Matrix::pack_rhs`] / [`Matrix::pack_transposed`] pick
    /// for an operand `cols` columns wide: [`Tier::detect`], except that
    /// an operand narrower than one main tile of the widest tier
    /// (`SIMD_MIN_COLS`) stays on the scalar kernels. Nothing that
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
    pub(crate) fn supported(self) -> bool {
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
    pub(crate) fn panel_width(self) -> usize {
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
/// [`product_at`](Self::product_at) computes one element of a product
/// alone under the same contract, so a caller can re-score a few columns
/// and get the bits the tiles would have given them.
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
pub(crate) struct Panels<T = f32> {
    buf: Vec<T>,
    start: usize,
    len: usize,
}

impl<T: Copy + Default> Panels<T> {
    /// `len` values, filled in place by `pack`.
    pub(crate) fn packed_by(len: usize, pack: impl FnOnce(&mut [T])) -> Self {
        let slack = LINE * 4 / std::mem::size_of::<T>() - 1;
        let mut buf = vec![T::default(); len + slack];
        let start = match buf.as_ptr().align_offset(LINE * 4) {
            offset if offset <= slack => offset,
            _ => 0,
        };
        pack(&mut buf[start..start + len]);
        Self { buf, start, len }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T: Copy + Default> Clone for Panels<T> {
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
/// [`PackedRhs::for_each_tile`] (or, as `i32`, of
/// [`QuantRhs::for_each_tile`](crate::QuantRhs::for_each_tile)) straight
/// from the micro-kernel, while it is still in L1.
pub struct Tile<'a, T = f32> {
    /// Column of the product of every tile row's element 0.
    pub col0: usize,
    pub(crate) width: usize,
    pub(crate) stride: usize,
    pub(crate) data: &'a [T],
}

impl<T> Tile<'_, T> {
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
    pub fn row(&self, r: usize) -> &[T] {
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
        Self::packed_by(tier, k, n, |w, p0, dst| {
            pack_rhs(w, rhs.as_slice(), k, n, p0, dst)
        })
    }

    /// Packs the `n x k` right operand of `A @ B^T` for `tier`.
    ///
    /// # Panics
    /// Panics if this CPU does not support `tier`.
    pub fn from_transposed(rhs: &Matrix, tier: Tier) -> Self {
        let (n, k) = rhs.shape();
        Self::packed_by(tier, k, n, |w, p0, dst| {
            pack_rhs_transposed(w, rhs.as_slice(), n, k, p0, dst)
        })
    }

    /// A `k x n` operand whose panels `pack(panel_width, first_panel,
    /// panels)` fills, a run of whole panels at a time, the runs shared
    /// out over the worker team like training's packs (a frozen model's
    /// load packs its herbs here). It and [`from_panels`](Self::from_panels)
    /// are where a tier is attached to panels, and both check that the
    /// CPU can run it.
    fn packed_by(
        tier: Tier,
        k: usize,
        n: usize,
        pack: impl Fn(usize, usize, &mut [f32]) + Sync,
    ) -> Self {
        assert!(
            tier.supported(),
            "PackedRhs: {tier:?} is not supported here"
        );
        let w = tier.panel_width();
        let len = packed_len(k, n, w);
        let panels = Panels::packed_by(len, |panels| {
            let (threads, per_thread) = par::split_elems(len);
            let run = per_thread.div_ceil((k * w).max(1)) * k * w;
            let runs = panels.chunks_mut(run.max(1)).enumerate();
            par::for_each_chunk(threads, runs, |(i, dst)| pack(w, i * run / (k * w), dst));
        });
        Self { k, n, tier, panels }
    }

    /// Panels some other pass has filled in this layout for `tier`
    /// (`QuantRhs::pack_transposed`, which quantises each run of them
    /// while it is in cache).
    pub(crate) fn from_panels(tier: Tier, k: usize, n: usize, panels: Panels) -> Self {
        assert!(
            tier.supported(),
            "PackedRhs: {tier:?} is not supported here"
        );
        assert_eq!(
            panels.as_slice().len(),
            packed_len(k, n, tier.panel_width())
        );
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

    /// Element `col` of `lhs_row @ self`, alone: the same chain the
    /// tiles run for it — one accumulator from `0.0`, `t` ascending, a
    /// fused multiply-add a step on the SIMD tiers and a `mul` then an
    /// `add` on [`Tier::Scalar`] — so bit for bit what
    /// [`for_each_tile`](Self::for_each_tile) hands a visitor for that
    /// row and column. It reads the column's `k` values out of its panel,
    /// one per row of the panel: for re-scoring a few columns, not for
    /// walking many.
    ///
    /// # Panics
    /// Panics if `lhs_row.len() != self.rows()` or `col >= self.cols()`.
    pub fn product_at(&self, lhs_row: &[f32], col: usize) -> f32 {
        let (k, w) = (self.k, self.tier.panel_width());
        assert_eq!(lhs_row.len(), k, "PackedRhs::product_at: row length");
        assert!(
            col < self.n,
            "PackedRhs::product_at: column {col} of {}",
            self.n
        );
        let panel = &self.panels.as_slice()[col / w * k * w..][..k * w];
        let column = panel.iter().skip(col % w).step_by(w);
        match self.tier {
            Tier::Scalar => lhs_row
                .iter()
                .zip(column)
                .fold(0.0, |acc, (&a, &b)| acc + a * b),
            Tier::Avx2 | Tier::Avx512 => lhs_row
                .iter()
                .zip(column)
                .fold(0.0, |acc, (&a, &b)| a.mul_add(b, acc)),
        }
    }

    /// Computes `lhs @ self` tile by tile and hands each tile to `visit`
    /// the moment the micro-kernel has stored it, instead of writing an
    /// `m x n` product: the one driver behind every dense product.
    ///
    /// `state` is the visitor's per-row storage, `state.len() / m`
    /// elements for each row of `lhs`; `visit(rows_state, tile)` gets the
    /// elements of exactly the tile's rows. Rows are split across threads
    /// as in every other kernel of this crate (disjoint row ranges; how
    /// many is decided by the product's multiply-adds), and per product
    /// row the tiles arrive **in ascending column order** and cover
    /// every column exactly once. Returns the number of threads the rows
    /// were split over (a visitor that times itself on each needs it to
    /// turn summed time into wall time).
    ///
    /// # Panics
    /// Panics if `lhs.cols() != self.rows()` or `state.len()` is not a
    /// multiple of `lhs.rows()`.
    pub fn for_each_tile<S, F>(&self, lhs: &Matrix, state: &mut [S], visit: F) -> usize
    where
        S: Send,
        F: Fn(&mut [S], &Tile<'_>) + Sync,
    {
        assert_eq!(
            lhs.cols(),
            self.k,
            "PackedRhs::for_each_tile: inner dimensions differ ({}x{} @ packed {}x{})",
            lhs.rows(),
            lhs.cols(),
            self.k,
            self.n,
        );
        let panels = PanelsRef {
            k: self.k,
            n: self.n,
            tier: self.tier,
            arith: Arith::Fused,
            panels: self.panels.as_slice(),
        };
        panels.for_each_tile(Lhs::Rows(lhs.as_slice()), lhs.rows(), state, visit)
    }

    /// `out = lhs @ self`, fully overwritten.
    pub(crate) fn matmul_into(&self, lhs: &Matrix, out: &mut [f32]) {
        self.for_each_tile(lhs, out, store_tile(self.n));
    }
}

/// Where the tile driver finds the rows of its left operand.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// Row-major, `k` wide: row `i` is `a[i * k..][..k]`.
    Rows(&'a [f32]),
    /// The transpose of a row-major `k`-row matrix: row `i` is its
    /// column `i`, which the driver gathers (a tile's rows at a time,
    /// once per row block) before the kernel reads it.
    Cols(&'a [f32]),
}

/// A right operand in panel layout, wherever the panels live — owned by
/// a [`PackedRhs`], or in the training products' thread-local scratch —
/// with the kernels to multiply it by.
#[derive(Clone, Copy)]
struct PanelsRef<'a> {
    k: usize,
    n: usize,
    tier: Tier,
    arith: Arith,
    panels: &'a [f32],
}

impl PanelsRef<'_> {
    /// The tile driver ([`PackedRhs::for_each_tile`] documents what a
    /// visitor sees): `m` rows of `lhs` against these panels.
    fn for_each_tile<S, F>(&self, lhs: Lhs<'_>, m: usize, state: &mut [S], visit: F) -> usize
    where
        S: Send,
        F: Fn(&mut [S], &Tile<'_>) + Sync,
    {
        let (k, n) = (self.k, self.n);
        if m == 0 {
            return 1;
        }
        assert_eq!(
            state.len() % m,
            0,
            "for_each_tile: {} state elements do not split over {m} rows",
            state.len()
        );
        let per_row = state.len() / m;
        if n == 0 || per_row == 0 {
            return 1;
        }
        let (w, tile_rows) = (self.tier.panel_width(), self.tier.tile_rows());
        let block_cols = (BLOCK_BYTES / (4 * k.max(1))).min(BLOCK_COLS_MAX) / w;
        let block_cols = block_cols.max(1) * w;
        let threads = par::threads_for_macs(m.saturating_mul(n).saturating_mul(k));
        par::for_each_row_chunk_of(state, per_row, m, threads, |r0, state| {
            let rows = state.len() / per_row;
            let tile_rows = tile_rows.min(rows);
            let tile_len = tile_rows * block_cols;
            let strip_len = match lhs {
                Lhs::Rows(_) => 0,
                Lhs::Cols(_) => tile_rows * k,
            };
            let mut scratch = TILE.take();
            if scratch.len() < tile_len + strip_len {
                scratch.resize(tile_len + strip_len, 0.0);
            }
            let (tile, strip) = scratch.split_at_mut(tile_len);
            if k == 0 {
                // No kernel writes a tile it has no panel to walk for:
                // the product is the zeros the tile then has to hold.
                tile.fill(0.0);
            }
            // `h` rows of the left operand, the chunk's `i`-th on,
            // against the column block at `col0`.
            let mut run = |a: &[f32], i: usize, h: usize, col0: usize, state: &mut [S]| {
                let width = block_cols.min(n - col0);
                let stride = width.div_ceil(w) * w;
                let panels = &self.panels[col0 * k..(col0 + stride) * k];
                let data = &mut tile[..h * stride];
                match self.tier {
                    Tier::Scalar => scalar_rows(a, h, k, panels, data),
                    #[cfg(target_arch = "x86_64")]
                    tier => simd::rows(tier, self.arith, a, h, k, panels, data),
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
            };
            match lhs {
                // Column blocks outer: a block of panels stays in L2
                // while every row block walks it.
                Lhs::Rows(a) => {
                    for col0 in (0..n).step_by(block_cols) {
                        for i in (0..rows).step_by(tile_rows) {
                            let h = tile_rows.min(rows - i);
                            run(&a[(r0 + i) * k..(r0 + i + h) * k], i, h, col0, state);
                        }
                    }
                }
                // Row blocks outer: each strip of columns is gathered
                // into rows once and meets every column block.
                Lhs::Cols(a) => {
                    let cols = a.len() / k.max(1);
                    for i in (0..rows).step_by(tile_rows) {
                        let h = tile_rows.min(rows - i);
                        for (t, a_row) in a.chunks_exact(cols).enumerate() {
                            for (r, &v) in a_row[r0 + i..r0 + i + h].iter().enumerate() {
                                strip[r * k + t] = v;
                            }
                        }
                        for col0 in (0..n).step_by(block_cols) {
                            run(&strip[..h * k], i, h, col0, state);
                        }
                    }
                }
            }
            TILE.set(scratch);
        })
    }
}

/// The [`Tier::Scalar`] row block: `h <= MR` rows of `a` against every
/// panel of one column block, into `out` (`h` rows of `panels x NR`).
/// (`k == 0` has no panels to walk and writes nothing: the driver
/// zeroes the tile for it, which is the product.)
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
    let threads = par::threads_for_macs(m * n * k);
    par::for_each_row_chunk_of(out, n, m, threads, |r0, chunk| {
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
    let threads = par::threads_for_macs(m * n * k);
    par::for_each_row_chunk_of(out, n, m, threads, |r0, chunk| {
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
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let threads = par::threads_for_macs(m * n * k);
    par::for_each_row_chunk_of(out, n, k, threads, |i0, chunk| {
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

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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
            let mut naive = vec![f32::NAN; m * n];
            matmul_reference_into(&a, m, k, &b, n, &mut naive);
            for tier in Tier::available() {
                let mut tiled = vec![f32::NAN; m * n];
                matmul_into(tier, &a, m, k, &b, n, &mut tiled);
                assert!(same_bits(&tiled, &naive), "{tier:?} at ({m}, {k}, {n})");
            }
        }
    }

    #[test]
    fn tiled_transb_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 3, 1), (4, 8, 8), (6, 5, 11), (17, 64, 3)] {
            let a = mat(m, k, pseudo);
            let b = mat(n, k, |i| pseudo(i + 3));
            let mut naive = vec![f32::NAN; m * n];
            matmul_transb_reference_into(&a, m, k, &b, n, &mut naive);
            for tier in Tier::available() {
                let mut tiled = vec![f32::NAN; m * n];
                matmul_transb_into(tier, &a, m, k, &b, n, &mut tiled);
                assert!(same_bits(&tiled, &naive), "{tier:?} at ({m}, {k}, {n})");
            }
        }
    }

    #[test]
    fn tiled_transa_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (8, 4, 8), (9, 6, 10), (3, 21, 33)] {
            let a = mat(m, k, pseudo);
            let g = mat(m, n, |i| pseudo(i + 11));
            let mut naive = vec![f32::NAN; k * n];
            matmul_transa_reference_into(&a, m, k, &g, n, &mut naive);
            for tier in Tier::available() {
                let mut tiled = vec![f32::NAN; k * n];
                matmul_transa_into(tier, &a, m, k, &g, n, &mut tiled);
                assert!(same_bits(&tiled, &naive), "{tier:?} at ({m}, {k}, {n})");
            }
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
}
