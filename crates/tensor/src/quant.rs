//! An int8 copy of a frozen right operand, and the bounds it guarantees.
//!
//! A [`QuantRhs`] holds the `n x k` operand of `A @ B^T` — the layout
//! [`Matrix::pack_transposed`] takes, herb embeddings in serving — as one
//! signed byte per value and one scale per column (per herb), in panels
//! for the integer dot-product tiles ([`Int8Tier`]: AVX-512 VNNI, AVX-VNNI,
//! or a portable loop). A left operand is quantised a row at a time by
//! [`QuantRhs::quantize`]. The integer product is a quarter of the float
//! product's bytes and a quarter of its instructions, but it is not the
//! product: what it gives, for every bounded row and every column, is an
//! interval that is **guaranteed** to hold the value
//! [`PackedRhs::product_at`] computes for them, on any float tier, for
//! any operand [`QuantRhs::pack_transposed`] accepts. A caller that wants
//! the `k` best columns of a row keeps every column whose upper bound
//! reaches the `k`-th best lower bound ([`QuantRhs::screen`] walks a row
//! that way), re-scores only those exactly, and has the exact answer.
//!
//! ## The bound
//!
//! A column `e` is stored as `q = round(e / s)` with `s = max|e| / 127`,
//! so `ẽ = s q` and `r = e − ẽ`. A left row `x` that is never negative is
//! quantised to `u = round(x / t)`, `t = max x / 255`, the unsigned byte
//! `vpdpbusd` takes; any other row to `v = round(x / t)`, `t = max|x| /
//! 127`, stored as `v + 128`, and the product subtracts `128 · Σq` per
//! column. Either way `x̃ = t v` (`v = u` unsigned), `δ = x − x̃`, and the
//! integer `D = Σ v q` is exact, so `A = t s D = x̃ · ẽ` and, because
//! `x · e − A = x · r + δ · ẽ`, Cauchy–Schwarz gives
//!
//! `|x · e − A| ≤ ‖x‖ ‖r‖ + ‖δ‖ ‖ẽ‖`.
//!
//! The float product of the [`PackedRhs`] contract is one chain of `k`
//! steps, fused or not, and errs from `x · e` by at most `γ_k ‖x‖ ‖e‖`
//! (`γ_k = k u / (1 − k u)`, `u = 2^-24`) plus `k · 2^-149` for steps that
//! land among the subnormals. So each column keeps `R ≥ ‖r‖ + γ_k ‖e‖`
//! (the subnormal term folded in over the smallest `‖x‖` a bounded row
//! has) and `N ≥ ‖ẽ‖`, each row `X ≥ ‖x‖` and `Δ ≥ ‖δ‖`, and the interval
//! is `A ± (X R + Δ N)`. Sums of squares are taken in `f32`, and each
//! norm is bounded from above with that sum's own error added back
//! (`γ_{k+1}` of itself, and the subnormal term), then rounded up to
//! `f32`; the interval is evaluated in `f32` from `X` and `Δ` inflated by
//! `2^-16` relative and by `2^-16 (X + Δ)` for the `ẽ` side, which covers
//! the handful of roundings of that evaluation with room to spare.
//!
//! Bounds exist where the arithmetic above stays among the normal,
//! finite floats: a row is *bounded* when it is finite and its largest
//! magnitude lies in `[2^-40, 2^40]` (an all-zero row is not bounded —
//! every one of its scores is exactly zero, and it is cheaper to compute
//! them than to bound them); a column must be all zero or have its
//! largest magnitude in that range, and `k` is at most 65,536 so that
//! no `i32` sum can wrap. [`QuantRhs::pack_transposed`] refuses an
//! operand with a column outside it, and [`QuantRows::is_bounded`] says
//! which rows a caller must compute the float way.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::gemm::{pack_rhs_transposed, Panels, Tile, SIMD_ROWS};
use crate::matrix::Matrix;
use crate::par;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::{PackedRhs, Tier};

/// Smallest largest-magnitude of a bounded row or a non-zero column.
const RANGE_MIN: f32 = 1.0 / (1u64 << 40) as f32;
/// Largest largest-magnitude of a bounded row or a column.
const RANGE_MAX: f32 = (1u64 << 40) as f32;
/// Longest reduction: `k * 255 * 128 < 2^31`, so no `i32` sum wraps.
const K_MAX: usize = 65_536;
/// Columns per tile: 8 rows of 512 sums is 16 KiB, inside L1 beside the
/// block of panels (32 KiB at `k = 64`) every row block walks.
const BLOCK_COLS: usize = 512;
/// Columns per block of [`QuantRhs::screen`]: a block is tested against
/// the floor from its largest product and one summary of its columns
/// before any of its columns is bounded.
const SCREEN_COLS: usize = 128;
/// What the `f32` evaluation of an interval adds, relative, to cover its
/// own roundings (a few `2^-24` each).
const EVAL_SLACK: f64 = 1.0 / 65_536.0;
/// What the `f64` arithmetic that combines bound terms adds, relative,
/// to cover its own roundings (a few `2^-53`).
const NORM_SLACK: f64 = 1.0 / (1u64 << 30) as f64;
/// What a block's `f64` bound adds, relative, for its own roundings.
const BLOCK_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

thread_local! {
    /// The driver's output tile, one per thread that runs chunks, grown
    /// and never shrunk (the float driver's `TILE`, in `i32`).
    static TILE: Cell<Vec<i32>> = const { Cell::new(Vec::new()) };
}

/// The integer dot-product kernel family a [`QuantRhs`] runs on. As with
/// [`Tier`], not an option: [`Int8Tier::detect`] reads it off the CPU,
/// and [`QuantRhs::pack_transposed`] takes one so that tests and benches
/// can hold every tier a host has to the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Int8Tier {
    /// A portable `i32` loop: the reference, never fast.
    Scalar,
    /// `vpdpbusd` on `ymm` registers (AVX2 + AVX-VNNI): 8 rows x one
    /// 8-column panel.
    AvxVnni,
    /// `vpdpbusd` on `zmm` registers (AVX-512F + AVX-512 VNNI): 8 rows x
    /// two 16-column panels.
    Avx512Vnni,
}

impl Int8Tier {
    /// The fastest tier this CPU supports.
    pub fn detect() -> Int8Tier {
        [Int8Tier::Avx512Vnni, Int8Tier::AvxVnni]
            .into_iter()
            .find(|tier| tier.supported())
            .unwrap_or(Int8Tier::Scalar)
    }

    /// Every tier this CPU supports, slowest first (`Scalar` always).
    pub fn available() -> Vec<Int8Tier> {
        [Int8Tier::Scalar, Int8Tier::AvxVnni, Int8Tier::Avx512Vnni]
            .into_iter()
            .filter(|t| t.supported())
            .collect()
    }

    /// Whether this CPU can run the tier's kernels.
    pub(crate) fn supported(self) -> bool {
        match self {
            Int8Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Int8Tier::AvxVnni => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avxvnni")
            }
            #[cfg(target_arch = "x86_64")]
            Int8Tier::Avx512Vnni => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Columns per panel: one vector register of `i32` lanes.
    pub(crate) fn panel_width(self) -> usize {
        match self {
            Int8Tier::AvxVnni => 8,
            Int8Tier::Scalar | Int8Tier::Avx512Vnni => 16,
        }
    }
}

/// The `n x k` operand of `A @ B^T` as int8 panels, one scale per
/// column, and the two bound terms per column (the module doc derives
/// them). Immutable and `Sync`, like [`PackedRhs`].
#[derive(Clone)]
pub struct QuantRhs {
    k: usize,
    /// `k` rounded up to whole groups of 4; codes past `k` are zero.
    k4: usize,
    n: usize,
    tier: Int8Tier,
    /// Panel `p` holds columns `p W ..`: for each group `g` of 4 steps,
    /// `W` runs of 4 codes, at `(p k4 + 4 g) W + 4 l`; each code a signed
    /// byte, stored two's complement.
    panels: Panels<u8>,
    /// `s` per column.
    scale: Vec<f32>,
    /// `Σq` per column: the offset correction of signed rows.
    sum: Vec<i32>,
    /// `R ≥ ‖r‖ + γ_k ‖e‖` per column.
    resid: Vec<f32>,
    /// `N ≥ ‖ẽ‖` per column.
    norm: Vec<f32>,
    /// Per block of `SCREEN_COLS` columns: the largest and smallest `s`,
    /// the largest `R` and the largest `N`.
    blocks: Vec<[f32; 4]>,
    /// The same over every column.
    whole: [f32; 4],
}

impl std::fmt::Debug for QuantRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QuantRhs({}x{}, {:?})", self.k, self.n, self.tier)
    }
}

/// Left rows quantised for one [`QuantRhs`]: a byte per value, and for
/// each bounded row its scale and the inflated `X` and `Δ` of the module
/// doc.
#[derive(Clone, Debug)]
pub struct QuantRows {
    k4: usize,
    codes: Vec<u8>,
    rows: Vec<Option<RowBound>>,
}

/// What the bounds of a row need.
#[derive(Clone, Copy, Debug)]
struct RowBound {
    /// `t`.
    scale: f32,
    /// Stored as `v + 128`: the product subtracts `128 Σq`.
    signed: bool,
    /// `X`, inflated for the interval's `f32` evaluation.
    x: f32,
    /// `Δ`, inflated likewise, plus the `ẽ` side's share of `X + Δ`.
    delta: f32,
}

impl QuantRows {
    /// Rows quantised.
    fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether row `r` has bounds. A row that has none — not finite, all
    /// zero, or out of the range the module doc gives — was quantised
    /// to zeros, and its scores must be computed the float way.
    pub fn is_bounded(&self, r: usize) -> bool {
        self.rows[r].is_some()
    }
}

/// `v` rounded up to an `f32`.
fn up(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) < v {
        f.next_up()
    } else {
        f
    }
}

/// The unit roundoff of `f32`, `2^-24`.
const U: f64 = 1.0 / (1u64 << 24) as f64;
/// The smallest subnormal `f32`, `2^-149`: what a step that lands among
/// the subnormals can be off by, at most, twice over.
const TINY: f64 = 1.0 / (1u64 << 63) as f64 / (1u64 << 63) as f64 / (1u64 << 23) as f64;
/// `1.5 · 2^23`. Added to a float of magnitude below `2^22` it rounds
/// it to an integer, ties to even (the FPU's own rounding), and the
/// sum's bits less the constant's are then that integer: rounding and
/// the conversion in two vector instructions, where `round_ties_even`
/// and `as i32` do not vectorise as well.
const MAGIC: f32 = 12_582_912.0;

/// `γ_{k+1}`: the share of itself an `f32` sum of `k` rounded terms
/// may lose.
fn sum_gamma(k: usize) -> f64 {
    let k = k as f64 + 1.0;
    k * U / (1.0 - k * U)
}

/// An upper bound on the norm of `k` values from `sum`, an `f32` sum of
/// their squares in any order, each square — and each value, where it
/// was itself one fused step — rounded once: the sum errs by at most
/// `γ_{k+1}` of itself, and a step among the subnormals by `2^-150`.
fn norm_bound(sum: f32, k: usize, gamma: f64) -> f64 {
    let k = k as f64;
    ((f64::from(sum) * (1.0 + 2.0 * gamma) + k * TINY).sqrt() + k.sqrt() * TINY) * (1.0 + 4.0 * U)
}

/// Quantises row `x` into `codes` (zero past `x.len()`), and returns its
/// bound, or `None` (and zeros) when it has none.
fn quantize_row(x: &[f32], codes: &mut [u8]) -> Option<RowBound> {
    let signed = x.iter().fold(false, |neg, &v| neg | (v < 0.0));
    let (levels, offset) = if signed { (127.0, 128) } else { (255.0, 0) };
    let stats = quantize_panel::<1>(x, [max_abs_bits(x)], levels, offset, |g, [word]| {
        codes[4 * g..][..4].copy_from_slice(&word.to_le_bytes());
    })?;
    if stats.scale[0] == 0.0 {
        return None;
    }
    let (k, gamma) = (x.len(), sum_gamma(x.len()));
    let x_norm = norm_bound(stats.squares[0], k, gamma);
    let d_norm = norm_bound(stats.residues[0], k, gamma);
    Some(RowBound {
        scale: stats.scale[0],
        signed,
        x: up(x_norm * (1.0 + EVAL_SLACK)),
        delta: up(d_norm * (1.0 + EVAL_SLACK) + EVAL_SLACK * (x_norm + d_norm)),
    })
}

/// The quantisation of `W` vectors side by side, lane by lane.
struct PanelStats<const W: usize> {
    scale: [f32; W],
    sum: [i32; W],
    /// `Σ q²`, exact.
    code_squares: [i32; W],
    /// `f32` sums of `e²` and of `(e − s q)²`.
    squares: [f32; W],
    residues: [f32; W],
}

/// The bits of the largest magnitude of `values`, at least those of
/// `inf` when a value is not finite: integer compares of the bits order
/// magnitudes, and vectorise over a contiguous run of values.
fn max_abs_bits(values: &[f32]) -> u32 {
    values
        .iter()
        .fold(0, |most, &v| most.max(v.to_bits() & 0x7fff_ffff))
}

/// Quantises `W` vectors side by side — the columns of one float panel,
/// its rows of `W` lanes the steps, or one left row as a panel of one
/// lane — to `±levels` each (an all-zero vector to zeros, scale 0), and
/// hands each group `g` of 4 steps to `store` as one word per lane, 4
/// codes of `q + offset` a byte each. `most` is each vector's
/// [`max_abs_bits`], taken where its values lie side by side; `None` if
/// a vector is not finite or its largest magnitude is out of range.
fn quantize_panel<const W: usize>(
    panel: &[f32],
    most: [u32; W],
    levels: f32,
    offset: i32,
    mut store: impl FnMut(usize, [u32; W]),
) -> Option<PanelStats<W>> {
    let k = panel.len() / W;
    let (mut scale, mut inv) = ([0.0f32; W], [0.0f32; W]);
    for ((scale, inv), &most) in scale.iter_mut().zip(&mut inv).zip(&most) {
        let max = f32::from_bits(most);
        if !max.is_finite() || (max != 0.0 && !(RANGE_MIN..=RANGE_MAX).contains(&max)) {
            return None;
        }
        *scale = max / levels;
        *inv = if max == 0.0 { 0.0 } else { levels / max };
    }
    let magic = MAGIC.to_bits() as i32;
    let mut stats = PanelStats {
        scale,
        sum: [0; W],
        code_squares: [0; W],
        squares: [0.0; W],
        residues: [0.0; W],
    };
    let mut words = [0u32; W];
    for (t, row) in panel.chunks_exact(W).enumerate() {
        for l in 0..W {
            let v = row[l];
            let y = (v * inv[l]).clamp(-levels, levels) + MAGIC;
            let q = (y.to_bits() as i32).wrapping_sub(magic);
            let r = (-scale[l]).mul_add(y - MAGIC, v);
            stats.squares[l] += v * v;
            stats.residues[l] += r * r;
            stats.sum[l] += q;
            stats.code_squares[l] += q * q;
            words[l] |= ((q + offset) as u32 & 0xff) << (8 * (t % 4));
        }
        if t % 4 == 3 || t + 1 == k {
            store(t / 4, words);
            words = [0; W];
        }
    }
    Some(stats)
}

impl QuantRhs {
    /// Packs the `n x k` operand of `A @ B^T` — the matrix
    /// [`Matrix::pack_transposed`] takes, each row a column of the
    /// product — for the float kernels, as that does, and quantises it
    /// for `tier` in the same pass: the columns are shared out over the
    /// worker team, and each block of them is quantised from its float
    /// panels — columns side by side, so that every step is a vector
    /// instruction over them — while those are still in cache. The int8
    /// copy is `None` when the operand has no bounds (module doc): a
    /// column that is not finite or out of range, or `k` past 65,536.
    ///
    /// # Panics
    /// Panics if this CPU does not support `tier`.
    pub fn pack_transposed(rhs: &Matrix, tier: Int8Tier) -> (PackedRhs, Option<Self>) {
        assert!(tier.supported(), "QuantRhs: {tier:?} is not supported here");
        let (n, k) = rhs.shape();
        let floats = Tier::for_cols(n);
        if n == 0 || k == 0 || k > K_MAX {
            return (PackedRhs::from_transposed(rhs, floats), None);
        }
        match floats.panel_width() {
            16 => Self::pack::<16>(rhs, floats, tier),
            _ => Self::pack::<8>(rhs, floats, tier),
        }
    }

    /// [`pack_transposed`](Self::pack_transposed) for float panels `W`
    /// wide.
    fn pack<const W: usize>(
        rhs: &Matrix,
        floats: Tier,
        tier: Int8Tier,
    ) -> (PackedRhs, Option<Self>) {
        let (n, k) = rhs.shape();
        let (k4, w) = (k.next_multiple_of(4), tier.panel_width());
        let (gamma, squares_gamma) = (k as f64 * U / (1.0 - k as f64 * U), sum_gamma(k));
        // `k · 2^-149` over the smallest norm of a bounded row, `2^-40`.
        let floor = k as f64 * TINY * (1u64 << 40) as f64;
        let (threads, per_thread) = par::split_elems(n * k);
        // Whole screen blocks a chunk, so whole panels of either kind.
        let run = per_thread.div_ceil(k * SCREEN_COLS) * SCREEN_COLS;
        let (mut scale, mut sum) = (vec![0.0f32; n], vec![0i32; n]);
        let (mut resid, mut norm) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut blocks = vec![[0.0f32; 4]; n.div_ceil(SCREEN_COLS)];
        let bounded = AtomicBool::new(true);
        let mut codes = None;
        let float_panels = Panels::packed_by(n.div_ceil(W) * k * W, |float_panels| {
            codes = Some(Panels::packed_by(n.div_ceil(w) * k4 * w, |codes| {
                let chunks = float_panels
                    .chunks_mut(run * k)
                    .zip(codes.chunks_mut(run * k4))
                    .zip(scale.chunks_mut(run))
                    .zip(sum.chunks_mut(run))
                    .zip(resid.chunks_mut(run))
                    .zip(norm.chunks_mut(run))
                    .zip(blocks.chunks_mut(run / SCREEN_COLS))
                    .enumerate();
                par::for_each_chunk(threads, chunks, |(i, chunk)| {
                    let ((((((float_panels, codes), scale), sum), resid), norm), blocks) = chunk;
                    let block_floats = float_panels.chunks_mut(SCREEN_COLS * k);
                    for (b, (block_floats, block)) in block_floats.zip(blocks).enumerate() {
                        let col0 = i * run + b * SCREEN_COLS;
                        // Columns from the chunk's first, and those of
                        // this block that exist.
                        let c0 = b * SCREEN_COLS;
                        let cols = c0..(c0 + SCREEN_COLS).min(scale.len());
                        for (p, floats) in block_floats.chunks_exact_mut(k * W).enumerate() {
                            // A panel is quantised the moment it is
                            // packed, while it is in L1.
                            pack_rhs_transposed(W, rhs.as_slice(), n, k, col0 / W + p, floats);
                            if !bounded.load(Ordering::Relaxed) {
                                continue;
                            }
                            let lanes = c0 + p * W..(c0 + (p + 1) * W).min(cols.end);
                            // Padding lanes are zeros.
                            let mut most = [0u32; W];
                            for (most, c) in most.iter_mut().zip(lanes.clone()) {
                                *most = max_abs_bits(rhs.row(i * run + c));
                            }
                            let Some(stats) =
                                quantize_panel::<W>(floats, most, 127.0, 0, |g, words| {
                                    for (c, word) in lanes.clone().zip(words) {
                                        codes[(c / w * k4 + 4 * g) * w + 4 * (c % w)..][..4]
                                            .copy_from_slice(&word.to_le_bytes());
                                    }
                                })
                            else {
                                // A relaxed flag: the float panels are
                                // finished either way, and it is read
                                // again after the call has joined.
                                bounded.store(false, Ordering::Relaxed);
                                continue;
                            };
                            for (c, l) in lanes.zip(0..) {
                                let e_norm = norm_bound(stats.squares[l], k, squares_gamma);
                                let r_norm = norm_bound(stats.residues[l], k, squares_gamma);
                                let s = f64::from(stats.scale[l]);
                                let q_norm = f64::from(stats.code_squares[l]).sqrt();
                                scale[c] = stats.scale[l];
                                sum[c] = stats.sum[l];
                                resid[c] =
                                    up((r_norm + gamma * e_norm) * (1.0 + NORM_SLACK) + floor);
                                norm[c] = up(s * q_norm * (1.0 + NORM_SLACK));
                            }
                        }
                        let most =
                            |v: &[f32]| v.iter().fold(0.0f32, |m, &v| if v > m { v } else { m });
                        let least =
                            |v: &[f32]| v.iter().fold(f32::MAX, |m, &v| if v < m { v } else { m });
                        *block = [
                            most(&scale[cols.clone()]),
                            least(&scale[cols.clone()]),
                            most(&resid[cols.clone()]),
                            most(&norm[cols]),
                        ];
                    }
                });
            }));
        });
        let float_panels = PackedRhs::from_panels(floats, k, n, float_panels);
        let codes = codes.expect("packed above");
        let whole = blocks.iter().fold(
            [0.0, f32::MAX, 0.0, 0.0],
            |[s_max, s_min, resid, norm], b| {
                [
                    s_max.max(b[0]),
                    s_min.min(b[1]),
                    resid.max(b[2]),
                    norm.max(b[3]),
                ]
            },
        );
        let quant = bounded.into_inner().then_some(Self {
            k,
            k4,
            n,
            tier,
            panels: codes,
            scale,
            sum,
            resid,
            norm,
            blocks,
            whole,
        });
        (float_panels, quant)
    }

    /// The kernel tier the products run on.
    pub fn tier(&self) -> Int8Tier {
        self.tier
    }

    /// Quantises each row of `lhs` (`m x k`) for products with `self`.
    ///
    /// # Panics
    /// Panics if `lhs` has not the `k` columns `self` was packed with.
    pub fn quantize(&self, lhs: &Matrix) -> QuantRows {
        assert_eq!(lhs.cols(), self.k, "QuantRhs::quantize: row length");
        let mut codes = vec![0u8; lhs.rows() * self.k4];
        let rows = codes
            .chunks_exact_mut(self.k4)
            .enumerate()
            .map(|(r, codes)| quantize_row(lhs.row(r), codes))
            .collect();
        QuantRows {
            k4: self.k4,
            codes,
            rows,
        }
    }

    /// Computes the integer products `lhs @ self` — for each row and
    /// column `Σ u q`, exactly, the same on every tier — tile by tile,
    /// and hands each tile to `visit` as the float driver does
    /// ([`PackedRhs::for_each_tile`] documents what a visitor sees: the
    /// same row split over the worker team, the same ascending column
    /// order). The sums are the bytes as stored: a signed row's still
    /// carry its `128 Σq`, which the bounds take off. Returns the number
    /// of threads the rows were split over.
    ///
    /// # Panics
    /// Panics if `lhs` was quantised for an operand of another `k`, or
    /// `state.len()` is not a multiple of its rows.
    pub fn for_each_tile<S, F>(&self, lhs: &QuantRows, state: &mut [S], visit: F) -> usize
    where
        S: Send,
        F: Fn(&mut [S], &Tile<'_, i32>) + Sync,
    {
        assert_eq!(lhs.k4, self.k4, "QuantRhs::for_each_tile: row length");
        let m = lhs.rows();
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
        if per_row == 0 {
            return 1;
        }
        let (n, k4, w) = (self.n, self.k4, self.tier.panel_width());
        // An int8 step is a quarter of a float step's work.
        let threads = par::threads_for_macs(m.saturating_mul(n).saturating_mul(self.k) / 4);
        par::for_each_row_chunk_of(state, per_row, m, threads, |r0, state| {
            let rows = state.len() / per_row;
            let mut tile = TILE.take();
            if tile.len() < SIMD_ROWS * BLOCK_COLS {
                tile.resize(SIMD_ROWS * BLOCK_COLS, 0);
            }
            for col0 in (0..n).step_by(BLOCK_COLS) {
                let width = BLOCK_COLS.min(n - col0);
                let stride = width.div_ceil(w) * w;
                let panels = &self.panels.as_slice()[col0 * k4..(col0 + stride) * k4];
                for i in (0..rows).step_by(SIMD_ROWS) {
                    let h = SIMD_ROWS.min(rows - i);
                    let a = &lhs.codes[(r0 + i) * k4..(r0 + i + h) * k4];
                    let data = &mut tile[..h * stride];
                    match self.tier {
                        Int8Tier::Scalar => scalar_rows(a, h, k4, w, panels, data),
                        #[cfg(target_arch = "x86_64")]
                        tier => simd::dot8_rows(tier, a, h, k4, panels, data),
                        #[cfg(not(target_arch = "x86_64"))]
                        tier => unreachable!("{tier:?} is never supported, so never packed"),
                    }
                    let tile = Tile {
                        col0,
                        width,
                        stride,
                        data: &*data,
                    };
                    visit(&mut state[i * per_row..(i + h) * per_row], &tile);
                }
            }
            TILE.set(tile);
        })
    }

    /// Screens row `r` of `lhs` on columns `col0 ..` from their integer
    /// products `dots` (a tile row of
    /// [`for_each_tile`](Self::for_each_tile)): calls
    /// `reach(col, lower, upper)`, in column order, for every column
    /// whose upper bound reaches the floor — `floor` to begin with, then
    /// what the last `reach` returned. `lower ≤ x · e ≤ upper` holds for
    /// the float product [`PackedRhs::product_at`] computes for that row
    /// and column, of the operand this was quantised from; a column
    /// skipped has an upper bound below the floor of its moment.
    ///
    /// A block of columns is first tested whole, from its largest
    /// product — against one threshold for every block, then against
    /// its own summary of its columns' scales and terms — and only a
    /// block that may reach the floor is bounded column by column.
    ///
    /// # Panics
    /// Panics if row `r` is not bounded ([`QuantRows::is_bounded`]),
    /// `col0` does not start a tile, or the columns run past `n`.
    pub fn screen(
        &self,
        lhs: &QuantRows,
        r: usize,
        col0: usize,
        dots: &[i32],
        floor: f32,
        mut reach: impl FnMut(usize, f32, f32) -> f32,
    ) {
        let row = lhs.rows[r].expect("QuantRhs::screen: an unbounded row");
        assert_eq!(
            col0 % SCREEN_COLS,
            0,
            "QuantRhs::screen: a tile starts at {col0}"
        );
        let mut floor = floor;
        // Below this, a block's largest product fails its own test too.
        let mut least_anywhere = block_threshold(row, self.whole, floor);
        // Each block's products with a signed row's offset taken off
        // (`D`), padded to a whole block with `i32::MIN`, which is no
        // product and below every threshold: fixed lengths, so that the
        // loops over a block are vector code.
        let mut products = [i32::MIN; SCREEN_COLS];
        for (b, dots) in dots.chunks(SCREEN_COLS).enumerate() {
            let col0 = col0 + b * SCREEN_COLS;
            let cols = col0..col0 + dots.len();
            let most = if row.signed {
                for ((d, &dot), &sum) in products.iter_mut().zip(dots).zip(&self.sum[cols.clone()])
                {
                    *d = dot.wrapping_sub(sum.wrapping_shl(7));
                }
                products[..dots.len()]
                    .iter()
                    .fold(i32::MIN, |most, &d| most.max(d))
            } else {
                dots.iter().fold(i32::MIN, |most, &d| most.max(d))
            };
            let block = self.blocks[col0 / SCREEN_COLS];
            if most < least_anywhere || block_bound(row, block, most) < f64::from(floor) {
                continue;
            }
            if !row.signed {
                products[..dots.len()].copy_from_slice(dots);
            }
            products[dots.len()..].fill(i32::MIN);
            let least = block_threshold(row, block, floor).max(i32::MIN + 1);
            let (scale, resid, norm) = (
                &self.scale[cols.clone()],
                &self.resid[cols.clone()],
                &self.norm[cols],
            );
            for (j0, part) in (0..).step_by(32).zip(products.chunks_exact(32)) {
                // A mask of the columns at or above the threshold: a
                // vector compare, then only their bits are visited.
                let mut hits = part
                    .iter()
                    .enumerate()
                    .fold(0u32, |hits, (i, &d)| hits | (u32::from(d >= least) << i));
                while hits != 0 {
                    let j = j0 + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let high = bound(row, products[j], scale[j], resid[j], norm[j], 1.0);
                    if high >= floor {
                        let low = bound(row, products[j], scale[j], resid[j], norm[j], -1.0);
                        floor = reach(col0 + j, low, high);
                    }
                }
            }
            // Raised with the floor, once a block rather than a reach.
            least_anywhere = block_threshold(row, self.whole, floor);
        }
    }
}

/// `A + side (X R + Δ N)`, `side` ±1: one end of the interval of the
/// module doc for one column, from its integer product `d` (offset
/// taken off).
#[inline]
fn bound(row: RowBound, d: i32, scale: f32, resid: f32, norm: f32, side: f32) -> f32 {
    (d as f32 * scale) * row.scale + side * (row.x * resid + row.delta * norm)
}

/// An upper bound for every column of a block, from `most`, its largest
/// integer product (offset taken off), and its summary `[s_max, s_min,
/// R_max, N_max]`: `t s D ≤ t max(s_max D_max, s_min D_max)` whatever
/// the sign of `D`, and the slack is at most the largest terms'. In
/// `f64`, with `BLOCK_SLACK` of the approximation added for its
/// roundings.
fn block_bound(row: RowBound, block: [f32; 4], most: i32) -> f64 {
    let [s_max, s_min, resid, norm] = block.map(f64::from);
    let most = f64::from(most);
    let approx = f64::from(row.scale) * (most * s_max).max(most * s_min);
    approx + approx.abs() * BLOCK_SLACK + f64::from(row.x) * resid + f64::from(row.delta) * norm
}

/// The least integer product (offset taken off) with which a column of
/// `block` can have [`block_bound`] — so its own upper bound — reach
/// `floor`; `i32::MIN` while the slack alone may. It is one below the
/// quotient's ceiling, which `block_bound` falls short of by a whole
/// `t s_max` step, far more than any rounding here.
fn block_threshold(row: RowBound, block: [f32; 4], floor: f32) -> i32 {
    let [s_max, _, resid, norm] = block.map(f64::from);
    let slack = f64::from(row.x) * resid + f64::from(row.delta) * norm;
    let gap = f64::from(floor) - slack;
    if gap <= slack * NORM_SLACK {
        return i32::MIN;
    }
    let need = gap / (f64::from(row.scale) * s_max * (1.0 + BLOCK_SLACK));
    (need.ceil() - 1.0).clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}

/// The [`Int8Tier::Scalar`] row block, and the reference every kernel
/// matches: `h` rows of `a` against every panel of one column block.
fn scalar_rows(a: &[u8], h: usize, k4: usize, w: usize, panels: &[u8], out: &mut [i32]) {
    let stride = out.len() / h;
    for (p, panel) in panels.chunks_exact(k4 * w).take(stride / w).enumerate() {
        for (r, row) in a.chunks_exact(k4).enumerate() {
            for lane in 0..w {
                let column = panel
                    .chunks_exact(4 * w)
                    .flat_map(|group| &group[4 * lane..4 * lane + 4]);
                out[r * stride + p * w + lane] =
                    row.iter().zip(column).fold(0i32, |acc, (&u, &q)| {
                        acc.wrapping_add(i32::from(u) * i32::from(q as i8))
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(i: usize) -> f32 {
        ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0
    }

    /// The codes of column `j`, read back out of the panels.
    fn column_codes(q: &QuantRhs, j: usize) -> Vec<i8> {
        let w = q.tier.panel_width();
        let panel = &q.panels.as_slice()[j / w * q.k4 * w..][..q.k4 * w];
        (0..q.k)
            .map(|t| panel[(t / 4 * w + j % w) * 4 + t % 4] as i8)
            .collect()
    }

    /// Every tier's tiles hold the integer products a plain loop over the
    /// codes gives, and every tier quantises to the same codes and terms.
    #[test]
    fn every_tier_computes_the_reference_sums() {
        // The last is large enough to split over two threads.
        for &(m, k, n) in &[
            (1, 4, 1),
            (3, 7, 19),
            (8, 64, 40),
            (11, 33, 1100),
            (70, 5, 17),
            (64, 64, 4100),
        ] {
            let rhs = Matrix::from_fn(n, k, |r, c| pseudo(r * k + c) * 3.0);
            let lhs = Matrix::from_fn(m, k, |r, c| pseudo(r * 31 + c * 7 + 5));
            let scalar = QuantRhs::pack_transposed(&rhs, Int8Tier::Scalar).1.unwrap();
            for tier in Int8Tier::available() {
                let q = QuantRhs::pack_transposed(&rhs, tier).1.unwrap();
                assert_eq!(q.scale, scalar.scale, "{tier:?}");
                assert_eq!(
                    (&q.sum, &q.resid, &q.norm),
                    (&scalar.sum, &scalar.resid, &scalar.norm)
                );
                let rows = q.quantize(&lhs);
                let mut got = vec![i32::MIN; m * n];
                q.for_each_tile(&rows, &mut got, |out, tile| {
                    for (r, row) in out.chunks_exact_mut(n).enumerate() {
                        row[tile.col0..tile.col0 + tile.width()].copy_from_slice(tile.row(r));
                    }
                });
                for j in 0..n {
                    let codes = column_codes(&q, j);
                    assert_eq!(codes, column_codes(&scalar, j), "{tier:?} column {j}");
                    for r in 0..m {
                        let u = &rows.codes[r * q.k4..][..k];
                        let want: i32 = u
                            .iter()
                            .zip(&codes)
                            .map(|(&u, &q)| i32::from(u) * i32::from(q))
                            .sum();
                        assert_eq!(got[r * n + j], want, "{tier:?} ({m}, {k}, {n}) at {r}, {j}");
                    }
                }
            }
        }
    }

    /// The interval holds the float product on every tier and for both
    /// kinds of row, including columns that quantise exactly or to zero.
    #[test]
    fn bounds_hold_the_float_product() {
        let (m, k, n) = (9, 48, 300);
        let rhs = Matrix::from_fn(n, k, |r, c| match r % 5 {
            0 => 0.0,
            1 => ((r + c) % 7) as f32 - 3.0,
            _ => pseudo(r * k + c) * 1e-3,
        });
        let signed = Matrix::from_fn(m, k, |r, c| pseudo(r * 13 + c + 1) * 40.0);
        let unsigned = Matrix::from_fn(m, k, |r, c| pseudo(r * 13 + c + 1).max(0.0));
        for tier in Tier::available() {
            let packed = crate::PackedRhs::from_transposed(&rhs, tier);
            let q = QuantRhs::pack_transposed(&rhs, Int8Tier::detect())
                .1
                .unwrap();
            for lhs in [&signed, &unsigned] {
                let rows = q.quantize(lhs);
                let mut dots = vec![0i32; m * n];
                q.for_each_tile(&rows, &mut dots, |out, tile| {
                    for (r, row) in out.chunks_exact_mut(n).enumerate() {
                        row[tile.col0..tile.col0 + tile.width()].copy_from_slice(tile.row(r));
                    }
                });
                for r in 0..m {
                    assert!(rows.is_bounded(r));
                    let mut seen = 0;
                    q.screen(
                        &rows,
                        r,
                        0,
                        &dots[r * n..][..n],
                        f32::NEG_INFINITY,
                        |j, lo, hi| {
                            assert_eq!(j, seen, "every column, in order");
                            seen += 1;
                            let exact = packed.product_at(lhs.row(r), j);
                            assert!(
                                lo <= exact && exact <= hi,
                                "{tier:?} {r},{j}: {lo} {exact} {hi}"
                            );
                            // About 1/127 + 1/255 of the largest the product
                            // could be, on each side.
                            let norm = |v: &[f32]| v.iter().map(|v| v * v).sum::<f32>().sqrt();
                            let most = norm(lhs.row(r)) * norm(rhs.row(j));
                            assert!(hi - lo <= 0.03 * most + 1e-15, "loose: {lo} {hi} of {most}");
                            f32::NEG_INFINITY
                        },
                    );
                    assert_eq!(seen, n);
                    // A floor no column reaches skips them all, and a
                    // floor that rises on each one keeps only risers.
                    q.screen(
                        &rows,
                        r,
                        0,
                        &dots[r * n..][..n],
                        f32::MAX,
                        |_, _, _| unreachable!(),
                    );
                    let mut last = f32::NEG_INFINITY;
                    q.screen(&rows, r, 0, &dots[r * n..][..n], last, |_, lo, hi| {
                        assert!(hi >= last);
                        last = last.max(lo);
                        last
                    });
                }
            }
        }
    }

    /// Where Cauchy–Schwarz is tight — every rounding error of a column
    /// the same sign, against a row of ones; every rounding error of a
    /// row the same sign, against a constant column — the float product
    /// comes within a fifth of the slack of the interval's end, and stays
    /// inside it: the bound has no room to lose.
    #[test]
    fn the_bounds_hold_where_cauchy_schwarz_is_tight() {
        let k = 48;
        // Largest magnitude 127, so s = 1 and q is e rounded: residues
        // +0.49 in column 0, -0.49 in column 1; column 2 is constant.
        let rhs = Matrix::from_fn(3, k, |r, c| match (r, c) {
            (0 | 1, 0) => 127.0,
            (0, _) => (c % 50) as f32 + 0.49,
            (1, _) => (c % 50) as f32 + 0.51,
            _ => 100.0,
        });
        // Row 0 quantises exactly (u = 255); row 1's residues are all
        // +0.49 / 255.
        let lhs = Matrix::from_fn(2, k, |r, c| match (r, c) {
            (0, _) | (1, 0) => 1.0,
            _ => (c as f32 + 0.49) / 255.0,
        });
        let (packed, q) = QuantRhs::pack_transposed(&rhs, Int8Tier::detect());
        let q = q.unwrap();
        let rows = q.quantize(&lhs);
        let mut dots = vec![0i32; 2 * 3];
        q.for_each_tile(&rows, &mut dots, |out, tile| {
            for (r, row) in out.chunks_exact_mut(3).enumerate() {
                row[tile.col0..tile.col0 + tile.width()].copy_from_slice(tile.row(r));
            }
        });
        // (row, column, +1 if the product sits at the top of its interval).
        for (r, j, side) in [(0, 0, 1.0f32), (0, 1, -1.0), (1, 2, 1.0)] {
            let exact = packed.product_at(lhs.row(r), j);
            let mut interval = None;
            q.screen(
                &rows,
                r,
                0,
                &dots[r * 3..][..3],
                f32::NEG_INFINITY,
                |c, lo, hi| {
                    if c == j {
                        interval = Some((lo, hi));
                    }
                    f32::NEG_INFINITY
                },
            );
            let (lo, hi) = interval.unwrap();
            assert!(lo <= exact && exact <= hi, "{r},{j}: {lo} {exact} {hi}");
            let mid = (lo + hi) / 2.0;
            let reach = side * (exact - mid) / ((hi - lo) / 2.0);
            assert!(
                reach > 0.8,
                "{r},{j}: {exact} reaches {reach} of [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn rows_and_columns_out_of_range_have_no_bounds() {
        let fine = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let q = QuantRhs::pack_transposed(&fine, Int8Tier::Scalar)
            .1
            .unwrap();
        let lhs = Matrix::from_vec(
            5,
            3,
            vec![
                0.0,
                0.0,
                0.0, // all zero
                1e-13,
                0.0,
                0.0, // below 2^-40
                1e13,
                0.0,
                0.0, // above 2^40
                f32::NAN,
                1.0,
                1.0, //
                -1.0,
                0.5,
                0.0, // fine, signed
            ],
        );
        let rows = q.quantize(&lhs);
        let bounded: Vec<bool> = (0..5).map(|r| rows.is_bounded(r)).collect();
        assert_eq!(bounded, [false, false, false, false, true]);
        assert!(rows.codes[..12].iter().all(|&c| c == 0));
        // The float panels are whole either way, every column after the
        // refused one included.
        for bad in [1e-13, 1e13, f32::INFINITY, f32::NAN] {
            let rhs = Matrix::from_fn(300, 5, |r, c| if r == 20 { bad } else { (r + c) as f32 });
            let (packed, quant) = QuantRhs::pack_transposed(&rhs, Int8Tier::Scalar);
            assert!(quant.is_none(), "{bad}");
            let unpacked = packed.unpack_transposed();
            let same = |a: &f32, b: &f32| a.to_bits() == b.to_bits();
            assert!(unpacked
                .as_slice()
                .iter()
                .zip(rhs.as_slice())
                .all(|(a, b)| same(a, b)));
        }
    }
}
