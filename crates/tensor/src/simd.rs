//! The explicit `std::arch` micro-kernels, and all of this crate's
//! `unsafe`.
//!
//! Three safe functions are the only way in: [`rows`] (a block of a
//! dense product against packed panels), [`dot8_rows`] (the same against
//! int8 panels, in integers) and [`spmm_row`] (one output row of a
//! sparse-dense product). Each checks, in safe code, everything its
//! kernel relies on — the CPU feature, every slice length that bounds a
//! pointer offset and, for the sparse kernel, every column index — before
//! a pointer is formed, so no caller can reach the `unsafe` with
//! arguments that make it unsound.

use crate::gemm::{Arith, Tier, SIMD_ROWS};
use crate::quant::Int8Tier;

/// Computes `h` rows of `a` (`h x k`) against `out.len() / h / W`
/// consecutive panels (`k x W` each, `W` the tier's vector width)
/// into `out` (`h` rows, one `W`-wide group per panel). Every output is
/// one accumulator walking `t` ascending from zero; `arith` says whether
/// a step rounds once ([`Arith::Fused`]) or twice ([`Arith::Exact`]).
///
/// # Panics
/// Panics if `tier` is scalar or unsupported by this CPU, `h` is not
/// in `1..=SIMD_ROWS`, or the slice lengths disagree with `h` and `k`.
pub(crate) fn rows(
    tier: Tier,
    arith: Arith,
    a: &[f32],
    h: usize,
    k: usize,
    panels: &[f32],
    out: &mut [f32],
) {
    let w = tier.panel_width();
    assert!((1..=SIMD_ROWS).contains(&h), "tile height {h}");
    assert_eq!(a.len(), h * k, "left rows");
    assert_eq!(out.len() % (h * w), 0, "tile is whole panels wide");
    let n_panels = out.len() / (h * w);
    assert_eq!(panels.len(), n_panels * k * w, "panel block");
    assert!(tier.supported(), "{tier:?} kernels on a CPU without them");
    let (a, panels, out) = (a.as_ptr(), panels.as_ptr(), out.as_mut_ptr());
    // SAFETY (all four arms): `tier.supported()` was just asserted, so
    // the CPU has AVX-512F, or AVX2 and FMA; `a` is `h * k` floats,
    // `panels` is `n_panels` panels of `k * W`, `out` is `h` rows of
    // `n_panels * W` (all asserted above), which is what `rows` requires.
    match (tier, arith) {
        (Tier::Avx512, Arith::Fused) => unsafe { avx512::rows(a, h, k, panels, n_panels, out) },
        (Tier::Avx512, Arith::Exact) => unsafe {
            avx512_exact::rows(a, h, k, panels, n_panels, out)
        },
        (Tier::Avx2, Arith::Fused) => unsafe { avx2::rows(a, h, k, panels, n_panels, out) },
        (Tier::Avx2, Arith::Exact) => unsafe { avx2_exact::rows(a, h, k, panels, n_panels, out) },
        (Tier::Scalar, _) => panic!("the scalar tier has no SIMD kernel"),
    }
}

/// Computes `h` rows of `a` (`h x k4` unsigned bytes, `k4` a multiple
/// of 4) against `out.len() / h / W` consecutive int8 panels (`W` the
/// tier's lanes; a panel holds, for each group of 4 reduction steps, the
/// 4 signed bytes of each of its `W` columns, two's complement in a
/// `u8`) into `out` (`h` rows, one
/// `W`-wide group per panel): every output is `sum_t a[t] * b[t]` in
/// `i32`, wrapping, which is exact while `k4 * 255 * 128 < 2^31`.
///
/// # Panics
/// Panics if `tier` is scalar or unsupported by this CPU, `h` is not in
/// `1..=SIMD_ROWS`, `k4` is not a multiple of 4, or the slice lengths
/// disagree with `h` and `k4`.
pub(crate) fn dot8_rows(
    tier: Int8Tier,
    a: &[u8],
    h: usize,
    k4: usize,
    panels: &[u8],
    out: &mut [i32],
) {
    let w = tier.panel_width();
    assert!((1..=SIMD_ROWS).contains(&h), "tile height {h}");
    assert!(
        k4.is_multiple_of(4),
        "reduction of {k4} is not whole groups of 4"
    );
    assert_eq!(a.len(), h * k4, "left rows");
    assert_eq!(out.len() % (h * w), 0, "tile is whole panels wide");
    let n_panels = out.len() / (h * w);
    assert_eq!(panels.len(), n_panels * k4 * w, "panel block");
    assert!(tier.supported(), "{tier:?} kernels on a CPU without them");
    let (a, panels, out) = (a.as_ptr(), panels.as_ptr().cast::<i8>(), out.as_mut_ptr());
    // SAFETY (both arms): `tier.supported()` was just asserted, so the
    // CPU has AVX-512F and AVX-512 VNNI, or AVX2 and AVX-VNNI; `a` is
    // `h * k4` bytes, `panels` is `n_panels` panels of `k4 * W`, `out` is
    // `h` rows of `n_panels * W` (all asserted above), and `k4` is whole
    // groups of 4, which is what `rows` requires.
    match tier {
        Int8Tier::Avx512Vnni => unsafe { vnni512::rows(a, h, k4, panels, n_panels, out) },
        Int8Tier::AvxVnni => unsafe { avx_vnni::rows(a, h, k4, panels, n_panels, out) },
        Int8Tier::Scalar => panic!("the scalar int8 tier has no SIMD kernel"),
    }
}

/// Whether [`spmm_row`] has a kernel for output rows `n` wide on `tier`:
/// a SIMD tier, and a whole number of its vectors (ragged widths stay on
/// the scalar loop).
pub(crate) fn spmm_row_fits(tier: Tier, n: usize) -> bool {
    tier != Tier::Scalar && n > 0 && n.is_multiple_of(tier.panel_width())
}

/// One output row of a sparse-dense product:
/// `out[j] = sum_e vals[e] * dense[cols[e]][j]`, where `dense` is
/// row-major with rows as wide as `out`. Every `out[j]` is one
/// accumulator starting at `0.0` and taking the stored entries in order,
/// `mul` then `add` — the scalar loop's order and roundings, so its
/// bits — held in registers across the whole row instead of being
/// reloaded and stored per entry.
///
/// # Panics
/// Panics unless [`spmm_row_fits`]`(tier, out.len())`, the CPU supports
/// `tier`, `cols` and `vals` are equally long, `dense` is whole rows,
/// and every column index names one of them.
pub(crate) fn spmm_row(tier: Tier, cols: &[u32], vals: &[f32], dense: &[f32], out: &mut [f32]) {
    let n = out.len();
    assert!(
        spmm_row_fits(tier, n),
        "{tier:?} has no row kernel for width {n}"
    );
    assert_eq!(cols.len(), vals.len(), "one value per column index");
    assert_eq!(dense.len() % n, 0, "dense operand is whole rows");
    let dense_rows = dense.len() / n;
    assert!(
        cols.iter().all(|&c| (c as usize) < dense_rows),
        "column index past the dense operand's {dense_rows} rows"
    );
    assert!(tier.supported(), "{tier:?} kernels on a CPU without them");
    let (nnz, cols, vals) = (cols.len(), cols.as_ptr(), vals.as_ptr());
    let (dense, out) = (dense.as_ptr(), out.as_mut_ptr());
    // SAFETY (both arms): the CPU supports the tier; `cols` and `vals`
    // are `nnz` long; every `cols[e] < dense_rows` and `dense` is
    // `dense_rows * n` floats, so each row the kernel reads is inside it;
    // `out` is `n` floats and `n` is a multiple of the vector width (all
    // asserted above).
    match tier {
        Tier::Avx512 => unsafe { spmm_avx512::row(cols, vals, nnz, dense, n, out) },
        Tier::Avx2 => unsafe { spmm_avx2::row(cols, vals, nnz, dense, n, out) },
        Tier::Scalar => unreachable!("refused by spmm_row_fits"),
    }
}

/// One kernel source for both vector widths and both arithmetics.
/// `tile::<R, P>` keeps an `R x P` grid of accumulator registers (`R`
/// rows of `a`, `P` consecutive panels) across the whole reduction: each
/// accumulator is one chain over `t` ascending from zero — the contract —
/// and the grid gives the arithmetic units `R * P` independent chains.
/// `$x` scales `P` to the register file: 1 for the 16 `ymm` registers
/// (8 x 1 main tile), 2 for the 32 `zmm` ones (8 x 2: measured 157
/// against 113 GFLOP/s for 8 x 1 on one core of the build host, fused).
/// The last argument is the step that folds `a * b` into `acc`: one
/// `fmadd` for serving's tiers, `add(acc, mul(a, b))` — two roundings,
/// the reference kernels' bits — for training's.
macro_rules! tile_tier {
    ($tier:ident, $features:literal, $lanes:literal, $x:literal, $zero:ident,
     $set1:ident, $load:ident, $store:ident, |$a:ident, $b:ident, $acc:ident| $step:expr) => {
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
                            let ($a, $b, $acc) = (av, bv, *acc);
                            *acc = $step;
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
                        tile::<R, P>(a, k, panels.add(p * k * LANES), out.add(p * LANES), stride)
                    };
                    p += P;
                }
                while p < n_panels {
                    // SAFETY: panel `p` exists, with its output columns.
                    unsafe {
                        tile::<R, 1>(a, k, panels.add(p * k * LANES), out.add(p * LANES), stride)
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

tile_tier!(
    avx512,
    "avx512f",
    16,
    2,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    |a, b, acc| _mm512_fmadd_ps(a, b, acc)
);
tile_tier!(
    avx2,
    "avx2,fma",
    8,
    1,
    _mm256_setzero_ps,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    |a, b, acc| _mm256_fmadd_ps(a, b, acc)
);
// Training's tiers: the same tiles, stepping by a separate `mul` and
// `add`. Neither rustc nor LLVM contracts the pair into an `fmadd`
// (that needs a fast-math flag nothing here sets), and the AVX2 one does
// not even enable the `fma` feature.
tile_tier!(
    avx512_exact,
    "avx512f",
    16,
    2,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    |a, b, acc| _mm512_add_ps(acc, _mm512_mul_ps(a, b))
);
tile_tier!(
    avx2_exact,
    "avx2",
    8,
    1,
    _mm256_setzero_ps,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    |a, b, acc| _mm256_add_ps(acc, _mm256_mul_ps(a, b))
);

/// The int8 tiles, [`dot8_rows`]'s kernels: `tile::<R, P>` keeps the
/// same `R x P` grid of accumulators as `tile_tier!`'s, in `i32` lanes.
/// Each step takes one group of 4 reduction steps: the 4 bytes of a row
/// of `a`, broadcast to every lane, meet the 4 bytes of each of a
/// panel's columns in one `vpdpbusd` (unsigned times signed, summed in
/// pairs and fours into the lane, no saturation). Integer sums are
/// exact whatever the order, so every kernel gives every other's bits.
macro_rules! dot8_tier {
    ($tier:ident, $features:literal, $lanes:literal, $x:literal, $zero:ident,
     $set1:ident, $load:ident, $store:ident, $dot:ident) => {
        mod $tier {
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;

            /// `R` rows of `a` against `P` consecutive panels at `b`,
            /// stored at `out` (row stride `stride`).
            ///
            /// # Safety
            /// The CPU must support the enabled features; `k4` must be a
            /// multiple of 4; `a` must be valid for reads of `R * k4`
            /// bytes, `b` of `P * k4 * LANES`, and `out` for writes of
            /// `P * LANES` integers at each of `R` row offsets
            /// `r * stride`.
            #[inline]
            #[target_feature(enable = $features)]
            unsafe fn tile<const R: usize, const P: usize>(
                a: *const u8,
                k4: usize,
                b: *const i8,
                out: *mut i32,
                stride: usize,
            ) {
                let mut acc = [[$zero(); P]; R];
                for g in 0..k4 / 4 {
                    let mut bv = [$zero(); P];
                    for (p, bv) in bv.iter_mut().enumerate() {
                        // SAFETY: `p < P` and `4 * g < k4`, so the
                        // `4 * LANES` bytes read end inside
                        // `P * k4 * LANES`.
                        *bv = unsafe { $load(b.add((p * k4 + 4 * g) * LANES).cast()) };
                    }
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        // SAFETY: `r < R` and `4 * g + 4 <= k4`: inside
                        // `R * k4`.
                        let av =
                            $set1(unsafe { a.add(r * k4 + 4 * g).cast::<i32>().read_unaligned() });
                        for (acc, &bv) in acc_row.iter_mut().zip(&bv) {
                            *acc = $dot(*acc, av, bv);
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    for (p, &acc) in acc_row.iter().enumerate() {
                        // SAFETY: `r < R`, `p < P`: one of the
                        // `P * LANES` integers of row `r` the caller
                        // vouched for.
                        unsafe { $store(out.add(r * stride + p * LANES).cast(), acc) };
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
                a: *const u8,
                k4: usize,
                panels: *const i8,
                n_panels: usize,
                out: *mut i32,
            ) {
                let stride = n_panels * LANES;
                let mut p = 0;
                while p + P <= n_panels {
                    // SAFETY: panels `p .. p + P` exist, and so do
                    // their `P * LANES` columns of each output row.
                    unsafe {
                        tile::<R, P>(
                            a,
                            k4,
                            panels.add(p * k4 * LANES),
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
                            k4,
                            panels.add(p * k4 * LANES),
                            out.add(p * LANES),
                            stride,
                        )
                    };
                    p += 1;
                }
            }

            /// `h` rows of `a` against `n_panels` panels into `out`,
            /// short row blocks trading rows for panels as the float
            /// tiles do.
            ///
            /// # Safety
            /// The CPU must support the enabled features, `h` must be
            /// in `1..=8`, `k4` a multiple of 4, and `a` must be valid
            /// for reads of `h * k4` bytes, `panels` of
            /// `n_panels * k4 * LANES`, `out` for writes of
            /// `h * n_panels * LANES` integers.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn rows(
                a: *const u8,
                h: usize,
                k4: usize,
                panels: *const i8,
                n_panels: usize,
                out: *mut i32,
            ) {
                // SAFETY: each arm passes the caller's guarantees on
                // with `R = h`.
                unsafe {
                    match h {
                        8 => span::<8, { 1 * $x }>(a, k4, panels, n_panels, out),
                        7 => span::<7, { 1 * $x }>(a, k4, panels, n_panels, out),
                        6 => span::<6, { 1 * $x }>(a, k4, panels, n_panels, out),
                        5 => span::<5, { 1 * $x }>(a, k4, panels, n_panels, out),
                        4 => span::<4, { 2 * $x }>(a, k4, panels, n_panels, out),
                        3 => span::<3, { 2 * $x }>(a, k4, panels, n_panels, out),
                        2 => span::<2, { 4 * $x }>(a, k4, panels, n_panels, out),
                        1 => span::<1, { 4 * $x }>(a, k4, panels, n_panels, out),
                        _ => unreachable!("tile height {h}"),
                    }
                }
            }
        }
    };
}

dot8_tier!(
    vnni512,
    "avx512f,avx512vnni",
    16,
    2,
    _mm512_setzero_si512,
    _mm512_set1_epi32,
    _mm512_loadu_si512,
    _mm512_storeu_si512,
    _mm512_dpbusd_epi32
);
dot8_tier!(
    avx_vnni,
    "avx2,avxvnni",
    8,
    1,
    _mm256_setzero_si256,
    _mm256_set1_epi32,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_dpbusd_avx_epi32
);

/// The sparse row kernel for one vector width: `strip::<V>` holds `V`
/// vectors of the output row in registers while it walks the row's
/// stored entries once; `row` covers the width with strips of 8, 4, 2
/// and 1 vectors (8 independent `add` chains keep both ports busy; a
/// 64-wide row on AVX-512 is one strip of 4).
macro_rules! spmm_tier {
    ($tier:ident, $features:literal, $lanes:literal, $zero:ident, $set1:ident,
     $load:ident, $store:ident, $mul:ident, $add:ident) => {
        mod $tier {
            use std::arch::x86_64::*;

            const LANES: usize = $lanes;

            /// Columns `0 .. V * LANES` of the row at `out`, from the
            /// same columns of the dense rows at `dense`.
            ///
            /// # Safety
            /// The CPU must support the enabled features; `cols` and
            /// `vals` must be valid for reads of `nnz` elements; for
            /// every `e < nnz`, `dense` must be valid for reads of
            /// `V * LANES` floats at offset `cols[e] * n`; `out` must be
            /// valid for writes of `V * LANES` floats.
            #[inline]
            #[target_feature(enable = $features)]
            unsafe fn strip<const V: usize>(
                cols: *const u32,
                vals: *const f32,
                nnz: usize,
                dense: *const f32,
                n: usize,
                out: *mut f32,
            ) {
                let mut acc = [$zero(); V];
                for e in 0..nnz {
                    // SAFETY: `e < nnz`, the length of both arrays.
                    let (c, a) = unsafe { (*cols.add(e) as usize, $set1(*vals.add(e))) };
                    for (v, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `v < V`: inside the `V * LANES` floats
                        // at `cols[e] * n` the caller vouched for.
                        let b = unsafe { $load(dense.add(c * n + v * LANES)) };
                        *acc = $add(*acc, $mul(a, b));
                    }
                }
                for (v, &acc) in acc.iter().enumerate() {
                    // SAFETY: `v < V`: inside `out`'s `V * LANES` floats.
                    unsafe { $store(out.add(v * LANES), acc) };
                }
            }

            /// The whole `n`-wide row.
            ///
            /// # Safety
            /// The CPU must support the enabled features; `n` must be a
            /// multiple of `LANES`; `cols` and `vals` must be valid for
            /// reads of `nnz` elements; `dense` for reads of `n` floats
            /// at offset `cols[e] * n` for every `e < nnz`; `out` for
            /// writes of `n` floats.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn row(
                cols: *const u32,
                vals: *const f32,
                nnz: usize,
                dense: *const f32,
                n: usize,
                out: *mut f32,
            ) {
                let mut j = 0;
                // SAFETY (all four): columns `j .. j + V * LANES` are
                // inside the `n` the caller vouched for, of `out` and of
                // every dense row read.
                while j + 8 * LANES <= n {
                    unsafe { strip::<8>(cols, vals, nnz, dense.add(j), n, out.add(j)) };
                    j += 8 * LANES;
                }
                if j + 4 * LANES <= n {
                    unsafe { strip::<4>(cols, vals, nnz, dense.add(j), n, out.add(j)) };
                    j += 4 * LANES;
                }
                if j + 2 * LANES <= n {
                    unsafe { strip::<2>(cols, vals, nnz, dense.add(j), n, out.add(j)) };
                    j += 2 * LANES;
                }
                if j + LANES <= n {
                    unsafe { strip::<1>(cols, vals, nnz, dense.add(j), n, out.add(j)) };
                }
            }
        }
    };
}

spmm_tier!(
    spmm_avx512,
    "avx512f",
    16,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_mul_ps,
    _mm512_add_ps
);
spmm_tier!(
    spmm_avx2,
    "avx2",
    8,
    _mm256_setzero_ps,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);

#[cfg(test)]
mod tests {
    use super::*;

    fn refused(call: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).is_err()
    }

    fn simd_tier() -> Option<Tier> {
        Tier::available().into_iter().find(|&t| t != Tier::Scalar)
    }

    /// The safe door to the tile kernels refuses slices that do not
    /// bound the offsets the kernels form.
    #[test]
    fn rows_checks_lengths_before_any_pointer_is_formed() {
        let Some(tier) = simd_tier() else {
            return;
        };
        let (w, k) = (tier.panel_width(), 5);
        let (a, panels) = (vec![1.0f32; 2 * k], vec![1.0f32; 3 * k * w]);
        for arith in [Arith::Fused, Arith::Exact] {
            let refused = |a: &[f32], h: usize, panels: &[f32], out_len: usize| {
                let mut out = vec![0.0f32; out_len];
                refused(|| rows(tier, arith, a, h, k, panels, &mut out))
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

    /// The safe door to the int8 tiles refuses what would take their
    /// pointers past the slices, on every VNNI tier this CPU has.
    #[test]
    fn dot8_rows_checks_lengths_before_any_pointer_is_formed() {
        for tier in Int8Tier::available() {
            let (w, k4) = (tier.panel_width(), 8);
            let (a, panels) = (vec![1u8; 2 * k4], vec![1u8; 3 * k4 * w]);
            let refused = |a: &[u8], h: usize, k4: usize, panels: &[u8], out_len: usize| {
                let mut out = vec![0i32; out_len];
                refused(|| dot8_rows(tier, a, h, k4, panels, &mut out))
            };
            if tier == Int8Tier::Scalar {
                assert!(refused(&a, 2, k4, &panels, 2 * 3 * w), "no SIMD kernel");
                continue;
            }
            assert!(
                !refused(&a, 2, k4, &panels, 2 * 3 * w),
                "a well-formed call"
            );
            assert!(
                refused(&a[1..], 2, k4, &panels, 2 * 3 * w),
                "short left rows"
            );
            assert!(
                refused(&a, 2, k4, &panels[1..], 2 * 3 * w),
                "short panel block"
            );
            assert!(refused(&a, 2, k4, &panels, 2 * 3 * w - 1), "ragged tile");
            assert!(
                refused(&a[..12], 2, 6, &panels[..3 * 6 * w], 2 * 3 * w),
                "a reduction that is not whole groups of 4"
            );
            assert!(refused(&a, 0, k4, &panels, 0), "no rows");
            assert!(
                refused(&[1u8; 9 * 8], 9, k4, &panels, 9 * 3 * w),
                "too many rows"
            );
        }
    }

    /// The safe door to the sparse row kernel refuses a column index
    /// past the dense operand — and everything else its pointers would
    /// rely on — before any load.
    #[test]
    fn spmm_row_checks_every_index_before_any_load() {
        let Some(tier) = simd_tier() else {
            return;
        };
        let n = 2 * tier.panel_width();
        let dense = vec![1.0f32; 3 * n];
        let refused_on = |tier, cols: &[u32], vals: &[f32], dense: &[f32], width: usize| {
            let mut out = vec![f32::NAN; width];
            let refused = refused(|| spmm_row(tier, cols, vals, dense, &mut out));
            // A refusal wrote nothing.
            assert!(!refused || out.iter().all(|v| v.is_nan()));
            refused
        };
        let refused = |cols, vals, dense, width| refused_on(tier, cols, vals, dense, width);
        assert!(
            !refused(&[0, 2], &[1.0, 2.0], &dense, n),
            "a well-formed row"
        );
        assert!(!refused(&[], &[], &dense, n), "an empty row");
        assert!(refused(&[0, 3], &[1.0, 2.0], &dense, n), "index one past");
        assert!(refused(&[u32::MAX], &[1.0], &dense, n), "index far past");
        assert!(refused(&[0, 1], &[1.0], &dense, n), "a value short");
        assert!(refused(&[0], &[1.0], &dense[1..], n), "ragged dense");
        assert!(refused(&[0], &[1.0], &dense, n - 1), "ragged width");
        assert!(refused(&[0], &[1.0], &dense, 0), "no width");
        assert!(
            refused_on(Tier::Scalar, &[0], &[1.0], &dense, n),
            "the scalar tier has no row kernel"
        );
    }
}
