//! Property tests for the training hot path: the tiled GEMM kernels must
//! match the naive reference kernels **bit for bit** (not approximately —
//! the per-element accumulation order and the two roundings per step are
//! the contract) on **every kernel tier this CPU supports**, and a
//! buffer-pooled tape must produce bit-identical gradients to an unpooled
//! one, including when its recycled buffers are full of stale garbage.
//! The serving side's pack-once operand (`PackedRhs`) is held to its own
//! contract on every tier too, each called directly rather than
//! through dispatch: one accumulator per output
//! walking `t` ascending — fused on the SIMD tiers (== a naive `mul_add`
//! loop, bit for bit), `mul` then `add` on the scalar tier (== `matmul`,
//! bit for bit).

use std::sync::{Arc, Once};

use proptest::prelude::*;
use smgcn_tensor::init::seeded_rng;
use smgcn_tensor::{
    BufferPool, CsrMatrix, LabelSets, Matrix, PackedRhs, ParamStore, SharedCsr, Tape, Tier,
};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        // Sprinkle exact zeros so the reference kernels' zero-skip path is
        // exercised too.
        if rng.gen_range(0.0f32..1.0) < 0.15 {
            0.0
        } else {
            rng.gen_range(-3.0f32..3.0)
        }
    })
}

/// The shapes one case of a tiled-vs-reference property checks: the
/// drawn triple (any slot may be 0), its degenerate variants (a 1 in
/// each slot: row vectors, column vectors, one-step reductions) and — on
/// the property's first case only, they are far larger than the rest
/// together — the shapes paper-scale training runs this product at (the
/// ones the benchmark's `train_paper` probes: 1113 = 360 + 753 nodes,
/// batch 1024, 753 herbs, 256-wide syndromes).
fn shapes_with_training(
    (m, k, n): (usize, usize, usize),
    training: &[(usize, usize, usize)],
    first_case: &Once,
) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(m, k, n), (1, k, n), (m, 1, n), (m, k, 1)];
    first_case.call_once(|| shapes.extend_from_slice(training));
    shapes
}

fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x} vs {y}"
        );
    }
}

proptest! {
    /// `A @ B` on every tier this CPU has == naive `A @ B`: empty and
    /// one-step reductions, heights off the 8-row tile, widths off the
    /// 16-lane panel and under the 32-column main tile, and a GCN
    /// layer's `1113x64 @ 64x128`.
    #[test]
    fn tiled_matmul_is_bit_identical(m in 0usize..34, k in 0usize..34, n in 0usize..70, seed in 0u64..500) {
        static FIRST: Once = Once::new();
        for (m, k, n) in shapes_with_training((m, k, n), &[(1113, 64, 128), (1024, 753, 256)], &FIRST) {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed ^ 0x9e37);
            let naive = a.matmul_reference(&b);
            assert_bits_equal(&a.matmul(&b), &naive, &format!("matmul {m}x{k}x{n}"));
            for tier in Tier::available() {
                assert_bits_equal(&tier.matmul(&a, &b), &naive, &format!("{tier:?} matmul {m}x{k}x{n}"));
            }
        }
    }

    /// `A @ B^T` on every tier == naive `A @ B^T`, including the
    /// prediction layer's `1024x256 @ (753x256)^T`.
    #[test]
    fn tiled_transb_is_bit_identical(m in 0usize..34, k in 0usize..34, n in 0usize..70, seed in 0u64..500) {
        static FIRST: Once = Once::new();
        for (m, k, n) in shapes_with_training((m, k, n), &[(1024, 256, 753)], &FIRST) {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(n, k, seed ^ 0x51f1);
            let naive = a.matmul_transb_reference(&b);
            assert_bits_equal(&a.matmul_transb(&b), &naive, &format!("transb {m}x{k}x{n}"));
            for tier in Tier::available() {
                assert_bits_equal(&tier.matmul_transb(&a, &b), &naive, &format!("{tier:?} transb {m}x{k}x{n}"));
            }
        }
    }

    /// `A^T @ B` on every tier == naive `A^T @ B` == transpose-then-
    /// matmul, including the backward pass's weight gradients: the herb
    /// table's `(1024x753)^T @ 1024x256`, an MLP's `(1024x256)^T @
    /// 1024x256`, and the benchmark probe's `(1024x256)^T @ 1024x753`.
    #[test]
    fn tiled_transa_is_bit_identical(m in 0usize..34, k in 0usize..34, n in 0usize..70, seed in 0u64..500) {
        static FIRST: Once = Once::new();
        let training = [(1024, 753, 256), (1024, 256, 256), (1024, 256, 753)];
        for (m, k, n) in shapes_with_training((m, k, n), &training, &FIRST) {
            let a = random_matrix(m, k, seed);
            let g = random_matrix(m, n, seed ^ 0x2bad);
            let naive = a.matmul_transa_reference(&g);
            assert_bits_equal(&a.matmul_transa(&g), &naive, &format!("transa {m}x{k}x{n}"));
            assert_bits_equal(
                &a.transpose().matmul(&g),
                &naive,
                &format!("transa-vs-transpose {m}x{k}x{n}"),
            );
            for tier in Tier::available() {
                assert_bits_equal(&tier.matmul_transa(&a, &g), &naive, &format!("{tier:?} transa {m}x{k}x{n}"));
            }
        }
    }

    /// Every tier, on shapes around every edge of its kernels: tile
    /// heights 1..=8 and past them, `n` below one panel / ragged / whole
    /// panels, reductions of 1, 2 and the two served widths.
    #[test]
    fn packed_rhs_holds_its_contract_on_every_tier(
        m in 1usize..34,
        n in 1usize..70,
        pick in 0usize..9,
        seed in 0u64..500,
    ) {
        let k = [1usize, 2, 64, 256][pick % 4];
        let heights = [1usize, 2, 3, 5, 7, 8, 9, 17, 64];
        let shapes = [(m, k, n), (heights[pick], k, n), (m, 3 + pick, n), (m, k, n | 1), (m, k, 1)];
        for (m, k, n) in shapes {
            let a = random_matrix(m, k, seed);
            let bt = random_matrix(n, k, seed ^ 0x51f1);
            let b = bt.transpose();
            let fused = mul_add_oracle(&a, &b);
            let split = a.matmul_transb(&bt);
            assert_bits_equal(&split, &a.matmul(&b), "the two training products");
            for tier in Tier::available() {
                let what = format!("{tier:?} {m}x{k}x{n}");
                let packed = PackedRhs::from_transposed(&bt, tier);
                prop_assert_eq!((packed.rows(), packed.cols()), (k, n));
                assert_bits_equal(&packed.unpack_transposed(), &bt, "unpack_transposed");
                assert_bits_equal(&packed.unpack(), &b, "unpack of a transposed pack");
                let got = a.matmul_packed(&packed);
                let same_panels = PackedRhs::from_rhs(&b, tier);
                assert_bits_equal(&same_panels.unpack(), &b, "unpack");
                assert_bits_equal(&a.matmul_packed(&same_panels), &got, "pack_rhs == pack_transposed");
                if tier == Tier::Scalar {
                    // The fallback is HEAD's kernels: training's bits.
                    assert_bits_equal(&got, &split, &format!("{what} vs matmul_transb"));
                    assert_bits_equal(&got, &a.matmul_transb_reference(&bt), &format!("{what} vs reference"));
                } else {
                    assert_bits_equal(&got, &fused, &format!("{what} vs mul_add"));
                }
                // Fused or not, the product is the same to rounding.
                let bound = 1e-5 * k as f32 * max_abs(&a) * max_abs(&bt);
                prop_assert!(got.max_abs_diff(&split) <= bound, "{what}: {} > {bound}", got.max_abs_diff(&split));

                // `_into` fully overwrites a dirty output buffer.
                let mut out = Matrix::filled(m, n, f32::NAN);
                a.matmul_packed_into(&packed, &mut out);
                assert_bits_equal(&out, &got, "matmul_packed_into");

                // Tiles: every (row, col) exactly once, each row's in
                // ascending column order, holding the product's values.
                let mut seen: Vec<Vec<f32>> = vec![Vec::new(); m];
                packed.for_each_tile(&a, &mut seen, |rows, tile| {
                    assert_eq!(rows.len(), tile.rows());
                    for (r, row) in rows.iter_mut().enumerate() {
                        assert_eq!(row.len(), tile.col0, "{what}: a tile out of column order");
                        assert_eq!(tile.row(r).len(), tile.width());
                        row.extend_from_slice(tile.row(r));
                    }
                });
                for (r, row) in seen.iter().enumerate() {
                    prop_assert_eq!(row.len(), n, "{}: row {} coverage", what, r);
                    prop_assert!(row.iter().zip(got.row(r)).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        }
    }

    /// A pooled tape (including one whose pool is pre-poisoned with stale
    /// buffers) computes bit-identical forward values and gradients to an
    /// unpooled tape over a representative op graph.
    #[test]
    fn pooled_tape_matches_unpooled_bitwise(rows in 2usize..9, dim in 2usize..9, seed in 0u64..200) {
        let mut store = ParamStore::new();
        let w = store.add("w", random_matrix(dim, dim, seed));
        let e = store.add("e", random_matrix(rows, dim, seed ^ 7));
        let bias = store.add("b", random_matrix(1, dim, seed ^ 13));
        let adj = {
            use rand::Rng;
            let mut rng = seeded_rng(seed ^ 99);
            let triplets: Vec<(u32, u32, f32)> = (0..rows * 2)
                .map(|_| {
                    (
                        rng.gen_range(0..rows as u32),
                        rng.gen_range(0..rows as u32),
                        1.0,
                    )
                })
                .collect();
            SharedCsr::new(CsrMatrix::from_triplets(rows, rows, &triplets).row_normalized())
        };
        let target = {
            let signs = random_matrix(rows, dim, seed ^ 21);
            let ones: Vec<Vec<u32>> = (0..rows)
                .map(|r| (0..dim as u32).filter(|&c| signs.get(r, c as usize) > 0.0).collect())
                .collect();
            Arc::new(LabelSets::from_rows(ones.iter().map(Vec::as_slice)))
        };
        let weights = Arc::new(vec![1.5f32; dim]);

        let run = |tape: &mut Tape<'_>| {
            let ev = tape.param(e);
            let wv = tape.param(w);
            let bv = tape.param(bias);
            let prop = tape.spmm(&adj, ev);
            let lin = tape.matmul(prop, wv);
            let lin = tape.add_bias(lin, bv);
            let act = tape.tanh(lin);
            let cat = tape.concat_cols(act, ev);
            let idx = Arc::new((0..rows as u32).rev().collect::<Vec<_>>());
            let picked = tape.gather_rows(cat, idx);
            let pick_reg = tape.sum_squares(picked);
            let pick_reg = tape.scale(pick_reg, 0.001);
            let scores = tape.matmul_transb(act, ev);
            let scored = tape.matmul(scores, ev);
            let fused = tape.add(scored, act);
            let loss = tape.weighted_mse(fused, target.clone(), weights.clone());
            let reg = tape.sum_squares(wv);
            let reg = tape.scale(reg, 0.01);
            let total = tape.add(loss, reg);
            let total = tape.add(total, pick_reg);
            let grads = tape.backward(total);
            (tape.value(total).clone(), grads)
        };

        let mut plain_tape = Tape::new(&store);
        let (loss_plain, grads_plain) = run(&mut plain_tape);

        // Poison the pool with stale buffers of the right sizes, then run
        // twice so the second run reuses the first run's dirty buffers.
        let pool = BufferPool::new();
        pool.release(random_matrix(rows, dim, 1234));
        pool.release(random_matrix(dim, dim, 4321));
        for round in 0..2 {
            let mut pooled_tape = Tape::with_pool(&store, &pool);
            let (loss_pooled, grads_pooled) = run(&mut pooled_tape);
            assert_bits_equal(&loss_plain, &loss_pooled, &format!("loss round {round}"));
            for (id, gp) in grads_plain.iter() {
                let gq = grads_pooled.get(id).expect("same gradient coverage");
                assert_bits_equal(gp, gq, &format!("grad {} round {round}", store.name(id)));
            }
            pooled_tape.recycle();
            grads_pooled.recycle_into(&pool);
        }
    }
}

fn max_abs(m: &Matrix) -> f32 {
    m.as_slice().iter().fold(0.0, |max, v| max.max(v.abs()))
}

/// Naive `a @ b` with one `mul_add` chain per output, `t` ascending from
/// `0.0`: the spec of the SIMD tiers.
fn mul_add_oracle(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |r, c| {
        (0..a.cols()).fold(0.0f32, |acc, t| a.get(r, t).mul_add(b.get(t, c), acc))
    })
}

/// Says which kernels the suite above exercised on this host.
#[test]
fn prints_the_tiers_that_ran() {
    println!(
        "kernel tiers exercised: {:?} (dispatch picks {:?})",
        Tier::available(),
        Tier::detect()
    );
    assert_eq!(Tier::available().first(), Some(&Tier::Scalar));
    assert!(Tier::available().contains(&Tier::detect()));
}

/// One `PackedRhs` shared by four threads gives every thread the
/// single-thread result: the panels are immutable and `Sync`, and no
/// product goes through per-thread pack scratch.
#[test]
fn packed_rhs_is_shared_across_threads() {
    let herbs = random_matrix(753, 64, 11);
    let queries: Vec<Matrix> = (0..4)
        .map(|t| random_matrix(1 + t, 64, 100 + t as u64))
        .collect();
    for tier in Tier::available() {
        let packed = PackedRhs::from_transposed(&herbs, tier);
        let want: Vec<Matrix> = queries.iter().map(|q| q.matmul_packed(&packed)).collect();
        let barrier = std::sync::Barrier::new(queries.len());
        std::thread::scope(|scope| {
            for (q, want) in queries.iter().zip(&want) {
                let (packed, barrier) = (&packed, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..50 {
                        assert_bits_equal(&q.matmul_packed(packed), want, "shared PackedRhs");
                    }
                });
            }
        });
    }
}

/// The product does not depend on how `par` splits the rows: a 64-row
/// product wide enough to be threaded (where the host has the cores)
/// equals, bit for bit, its rows computed one at a time on the calling
/// thread — which also crosses the 8-row tile with the 1-row edge kernel.
#[test]
fn packed_product_is_independent_of_the_row_split() {
    let herbs = random_matrix(4099, 64, 21);
    let batch = random_matrix(64, 64, 22);
    for tier in Tier::available() {
        let packed = PackedRhs::from_transposed(&herbs, tier);
        let whole = batch.matmul_packed(&packed);
        for r in 0..batch.rows() {
            let alone = Matrix::from_vec(1, 64, batch.row(r).to_vec()).matmul_packed(&packed);
            assert_eq!(
                alone.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                whole.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{tier:?} row {r}"
            );
        }
    }
}
