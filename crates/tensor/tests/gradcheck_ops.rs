//! Certifies every differentiable op on the tape against central finite
//! differences. Each test builds a small composite loss through one op and
//! compares `Tape::backward` with `finite_diff_grad`.

use std::sync::Arc;

use smgcn_tensor::gradcheck::{compare, finite_diff_grad};
use smgcn_tensor::init::seeded_rng;
use smgcn_tensor::prelude::*;

const EPS: f32 = 1e-3;
const TOL: f32 = 3e-3;

/// Runs gradcheck for every parameter of a model whose loss is produced by
/// `build`. `build` must be deterministic in the store contents.
fn check_all(store: &mut ParamStore, build: impl Fn(&ParamStore, &mut Tape) -> Var) {
    // Analytic gradients.
    let grads = {
        let tape_store = store.clone();
        let mut tape = Tape::new(&tape_store);
        let loss = build(&tape_store, &mut tape);
        tape.backward(loss)
    };
    let ids: Vec<ParamId> = store.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let numeric = finite_diff_grad(store, id, EPS, |s| {
            let mut tape = Tape::new(s);
            let loss = build(s, &mut tape);
            tape.value(loss).get(0, 0)
        });
        let analytic = grads
            .get(id)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(numeric.rows(), numeric.cols()));
        let report = compare(&analytic, &numeric);
        assert!(
            report.passes(TOL),
            "gradient mismatch for param {}: {report:?}",
            store.name(id)
        );
    }
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    xavier_uniform(rows, cols, &mut rng)
}

#[test]
fn gradcheck_matmul() {
    let mut store = ParamStore::new();
    store.add("a", rand_matrix(3, 4, 1));
    store.add("b", rand_matrix(4, 2, 2));
    check_all(&mut store, |s, tape| {
        let (a, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let va = tape.param(a);
        let vb = tape.param(b);
        let p = tape.matmul(va, vb);
        tape.sum_squares(p)
    });
}

#[test]
fn gradcheck_matmul_transb() {
    let mut store = ParamStore::new();
    store.add("a", rand_matrix(3, 4, 3));
    store.add("b", rand_matrix(5, 4, 4));
    check_all(&mut store, |s, tape| {
        let (a, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let va = tape.param(a);
        let vb = tape.param(b);
        let p = tape.matmul_transb(va, vb);
        tape.sum_squares(p)
    });
}

#[test]
fn gradcheck_add_sub_scale_affine() {
    let mut store = ParamStore::new();
    store.add("a", rand_matrix(2, 3, 5));
    store.add("b", rand_matrix(2, 3, 6));
    check_all(&mut store, |s, tape| {
        let (a, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let va = tape.param(a);
        let vb = tape.param(b);
        let sum = tape.add(va, vb);
        let diff = tape.sub(sum, vb);
        let scaled = tape.scale(diff, 1.7);
        let aff = tape.affine(scaled, -0.5, 0.25);
        tape.sum_squares(aff)
    });
}

#[test]
fn gradcheck_add_bias() {
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(4, 3, 7));
    store.add("bias", rand_matrix(1, 3, 8));
    check_all(&mut store, |s, tape| {
        let (x, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let vx = tape.param(x);
        let vb = tape.param(b);
        let y = tape.add_bias(vx, vb);
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_hadamard() {
    let mut store = ParamStore::new();
    store.add("a", rand_matrix(3, 3, 9));
    store.add("b", rand_matrix(3, 3, 10));
    check_all(&mut store, |s, tape| {
        let (a, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let va = tape.param(a);
        let vb = tape.param(b);
        let h = tape.hadamard(va, vb);
        tape.sum_squares(h)
    });
}

#[test]
fn gradcheck_scale_rows() {
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(4, 3, 11));
    store.add("s", rand_matrix(4, 1, 12));
    check_all(&mut store, |s, tape| {
        let (x, sc) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let vx = tape.param(x);
        let vs = tape.param(sc);
        let y = tape.scale_rows(vx, vs);
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_tanh_sigmoid() {
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(3, 4, 13));
    check_all(&mut store, |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let t = tape.tanh(vx);
        let sg = tape.sigmoid(t);
        tape.sum_squares(sg)
    });
}

#[test]
fn gradcheck_leaky_relu() {
    // Shift entries away from 0 so finite differences do not straddle the kink.
    let mut store = ParamStore::new();
    let base = rand_matrix(3, 4, 14).map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
    store.add("x", base);
    check_all(&mut store, |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let y = tape.leaky_relu(vx, 0.2);
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_relu() {
    let mut store = ParamStore::new();
    let base = rand_matrix(3, 4, 15).map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
    store.add("x", base);
    check_all(&mut store, |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let y = tape.relu(vx);
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_concat_cols() {
    let mut store = ParamStore::new();
    store.add("a", rand_matrix(3, 2, 16));
    store.add("b", rand_matrix(3, 3, 17));
    check_all(&mut store, |s, tape| {
        let (a, b) = (s.iter().next().unwrap().0, s.iter().nth(1).unwrap().0);
        let va = tape.param(a);
        let vb = tape.param(b);
        let cat = tape.concat_cols(va, vb);
        let t = tape.tanh(cat);
        tape.sum_squares(t)
    });
}

#[test]
fn gradcheck_spmm() {
    let adj = CsrMatrix::from_triplets(
        4,
        3,
        &[
            (0, 0, 1.0),
            (0, 2, 0.5),
            (1, 1, 1.0),
            (2, 0, 2.0),
            (3, 2, -1.0),
        ],
    );
    let shared = SharedCsr::new(adj);
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(3, 2, 18));
    check_all(&mut store, move |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let y = tape.spmm(&shared, vx);
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_gather_rows() {
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(5, 3, 19));
    let indices = Arc::new(vec![0u32, 2, 2, 4]);
    check_all(&mut store, move |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let g = tape.gather_rows(vx, indices.clone());
        tape.sum_squares(g)
    });
}

#[test]
fn gradcheck_dropout_mask() {
    let mut store = ParamStore::new();
    store.add("x", rand_matrix(3, 4, 20));
    let mask = {
        let mut rng = seeded_rng(21);
        use rand::Rng;
        Arc::new(Matrix::from_fn(3, 4, |_, _| {
            if rng.gen::<f32>() < 0.5 {
                2.0
            } else {
                0.0
            }
        }))
    };
    check_all(&mut store, move |s, tape| {
        let x = s.iter().next().unwrap().0;
        let vx = tape.param(x);
        let y = tape.dropout_with_mask(vx, mask.clone());
        tape.sum_squares(y)
    });
}

#[test]
fn gradcheck_weighted_mse() {
    let mut store = ParamStore::new();
    store.add("pred", rand_matrix(4, 5, 22));
    // The 4 x 5 multi-hot target whose ones are where `r + c` is odd.
    let target = Arc::new(LabelSets::from_rows([
        &[1u32, 3][..],
        &[0, 2, 4],
        &[1, 3],
        &[0, 2, 4],
    ]));
    let weights = Arc::new(vec![1.0f32, 3.0, 0.5, 2.0, 1.5]);
    check_all(&mut store, move |s, tape| {
        let p = s.iter().next().unwrap().0;
        let vp = tape.param(p);
        tape.weighted_mse(vp, target.clone(), weights.clone())
    });
}

#[test]
fn gradcheck_bpr() {
    let mut store = ParamStore::new();
    store.add("pred", rand_matrix(3, 6, 23));
    let pairs = Arc::new(vec![(0u32, 1u32, 4u32), (1, 0, 5), (2, 3, 2), (0, 2, 3)]);
    check_all(&mut store, move |s, tape| {
        let p = s.iter().next().unwrap().0;
        let vp = tape.param(p);
        tape.bpr_loss(vp, pairs.clone())
    });
}

#[test]
fn gradcheck_deep_composite_like_smgcn() {
    // A miniature of the full SMGCN forward: two bipartite propagation hops
    // with concat aggregation, a synergy hop, fusion, set pooling, MLP and
    // weighted MSE — all in one tape, checked end to end.
    let sh = CsrMatrix::from_triplets(3, 4, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
    let sh_norm = SharedCsr::new(sh.row_normalized());
    let hs_norm = SharedCsr::new(sh.transpose().row_normalized());
    let ss = SharedCsr::new(CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]));
    let pool = SharedCsr::new(CsrMatrix::from_triplets(
        2,
        3,
        &[(0, 0, 0.5), (0, 1, 0.5), (1, 2, 1.0)],
    ));
    let target = Arc::new(LabelSets::from_rows([&[1u32, 3][..], &[1, 3]]));
    let weights = Arc::new(vec![1.0f32, 2.0, 1.0, 0.5]);

    let mut store = ParamStore::new();
    store.add("e_s", rand_matrix(3, 4, 31));
    store.add("e_h", rand_matrix(4, 4, 32));
    store.add("t_s", rand_matrix(4, 4, 33));
    store.add("w_s", rand_matrix(8, 4, 34));
    store.add("v_s", rand_matrix(4, 4, 35));
    store.add("w_mlp", rand_matrix(4, 4, 36));
    store.add("b_mlp", rand_matrix(1, 4, 37));

    check_all(&mut store, move |s, tape| {
        let ids: Vec<ParamId> = s.iter().map(|(id, _, _)| id).collect();
        let (e_s, e_h, t_s, w_s, v_s, w_mlp, b_mlp) =
            (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        let es = tape.param(e_s);
        let eh = tape.param(e_h);
        // Symptom-oriented hop: mean over herb neighbors of (e_h T_s), tanh,
        // concat with self, aggregate.
        let ts = tape.param(t_s);
        let msg = tape.matmul(eh, ts);
        let merged = tape.spmm(&sh_norm, msg);
        let merged = tape.tanh(merged);
        let cat = tape.concat_cols(es, merged);
        let ws = tape.param(w_s);
        let bs = tape.matmul(cat, ws);
        let bs = tape.tanh(bs);
        // Synergy hop on SS with sum aggregation.
        let vs = tape.param(v_s);
        let syn = tape.spmm(&ss, es);
        let syn = tape.matmul(syn, vs);
        let rs = tape.tanh(syn);
        // Fusion + set pooling + MLP.
        let fused = tape.add(bs, rs);
        let pooled = tape.spmm(&pool, fused);
        let wm = tape.param(w_mlp);
        let lin = tape.matmul(pooled, wm);
        let bm = tape.param(b_mlp);
        let lin = tape.add_bias(lin, bm);
        let syndrome = tape.relu(lin);
        // Herb tower: one herb-oriented mean hop for variety.
        let hmerged = tape.spmm(&hs_norm, es);
        let eh_fused = tape.add(eh, hmerged);
        let scores = tape.matmul_transb(syndrome, eh_fused);
        tape.weighted_mse(scores, target.clone(), weights.clone())
    });
}
