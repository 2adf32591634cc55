//! Micro-benchmarks for what the repository benchmark cannot time: the
//! served Eq. 13 product at the batch heights a replica sees, the fused
//! score-and-select batch, the ranking in one stage and in two (and the
//! int8 pack behind the second), training's products on every kernel tier,
//! each graph operator as SpMM against dense, and the worker team's
//! handoff. Layers the benchmark's traced run already times at the
//! paper's shapes (`tensor.gemm.*`, `tensor.sparse.spmm_us`,
//! `core.trainer.*`, `serve.artifact.*`, `graph.operators.build_ms`,
//! `data.generator.generate_ms`) are not timed again here.
//!
//! `cargo bench -p smgcn-eval --bench kernels`; informational, the
//! repository benchmark is the gate.

use smgcn_data::{GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_serve::{partial_top_k, FrozenModel};
use smgcn_tensor::init::{seeded_rng, xavier_uniform};
use smgcn_tensor::par::{for_each_chunk, threads_for_macs};
use smgcn_tensor::{Int8Tier, Matrix, ParamStore, QuantRhs, Tape, Tier};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    serve_scores();
    score_large_fused();
    rank_batch();
    let ops = paper_ops();
    train_kernels(&ops);
    spmm_vs_dense(&ops);
    par_handoff();
}

/// Mean µs a call of `f` takes: calls for a 150 ms warm-up, then calls
/// until 600 ms have passed, so that a 7 µs product and a 20 ms batch
/// are timed over the same wall budget.
fn mean_us<R>(mut f: impl FnMut() -> R) -> f64 {
    const WARM_UP: Duration = Duration::from_millis(150);
    const MEASURE: Duration = Duration::from_millis(600);
    let start = Instant::now();
    while start.elapsed() < WARM_UP {
        black_box(f());
    }
    let (start, mut calls) = (Instant::now(), 0u32);
    loop {
        black_box(f());
        calls += 1;
        if start.elapsed() >= MEASURE {
            return start.elapsed().as_secs_f64() * 1e6 / f64::from(calls);
        }
    }
}

/// The served Eq. 13 product, right operand packed per call
/// (`matmul_transb`, training's kernels) against packed once
/// (`matmul_packed`, the serving tier's). The paper shape runs at one,
/// two and eight queries: what a replica's batches actually hold, and
/// the guard that the short-row edge kernels are not slower than the
/// tile they stand in for (15.8 µs at m = 1 before the FMA tiers).
fn serve_scores() {
    println!("PackedRhs kernel tier: {:?}", Tier::detect());
    for (m, d, herbs) in [
        (1, 256, 753),
        (2, 256, 753),
        (8, 256, 753),
        (64, 64, 65_536),
    ] {
        let mut rng = seeded_rng(4);
        let syndrome = xavier_uniform(m, d, &mut rng);
        let herb_rows = xavier_uniform(herbs, d, &mut rng);
        let packed = herb_rows.pack_transposed();
        let per_call = mean_us(|| syndrome.matmul_transb(&herb_rows));
        let once = mean_us(|| syndrome.matmul_packed(&packed));
        for (variant, us) in [("pack_per_call", per_call), ("packed_once", once)] {
            let id = format!("serve_scores/{variant}/{m}x{d}x{herbs}");
            println!("{id:<40} {us:>9.2} µs");
        }
    }
}

/// The repository benchmark's `score_large` batch (64 queries, 65,536
/// herbs, d = 64, top-10) both ways in one stage: the score matrix
/// written and then selected from row by row, against `recommend_batch`,
/// which selects from each GEMM tile while it is in L1 and writes no
/// matrix. The rates (2 B d H flop a batch) are the point; the model is
/// held to one stage by name, since at this size it would take two
/// (`rank_batch/*` below).
fn score_large_fused() {
    const BATCH: usize = 64;
    const DIM: usize = 64;
    const HERBS: usize = 65_536;
    const K: usize = 10;
    let mut rng = seeded_rng(7);
    let model = FrozenModel::from_parts(
        xavier_uniform(8192, DIM, &mut rng),
        xavier_uniform(HERBS, DIM, &mut rng),
        None,
    )
    .expect("consistent shapes")
    .with_stage_one(None);
    let sets: Vec<Vec<u32>> = (0..BATCH as u32)
        .map(|q| (0..3 + q % 7).map(|i| (q * 131 + i * 977) % 8192).collect())
        .collect();
    let sets: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
    let unfused = || {
        let scores = model.score_batch(&sets).expect("valid sets");
        (0..BATCH)
            .map(|r| partial_top_k(scores.row(r), K))
            .collect::<Vec<_>>()
    };
    let fused = || model.recommend_batch(&sets, K).expect("valid sets");
    assert_eq!(unfused(), fused(), "fused and unfused rankings differ");
    for (name, us) in [
        ("score_batch+partial_top_k", mean_us(unfused)),
        ("recommend_batch", mean_us(fused)),
    ] {
        println!(
            "score_large_fused/{name:<27} {:>8.2} ms / batch {:>7.1} GFLOP/s {:>7.1} µs / row",
            us / 1e3,
            2.0 * (BATCH * DIM * HERBS) as f64 / us / 1e3,
            us / BATCH as f64,
        );
    }
}

/// `rank_batch` at k = 10 in one stage (the float path) and in two
/// (int8 candidates, exact re-score) on this host's fastest int8 tier,
/// and the int8 pack a two-stage model does at load. The paper shape
/// (360 symptoms x 753 herbs, d = 256, with the SI head) at the batch
/// heights a replica sees; `score_large`'s shape (8,192 x 65,536, d =
/// 64, batches of 64) with the head (queries ≥ 0) and without it
/// (signed queries). The rows behind `TWO_STAGE_MIN_BYTES` in
/// `frozen.rs`.
fn rank_batch() {
    let tier = Int8Tier::detect();
    println!("stage-1 int8 tier: {tier:?}");
    for (shape, m, symptoms, herbs, d, head) in [
        ("paper", 1, 360, 753, 256, true),
        ("paper", 2, 360, 753, 256, true),
        ("paper", 8, 360, 753, 256, true),
        ("score_large", 64, 8192, 65_536, 64, true),
        ("score_large", 64, 8192, 65_536, 64, false),
    ] {
        let mut rng = seeded_rng(11);
        let herb_rows = xavier_uniform(herbs, d, &mut rng);
        let model = FrozenModel::from_parts(
            xavier_uniform(symptoms, d, &mut rng),
            herb_rows.clone(),
            head.then(|| {
                (
                    xavier_uniform(d, d, &mut rng),
                    xavier_uniform(1, d, &mut rng),
                )
            }),
        )
        .expect("consistent shapes");
        let one = model.clone().with_stage_one(None);
        let two = model.with_stage_one(Some(tier));
        let sets: Vec<Vec<u32>> = (0..m as u32)
            .map(|q| {
                (0..3 + q % 7)
                    .map(|i| (q * 131 + i * 977) % symptoms as u32)
                    .collect()
            })
            .collect();
        let sets: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let rank = |model: &FrozenModel| model.recommend_batch(&sets, 10).expect("valid sets");
        assert_eq!(rank(&one), rank(&two), "the two stages rank differently");
        let (one_us, two_us) = (mean_us(|| rank(&one)), mean_us(|| rank(&two)));
        let float_us = mean_us(|| herb_rows.pack_transposed());
        let pack_us = mean_us(|| QuantRhs::pack_transposed(&herb_rows, tier)) - float_us;
        println!(
            "rank_batch/{shape}/{}/{m:<2} {:>6} KB of panels: one stage {one_us:>8.1} µs, two stages {two_us:>8.1} µs ({:.2}x); int8 pack {:>7.2} ms",
            if head { "head" } else { "no_head" },
            herbs * d * 4 / 1024,
            one_us / two_us,
            pack_us / 1e3,
        );
    }
}

/// The kernels under one paper-scale training step (`train_paper`), at
/// the shapes the trainer calls them with — 1113 = 360 + 753 nodes,
/// batch 1024, 753 herbs, 256-wide syndromes — as output rows x
/// reduction x output columns. Every tier computes the same bits here,
/// so a row per tier is a pure speed comparison.
fn train_kernels(ops: &GraphOperators) {
    println!("training kernel tier: {:?}", Tier::detect());
    let mut rng = seeded_rng(8);
    let mut dense = |rows, cols| xavier_uniform(rows, cols, &mut rng);
    type Product = fn(Tier, &Matrix, &Matrix) -> Matrix;
    let products: [(&str, Product, (usize, usize, usize)); 5] = [
        ("matmul", Tier::matmul, (1113, 64, 128)),
        ("matmul", Tier::matmul, (1024, 753, 256)),
        ("transb", Tier::matmul_transb, (1024, 256, 753)),
        ("transa", Tier::matmul_transa, (753, 1024, 256)),
        ("transa", Tier::matmul_transa, (256, 1024, 256)),
    ];
    for (name, product, (m, k, n)) in products {
        let (a, b) = match name {
            "matmul" => (dense(m, k), dense(k, n)),
            "transb" => (dense(m, k), dense(n, k)),
            _ => (dense(k, m), dense(k, n)),
        };
        for tier in Tier::available() {
            let us = mean_us(|| product(tier, &a, &b));
            println!(
                "train_kernels/{name}/{:<14} {tier:<7?} {:>8.1} µs {:>6.1} GFLOP/s ({} threads)",
                format!("{m}x{k}x{n}"),
                us,
                2.0 * (m * k * n) as f64 / us / 1e3,
                threads_for_macs(m * k * n),
            );
        }
    }
    let bipartite = ops.sh_mean.forward();
    for width in [64usize, 128] {
        let x = dense(bipartite.cols(), width);
        let us = mean_us(|| bipartite.spmm(&x));
        println!(
            "train_kernels/spmm/{:<16} {:>8.1} µs {:>6.1} GFLOP/s ({} stored entries)",
            format!("{}x{}x{width}", bipartite.rows(), bipartite.cols()),
            us,
            2.0 * (bipartite.nnz() * width) as f64 / us / 1e3,
            bipartite.nnz(),
        );
    }
    let store = ParamStore::new();
    let x = dense(1113, 832).scale(40.0);
    let us = mean_us(|| {
        let mut tape = Tape::new(&store);
        let v = tape.input(x.clone());
        tape.tanh(v)
    });
    let copy_us = mean_us(|| Tape::new(&store).input(x.clone()));
    println!(
        "train_kernels/tanh/1113x832 {:>17.1} µs {:>6.2} ns / activation",
        us - copy_us,
        (us - copy_us) * 1e3 / x.len() as f64,
    );
}

/// The paper-scale corpus's graph operators.
fn paper_ops() -> GraphOperators {
    let corpus = SyndromeModel::new(GeneratorConfig::paper_scale()).generate();
    GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds::default(),
    )
}

/// Every graph operator of a paper-scale step, and its transpose (the
/// backward product), at the layer widths: the SpMM row kernel against
/// an exact dense GEMM on the densified operator, which computes the
/// same bits. The record behind `SharedCsr`'s choice of the dense form
/// from two fifths of the entries stored: the bipartite operators store
/// 61%, the synergy graphs 10% and less.
fn spmm_vs_dense(ops: &GraphOperators) {
    let mut rng = seeded_rng(9);
    for (name, shared) in [
        ("sh_mean", &ops.sh_mean),
        ("hs_mean", &ops.hs_mean),
        ("ss_sum", &ops.ss_sum),
        ("hh_sum", &ops.hh_sum),
    ] {
        for (side, a) in [("A", shared.forward()), ("A^T", shared.backward())] {
            let dense_a = a.to_dense();
            for width in [64usize, 128] {
                let x = xavier_uniform(a.cols(), width, &mut rng);
                let (mut sparse, mut gemm) = (
                    Matrix::zeros(a.rows(), width),
                    Matrix::zeros(a.rows(), width),
                );
                let sparse_us = mean_us(|| a.spmm_into(&x, &mut sparse));
                let gemm_us = mean_us(|| dense_a.matmul_into(&x, &mut gemm));
                let same = sparse.as_slice() == gemm.as_slice();
                println!(
                    "spmm_vs_dense/{name}/{side:<3} {:>9} {:>4.0}% stored: spmm {sparse_us:>7.1} µs, dense {gemm_us:>7.1} µs ({:.2}x){}",
                    format!("{}x{}x{width}", a.rows(), a.cols()),
                    100.0 * a.nnz() as f64 / (a.rows() * a.cols()) as f64,
                    sparse_us / gemm_us,
                    if same { "" } else { "  RESULTS DIFFER" },
                );
            }
        }
    }
}

/// What a chunked call costs beyond its work: `for_each_chunk` over two
/// chunks that each spin for a fixed time, wall time minus one chunk's,
/// as a median and a p90 over single calls. `hot` calls follow each
/// other at once, so the worker is spinning when the call is published;
/// `parked` calls come after a pause longer than the worker's spin
/// budget, so it is woken through its condvar (the cold path: the caller
/// may take both chunks before it arrives). With one configured thread
/// both chunks run on the caller and the "handoff" reads as one chunk's
/// time.
fn par_handoff() {
    let busy = |us: u64| {
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(us) {
            std::hint::spin_loop();
        }
    };
    for (state, pause) in [
        ("hot", Duration::ZERO),
        ("parked", Duration::from_millis(2)),
    ] {
        for us in [0u64, 50, 200, 800] {
            let calls = if pause.is_zero() { 2000 } else { 200 };
            let mut over: Vec<f64> = (0..calls)
                .map(|_| {
                    std::thread::sleep(pause);
                    let start = Instant::now();
                    for_each_chunk(2, 0..2, |_| busy(us));
                    start.elapsed().as_secs_f64() * 1e6 - us as f64
                })
                .collect();
            over.sort_by(f64::total_cmp);
            println!(
                "par_handoff/{state:<6} 2 x {us:>3} µs chunks: wall - work {:>7.2} µs median {:>7.2} µs p90",
                over[calls / 2],
                over[calls * 9 / 10],
            );
        }
    }
}
