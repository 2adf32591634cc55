//! Criterion microbenchmarks for the substrate kernels behind every
//! experiment: dense GEMM (training's and serving's, per kernel tier),
//! sparse SpMM, the activation, the worker team's handoff, graph
//! construction, the SMGCN
//! forward pass, one full forward+backward training step, metric
//! computation, and the codecs a model publish passes through.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smgcn_core::batch::make_batch;
use smgcn_core::prelude::*;
use smgcn_data::{GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_tensor::init::{seeded_rng, xavier_uniform};
use smgcn_tensor::{CsrMatrix, Tape, Tier};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_matmul");
    for &n in &[64usize, 256, 512] {
        let mut rng = seeded_rng(1);
        let a = xavier_uniform(n, n, &mut rng);
        let b = xavier_uniform(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_matmul_transb(c: &mut Criterion) {
    // The Eq. 13 prediction kernel shape: (batch x d) @ (H x d)^T.
    let mut rng = seeded_rng(2);
    let syndrome = xavier_uniform(1024, 256, &mut rng);
    let herbs = xavier_uniform(753, 256, &mut rng);
    c.bench_function("prediction_scores_1024x753", |bencher| {
        bencher.iter(|| std::hint::black_box(syndrome.matmul_transb(&herbs)));
    });
}

fn bench_matmul_packed(c: &mut Criterion) {
    // The served Eq. 13 product, right operand packed per call
    // (`matmul_transb`, training's kernels) against packed once
    // (`matmul_packed`, the serving tier's). The paper shape runs at one,
    // two and eight queries: what a replica's batches actually hold, and
    // the guard that the short-row edge kernels are not slower than the
    // tile they stand in for (15.8 us at m = 1 before the FMA tiers).
    println!("PackedRhs kernel tier: {:?}", Tier::detect());
    let mut group = c.benchmark_group("serve_scores");
    for &(m, d, herbs) in &[
        (1usize, 256usize, 753usize),
        (2, 256, 753),
        (8, 256, 753),
        (64, 64, 65536),
    ] {
        let mut rng = seeded_rng(4);
        let syndrome = xavier_uniform(m, d, &mut rng);
        let herb_rows = xavier_uniform(herbs, d, &mut rng);
        let packed = herb_rows.pack_transposed();
        let shape = format!("{m}x{d}x{herbs}");
        group.bench_with_input(BenchmarkId::new("pack_per_call", &shape), &(), |b, _| {
            b.iter(|| std::hint::black_box(syndrome.matmul_transb(&herb_rows)));
        });
        group.bench_with_input(BenchmarkId::new("packed_once", &shape), &(), |b, _| {
            b.iter(|| std::hint::black_box(syndrome.matmul_packed(&packed)));
        });
    }
    group.finish();
}

fn bench_score_large_fused(_: &mut Criterion) {
    // The repository benchmark's `score_large` batch (64 queries, 65,536
    // herbs, d = 64, top-10) both ways: the score matrix written and then
    // selected from row by row, against `recommend_batch`, which selects
    // from each GEMM tile while it is in L1 and writes no matrix. Timed
    // by hand: the rates (2 B d H flop a batch) are the point.
    use smgcn_serve::{partial_top_k, FrozenModel};
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
    .expect("consistent shapes");
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
    let report = |name: &str, f: &dyn Fn() -> Vec<Vec<u32>>| {
        const ITERS: u32 = 40;
        for _ in 0..ITERS / 4 {
            std::hint::black_box(f());
        }
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(f());
        }
        let batch_s = start.elapsed().as_secs_f64() / f64::from(ITERS);
        println!(
            "score_large_fused/{name:<27} {:>8.2} ms / batch {:>7.1} GFLOP/s {:>7.1} µs / row",
            batch_s * 1e3,
            2.0 * (BATCH * DIM * HERBS) as f64 / batch_s / 1e9,
            batch_s * 1e6 / BATCH as f64,
        );
    };
    report("score_batch+partial_top_k", &unfused);
    report("recommend_batch", &fused);
}

fn bench_train_kernels(_: &mut Criterion) {
    // The kernels under one paper-scale training step (`train_paper`),
    // at the shapes the trainer calls them with — 1113 = 360 + 753
    // nodes, batch 1024, 753 herbs, 256-wide syndromes — as output rows
    // x reduction x output columns. Informational: the repository
    // benchmark is the gate. Every tier computes the same bits here, so
    // a row per tier is a pure speed comparison.
    use smgcn_tensor::par::threads_for_macs;
    use smgcn_tensor::Matrix;
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
            let us = mean_us(&mut || {
                std::hint::black_box(product(tier, &a, &b));
            });
            println!(
                "train_kernels/{name}/{:<14} {tier:<7?} {:>8.1} µs {:>6.1} GFLOP/s ({} threads)",
                format!("{m}x{k}x{n}"),
                us,
                2.0 * (m * k * n) as f64 / us / 1e3,
                threads_for_macs(m * k * n),
            );
        }
    }
    let ops = paper_ops();
    let bipartite = ops.sh_mean.forward();
    for width in [64usize, 128] {
        let x = dense(bipartite.cols(), width);
        let us = mean_us(&mut || {
            std::hint::black_box(bipartite.spmm(&x));
        });
        println!(
            "train_kernels/spmm/{:<16} {:>8.1} µs {:>6.1} GFLOP/s ({} stored entries)",
            format!("{}x{}x{width}", bipartite.rows(), bipartite.cols()),
            us,
            2.0 * (bipartite.nnz() * width) as f64 / us / 1e3,
            bipartite.nnz(),
        );
    }
    let store = smgcn_tensor::ParamStore::new();
    let x = dense(1113, 832).scale(40.0);
    let us = mean_us(&mut || {
        let mut tape = Tape::new(&store);
        let v = tape.input(x.clone());
        std::hint::black_box(tape.tanh(v));
    });
    let copy_us = mean_us(&mut || {
        let mut tape = Tape::new(&store);
        std::hint::black_box(tape.input(x.clone()));
    });
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

/// Mean µs of `f` over 30 calls, after 10 unmeasured ones.
fn mean_us(f: &mut dyn FnMut()) -> f64 {
    const ITERS: u32 = 30;
    for _ in 0..ITERS / 3 {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS)
}

fn bench_spmm_vs_dense(_: &mut Criterion) {
    // Every graph operator of a paper-scale step, and its transpose (the
    // backward product), at the layer widths: the SpMM row kernel against
    // an exact dense GEMM on the densified operator, which computes the
    // same bits. The record behind `SharedCsr`'s choice of the dense form
    // from two fifths of the entries stored: the bipartite operators store
    // 61%, the synergy graphs 10% and less.
    use smgcn_tensor::Matrix;
    let ops = paper_ops();
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
                let sparse_us = mean_us(&mut || a.spmm_into(&x, &mut sparse));
                let gemm_us = mean_us(&mut || dense_a.matmul_into(&x, &mut gemm));
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

fn bench_par_handoff(_: &mut Criterion) {
    // What a chunked call costs beyond its work: `for_each_chunk` over two
    // chunks that each spin for a fixed time, wall time minus one chunk's.
    // `hot` calls follow each other at once, so the worker is spinning
    // when the call is published; `parked` calls come after a pause longer
    // than the worker's spin budget, so it is woken through its condvar
    // (the cold path: the caller may take both chunks before it arrives).
    // With one configured thread both chunks run on the caller and the
    // "handoff" reads as one chunk's time.
    use smgcn_tensor::par::for_each_chunk;
    use std::time::{Duration, Instant};
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

fn bench_publish_codecs(c: &mut Criterion) {
    // Every stage one `{"op":"publish"}` of the paper-shape model (360 x
    // 753, d = 256, SI head) passes through on a replica, each on the
    // bytes the stage before it produced. MB/s is over the stage's
    // input, except base64 decode (its output: the artifact).
    use smgcn_serve::json::{self, Json};
    use smgcn_serve::{artifact, FrozenModel, ServingVocab};
    use smgcn_tensor::checkpoint;

    let mut rng = seeded_rng(6);
    let frozen = |symptoms: usize, herbs: usize, d: usize, rng: &mut _| {
        let si = Some((xavier_uniform(d, d, rng), xavier_uniform(1, d, rng)));
        let (s, h) = (
            xavier_uniform(symptoms, d, rng),
            xavier_uniform(herbs, d, rng),
        );
        FrozenModel::from_parts(s, h, si).expect("consistent shapes")
    };
    let model = frozen(360, 753, 256, &mut rng);
    let vocab = ServingVocab::new(
        (0..360).map(|i| format!("symptom-{i}")).collect(),
        (0..753).map(|i| format!("herb-{i}")).collect(),
    );
    let blob = artifact::encode(&model, &vocab);
    let text = artifact::to_base64(&blob);
    let request = json::obj([
        ("op", Json::Str("publish".into())),
        ("artifact", Json::Str(text.clone())),
    ]);
    let line = request.to_string();
    let mut checkpoint_bytes = Vec::new();
    model
        .write_to(&mut checkpoint_bytes)
        .expect("write to memory");

    let mut group = c.benchmark_group("publish_codecs");
    let mut case = |name: &str, bytes: usize, f: &mut dyn FnMut()| {
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(&mut *f)
        });
    };
    case("json_parse_publish_line", line.len(), &mut || {
        std::hint::black_box(json::parse(&line).expect("valid JSON"));
    });
    case("json_encode_publish_line", line.len(), &mut || {
        std::hint::black_box(request.to_string());
    });
    case("base64_decode_1p4mb", blob.len(), &mut || {
        std::hint::black_box(artifact::from_base64(&text).expect("valid base64"));
    });
    case("base64_encode_1p4mb", blob.len(), &mut || {
        std::hint::black_box(artifact::to_base64(&blob));
    });
    case("crc32_1p4mb", blob.len(), &mut || {
        std::hint::black_box(smgcn_obs::integrity::crc32(&blob));
    });
    case("checkpoint_read_paper", checkpoint_bytes.len(), &mut || {
        std::hint::black_box(checkpoint::read_store_bytes(&checkpoint_bytes).expect("valid"));
    });
    // `score_large`'s model from a file, as `FrozenModel::load` reads it.
    let path = std::env::temp_dir().join(format!("smgcn_kernels_{}.smgt", std::process::id()));
    frozen(8192, 65536, 64, &mut rng)
        .save(&path)
        .expect("save the large model");
    let file_len = std::fs::metadata(&path).expect("saved").len() as usize;
    case("checkpoint_read_large", file_len, &mut || {
        std::hint::black_box(checkpoint::load_store(&path).expect("valid"));
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    // A bipartite-like sparse operator at paper scale.
    let mut rng = seeded_rng(3);
    use rand::Rng;
    let triplets: Vec<(u32, u32, f32)> = (0..40_000)
        .map(|_| (rng.gen_range(0..360u32), rng.gen_range(0..753u32), 1.0))
        .collect();
    let a = CsrMatrix::from_triplets(360, 753, &triplets).row_normalized();
    let x = xavier_uniform(753, 128, &mut rng);
    c.bench_function("spmm_360x753_d128", |bencher| {
        bencher.iter(|| std::hint::black_box(a.spmm(&x)));
    });
}

fn prepared_smoke() -> (smgcn_data::Corpus, GraphOperators) {
    let corpus = SyndromeModel::new(GeneratorConfig::smoke_scale()).generate();
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds { x_s: 5, x_h: 30 },
    );
    (corpus, ops)
}

fn bench_graph_build(c: &mut Criterion) {
    let corpus = SyndromeModel::new(GeneratorConfig::smoke_scale()).generate();
    c.bench_function("graph_operators_build_smoke", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(GraphOperators::from_records(
                corpus.records(),
                corpus.n_symptoms(),
                corpus.n_herbs(),
                SynergyThresholds { x_s: 5, x_h: 30 },
            ))
        });
    });
}

fn bench_forward(c: &mut Criterion) {
    let (corpus, ops) = prepared_smoke();
    let model = Recommender::smgcn(&ops, &smgcn_eval::Scale::Smoke.model_config(), 1);
    let sets: Vec<&[u32]> = corpus
        .prescriptions()
        .iter()
        .take(256)
        .map(|p| p.symptoms())
        .collect();
    c.bench_function("smgcn_forward_256_sets", |bencher| {
        bencher.iter(|| std::hint::black_box(model.predict(&sets)));
    });
}

fn bench_train_step(c: &mut Criterion) {
    let (corpus, ops) = prepared_smoke();
    let model = Recommender::smgcn(&ops, &smgcn_eval::Scale::Smoke.model_config(), 1);
    let selected: Vec<&smgcn_data::Prescription> =
        corpus.prescriptions().iter().take(256).collect();
    let batch = make_batch(&selected, corpus.n_symptoms());
    let weights = std::sync::Arc::new(vec![1.0f32; corpus.n_herbs()]);
    c.bench_function("smgcn_forward_backward_256", |bencher| {
        bencher.iter(|| {
            let mut rng = seeded_rng(4);
            let mut ctx = ForwardCtx::training(0.0, &mut rng);
            let mut tape = Tape::new(model.store());
            let scores = model.forward_scores(&mut tape, &batch.set_pool, &mut ctx);
            let loss = tape.weighted_mse(scores, batch.herbs.clone(), weights.clone());
            std::hint::black_box(tape.backward(loss))
        });
    });
}

fn bench_metrics(c: &mut Criterion) {
    let mut rng = seeded_rng(5);
    let scores = xavier_uniform(391, 260, &mut rng);
    let truths: Vec<Vec<u32>> = (0..391)
        .map(|i| vec![i as u32 % 260, (i as u32 + 7) % 260])
        .collect();
    c.bench_function("rank_and_metrics_391_test_rx", |bencher| {
        bencher.iter(|| {
            let ranked: Vec<Vec<u32>> = (0..scores.rows())
                .map(|r| top_k_indices(scores.row(r), 20))
                .collect();
            let truth_refs: Vec<&[u32]> = truths.iter().map(Vec::as_slice).collect();
            std::hint::black_box(smgcn_eval::mean_metrics(&ranked, &truth_refs, &[5, 10, 20]))
        });
    });
}

fn bench_corpus_generation(c: &mut Criterion) {
    c.bench_function("generate_smoke_corpus", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(SyndromeModel::new(GeneratorConfig::smoke_scale()).generate())
        });
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_transb,
    bench_matmul_packed,
    bench_score_large_fused,
    bench_train_kernels,
    bench_spmm_vs_dense,
    bench_par_handoff,
    bench_publish_codecs,
    bench_spmm,
    bench_graph_build,
    bench_forward,
    bench_train_step,
    bench_metrics,
    bench_corpus_generation
);
criterion_main!(benches);
