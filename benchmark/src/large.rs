//! `score_large`: batches of 64 queries through `recommend_batch` on a
//! model big enough (8,192 symptoms x 65,536 herbs, d = 64) that the GEMM
//! and the top-k are the work. No sockets, one caller; the program's
//! GEMM spreads over the cores by itself.

use std::path::Path;
use std::time::Instant;

use smgcn_serve::{partial_top_k, FrozenModel};

use crate::gen::{symptom_set, Rng, Weights, K};
use crate::measure::{measure, set_up_timed, Mark, Outcome, Plan, Sample};
use crate::oracle::{recall, top_k, Oracle};
use crate::stats::{median, peak_rss_mb, percentile, sorted};
use crate::trace::{self, median_self_ns, Span, Tracer};

const SYMPTOMS: usize = 8_192;
const HERBS: usize = 65_536;
const DIM: usize = 64;
const BATCH: usize = 64;
const WARMUP_BATCHES: usize = 8;
/// The first queries of the window are the fixed sample whose rankings
/// are compared with the reference.
const RECALL_QUERIES: usize = 256;
/// ROADMAP item 3's parity guard: a faster or narrower kernel may flip a
/// last-bit tie, but not cost quality.
const RECALL_FLOOR: f64 = 0.99;

fn weights(seed: u64) -> Weights {
    Weights::seeded(seed, 0, SYMPTOMS, HERBS, DIM)
}

/// Generates the model and saves it. Runs in a child process, so that
/// the generator's memory is not part of this workload's `peak_rss_mb`.
pub fn make_model(path: &Path, seed: u64) {
    weights(seed).frozen().save(path).expect("save the model");
}

fn batch(rng: &mut Rng) -> Vec<Vec<u32>> {
    (0..BATCH).map(|_| symptom_set(rng, SYMPTOMS)).collect()
}

fn refs(sets: &[Vec<u32>]) -> Vec<&[u32]> {
    sets.iter().map(Vec::as_slice).collect()
}

/// One set-up: load the saved model and run the warm-up batches.
fn set_up(path: &Path, plan: &Plan, tracer: Option<&mut Tracer>) -> FrozenModel {
    let start = Instant::now();
    let model = FrozenModel::load(path).expect("load the saved model");
    if let Some(tracer) = tracer {
        tracer.record("serve.frozen.load", None, 0, start, Instant::now());
    }
    let mut rng = Rng::fork(plan.seed, 50);
    for _ in 0..plan.warmup_count(WARMUP_BATCHES) {
        let sets = batch(&mut rng);
        std::hint::black_box(model.recommend_batch(&refs(&sets), K)).expect("warm-up batch");
    }
    model
}

struct Window {
    samples: Vec<Sample>,
    marks: Vec<Mark>,
    /// The recall sample: each query and the ranking it got.
    kept: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Calls `score(sets)` on fresh batches for `length`, reading a mark
/// whenever a slice boundary has passed.
fn run_window(
    seed: u64,
    length: std::time::Duration,
    slices: usize,
    mut score: impl FnMut(&[&[u32]], Instant, u64) -> Vec<Vec<u32>>,
) -> Window {
    let mut rng = Rng::fork(seed, 100);
    let epoch = Instant::now();
    let mut window = Window {
        samples: Vec::new(),
        marks: vec![Mark::now(epoch)],
        kept: Vec::new(),
    };
    while window.marks.len() <= slices {
        let sets = batch(&mut rng);
        let start = Instant::now();
        let rankings = score(&refs(&sets), start, window.samples.len() as u64);
        let end = Instant::now();
        let whole = rankings.len() == BATCH && rankings.iter().all(|r| r.len() == K);
        window.samples.push(Sample {
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            latency_ns: end.duration_since(start).as_nanos() as u64,
            ops: BATCH as u32,
            ok: if whole { BATCH as u32 } else { 0 },
        });
        if window.kept.len() < RECALL_QUERIES {
            window.kept.extend(sets.into_iter().zip(rankings));
        }
        if end.duration_since(epoch) >= length.mul_f64(window.marks.len() as f64 / slices as f64) {
            window.marks.push(Mark::now(epoch));
        }
    }
    window
}

/// Recall@10 of the kept rankings against the reference, and the count
/// of queries that lost more than one herb.
fn judge(seed: u64, window: &Window, outcome: &mut Outcome) -> f64 {
    let weights = weights(seed);
    let oracle = Oracle::new(&weights);
    let recalls: Vec<f64> = window
        .kept
        .iter()
        .map(|(set, got)| recall(&top_k(&oracle.scores(set), K), got))
        .collect();
    let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
    outcome.attempted = window.samples.iter().map(|s| u64::from(s.ops)).sum();
    outcome.failed = window
        .samples
        .iter()
        .map(|s| u64::from(s.ops - s.ok))
        .sum::<u64>()
        + recalls.iter().filter(|&&r| r < 0.9).count() as u64;
    if mean < RECALL_FLOOR {
        outcome.faults.push(format!(
            "recall@{K} is {mean:.4} on {} queries, below {RECALL_FLOOR}",
            recalls.len()
        ));
    }
    outcome
        .notes
        .push(format!("recall@{K} {mean:.4} on {} queries", recalls.len()));
    mean
}

pub fn run(plan: &Plan) -> Outcome {
    let path = plan.out_dir.join(format!("large_model_{}.smgt", plan.seed));
    let made = std::process::Command::new(std::env::current_exe().expect("own path"))
        .arg("--make-model")
        .arg(&path)
        .args(["--seed", &plan.seed.to_string()])
        .status()
        .expect("start the model generator");
    assert!(made.success(), "the model generator failed");
    let outcome = if plan.trace {
        run_traced(&path, plan)
    } else {
        run_untraced(&path, plan)
    };
    std::fs::remove_file(&path).expect("remove the saved model");
    outcome
}

fn run_untraced(path: &Path, plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    let model = set_up_timed(plan, &mut outcome, || set_up(path, plan, None), drop);
    let window = run_window(plan.seed, plan.window, plan.slices, |sets, _, _| {
        model.recommend_batch(sets, K).expect("batch scores")
    });
    outcome.peak_rss_mb = peak_rss_mb();
    drop(model);
    outcome.measured = Some(measure(&window.samples, &window.marks));
    judge(plan.seed, &window, &mut outcome);
    outcome
}

/// The traced run calls `induce_batch`, `score_batch` and
/// `partial_top_k` one by one, each in a span under the batch's own.
fn run_traced(path: &Path, plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let model = set_up(path, plan, Some(&mut tracer));
    let quarter = plan.window / 4;
    let untraced = run_window(plan.seed, quarter, 1, |sets, _, _| {
        model.recommend_batch(sets, K).expect("batch scores")
    });
    let traced = run_window(plan.seed, quarter, 1, |sets, start, request| {
        let parent = tracer.reserve();
        let under = Some(parent);
        let _ = tracer.time("serve.frozen.induce", under, request, || {
            model.induce_batch(sets)
        });
        let scores = tracer
            .time("serve.frozen.score", under, request, || {
                model.score_batch(sets)
            })
            .expect("batch scores");
        let rankings = tracer.time("serve.topk.rows", under, request, || {
            (0..sets.len())
                .map(|row| partial_top_k(scores.row(row), K))
                .collect::<Vec<_>>()
        });
        tracer.close(
            parent,
            "client.request",
            None,
            request,
            start,
            Instant::now(),
        );
        rankings
    });
    drop(model);
    judge(plan.seed, &traced, &mut outcome);

    let spans: Vec<Span> = tracer.spans;
    let us_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let (induce, score, topk) = (
        us_of("serve.frozen.induce"),
        us_of("serve.frozen.score"),
        us_of("serve.topk.rows"),
    );
    // `score_batch` induces again before its GEMM; the difference of
    // the two spans of one batch is the GEMM.
    let gemm: Vec<f64> = score.iter().zip(&induce).map(|(s, i)| s - i).collect();
    let gemm_us = median(&gemm);
    let latencies = sorted(
        traced
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect(),
    );
    let rate = |w: &Window| measure(&w.samples, &w.marks).whole.ops_per_s;
    outcome.layer("client.p50_us", percentile(&latencies, 0.50));
    outcome.layer("client.p99_us", percentile(&latencies, 0.99));
    outcome.layer("client.samples", latencies.len() as f64);
    outcome.layer(
        "client.trace_overhead_share",
        1.0 - rate(&traced) / rate(&untraced),
    );
    outcome.layer("serve.frozen.induce_us", median(&induce));
    outcome.layer("serve.frozen.gemm_us", gemm_us);
    // Computed from the tensor sizes, not counted: 2 B d H.
    outcome.layer(
        "serve.frozen.gemm_gflops",
        2.0 * (BATCH * DIM * HERBS) as f64 / (gemm_us * 1e3),
    );
    outcome.layer("serve.topk.row_ns", median(&topk) * 1e3 / BATCH as f64);
    outcome.layer(
        "serve.frozen.load_ms",
        median_self_ns(&spans, "serve.frozen.load") / 1e6,
    );
    outcome
        .notes
        .push(trace::save(&spans, &plan.out_dir, "score_large", plan.seed));
    outcome
}
