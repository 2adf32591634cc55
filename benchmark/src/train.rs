//! `train_paper`: SMGCN training at the paper's real shape (26,360
//! prescriptions over 360 symptoms and 753 herbs, batch 1024). One
//! operation is one optimiser step; the finest thing the public API
//! times is an epoch of them, so every epoch is a slice of its own.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use smgcn_core::trainer::{set_epoch_observer, train_with_callback, EpochPhases};
use smgcn_core::{ModelConfig, Recommender, TrainConfig};
use smgcn_data::{Corpus, GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_tensor::Matrix;

use crate::gen::Rng;
use crate::measure::{measure, set_up_timed, Mark, Outcome, Plan, Sample};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{self, median_self_ns, Tracer};

/// How often each kernel probe of the traced run is repeated.
const PROBE_ROUNDS: usize = 15;

struct Ready {
    corpus: Corpus,
    ops: GraphOperators,
    model: Recommender,
    /// Mean loss of the warm-up epoch, the model's first.
    first_loss: f32,
}

/// One set-up: generate the corpus, build the three graphs, initialise
/// the model, and train one warm-up epoch.
fn set_up(plan: &Plan, tracer: &mut Tracer) -> Ready {
    let corpus = tracer.time("data.generator.generate", None, 0, || {
        SyndromeModel::new(GeneratorConfig::paper_scale().with_seed(plan.seed)).generate()
    });
    let ops = tracer.time("graph.operators.build", None, 0, || {
        GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            SynergyThresholds::default(),
        )
    });
    let mut model = Recommender::smgcn(&ops, &ModelConfig::smgcn(), plan.seed);
    let warm = train_with_callback(
        &mut model,
        &corpus,
        &TrainConfig::smgcn().with_epochs(1),
        |_, _| {},
    );
    Ready {
        first_loss: warm.final_loss(),
        corpus,
        ops,
        model,
    }
}

struct Timed {
    samples: Vec<Sample>,
    marks: Vec<Mark>,
    final_loss: f32,
}

/// Trains `epochs` epochs, reading a mark after each.
fn train_timed(ready: &mut Ready, epochs: usize) -> Timed {
    let config = TrainConfig::smgcn().with_epochs(epochs);
    let steps = ready.corpus.len().div_ceil(config.batch_size) as u32;
    let epoch = Instant::now();
    let mut marks = vec![Mark::now(epoch)];
    let mut samples = Vec::new();
    let history = train_with_callback(&mut ready.model, &ready.corpus, &config, |_, _| {
        let mark = Mark::now(epoch);
        let wall_ns = mark.at_ns - marks[marks.len() - 1].at_ns;
        // Just inside the slice that this mark closes.
        samples.push(Sample {
            end_ns: mark.at_ns - 1,
            latency_ns: wall_ns / u64::from(steps),
            ops: steps,
            ok: steps,
        });
        marks.push(mark);
    });
    Timed {
        samples,
        marks,
        final_loss: history.final_loss(),
    }
}

/// The loss must be finite and strictly lower after the last epoch than
/// after the first. Training is bit-identical run to run, so the value
/// itself must repeat exactly for one seed and one epoch count.
fn judge(ready: &Ready, timed: &Timed, outcome: &mut Outcome) {
    outcome.attempted = timed.samples.iter().map(|s| u64::from(s.ops)).sum();
    let (first, last) = (ready.first_loss, timed.final_loss);
    if !(last.is_finite() && last < first) {
        outcome.failed = outcome.attempted;
        outcome.faults.push(format!(
            "loss went from {first} (first epoch) to {last} (last epoch)"
        ));
    }
    outcome.notes.push(format!(
        "loss {first} after the first epoch, {last} after the last of {} timed",
        timed.samples.len()
    ));
}

pub fn run(plan: &Plan) -> Outcome {
    let mut tracer = Tracer::new(Instant::now(), 0);
    if plan.trace {
        return run_traced(plan, tracer);
    }
    let mut outcome = Outcome::default();
    let mut ready = set_up_timed(plan, &mut outcome, || set_up(plan, &mut tracer), drop);
    let timed = train_timed(&mut ready, plan.train_epochs);
    outcome.peak_rss_mb = peak_rss_mb();
    outcome.measured = Some(measure(&timed.samples, &timed.marks));
    judge(&ready, &timed, &mut outcome);
    outcome
}

/// GFLOP/s of `product`, which multiplies `m x k` by `k x n`, as the
/// median of [`PROBE_ROUNDS`] calls. The operation count is computed
/// from the shapes.
fn gflops(
    tracer: &mut Tracer,
    name: &'static str,
    (m, k, n): (usize, usize, usize),
    product: impl Fn() -> Matrix,
) -> f64 {
    for round in 0..PROBE_ROUNDS {
        tracer.time(name, None, round as u64, &product);
    }
    2.0 * (m * k * n) as f64 / median_self_ns(&tracer.spans, name)
}

fn run_traced(plan: &Plan, mut tracer: Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut ready = set_up(plan, &mut tracer);
    let untraced = train_timed(&mut ready, 1);
    let phases: Arc<Mutex<Vec<EpochPhases>>> = Arc::default();
    let sink = Arc::clone(&phases);
    set_epoch_observer(Some(Arc::new(move |p: &EpochPhases| {
        sink.lock().expect("phase sink").push(*p);
    })));
    let traced = train_timed(&mut ready, plan.train_epochs);
    set_epoch_observer(None);
    judge(&ready, &traced, &mut outcome);

    let steps = f64::from(traced.samples[0].ops);
    let phases = phases.lock().expect("phase sink");
    let per_step = |pick: fn(&EpochPhases) -> u64| {
        median(
            &phases
                .iter()
                .map(|p| pick(p) as f64 / steps)
                .collect::<Vec<_>>(),
        )
    };
    let rate = |t: &Timed| measure(&t.samples, &t.marks).whole.ops_per_s;
    let per_step_us: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect();
    outcome.layer("client.p50_us", median(&per_step_us));
    outcome.layer(
        "client.p99_us",
        per_step_us.iter().copied().fold(0.0, f64::max),
    );
    outcome.layer("client.samples", traced.samples.len() as f64);
    outcome.layer(
        "client.trace_overhead_share",
        1.0 - rate(&traced) / rate(&untraced),
    );
    outcome.layer("core.trainer.prep_us", per_step(|p| p.prep_us));
    outcome.layer("core.trainer.forward_us", per_step(|p| p.forward_us));
    outcome.layer("core.trainer.backward_us", per_step(|p| p.backward_us));
    outcome.layer("core.trainer.step_us", per_step(|p| p.step_us));
    outcome.layer("core.trainer.final_loss", f64::from(traced.final_loss));

    // The kernels under the trainer, at the shapes it calls them with:
    // a 1113-node layer (360 + 753) from 64 to 128 wide, and the
    // batch's 1024 x 256 syndromes against the 753 herbs.
    let mut rng = Rng::fork(plan.seed, 200);
    let mut dense =
        |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.below(2001) as f32 / 1000.0 - 1.0);
    let nodes = ready.corpus.n_symptoms() + ready.corpus.n_herbs();
    let (a, b) = (dense(nodes, 64), dense(64, 128));
    let v = gflops(&mut tracer, "tensor.gemm.matmul", (nodes, 64, 128), || {
        a.matmul(&b)
    });
    outcome.layer("tensor.gemm.matmul_gflops", v);
    let herbs = ready.corpus.n_herbs();
    let (a, b) = (dense(1024, 256), dense(herbs, 256));
    let v = gflops(
        &mut tracer,
        "tensor.gemm.transb",
        (1024, 256, herbs),
        || a.matmul_transb(&b),
    );
    outcome.layer("tensor.gemm.transb_gflops", v);
    let b = dense(1024, herbs);
    let v = gflops(
        &mut tracer,
        "tensor.gemm.transa",
        (256, 1024, herbs),
        || a.matmul_transa(&b),
    );
    outcome.layer("tensor.gemm.transa_gflops", v);
    let bipartite = ready.ops.sh_mean.forward();
    let wide = dense(herbs, 128);
    for round in 0..PROBE_ROUNDS {
        tracer.time("tensor.sparse.spmm", None, round as u64, || {
            bipartite.spmm(&wide)
        });
    }
    outcome.layer(
        "tensor.sparse.spmm_us",
        median_self_ns(&tracer.spans, "tensor.sparse.spmm") / 1e3,
    );
    outcome.layer("tensor.sparse.nnz", bipartite.nnz() as f64);
    outcome.layer(
        "graph.operators.build_ms",
        median_self_ns(&tracer.spans, "graph.operators.build") / 1e6,
    );
    outcome.layer(
        "data.generator.generate_ms",
        median_self_ns(&tracer.spans, "data.generator.generate") / 1e6,
    );

    outcome.notes.push(trace::save(
        &tracer.spans,
        &plan.out_dir,
        "train_paper",
        plan.seed,
    ));
    outcome
}
