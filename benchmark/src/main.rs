//! The repository's benchmark: seven workloads from client socket to
//! kernel. See README.md beside this package and BENCHMARK.json at the
//! repository root.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints its metrics; the last line of standard output is
//! one JSON object. Without `--workload`, every workload runs in a child
//! process of its own. `--smoke` makes every run a fraction of a second
//! long with every correctness check on and, without `--workload`, runs
//! every workload both untraced and traced.

mod emit;
mod gen;
mod large;
mod layers;
mod measure;
mod oracle;
mod stats;
mod sys;
mod tcp;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use emit::Obj;
use measure::{Outcome, Plan, Slice};

pub const WORKLOADS: [&str; 7] = [
    "tcp_unique",
    "tcp_hot",
    "tcp_publish",
    "tcp_publish_write",
    "routed_unique",
    "score_large",
    "train_paper",
];

/// Name, unit, and the bound BENCHMARK.json puts on it. `setup_s` and
/// `peak_rss_mb` are one value per run; the rest are pooled over the
/// quiet third of the window's slices.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("ops_per_s", "ops/s", 0.25),
    ("p50_us", "us", 0.25),
    ("p95_us", "us", 0.25),
    ("cpu_us_per_op", "us", 0.25),
    ("peak_rss_mb", "MB", 0.25),
    ("setup_s", "s", 0.25),
];

/// Every per-layer metric of the traced run. A layer that is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("client.p50_us", "us"),
    ("client.p99_us", "us"),
    ("client.samples", "count"),
    ("client.trace_overhead_share", "ratio"),
    ("serve.server.micros_p50_us", "us"),
    ("serve.server.sheds", "count"),
    ("serve.server.unattributed_us", "us"),
    ("serve.server.unattributed_share", "ratio"),
    ("serve.reactor.outside_handle_us", "us"),
    ("serve.reactor.wakeups_per_op", "count"),
    ("serve.json.parse_ns", "ns"),
    ("serve.json.encode_ns", "ns"),
    ("serve.json.parse_publish_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_hit_ns", "ns"),
    ("serve.cache.get_miss_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.batcher.queue_us", "us"),
    ("serve.batcher.batch_us", "us"),
    ("serve.batcher.batch_size", "count"),
    ("serve.batcher.call_us", "us"),
    ("serve.frozen.induce_us", "us"),
    ("serve.frozen.gemm_us", "us"),
    ("serve.frozen.gemm_gflops", "GFLOP/s"),
    ("serve.frozen.load_ms", "ms"),
    ("serve.topk.row_ns", "ns"),
    ("serve.artifact.encode_ms", "ms"),
    ("serve.artifact.b64_decode_ms", "ms"),
    ("serve.artifact.decode_ms", "ms"),
    ("serve.artifact.bytes", "count"),
    ("serve.slot.publish_ms", "ms"),
    ("serve.publish.write_p50_ms", "ms"),
    ("serve.publish.late_p50_ms", "ms"),
    ("cluster.ring.route_ns", "ns"),
    ("cluster.pool.round_trip_us", "us"),
    ("cluster.router.hop_us", "us"),
    ("cluster.router.retries", "count"),
    ("core.trainer.prep_us", "us"),
    ("core.trainer.forward_us", "us"),
    ("core.trainer.backward_us", "us"),
    ("core.trainer.step_us", "us"),
    ("core.trainer.final_loss", "loss"),
    ("tensor.gemm.matmul_gflops", "GFLOP/s"),
    ("tensor.gemm.transa_gflops", "GFLOP/s"),
    ("tensor.gemm.transb_gflops", "GFLOP/s"),
    ("tensor.sparse.spmm_us", "us"),
    ("tensor.sparse.nnz", "count"),
    ("graph.operators.build_ms", "ms"),
    ("data.generator.generate_ms", "ms"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    make_model: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2020,
        seconds: 8,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
        make_model: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--make-model" => args.make_model = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn plan(args: &Args) -> Plan {
    let mut plan = Plan {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        slices: args.seconds as usize * 2,
        warmup: 1.0,
        setups: 3,
        // Sized for today's 2 s per epoch. A count, not a deadline, so
        // that the final loss repeats exactly.
        train_epochs: (args.seconds as usize / 2).max(3),
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    };
    if args.trace {
        plan.setups = 1;
        plan.train_epochs = 2;
    }
    if args.smoke {
        plan.window = Duration::from_millis(if args.trace { 1200 } else { 300 });
        plan.slices = 1;
        plan.warmup = 0.05;
        plan.setups = 1;
        plan.train_epochs = 1;
    }
    plan
}

/// Runs every workload in a fresh child process, so that memory and
/// allocator state do not leak from one into the next. The smoke gate
/// runs each both ways, untraced and traced.
fn run_all(args: &Args) -> ExitCode {
    let traces: &[bool] = if args.smoke {
        &[false, true]
    } else {
        std::slice::from_ref(&args.trace)
    };
    let mut all_correct = true;
    for (workload, &trace) in WORKLOADS
        .iter()
        .flat_map(|w| traces.iter().map(move |t| (w, t)))
    {
        let mut child = std::process::Command::new(std::env::current_exe().expect("own path"));
        child
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.smoke {
            child.arg("--smoke");
        }
        all_correct &= child.status().expect("start a workload").success();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(value: f64, unit: &str) -> String {
    Obj::default()
        .num("value", value)
        .str("unit", unit)
        .finish()
}

/// Prints the report and the result line; true when the run is correct.
fn report(workload: &str, args: &Args, load_at_start: f64, outcome: &Outcome) -> bool {
    println!(
        "workload {workload} seed {} seconds {} trace {} nproc {} load1 {load_at_start}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc()
    );
    let mut metrics = Obj::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            println!("  {name:<34} {value:>16.4} {unit}");
            metrics = metrics.raw(name, &metric(value, unit));
        }
    } else {
        let measured = outcome
            .measured
            .as_ref()
            .expect("an untraced run measures its window");
        let (quiet, whole) = (&measured.quiet, &measured.whole);
        let slices = |pick: fn(&Slice) -> f64| measured.slices.iter().map(pick).collect();
        // In the order of `END_TO_END`: the value, the same over the
        // whole window, and what each slice (or set-up) read, for the
        // noise report.
        let values: [(f64, f64, Vec<f64>); 6] = [
            (quiet.ops_per_s, whole.ops_per_s, slices(|s| s.ops_per_s)),
            (quiet.p50_us, whole.p50_us, slices(|s| s.p50_us)),
            (quiet.p95_us, whole.p95_us, slices(|s| s.p95_us)),
            (
                quiet.cpu_us_per_op,
                whole.cpu_us_per_op,
                slices(|s| s.cpu_us_per_op),
            ),
            (outcome.peak_rss_mb, outcome.peak_rss_mb, Vec::new()),
            (
                stats::median(&outcome.setups),
                stats::median(&outcome.setups),
                outcome.setups.clone(),
            ),
        ];
        for ((name, unit, bound), (value, over_all, parts)) in END_TO_END.into_iter().zip(values) {
            print!("  {name:<14} {value:>14.3} {unit:<6}");
            if !parts.is_empty() {
                let spread = stats::spread(&parts);
                print!(" whole window {over_all:.3}, spread {spread:.3} of {parts:.3?}");
                if spread > 2.0 * bound {
                    print!("  unstable");
                }
            }
            println!();
            metrics = metrics.raw(name, &metric(value, unit));
        }
        println!(
            "  the values are pooled over the {} quiet slices of {}, {} timed calls",
            measure::quiet_slices(&measured.slices).len(),
            measured.slices.len(),
            quiet.calls
        );
        if quiet.tail < 0.95 {
            println!(
                "  MARK: p95_us holds p{:.1}: {} calls do not support a higher percentile",
                quiet.tail * 100.0,
                quiet.calls
            );
        }
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for fault in &outcome.faults {
        println!("  INCORRECT: {fault}");
    }
    let correct = outcome.failed == 0 && outcome.faults.is_empty() && outcome.attempted > 0;
    println!(
        "  attempted {} failed {} ({:.6} of attempted)",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let line = Obj::default()
        .raw("correct", if correct { "true" } else { "false" })
        .num("attempted", outcome.attempted as f64)
        .num("failed", outcome.failed as f64)
        .raw("metrics", &metrics.finish())
        .finish();
    println!("{line}");
    correct
}

fn main() -> ExitCode {
    sys::one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.make_model {
        large::make_model(path, args.seed);
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.as_deref() else {
        return run_all(&args);
    };
    let load_at_start = stats::load_average();
    stats::nproc(); // counted before any thread is pinned
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let plan = plan(&args);
    let outcome = match workload {
        "tcp_unique" => tcp::run(tcp::Kind::Unique, &plan),
        "tcp_hot" => tcp::run(tcp::Kind::Hot, &plan),
        "tcp_publish" => tcp::run(tcp::Kind::Publish, &plan),
        "tcp_publish_write" => tcp::run(tcp::Kind::PublishWrite, &plan),
        "routed_unique" => tcp::run(tcp::Kind::Routed, &plan),
        "score_large" => large::run(&plan),
        "train_paper" => train::run(&plan),
        other => {
            eprintln!("benchmark: unknown workload {other}; one of {WORKLOADS:?}");
            return ExitCode::from(2);
        }
    };
    // A run that printed its result exits 0 and says `"correct":false`
    // in it; `--smoke` is the gate that turns a mismatch into a failure.
    if report(workload, &args, load_at_start, &outcome) || !args.smoke {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json is what the driver reads; the tables above are
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for workload in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
                "{workload}"
            );
        }
        for (name, unit, bound) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "{entry}");
            assert!(
                text.contains(&format!("\"bound\": {bound}}}")),
                "{name} bound {bound}"
            );
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "{entry}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
