//! Observability-overhead gate: serving qps with the full telemetry
//! stack on vs a bare server.
//!
//! The telemetry plane's contract is "free unless asked": counters are
//! single atomic adds on the hot path, a span timeline is only rendered
//! for a request that asks for it, the continuous profiler folds the
//! phase list the request keeps anyway, and the scraper reads a
//! lock-free registry off the hot path entirely. This bench holds the
//! contract to a number — the same query stream is driven through two
//! in-process servers, both profiling every request: one bare (no
//! split, no scraper), and one loaded with a live 90/10 A/B split
//! (so every request pays plan assignment and ticks per-variant labeled
//! counters), and (with `--scrape-ms N`) a live tsdb scraper polling
//! `{"op":"metrics"}` over TCP. The loaded configuration must keep at
//! least `1 - --max-regress` of the bare throughput.
//!
//! Both sides send sticky `"client"` ids, so the payloads are
//! byte-comparable; the candidate serves the same artifact as control,
//! so the split adds only assignment + bookkeeping, never different
//! compute. Duel sampling is disabled here on both sides — a duel
//! deliberately scores the query twice, which is experiment *compute*,
//! not telemetry overhead.
//!
//! ```text
//! obs_overhead [--queries N] [--conns N] [--trials N]
//!              [--scrape-ms N] [--max-regress F]
//! ```
//!
//! Trials interleave the two configurations (bare, loaded, bare, …) and
//! each side keeps its best run, so a shared runner throttling mid-way
//! depresses both sides instead of reading as telemetry overhead. The
//! bin prints both rates and their ratio and exits nonzero when the
//! ratio breaks the budget.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use smgcn_experiment::{SplitPlan, DEFAULT_SPLIT_SEED};
use smgcn_loadgen::scenario::{DIM, N_HERBS, N_SYMPTOMS};
use smgcn_loadgen::shape::{synthetic_frozen, synthetic_vocab};
use smgcn_obs::tsdb::{Scraper, TsdbData};
use smgcn_serve::server::flatten_metrics_json;
use smgcn_serve::{artifact, json, LineClient, Server, ServerConfig};

const K: usize = 10;

/// Connect, read and write bound of every bench client: a hung server
/// fails the run instead of hanging it.
const TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    queries: usize,
    conns: usize,
    trials: usize,
    scrape_ms: u64,
    max_regress: f64,
}

/// `value` of `flag` as a number; anything else is a misuse: an error
/// naming the flag on stderr, exit 2.
fn number_arg<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a number");
        std::process::exit(2)
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 4000,
        conns: 4,
        trials: 3,
        scrape_ms: 0,
        max_regress: 0.05,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--queries" => args.queries = number_arg(&arg, &value(&arg)),
            "--conns" => args.conns = number_arg(&arg, &value(&arg)),
            "--trials" => args.trials = number_arg(&arg, &value(&arg)),
            "--scrape-ms" => args.scrape_ms = number_arg(&arg, &value(&arg)),
            "--max-regress" => args.max_regress = number_arg(&arg, &value(&arg)),
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: obs_overhead [--queries N] [--conns N] [--trials N] \
                     [--scrape-ms N] [--max-regress F]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Publishes a candidate serving the same artifact as control and
/// installs a 90/10 split, so the measured hot path pays variant
/// assignment and per-variant labeled counters on every request.
fn install_split(addr: SocketAddr) {
    let mut admin = LineClient::connect(addr, TIMEOUT, TIMEOUT).expect("connect admin");
    let mut rpc = |request: String| {
        let ack = admin.ask(&request).expect("admin round trip");
        assert!(!ack.contains("\"error\""), "experiment setup failed: {ack}");
    };
    let b64 = artifact::to_base64(&artifact::encode(
        &synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
        &synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
    ));
    rpc(artifact::publish_line(b64, Some("canary")));
    let plan = SplitPlan::new(
        DEFAULT_SPLIT_SEED,
        1,
        &[("control".to_string(), 90), ("canary".to_string(), 10)],
    )
    .expect("bench split plan");
    rpc(format!(
        "{{\"op\":\"experiment\",\"action\":\"install\",\"plan\":{}}}",
        json::Json::Str(plan.to_canonical())
    ));
}

/// Drives `queries` requests over `conns` serial client connections
/// against a fresh server; returns qps. `loaded` adds a live 90/10
/// split with per-variant labeled counters and — when `--scrape-ms` is
/// set — a live tsdb scraper; both sides run the continuous profiler.
fn measure(args: &Args, loaded: bool) -> f64 {
    let server = Server::bind(
        "127.0.0.1:0",
        synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
        synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
        ServerConfig {
            duel_sample_every: 0,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .expect("start the server");
    let addr = server.addr();
    let metrics = move || {
        LineClient::connect(addr, TIMEOUT, TIMEOUT)
            .and_then(|mut client| client.ask_json(r#"{"op":"metrics"}"#))
    };
    if loaded {
        install_split(addr);
    }
    let scraper = (loaded && args.scrape_ms > 0).then(|| {
        let mut history = TsdbData::default();
        Scraper::spawn(
            Duration::from_millis(args.scrape_ms),
            Box::new(move || Some(flatten_metrics_json(metrics().ok()?.get("metrics")?))),
            Box::new(move |at_ms, samples| history.push(at_ms, samples)),
        )
    });
    let per_conn = args.queries / args.conns.max(1);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.conns.max(1))
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr, TIMEOUT, TIMEOUT).expect("connect");
                for i in 0..per_conn {
                    // A spread of repeating keys: cache hits and misses
                    // both on the measured path, like real traffic. The
                    // sticky client id is sent on both sides so the
                    // payloads match; only the loaded side has a split
                    // to assign it against.
                    let a = (w * 17 + i * 7) % N_SYMPTOMS;
                    let b = (w * 5 + i * 13 + 1) % N_SYMPTOMS;
                    let c = (w * 31 + i) % 64;
                    let request =
                        format!("{{\"symptom_ids\":[{a},{b}],\"k\":{K},\"client\":\"c{c}\"}}");
                    let line = client.ask(&request).expect("round trip");
                    assert!(
                        !line.contains("\"error\""),
                        "request failed under bench load: {line}"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if let Some(scraper) = scraper {
        scraper.stop();
    }
    if loaded {
        // The gate is only meaningful if the split actually ran: the
        // per-variant labeled counters must have seen the traffic.
        let snap = metrics().expect("read metrics").to_string();
        assert!(
            snap.contains("serve_variant_requests_total") && snap.contains("canary"),
            "loaded run never ticked variant-labeled counters"
        );
    }
    server.shutdown().expect("server loop");
    (per_conn * args.conns.max(1)) as f64 / elapsed
}

fn main() {
    let args = parse_args();
    println!("=== smgcn-obs telemetry overhead ===");
    println!(
        "queries: {} | conns: {} | trials: {} | scrape {} ms | budget {:.0}%",
        args.queries,
        args.conns,
        args.trials,
        args.scrape_ms,
        args.max_regress * 100.0
    );

    let mut qps_off = 0.0f64;
    let mut qps_sampled = 0.0f64;
    for trial in 0..args.trials.max(1) {
        let off = measure(&args, false);
        let sampled = measure(&args, true);
        println!("trial {trial}: bare {off:>8.0} qps | loaded {sampled:>8.0} qps");
        qps_off = qps_off.max(off);
        qps_sampled = qps_sampled.max(sampled);
    }

    let ratio = qps_sampled / qps_off;
    println!("\nbest: bare {qps_off:.0} qps | loaded {qps_sampled:.0} qps | ratio {ratio:.3}");
    assert!(
        ratio >= 1.0 - args.max_regress,
        "the telemetry stack (90/10 split labels, scrape {} ms) costs {:.1}% qps (budget {:.0}%)",
        args.scrape_ms,
        (1.0 - ratio) * 100.0,
        args.max_regress * 100.0
    );
    println!(
        "OK: the full telemetry stack keeps {:.1}% of bare throughput",
        ratio * 100.0
    );
}
