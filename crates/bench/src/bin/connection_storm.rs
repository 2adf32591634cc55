//! Connection-storm benchmark: 10k+ concurrent persistent connections
//! against one reactor server, with a slow-writer cohort and a latency
//! lane measured while the fleet is held open.
//!
//! The server runs in-process (its `reactor_open_fds` gauge is the
//! ground truth for peak concurrency), but the client ends live in
//! **helper subprocesses** — re-invocations of this binary in a hidden
//! `--helper-*` mode. One process holding both ends of every socket
//! would need ~2x the cohort in file descriptors; splitting the client
//! side across helpers keeps each process inside even a modest
//! `RLIMIT_NOFILE` hard cap, so the full 10k+ storm runs on constrained
//! hosts too.
//!
//! Phases, written to `BENCH_connection_storm.json`:
//!
//! 1. **dial** — helpers each hold their share of the cohort
//!    (`smgcn_loadgen::storm::Cohort`, the same one the
//!    `connection-storm` scenario holds in-process): sweeps with one
//!    request in flight per thread, slow writers dribbling request bytes
//!    a few at a time (slowloris-shaped);
//! 2. **hold** — once the server's open-connection gauge reaches the
//!    target, closed-loop lane clients measure request latency through
//!    the held-open fleet for the measure window;
//! 3. **teardown** — helpers are signalled over stdin, report their
//!    opened/executed/failed ledgers as one JSON line each, and exit.
//!
//! Asserted: the server saw >= the target connections open at once,
//! zero failed requests anywhere (storm sweeps, slow writers, lane),
//! and bounded server-process RSS growth.
//!
//! ```text
//! connection_storm [--connections N] [--helpers N] [--slow N]
//!                  [--measure-ms N] [--seed N] [--out PATH]
//! ```

use std::io::Write;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_bench::report::{BenchReport, GateDirection};
use smgcn_loadgen::scenario::{DIM, N_HERBS, N_SYMPTOMS};
use smgcn_loadgen::shape::{percentiles_us, synthetic_frozen, synthetic_vocab};
use smgcn_loadgen::storm::{self, Cohort, StormResult};
use smgcn_loadgen::StormSpec;
use smgcn_serve::client::classify;
use smgcn_serve::json::{self, Json};
use smgcn_serve::{LineClient, Server, ServerConfig};

/// Lane clients measuring latency through the held-open fleet.
const LANE_CLIENTS: usize = 4;

/// Fallback deadline after which an orphaned helper exits on its own.
const HELPER_ORPHAN: Duration = Duration::from_secs(120);

/// Threads sweeping one helper's share of the cohort.
const HELPER_SWEEPERS: usize = 4;

struct Args {
    connections: usize,
    helpers: usize,
    slow: usize,
    measure_ms: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        connections: 10_240,
        helpers: 4,
        slow: 512,
        measure_ms: 1200,
        seed: 2020,
        out: "BENCH_connection_storm.json".to_string(),
    };
    let mut helper: Option<HelperArgs> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--connections" => {
                args.connections = value("--connections").parse().expect("numeric connections")
            }
            "--helpers" => args.helpers = value("--helpers").parse().expect("numeric helpers"),
            "--slow" => args.slow = value("--slow").parse().expect("numeric slow"),
            "--measure-ms" => {
                args.measure_ms = value("--measure-ms").parse().expect("numeric measure-ms")
            }
            "--seed" => args.seed = value("--seed").parse().expect("numeric seed"),
            "--out" => args.out = value("--out"),
            "--helper-addr" => {
                helper.get_or_insert_with(HelperArgs::default).addr =
                    value("--helper-addr").parse().expect("helper addr");
            }
            "--helper-conns" => {
                helper.get_or_insert_with(HelperArgs::default).conns = value("--helper-conns")
                    .parse()
                    .expect("numeric helper conns");
            }
            "--helper-slow" => {
                helper.get_or_insert_with(HelperArgs::default).slow =
                    value("--helper-slow").parse().expect("numeric helper slow");
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: connection_storm [--connections N] [--helpers N] [--slow N] \
                     [--measure-ms N] [--seed N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(helper) = helper {
        run_helper(&helper);
        std::process::exit(0);
    }
    assert!(args.connections >= 1 && args.helpers >= 1);
    assert!(
        args.slow <= args.connections,
        "--slow exceeds --connections"
    );
    args
}

// ---------------------------------------------------------------------
// Helper mode: the client end of a slice of the storm.
// ---------------------------------------------------------------------

struct HelperArgs {
    addr: SocketAddr,
    conns: usize,
    slow: usize,
}

impl Default for HelperArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("placeholder addr"),
            conns: 0,
            slow: 0,
        }
    }
}

/// Helper process body: hold the slice until the orchestrator writes a
/// line to stdin (or the orphan deadline), then print the ledger as one
/// JSON line and exit.
fn run_helper(args: &HelperArgs) {
    let spec = StormSpec {
        connections: args.conns,
        openers: HELPER_SWEEPERS,
        slow_writers: args.slow,
        ..StormSpec::default()
    };
    let cohort = Cohort::hold(args.addr, &spec, Instant::now() + HELPER_ORPHAN);
    // Block on the stop signal: any line (or EOF, if the orchestrator
    // died) releases the fleet.
    let mut signal = String::new();
    let _ = std::io::stdin().read_line(&mut signal);
    cohort.release();
    let ledger = cohort.join();
    println!(
        "{{\"opened\":{},\"executed\":{},\"failures\":{}}}",
        ledger.opened, ledger.executed, ledger.failures
    );
}

// ---------------------------------------------------------------------
// Orchestrator mode.
// ---------------------------------------------------------------------

/// Closed-loop lane client measuring request latency through the
/// held-open fleet. Waits for `go`, stops on `stop`.
fn lane_client(
    mut client: LineClient,
    seed: u64,
    go: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> (Vec<f64>, usize) {
    while !go.load(Ordering::Relaxed) {
        if stop.load(Ordering::Relaxed) {
            return (Vec::new(), 0);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (mut latencies, mut failed) = (Vec::new(), 0usize);
    let mut i = seed as usize;
    while !stop.load(Ordering::Relaxed) {
        i = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let t0 = Instant::now();
        let reply = classify(client.ask(&storm::query_line(i >> 33, i >> 13)));
        latencies.push(t0.elapsed().as_secs_f64());
        if reply.is_err() {
            failed += 1;
        }
    }
    (latencies, failed)
}

fn spawn_helper(addr: SocketAddr, conns: usize, slow: usize) -> Child {
    let exe = std::env::current_exe().expect("current exe");
    Command::new(exe)
        .arg("--helper-addr")
        .arg(addr.to_string())
        .arg("--helper-conns")
        .arg(conns.to_string())
        .arg("--helper-slow")
        .arg(slow.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn storm helper")
}

/// Releases one helper's slice and reads back the ledger it prints.
fn stop_helper(mut child: Child) -> StormResult {
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = stdin.write_all(b"stop\n");
    }
    drop(child.stdin.take());
    let output = child.wait_with_output().expect("helper exit");
    assert!(output.status.success(), "storm helper exited nonzero");
    let text = String::from_utf8_lossy(&output.stdout);
    let ledger = json::parse(text.trim()).expect("helper ledger json");
    let field = |name: &str| {
        ledger
            .get(name)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("helper ledger missing {name}: {text}")) as usize
    };
    StormResult {
        opened: field("opened"),
        executed: field("executed"),
        failures: field("failures"),
        rss_growth_mb: None,
    }
}

fn main() {
    let args = parse_args();
    // The server's end of every socket lives in this process.
    storm::raise_nofile_limit();
    println!("=== smgcn connection_storm ===");
    println!(
        "connections: {} ({} slow writers) across {} helper processes | \
         measure window: {} ms | seed: {}",
        args.connections, args.slow, args.helpers, args.measure_ms, args.seed
    );
    println!(
        "model: {N_SYMPTOMS} symptoms x {N_HERBS} herbs (d = {DIM}), \
         reactor cap {} conns\n",
        args.connections + 256
    );

    let rss_before = storm::rss_mb();
    let server = Server::bind(
        "127.0.0.1:0",
        synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, args.seed),
        synthetic_vocab(N_SYMPTOMS, N_HERBS, args.seed),
        ServerConfig {
            max_connections: args.connections + 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind the server");
    let open_gauge = server.registry().gauge("reactor_open_fds");
    let server = server.spawn().expect("start the server");

    // Dial phase: helpers split the cohort (and the slow share) evenly.
    let t_dial = Instant::now();
    let mut children = Vec::new();
    for h in 0..args.helpers {
        let conns =
            args.connections / args.helpers + usize::from(h < args.connections % args.helpers);
        let slow = args.slow / args.helpers + usize::from(h < args.slow % args.helpers);
        children.push(spawn_helper(server.addr(), conns, slow));
    }

    // Hold phase: wait for the server's own open-connection gauge to
    // reach the target (the server-side truth of "10k concurrent"),
    // then measure lane latency through the held fleet.
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let lanes: Vec<_> = (0..LANE_CLIENTS)
        .map(|c| {
            let (go, stop) = (Arc::clone(&go), Arc::clone(&stop));
            let client = server.client().expect("lane connect");
            let seed = args.seed ^ (c as u64 * 0x9e37);
            std::thread::spawn(move || lane_client(client, seed, go, stop))
        })
        .collect();
    let mut peak_open = 0u64;
    let dial_deadline = Instant::now() + Duration::from_secs(60);
    while peak_open < (args.connections + LANE_CLIENTS) as u64 {
        peak_open = peak_open.max(open_gauge.get());
        assert!(
            Instant::now() < dial_deadline,
            "fleet never reached {} concurrent connections (peak {peak_open}); \
             is RLIMIT_NOFILE too low for the helper processes?",
            args.connections
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let dial_ms = t_dial.elapsed().as_secs_f64() * 1e3;
    println!(
        "fleet up: {peak_open} concurrent connections in {dial_ms:.0} ms; \
         measuring lane latency for {} ms",
        args.measure_ms
    );
    go.store(true, Ordering::Relaxed);
    let t_measure = Instant::now();
    while t_measure.elapsed() < Duration::from_millis(args.measure_ms) {
        peak_open = peak_open.max(open_gauge.get());
        std::thread::sleep(Duration::from_millis(5));
    }
    let rss_held = storm::rss_mb();
    stop.store(true, Ordering::Relaxed);

    // Teardown: stop the lane, then the helpers, then the server.
    let mut lane_latencies = Vec::new();
    let mut lane_failed = 0usize;
    for lane in lanes {
        let (latencies, failed) = lane.join().expect("lane thread");
        lane_latencies.extend(latencies);
        lane_failed += failed;
    }
    let (mut opened, mut storm_executed, mut storm_failures) = (0usize, 0usize, 0usize);
    for child in children {
        let ledger = stop_helper(child);
        opened += ledger.opened;
        storm_executed += ledger.executed;
        storm_failures += ledger.failures;
    }
    server.shutdown().expect("server loop");

    let (lane_p50_us, lane_p99_us) = percentiles_us(&mut lane_latencies);
    let lane_qps = lane_latencies.len() as f64 / (args.measure_ms as f64 / 1e3);
    let rss_growth_mb = match (rss_before, rss_held) {
        (Some(before), Some(held)) => (held - before).max(0.0),
        _ => 0.0,
    };
    println!(
        "peak {peak_open} concurrent | opened {opened} | storm requests {storm_executed} \
         ({storm_failures} failed) | lane {:.0} qps p50 {:.1} µs p99 {:.1} µs ({lane_failed} failed) | \
         server rss +{rss_growth_mb:.0} MiB",
        lane_qps, lane_p50_us, lane_p99_us
    );
    assert!(
        peak_open >= args.connections as u64,
        "server never saw the full fleet: peak {peak_open} < {}",
        args.connections
    );
    assert!(opened >= args.connections, "helpers under-dialed: {opened}");
    assert_eq!(storm_failures, 0, "storm sweeps must not fail requests");
    assert_eq!(lane_failed, 0, "lane clients must not fail requests");
    println!(
        "OK: >= {} concurrent connections, zero failed requests",
        args.connections
    );

    let connections_arg = args.connections.to_string();
    let helpers_arg = args.helpers.to_string();
    let slow_arg = args.slow.to_string();
    let measure_arg = args.measure_ms.to_string();
    let seed_arg = args.seed.to_string();
    let mut report = BenchReport::new(
        "connection_storm",
        "synthetic",
        args.seed,
        "connection_storm",
        &[
            "--connections",
            &connections_arg,
            "--helpers",
            &helpers_arg,
            "--slow",
            &slow_arg,
            "--measure-ms",
            &measure_arg,
            "--seed",
            &seed_arg,
        ],
    );
    // Concurrency and correctness gate; the latency lane is reported
    // ungated — the tail through a 10k-conn storm swings severalfold
    // run to run on small CI runners, and the scenario suite's steady
    // lane already gates p99 under storm at loadgen scale.
    report
        .gated("concurrent_peak", peak_open as f64, GateDirection::Higher)
        .gated(
            "failed",
            (storm_failures + lane_failed) as f64,
            GateDirection::Exact,
        )
        .metric("lane_p99_us", lane_p99_us)
        .metric("connections", args.connections as f64)
        .metric("slow_writers", args.slow as f64)
        .metric("helpers", args.helpers as f64)
        .metric("opened", opened as f64)
        .metric("storm_requests", storm_executed as f64)
        .metric("dial_ms", dial_ms)
        .metric("lane_qps", lane_qps)
        .metric("lane_p50_us", lane_p50_us)
        .metric("rss_growth_mb", rss_growth_mb)
        .context(
            "model",
            json::obj([
                ("symptoms", Json::Num(N_SYMPTOMS as f64)),
                ("herbs", Json::Num(N_HERBS as f64)),
                ("dim", Json::Num(DIM as f64)),
            ]),
        );
    report
        .write(&args.out)
        .expect("write BENCH_connection_storm.json");
    println!("\nwrote {}", args.out);
}
