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
//! 1. **dial** — helpers each dial their share and sweep it with one
//!    request in flight per thread; the slow cohort dribbles request
//!    bytes a few at a time (slowloris-shaped);
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

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_bench::harness::{percentiles_us, synthetic_frozen, synthetic_vocab};
use smgcn_bench::report::{BenchReport, GateDirection};
use smgcn_serve::json::{self, Json};
use smgcn_serve::{Server, ServerConfig};

const N_SYMPTOMS: usize = 64;
const N_HERBS: usize = 256;
const DIM: usize = 32;

/// Lane clients measuring latency through the held-open fleet.
const LANE_CLIENTS: usize = 4;

/// Fallback deadline after which an orphaned helper exits on its own.
const HELPER_ORPHAN_MS: u64 = 120_000;

/// Per-connection read timeout everywhere: a wedged server surfaces as
/// failed requests, not a hung bench.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

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
            "--helper-base" => {
                helper.get_or_insert_with(HelperArgs::default).base =
                    value("--helper-base").parse().expect("numeric helper base");
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

/// Best-effort `RLIMIT_NOFILE` raise to the hard limit (each process —
/// server side and every helper — raises its own).
#[cfg(target_os = "linux")]
fn raise_nofile_limit() {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain-old-data out-param matching the kernel ABI struct.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit() {}

/// Resident set size in MiB from `/proc/self/statm` (best effort).
#[cfg(target_os = "linux")]
fn rss_mb() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096.0 / (1024.0 * 1024.0))
}

#[cfg(not(target_os = "linux"))]
fn rss_mb() -> Option<f64> {
    None
}

/// A deterministic two-symptom query for cohort connection `i`, sweep
/// round `round`.
fn query_line(i: usize, round: usize) -> String {
    let a = (i * 7 + round) % N_SYMPTOMS;
    let b = (a + 1 + (round % 3)) % N_SYMPTOMS;
    if a == b {
        format!("{{\"symptom_ids\":[{a}],\"k\":10}}")
    } else {
        format!("{{\"symptom_ids\":[{a},{b}],\"k\":10}}")
    }
}

fn response_ok(line: &str) -> bool {
    json::parse(line.trim()).is_ok_and(|resp| resp.get("error").is_none())
}

/// One fd per held connection: reads through the `BufReader`, writes
/// through `get_mut()`.
fn dial(front: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(front)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(BufReader::new(stream))
}

// ---------------------------------------------------------------------
// Helper mode: the client end of a slice of the storm.
// ---------------------------------------------------------------------

struct HelperArgs {
    addr: SocketAddr,
    conns: usize,
    slow: usize,
    base: usize,
}

impl Default for HelperArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("placeholder addr"),
            conns: 0,
            slow: 0,
            base: 0,
        }
    }
}

/// Sweeps `conns` held connections round-robin until `stop`.
fn sweep_loop(
    front: SocketAddr,
    share: usize,
    base_index: usize,
    opened: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    deadline: Instant,
) -> (usize, usize) {
    let mut conns = Vec::with_capacity(share);
    for i in 0..share {
        if let Ok(reader) = dial(front) {
            opened.fetch_add(1, Ordering::Relaxed);
            conns.push((base_index + i, reader));
        }
    }
    let (mut executed, mut failures) = (0usize, 0usize);
    let mut line = String::new();
    let mut round = 0usize;
    'sweep: loop {
        for (index, reader) in &mut conns {
            if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                break 'sweep;
            }
            executed += 1;
            let ok = (|| {
                writeln!(reader.get_mut(), "{}", query_line(*index, round)).ok()?;
                line.clear();
                reader.read_line(&mut line).ok()?;
                response_ok(&line).then_some(())
            })()
            .is_some();
            if !ok {
                failures += 1;
            }
        }
        if conns.is_empty() {
            break;
        }
        round += 1;
        // Held-open is the point, not throughput.
        std::thread::sleep(Duration::from_millis(50));
    }
    (executed, failures)
}

/// Dribbles every slow connection's request a few bytes at a time with
/// sleeps between chunk rounds, wave after wave, until `stop`.
fn slow_loop(
    front: SocketAddr,
    share: usize,
    base_index: usize,
    opened: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    deadline: Instant,
) -> (usize, usize) {
    const CHUNK: usize = 3;
    let mut conns = Vec::with_capacity(share);
    for i in 0..share {
        if let Ok(reader) = dial(front) {
            opened.fetch_add(1, Ordering::Relaxed);
            conns.push((base_index + i, reader));
        }
    }
    let (mut executed, mut failures) = (0usize, 0usize);
    let mut line = String::new();
    let mut round = 0usize;
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline && !conns.is_empty() {
        let payloads: Vec<Vec<u8>> = conns
            .iter()
            .map(|(index, _)| {
                let mut bytes = query_line(*index, round).into_bytes();
                bytes.push(b'\n');
                bytes
            })
            .collect();
        let longest = payloads.iter().map(Vec::len).max().unwrap_or(0);
        let mut offset = 0;
        while offset < longest {
            for ((_, reader), payload) in conns.iter_mut().zip(&payloads) {
                let end = (offset + CHUNK).min(payload.len());
                if offset < end {
                    let _ = reader.get_mut().write_all(&payload[offset..end]);
                }
            }
            offset += CHUNK;
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, reader) in &mut conns {
            executed += 1;
            line.clear();
            let ok = reader.read_line(&mut line).is_ok() && response_ok(&line);
            if !ok {
                failures += 1;
            }
        }
        round += 1;
    }
    (executed, failures)
}

/// Helper process body: dial the slice, hold + sweep until the
/// orchestrator writes a line to stdin (or the orphan deadline), then
/// print the ledger as one JSON line and exit.
fn run_helper(args: &HelperArgs) {
    raise_nofile_limit();
    let opened = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(HELPER_ORPHAN_MS);
    let fast = args.conns.saturating_sub(args.slow);
    let sweepers = 4usize.min(fast.max(1));
    let mut handles = Vec::new();
    for t in 0..sweepers {
        let share = fast / sweepers + usize::from(t < fast % sweepers);
        let base = args.base + t * (fast / sweepers + 1);
        let (front, opened, stop) = (args.addr, Arc::clone(&opened), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            sweep_loop(front, share, base, opened, stop, deadline)
        }));
    }
    if args.slow > 0 {
        let (front, opened, stop) = (args.addr, Arc::clone(&opened), Arc::clone(&stop));
        let (share, base) = (args.slow, args.base + fast);
        handles.push(std::thread::spawn(move || {
            slow_loop(front, share, base, opened, stop, deadline)
        }));
    }
    // Block on the stop signal: any line (or EOF, if the orchestrator
    // died) releases the fleet.
    let mut signal = String::new();
    let _ = std::io::stdin().read_line(&mut signal);
    stop.store(true, Ordering::Relaxed);
    let (mut executed, mut failures) = (0usize, 0usize);
    for handle in handles {
        let (e, f) = handle.join().expect("helper thread");
        executed += e;
        failures += f;
    }
    println!(
        "{{\"opened\":{},\"executed\":{executed},\"failures\":{failures}}}",
        opened.load(Ordering::Relaxed)
    );
}

// ---------------------------------------------------------------------
// Orchestrator mode.
// ---------------------------------------------------------------------

/// Closed-loop lane client measuring request latency through the
/// held-open fleet. Waits for `go`, stops on `stop`.
fn lane_client(
    front: SocketAddr,
    seed: u64,
    go: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> (Vec<f64>, usize) {
    let mut reader = dial(front).expect("lane connect");
    while !go.load(Ordering::Relaxed) {
        if stop.load(Ordering::Relaxed) {
            return (Vec::new(), 0);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (mut latencies, mut failed) = (Vec::new(), 0usize);
    let mut line = String::new();
    let mut i = seed as usize;
    while !stop.load(Ordering::Relaxed) {
        i = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let t0 = Instant::now();
        let ok = (|| {
            writeln!(reader.get_mut(), "{}", query_line(i >> 33, i >> 13)).ok()?;
            line.clear();
            reader.read_line(&mut line).ok()?;
            response_ok(&line).then_some(())
        })()
        .is_some();
        latencies.push(t0.elapsed().as_secs_f64());
        if !ok {
            failed += 1;
        }
    }
    (latencies, failed)
}

struct HelperLedger {
    opened: usize,
    executed: usize,
    failures: usize,
}

fn spawn_helper(addr: SocketAddr, conns: usize, slow: usize, base: usize) -> Child {
    let exe = std::env::current_exe().expect("current exe");
    Command::new(exe)
        .arg("--helper-addr")
        .arg(addr.to_string())
        .arg("--helper-conns")
        .arg(conns.to_string())
        .arg("--helper-slow")
        .arg(slow.to_string())
        .arg("--helper-base")
        .arg(base.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn storm helper")
}

fn stop_helper(mut child: Child) -> HelperLedger {
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
    HelperLedger {
        opened: field("opened"),
        executed: field("executed"),
        failures: field("failures"),
    }
}

fn main() {
    let args = parse_args();
    raise_nofile_limit();
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

    let rss_before = rss_mb();
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
    let mut base = 0usize;
    for h in 0..args.helpers {
        let conns =
            args.connections / args.helpers + usize::from(h < args.connections % args.helpers);
        let slow = args.slow / args.helpers + usize::from(h < args.slow % args.helpers);
        children.push(spawn_helper(server.addr(), conns, slow, base));
        base += conns;
    }

    // Hold phase: wait for the server's own open-connection gauge to
    // reach the target (the server-side truth of "10k concurrent"),
    // then measure lane latency through the held fleet.
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let lanes: Vec<_> = (0..LANE_CLIENTS)
        .map(|c| {
            let (go, stop) = (Arc::clone(&go), Arc::clone(&stop));
            let (front, seed) = (server.addr(), args.seed ^ (c as u64 * 0x9e37));
            std::thread::spawn(move || lane_client(front, seed, go, stop))
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
    let rss_held = rss_mb();
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
