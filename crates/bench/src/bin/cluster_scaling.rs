//! Cluster scaling benchmark: qps vs replica count, plus failover
//! recovery, through the `smgcn-cluster` router.
//!
//! The regime being measured is the one replica fan-out actually fixes:
//! each replica has a **bounded service capacity** — its batcher admits
//! work in linger-paced cycles and the router caps in-flight requests
//! per backend — so a fixed client population against one replica is
//! throughput-limited by that replica's cycle, and adding replicas
//! multiplies the number of concurrent cycles. (On a shared dev box the
//! replicas also share CPU; the linger-bound cycle keeps the bottleneck
//! per-replica rather than machine-wide, which is exactly how a fleet of
//! separate machines behaves.)
//!
//! Phases, written to `BENCH_cluster.json`:
//!
//! 1. **scaling** — for R = 1..=max replicas behind one router, C
//!    closed-loop clients hammer Zipf-ish symptom sets; records qps and
//!    client-side p50/p99 per R and asserts ≥2x single-replica qps at 3;
//! 2. **failover** — at 3 replicas under load, one replica is killed
//!    mid-run; records failed requests (asserted zero — the router
//!    retries on the next ring candidate), the probe's time-to-eject,
//!    and the worst client-observed latency after the kill.
//!
//! ```text
//! cluster_scaling [--replicas-max N] [--clients N] [--measure-ms N]
//!                 [--seed N] [--out PATH]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_bench::harness::{percentiles_us, synthetic_frozen};
use smgcn_bench::report::{BenchReport, GateDirection};
use smgcn_cluster::{PoolConfig, Router, RouterConfig};
use smgcn_serve::client::classify;
use smgcn_serve::json::{self, Json};
use smgcn_serve::{BatcherConfig, LineClient, Running, Server, ServerConfig, ServingVocab};

const N_SYMPTOMS: usize = 64;
const N_HERBS: usize = 256;
const DIM: usize = 32;

struct Args {
    replicas_max: usize,
    clients: usize,
    measure_ms: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        replicas_max: 3,
        clients: 16,
        measure_ms: 1200,
        seed: 2020,
        out: "BENCH_cluster.json".to_string(),
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
            "--replicas-max" => {
                args.replicas_max = value("--replicas-max").parse().expect("numeric replicas")
            }
            "--clients" => args.clients = value("--clients").parse().expect("numeric clients"),
            "--measure-ms" => {
                args.measure_ms = value("--measure-ms").parse().expect("numeric measure-ms")
            }
            "--seed" => args.seed = value("--seed").parse().expect("numeric seed"),
            "--out" => args.out = value("--out"),
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: cluster_scaling [--replicas-max N] [--clients N] [--measure-ms N] [--seed N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.replicas_max >= 1);
    args
}

/// A replica tuned for the bench: no result cache (keep the scoring path
/// real) and a visible linger so each replica's service capacity is its
/// batching cycle — the per-machine bound fan-out multiplies.
fn start_replica() -> Running {
    Server::bind(
        "127.0.0.1:0",
        synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
        ServingVocab::default(),
        ServerConfig {
            cache_capacity: 0,
            max_connections: 64,
            batcher: BatcherConfig {
                max_batch: 64,
                linger: Duration::from_micros(700),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .expect("start a replica")
}

fn router_over(replicas: &[Running]) -> Running {
    Router::bind(
        "127.0.0.1:0",
        replicas.iter().map(Running::addr).collect(),
        RouterConfig {
            pool: PoolConfig {
                max_conns_per_replica: 4,
                eject_base: Duration::from_millis(50),
                eject_max: Duration::from_millis(500),
                // Tight transport timeouts: a stopping replica's listen
                // backlog can swallow a connect and never answer; the
                // read timeout is what converts that into failover.
                connect_timeout: Duration::from_millis(200),
                replica_timeout: Duration::from_millis(300),
                ..PoolConfig::default()
            },
            probe_interval: Duration::from_millis(100),
            lease_patience: Duration::from_secs(5),
            ..RouterConfig::default()
        },
    )
    .and_then(Router::spawn)
    .expect("start the router")
}

/// One completed request: completion instant, latency, success.
type Sample = (Instant, f64, bool);

/// Closed-loop client: request, wait, repeat until `stop`.
fn client_loop(mut client: LineClient, seed: u64, stop: Arc<AtomicBool>) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Zipf-ish repeating sets: 80% from a hot pool of 20 pairs.
        let (a, b) = if rng.gen_bool(0.8) {
            let h = rng.gen_range(0..20u32);
            (h % N_SYMPTOMS as u32, (h * 7 + 3) % N_SYMPTOMS as u32)
        } else {
            (
                rng.gen_range(0..N_SYMPTOMS as u32),
                rng.gen_range(0..N_SYMPTOMS as u32),
            )
        };
        let (a, b) = if a == b {
            (a, (a + 1) % N_SYMPTOMS as u32)
        } else {
            (a, b)
        };
        let t0 = Instant::now();
        let request = format!(r#"{{"symptom_ids":[{a},{b}],"k":10}}"#);
        let ok = classify(client.ask(&request)).is_ok();
        samples.push((Instant::now(), t0.elapsed().as_secs_f64(), ok));
        if !ok && stop.load(Ordering::Relaxed) {
            break;
        }
    }
    samples
}

struct ScalePoint {
    replicas: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    failed: usize,
}

/// Measures steady-state qps through the router at `n_replicas`.
fn measure_scale(n_replicas: usize, args: &Args) -> ScalePoint {
    let replicas: Vec<Running> = (0..n_replicas).map(|_| start_replica()).collect();
    let router = router_over(&replicas);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..args.clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let seed = args.seed ^ (c as u64 * 0x9e37);
            let client = router.client().expect("connect to router");
            std::thread::spawn(move || client_loop(client, seed, stop))
        })
        .collect();

    let warmup = Duration::from_millis(300);
    std::thread::sleep(warmup);
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(args.measure_ms));
    let t1 = Instant::now();
    stop.store(true, Ordering::Relaxed);
    let mut samples: Vec<Sample> = Vec::new();
    for c in clients {
        samples.extend(c.join().expect("client thread"));
    }
    router.shutdown().expect("router loop");

    let windowed: Vec<&Sample> = samples
        .iter()
        .filter(|(done, _, _)| *done >= t0 && *done < t1)
        .collect();
    let failed = windowed.iter().filter(|(_, _, ok)| !ok).count();
    let mut latencies: Vec<f64> = windowed.iter().map(|(_, l, _)| *l).collect();
    let (p50_us, p99_us) = percentiles_us(&mut latencies);
    ScalePoint {
        replicas: n_replicas,
        qps: windowed.len() as f64 / (t1 - t0).as_secs_f64(),
        p50_us,
        p99_us,
        failed,
    }
}

struct FailoverResult {
    total: usize,
    failed: usize,
    detect_ms: f64,
    worst_post_kill_ms: f64,
    baseline_p99_ms: f64,
}

/// Kills one of three replicas mid-load; measures client-visible impact
/// and the router's time-to-eject.
fn measure_failover(args: &Args) -> FailoverResult {
    let mut replicas: Vec<Running> = (0..3).map(|_| start_replica()).collect();
    let router = router_over(&replicas);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..args.clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let seed = args.seed ^ 0xfa11 ^ (c as u64 * 0x9e37);
            let client = router.client().expect("connect to router");
            std::thread::spawn(move || client_loop(client, seed, stop))
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    let victim = replicas.remove(0);
    let kill_at = Instant::now();
    victim.shutdown().expect("victim loop");

    // Poll router stats until the victim is marked unhealthy.
    let detect_ms = {
        let mut monitor = router.client().expect("monitor connect");
        let mut detect = f64::NAN;
        for _ in 0..2000 {
            let stats = monitor.ask_json(r#"{"op":"stats"}"#).expect("router stats");
            let unhealthy = stats
                .get("replicas")
                .and_then(Json::as_arr)
                .is_some_and(|fleet| {
                    fleet
                        .iter()
                        .any(|r| r.get("healthy") == Some(&Json::Bool(false)))
                });
            if unhealthy {
                detect = kill_at.elapsed().as_secs_f64() * 1e3;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            detect.is_finite(),
            "router never marked the killed replica unhealthy (probe starved?)"
        );
        detect
    };

    std::thread::sleep(Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    let mut samples: Vec<Sample> = Vec::new();
    for c in clients {
        samples.extend(c.join().expect("client thread"));
    }
    router.shutdown().expect("router loop");

    let failed = samples.iter().filter(|(_, _, ok)| !ok).count();
    let mut pre: Vec<f64> = samples
        .iter()
        .filter(|(done, _, _)| *done < kill_at)
        .map(|(_, l, _)| *l)
        .collect();
    let (_, baseline_p99_us) = percentiles_us(&mut pre);
    let worst_post_kill = samples
        .iter()
        .filter(|(done, _, _)| *done >= kill_at)
        .map(|(_, l, _)| *l)
        .fold(0.0f64, f64::max);
    FailoverResult {
        total: samples.len(),
        failed,
        detect_ms,
        worst_post_kill_ms: worst_post_kill * 1e3,
        baseline_p99_ms: baseline_p99_us / 1e3,
    }
}

fn main() {
    let args = parse_args();
    println!("=== smgcn cluster_scaling ===");
    println!(
        "replicas: 1..={} | clients: {} | measure window: {} ms | seed: {}",
        args.replicas_max, args.clients, args.measure_ms, args.seed
    );
    println!(
        "model: {N_SYMPTOMS} symptoms x {N_HERBS} herbs (d = {DIM}), replica cache off, linger 700 µs\n"
    );

    let mut points = Vec::new();
    for n in 1..=args.replicas_max {
        let point = measure_scale(n, &args);
        println!(
            "{} replica(s): {:>8.0} qps   p50 {:>8.1} µs   p99 {:>8.1} µs   failed {}",
            point.replicas, point.qps, point.p50_us, point.p99_us, point.failed
        );
        assert_eq!(
            point.failed, 0,
            "steady-state run must not fail requests at {n} replicas"
        );
        points.push(point);
    }
    let speedup = points.last().unwrap().qps / points[0].qps;
    println!(
        "\nscaling: {:.2}x qps at {} replicas vs 1",
        speedup,
        points.last().unwrap().replicas
    );
    if args.replicas_max >= 3 {
        assert!(
            speedup >= 2.0,
            "cluster must reach >=2x single-replica qps at {} replicas (got {speedup:.2}x)",
            args.replicas_max
        );
        println!("OK: >=2x single-replica throughput");
    }

    println!("\n--- failover: kill 1 of 3 replicas under load ---");
    let failover = measure_failover(&args);
    println!(
        "{} requests, {} failed | eject detected in {:.1} ms | worst post-kill latency {:.1} ms (baseline p99 {:.2} ms)",
        failover.total,
        failover.failed,
        failover.detect_ms,
        failover.worst_post_kill_ms,
        failover.baseline_p99_ms
    );
    assert_eq!(
        failover.failed, 0,
        "failover must hide the killed replica from clients"
    );
    println!("OK: zero failed requests across the kill");

    let replicas_arg = args.replicas_max.to_string();
    let clients_arg = args.clients.to_string();
    let measure_arg = args.measure_ms.to_string();
    let seed_arg = args.seed.to_string();
    let mut report = BenchReport::new(
        "cluster_scaling",
        "synthetic",
        args.seed,
        "cluster_scaling",
        &[
            "--replicas-max",
            &replicas_arg,
            "--clients",
            &clients_arg,
            "--measure-ms",
            &measure_arg,
            "--seed",
            &seed_arg,
        ],
    );
    report
        .gated("speedup_vs_single", speedup, GateDirection::Higher)
        .gated(
            "scaling_failed",
            points.iter().map(|p| p.failed).sum::<usize>() as f64,
            GateDirection::Exact,
        )
        .gated(
            "failover_failed",
            failover.failed as f64,
            GateDirection::Exact,
        )
        .metric("clients", args.clients as f64)
        .metric("measure_ms", args.measure_ms as f64)
        .metric("failover_requests", failover.total as f64)
        .metric("detect_ms", failover.detect_ms)
        .metric("worst_post_kill_ms", failover.worst_post_kill_ms)
        .metric("baseline_p99_ms", failover.baseline_p99_ms)
        .context(
            "model",
            json::obj([
                ("symptoms", Json::Num(N_SYMPTOMS as f64)),
                ("herbs", Json::Num(N_HERBS as f64)),
                ("dim", Json::Num(DIM as f64)),
            ]),
        );
    for p in &points {
        report
            .metric(&format!("qps_{}", p.replicas), p.qps)
            .metric(&format!("p50_us_{}", p.replicas), p.p50_us)
            .metric(&format!("p99_us_{}", p.replicas), p.p99_us);
    }
    report.write(&args.out).expect("write BENCH_cluster.json");
    println!("\nwrote {}", args.out);
}
