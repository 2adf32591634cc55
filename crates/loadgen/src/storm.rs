//! The connection-storm cohort: a fleet of persistent keep-alive
//! connections held open against one reactor server until a deadline.
//!
//! The cohort exists to prove the fd-bounded claim of the readiness
//! reactor: ten thousand registered sockets must cost the server file
//! descriptors and per-connection buffers, not threads — while a
//! steady query lane (driven separately by the engine) keeps its p99
//! inside budget. Two sub-cohorts and two probes:
//!
//! - **openers** — threads that share the dialing, then sweep their
//!   connections round-robin with one request in flight each, so every
//!   held socket stays genuinely active;
//! - **slow writers** — connections whose requests arrive a few bytes
//!   at a time with sleeps in between (slowloris-shaped). The reactor
//!   must buffer the partial lines without dedicating a thread or
//!   starving the fast lanes; their latencies are never mixed into the
//!   percentile lane but their failures still count;
//! - the **server's own count** — the front's `reactor_open_fds` gauge,
//!   polled over `{"op":"metrics"}` while the cohort is held. A dial
//!   counts as opened once the kernel completes the handshake, before
//!   the reactor accepts it; a reactor out of descriptors never does, so
//!   only this gauge says the server really held the fleet;
//! - the **resident-memory probe** — `/proc/self/statm` sampled before
//!   dialing and at peak hold, bounding the whole storm's RSS growth
//!   (client and server share this process, so the bound covers both
//!   sides of every socket).
//!
//! The `connection-storm` scenario calls [`run`] beside its query
//! lanes, with the window's end as the deadline. Everything here
//! measures; [`crate::scenario::StormSpec::violations`] decides.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smgcn_serve::{json, LineClient};

use crate::scenario::StormSpec;

/// Per-connection read timeout: generous, so a wedged server surfaces
/// as failed requests rather than a hung cohort.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes per dribbled slow-writer write.
const SLOW_CHUNK: usize = 3;

/// Sleep between slow-writer chunk rounds.
const SLOW_PAUSE: Duration = Duration::from_millis(5);

/// What the cohort measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct StormResult {
    /// Connections that actually dialed and stayed up.
    pub opened: usize,
    /// Requests completed across the cohort (success or failure).
    pub executed: usize,
    /// Failed requests (transport errors or error responses).
    pub failures: usize,
    /// The most connections the server's reactor held open at once, by
    /// its own `reactor_open_fds` gauge (the query lanes and the probe
    /// itself included).
    pub peak_open: usize,
    /// This process's hard `RLIMIT_NOFILE`; `None` off Linux.
    pub nofile_hard: Option<u64>,
    /// Resident-set growth across the held window, MiB. `None` when
    /// `/proc/self/statm` is unavailable (non-Linux).
    pub rss_growth_mb: Option<f64>,
}

/// Best-effort `RLIMIT_NOFILE` raise to the hard limit, which it
/// returns: the default soft limit (often 1024) is far below a storm's
/// descriptor bill — one per connection on each side, ~2x`connections`
/// since this process holds both ends.
#[cfg(target_os = "linux")]
fn raise_nofile_limit() -> Option<u64> {
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
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return None;
        }
        if lim.cur < lim.max {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
    Some(lim.max)
}

/// No descriptor limit to raise off Linux.
#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit() -> Option<u64> {
    None
}

/// Resident set size in MiB from `/proc/self/statm` (best effort; the
/// conventional 4 KiB page size is assumed — a bound this coarse does
/// not need `sysconf`).
#[cfg(target_os = "linux")]
fn rss_mb() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096.0 / (1024.0 * 1024.0))
}

/// No `/proc/self/statm` off Linux.
#[cfg(not(target_os = "linux"))]
fn rss_mb() -> Option<f64> {
    None
}

/// A deterministic two-symptom query for cohort connection `i`, sweep
/// round `round` — distinct enough to exercise the scoring path, no RNG
/// needed.
fn query_line(i: usize, round: usize) -> String {
    let a = (i * 7 + round) % crate::scenario::N_SYMPTOMS;
    let b = (a + 1 + (round % 3)) % crate::scenario::N_SYMPTOMS;
    if a == b {
        format!("{{\"symptom_ids\":[{a}],\"k\":10}}")
    } else {
        format!("{{\"symptom_ids\":[{a},{b}],\"k\":10}}")
    }
}

/// True when `line` is a well-formed non-error response.
fn response_ok(line: &str) -> bool {
    json::parse(line.trim()).is_ok_and(|resp| resp.get("error").is_none())
}

/// One fd per held connection: reads go through the `BufReader`, writes
/// through its `get_mut()` — cloning the stream for a second handle
/// would double the cohort's descriptor bill.
fn dial(front: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(front)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(BufReader::new(stream))
}

/// The server's own `reactor_open_fds` gauge, read over `probe`.
fn open_fds(probe: &mut LineClient) -> Option<usize> {
    let reply = probe.ask_json(r#"{"op":"metrics"}"#).ok()?;
    let open = reply.get("metrics")?.get("reactor_open_fds")?.as_num()?;
    Some(open as usize)
}

/// What a cohort's threads share: how many connections have landed, and
/// when to let go of them.
struct Hold {
    opened: AtomicUsize,
    deadline: Instant,
}

impl Hold {
    fn released(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// Dials `share` connections, counting each that lands, and tags each
/// with its cohort-wide index (what [`query_line`] varies on).
fn open_share(
    front: SocketAddr,
    share: usize,
    base_index: usize,
    hold: &Hold,
) -> Vec<(usize, BufReader<TcpStream>)> {
    let mut conns = Vec::with_capacity(share);
    for i in 0..share {
        if let Ok(reader) = dial(front) {
            hold.opened.fetch_add(1, Ordering::Relaxed);
            conns.push((base_index + i, reader));
        }
    }
    conns
}

/// Opener-thread body: dial `share` connections, then sweep them
/// round-robin (send, read, next) until released, keeping every socket
/// open the whole time. Returns `(executed, failures)`.
fn sweep_loop(front: SocketAddr, share: usize, base_index: usize, hold: &Hold) -> (usize, usize) {
    let mut conns = open_share(front, share, base_index, hold);
    let (mut executed, mut failures) = (0usize, 0usize);
    let mut line = String::new();
    let mut round = 0usize;
    'sweep: loop {
        for (index, reader) in &mut conns {
            if hold.released() {
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
        // Held-open is the point, not throughput: pause between sweeps
        // so the cohort idles registered rather than hammering.
        std::thread::sleep(Duration::from_millis(50));
    }
    // Conns drop (close) here — after the deadline, by construction.
    (executed, failures)
}

/// Slow-writer-thread body: dial `share` connections, then run waves
/// until released. Each wave writes every connection's request a few
/// bytes at a time with sleeps between chunk rounds — the server sits
/// on partial lines across the whole wave — then collects the
/// responses. Returns `(executed, failures)`.
fn slow_loop(front: SocketAddr, share: usize, base_index: usize, hold: &Hold) -> (usize, usize) {
    let mut conns = open_share(front, share, base_index, hold);
    let (mut executed, mut failures) = (0usize, 0usize);
    let mut line = String::new();
    let mut round = 0usize;
    while !hold.released() && !conns.is_empty() {
        let payloads: Vec<Vec<u8>> = conns
            .iter()
            .map(|(index, _)| {
                let mut bytes = query_line(*index, round).into_bytes();
                bytes.push(b'\n');
                bytes
            })
            .collect();
        let longest = payloads.iter().map(Vec::len).max().unwrap_or(0);
        // Dribble: one chunk per connection per round, a sleep between
        // rounds, so every partial line sits buffered server-side for
        // tens of milliseconds.
        let mut offset = 0;
        while offset < longest {
            for ((_, reader), payload) in conns.iter_mut().zip(&payloads) {
                let end = (offset + SLOW_CHUNK).min(payload.len());
                if offset < end {
                    let _ = reader.get_mut().write_all(&payload[offset..end]);
                }
            }
            offset += SLOW_CHUNK;
            std::thread::sleep(SLOW_PAUSE);
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

/// Starts `spec`'s cohort threads against `front`; the connections
/// land as they dial, and each thread lets go at `hold`'s deadline.
fn dial_cohort(
    front: SocketAddr,
    spec: &StormSpec,
    hold: &Arc<Hold>,
) -> Vec<JoinHandle<(usize, usize)>> {
    let openers = spec.openers.max(1);
    let slow_threads = if spec.slow_writers > 0 {
        (openers / 4).max(1)
    } else {
        0
    };
    let fast_total = spec.connections.saturating_sub(spec.slow_writers);

    type Body = fn(SocketAddr, usize, usize, &Hold) -> (usize, usize);
    let mut threads = Vec::new();
    let mut spawn = |body: Body, share: usize, base_index: usize| {
        let hold = Arc::clone(hold);
        threads.push(std::thread::spawn(move || {
            body(front, share, base_index, &hold)
        }));
    };
    for t in 0..openers {
        // Spread the remainder across the first few openers.
        let share = fast_total / openers + usize::from(t < fast_total % openers);
        spawn(sweep_loop, share, t * (fast_total / openers + 1));
    }
    for t in 0..slow_threads {
        let per_thread = spec.slow_writers / slow_threads;
        let share = per_thread + usize::from(t < spec.slow_writers % slow_threads);
        spawn(slow_loop, share, fast_total + t * (per_thread + 1));
    }
    threads
}

/// Holds the whole cohort against `front` until `hold_until`, reads the
/// server's own open-connection count while it is held, and probes this
/// process's resident memory around it. Blocks for the full window; the
/// engine runs it on its own thread beside the query lanes.
pub fn run(front: SocketAddr, spec: &StormSpec, hold_until: Instant) -> StormResult {
    let nofile_hard = raise_nofile_limit();
    let rss_before = rss_mb();
    let connect = || LineClient::connect(front, READ_TIMEOUT, READ_TIMEOUT).ok();
    // Dialed before the cohort: once the cohort has spent this process's
    // descriptors, a new connection to ask on may not open.
    let mut probe = connect();
    let hold = Arc::new(Hold {
        opened: AtomicUsize::new(0),
        deadline: hold_until,
    });
    let threads = dial_cohort(front, spec, &hold);

    // Poll the server's gauge until it holds the whole plan (or the
    // window nears its end) — the peak does not hang on the scraper's
    // cadence — then sample RSS with the sockets all open.
    let sample_by = hold_until
        .checked_sub(Duration::from_millis(100))
        .unwrap_or(hold_until);
    let mut peak_open = 0;
    loop {
        match probe.as_mut().and_then(open_fds) {
            Some(open) => peak_open = peak_open.max(open),
            // A failed ask leaves the connection out of step.
            None => probe = connect(),
        }
        let whole = hold.opened.load(Ordering::Relaxed) >= spec.connections
            && peak_open >= spec.connections;
        if whole || Instant::now() >= sample_by {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let rss_peak = rss_mb();

    let (mut executed, mut failures) = (0usize, 0usize);
    for thread in threads {
        let (e, f) = thread.join().expect("storm thread");
        executed += e;
        failures += f;
    }
    StormResult {
        opened: hold.opened.load(Ordering::Relaxed),
        executed,
        failures,
        peak_open,
        nofile_hard,
        rss_growth_mb: match (rss_before, rss_peak) {
            (Some(before), Some(peak)) => Some((peak - before).max(0.0)),
            _ => None,
        },
    }
}
