//! The connection-storm cohort: a fleet of persistent keep-alive
//! connections held open against one reactor server until a stop flag
//! or a deadline, whichever comes first.
//!
//! The cohort exists to prove the fd-bounded claim of the readiness
//! reactor: ten thousand registered sockets must cost the server file
//! descriptors and per-connection buffers, not threads — while a
//! steady query lane (driven separately by the engine) keeps its p99
//! inside budget. Three sub-cohorts:
//!
//! - **openers** — threads that share the dialing, then sweep their
//!   connections round-robin with one request in flight each, so every
//!   held socket stays genuinely active;
//! - **slow writers** — connections whose requests arrive a few bytes
//!   at a time with sleeps in between (slowloris-shaped). The reactor
//!   must buffer the partial lines without dedicating a thread or
//!   starving the fast lanes; their latencies are never mixed into the
//!   percentile lane but their failures still count;
//! - the **resident-memory probe** — `/proc/self/statm` sampled before
//!   dialing and at peak hold, bounding the whole storm's RSS growth
//!   (client and server share this process, so the bound covers both
//!   sides of every socket).
//!
//! Two callers hold a cohort. The `connection-storm` scenario calls
//! [`run`] beside its query lanes: one process, the window's end as the
//! deadline, the flag never set. The `connection_storm` bench splits the
//! client ends across helper processes, each of which [`Cohort::hold`]s
//! its slice until the orchestrator says stop, with the deadline only as
//! the point an orphaned helper gives up.
//!
//! Everything here measures; the [`crate::scenario::StormSpec`] decides.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smgcn_serve::json;

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
    /// Resident-set growth across the held window, MiB, as [`run`]
    /// samples it. `None` when `/proc/self/statm` is unavailable
    /// (non-Linux), and from [`Cohort::join`], which takes no samples.
    pub rss_growth_mb: Option<f64>,
}

/// Best-effort `RLIMIT_NOFILE` raise to the hard limit: the default soft
/// limit (often 1024) is far below a storm's descriptor bill — one per
/// connection on each side, ~2x`connections` where one process holds
/// both ends. Every process with an end raises its own.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit() {
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

/// No descriptor limit to raise off Linux.
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit() {}

/// Resident set size in MiB from `/proc/self/statm` (best effort; the
/// conventional 4 KiB page size is assumed — a bound this coarse does
/// not need `sysconf`).
#[cfg(target_os = "linux")]
pub fn rss_mb() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096.0 / (1024.0 * 1024.0))
}

/// No `/proc/self/statm` off Linux.
#[cfg(not(target_os = "linux"))]
pub fn rss_mb() -> Option<f64> {
    None
}

/// A deterministic two-symptom query for cohort connection `i`, sweep
/// round `round` — distinct enough to exercise the scoring path, no RNG
/// needed.
pub fn query_line(i: usize, round: usize) -> String {
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

/// What a cohort's threads share: how many connections have landed, and
/// when to let go of them — the stop flag or the deadline, whichever
/// comes first.
struct Hold {
    opened: AtomicUsize,
    stop: AtomicBool,
    deadline: Instant,
}

impl Hold {
    fn released(&self) -> bool {
        // Relaxed: the flag publishes nothing but itself.
        self.stop.load(Ordering::Relaxed) || Instant::now() >= self.deadline
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
    // Conns drop (close) here — after the release, by construction.
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

/// A cohort being held: its threads dial, sweep and dribble until
/// [`Cohort::release`] or the deadline, whichever comes first.
#[must_use = "join the cohort: its threads hold the connections and the ledger"]
pub struct Cohort {
    hold: Arc<Hold>,
    threads: Vec<JoinHandle<(usize, usize)>>,
}

impl Cohort {
    /// Starts `spec`'s cohort against `front` and returns at once; the
    /// connections land as the threads dial.
    pub fn hold(front: SocketAddr, spec: &StormSpec, deadline: Instant) -> Self {
        raise_nofile_limit();
        let hold = Arc::new(Hold {
            opened: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            deadline,
        });
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
            let hold = Arc::clone(&hold);
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
        Self { hold, threads }
    }

    /// Connections dialed so far.
    pub fn opened(&self) -> usize {
        self.hold.opened.load(Ordering::Relaxed)
    }

    /// Sets the stop flag: every thread finishes the request (or the
    /// dribbled wave) it is in and lets go.
    pub fn release(&self) {
        self.hold.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for every thread to let go — closing its connections — and
    /// adds up the ledger.
    pub fn join(self) -> StormResult {
        let (mut executed, mut failures) = (0usize, 0usize);
        for thread in self.threads {
            let (e, f) = thread.join().expect("storm thread");
            executed += e;
            failures += f;
        }
        StormResult {
            opened: self.hold.opened.load(Ordering::Relaxed),
            executed,
            failures,
            rss_growth_mb: None,
        }
    }
}

/// Holds the whole cohort against `front` until `hold_until` and probes
/// this process's resident memory around it. Blocks for the full
/// window; the engine runs it on its own thread beside the query lanes.
pub fn run(front: SocketAddr, spec: &StormSpec, hold_until: Instant) -> StormResult {
    let rss_before = rss_mb();
    let cohort = Cohort::hold(front, spec, hold_until);

    // Sample peak RSS while the fleet is fully dialed and still held:
    // wait for every connection to land (or the window to near its
    // end), then read the probe with the sockets all open.
    let sample_by = hold_until
        .checked_sub(Duration::from_millis(100))
        .unwrap_or(hold_until);
    while Instant::now() < sample_by && cohort.opened() < spec.connections {
        std::thread::sleep(Duration::from_millis(10));
    }
    let rss_peak = rss_mb();

    StormResult {
        rss_growth_mb: match (rss_before, rss_peak) {
            (Some(before), Some(peak)) => Some((peak - before).max(0.0)),
            _ => None,
        },
        ..cohort.join()
    }
}
