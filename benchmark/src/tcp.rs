//! The five socket workloads: `tcp_unique`, `tcp_hot`, `tcp_publish`,
//! `tcp_publish_write` and `routed_unique`. A replica (or a router in
//! front of two) runs in this process on loopback; closed-loop clients
//! talk to it over the NDJSON wire protocol and every reply is checked
//! after the window.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smgcn_cluster::{Router, RouterConfig};
use smgcn_serve::{artifact, Server, ServerConfig};

use crate::emit::{field_bool, field_ids, field_num};
use crate::gen::{query, symptom_set, write_request, Query, Rng, Weights, K};
use crate::layers;
use crate::measure::{measure, set_up_timed, watch_window, Mark, Outcome, Plan, Sample};
use crate::oracle::Oracle;
use crate::stats::{median, peak_rss_mb, percentile, sorted};
use crate::sys;
use crate::trace::{self, median_self_ns, Span, Tracer};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Unique,
    Hot,
    Publish,
    PublishWrite,
    Routed,
}

impl Kind {
    /// The workload's name in BENCHMARK.json.
    fn name(self) -> &'static str {
        match self {
            Kind::Unique => "tcp_unique",
            Kind::Hot => "tcp_hot",
            Kind::Publish => "tcp_publish",
            Kind::PublishWrite => "tcp_publish_write",
            Kind::Routed => "routed_unique",
        }
    }
}

/// The paper's served shape.
const SYMPTOMS: usize = 360;
const HERBS: usize = 753;
const DIM: usize = 256;

/// Closed-loop callers. Each waits for its reply, so two of them keep
/// one request in the program while the other is on its way.
const CONNECTIONS: usize = 2;
const HOT_SETS: usize = 64;
/// Requests per set-up before anything is timed, over all connections.
const WARMUP_REQUESTS: usize = 4_000;
/// Publishes per set-up of `tcp_publish_write` before any is timed.
const WARMUP_PUBLISHES: usize = 4;
/// One publish in every half-second slice, a quarter of a second in, so
/// that each slice carries the same write load. Beside a reader on one
/// core a publish takes 100 to 125 ms and the misses it leaves another
/// 40: at twice this rate the core was close to doing nothing else, and
/// whether a slice's requests fell mostly beside a publish or between
/// two flipped from slice to slice (13k or 21k requests a second).
const PUBLISH_PERIOD: Duration = Duration::from_millis(500);
/// One traced request in this many is replayed through the layers.
const REPLAY_ONE_IN: usize = 8;

/// One workload's load: its kind, its seed, and everything generated
/// from the seed before the first set-up.
pub struct Inputs {
    pub kind: Kind,
    seed: u64,
    /// A replica starts on `models[0]`; each publish alternates.
    pub models: Vec<Weights>,
    pub hot: Vec<Query>,
    /// `{"op":"publish","artifact":<base64>}` for each of `models`.
    pub publish_lines: Vec<String>,
}

/// Which of [`Inputs::models`] each generation of one replica serves, by
/// generation number: `[0]` when it starts, one more entry for every
/// publish it acknowledged. The publisher continues the alternation
/// from here in each window, and the oracle picks its model from here.
type Generations = Vec<usize>;

impl Inputs {
    fn generate(kind: Kind, seed: u64) -> Self {
        let model = |stream| Weights::seeded(seed, stream, SYMPTOMS, HERBS, DIM);
        let mut rng = Rng::fork(seed, 10);
        let hot = (0..HOT_SETS).map(|_| query(&mut rng, SYMPTOMS)).collect();
        let mut inputs = Self {
            kind,
            seed,
            models: vec![model(0)],
            hot,
            publish_lines: Vec::new(),
        };
        if inputs.publishes() {
            inputs.models.push(model(1));
            for w in &inputs.models {
                let blob = artifact::encode(&w.frozen(), &w.vocab());
                inputs.publish_lines.push(format!(
                    "{{\"op\":\"publish\",\"artifact\":\"{}\"}}\n",
                    artifact::to_base64(&blob)
                ));
            }
        }
        inputs
    }
}

/// The program under test: replicas, and for `routed_unique` a router.
struct Stack {
    front: SocketAddr,
    replicas: Vec<SocketAddr>,
    stops: Vec<Box<dyn FnOnce()>>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Stack {
    fn start(kind: Kind, weights: &Weights) -> Self {
        let mut stack = Self {
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            replicas: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..if kind == Kind::Routed { 2 } else { 1 } {
            let server = Server::bind(
                "127.0.0.1:0",
                weights.frozen(),
                weights.vocab(),
                ServerConfig::default(),
            )
            .expect("bind a replica on loopback");
            stack.front = server.local_addr().expect("replica address");
            stack.replicas.push(stack.front);
            let stop = server.stop_handle();
            stack.stops.push(Box::new(move || stop.stop()));
            stack.threads.push(std::thread::spawn(move || server.run()));
        }
        if kind == Kind::Routed {
            let router = Router::bind(
                "127.0.0.1:0",
                stack.replicas.clone(),
                RouterConfig::default(),
            )
            .expect("bind the router on loopback");
            stack.front = router.local_addr().expect("router address");
            let stop = router.stop_handle();
            stack.stops.push(Box::new(move || stop.stop()));
            stack.threads.push(std::thread::spawn(move || router.run()));
        }
        stack
    }

    /// Stops the router before its replicas and waits for every thread.
    fn stop(self) {
        for stop in self.stops.into_iter().rev() {
            stop();
        }
        for thread in self.threads {
            thread
                .join()
                .expect("server thread panicked")
                .expect("server loop failed");
        }
    }
}

/// One lockstep NDJSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect on loopback");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        // A reply that never comes must fail the run, not hang it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set read timeout");
        Self {
            reader: BufReader::new(writer.try_clone().expect("clone socket")),
            writer,
        }
    }

    /// Sends `line`, which ends in its newline, and appends the reply
    /// line to `reply`.
    fn ask(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        if self.reader.read_line(reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

/// Where a client's next query comes from.
#[derive(Clone, Copy)]
enum Traffic<'a> {
    /// A fresh random set every time.
    Unique,
    /// Uniform draws from the pool.
    Hot(&'a [Query]),
    /// The pool in order, so warm-up touches every hot set.
    HotInOrder(&'a [Query]),
}

/// A reply's ranking, kept once however often it recurs and judged
/// against the oracle after the window, so that the client loop stays
/// cheap and the log small next to the program's own memory.
struct Answer {
    /// Index into the client's own sets (unique) or the hot pool.
    query: usize,
    /// The generation the reply names: the model that must have ranked.
    generation: usize,
    /// Empty when the reply carried no ranking (an error, a refusal).
    herbs: Vec<u32>,
}

/// One timed call, in twelve bytes: a run logs half a million of them
/// beside the program's own memory.
struct Op {
    end_us: u32,
    latency_ns: u32,
    answer: u32,
}

impl Op {
    /// Saturating: a reply slower than 4.29 s (the read timeout is 20 s)
    /// must read as that, not wrap round to a fast one.
    fn new(epoch: Instant, start: Instant, end: Instant, answer: u32) -> Self {
        let fit = |n: u128| u32::try_from(n).unwrap_or(u32::MAX);
        Self {
            end_us: fit(end.duration_since(epoch).as_micros()),
            latency_ns: fit(end.duration_since(start).as_nanos()),
            answer,
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct Log {
    own_sets: Vec<Vec<u32>>,
    ops: Vec<Op>,
    answers: Vec<Answer>,
    /// Traced runs only: per op, the server's `micros` and `cached`.
    server: Vec<(f64, bool)>,
    /// Traced runs only: every [`REPLAY_ONE_IN`]th op and its reply.
    kept: Vec<(usize, String)>,
}

/// The closed loop: ask, wait for the reply, ask again, while `go_on`
/// (given the number of requests made so far) says so.
fn drive(
    conn: &mut Conn,
    traffic: Traffic,
    rng: &mut Rng,
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
    go_on: impl Fn(usize) -> bool,
) -> Log {
    let mut log = Log::default();
    let mut seen: HashMap<(usize, usize), u32> = HashMap::new();
    let (mut own_line, mut reply) = (String::new(), String::new());
    while go_on(log.ops.len()) {
        let n = log.ops.len();
        let (query, line) = match traffic {
            Traffic::Unique => {
                log.own_sets.push(symptom_set(rng, SYMPTOMS));
                write_request(&mut own_line, &log.own_sets[n]);
                (n, own_line.as_str())
            }
            Traffic::Hot(pool) => {
                let i = rng.below(pool.len());
                (i, pool[i].line.as_str())
            }
            Traffic::HotInOrder(pool) => (n % pool.len(), pool[n % pool.len()].line.as_str()),
        };
        reply.clear();
        let start = Instant::now();
        let asked = conn.ask(line, &mut reply);
        let end = Instant::now();

        let herbs = field_ids(&reply, "herb_ids").unwrap_or_default();
        let generation = field_num(&reply, "generation").unwrap_or(0.0) as usize;
        // A hot set's ranking recurs; only a new one is kept.
        let answer = match seen.get(&(query, generation)) {
            Some(&a) if log.answers[a as usize].herbs == herbs => a,
            _ => {
                log.answers.push(Answer {
                    query,
                    generation,
                    herbs,
                });
                let a = log.answers.len() as u32 - 1;
                if !matches!(traffic, Traffic::Unique) {
                    seen.entry((query, generation)).or_insert(a);
                }
                a
            }
        };
        log.ops.push(Op::new(epoch, start, end, answer));
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("client.request", None, n as u64, start, end);
            log.server.push((
                field_num(&reply, "micros").unwrap_or(f64::NAN),
                field_bool(&reply, "cached") == Some(true),
            ));
            if n % REPLAY_ONE_IN == 0 {
                log.kept.push((n, reply.trim_end().to_string()));
            }
        }
        if asked.is_err() {
            break; // the reply that never came is judged a failure
        }
    }
    log
}

/// Sends the publish of the model after the one `generations` ends on and
/// returns whether the replica acknowledged it as its next generation,
/// in which case `generations` has it.
fn publish_next(
    conn: &mut Conn,
    inputs: &Inputs,
    generations: &mut Generations,
) -> std::io::Result<bool> {
    let next = (generations[generations.len() - 1] + 1) % inputs.models.len();
    let mut reply = String::new();
    conn.ask(&inputs.publish_lines[next], &mut reply)?;
    let acknowledged = field_bool(&reply, "published") == Some(true)
        && field_num(&reply, "generation") == Some(generations.len() as f64);
    if acknowledged {
        generations.push(next);
    }
    Ok(acknowledged)
}

struct PublishSample {
    /// Send time minus due time: how late the open-loop schedule ran.
    late_ms: f64,
    /// Acknowledgement time minus due time.
    latency_ms: f64,
    acknowledged: bool,
}

/// The open-loop publisher of `tcp_publish`: one publish every
/// [`PUBLISH_PERIOD`], timed from when it was due, whether or not the
/// last one came back on time.
fn publish_on_schedule(
    addr: SocketAddr,
    inputs: &Inputs,
    generations: &mut Generations,
    epoch: Instant,
    stop: &AtomicBool,
) -> Vec<PublishSample> {
    let mut conn = Conn::open(addr);
    let mut samples = Vec::new();
    for i in 0.. {
        let due = epoch + PUBLISH_PERIOD / 2 + PUBLISH_PERIOD * i;
        // In steps of a millisecond, so that the end of the window is seen.
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            let left = due.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(1)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        let asked = publish_next(&mut conn, inputs, generations);
        samples.push(PublishSample {
            late_ms: (sent - due).as_secs_f64() * 1e3,
            latency_ms: due.elapsed().as_secs_f64() * 1e3,
            acknowledged: matches!(asked, Ok(true)),
        });
        if asked.is_err() {
            break;
        }
    }
    samples
}

/// The closed loop of `tcp_publish_write`: publish, wait for the
/// acknowledgement (the timed call), then ask for one hot set, whose
/// reply must name the new generation and rank by the new model. The
/// log holds one op per publish, judged by that reply.
fn drive_publishes(
    conn: &mut Conn,
    inputs: &Inputs,
    generations: &mut Generations,
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
    go_on: impl Fn(usize) -> bool,
) -> Log {
    let mut log = Log::default();
    let mut reply = String::new();
    while go_on(log.ops.len()) {
        let n = log.ops.len();
        let start = Instant::now();
        let published = publish_next(conn, inputs, generations);
        let end = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("client.request", None, n as u64, start, end);
        }
        let query = n % inputs.hot.len();
        reply.clear();
        let read = conn.ask(&inputs.hot[query].line, &mut reply);
        let generation = field_num(&reply, "generation").unwrap_or(0.0) as usize;
        // Only the generation this publish made vouches for it.
        let vouched = matches!(published, Ok(true)) && generation == generations.len() - 1;
        log.answers.push(Answer {
            query,
            generation,
            herbs: match vouched {
                true => field_ids(&reply, "herb_ids").unwrap_or_default(),
                false => Vec::new(),
            },
        });
        log.ops.push(Op::new(epoch, start, end, n as u32));
        if published.is_err() || read.is_err() {
            break;
        }
    }
    log
}

struct Window {
    logs: Vec<Log>,
    marks: Vec<Mark>,
    publishes: Vec<PublishSample>,
}

impl Inputs {
    /// Whether the clients ask for sets of the hot pool.
    pub fn hot_path(&self) -> bool {
        self.kind != Kind::Unique && self.kind != Kind::Routed
    }

    fn publishes(&self) -> bool {
        matches!(self.kind, Kind::Publish | Kind::PublishWrite)
    }

    /// One set-up: start the program, connect, warm up. `setup_s` times
    /// this whole function.
    fn set_up(&self, plan: &Plan) -> (Stack, Vec<Conn>, Generations) {
        let stack = Stack::start(self.kind, &self.models[0]);
        // The publishing workloads have one client, the others two.
        let clients = if self.publishes() { 1 } else { CONNECTIONS };
        let mut conns: Vec<Conn> = (0..clients).map(|_| Conn::open(stack.front)).collect();
        let mut generations = vec![0];
        let epoch = Instant::now();
        if self.kind == Kind::PublishWrite {
            let publishes = plan.warmup_count(WARMUP_PUBLISHES);
            drive_publishes(&mut conns[0], self, &mut generations, epoch, None, |n| {
                n < publishes
            });
            return (stack, conns, generations);
        }
        let traffic = if self.hot_path() {
            Traffic::HotInOrder(&self.hot)
        } else {
            Traffic::Unique
        };
        let each = plan.warmup_count(WARMUP_REQUESTS).div_ceil(conns.len());
        std::thread::scope(|scope| {
            for (i, conn) in conns.iter_mut().enumerate() {
                let mut rng = Rng::fork(self.seed, 50 + i as u64);
                scope.spawn(move || drive(conn, traffic, &mut rng, epoch, None, |n| n < each));
            }
        });
        (stack, conns, generations)
    }

    /// Runs the closed loops (and the publisher) against `target` for
    /// `length`, reading a mark at each of `slices` boundaries. Windows
    /// of one run differ in `stream`, so that none repeats the sets an
    /// earlier one left cached.
    #[allow(clippy::too_many_arguments)]
    fn window(
        &self,
        stream: u64,
        target: SocketAddr,
        conns: &mut [Conn],
        generations: &mut Generations,
        mut tracers: Option<&mut Vec<Tracer>>,
        length: Duration,
        slices: usize,
    ) -> Window {
        let (inputs, seed, kind) = (self, self.seed, self.kind);
        let traffic = if self.hot_path() {
            Traffic::Hot(&self.hot)
        } else {
            Traffic::Unique
        };
        let stop = AtomicBool::new(false);
        let epoch = Instant::now();
        if let Some(tracers) = tracers.as_deref_mut() {
            *tracers = (0..conns.len())
                .map(|i| Tracer::new(epoch, (i as u32) << 28))
                .collect();
        }
        let mut tracer_refs: Vec<Option<&mut Tracer>> = match tracers {
            Some(tracers) => tracers.iter_mut().map(Some).collect(),
            None => conns.iter().map(|_| None).collect(),
        };
        std::thread::scope(|scope| {
            let stop = &stop;
            let going = move |_| !stop.load(Ordering::Relaxed);
            // Whichever thread publishes owns the record of it.
            let (mut writer, mut publisher) = (None, None);
            match kind {
                Kind::PublishWrite => writer = Some(generations),
                Kind::Publish => {
                    publisher = Some(scope.spawn(move || {
                        publish_on_schedule(target, inputs, generations, epoch, stop)
                    }))
                }
                _ => {}
            }
            let clients: Vec<_> = conns
                .iter_mut()
                .zip(tracer_refs.drain(..))
                .enumerate()
                .map(|(i, (conn, tracer))| {
                    let mut rng = Rng::fork(seed, 100 * stream + i as u64);
                    let writer = writer.take();
                    scope.spawn(move || match writer {
                        Some(generations) => {
                            drive_publishes(conn, inputs, generations, epoch, tracer, going)
                        }
                        None => drive(conn, traffic, &mut rng, epoch, tracer, going),
                    })
                })
                .collect();
            let marks = watch_window(epoch, length, slices);
            stop.store(true, Ordering::Relaxed);
            Window {
                logs: clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect(),
                marks,
                publishes: publisher.map_or(Vec::new(), |p| p.join().expect("publisher panicked")),
            }
        })
    }
}

/// The replies of one window, as [`check`] judged them.
struct Checked {
    samples: Vec<Sample>,
    failed: u64,
    /// Traced runs: the `micros` the server reported for correct replies,
    /// and how many of those replies came from its cache.
    server_us: Vec<f64>,
    cached: usize,
}

/// Judges every distinct answer against the oracle, once. The model
/// that must have ranked is the one `generations` has for the generation the
/// reply names; a generation nobody published is a failure.
fn check(inputs: &Inputs, generations: &[usize], logs: &[Log]) -> Checked {
    let oracles: Vec<Oracle> = inputs.models.iter().map(Oracle::new).collect();
    let hot = inputs.hot_path();
    // Hot sets recur, so each is scored once per model.
    let mut memo: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let mut checked = Checked {
        samples: Vec::new(),
        failed: 0,
        server_us: Vec::new(),
        cached: 0,
    };
    for log in logs {
        let verdicts: Vec<bool> = log
            .answers
            .iter()
            .map(|answer| {
                let Some(&model) = generations.get(answer.generation) else {
                    return false;
                };
                let fresh;
                let scores = if hot {
                    memo.entry((model, answer.query))
                        .or_insert_with(|| oracles[model].scores(&inputs.hot[answer.query].ids))
                } else {
                    fresh = oracles[model].scores(&log.own_sets[answer.query]);
                    &fresh
                };
                Oracle::accepts(scores, &answer.herbs, K)
            })
            .collect();
        for (n, op) in log.ops.iter().enumerate() {
            let ok = verdicts[op.answer as usize];
            checked.failed += u64::from(!ok);
            if let (true, Some(&(server_us, cached))) = (ok, log.server.get(n)) {
                checked.server_us.push(server_us);
                checked.cached += usize::from(cached);
            }
            checked.samples.push(Sample {
                end_ns: u64::from(op.end_us) * 1_000,
                latency_ns: u64::from(op.latency_ns),
                ops: 1,
                ok: u32::from(ok),
            });
        }
    }
    checked
}

fn judge_publishes(publishes: &[PublishSample], outcome: &mut Outcome) -> Option<(f64, f64)> {
    if publishes.is_empty() {
        return None;
    }
    let refused = publishes.iter().filter(|p| !p.acknowledged).count();
    if refused > 0 {
        outcome.faults.push(format!(
            "{refused} of {} publishes were not acknowledged",
            publishes.len()
        ));
    }
    let of =
        |pick: fn(&PublishSample) -> f64| median(&publishes.iter().map(pick).collect::<Vec<_>>());
    Some((of(|p| p.latency_ms), of(|p| p.late_ms)))
}

pub fn run(kind: Kind, plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    // Every thread of the run starts from this one and inherits its core.
    // The keeper starts from the pinned thread, so on that core, and
    // spins there until the run is over.
    let _keeper = match sys::pin_to_last_allowed_cpu().and_then(|cpu| {
        outcome.notes.push(format!("whole process on CPU {cpu}"));
        sys::IdleKeeper::start()
    }) {
        Ok(keeper) => Some(keeper),
        Err(why) => {
            outcome.notes.push(format!("EXPECT NOISE: {why}"));
            None
        }
    };
    let inputs = Inputs::generate(kind, plan.seed);
    if plan.trace {
        run_traced(&inputs, plan, &mut outcome);
        return outcome;
    }
    let (stack, mut conns, mut generations) = set_up_timed(
        plan,
        &mut outcome,
        || inputs.set_up(plan),
        |(stack, conns, _)| {
            drop::<Vec<Conn>>(conns);
            stack.stop();
        },
    );
    let window = inputs.window(
        1,
        stack.front,
        &mut conns,
        &mut generations,
        None,
        plan.window,
        plan.slices,
    );
    // Read before the oracle allocates: the peak is the program's.
    outcome.peak_rss_mb = peak_rss_mb();
    drop(conns);
    stack.stop();

    let checked = check(&inputs, &generations, &window.logs);
    outcome.attempted = checked.samples.len() as u64;
    outcome.failed = checked.failed;
    outcome.measured = Some(measure(&checked.samples, &window.marks));
    if let Some((write_p50_ms, late_p50_ms)) = judge_publishes(&window.publishes, &mut outcome) {
        outcome.notes.push(format!(
            "publishes: {} sent, write p50 {write_p50_ms:.2} ms from the due instant, schedule ran {late_p50_ms:.3} ms late (p50)",
            window.publishes.len()
        ));
    }
    outcome
}

fn counter(conn: &mut Conn, name: &str) -> f64 {
    let mut reply = String::new();
    conn.ask("{\"op\":\"metrics\"}\n", &mut reply)
        .expect("metrics reply");
    field_num(&reply, name).unwrap_or(f64::NAN)
}

/// The traced run: an untraced and a traced window of a quarter of the
/// time each (their throughputs give the tracing overhead), the wire's
/// own numbers, then a replay of every eighth traced request through
/// the layers on its path, in process and in path order.
fn run_traced(inputs: &Inputs, plan: &Plan, outcome: &mut Outcome) {
    let kind = inputs.kind;
    let (stack, mut conns, mut generations) = inputs.set_up(plan);
    let quarter = plan.window / 4;
    let mut window = |stream, tracers| {
        inputs.window(
            stream,
            stack.front,
            &mut conns,
            &mut generations,
            tracers,
            quarter,
            1,
        )
    };
    let untraced = window(1, None);
    let mut admin = Conn::open(stack.front);
    let counters = [
        "reactor_wakeups_total",
        "serve_sheds_total",
        "router_retries_total",
    ];
    let before = counters.map(|name| counter(&mut admin, name));
    let mut tracers = Vec::new();
    let traced = window(2, Some(&mut tracers));
    let after = counters.map(|name| counter(&mut admin, name));
    drop(admin);
    // Both windows ran on one replica, the second on the generations the
    // first left behind: they are judged by the one record of them.
    let whole = |w: &Window, generations: &[usize]| {
        measure(&check(inputs, generations, &w.logs).samples, &w.marks).whole
    };
    let checked = check(inputs, &generations, &traced.logs);
    outcome.attempted = checked.samples.len() as u64;
    outcome.failed = checked.failed;
    let latencies = sorted(
        checked
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect(),
    );
    let client_p50 = percentile(&latencies, 0.50);
    let ops = checked.samples.len() as f64;
    outcome.layer("client.p50_us", client_p50);
    outcome.layer("client.p99_us", percentile(&latencies, 0.99));
    outcome.layer("client.samples", ops);
    outcome.layer(
        "client.trace_overhead_share",
        1.0 - whole(&traced, &generations).ops_per_s / whole(&untraced, &generations).ops_per_s,
    );
    // A publish acknowledgement carries no `micros` and no `cached`.
    if !checked.server_us.is_empty() {
        let server_p50 = median(&checked.server_us);
        outcome.layer("serve.server.micros_p50_us", server_p50);
        outcome.layer("serve.reactor.outside_handle_us", client_p50 - server_p50);
        outcome.layer(
            "serve.cache.hit_ratio",
            checked.cached as f64 / checked.server_us.len() as f64,
        );
    }
    outcome.layer("serve.reactor.wakeups_per_op", (after[0] - before[0]) / ops);
    outcome.layer("serve.server.sheds", after[1] - before[1]);
    if let Some((write_p50_ms, late_p50_ms)) = judge_publishes(&traced.publishes, outcome) {
        outcome.layer("serve.publish.write_p50_ms", write_p50_ms);
        outcome.layer("serve.publish.late_p50_ms", late_p50_ms);
    }
    if kind == Kind::PublishWrite {
        outcome.layer("serve.publish.write_p50_ms", client_p50 / 1e3);
    }
    if kind == Kind::Routed {
        outcome.layer("cluster.router.retries", after[2] - before[2]);
        // The same traffic straight at one replica, router left out.
        let mut direct: Vec<Conn> = (0..CONNECTIONS)
            .map(|_| Conn::open(stack.replicas[0]))
            .collect();
        let mut unpublished = vec![0];
        let direct = inputs.window(
            3,
            stack.replicas[0],
            &mut direct,
            &mut unpublished,
            None,
            quarter,
            1,
        );
        outcome.layer(
            "cluster.router.hop_us",
            client_p50 - whole(&direct, &unpublished).p50_us,
        );
    }

    // Replay, on the traced window's clock: each client's every eighth
    // request under the root span the client recorded for it, or the
    // publisher's own lines stage by stage.
    let epoch = tracers[0].epoch;
    let mut spans: Vec<Span> = Vec::new();
    let shared = layers::Served::start(&inputs.models[0]);
    let replayed = std::thread::scope(|scope| {
        let workers: Vec<_> = traced
            .logs
            .iter()
            .zip(&tracers)
            .enumerate()
            .map(|(i, (log, tracer))| {
                let picked: Vec<layers::Picked> = log
                    .kept
                    .iter()
                    .map(|(n, reply)| {
                        let query = log.answers[log.ops[*n].answer as usize].query;
                        let (ids, line) = if inputs.hot_path() {
                            (&inputs.hot[query].ids, inputs.hot[query].line.clone())
                        } else {
                            let mut line = String::new();
                            write_request(&mut line, &log.own_sets[query]);
                            (&log.own_sets[query], line)
                        };
                        layers::Picked {
                            ids,
                            line,
                            reply,
                            root: tracer.spans[*n].id,
                            request: tracer.spans[*n].request,
                        }
                    })
                    .collect();
                let (shared, replica) = (&shared, stack.replicas[0]);
                let recorder = Tracer::new(epoch, ((CONNECTIONS + i) as u32) << 28);
                scope.spawn(move || {
                    layers::replay_requests(shared, inputs, picked, replica, recorder)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect::<Vec<_>>()
    });
    drop(shared);
    drop(conns);
    stack.stop();
    let mut scored = layers::ScoreStages::default();
    for tracer in tracers {
        spans.extend(tracer.spans);
    }
    for replay in replayed {
        spans.extend(replay.spans);
        scored.merge(replay.stages);
    }
    if inputs.publishes() {
        let (publish_spans, artifact_bytes) =
            layers::replay_publishes(inputs, Tracer::new(epoch, 3 << 28));
        spans.extend(publish_spans);
        outcome.layer("serve.artifact.bytes", artifact_bytes as f64);
    }

    let us = |name: &str| median_self_ns(&spans, name) / 1e3;
    let path: &[&str] = match kind {
        Kind::Unique => &[
            "serve.json.parse",
            "serve.cache.get_miss",
            "serve.batcher.call",
            "serve.cache.insert",
            "serve.json.encode",
        ],
        Kind::Hot | Kind::Publish => &[
            "serve.json.parse",
            "serve.cache.get_hit",
            "serve.json.encode",
        ],
        Kind::PublishWrite => &[
            "serve.json.parse_publish",
            "serve.artifact.b64_decode",
            "serve.slot.publish",
        ],
        Kind::Routed => &[
            "serve.json.parse",
            "cluster.ring.route",
            "cluster.pool.round_trip",
            "serve.json.encode",
        ],
    };
    let attributed: f64 = path.iter().map(|name| us(name)).sum();
    outcome.layer("serve.server.unattributed_us", client_p50 - attributed);
    outcome.layer(
        "serve.server.unattributed_share",
        1.0 - attributed / client_p50,
    );
    outcome.notes.push(format!(
        "client p50 {client_p50:.1} us = {attributed:.1} us in {} + {:.1} us unattributed ({:.1}%)",
        path.join(" + "),
        client_p50 - attributed,
        100.0 * (1.0 - attributed / client_p50),
    ));
    layers::report(&spans, &scored, outcome);
    outcome
        .notes
        .push(trace::save(&spans, &plan.out_dir, kind.name(), plan.seed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::top_k;

    fn op(n: usize) -> Op {
        Op {
            end_us: 10 * n as u32,
            latency_ns: 50_000,
            answer: n as u32,
        }
    }

    /// The other half of the oracle self-test: a reply with one herb id
    /// flipped is a failed operation, and not throughput.
    #[test]
    fn a_flipped_herb_id_is_a_failed_operation() {
        let inputs = Inputs::generate(Kind::Hot, 7);
        let model = inputs.models[0].frozen();
        let oracle = Oracle::new(&inputs.models[0]);
        let mut log = Log::default();
        for (q, query) in inputs.hot.iter().take(3).enumerate() {
            let mut herbs = model.recommend(&query.ids, K).expect("a valid set");
            if q == 1 {
                herbs[4] = *top_k(&oracle.scores(&query.ids), HERBS)
                    .last()
                    .expect("herbs");
            }
            log.answers.push(Answer {
                query: q,
                generation: 0,
                herbs,
            });
            log.ops.push(op(q));
        }
        let checked = check(&inputs, &[0], &[log]);
        assert_eq!(checked.failed, 1);
        let ok: Vec<u32> = checked.samples.iter().map(|s| s.ok).collect();
        assert_eq!(ok, [1, 0, 1]);
        let marks = [
            Mark {
                at_ns: 0,
                cpu_us: 0.0,
            },
            Mark {
                at_ns: 1_000_000_000,
                cpu_us: 90.0,
            },
        ];
        assert_eq!(measure(&checked.samples, &marks).whole.ops_per_s, 2.0);
    }

    /// The traced run's second window starts on whatever generation the
    /// first one ended on. The oracle goes by the record of what each
    /// generation serves, so neither the generation's parity nor a model
    /// published twice in a row misleads it.
    #[test]
    fn the_record_of_publishes_picks_the_model_not_the_parity() {
        let inputs = Inputs::generate(Kind::Publish, 7);
        let rankings: Vec<Vec<u32>> = inputs
            .models
            .iter()
            .map(|w| {
                w.frozen()
                    .recommend(&inputs.hot[0].ids, K)
                    .expect("a valid set")
            })
            .collect();
        assert_ne!(rankings[0], rankings[1]);
        let generations = [0, 1, 1];
        let mut log = Log::default();
        // Generation 2 served by model 1 (right), by model 0 (stale), and
        // a generation that was never published.
        for (n, (generation, model)) in [(2, 1), (2, 0), (3, 1)].into_iter().enumerate() {
            log.answers.push(Answer {
                query: 0,
                generation,
                herbs: rankings[model].clone(),
            });
            log.ops.push(op(n));
        }
        let checked = check(&inputs, &generations, &[log]);
        let ok: Vec<u32> = checked.samples.iter().map(|s| s.ok).collect();
        assert_eq!(ok, [1, 0, 0]);
    }

    #[test]
    fn a_reply_slower_than_the_counter_holds_saturates() {
        let epoch = Instant::now();
        let op = Op::new(epoch, epoch, epoch + Duration::from_secs(5), 0);
        assert_eq!(op.latency_ns, u32::MAX);
        assert_eq!(op.end_us, 5_000_000);
    }
}
