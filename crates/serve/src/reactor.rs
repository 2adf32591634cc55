//! A dependency-free readiness reactor for the NDJSON wire protocol.
//!
//! The original server gave every accepted connection its own OS
//! thread, which capped concurrent connections at whatever thread
//! count the host tolerated and burned a stack per idle keep-alive.
//! This module replaces that with the classic single-threaded event
//! loop over nonblocking sockets: one reactor thread owns *all*
//! socket I/O through an OS readiness facility (`epoll(7)` on Linux,
//! `poll(2)` elsewhere on unix), and a small fixed pool of worker
//! threads runs the actual request handlers — scoring still blocks on
//! the micro-batcher, so handlers stay off the reactor thread.
//!
//! Connection count is now bounded by file descriptors, not threads:
//! ten thousand idle keep-alives cost ten thousand fds and their
//! buffers, no stacks. The pieces:
//!
//! - [`Service`] — what the reactor serves: the replica [`Engine`]
//!   and the cluster router both implement it, so one reactor drives
//!   both layers;
//! - [`Connection`] (in [`crate::conn`]) — the per-socket state
//!   machine with one-response write-backpressure;
//! - a TCP-socketpair **waker** so worker completions interrupt the
//!   poll wait without any pipe/eventfd FFI;
//! - **epoch-guarded completions**: a worker finishing after its
//!   connection closed (and the slab slot was reused) cannot write
//!   into the wrong connection;
//! - a write **deadline**: a peer that stops reading has its
//!   connection closed once its response has been stuck for
//!   `WRITE_TIMEOUT` (slowloris-style readers cannot pin buffers);
//! - **graceful drain**: on stop the listener closes, idle
//!   keep-alives are closed immediately, in-flight requests finish
//!   and their responses flush, then the loop exits.
//!
//! Everything here is `std` + the libc symbols `std` already links —
//! no external crates.
//!
//! [`Engine`]: crate::server
//! [`Connection`]: crate::conn::Connection

use crate::conn::Connection;
use smgcn_obs::histogram::LatencyHistogram;
use smgcn_obs::registry::{Counter, Gauge, Registry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

#[cfg(not(unix))]
compile_error!("the readiness reactor requires a unix host (epoll or poll)");

/// Readable readiness (also delivered on error/hangup so the read
/// path observes the failure).
pub const EVENT_READ: u32 = 0b01;
/// Writable readiness.
pub const EVENT_WRITE: u32 = 0b10;

#[cfg(target_os = "linux")]
mod sys {
    //! `epoll(7)` via the libc symbols `std` already links.

    use super::{EVENT_READ, EVENT_WRITE};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`; packed on x86-64 only, per the kernel ABI.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// A level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let mut events = 0u32;
            if interest & EVENT_READ != 0 {
                events |= EPOLLIN;
            }
            if interest & EVENT_WRITE != 0 {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits up to `timeout`, appending `(token, readable,
        /// writable)` triples. EINTR is treated as an empty wake.
        pub fn wait(&self, out: &mut Vec<(u64, bool, bool)>, timeout: Duration) -> io::Result<()> {
            const CAP: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct by value.
                let events = { ev.events };
                let data = { ev.data };
                let failed = events & (EPOLLERR | EPOLLHUP) != 0;
                out.push((
                    data,
                    events & EPOLLIN != 0 || failed,
                    events & EPOLLOUT != 0 || failed,
                ));
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! `poll(2)` fallback for non-Linux unix: O(fds) per wait, but
    //! the same level-triggered semantics and zero dependencies.

    use super::{EVENT_READ, EVENT_WRITE};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout_ms: i32) -> i32;
    }

    pub struct Poller {
        registered: Mutex<BTreeMap<RawFd, (u64, u32)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: Mutex::new(BTreeMap::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<(u64, bool, bool)>, timeout: Duration) -> io::Result<()> {
            let snapshot: Vec<(RawFd, u64, u32)> = {
                let reg = self.registered.lock().unwrap();
                reg.iter().map(|(&fd, &(t, i))| (fd, t, i)).collect()
            };
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: (if interest & EVENT_READ != 0 {
                        POLLIN
                    } else {
                        0
                    }) | (if interest & EVENT_WRITE != 0 {
                        POLLOUT
                    } else {
                        0
                    }),
                    revents: 0,
                })
                .collect();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(snapshot.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                let failed = pfd.revents & (POLLERR | POLLHUP) != 0;
                out.push((
                    token,
                    pfd.revents & POLLIN != 0 || failed,
                    pfd.revents & POLLOUT != 0 || failed,
                ));
            }
            Ok(())
        }
    }
}

/// What the reactor serves. The replica engine and the cluster router
/// both implement this, so a single reactor implementation drives the
/// whole fleet's connection handling.
pub trait Service: Send + Sync + 'static {
    /// Handles one complete request line and returns the one-line
    /// response (no trailing newline). Runs on a worker thread, so
    /// blocking (micro-batcher waits, replica forwards) is fine.
    fn handle(&self, line: &str, conn_key: &str) -> String;

    /// Called on the reactor thread when a connection is refused at
    /// the connection cap. Implementations bump their shed counters /
    /// journal the event and return the one-line structured refusal.
    fn shed(&self) -> String;

    /// Called once, on the reactor thread, when a graceful drain
    /// begins (stop requested): journal it, flip health, etc.
    fn on_drain(&self) {}
}

/// A response stuck behind a non-reading peer for longer than this
/// closes the connection (the old per-stream write timeout, now
/// enforced by deadline sweep instead of a blocking write).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Poll-wait upper bound; paces deadline sweeps and stop checks when no
/// I/O is happening.
const TICK: Duration = Duration::from_millis(100);

/// Reactor health metrics, registered alongside the service's own
/// registry so `{"op":"metrics"}` exposes them per replica/router.
struct ReactorMetrics {
    /// Poll wakeups that delivered at least one event.
    wakeups: Counter,
    /// Ready-queue depth per wakeup (how many fds were ready at once).
    ready_batch: Arc<LatencyHistogram>,
    /// Currently open client connections (fds owned by the reactor).
    open_fds: Gauge,
    /// Connections accepted (shed refusals not included).
    accepted: Counter,
    /// Connections closed by the write deadline (slow readers).
    slow_closed: Counter,
}

impl ReactorMetrics {
    fn register(registry: &Registry) -> Self {
        Self {
            wakeups: registry.counter("reactor_wakeups_total"),
            ready_batch: registry.histogram("reactor_ready_batch"),
            open_fds: registry.gauge("reactor_open_fds"),
            accepted: registry.counter("reactor_accepted_total"),
            slow_closed: registry.counter("reactor_slow_closed_total"),
        }
    }
}

/// A request handed to the worker pool.
struct Job {
    token: usize,
    epoch: u64,
    line: String,
    conn_key: String,
}

/// A finished response headed back to the reactor thread.
type Completion = (usize, u64, String);

const WAKER_TOKEN: u64 = u64::MAX;
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// How long a refused connection stays open, write side shut, for the
/// peer to read the refusal and close first (checked once a loop turn).
const REFUSED_LINGER: Duration = Duration::from_millis(250);
/// Most request bytes drained from one refused connection.
const REFUSED_DRAIN_BYTES: usize = 4096;
/// Most refused connections lingering at once; a flood beyond this
/// drops the oldest early, so refusals cannot pin fds.
const REFUSED_MAX: usize = 256;

/// A connection refused at the cap, kept until the peer has had its
/// chance to read the refusal. Closing a socket with unread request
/// bytes queued (or arriving later) answers with an RST, and a reset
/// can fail the peer's write or read before it sees the shed line; so
/// the refusal is written, the write side shut (the peer reads the line,
/// then EOF), and the peer's bytes are drained until it closes, the
/// byte budget is spent, or the deadline passes.
struct Refused {
    stream: TcpStream,
    deadline: Instant,
    budget: usize,
}

/// A loopback TCP pair standing in for a self-pipe: workers write one
/// byte to interrupt the reactor's poll wait. Plain sockets, so no
/// extra FFI beyond the poller itself.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // Guard against a stray process racing us to the ephemeral port.
    loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let _ = tx.set_nodelay(true);
            return Ok((tx, rx));
        }
    }
}

/// The event loop: listener, service, and stop flag in; graceful
/// drain out. Built by the serve [`Server`](crate::server::Server)
/// and the cluster router, which share all connection behavior
/// through it.
pub struct Reactor<S: Service> {
    listener: TcpListener,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    max_connections: usize,
    metrics: ReactorMetrics,
}

impl<S: Service> Reactor<S> {
    /// Prepares a reactor over an already-bound listener. Connections
    /// beyond `max_connections` are shed with a structured, retryable
    /// refusal at accept time; the bound is fds, not threads. Metrics
    /// are registered into `registry` immediately so they appear in
    /// `{"op":"metrics"}` snapshots even before traffic arrives.
    pub fn new(
        listener: TcpListener,
        service: Arc<S>,
        stop: Arc<AtomicBool>,
        max_connections: usize,
        registry: &Registry,
    ) -> Self {
        let metrics = ReactorMetrics::register(registry);
        Self {
            listener,
            service,
            stop,
            max_connections: max_connections.max(1),
            metrics,
        }
    }

    /// Runs until the stop flag fires and the drain completes.
    pub fn run(self) -> io::Result<()> {
        use std::os::fd::AsRawFd;

        let poller = sys::Poller::new()?;
        self.listener.set_nonblocking(true)?;
        // Re-arm the accept queue: `std` binds listeners with a 128-deep
        // backlog, which drops SYNs under a connection storm and stalls
        // dialing clients in second-granularity retries. Calling
        // `listen(2)` again on a listening socket just updates the
        // backlog; the kernel clamps it to `somaxconn`. Best-effort — a
        // failure leaves the stock backlog, not a broken listener.
        {
            extern "C" {
                fn listen(fd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
            }
            // SAFETY: plain syscall on a valid, owned listening fd.
            unsafe {
                let _ = listen(self.listener.as_raw_fd(), 4096);
            }
        }
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, EVENT_READ)?;
        let (waker_tx, waker_rx) = waker_pair()?;
        poller.add(waker_rx.as_raw_fd(), WAKER_TOKEN, EVENT_READ)?;

        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let waker_tx = Arc::new(waker_tx);
        let mut workers = Vec::new();
        // Wide enough to keep the micro-batcher fed, far below
        // one-thread-per-connection.
        for i in 0..self.max_connections.clamp(4, 32) {
            let rx = Arc::clone(&job_rx);
            let done = Arc::clone(&completions);
            let wake = Arc::clone(&waker_tx);
            let service = Arc::clone(&self.service);
            let handle = std::thread::Builder::new()
                .name(format!("smgcn-worker-{i}"))
                .spawn(move || loop {
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => break, // reactor dropped the sender: drain done
                    };
                    let response = service.handle(&job.line, &job.conn_key);
                    done.lock().unwrap().push((job.token, job.epoch, response));
                    // A full waker buffer means a wake is already
                    // pending; losing this byte is fine.
                    let _ = (&*wake).write(&[1u8]);
                })
                .expect("spawn reactor worker");
            workers.push(handle);
        }

        let mut state = LoopState {
            poller: &poller,
            service: &*self.service,
            metrics: &self.metrics,
            job_tx: Some(job_tx),
            slots: Vec::new(),
            free: Vec::new(),
            retired: Vec::new(),
            refused: VecDeque::new(),
            open: 0,
            next_conn_id: 0,
            draining: false,
        };
        let max_connections = self.max_connections;
        let mut listener = Some(self.listener);
        let mut events: Vec<(u64, bool, bool)> = Vec::new();

        loop {
            events.clear();
            poller.wait(&mut events, TICK)?;
            if !events.is_empty() {
                state.metrics.wakeups.inc();
                state.metrics.ready_batch.record(events.len() as u64);
            }
            for &(token, readable, writable) in events.iter() {
                match token {
                    WAKER_TOKEN => {
                        // Drain the wake bytes; completions are
                        // delivered below for every iteration.
                        let mut sink = [0u8; 64];
                        while let Ok(n) = io::Read::read(&mut (&waker_rx), &mut sink) {
                            if n == 0 || n < sink.len() {
                                break;
                            }
                        }
                    }
                    LISTENER_TOKEN => {
                        if let Some(l) = listener.as_ref() {
                            state.accept_ready(l, max_connections);
                        }
                    }
                    token => state.conn_event(token as usize, readable, writable),
                }
            }
            state.deliver(&completions);
            // Slab slots freed this iteration become reusable only
            // now, so a stale token in the same event batch can never
            // alias a brand-new connection.
            let mut retired = std::mem::take(&mut state.retired);
            state.free.append(&mut retired);

            if self.stop.load(Ordering::SeqCst) && !state.draining {
                state.draining = true;
                state.service.on_drain();
                // Stop accepting: deregister and close the listener.
                if let Some(l) = listener.take() {
                    let _ = poller.delete(l.as_raw_fd());
                }
            }
            if state.draining {
                // Idle keep-alives close promptly; busy connections
                // finish their in-flight response first (the deliver
                // path closes them once the response flushes).
                state.close_idle();
                if state.open == 0 {
                    break;
                }
            }
            let now = Instant::now();
            state.sweep_refused(now);
            state.sweep_deadlines(now);
        }

        // Dropping the sender ends the workers once queued jobs (all
        // for already-closed connections by now) are done.
        state.job_tx = None;
        drop(state);
        for handle in workers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Mutable event-loop state, split from [`Reactor`] so handler
/// methods can borrow it as one unit.
struct LoopState<'a, S: Service> {
    poller: &'a sys::Poller,
    service: &'a S,
    metrics: &'a ReactorMetrics,
    job_tx: Option<mpsc::Sender<Job>>,
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots freed during the current iteration; merged into `free`
    /// only after the event batch to prevent token aliasing.
    retired: Vec<usize>,
    /// Connections refused at the cap, oldest first, draining until
    /// their peer closes (see [`Refused`]).
    refused: VecDeque<Refused>,
    open: usize,
    next_conn_id: u64,
    draining: bool,
}

impl<S: Service> LoopState<'_, S> {
    fn accept_ready(&mut self, listener: &TcpListener, max_connections: usize) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Every accepted stream consumes a conn id, shed
                    // or not, mirroring the old enumerate()-based ids
                    // (sticky variant keys depend on them).
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    if self.open >= max_connections {
                        let refusal = self.service.shed();
                        // A fresh socket's send buffer is empty, so the
                        // nonblocking write takes the whole line.
                        let mut stream = stream;
                        if stream.set_nonblocking(true).is_ok()
                            && writeln!(stream, "{refusal}").is_ok()
                            && stream.shutdown(Shutdown::Write).is_ok()
                        {
                            if self.refused.len() == REFUSED_MAX {
                                self.refused.pop_front();
                            }
                            self.refused.push_back(Refused {
                                stream,
                                deadline: Instant::now() + REFUSED_LINGER,
                                budget: REFUSED_DRAIN_BYTES,
                            });
                        }
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.metrics.accepted.inc();
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let epoch = conn_id + 1; // nonzero, strictly increasing
                    let mut conn = Connection::new(stream, format!("conn-{conn_id}"), epoch);
                    if self
                        .poller
                        .add(conn.raw_fd(), idx as u64, EVENT_READ)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    conn.set_interest(EVENT_READ);
                    self.slots[idx] = Some(conn);
                    self.open += 1;
                    self.metrics.open_fds.set(self.open as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient (e.g. ECONNABORTED): the next readiness
                // event retries.
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, idx: usize, readable: bool, writable: bool) {
        let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return; // stale token from this same batch
        };
        if readable && conn.on_readable().is_err() {
            self.close(idx);
            return;
        }
        // Reborrow: `close` above ends the first borrow's region.
        let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if writable && conn.wants_write() && conn.flush().is_err() {
            self.close(idx);
            return;
        }
        self.advance(idx);
    }

    /// Central post-I/O driver: dispatch the next buffered line when
    /// the connection is free, close when drained/EOF, and re-arm
    /// poller interest to match the new state.
    fn advance(&mut self, idx: usize) {
        let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if !conn.in_flight() && !conn.wants_write() {
            if self.draining {
                self.close(idx);
                return;
            }
            match conn.next_line() {
                Ok(Some(line)) => {
                    conn.begin_request();
                    let job = Job {
                        token: idx,
                        epoch: conn.epoch(),
                        line,
                        conn_key: conn.conn_key().to_string(),
                    };
                    if let Some(tx) = &self.job_tx {
                        if tx.send(job).is_err() {
                            self.close(idx);
                            return;
                        }
                    }
                }
                Ok(None) => {
                    if conn.is_eof() {
                        self.close(idx); // peer gone, nothing pending
                        return;
                    }
                }
                Err(_) => {
                    self.close(idx); // protocol violation
                    return;
                }
            }
        }
        self.update_interest(idx);
    }

    /// Applies finished worker responses: queue, flush, then either
    /// close (drain/EOF) or move on to the next pipelined request.
    fn deliver(&mut self, completions: &Mutex<Vec<Completion>>) {
        let batch = std::mem::take(&mut *completions.lock().unwrap());
        for (idx, epoch, response) in batch {
            let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                continue; // connection closed while the worker ran
            };
            if conn.epoch() != epoch {
                continue; // slot reused: response belongs to a dead conn
            }
            conn.queue_response(&response);
            match conn.flush() {
                Ok(_) => {}
                Err(_) => {
                    self.close(idx);
                    continue;
                }
            }
            self.advance(idx);
        }
    }

    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let mut want = 0u32;
        if !conn.is_eof() && !conn.read_saturated() {
            want |= EVENT_READ;
        }
        if conn.wants_write() {
            want |= EVENT_WRITE;
        }
        if want != conn.interest() {
            let fd = conn.raw_fd();
            if self.poller.modify(fd, idx as u64, want).is_err() {
                self.close(idx);
                return;
            }
            if let Some(conn) = self.slots.get_mut(idx).and_then(Option::as_mut) {
                conn.set_interest(want);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slots.get_mut(idx).and_then(Option::take) {
            let _ = self.poller.delete(conn.raw_fd());
            self.open -= 1;
            self.metrics.open_fds.set(self.open as u64);
            self.retired.push(idx);
        }
    }

    /// Drain helper: closes every connection with no in-flight
    /// request and no pending response bytes.
    fn close_idle(&mut self) {
        for idx in 0..self.slots.len() {
            let idle = self.slots[idx].as_ref().map(Connection::is_idle);
            if idle == Some(true) {
                self.close(idx);
            }
        }
    }

    /// Drains refused connections, dropping each once its peer has
    /// closed, its byte budget is spent or its deadline has passed.
    fn sweep_refused(&mut self, now: Instant) {
        if self.refused.is_empty() {
            return;
        }
        let mut sink = [0u8; 512];
        self.refused.retain_mut(|r| loop {
            let want = r.budget.min(sink.len());
            match r.stream.read(&mut sink[..want]) {
                Ok(0) => return false,
                Ok(n) => r.budget -= n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return now < r.deadline,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        });
    }

    /// Closes connections whose response has been stuck behind a
    /// non-reading peer past the write deadline.
    fn sweep_deadlines(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let expired = self.slots[idx]
                .as_ref()
                .map(|c| c.stalled_for(now) >= WRITE_TIMEOUT)
                .unwrap_or(false);
            if expired {
                self.metrics.slow_closed.inc();
                self.close(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::AtomicUsize;

    /// Echoes the line back, uppercased, tagged with the conn key.
    struct Upper {
        sheds: AtomicUsize,
        drains: AtomicUsize,
    }

    impl Service for Upper {
        fn handle(&self, line: &str, conn_key: &str) -> String {
            format!("{}|{}", line.to_uppercase(), conn_key)
        }
        fn shed(&self) -> String {
            self.sheds.fetch_add(1, Ordering::SeqCst);
            "{\"error\":{\"code\":\"OVERLOADED\"}}".to_string()
        }
        fn on_drain(&self) {
            self.drains.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn start(
        max_connections: usize,
    ) -> (
        std::net::SocketAddr,
        Arc<Upper>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Upper {
            sheds: AtomicUsize::new(0),
            drains: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Registry::new();
        let reactor = Reactor::new(
            listener,
            Arc::clone(&service),
            Arc::clone(&stop),
            max_connections,
            &registry,
        );
        let handle = std::thread::spawn(move || reactor.run().unwrap());
        (addr, service, stop, handle)
    }

    fn stop_and_join(
        addr: std::net::SocketAddr,
        stop: &Arc<AtomicBool>,
        handle: std::thread::JoinHandle<()>,
    ) {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // nudge the poll wait
        handle.join().unwrap();
    }

    #[test]
    fn serves_pipelined_lines_with_sticky_conn_keys() {
        let (addr, _service, stop, handle) = start(8);
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"one\ntwo\n").unwrap();
        let mut reader = BufReader::new(a.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ONE|conn-0");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "TWO|conn-0");
        // A second connection gets the next sticky key.
        let mut b = TcpStream::connect(addr).unwrap();
        b.write_all(b"three\n").unwrap();
        let mut reader_b = BufReader::new(b.try_clone().unwrap());
        line.clear();
        reader_b.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "THREE|conn-1");
        stop_and_join(addr, &stop, handle);
    }

    #[test]
    fn sheds_beyond_the_connection_cap() {
        let (addr, service, stop, handle) = start(1);
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"ping\n").unwrap();
        let mut reader = BufReader::new(held.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "PING|conn-0");
        // The cap counts open connections, so the next one is shed.
        let over = TcpStream::connect(addr).unwrap();
        let mut over_reader = BufReader::new(over);
        line.clear();
        over_reader.read_line(&mut line).unwrap();
        assert!(line.contains("OVERLOADED"), "got {line:?}");
        line.clear();
        assert_eq!(over_reader.read_line(&mut line).unwrap(), 0, "shed closes");
        assert_eq!(service.sheds.load(Ordering::SeqCst), 1);
        stop_and_join(addr, &stop, handle);
    }

    /// A client that wrote its first request before the refusal reached
    /// it must still read the shed line and then a clean EOF: closing the
    /// socket over those unread bytes would answer with a reset.
    #[test]
    fn shed_line_survives_a_request_already_written() {
        let (addr, service, stop, handle) = start(1);
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"ping\n").unwrap();
        let mut held_reader = BufReader::new(held.try_clone().unwrap());
        let mut line = String::new();
        held_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "PING|conn-0");
        for i in 0..200 {
            let mut over = TcpStream::connect(addr).unwrap();
            over.write_all(b"{\"op\":\"stats\"}\n")
                .unwrap_or_else(|e| panic!("iteration {i}: probe write: {e}"));
            let mut over_reader = BufReader::new(over);
            line.clear();
            over_reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("iteration {i}: reading the shed line: {e}"));
            assert!(line.contains("OVERLOADED"), "iteration {i}: got {line:?}");
            line.clear();
            let n = over_reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("iteration {i}: close after the shed line: {e}"));
            assert_eq!(n, 0, "iteration {i}: shed closes");
        }
        assert_eq!(service.sheds.load(Ordering::SeqCst), 200);
        // The reactor never blocked on a refused peer: the held
        // connection is still served.
        held.write_all(b"pong\n").unwrap();
        line.clear();
        held_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "PONG|conn-0");
        stop_and_join(addr, &stop, handle);
    }

    #[test]
    fn slow_readers_are_closed_by_the_write_deadline() {
        let (addr, _service, stop, handle) = start(4);
        // A slowloris-style client: pipelines large requests but never
        // reads a byte back. Once the kernel buffers and the one
        // buffered response fill up, the write deadline must close it
        // — it cannot pin reactor memory indefinitely.
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_write_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let line = format!("{}\n", "x".repeat(256 * 1024));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut closed = false;
        while Instant::now() < deadline {
            match client.write_all(line.as_bytes()) {
                Ok(()) => {}
                // A stalled local send buffer is not the close signal —
                // only the server-side reset/EPIPE is.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        assert!(closed, "server never closed the non-reading client");
        stop_and_join(addr, &stop, handle);
    }

    #[test]
    fn drain_closes_idle_and_finishes_in_flight() {
        let (addr, service, stop, handle) = start(8);
        // An idle keep-alive: gets EOF promptly once drain begins.
        let idle = TcpStream::connect(addr).unwrap();
        let mut idle_reader = BufReader::new(idle);
        // Confirm the connection is up before stopping.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"hello\n").unwrap();
        let mut busy_reader = BufReader::new(busy.try_clone().unwrap());
        let mut line = String::new();
        busy_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "HELLO|conn-1");
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        handle.join().unwrap();
        assert_eq!(service.drains.load(Ordering::SeqCst), 1);
        line.clear();
        assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0, "idle closed");
    }
}
