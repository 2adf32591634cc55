//! Replica connection pool: persistent connections, health probes and
//! exponential-backoff ejection.
//!
//! The router keeps a small pool of persistent NDJSON connections per
//! replica (connect cost amortised across requests) with a hard cap on
//! concurrent leases — a bounded in-flight budget per backend, the knob
//! that keeps one slow replica from absorbing the whole fleet's
//! concurrency. Health is tracked two ways:
//!
//! - **passively**: every forwarding failure counts against the
//!   replica; a hard transport failure ejects it immediately (the
//!   killed-replica case must converge in one observation, not after a
//!   probe interval);
//! - **actively**: a probe thread sends `{"op":"stats"}` on its own
//!   connection, recording the replica's generation and served p99; a
//!   replica that answers probes but serves slowly (above
//!   `slow_p99_us`) is ejected exactly like a dead one.
//!
//! Ejection is a lease gate with exponential backoff: an ejected
//! replica is skipped by [`Replica::try_lease`] until `retry_at`, then
//! one probe (or one optimistic lease, if every alternative is down)
//! decides between recovery and doubling the backoff. Success resets
//! the backoff to its base.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smgcn_faults::{sites, FaultAction};
use smgcn_obs::{Counter, EventJournal};
use smgcn_serve::client::{classify, LineClient, Step, Unanswered};
use smgcn_serve::json::Json;

/// Observability hooks shared by every replica in a pool: health
/// *transitions* (not every repeated failure) land in the fleet event
/// journal and tick the ejection/recovery counters. Optional — a pool
/// built without hooks behaves identically.
pub struct ClusterObs {
    /// Fleet event journal (`eject` / `recover` entries).
    pub events: Arc<EventJournal>,
    /// Healthy-to-ejected transitions.
    pub ejections: Counter,
    /// Ejected-to-healthy transitions.
    pub recoveries: Counter,
}

/// Pool/health tuning knobs (a subset of the router's config).
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Maximum concurrently-leased connections per replica.
    pub max_conns_per_replica: usize,
    /// Read timeout while waiting for a replica's response line on the
    /// *data path* (forwarded rankings). Deliberately tight: a stuck
    /// replica must fail fast so the failover walk can move on.
    pub replica_timeout: Duration,
    /// Read timeout for *admin* round trips (publish, stats/metrics/
    /// events fetches, health probes). Publishes carry a whole model
    /// artifact and land mid-swap, so the admin plane gets a larger
    /// budget than the data path — a slow publish must not be
    /// misdiagnosed as a dead replica.
    pub admin_timeout: Duration,
    /// Connect timeout for new replica connections.
    pub connect_timeout: Duration,
    /// First ejection backoff; doubles per consecutive failure.
    pub eject_base: Duration,
    /// Backoff ceiling.
    pub eject_max: Duration,
    /// Eject a replica whose served p99 exceeds this, if set
    /// (microseconds, from the replica's own latency histogram).
    pub slow_p99_us: Option<f64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            max_conns_per_replica: 8,
            replica_timeout: Duration::from_secs(5),
            admin_timeout: Duration::from_secs(15),
            connect_timeout: Duration::from_millis(500),
            eject_base: Duration::from_millis(100),
            eject_max: Duration::from_secs(5),
            slow_p99_us: None,
        }
    }
}

/// One persistent NDJSON connection to a replica: the plain
/// [`LineClient`] plus the fault site its round trips pass.
pub struct ReplicaConn {
    client: LineClient,
    /// Which fault-injection site this connection's round trips consume
    /// (`pool.forward.net` for data-path leases, `pool.admin.net` for
    /// probes/publishes/fleet fetches). Near-zero cost unless a plan is
    /// installed.
    fault_site: &'static str,
}

impl ReplicaConn {
    /// Opens a *data-path* connection with the pool's connect timeout
    /// and the tight `replica_timeout` read budget.
    pub fn connect(addr: SocketAddr, config: &PoolConfig) -> std::io::Result<Self> {
        Ok(Self {
            client: LineClient::connect(addr, config.connect_timeout, config.replica_timeout)?,
            fault_site: sites::POOL_FORWARD_NET,
        })
    }

    /// Opens an *admin* connection (publish, stats/metrics/events
    /// fetches, health probes) with the larger `admin_timeout` budget.
    pub fn connect_admin(addr: SocketAddr, config: &PoolConfig) -> std::io::Result<Self> {
        Ok(Self {
            client: LineClient::connect(addr, config.connect_timeout, config.admin_timeout)?,
            fault_site: sites::POOL_ADMIN_NET,
        })
    }

    /// Sends one request line and reads one response line (lockstep
    /// NDJSON). Any transport error (including timeout or EOF) poisons
    /// the connection — the caller drops it rather than resynchronise.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        if smgcn_faults::enabled() {
            match smgcn_faults::at(self.fault_site) {
                Some(FaultAction::Delay { ms }) => {
                    std::thread::sleep(Duration::from_millis(u64::from(ms)));
                }
                Some(FaultAction::Drop | FaultAction::IoError) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        format!("injected network fault at {}", self.fault_site),
                    ));
                }
                Some(FaultAction::ShortWrite { .. } | FaultAction::Corrupt { .. }) | None => {}
            }
        }
        self.client.ask(line)
    }
}

/// One admin request to a replica on a connection of its own (admin
/// traffic is rare and can carry a whole model; borrowing a pooled
/// data-path connection for it would add tail latency to live
/// traffic), read the one way every caller must read it: a refusal is
/// not an answer. Touches no health record — what a failure means for
/// the replica is the caller's call.
pub fn ask(addr: SocketAddr, config: &PoolConfig, line: &str) -> Result<Json, Unanswered> {
    let mut conn = ReplicaConn::connect_admin(addr, config).map_err(Unanswered::connect)?;
    classify(conn.round_trip(line))
}

/// Mutable health record of one replica.
#[derive(Clone, Debug)]
pub struct Health {
    /// False while ejected (dead or slow).
    pub healthy: bool,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// When an ejected replica may next be tried.
    pub retry_at: Option<Instant>,
    /// Current backoff interval.
    pub backoff: Duration,
    /// Last generation reported by a probe.
    pub generation: Option<u64>,
    /// Last served p99 reported by a probe (microseconds).
    pub p99_us: Option<f64>,
    /// Why the replica was last ejected, for stats output.
    pub eject_reason: Option<&'static str>,
}

/// One replica: address, pooled idle connections, lease accounting and
/// health state.
pub struct Replica {
    /// Position in the pool (== ring replica id).
    pub id: usize,
    /// The replica server's address.
    pub addr: SocketAddr,
    idle: Mutex<Vec<ReplicaConn>>,
    leased: AtomicUsize,
    health: Mutex<Health>,
    config: PoolConfig,
    obs: Option<Arc<ClusterObs>>,
}

/// A leased connection; return it with [`Replica::release`] on success
/// or [`Replica::discard`] on failure.
pub struct Lease {
    /// The connection itself.
    pub conn: ReplicaConn,
    /// Which replica it belongs to.
    pub replica: usize,
    /// True when the connection came from the idle pool (and may be
    /// stale — the peer can have restarted since it was parked).
    pub pooled: bool,
}

impl Replica {
    fn new(id: usize, addr: SocketAddr, config: PoolConfig, obs: Option<Arc<ClusterObs>>) -> Self {
        Self {
            id,
            addr,
            idle: Mutex::new(Vec::new()),
            leased: AtomicUsize::new(0),
            health: Mutex::new(Health {
                healthy: true,
                consecutive_failures: 0,
                retry_at: None,
                backoff: config.eject_base,
                generation: None,
                p99_us: None,
                eject_reason: None,
            }),
            config,
            obs,
        }
    }

    /// Snapshot of the health record.
    pub fn health(&self) -> Health {
        self.health.lock().expect("replica health lock").clone()
    }

    /// Currently leased connection count.
    pub fn in_flight(&self) -> usize {
        self.leased.load(Ordering::Relaxed)
    }

    /// True when the replica may be tried right now: healthy, or ejected
    /// but past its backoff deadline (a half-open probe slot).
    pub fn available(&self) -> bool {
        let h = self.health.lock().expect("replica health lock");
        h.healthy || h.retry_at.is_none_or(|t| Instant::now() >= t)
    }

    /// Reserves one in-flight slot (the cap check), shared by both lease
    /// paths so the accounting cannot diverge. Reserve *before* touching
    /// the pool so the cap holds under concurrency.
    fn reserve_slot(&self) -> bool {
        if !self.available() {
            return false;
        }
        let prev = self.leased.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.max_conns_per_replica {
            self.leased.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Opens a fresh connection against an already-reserved slot,
    /// releasing the slot (and ejecting the replica) on failure.
    fn connect_reserved(&self) -> Option<Lease> {
        match ReplicaConn::connect(self.addr, &self.config) {
            Ok(conn) => Some(Lease {
                conn,
                replica: self.id,
                pooled: false,
            }),
            Err(_) => {
                self.leased.fetch_sub(1, Ordering::AcqRel);
                self.note_failure("connect failed");
                None
            }
        }
    }

    /// Tries to lease a connection: `None` when the replica is ejected
    /// (and still backing off) or its in-flight cap is reached.
    pub fn try_lease(&self) -> Option<Lease> {
        if !self.reserve_slot() {
            return None;
        }
        // Bind the pop before matching: a match scrutinee's MutexGuard
        // temporary lives through the arms, and `connect_reserved` locks
        // `idle` again (via `note_failure`) — self-deadlock otherwise.
        let pooled = self.idle.lock().expect("replica pool lock").pop();
        match pooled {
            Some(conn) => Some(Lease {
                conn,
                replica: self.id,
                pooled: true,
            }),
            None => self.connect_reserved(),
        }
    }

    /// Like [`Replica::try_lease`], but always opens a *fresh* socket,
    /// bypassing the idle pool — the stale-connection retry path, where a
    /// second pooled connection could be exactly as stale as the first
    /// and its failure would eject a healthy, freshly-restarted replica.
    pub fn lease_fresh(&self) -> Option<Lease> {
        if !self.reserve_slot() {
            return None;
        }
        self.connect_reserved()
    }

    /// Returns a healthy connection to the pool and records the success.
    pub fn release(&self, lease: Lease) {
        debug_assert_eq!(lease.replica, self.id);
        self.idle
            .lock()
            .expect("replica pool lock")
            .push(lease.conn);
        self.leased.fetch_sub(1, Ordering::AcqRel);
        self.note_success();
    }

    /// Drops a poisoned connection and records the failure (ejecting the
    /// replica immediately — hard transport failures mean dead-or-dying,
    /// and the backoff gate re-probes it soon enough).
    pub fn discard(&self, lease: Lease, reason: &'static str) {
        debug_assert_eq!(lease.replica, self.id);
        drop(lease.conn);
        self.leased.fetch_sub(1, Ordering::AcqRel);
        self.note_failure(reason);
    }

    /// Drops a connection *without* blaming the replica — for a stale
    /// pooled connection whose failure says nothing about current health
    /// (the caller retries on a fresh connection before judging).
    pub fn discard_quiet(&self, lease: Lease) {
        debug_assert_eq!(lease.replica, self.id);
        drop(lease.conn);
        self.leased.fetch_sub(1, Ordering::AcqRel);
    }

    /// Records a success: heals the replica and resets the backoff.
    pub fn note_success(&self) {
        let was_healthy = {
            let mut h = self.health.lock().expect("replica health lock");
            let was = h.healthy;
            h.healthy = true;
            h.consecutive_failures = 0;
            h.retry_at = None;
            h.backoff = self.config.eject_base;
            h.eject_reason = None;
            was
        };
        if !was_healthy {
            if let Some(obs) = &self.obs {
                obs.recoveries.inc();
                obs.events.record("recover", self.addr.to_string());
            }
        }
    }

    /// Records a failure: ejects the replica with exponential backoff.
    /// Pooled idle connections are dropped — they share the failed
    /// transport's fate.
    pub fn note_failure(&self, reason: &'static str) {
        self.idle.lock().expect("replica pool lock").clear();
        let was_healthy = {
            let mut h = self.health.lock().expect("replica health lock");
            let was = h.healthy;
            h.consecutive_failures += 1;
            h.healthy = false;
            h.retry_at = Some(Instant::now() + h.backoff);
            h.backoff = (h.backoff * 2).min(self.config.eject_max);
            h.eject_reason = Some(reason);
            was
        };
        if was_healthy {
            if let Some(obs) = &self.obs {
                obs.ejections.inc();
                obs.events
                    .record("eject", format!("{}: {reason}", self.addr));
            }
        }
    }

    /// One active health probe: `{"op":"stats"}` on a dedicated
    /// connection. Updates generation/p99 and ejects on failure or — when
    /// `slow_p99_us` is configured — on a served p99 above the threshold.
    /// Returns the probed stats object on success.
    ///
    /// Slow ejection is self-healing: the replica's latency histogram
    /// decays (halving every 10 s) and the probe's own stats requests
    /// are recorded in it, so once the replica is actually fast again
    /// its reported p99 falls back under the threshold within a few
    /// decay periods and the next probe heals it — a one-time slow
    /// burst cannot cost the fleet a replica permanently.
    pub fn probe(&self) -> Option<Json> {
        if !self.available() {
            return None;
        }
        let stats = match ask(self.addr, &self.config, r#"{"op":"stats"}"#) {
            Ok(stats) => stats,
            Err(unanswered) => {
                self.note_failure(match unanswered {
                    Unanswered::Transport(Step::Connect, _) => "probe connect failed",
                    Unanswered::Transport(Step::RoundTrip, _) => "probe failed",
                    Unanswered::Transport(Step::Parse, _) => "probe returned garbage",
                    // A refusal is not a health report: a replica at its
                    // connection cap answers the probe's connect with an
                    // `overloaded` shed line. Treating that as success
                    // would mark exactly the saturated replicas healthy
                    // and wipe their recorded generation/p99.
                    Unanswered::Refused(_) => "probe refused",
                });
                return None;
            }
        };
        let generation = stats.get("generation").and_then(Json::as_num);
        let p99 = stats
            .get("latency")
            .and_then(|l| l.get("p99_us"))
            .and_then(Json::as_num);
        let served_any = stats
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            > 0.0;
        if let Some(threshold) = self.config.slow_p99_us {
            // Only eject on *served-traffic* evidence; an idle replica
            // with an empty histogram is fine.
            if served_any && p99.is_some_and(|p| p > threshold) {
                let mut h = self.health.lock().expect("replica health lock");
                h.generation = generation.map(|g| g as u64);
                h.p99_us = p99;
                drop(h);
                self.note_failure("slow (p99 over threshold)");
                return Some(stats);
            }
        }
        {
            let mut h = self.health.lock().expect("replica health lock");
            h.generation = generation.map(|g| g as u64);
            h.p99_us = p99;
        }
        self.note_success();
        Some(stats)
    }
}

/// The fleet: replicas indexed by ring id.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    config: PoolConfig,
}

impl ReplicaPool {
    /// Builds a pool over `addrs`; replica ids are the vector indices.
    pub fn new(addrs: Vec<SocketAddr>, config: PoolConfig) -> Self {
        Self::build(addrs, config, None)
    }

    /// Like [`ReplicaPool::new`], with observability hooks: health
    /// transitions are journaled and counted fleet-wide.
    pub fn with_obs(addrs: Vec<SocketAddr>, config: PoolConfig, obs: Arc<ClusterObs>) -> Self {
        Self::build(addrs, config, Some(obs))
    }

    fn build(addrs: Vec<SocketAddr>, config: PoolConfig, obs: Option<Arc<ClusterObs>>) -> Self {
        Self {
            replicas: addrs
                .into_iter()
                .enumerate()
                .map(|(id, addr)| Replica::new(id, addr, config.clone(), obs.clone()))
                .collect(),
            config,
        }
    }

    /// The pool's shared configuration.
    pub fn config(&self) -> PoolConfig {
        self.config.clone()
    }

    /// All replicas.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The replica with ring id `id`.
    pub fn replica(&self, id: usize) -> &Replica {
        &self.replicas[id]
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True when the pool has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Probes every replica once (the probe thread's tick).
    pub fn probe_all(&self) {
        for replica in &self.replicas {
            replica.probe();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    fn test_config() -> PoolConfig {
        PoolConfig {
            max_conns_per_replica: 2,
            connect_timeout: Duration::from_millis(200),
            replica_timeout: Duration::from_millis(500),
            admin_timeout: Duration::from_millis(1500),
            eject_base: Duration::from_millis(50),
            eject_max: Duration::from_millis(400),
            slow_p99_us: None,
        }
    }

    /// A trivial NDJSON echo server: replies `{"echo":<line-length>}`.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve exactly a few connections then exit; enough for tests.
            for stream in listener.incoming().take(4).flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        if n == 0 {
                            break;
                        }
                        let reply = format!("{{\"echo\":{}}}\n", line.trim_end().len());
                        if writer.write_all(reply.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn lease_round_trip_and_reuse() {
        let (addr, _handle) = echo_server();
        let pool = ReplicaPool::new(vec![addr], test_config());
        let replica = pool.replica(0);
        let mut lease = replica.try_lease().unwrap();
        assert_eq!(lease.conn.round_trip("hello").unwrap(), r#"{"echo":5}"#);
        replica.release(lease);
        assert_eq!(replica.in_flight(), 0);
        // The pooled connection is reused (the echo server only accepts
        // a bounded number of connections, so reuse is observable).
        let mut lease = replica.try_lease().unwrap();
        assert_eq!(lease.conn.round_trip("hi").unwrap(), r#"{"echo":2}"#);
        replica.discard(lease, "test discard");
        assert!(!replica.health().healthy, "discard ejects");
    }

    /// One segment per forward: the request and its newline leave in one
    /// `write(2)`. The accepting side looks at what each first `read`
    /// returns — with the newline written on its own to a `TCP_NODELAY`
    /// socket, some read in a few hundred sees the line without it.
    #[test]
    fn a_round_trip_reaches_the_replica_as_one_complete_line() {
        const ROUNDS: usize = 300;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let replica = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let mut complete = 0;
            for _ in 0..ROUNDS {
                let mut n = stream.read(&mut buf).unwrap();
                complete += usize::from(buf[..n].ends_with(b"\n"));
                while !buf[..n].ends_with(b"\n") {
                    n = stream.read(&mut buf).unwrap();
                }
                stream.write_all(b"{}\n").unwrap();
            }
            complete
        });
        let mut conn = ReplicaConn::connect(addr, &test_config()).unwrap();
        for _ in 0..ROUNDS {
            assert_eq!(
                conn.round_trip(r#"{"symptom_ids":[1,2,3],"k":10}"#)
                    .unwrap(),
                "{}"
            );
        }
        assert_eq!(replica.join().unwrap(), ROUNDS);
    }

    #[test]
    fn lease_cap_is_enforced() {
        let (addr, _handle) = echo_server();
        let pool = ReplicaPool::new(vec![addr], test_config());
        let replica = pool.replica(0);
        let a = replica.try_lease().unwrap();
        let _b = replica.try_lease().unwrap();
        assert!(replica.try_lease().is_none(), "cap is 2");
        replica.release(a);
        assert!(replica.try_lease().is_some(), "slot freed");
    }

    #[test]
    fn dead_replica_ejects_and_backs_off() {
        // A bound-then-dropped listener: connects are refused.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let pool = ReplicaPool::new(vec![dead_addr], test_config());
        let replica = pool.replica(0);
        assert!(replica.try_lease().is_none(), "connect fails");
        let h = replica.health();
        assert!(!h.healthy);
        assert_eq!(h.consecutive_failures, 1);
        assert_eq!(h.eject_reason, Some("connect failed"));
        // Within the backoff window the replica is skipped entirely.
        assert!(!replica.available());
        assert!(replica.try_lease().is_none());
        assert_eq!(
            replica.health().consecutive_failures,
            1,
            "skipped, not re-tried"
        );
        // After the backoff it is tried again, fails again, and the
        // backoff doubles.
        std::thread::sleep(Duration::from_millis(60));
        assert!(replica.available());
        assert!(replica.try_lease().is_none());
        let h = replica.health();
        assert_eq!(h.consecutive_failures, 2);
        assert!(h.backoff >= Duration::from_millis(200));
    }

    #[test]
    fn success_heals_and_resets_backoff() {
        let (addr, _handle) = echo_server();
        let pool = ReplicaPool::new(vec![addr], test_config());
        let replica = pool.replica(0);
        replica.note_failure("synthetic");
        replica.note_failure("synthetic");
        assert!(!replica.health().healthy);
        replica.note_success();
        let h = replica.health();
        assert!(h.healthy);
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.backoff, Duration::from_millis(50));
        assert_eq!(h.eject_reason, None);
    }
}
