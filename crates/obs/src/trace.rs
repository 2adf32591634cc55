//! Per-request tracing: span lists, trace-id minting, and a
//! deterministic sampler.
//!
//! A trace is a flat list of named spans that **partitions** the
//! traced process's handle time: each span starts where the previous
//! one ended (the builder enforces monotonic starts) and the final
//! span runs to the clock read that closes the list, so
//! `sum(span.dur_us)` equals the observed wall latency by construction.
//! A replica keeps one such list for every request, named by its own
//! phase type, and its latency histogram, profile and any requested
//! trace all read that one list. The router splices replica spans into
//! its own timeline by rebasing their offsets, keeping the same
//! invariant at fleet level.
//!
//! Ids are minted as lowercase hex from a process-unique counter seeded
//! off the wall clock, by whichever process the client sent the traced
//! request to (a router injects its id into the forwarded request), so
//! ids from routers and replicas (even in one test process) never
//! collide in practice. Clients may supply their own `trace_id`; it is
//! echoed verbatim end to end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One named span: `[start_us, start_us + dur_us)` relative to the
/// trace anchor (request arrival at the traced process).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord<N = String> {
    /// Stage name (`parse`, `queue`, `gemm`, ...).
    pub name: N,
    /// Offset from the trace anchor, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Accumulates a partition of one request's wall time into spans named
/// by `N` (free text by default; a replica names them by phase).
#[derive(Debug)]
pub struct TraceBuilder<N = String> {
    anchor: Instant,
    spans: Vec<SpanRecord<N>>,
}

impl<N> TraceBuilder<N> {
    /// A builder anchored at `anchor` (request arrival).
    pub fn new(anchor: Instant) -> Self {
        Self {
            anchor,
            spans: Vec::with_capacity(8),
        }
    }

    /// Offset of the end of the last span (0 when empty): the sum of
    /// every span's duration, since spans partition.
    pub fn end_us(&self) -> u64 {
        self.spans
            .last()
            .map(|s| s.start_us + s.dur_us)
            .unwrap_or(0)
    }

    /// Appends a span running from the end of the last span for
    /// `dur_us` microseconds.
    pub fn push(&mut self, name: impl Into<N>, dur_us: u64) {
        let start_us = self.end_us();
        self.spans.push(SpanRecord {
            name: name.into(),
            start_us,
            dur_us,
        });
    }

    /// Appends a span running from the end of the last span up to now.
    pub fn cover_to_now(&mut self, name: impl Into<N>) {
        let now_us = self.anchor.elapsed().as_micros() as u64;
        let dur = now_us.saturating_sub(self.end_us());
        self.push(name, dur);
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[SpanRecord<N>] {
        &self.spans
    }
}

/// Mints a process-unique trace id (16 lowercase hex chars).
pub fn mint_trace_id() -> String {
    static SEQ: OnceLock<AtomicU64> = OnceLock::new();
    let seq = SEQ.get_or_init(|| {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // Spread the seed so sequential ids from different processes
        // started close together still diverge quickly.
        AtomicU64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    });
    format!(
        "{:016x}",
        seq.fetch_add(0x2545_f491_4f6c_dd1d, Ordering::Relaxed)
    )
}

/// Deterministic 1-in-`every` sampler (0 = never fires).
#[derive(Debug, Default)]
pub struct Sampler {
    every: u64,
    n: AtomicU64,
}

impl Sampler {
    /// Samples one request in `every` (0 disables sampling entirely).
    pub fn new(every: u64) -> Self {
        Self {
            every,
            n: AtomicU64::new(0),
        }
    }

    /// Counts one request; true when this one should be sampled.
    pub fn fire(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.n
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_partition_and_stay_monotonic() {
        let mut b: TraceBuilder = TraceBuilder::new(Instant::now());
        b.push("parse", 10);
        b.push("queue", 5);
        b.push("gemm", 20);
        let spans = b.spans();
        assert_eq!(spans[1].start_us, 10);
        assert_eq!(spans[2].start_us, 15);
        assert_eq!(spans.iter().map(|s| s.dur_us).sum::<u64>(), 35);
        assert_eq!(b.end_us(), 35);
        for w in spans.windows(2) {
            assert!(w[1].start_us >= w[0].start_us);
        }
    }

    #[test]
    fn cover_to_now_closes_the_partition() {
        let anchor = Instant::now();
        let mut b: TraceBuilder = TraceBuilder::new(anchor);
        b.push("work", 1);
        std::thread::sleep(Duration::from_millis(2));
        b.cover_to_now("finish");
        let wall = anchor.elapsed().as_micros() as u64;
        // Spans sum to (almost exactly) the wall time at close.
        assert!(b.end_us() <= wall);
        assert!(wall - b.end_us() < 2_000, "partition gap too large");
    }

    #[test]
    fn minted_ids_are_unique_hex() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn sampler_fires_deterministically() {
        let s = Sampler::new(3);
        let fired: Vec<bool> = (0..6).map(|_| s.fire()).collect();
        assert_eq!(fired, vec![true, false, false, true, false, false]);
        let never = Sampler::new(0);
        assert!((0..100).all(|_| !never.fire()));
    }
}
