//! Lock-free latency histogram with a decaying window *and* undecayed
//! since-start totals.
//!
//! The router's health probe needs more than liveness: a replica that
//! answers probes but serves requests slowly (cold cache after a
//! restart, noisy neighbour, runaway batch) should be ejected just like
//! a dead one. That requires per-request latency *percentiles* in the
//! stats report, cheap enough to record on every request.
//!
//! [`LatencyHistogram`] keeps power-of-two microsecond buckets behind
//! relaxed atomics: `record` is a couple of arithmetic ops plus a few
//! `fetch_add`s, so the serving hot path never takes a lock for
//! telemetry. Quantiles are answered from a snapshot of the bucket
//! counts and are exact to within one bucket (a factor-of-two bound on
//! the reported value — plenty for an eject/keep decision, which
//! compares against thresholds an order of magnitude apart).
//!
//! The histogram **decays**: every [`DECAY_INTERVAL`] the windowed
//! bucket counts (and the count/sum accumulators) are halved, so the
//! reported percentiles weight recent traffic with an
//! exponentially-fading memory (effective window ≈ 2x the interval at
//! steady rate) instead of averaging over the process lifetime. This is
//! what keeps slow-replica ejection honest *and recoverable*: one
//! historical slow burst stops dominating p99 once fresh observations
//! (including the router's own probe requests) accumulate against the
//! fading residue, so an ejected-for-slowness replica heals within a
//! few decay periods of its latency actually recovering. Decay is
//! triggered lazily from `record`; the halving races benignly with
//! concurrent records (telemetry counts may be off by a handful, never
//! the invariants).
//!
//! Bench runs want the opposite: percentiles over *everything observed
//! since start*, unaffected by when the snapshot happens to land in the
//! decay cycle. A second set of buckets is therefore accumulated in
//! parallel and never halved; [`LatencySnapshot::total_quantile_us`]
//! reads those.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of power-of-two buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds; the last bucket absorbs everything
/// from ~9 hours up.
const BUCKETS: usize = 45;

/// How often the bucket counts are halved (lazily, from `record`).
pub const DECAY_INTERVAL: std::time::Duration = std::time::Duration::from_secs(10);

/// A fixed-bucket, atomically-updated latency histogram (microseconds)
/// with an exponentially-decaying window plus undecayed totals.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    /// Undecayed since-start parallels of the windowed accumulators.
    total_buckets: [AtomicU64; BUCKETS],
    total_count: AtomicU64,
    total_sum_us: AtomicU64,
    /// Construction time anchor for the decay clock.
    anchor: Instant,
    /// Milliseconds since `anchor` of the last decay pass.
    last_decay_ms: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One consistent read of a [`LatencyHistogram`].
#[derive(Clone, Debug)]
pub struct LatencySnapshot {
    buckets: [u64; BUCKETS],
    total_buckets: [u64; BUCKETS],
    /// Observations in the decaying window.
    pub count: u64,
    /// Sum of windowed latencies, microseconds.
    pub sum_us: u64,
    /// Observations since start (never decayed).
    pub total_count: u64,
    /// Sum of all latencies since start, microseconds.
    pub total_sum_us: u64,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            total_buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            total_count: 0,
            total_sum_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            total_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_count: AtomicU64::new(0),
            total_sum_us: AtomicU64::new(0),
            anchor: Instant::now(),
            last_decay_ms: AtomicU64::new(0),
        }
    }

    /// Records one observation of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        self.maybe_decay();
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
        self.total_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_count.fetch_add(1, Ordering::Relaxed);
        self.total_sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Halves every windowed accumulator once per elapsed
    /// [`DECAY_INTERVAL`]. The CAS on the decay clock elects exactly one
    /// caller per period; the halving itself is load/store (racing
    /// increments may survive a halving or be halved with the rest —
    /// noise of a few counts). The `total_*` accumulators are never
    /// touched.
    fn maybe_decay(&self) {
        let now_ms = self.anchor.elapsed().as_millis() as u64;
        let last = self.last_decay_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < DECAY_INTERVAL.as_millis() as u64 {
            return;
        }
        if self
            .last_decay_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is decaying this period
        }
        // If several periods elapsed idle, decay once per period so a
        // long-quiet histogram fades just like a busy one.
        let periods =
            (now_ms.saturating_sub(last) / DECAY_INTERVAL.as_millis() as u64).clamp(1, 63) as u32;
        for b in &self.buckets {
            b.store(b.load(Ordering::Relaxed) >> periods, Ordering::Relaxed);
        }
        self.count.store(
            self.count.load(Ordering::Relaxed) >> periods,
            Ordering::Relaxed,
        );
        self.sum_us.store(
            self.sum_us.load(Ordering::Relaxed) >> periods,
            Ordering::Relaxed,
        );
    }

    /// Snapshots the bucket counts for quantile queries. Concurrent
    /// `record` calls may straddle the snapshot; each observation is
    /// counted at most once per field, which is all percentile reporting
    /// needs.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        let mut total_buckets = [0u64; BUCKETS];
        for (out, b) in total_buckets.iter_mut().zip(&self.total_buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        LatencySnapshot {
            count: buckets.iter().sum(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            total_count: total_buckets.iter().sum(),
            total_sum_us: self.total_sum_us.load(Ordering::Relaxed),
            buckets,
            total_buckets,
        }
    }
}

fn bucket_quantile(buckets: &[u64; BUCKETS], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return 2f64.powi(i as i32 + 1);
        }
    }
    2f64.powi(BUCKETS as i32)
}

impl LatencySnapshot {
    /// The windowed latency at quantile `q` in `[0, 1]`, microseconds,
    /// as the upper bound of the bucket holding that rank (0 when
    /// empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        bucket_quantile(&self.buckets, self.count, q)
    }

    /// The since-start (undecayed) latency at quantile `q`, same bucket
    /// semantics as [`LatencySnapshot::quantile_us`].
    pub fn total_quantile_us(&self, q: f64) -> f64 {
        bucket_quantile(&self.total_buckets, self.total_count, q)
    }

    /// Windowed mean latency, microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_us(0.5), 0.0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.total_count, 0);
        assert_eq!(s.total_quantile_us(0.99), 0.0);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        // 99 observations at ~100 µs (bucket [64, 128)), one at ~1 s.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile_us(0.50), 128.0);
        assert_eq!(s.quantile_us(0.99), 128.0);
        assert!(s.quantile_us(1.0) >= 1_000_000.0);
        assert!((s.mean_us() - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
        // Window untouched by decay here, so totals agree exactly.
        assert_eq!(s.total_count, 100);
        assert_eq!(s.total_quantile_us(0.50), 128.0);
    }

    #[test]
    fn zero_and_huge_latencies_clamp_into_range() {
        let h = LatencyHistogram::new();
        h.record(0); // clamps to the [1, 2) bucket
        h.record(u64::MAX); // clamps to the last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.quantile_us(0.25), 2.0);
        assert!(s.quantile_us(1.0) > 1e9);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(1 + (t * 1000 + i) % 500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.total_count, 4000);
    }

    #[test]
    fn totals_survive_what_decay_would_halve() {
        // Simulate a decay pass directly: windowed halves, totals hold.
        let h = LatencyHistogram::new();
        for _ in 0..8 {
            h.record(100);
        }
        for b in &h.buckets {
            b.store(b.load(Ordering::Relaxed) >> 1, Ordering::Relaxed);
        }
        h.count
            .store(h.count.load(Ordering::Relaxed) >> 1, Ordering::Relaxed);
        h.sum_us
            .store(h.sum_us.load(Ordering::Relaxed) >> 1, Ordering::Relaxed);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.total_count, 8);
        assert_eq!(s.total_sum_us, 800);
        assert_eq!(s.total_quantile_us(0.99), 128.0);
    }
}
