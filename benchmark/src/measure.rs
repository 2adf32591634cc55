//! The shape every workload's measurement shares: a plan (how long, how
//! many slices, how much warm-up), timed samples, and the end-to-end
//! values of the window and of its parts.
//!
//! A run reports its values over the quiet third of the window: the
//! slices with the lowest median latency, pooled. The host this runs on
//! slows the guest down by 10 to 45% for a second or so at a time, at
//! times for more than half of a run, and never speeds it up: over the
//! whole window the same code read 3 to 9% apart between runs in a quiet
//! hour and 11 to 34% in a busy one, over the quiet third 1 to 4% and 4
//! to 11%. A slowed host raises the median latency of
//! every slice it touches, which is what the choice looks at; a stall or
//! a sweep of the program's own that hits a minority of a slice's calls
//! leaves that slice's median where it was, so the slice stays in, and
//! what it cost shows in the pooled tail, rate and CPU time.

use std::time::{Duration, Instant};

use crate::stats::{highest_supported, percentile, sorted};
use crate::sys::cpu_us;

/// How one run of a workload is sized. `main` fills it from the command
/// line; `--smoke` and `--trace 1` shrink it.
pub struct Plan {
    pub seed: u64,
    /// The timed window, cut into `slices` equal parts of half a second:
    /// long enough for 1,000 requests, short enough that some fall
    /// between the host's disturbances.
    pub window: Duration,
    pub slices: usize,
    /// Scales each workload's count-based warm-up (1.0 = as specified).
    pub warmup: f64,
    /// How many times the set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Timed epochs of `train_paper`.
    pub train_epochs: usize,
    pub trace: bool,
    /// Where the run may write (the span file, the saved model).
    pub out_dir: std::path::PathBuf,
}

impl Plan {
    pub fn warmup_count(&self, specified: usize) -> usize {
        ((specified as f64 * self.warmup) as usize).max(1)
    }
}

/// One timed call as the client saw it.
pub struct Sample {
    /// When the reply arrived, since the window opened.
    pub end_ns: u64,
    pub latency_ns: u64,
    /// Operations the call carried (1 request, or the queries of a batch)
    /// and how many of them were answered correctly.
    pub ops: u32,
    pub ok: u32,
}

/// The end-to-end values of a part of the window: one slice, the quiet
/// slices pooled, or all of them.
#[derive(Clone, Copy)]
pub struct Slice {
    pub ops_per_s: f64,
    pub p50_us: f64,
    /// The tail: p95 where the part has the 200 calls that takes, and
    /// otherwise the percentile [`Slice::tail`] names.
    pub p95_us: f64,
    pub cpu_us_per_op: f64,
    /// The percentile `p95_us` holds: 0.95, or the highest one that
    /// leaves ten calls beyond it (the median for a handful of epochs).
    /// The report says so when it is not 0.95.
    pub tail: f64,
    /// Timed calls in the part.
    pub calls: usize,
}

/// A window's end-to-end values.
pub struct Measured {
    /// Every slice by itself, for the noise report.
    pub slices: Vec<Slice>,
    /// The quiet third pooled: what the run reports.
    pub quiet: Slice,
    /// The whole window pooled, printed beside it.
    pub whole: Slice,
}

/// A reading of the clock and of the process's CPU time, taken at each
/// slice boundary.
pub struct Mark {
    pub at_ns: u64,
    pub cpu_us: f64,
}

impl Mark {
    pub fn now(epoch: Instant) -> Self {
        Self {
            at_ns: epoch.elapsed().as_nanos() as u64,
            cpu_us: cpu_us(),
        }
    }
}

/// Sleeps through the window, reading a [`Mark`] at every slice boundary.
/// For workloads whose load runs on other threads.
pub fn watch_window(epoch: Instant, window: Duration, slices: usize) -> Vec<Mark> {
    let mut marks = vec![Mark::now(epoch)];
    for i in 1..=slices {
        let boundary = epoch + window.mul_f64(i as f64 / slices as f64);
        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
        marks.push(Mark::now(epoch));
    }
    marks
}

/// One slice in this many is quiet.
const QUIET_ONE_IN: usize = 3;

/// The slices a run reports over: the third (at least one) whose median
/// latency is lowest. Chosen by the median because a slowed host moves
/// it and a minority of slow calls does not.
pub fn quiet_slices(slices: &[Slice]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| slices[a].p50_us.total_cmp(&slices[b].p50_us));
    order.truncate(slices.len().div_ceil(QUIET_ONE_IN));
    order
}

/// Cuts the samples into the slices the marks delimit and measures each
/// slice, the quiet third and the whole window. A sample belongs to the
/// slice its reply arrived in; one that ended after the last mark is not
/// counted. Throughput counts correct answers only.
pub fn measure(samples: &[Sample], marks: &[Mark]) -> Measured {
    let slices = marks.len() - 1;
    let slice_of: Vec<usize> = samples
        .iter()
        .map(|s| {
            marks
                .partition_point(|m| m.at_ns <= s.end_ns)
                .wrapping_sub(1)
        })
        .collect();
    let pool = |part: &dyn Fn(usize) -> bool| {
        let inside = || {
            samples
                .iter()
                .zip(&slice_of)
                .filter(|(_, &slice)| slice < slices && part(slice))
                .map(|(s, _)| s)
        };
        let between = |pick: &dyn Fn(&Mark) -> f64| -> f64 {
            (0..slices)
                .filter(|&i| part(i))
                .map(|i| pick(&marks[i + 1]) - pick(&marks[i]))
                .sum()
        };
        let ops: f64 = inside().map(|s| f64::from(s.ops)).sum();
        let ok: f64 = inside().map(|s| f64::from(s.ok)).sum();
        let latencies = sorted(inside().map(|s| s.latency_ns as f64 / 1e3).collect());
        let tail = highest_supported(latencies.len()).min(0.95);
        let at = |q| match latencies.is_empty() {
            true => f64::NAN,
            false => percentile(&latencies, q),
        };
        Slice {
            ops_per_s: ok / (between(&|m| m.at_ns as f64) / 1e9),
            p50_us: at(0.50),
            p95_us: at(tail),
            cpu_us_per_op: between(&|m| m.cpu_us) / ops,
            tail,
            calls: latencies.len(),
        }
    };
    let each: Vec<Slice> = (0..slices).map(|i| pool(&|slice| slice == i)).collect();
    let quiet = quiet_slices(&each);
    Measured {
        quiet: pool(&|slice| quiet.contains(&slice)),
        whole: pool(&|_| true),
        slices: each,
    }
}

/// Runs `set_up` as often as the plan says, timing each repetition into
/// `outcome.setups` and tearing each down before the next; hands back
/// the last, which the window then runs on.
pub fn set_up_timed<T>(
    plan: &Plan,
    outcome: &mut Outcome,
    mut set_up: impl FnMut() -> T,
    tear_down: impl Fn(T),
) -> T {
    let mut ready = None;
    for _ in 0..plan.setups {
        if let Some(previous) = ready.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        ready = Some(set_up());
        outcome.setups.push(started.elapsed().as_secs_f64());
    }
    ready.expect("a plan has at least one set-up")
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not (beyond failed ops).
    pub faults: Vec<String>,
    /// The timed window of an untraced run.
    pub measured: Option<Measured>,
    /// Seconds each set-up repetition took.
    pub setups: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics measured on this workload's path, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Lines for the human-readable report only.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_ns: u64, cpu_us: f64) -> Mark {
        Mark { at_ns, cpu_us }
    }

    fn sample(end_ns: u64, latency_us: u64, ok: u32) -> Sample {
        Sample {
            end_ns,
            latency_ns: latency_us * 1000,
            ops: 1,
            ok,
        }
    }

    #[test]
    fn samples_land_in_the_slice_their_reply_arrived_in() {
        let marks = [
            mark(0, 0.0),
            mark(1_000_000_000, 500.0),
            mark(2_000_000_000, 1_500.0),
        ];
        let samples = [
            sample(10, 100, 1),
            sample(999_999_999, 300, 0),
            sample(1_000_000_000, 200, 1),
            sample(2_000_000_000, 900, 1), // after the last mark
        ];
        let measured = measure(&samples, &marks);
        let slices = &measured.slices;
        assert_eq!(slices.len(), 2);
        assert_eq!(
            slices[0].ops_per_s, 1.0,
            "the wrong answer is not throughput"
        );
        assert_eq!(slices[0].p50_us, 100.0);
        assert_eq!(slices[0].cpu_us_per_op, 250.0);
        assert_eq!(slices[1].ops_per_s, 1.0);
        assert_eq!(slices[1].p95_us, 200.0);
        assert_eq!(slices[1].cpu_us_per_op, 1_000.0);
        assert_eq!((slices[0].calls, slices[0].tail), (2, 0.50));
        // Both slices pooled: 2 right answers in 2 s, 1,500 us over 3 calls.
        assert_eq!(measured.whole.ops_per_s, 1.0);
        assert_eq!(measured.whole.p50_us, 200.0);
        assert_eq!(measured.whole.cpu_us_per_op, 500.0);
        assert_eq!(measured.whole.calls, 3);
    }

    /// Six slices of 300 calls; the host slows four of them down whole,
    /// and in one of the other two a stall of the program's own holds up
    /// a fifth of the calls. The run reports over the two quiet slices,
    /// the stall among them, and its tail shows it.
    #[test]
    fn the_quiet_third_keeps_a_slice_with_a_stall_and_drops_the_slowed_ones() {
        let second = 1_000_000_000u64;
        let marks: Vec<Mark> = (0..=6).map(|i| mark(i * second, i as f64 * 1e5)).collect();
        let mut samples = Vec::new();
        for slice in 0..6u64 {
            for call in 0..300u64 {
                let latency_us = match (slice, call) {
                    (2, _) => 100,
                    (4, c) if c % 5 == 0 => 5_000,
                    (4, _) => 100,
                    _ => 140,
                };
                samples.push(sample(slice * second + call * 1_000, latency_us, 1));
            }
        }
        let measured = measure(&samples, &marks);
        let mut quiet = quiet_slices(&measured.slices);
        quiet.sort_unstable();
        assert_eq!(quiet, [2, 4]);
        assert_eq!(measured.quiet.calls, 600);
        assert_eq!(measured.quiet.p50_us, 100.0);
        assert_eq!(
            (measured.quiet.tail, measured.quiet.p95_us),
            (0.95, 5_000.0)
        );
        assert_eq!(measured.quiet.ops_per_s, 300.0);
        assert_eq!(measured.whole.p50_us, 140.0);
        // The quietest slice alone would have said 100.
        assert_eq!(measured.slices[2].p95_us, 100.0);
    }
}
