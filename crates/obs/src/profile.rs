//! Always-on continuous profiler: cumulative folded stacks.
//!
//! A replica already splits each request's wall time into phases (parse,
//! resolve, cache, queue, batch, GEMM, top-k, respond) for its latency
//! histogram and for a requested trace. This module aggregates those
//! same durations into *folded stacks* — the `frame;frame;frame count`
//! text every flamegraph tool collapses SVGs from — so
//! `{"op":"profile"}` can answer "where does the time go" cumulatively,
//! not per-request.
//!
//! The hot path is a single relaxed atomic add per phase: callers
//! pre-register a [`ProfileHandle`] per stack (exactly like registry
//! counters) and pay no lock, no allocation, no formatting until
//! someone actually asks for [`Profiler::fold`]. That is what makes it
//! cheap enough to leave on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A pre-registered stack accumulator: one relaxed add per record.
#[derive(Clone, Debug)]
pub struct ProfileHandle(Arc<AtomicU64>);

impl ProfileHandle {
    /// Adds `us` microseconds to this stack.
    pub fn add(&self, us: u64) {
        self.0.fetch_add(us, Ordering::Relaxed);
    }
}

/// A set of cumulative folded stacks owned by one component.
#[derive(Debug, Default)]
pub struct Profiler {
    stacks: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl Profiler {
    /// A fresh, empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) the accumulator for a stack, given as
    /// root-to-leaf frames — `&["serve", "request", "gemm"]` becomes
    /// the folded line `serve;request;gemm <us>`.
    pub fn node(&self, frames: &[&str]) -> ProfileHandle {
        let key = frames.join(";");
        let mut stacks = self.stacks.lock().expect("profiler lock");
        ProfileHandle(Arc::clone(stacks.entry(key).or_default()))
    }

    /// Cumulative microseconds across all stacks.
    pub fn total_us(&self) -> u64 {
        let stacks = self.stacks.lock().expect("profiler lock");
        stacks.values().map(|v| v.load(Ordering::Relaxed)).sum()
    }

    /// Renders the flamegraph-collapsible folded text: one
    /// `stack;frames <microseconds>` line per non-zero stack, sorted by
    /// stack name (a canonical, diffable order).
    pub fn fold(&self) -> String {
        let stacks = self.stacks.lock().expect("profiler lock");
        render_folded(
            &stacks
                .iter()
                .map(|(stack, us)| (stack.clone(), us.load(Ordering::Relaxed)))
                .collect(),
        )
    }
}

/// Accumulates one folded text blob into a stack → µs map (the router
/// uses this to merge per-replica profiles into a fleet view).
/// Malformed lines are skipped rather than failing the merge.
pub fn merge_folded(acc: &mut BTreeMap<String, u64>, folded: &str) {
    for line in folded.lines() {
        let Some((stack, count)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(us) = count.parse::<u64>() else {
            continue;
        };
        *acc.entry(stack.to_string()).or_default() += us;
    }
}

/// Renders a merged stack map back into canonical folded text.
pub fn render_folded(stacks: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, us) in stacks {
        if *us > 0 {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_sorted_nonzero_stacks() {
        let prof = Profiler::new();
        let gemm = prof.node(&["serve", "request", "gemm"]);
        let topk = prof.node(&["serve", "request", "topk"]);
        let _idle = prof.node(&["serve", "idle"]); // never recorded
        gemm.add(120);
        gemm.add(30);
        topk.add(50);
        assert_eq!(
            prof.fold(),
            "serve;request;gemm 150\nserve;request;topk 50\n"
        );
        assert_eq!(prof.total_us(), 200);
    }

    #[test]
    fn handles_are_shared_per_stack() {
        let prof = Profiler::new();
        let a = prof.node(&["x", "y"]);
        let b = prof.node(&["x", "y"]);
        a.add(7);
        b.add(3);
        assert_eq!(prof.fold(), "x;y 10\n");
    }

    #[test]
    fn merge_sums_and_skips_garbage() {
        let mut acc = BTreeMap::new();
        merge_folded(&mut acc, "serve;gemm 100\nserve;topk 40\n");
        merge_folded(&mut acc, "serve;gemm 50\nnot a folded line\nbad NaN\n");
        assert_eq!(render_folded(&acc), "serve;gemm 150\nserve;topk 40\n");
    }
}
