//! Spans the benchmark records around its own calls into the program.
//! They stay in memory during a run and are written as JSON lines at
//! its end. Per-layer timings are medians of span self times.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use crate::emit::Obj;
use crate::stats::median;

pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one client request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Span ids are unique across the recorders
/// of a run because each starts at its own `first_id`.
pub struct Tracer {
    /// Span times count from here. Recorders whose spans go into one
    /// file share it.
    pub epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, first_id: u32) -> Self {
        Self {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Takes the id of a span that will be closed after its children.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.close(id, name, parent, request, start, end);
        id
    }

    /// Records the span whose id was [`Tracer::reserve`]d.
    pub fn close(
        &mut self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span. The result goes through `black_box`, so
    /// the call is not optimised away and callers need not name its type.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = black_box(f());
        self.record(name, parent, request, start, Instant::now());
        result
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; a child
/// reaching outside its parent counts only for the part inside).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reached = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reached), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reached = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Median self time, in nanoseconds, of the spans called `name`; zero
/// when the run recorded none (the layer is not on this workload's path).
pub fn median_self_ns(spans: &[Span], name: &str) -> f64 {
    let times: Vec<f64> = self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t as f64)
        .collect();
    if times.is_empty() {
        0.0
    } else {
        median(&times)
    }
}

/// Writes the run's spans as JSON lines to `spans_<workload>_<seed>.jsonl`
/// in `dir` and returns a note saying so.
pub fn save(spans: &[Span], dir: &std::path::Path, workload: &str, seed: u64) -> String {
    let path = dir.join(format!("spans_{workload}_{seed}.jsonl"));
    write_jsonl(&path, spans).expect("write the span file");
    format!("{} spans written to {}", spans.len(), path.display())
}

fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Obj::default()
            .num("id", f64::from(s.id))
            .raw(
                "parent",
                &s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .num("request", s.request as f64)
            .str("name", s.name)
            .num("start_ns", s.start_ns as f64)
            .num("end_ns", s.end_ns as f64)
            .finish();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 110, 130), // 20 covered
            span(3, Some(1), 120, 150), // overlaps 2: 20 more
            span(4, Some(1), 190, 260), // sticks out: 10 inside
            span(5, Some(1), 300, 400), // wholly outside: nothing
            span(6, Some(2), 110, 115), // grandchild: only 2's business
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 70, 100, 5]);
        assert_eq!(median_self_ns(&spans, "root"), 50.0);
        assert_eq!(median_self_ns(&spans, "absent"), 0.0);
    }

    #[test]
    fn timed_calls_nest_and_keep_their_results() {
        let mut tracer = Tracer::new(Instant::now(), 7);
        let start = Instant::now();
        let answer = tracer.time("child", Some(99), 5, || 6 * 7);
        let root = tracer.record("root", None, 5, start, Instant::now());
        assert_eq!(answer, 42);
        assert_eq!((tracer.spans[0].id, root), (7, 8));
        assert!(tracer.spans[0].start_ns >= tracer.spans[1].start_ns);
        assert!(tracer.spans[0].end_ns <= tracer.spans[1].end_ns);
    }
}
