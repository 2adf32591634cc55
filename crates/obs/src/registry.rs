//! A component-scoped metrics registry.
//!
//! One [`Registry`] per serving component (a server engine, a router, an
//! online pipeline attaches to its replica's) rather than a global
//! static, so in-process multi-server tests never share counters.
//! Registration hands back `Arc`-backed handles ([`Counter`], [`Gauge`],
//! `Arc<LatencyHistogram>`); the record path is a relaxed atomic op with
//! no lock. Only registration and snapshotting take the map mutex.
//!
//! Metric identity is `name` plus an optional sorted label set, rendered
//! into the key as `name{k="v",...}` — the same spelling Prometheus
//! uses, so the JSON snapshot and the text exposition agree on names.
//! Re-registering an existing key returns the existing handle (ignoring
//! a kind mismatch is a footgun, so that panics instead).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

/// A monotonically-increasing counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle (unsigned integer valued).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<LatencyHistogram>),
}

/// Derived statistics of one histogram at snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistogramStats {
    /// Observations in the decaying window.
    pub count: u64,
    /// Sum of windowed observations (µs-scaled units).
    pub sum_us: u64,
    /// Windowed p50 (bucket upper bound).
    pub p50_us: f64,
    /// Windowed p99 (bucket upper bound).
    pub p99_us: f64,
    /// Windowed mean.
    pub mean_us: f64,
    /// Observations since start (undecayed).
    pub total_count: u64,
    /// Sum since start.
    pub total_sum_us: u64,
    /// Since-start p50.
    pub total_p50_us: f64,
    /// Since-start p99.
    pub total_p99_us: f64,
}

/// One metric in a registry snapshot.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Full key: `name` or `name{k="v",...}`.
    pub key: String,
    /// Bare metric name without labels.
    pub name: String,
    /// Sorted label pairs (empty when unlabeled).
    pub labels: Vec<(String, String)>,
    /// The value, by metric kind.
    pub value: SampleValue,
}

/// A snapshot value.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram statistics.
    Histogram(HistogramStats),
}

/// A set of named metrics owned by one serving component.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and line feed become `\\`, `\"` and `\n`.
/// Applied when keys are rendered, so the registry key itself is the
/// canonical exposition spelling (benign values are unchanged).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{}\"", escape_label_value(v));
    }
    key.push('}');
    key
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-fetches) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Registers (or re-fetches) a labeled counter.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = render_key(name, labels);
        let mut map = self.metrics.lock().unwrap();
        let slot = map
            .entry(key.clone())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// Registers (or re-fetches) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, &[])
    }

    /// Registers (or re-fetches) a labeled gauge.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = render_key(name, labels);
        let mut map = self.metrics.lock().unwrap();
        let slot = map
            .entry(key.clone())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// Registers (or re-fetches) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        self.histogram_labeled(name, &[])
    }

    /// Registers (or re-fetches) a labeled histogram.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        let key = render_key(name, labels);
        let mut map = self.metrics.lock().unwrap();
        let slot = map
            .entry(key.clone())
            .or_insert_with(|| Slot::Histogram(Arc::new(LatencyHistogram::new())));
        match slot {
            Slot::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// Snapshots every registered metric, sorted by key.
    pub fn samples(&self) -> Vec<Sample> {
        let map = self.metrics.lock().unwrap();
        map.iter()
            .map(|(key, slot)| {
                let (name, labels) = split_key(key);
                let value = match slot {
                    Slot::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => SampleValue::Gauge(g.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => {
                        let s = h.snapshot();
                        SampleValue::Histogram(HistogramStats {
                            count: s.count,
                            sum_us: s.sum_us,
                            p50_us: s.quantile_us(0.50),
                            p99_us: s.quantile_us(0.99),
                            mean_us: s.mean_us(),
                            total_count: s.total_count,
                            total_sum_us: s.total_sum_us,
                            total_p50_us: s.total_quantile_us(0.50),
                            total_p99_us: s.total_quantile_us(0.99),
                        })
                    }
                };
                Sample {
                    key: key.clone(),
                    name,
                    labels,
                    value,
                }
            })
            .collect()
    }

    /// Prometheus text exposition (format 0.0.4). Counters and gauges
    /// become single samples; histograms render as summaries with
    /// windowed `quantile` samples plus undecayed `_count`/`_sum`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for s in self.samples() {
            if s.name != last_name {
                let kind = match s.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = s.name.clone();
            }
            match s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", s.key, v);
                }
                SampleValue::Histogram(h) => {
                    for (q, v) in [("0.5", h.p50_us), ("0.99", h.p99_us)] {
                        let _ = writeln!(
                            out,
                            "{} {}",
                            with_label(&s.name, &s.labels, "quantile", q),
                            v
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        label_block(&s.labels),
                        h.total_count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        label_block(&s.labels),
                        h.total_sum_us
                    );
                }
            }
        }
        out
    }
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn with_label(name: &str, labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((key.to_string(), value.to_string()));
    format!("{name}{}", label_block(&all))
}

/// Inverse of [`render_key`]: recovers the raw (unescaped) label
/// pairs. A real parser rather than a split on `,` — label values may
/// legally contain commas, quotes, backslashes and newlines once
/// escaping is in play.
fn split_key(key: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key.to_string(), Vec::new());
    };
    let name = key[..brace].to_string();
    let mut labels = Vec::new();
    let mut chars = key[brace + 1..].chars().peekable();
    'pairs: loop {
        let mut label = String::new();
        loop {
            match chars.next() {
                Some('=') => break,
                Some('}') | None => break 'pairs,
                Some(c) => label.push(c),
            }
        }
        if chars.next() != Some('"') {
            break;
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(c) => value.push(c),
                    None => break 'pairs,
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => break 'pairs,
            }
        }
        labels.push((label, value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    (name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_lock_free_to_record() {
        let r = Registry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("requests_total").get(), 3);
    }

    #[test]
    fn labeled_counters_get_distinct_keys() {
        let r = Registry::new();
        r.counter_labeled("errors_total", &[("code", "bad_k")])
            .inc();
        r.counter_labeled("errors_total", &[("code", "shed")])
            .add(4);
        let samples = r.samples();
        let keys: Vec<&str> = samples.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "errors_total{code=\"bad_k\"}",
                "errors_total{code=\"shed\"}"
            ]
        );
        assert_eq!(samples[1].name, "errors_total");
        assert_eq!(samples[1].labels, vec![("code".into(), "shed".into())]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let r = Registry::new();
        let hostile = "a\\b\"c\nd,e=f";
        r.counter_labeled("errors_total", &[("detail", hostile)])
            .inc();
        let sample = &r.samples()[0];
        // The key carries the exposition-format escaped spelling...
        assert_eq!(sample.key, "errors_total{detail=\"a\\\\b\\\"c\\nd,e=f\"}");
        assert!(!sample.key.contains('\n'), "keys must stay single-line");
        // ...and parsing the key recovers the raw value exactly.
        assert_eq!(sample.labels, vec![("detail".into(), hostile.into())]);
        // Re-registering through the same labels finds the same slot.
        r.counter_labeled("errors_total", &[("detail", hostile)])
            .add(2);
        assert_eq!(
            r.counter_labeled("errors_total", &[("detail", hostile)])
                .get(),
            3
        );
    }

    #[test]
    fn prometheus_types_emitted_once_per_name() {
        let r = Registry::new();
        r.counter_labeled("e_total", &[("code", "a")]).inc();
        r.counter_labeled("e_total", &[("code", "b")]).inc();
        let text = r.to_prometheus();
        assert_eq!(text.matches("# TYPE e_total counter").count(), 1);
        assert!(text.contains("e_total{code=\"a\"} 1"));
    }
}
