//! Append-only, delta-encoded on-disk time-series store.
//!
//! Everything the telemetry plane measures is a point-in-time snapshot;
//! this module is the retention layer that turns snapshots into
//! history. A [`Scraper`] polls a metrics source on an interval (a
//! local [`crate::Registry`] or a fleet `{"op":"metrics"}` endpoint —
//! the transport is a caller-supplied closure, keeping this crate
//! dependency-free), flattens each snapshot into `(series name, f64)`
//! pairs and appends one *record* per scrape. [`TsdbData`] is the
//! queryable in-memory index: windowed `delta`/`rate` for counters and
//! `quantile`/`avg`/`max`-over-time for gauge-like series.
//!
//! # On-disk format (version 1)
//!
//! ```text
//! file   := "SMTS" 0x01 frame*
//! frame  := len:u32le crc:u32le payload          (crc = CRC32(payload))
//! payload:= varint(delta_ms)                      (first record: absolute unix ms)
//!           varint(n_new) (varint(len) name)*     (new series, ids assigned in order)
//!           varint(n_points) (varint(id) varint(xor))*
//! ```
//!
//! Integers are LEB128 varints. Each point stores the IEEE-754 bits of
//! its value XORed with the previous value of the same series
//! (Gorilla-style): an unchanged counter costs one byte, a slowly
//! moving one a few. Series names are written once, on first
//! appearance, and referenced by dense id thereafter.
//!
//! The framing and its recovery are the ingest WAL's, from
//! [`crate::integrity`]: [`TsdbData::parse`] keeps the longest prefix of
//! frames that verify and decode, [`Tsdb::open`] truncates the rest and
//! recovers a torn header as an empty store, and a failed
//! [`Tsdb::append`] is truncated back to the last good frame. A crash or
//! a full disk mid-append costs at most the torn record. Every count in
//! a record is bounded by the bytes left in its payload, so hostile
//! bytes cost no more memory than the file itself.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::integrity::{self, FramedLog};

/// File magic: the first four bytes of every tsdb file.
pub const TSDB_MAGIC: [u8; 4] = *b"SMTS";
/// Current format version (the byte after the magic).
pub const TSDB_VERSION: u8 = 1;
/// The magic every tsdb file starts with: [`TSDB_MAGIC`], then
/// [`TSDB_VERSION`].
const TSDB_HEADER: [u8; 5] = [
    TSDB_MAGIC[0],
    TSDB_MAGIC[1],
    TSDB_MAGIC[2],
    TSDB_MAGIC[3],
    TSDB_VERSION,
];

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Milliseconds since the Unix epoch (the scrape timestamp source).
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Stateful record encoder: owns the series dictionary and per-series
/// previous values that the delta encoding is relative to. Feed it
/// scrapes in time order; it emits one self-contained frame per call.
#[derive(Debug, Default, Clone)]
pub struct SeriesEncoder {
    ids: BTreeMap<String, u32>,
    prev: Vec<u64>,
    last_ms: u64,
    started: bool,
}

impl SeriesEncoder {
    /// A fresh encoder (no series known yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the file header (magic + version).
    pub fn header(out: &mut Vec<u8>) {
        out.extend_from_slice(&TSDB_HEADER);
    }

    /// Appends one framed record for a scrape at `unix_ms` to `out`.
    pub fn append(&mut self, unix_ms: u64, samples: &[(String, f64)], out: &mut Vec<u8>) {
        integrity::encode_frame(&self.record(unix_ms, samples), out);
    }

    /// The payload of one record for a scrape at `unix_ms`.
    fn record(&mut self, unix_ms: u64, samples: &[(String, f64)]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + samples.len() * 3);
        let delta = if self.started {
            unix_ms.saturating_sub(self.last_ms)
        } else {
            unix_ms
        };
        self.started = true;
        self.last_ms = self.last_ms.max(unix_ms);
        put_varint(&mut payload, delta);

        let new: Vec<&str> = samples
            .iter()
            .filter(|(name, _)| !self.ids.contains_key(name))
            .map(|(name, _)| name.as_str())
            .collect();
        put_varint(&mut payload, new.len() as u64);
        for name in new {
            // Ids count declarations, as the decoder's do: a name
            // declared twice (twice in one scrape, or in a hostile file
            // this encoder continues) maps to its later id on both sides.
            let id = self.prev.len() as u32;
            self.ids.insert(name.to_string(), id);
            self.prev.push(0);
            put_varint(&mut payload, name.len() as u64);
            payload.extend_from_slice(name.as_bytes());
        }

        put_varint(&mut payload, samples.len() as u64);
        for (name, value) in samples {
            let id = self.ids[name];
            let bits = value.to_bits();
            let xor = bits ^ self.prev[id as usize];
            self.prev[id as usize] = bits;
            put_varint(&mut payload, u64::from(id));
            put_varint(&mut payload, xor);
        }
        payload
    }
}

/// The queryable in-memory index of a tsdb file: every series with its
/// `(unix_ms, value)` points in time order.
#[derive(Debug, Default, Clone)]
pub struct TsdbData {
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

/// What [`TsdbData::parse`] recovered from raw bytes.
#[derive(Debug)]
pub struct Recovered {
    /// The decoded history (longest valid prefix).
    pub data: TsdbData,
    /// Bytes of the valid prefix, including the header. Anything past
    /// this offset is a torn or corrupt tail.
    pub valid_len: usize,
    /// Encoder state positioned to continue appending after the valid
    /// prefix (same dictionary, same previous values).
    pub encoder: SeriesEncoder,
}

/// Decoding state of a tsdb file: the history so far, and the encoder
/// mirror that continues it.
#[derive(Default)]
struct Decoder {
    data: TsdbData,
    enc: SeriesEncoder,
    names: Vec<String>,
}

impl Decoder {
    /// Decodes one verified payload into the history. Returns `None` on
    /// any malformed field, and then applies nothing of it.
    fn record(&mut self, payload: &[u8]) -> Option<()> {
        // Every entry takes at least one byte, so the bytes left bound
        // each count before it sizes an allocation.
        let room = |pos: usize, n: u64| n.min((payload.len() - pos) as u64) as usize;
        let mut pos = 0usize;
        let delta = get_varint(payload, &mut pos)?;
        let at_ms = if self.enc.started {
            self.enc.last_ms.saturating_add(delta)
        } else {
            delta
        };
        let n_new = get_varint(payload, &mut pos)?;
        let mut staged_names: Vec<&str> = Vec::with_capacity(room(pos, n_new));
        for _ in 0..n_new {
            let len = get_varint(payload, &mut pos)?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| pos.checked_add(len))?;
            staged_names.push(std::str::from_utf8(payload.get(pos..end)?).ok()?);
            pos = end;
        }
        let n_points = get_varint(payload, &mut pos)?;
        let total_series = self.names.len() + staged_names.len();
        let mut staged_points: Vec<(usize, u64)> = Vec::with_capacity(room(pos, n_points));
        for _ in 0..n_points {
            let id = get_varint(payload, &mut pos)?;
            let xor = get_varint(payload, &mut pos)?;
            let id = usize::try_from(id).ok().filter(|&id| id < total_series)?;
            staged_points.push((id, xor));
        }
        // All fields well-formed: commit atomically so a bad frame
        // never half-applies.
        let enc = &mut self.enc;
        for name in staged_names {
            let id = enc.prev.len() as u32;
            enc.ids.insert(name.to_string(), id);
            enc.prev.push(0);
            self.names.push(name.to_string());
        }
        enc.started = true;
        enc.last_ms = at_ms;
        for (id, xor) in staged_points {
            let bits = enc.prev[id] ^ xor;
            enc.prev[id] = bits;
            self.data
                .series
                .entry(self.names[id].clone())
                .or_default()
                .push((at_ms, f64::from_bits(bits)));
        }
        Some(())
    }
}

impl TsdbData {
    /// Decodes as much of `bytes` as is well-formed. A missing or
    /// mangled header yields an empty history with `valid_len == 0`;
    /// a bad frame (torn, CRC mismatch, undecodable payload) ends the
    /// scan at the last good frame.
    pub fn parse(bytes: &[u8]) -> Recovered {
        let mut dec = Decoder::default();
        let valid_len = if bytes.starts_with(&TSDB_HEADER) {
            let replay = |payload: &[u8]| Ok::<_, Infallible>(dec.record(payload).is_some());
            let Ok(damage) = integrity::scan(bytes, TSDB_HEADER.len(), |_| None, replay);
            damage.map_or(bytes.len(), |r| r.valid_bytes as usize)
        } else {
            0
        };
        Recovered {
            data: dec.data,
            valid_len,
            encoder: dec.enc,
        }
    }

    /// Loads and decodes a tsdb file (tolerating a torn tail).
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<TsdbData> {
        Ok(Self::parse(&std::fs::read(path)?).data)
    }

    /// Appends one scrape directly (the in-memory mirror the live
    /// alerting path uses, bypassing the encode/decode round trip).
    pub fn push(&mut self, unix_ms: u64, samples: &[(String, f64)]) {
        for (name, value) in samples {
            self.series
                .entry(name.clone())
                .or_default()
                .push((unix_ms, *value));
        }
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Points of one exact series.
    pub fn points(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Timestamp of the earliest point anywhere.
    pub fn start_ms(&self) -> Option<u64> {
        self.series
            .values()
            .filter_map(|p| p.first().map(|&(t, _)| t))
            .min()
    }

    /// Timestamp of the latest point anywhere.
    pub fn end_ms(&self) -> Option<u64> {
        self.series
            .values()
            .filter_map(|p| p.last().map(|&(t, _)| t))
            .max()
    }

    fn matching<'a>(&'a self, selector: &'a str) -> impl Iterator<Item = &'a Vec<(u64, f64)>> + 'a {
        self.series
            .iter()
            .filter(move |(key, _)| selector_matches(selector, key))
            .map(|(_, points)| points)
    }

    /// Sum of the latest values of every series matching `selector`
    /// (counters with label variants sum naturally; a single-series
    /// selector is just its last value). `None` when nothing matches.
    pub fn last(&self, selector: &str) -> Option<f64> {
        let mut sum = 0.0;
        let mut any = false;
        for points in self.matching(selector) {
            if let Some(&(_, v)) = points.last() {
                sum += v;
                any = true;
            }
        }
        any.then_some(sum)
    }

    /// Counter increase over `(t0, t1]`, summed across matching series.
    /// Reset-aware like Prometheus `increase`: a drop in a
    /// monotonically-increasing series counts the post-reset value, not
    /// a negative delta. The baseline is the last point at or before
    /// `t0` (or the first in-window point when the series starts inside
    /// the window).
    pub fn delta(&self, selector: &str, t0: u64, t1: u64) -> f64 {
        let mut sum = 0.0;
        for points in self.matching(selector) {
            let mut prev: Option<f64> = points
                .iter()
                .take_while(|&&(t, _)| t <= t0)
                .last()
                .map(|&(_, v)| v);
            for &(_, v) in points.iter().filter(|&&(t, _)| t > t0 && t <= t1) {
                sum += match prev {
                    Some(p) if v >= p => v - p,
                    Some(_) => v, // counter reset
                    // Series born inside the window (e.g. a labeled
                    // error counter created by its first error): the
                    // whole first value is in-window increase.
                    None => v,
                };
                prev = Some(v);
            }
        }
        sum
    }

    /// Per-second rate of increase over `(t0, t1]`.
    pub fn rate(&self, selector: &str, t0: u64, t1: u64) -> f64 {
        let window_s = t1.saturating_sub(t0) as f64 / 1e3;
        if window_s <= 0.0 {
            return 0.0;
        }
        self.delta(selector, t0, t1) / window_s
    }

    fn window_values(&self, selector: &str, t0: u64, t1: u64) -> Vec<f64> {
        let mut values = Vec::new();
        for points in self.matching(selector) {
            values.extend(
                points
                    .iter()
                    .filter(|&&(t, _)| t >= t0 && t <= t1)
                    .map(|&(_, v)| v),
            );
        }
        values
    }

    /// Nearest-rank `q`-quantile of sampled values in `[t0, t1]` across
    /// matching series. `None` when the window is empty.
    pub fn quantile_over_time(&self, selector: &str, t0: u64, t1: u64, q: f64) -> Option<f64> {
        let mut values = self.window_values(selector, t0, t1);
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize).max(1);
        Some(values[rank.min(values.len()) - 1])
    }

    /// Mean of sampled values in `[t0, t1]`.
    pub fn avg_over_time(&self, selector: &str, t0: u64, t1: u64) -> Option<f64> {
        let values = self.window_values(selector, t0, t1);
        if values.is_empty() {
            return None;
        }
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }

    /// Maximum sampled value in `[t0, t1]`.
    pub fn max_over_time(&self, selector: &str, t0: u64, t1: u64) -> Option<f64> {
        self.window_values(selector, t0, t1)
            .into_iter()
            .reduce(f64::max)
    }
}

/// Whether `selector` matches a series `key`. Exact match always wins;
/// a selector without a label block also matches every labeled variant
/// of the same metric and field — `serve_errors_total` matches
/// `serve_errors_total{code="invalid_k"}`, and `serve_latency_us.p99_us`
/// matches `serve_latency_us{shard="0"}.p99_us`.
pub fn selector_matches(selector: &str, key: &str) -> bool {
    if selector == key {
        return true;
    }
    if selector.contains('{') {
        return false;
    }
    match (key.find('{'), key.find('}')) {
        (Some(open), Some(close)) if close > open => {
            selector.len() == key.len() - (close + 1 - open)
                && selector.starts_with(&key[..open])
                && selector.ends_with(&key[close + 1..])
        }
        _ => false,
    }
}

/// A file-backed tsdb: create or recover, then append one record per
/// scrape. Each record is written whole or not at all (a failed append
/// is truncated away), so a crash loses at most the in-flight frame.
#[derive(Debug)]
pub struct Tsdb {
    log: FramedLog,
    encoder: SeriesEncoder,
    path: PathBuf,
}

impl Tsdb {
    /// Creates (truncating) a fresh tsdb file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Tsdb> {
        File::create(&path)?;
        Ok(Self::open(path)?.0)
    }

    /// Opens a file for appending (creating it when missing),
    /// recovering the longest valid prefix: a torn tail or torn header
    /// from a crashed writer is truncated away and appending continues
    /// after the last good record. A file that is not a tsdb is refused
    /// and left as it is. Returns the store plus everything it already
    /// held.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<(Tsdb, TsdbData)> {
        let path = path.as_ref();
        let mut dec = Decoder::default();
        let replay = |payload: &[u8]| Ok::<_, io::Error>(dec.record(payload).is_some());
        let (log, _) = FramedLog::open(path, &TSDB_HEADER, |_| None, replay)?;
        let tsdb = Tsdb {
            log,
            encoder: dec.enc,
            path: path.to_path_buf(),
        };
        Ok((tsdb, dec.data))
    }

    /// Appends one scrape record. On an error nothing of it stays, in
    /// the file or in the encoder.
    pub fn append(&mut self, unix_ms: u64, samples: &[(String, f64)]) -> io::Result<()> {
        let before = self.encoder.clone();
        let payload = self.encoder.record(unix_ms, samples);
        let written = self
            .log
            .append(&payload, |file, frame| file.write_all(frame));
        if written.is_err() {
            self.encoder = before;
        }
        written
    }

    /// The file this store writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The fetch side of a [`Scraper`]: produces one flattened snapshot, or
/// `None` when the source is unreachable this tick.
pub type ScrapeFetch = Box<dyn FnMut() -> Option<Vec<(String, f64)>> + Send>;
/// The sink side: receives `(unix_ms, samples)` for every successful
/// scrape (typically [`Tsdb::append`] plus a [`TsdbData::push`] mirror).
pub type ScrapeSink = Box<dyn FnMut(u64, &[(String, f64)]) + Send>;

/// A background thread that polls `fetch` every `interval` and hands
/// each snapshot to `sink`. [`Scraper::stop`] performs one final scrape
/// before joining, so the history always ends with the terminal state.
#[derive(Debug)]
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scraper {
    /// Spawns the scrape loop (first scrape fires immediately).
    pub fn spawn(interval: Duration, mut fetch: ScrapeFetch, mut sink: ScrapeSink) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut scrape = |sink: &mut ScrapeSink| {
                if let Some(samples) = fetch() {
                    sink(unix_ms_now(), &samples);
                }
            };
            loop {
                scrape(&mut sink);
                let tick = Instant::now();
                while tick.elapsed() < interval {
                    if stop_flag.load(Ordering::Relaxed) {
                        scrape(&mut sink);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                if stop_flag.load(Ordering::Relaxed) {
                    scrape(&mut sink);
                    return;
                }
            }
        });
        Scraper {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the loop, waits for the final scrape, and joins.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> Vec<(u64, Vec<(String, f64)>)> {
        let s = |n: &str, v: f64| (n.to_string(), v);
        vec![
            (
                1000,
                vec![s("requests_total", 0.0), s("latency.p99_us", 800.0)],
            ),
            (
                1100,
                vec![s("requests_total", 10.0), s("latency.p99_us", 820.0)],
            ),
            (
                1200,
                vec![
                    s("requests_total", 25.0),
                    s("latency.p99_us", 1600.0),
                    s("errors_total{code=\"bad_k\"}", 2.0),
                ],
            ),
        ]
    }

    fn encode(history: &[(u64, Vec<(String, f64)>)]) -> Vec<u8> {
        let mut enc = SeriesEncoder::new();
        let mut out = Vec::new();
        SeriesEncoder::header(&mut out);
        for (at, samples) in history {
            enc.append(*at, samples, &mut out);
        }
        out
    }

    #[test]
    fn round_trips_exact_values_and_timestamps() {
        let bytes = encode(&sample_history());
        let recovered = TsdbData::parse(&bytes);
        assert_eq!(recovered.valid_len, bytes.len());
        let data = recovered.data;
        assert_eq!(
            data.points("requests_total").unwrap(),
            &[(1000, 0.0), (1100, 10.0), (1200, 25.0)]
        );
        assert_eq!(
            data.points("latency.p99_us").unwrap(),
            &[(1000, 800.0), (1100, 820.0), (1200, 1600.0)]
        );
        assert_eq!(
            data.points("errors_total{code=\"bad_k\"}").unwrap(),
            &[(1200, 2.0)]
        );
    }

    #[test]
    fn unchanged_values_cost_one_byte_per_point() {
        let mut enc = SeriesEncoder::new();
        let mut out = Vec::new();
        let samples = vec![("steady_total".to_string(), 42.0)];
        enc.append(1000, &samples, &mut out);
        let first = out.len();
        enc.append(1100, &samples, &mut out);
        // Frame overhead (8) + delta(1) + n_new(1) + n_points(1) +
        // id(1) + xor(1 — value unchanged, so XOR is zero).
        assert_eq!(out.len() - first, 13, "repeat point should be tiny");
    }

    #[test]
    fn torn_tail_and_corrupt_frames_are_dropped() {
        let bytes = encode(&sample_history());
        // Truncate mid-frame: everything before the cut survives.
        let cut = bytes.len() - 3;
        let recovered = TsdbData::parse(&bytes[..cut]);
        assert_eq!(recovered.data.points("requests_total").unwrap().len(), 2);
        assert!(recovered.valid_len < cut);
        // Flip a payload byte in the last frame: CRC catches it.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        let recovered = TsdbData::parse(&flipped);
        assert_eq!(recovered.data.points("requests_total").unwrap().len(), 2);
        // Garbage header: nothing valid at all.
        let recovered = TsdbData::parse(b"not a tsdb");
        assert_eq!(recovered.valid_len, 0);
        assert!(recovered.data.series_names().is_empty());
    }

    #[test]
    fn crafted_counts_end_the_scan_at_their_own_frame() {
        let good = encode(&sample_history());
        let varints = |values: &[u64]| {
            let mut payload = Vec::new();
            for &v in values {
                put_varint(&mut payload, v);
            }
            payload
        };
        // Each payload verifies but claims more than it holds: 2^60
        // points, 2^60 new series, a name of u64::MAX bytes.
        for crafted in [
            varints(&[0, 0, 1 << 60]),
            varints(&[0, 1 << 60]),
            varints(&[0, 1, u64::MAX]),
        ] {
            let mut bytes = good.clone();
            integrity::encode_frame(&crafted, &mut bytes);
            // A good frame after it must not be reached.
            let mut enc = TsdbData::parse(&good).encoder;
            enc.append(1300, &[("requests_total".to_string(), 30.0)], &mut bytes);
            let recovered = TsdbData::parse(&bytes);
            assert_eq!(recovered.valid_len, good.len(), "{crafted:?}");
            assert_eq!(
                recovered.data.points("requests_total").unwrap(),
                &[(1000, 0.0), (1100, 10.0), (1200, 25.0)],
                "{crafted:?}"
            );
        }
    }

    #[test]
    fn a_name_declared_twice_keeps_encoder_and_decoder_in_step() {
        let twice = |v: f64| {
            vec![
                ("dup_total".to_string(), v),
                ("dup_total".to_string(), v + 1.0),
            ]
        };
        let bytes = encode(&[(1000, twice(1.0)), (1100, twice(5.0))]);
        let recovered = TsdbData::parse(&bytes);
        assert_eq!(recovered.valid_len, bytes.len());
        let mut bytes = bytes;
        let mut enc = recovered.encoder;
        enc.append(1200, &[("late_total".to_string(), 7.0)], &mut bytes);
        let data = TsdbData::parse(&bytes).data;
        assert_eq!(data.points("late_total").unwrap(), &[(1200, 7.0)]);
        assert_eq!(data.last("dup_total"), Some(6.0));
    }

    #[test]
    fn file_recovery_truncates_and_continues() {
        let dir = std::env::temp_dir().join(format!("smgcn_tsdb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover.tsdb");
        let s = |v: f64| vec![("c_total".to_string(), v)];
        {
            let mut tsdb = Tsdb::create(&path).unwrap();
            tsdb.append(1000, &s(1.0)).unwrap();
            tsdb.append(1100, &s(2.0)).unwrap();
        }
        // Simulate a crash mid-append: lop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        {
            let (mut tsdb, data) = Tsdb::open(&path).unwrap();
            assert_eq!(data.points("c_total").unwrap(), &[(1000, 1.0)]);
            tsdb.append(1200, &s(5.0)).unwrap();
        }
        let data = TsdbData::load(&path).unwrap();
        assert_eq!(data.points("c_total").unwrap(), &[(1000, 1.0), (1200, 5.0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_queries() {
        let bytes = encode(&sample_history());
        let data = TsdbData::parse(&bytes).data;
        // Counter delta across the full window and a sub-window.
        assert_eq!(data.delta("requests_total", 0, 2000), 25.0);
        assert_eq!(data.delta("requests_total", 1000, 1100), 10.0);
        // Rate over (1000, 1200]: 25 increments in 0.2 s.
        assert!((data.rate("requests_total", 1000, 1200) - 125.0).abs() < 1e-9);
        // Label variants fold into the bare selector.
        assert_eq!(data.delta("errors_total", 0, 2000), 2.0);
        assert_eq!(data.last("errors_total"), Some(2.0));
        // Percentile-over-time on a gauge-like series.
        assert_eq!(
            data.quantile_over_time("latency.p99_us", 0, 2000, 1.0),
            Some(1600.0)
        );
        assert_eq!(
            data.quantile_over_time("latency.p99_us", 0, 2000, 0.5),
            Some(820.0)
        );
        assert_eq!(data.max_over_time("latency.p99_us", 0, 1100), Some(820.0));
        assert_eq!(data.avg_over_time("missing", 0, 2000), None);
    }

    #[test]
    fn counter_reset_counts_post_reset_value() {
        let mut data = TsdbData::default();
        let s = |v: f64| vec![("c_total".to_string(), v)];
        data.push(1000, &s(10.0));
        data.push(1100, &s(14.0));
        data.push(1200, &s(3.0)); // process restarted
        data.push(1300, &s(5.0));
        assert_eq!(data.delta("c_total", 1000, 1300), 4.0 + 3.0 + 2.0);
    }

    #[test]
    fn selector_matching_rules() {
        assert!(selector_matches("a_total", "a_total"));
        assert!(selector_matches("a_total", "a_total{code=\"x\"}"));
        assert!(selector_matches("lat.p99_us", "lat{shard=\"0\"}.p99_us"));
        assert!(!selector_matches("a_total", "ab_total{code=\"x\"}"));
        assert!(!selector_matches(
            "a_total{code=\"x\"}",
            "a_total{code=\"y\"}"
        ));
        assert!(!selector_matches("a_total", "a_total.count"));
    }

    #[test]
    fn scraper_collects_and_final_scrape_lands() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let mut n = 0u64;
        let scraper = Scraper::spawn(
            Duration::from_millis(10),
            Box::new(move || {
                n += 1;
                Some(vec![("ticks_total".to_string(), n as f64)])
            }),
            Box::new(move |at, samples| {
                sink_seen.lock().unwrap().push((at, samples.to_vec()));
            }),
        );
        std::thread::sleep(Duration::from_millis(35));
        scraper.stop();
        let seen = seen.lock().unwrap();
        assert!(
            seen.len() >= 3,
            "expected several scrapes, got {}",
            seen.len()
        );
        let last = &seen[seen.len() - 1].1[0];
        assert_eq!(last.1, seen.len() as f64, "final scrape must land on stop");
    }
}
