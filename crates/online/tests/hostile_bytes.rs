//! Hostile bytes against both framed formats: the metrics tsdb
//! (`TsdbData::parse`, `Tsdb::open`) and the ingest WAL
//! (`Ingestor::with_wal` over a temp file). Each input is an optional
//! magic (none, whole or torn), frames whose checksums verify around
//! arbitrary payloads (raw bytes, varints of every magnitude, records
//! shaped like the format's own, whole or with a byte flipped — WAL
//! lines include embedded NULs), then raw garbage. Nothing may
//! panic, and what is recovered must be stable: re-parsing the tsdb's
//! recovered prefix returns that same prefix, and reopening a recovered
//! WAL reports no damage. A refused or rejected file is left as it was.

use proptest::prelude::*;
use smgcn_data::{Corpus, Prescription, Vocabulary};
use smgcn_obs::integrity::encode_frame;
use smgcn_obs::tsdb::{SeriesEncoder, Tsdb, TsdbData, TSDB_MAGIC, TSDB_VERSION};
use smgcn_online::Ingestor;

const WAL_MAGIC: &[u8] = b"SMGNWAL2";

/// WAL payload lines: valid ones, ones that fail to parse or validate,
/// and ones with embedded NULs.
const WAL_LINES: [&str; 10] = [
    "2\t1",
    "+symptom\ts-new",
    "+herb\th-new",
    "0 3\t0 2",
    "1 4\t3",
    "+symptom\ts\0nul",
    "2\t1\0",
    "9\t0",
    "\t",
    "+herb\t",
];

/// One frame payload drawn as `(kind, raw bytes, varint seeds)`.
type PayloadDraw = (u8, Vec<u8>, Vec<(u64, u32)>);

/// The payload a draw stands for: raw bytes, bare varints (hostile
/// counts and lengths), or a record `shaped` like the format's own,
/// with one byte flipped or (half the time) whole.
fn payload(draw: &PayloadDraw, shaped: &mut impl FnMut(&PayloadDraw) -> Vec<u8>) -> Vec<u8> {
    let (kind, raw, seeds) = draw;
    match kind % 6 {
        0 => raw.clone(),
        1 => {
            // Varints of every magnitude; one in five is below 4.
            let mut out = Vec::new();
            for &(bits, shift) in seeds {
                let mut v = if shift >= 64 { bits % 4 } else { bits >> shift };
                while v >= 0x80 {
                    out.push(v as u8 | 0x80);
                    v >>= 7;
                }
                out.push(v as u8);
            }
            out
        }
        2 => {
            let mut out = shaped(draw);
            if let (false, Some(&(bits, _))) = (out.is_empty(), seeds.first()) {
                let at = bits as usize % out.len();
                out[at] ^= (bits >> 56) as u8 | 1;
            }
            out
        }
        _ => shaped(draw),
    }
}

/// `magic` (none, torn, or whole half the time, per `head`), a frame
/// around each payload, then `garbage`.
fn hostile(
    magic: &[u8],
    head: u8,
    draws: &[PayloadDraw],
    garbage: &[u8],
    mut shaped: impl FnMut(&PayloadDraw) -> Vec<u8>,
) -> Vec<u8> {
    let mut bytes = match head % 4 {
        0 => Vec::new(),
        1 => magic[..magic.len() / 2].to_vec(),
        _ => magic.to_vec(),
    };
    for draw in draws {
        encode_frame(&payload(draw, &mut shaped), &mut bytes);
    }
    bytes.extend_from_slice(garbage);
    bytes
}

/// A WAL line: valid, failing to parse or validate, or with a NUL.
fn wal_line((_, raw, _): &PayloadDraw) -> Vec<u8> {
    let pick = raw.first().copied().unwrap_or(0) as usize;
    WAL_LINES[pick % WAL_LINES.len()].as_bytes().to_vec()
}

/// A tsdb record from an encoder that carries on across the file's
/// frames: a few series named by `raw`, values from the seeds.
fn tsdb_record(enc: &mut SeriesEncoder) -> impl FnMut(&PayloadDraw) -> Vec<u8> + '_ {
    move |(_, raw, seeds)| {
        let samples: Vec<(String, f64)> = raw
            .iter()
            .take(4)
            .zip(seeds.iter().chain(std::iter::repeat(&(0, 0))))
            .map(|(b, &(bits, _))| (format!("s{}", b % 6), f64::from_bits(bits)))
            .collect();
        let at = seeds.first().map_or(0, |&(bits, _)| bits >> 24);
        let mut frame = Vec::new();
        enc.append(at, &samples, &mut frame);
        frame.split_off(8)
    }
}

fn payloads() -> impl Strategy<Value = Vec<PayloadDraw>> {
    proptest::collection::vec(
        (
            0u8..6,
            proptest::collection::vec(0u8..=255, 0..24),
            proptest::collection::vec((0u64..u64::MAX, 0u32..80), 0..10),
        ),
        0..6,
    )
}

/// A history as comparable data (values by their bits: NaN is data).
fn snapshot(data: &TsdbData) -> Vec<(String, Vec<(u64, u64)>)> {
    data.series_names()
        .into_iter()
        .map(|name| {
            let points = data.points(name).unwrap_or_default();
            let bits = points.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            (name.to_string(), bits)
        })
        .collect()
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smgcn_hostile_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{}", std::process::id()))
}

fn base_corpus() -> Corpus {
    Corpus::new(
        Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
        Vocabulary::from_names(["h0", "h1", "h2"]),
        vec![Prescription::new(vec![0, 1], vec![0])],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tsdb_recovers_a_stable_prefix_of_hostile_bytes(
        head in 0u8..4,
        frames in payloads(),
        garbage in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let mut magic = TSDB_MAGIC.to_vec();
        magic.push(TSDB_VERSION);
        let mut enc = SeriesEncoder::new();
        let bytes = hostile(&magic, head, &frames, &garbage, tsdb_record(&mut enc));
        let recovered = TsdbData::parse(&bytes);
        prop_assert!(recovered.valid_len <= bytes.len());
        let again = TsdbData::parse(&bytes[..recovered.valid_len]);
        prop_assert_eq!(again.valid_len, recovered.valid_len);
        prop_assert_eq!(snapshot(&again.data), snapshot(&recovered.data));

        // The file path agrees with the slice parser, and continues it.
        let path = tmp_path("tsdb");
        std::fs::write(&path, &bytes).unwrap();
        let ours = bytes.starts_with(&magic) || magic.starts_with(&bytes);
        match Tsdb::open(&path) {
            Ok((mut tsdb, data)) => {
                prop_assert!(ours, "a foreign file was opened");
                prop_assert_eq!(snapshot(&data), snapshot(&recovered.data));
                let before = data.points("probe_total").map_or(0, <[_]>::len);
                tsdb.append(u64::MAX / 2, &[("probe_total".to_string(), 1.0)]).unwrap();
                drop(tsdb);
                let (_, reopened) = Tsdb::open(&path).unwrap();
                prop_assert_eq!(
                    reopened.points("probe_total").map_or(0, <[_]>::len),
                    before + 1
                );
            }
            Err(_) => {
                prop_assert!(!ours, "a tsdb prefix was refused");
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_replay_of_hostile_bytes_is_stable_or_refused_untouched(
        head in 0u8..4,
        frames in payloads(),
        garbage in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let bytes = hostile(WAL_MAGIC, head, &frames, &garbage, wal_line);
        let path = tmp_path("wal");
        std::fs::write(&path, &bytes).unwrap();
        match Ingestor::with_wal(base_corpus(), &path) {
            Ok(ingestor) => {
                let pending = ingestor.pending().len();
                drop(ingestor);
                let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
                prop_assert!(reopened.wal_recovery().is_none());
                prop_assert_eq!(reopened.pending().len(), pending);
            }
            Err(_) => prop_assert_eq!(std::fs::read(&path).unwrap(), bytes),
        }
        std::fs::remove_file(&path).ok();
    }
}
