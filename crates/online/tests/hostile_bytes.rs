//! Hostile bytes against the three framed formats: the metrics tsdb
//! (`TsdbData::parse`, `Tsdb::open`), the ingest WAL
//! (`Ingestor::with_wal` over a temp file) and the model file
//! (`artifact::decode`, `FrozenModel::load`).
//!
//! The two logs get an optional magic (none, whole or torn), frames whose
//! checksums verify around arbitrary payloads (raw bytes, varints of
//! every magnitude, records shaped like the format's own, whole or with a
//! byte flipped — WAL lines include embedded NULs), then raw garbage.
//! Nothing may panic, and what is recovered must be stable: re-parsing
//! the tsdb's recovered prefix returns that same prefix, and reopening a
//! recovered WAL reports no damage. A refused or rejected file is left as
//! it was.
//!
//! A model file is not a log, so nothing of a damaged one is recovered:
//! a valid artifact is truncated, flipped and spliced (bytes and whole
//! frames, from itself and from another artifact of the same shape), and
//! it may load only if its bytes are unchanged.

use proptest::prelude::*;
use smgcn_data::{Corpus, Prescription, Vocabulary};
use smgcn_obs::integrity::encode_frame;
use smgcn_obs::integrity::FRAME_HEADER;
use smgcn_obs::tsdb::{SeriesEncoder, Tsdb, TsdbData, TSDB_MAGIC, TSDB_VERSION};
use smgcn_online::Ingestor;
use smgcn_serve::{artifact, FrozenModel, ServingVocab};
use smgcn_tensor::Matrix;

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

/// Two artifacts of one shape: three 3 x 3 tensors and a 1 x 3 one, so
/// whole frames can trade places, between slots and between files.
fn artifacts() -> [Vec<u8>; 2] {
    [0.5f32, -1.25].map(|shift| {
        let m = |salt: usize| {
            Matrix::from_fn(3, 3, |r, c| ((r * 3 + c + salt) % 7) as f32 * 0.5 + shift)
        };
        let b = Matrix::from_fn(1, 3, |_, c| c as f32 + shift);
        let model = FrozenModel::from_parts(m(0), m(1), Some((m(2), b))).unwrap();
        let names = |tag: &str| (0..3).map(|i| format!("{tag}{i}")).collect();
        artifact::encode(&model, &ServingVocab::new(names("s"), names("h")))
    })
}

/// Each frame of a valid model file, header first, as a byte range.
fn frames(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut at = artifact::MAGIC.len();
    let mut frames = Vec::new();
    while at < file.len() {
        let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
        frames.push(at..at + FRAME_HEADER + len);
        at += FRAME_HEADER + len;
    }
    frames
}

/// One edit to a valid artifact; positions wrap around what is there.
#[derive(Clone, Debug)]
enum Edit {
    Truncate(usize),
    /// Xors a nonzero mask into one byte.
    Flip(usize, u8),
    /// Frame `from` of artifact `source` in place of frame `to`.
    Frame {
        source: usize,
        from: usize,
        to: usize,
    },
    /// `len` bytes of artifact `source` at `from`, over (or, to
    /// `insert`, before) the bytes at `to`.
    Splice {
        source: usize,
        from: usize,
        len: usize,
        to: usize,
        insert: bool,
    },
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let edit = (0u8..5, 0usize..4096, 0usize..4096, 0usize..48, 1u8..=255).prop_map(
        |(kind, at, from, len, mask)| match kind {
            0 => Edit::Truncate(at),
            1 => Edit::Flip(at, mask),
            2 => Edit::Frame {
                source: from % 2,
                from: len % 5,
                to: at % 5,
            },
            _ => Edit::Splice {
                source: usize::from(mask % 2),
                from,
                len,
                to: at,
                insert: kind == 4,
            },
        },
    );
    proptest::collection::vec(edit, 1..4)
}

fn apply(edit: &Edit, blob: &mut Vec<u8>, sources: &[Vec<u8>; 2]) {
    let n = blob.len();
    match *edit {
        Edit::Truncate(at) => blob.truncate(at % (n + 1)),
        Edit::Flip(at, mask) if n > 0 => blob[at % n] ^= mask,
        Edit::Flip(..) => {}
        Edit::Frame { source, from, to } => {
            let src = frames(&sources[source])[from].clone();
            let dst = frames(&sources[0])[to].clone();
            let dst = dst.start.min(n)..dst.end.min(n);
            blob.splice(dst, sources[source][src].iter().copied());
        }
        Edit::Splice {
            source,
            from,
            len,
            to,
            insert,
        } => {
            let src = &sources[source];
            let from = from % src.len();
            let bytes = &src[from..(from + len).min(src.len())];
            let to = to % (n + 1);
            let end = if insert {
                to
            } else {
                (to + bytes.len()).min(n)
            };
            blob.splice(to..end, bytes.iter().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_model_file_loads_only_unchanged(edits in edits()) {
        let sources = artifacts();
        let mut blob = sources[0].clone();
        for edit in &edits {
            apply(edit, &mut blob, &sources);
        }
        let unchanged = blob == sources[0];
        let decoded = artifact::decode(&blob);
        prop_assert_eq!(decoded.is_ok(), unchanged, "{:?}: {:?}", edits, decoded.err());
        let path = tmp_path("model");
        std::fs::write(&path, &blob).unwrap();
        let loaded = FrozenModel::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.is_ok(), unchanged, "{:?}: {:?}", edits, loaded.err());
    }

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
