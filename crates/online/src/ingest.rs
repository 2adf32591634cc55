//! Append-only prescription ingestion with a write-ahead log.
//!
//! The [`Ingestor`] is the front door of the online loop: it owns the
//! evolving corpus, accepts prescriptions by entity *names* (growing the
//! vocabularies with stable ids when a record mentions an unseen symptom
//! or herb) or by raw ids, validates and deduplicates them, and batches
//! the accepted records for the graph-delta stage.
//!
//! Durability uses a WAL whose *payloads* are lines in the corpus text
//! format plus vocabulary-growth records:
//!
//! ```text
//! +symptom<TAB>name          # appended before any record that needs it
//! +herb<TAB>name
//! 0 4 17<TAB>3 9 12          # a prescription, ids as in corpus files
//! ```
//!
//! Since v2 the file itself is framed (all integers little-endian):
//!
//! ```text
//! "SMGNWAL2"                 8-byte file magic
//! [u32 len][u32 crc32][payload]     one frame per logged line
//! ```
//!
//! The per-record CRC32 (shared with the publish artifact via
//! `smgcn_obs::integrity`) makes crash damage *detectable*: a torn
//! final frame (short write during a crash) or a bit-flipped record
//! fails its checksum, and replay recovers by truncating the file back
//! to the last frame that verified — every record before the damage
//! survives, the tail is dropped with a [`WalRecovery`] report, and
//! appending continues cleanly after the cut. Pre-v2 text logs are
//! replayed line-by-line and rewritten in the framed format.
//!
//! Every accepted append is written (and flushed) to the WAL *before* it
//! is acknowledged; reopening an ingestor over the same base corpus and
//! WAL replays the log, so a crash between refreshes loses nothing. A
//! failed append (disk error, torn flush) is repaired immediately — the
//! file is truncated back to its last durable frame so a later accepted
//! record can never sit *behind* damage and be silently lost by the
//! next replay. A successful refresh folds the batch into the model and
//! the caller then [`Ingestor::truncate_wal`]s it.
//!
//! The fault-injection sites `wal.append.write` and `wal.replay.read`
//! (see `smgcn-faults`) let tests and the fault-storm scenario force
//! disk errors, short writes and corruption through these exact paths.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use smgcn_data::{Corpus, Prescription};
use smgcn_faults::{sites, FaultAction};
use smgcn_obs::integrity::crc32;

/// File magic opening every framed (v2) WAL.
const WAL_MAGIC: &[u8; 8] = b"SMGNWAL2";

/// Sanity cap on one frame's payload; a length field beyond this is
/// corruption, not a record (the longest real line is a prescription
/// with every vocabulary id in it, far under this).
const MAX_FRAME_LEN: u32 = 1 << 20;

/// Errors from validation, parsing or WAL IO.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural problem in a WAL line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A symptom name absent from the vocabulary (and growth disallowed).
    UnknownSymptom(String),
    /// A herb name absent from the vocabulary (and growth disallowed).
    UnknownHerb(String),
    /// A record with an empty symptom or herb side.
    EmptySet(&'static str),
    /// An id outside the current vocabulary.
    OutOfRange {
        /// `"symptom"` or `"herb"`.
        kind: &'static str,
        /// The offending id.
        id: u32,
        /// The vocabulary size it violated.
        len: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest io error: {e}"),
            IngestError::Parse { line, message } => {
                write!(f, "WAL parse error at line {line}: {message}")
            }
            IngestError::UnknownSymptom(n) => write!(f, "unknown symptom {n:?}"),
            IngestError::UnknownHerb(n) => write!(f, "unknown herb {n:?}"),
            IngestError::EmptySet(side) => write!(f, "prescription has an empty {side} set"),
            IngestError::OutOfRange { kind, id, len } => {
                write!(f, "{kind} id {id} outside vocabulary of {len}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// What happened to one appended record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Validated, logged and queued for the next refresh.
    Accepted,
    /// An identical prescription (set equality) already exists; dropped.
    Duplicate,
}

/// Running counters of an [`Ingestor`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records accepted (queued or already refreshed).
    pub accepted: usize,
    /// Records dropped as duplicates.
    pub duplicates: usize,
    /// Symptoms appended to the vocabulary by ingestion.
    pub new_symptoms: usize,
    /// Herbs appended to the vocabulary by ingestion.
    pub new_herbs: usize,
}

/// How a damaged WAL tail was recovered during replay: everything
/// before `valid_bytes` verified and was kept; `dropped_bytes` of
/// unverifiable tail were truncated away.
#[derive(Clone, Debug)]
pub struct WalRecovery {
    /// Frames that replayed cleanly before the damage.
    pub valid_records: usize,
    /// File length the WAL was truncated back to.
    pub valid_bytes: u64,
    /// Bytes dropped from the damaged tail.
    pub dropped_bytes: u64,
    /// What the scanner hit: a torn frame, a checksum mismatch, an
    /// absurd length field.
    pub reason: String,
}

impl std::fmt::Display for WalRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} records ({} bytes), dropped {} damaged tail bytes: {}",
            self.valid_records, self.valid_bytes, self.dropped_bytes, self.reason
        )
    }
}

/// The framed WAL writer: tracks the last *durable, verified* file
/// length so a failed append can truncate the file back to it, keeping
/// the invariant that every byte before `good_len` replays cleanly.
struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    good_len: u64,
}

impl Wal {
    fn open_append(path: PathBuf, good_len: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            good_len,
        })
    }

    /// Appends one framed payload and flushes it durable. On any error
    /// the file is repaired — truncated back to the last good frame —
    /// before the error is returned, so an acknowledged record can
    /// never land *after* torn bytes and be lost by the next replay.
    fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let result = self.append_frame(&frame);
        if result.is_err() {
            // Best-effort repair; the append error is what the caller
            // needs to see either way.
            let _ = self.repair();
        } else {
            self.good_len += frame.len() as u64;
        }
        result
    }

    fn append_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        match smgcn_faults::at(sites::WAL_APPEND_WRITE) {
            Some(FaultAction::IoError) => {
                return Err(smgcn_faults::injected_io_error(sites::WAL_APPEND_WRITE));
            }
            Some(FaultAction::ShortWrite { keep }) => {
                // A torn write: part of the frame reaches the disk, then
                // the "crash". The flush makes the damage durable so
                // recovery has something real to truncate.
                let keep = (keep as usize).min(frame.len().saturating_sub(1));
                self.writer.write_all(&frame[..keep])?;
                self.writer.flush()?;
                return Err(std::io::Error::other(format!(
                    "injected short write: {keep} of {} frame bytes written",
                    frame.len()
                )));
            }
            Some(FaultAction::Delay { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(u64::from(ms)));
            }
            _ => {}
        }
        self.writer.write_all(frame)?;
        // Flush before acknowledging: an accepted record must survive a
        // crash.
        self.writer.flush()
    }

    /// Truncates the file back to the last verified length and reopens
    /// the append writer past any torn bytes.
    fn repair(&mut self) -> std::io::Result<()> {
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(self.good_len)?;
        drop(file);
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Empties the log down to its magic (post-refresh housekeeping).
    fn reset(&mut self) -> std::io::Result<()> {
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(0)?;
        drop(file);
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(WAL_MAGIC)?;
        file.flush()?;
        self.writer = BufWriter::new(file);
        self.good_len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

/// Streaming prescription intake over an evolving corpus.
pub struct Ingestor {
    corpus: Corpus,
    seen: HashSet<Prescription>,
    pending: Vec<Prescription>,
    wal: Option<Wal>,
    stats: IngestStats,
    recovery: Option<WalRecovery>,
}

impl Ingestor {
    /// An in-memory ingestor (no WAL) over `corpus`.
    pub fn new(corpus: Corpus) -> Self {
        let seen = corpus.prescriptions().iter().cloned().collect();
        Self {
            corpus,
            seen,
            pending: Vec::new(),
            wal: None,
            stats: IngestStats::default(),
            recovery: None,
        }
    }

    /// An ingestor with a WAL at `path`. An existing log is replayed
    /// first (its records become the pending batch), then the file is
    /// opened for appending. A damaged tail — torn final frame, checksum
    /// mismatch — is truncated away (see [`Ingestor::wal_recovery`]);
    /// a pre-v2 text log is replayed and rewritten in the framed format.
    pub fn with_wal(corpus: Corpus, path: impl AsRef<Path>) -> Result<Self, IngestError> {
        let path = path.as_ref().to_path_buf();
        let mut ingestor = Self::new(corpus);
        let data = if path.exists() {
            std::fs::read(&path)?
        } else {
            Vec::new()
        };
        let good_len = if data.is_empty() {
            // Fresh (or freshly truncated pre-v2) log: stamp the magic.
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)?;
            file.write_all(WAL_MAGIC)?;
            file.flush()?;
            WAL_MAGIC.len() as u64
        } else if data.len() < WAL_MAGIC.len() && WAL_MAGIC.starts_with(&data) {
            // A crash tore the initial magic stamp itself: nothing was
            // ever logged, so recover to an empty framed log.
            ingestor.recovery = Some(WalRecovery {
                valid_records: 0,
                valid_bytes: 0,
                dropped_bytes: data.len() as u64,
                reason: format!("torn file magic ({} of 8 bytes)", data.len()),
            });
            let mut file = OpenOptions::new().write(true).truncate(true).open(&path)?;
            file.write_all(WAL_MAGIC)?;
            file.flush()?;
            WAL_MAGIC.len() as u64
        } else if data.starts_with(WAL_MAGIC) {
            let valid_len = ingestor.replay_framed(&data)?;
            if (valid_len as usize) < data.len() {
                // Truncate the unverifiable tail so appends continue
                // after the last good frame, not after garbage.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?;
            }
            valid_len
        } else {
            // Legacy text WAL: replay line-by-line, then rewrite the
            // whole file framed so the next crash is recoverable.
            let text = String::from_utf8_lossy(&data).into_owned();
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim_end)
                .filter(|l| !l.is_empty())
                .collect();
            for (i, line) in lines.iter().enumerate() {
                ingestor.apply_wal_line(line, i + 1)?;
            }
            let mut framed = Vec::with_capacity(data.len() + 8 + lines.len() * 8);
            framed.extend_from_slice(WAL_MAGIC);
            for line in &lines {
                framed.extend_from_slice(&(line.len() as u32).to_le_bytes());
                framed.extend_from_slice(&crc32(line.as_bytes()).to_le_bytes());
                framed.extend_from_slice(line.as_bytes());
            }
            let tmp = path.with_extension("v2tmp");
            std::fs::write(&tmp, &framed)?;
            std::fs::rename(&tmp, &path)?;
            framed.len() as u64
        };
        ingestor.wal = Some(Wal::open_append(path, good_len)?);
        Ok(ingestor)
    }

    /// Scans framed WAL bytes, applying every frame that verifies.
    /// Returns the file length up to which everything replayed cleanly;
    /// on damage, records a [`WalRecovery`] and stops (frames past the
    /// first bad one cannot be trusted — the length field that would
    /// locate them is itself unverified).
    fn replay_framed(&mut self, data: &[u8]) -> Result<u64, IngestError> {
        let mut off = WAL_MAGIC.len();
        let mut records = 0usize;
        let mut damage: Option<String> = None;
        while off < data.len() {
            let remaining = data.len() - off;
            if remaining < 8 {
                damage = Some(format!("torn frame header ({remaining} bytes) at {off}"));
                break;
            }
            let len = u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
            if len > MAX_FRAME_LEN {
                damage = Some(format!("absurd frame length {len} at {off}"));
                break;
            }
            let stored =
                u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
            if remaining - 8 < len as usize {
                damage = Some(format!(
                    "torn frame payload ({} of {len} bytes) at {off}",
                    remaining - 8
                ));
                break;
            }
            let mut payload = &data[off + 8..off + 8 + len as usize];
            // Fault plane: simulated read-side corruption of this frame
            // (a private copy; the file is untouched).
            let corrupted: Vec<u8>;
            if smgcn_faults::enabled() {
                let mut copy = payload.to_vec();
                if smgcn_faults::corrupt_buf(sites::WAL_REPLAY_READ, &mut copy) {
                    corrupted = copy;
                    payload = &corrupted;
                }
            }
            if crc32(payload) != stored {
                damage = Some(format!("frame checksum mismatch at {off}"));
                break;
            }
            let line = std::str::from_utf8(payload).map_err(|e| IngestError::Parse {
                line: records + 1,
                message: format!("checksummed frame is not utf-8: {e}"),
            })?;
            self.apply_wal_line(line, records + 1)?;
            records += 1;
            off += 8 + len as usize;
        }
        if let Some(reason) = damage {
            self.recovery = Some(WalRecovery {
                valid_records: records,
                valid_bytes: off as u64,
                dropped_bytes: (data.len() - off) as u64,
                reason,
            });
        }
        Ok(off as u64)
    }

    /// Applies one replayed WAL payload line: vocabulary growth or a
    /// prescription. Replay bypasses the WAL writer (the records are
    /// already logged) but revalidates and re-deduplicates.
    fn apply_wal_line(&mut self, trimmed: &str, line_no: usize) -> Result<(), IngestError> {
        let parse_err = |message: String| IngestError::Parse {
            line: line_no,
            message,
        };
        if let Some(rest) = trimmed.strip_prefix("+symptom\t") {
            self.corpus.symptom_vocab_mut().get_or_add(rest);
            return Ok(());
        }
        if let Some(rest) = trimmed.strip_prefix("+herb\t") {
            self.corpus.herb_vocab_mut().get_or_add(rest);
            return Ok(());
        }
        let (sym_text, herb_text) = trimmed
            .split_once('\t')
            .ok_or_else(|| parse_err("missing tab between symptom and herb ids".into()))?;
        let parse_ids = |text: &str| -> Result<Vec<u32>, IngestError> {
            text.split_whitespace()
                .map(|tok| {
                    tok.parse::<u32>()
                        .map_err(|e| parse_err(format!("bad id {tok:?}: {e}")))
                })
                .collect()
        };
        let symptoms = parse_ids(sym_text)?;
        let herbs = parse_ids(herb_text)?;
        self.accept(symptoms, herbs, false)?;
        Ok(())
    }

    /// Appends a prescription by raw ids.
    pub fn append_ids(
        &mut self,
        symptoms: Vec<u32>,
        herbs: Vec<u32>,
    ) -> Result<IngestOutcome, IngestError> {
        self.accept(symptoms, herbs, true)
    }

    /// Appends a prescription by entity names. With `allow_new`, names
    /// absent from the vocabularies are appended with fresh stable ids
    /// (ids never renumber); without it they are errors.
    pub fn append_named(
        &mut self,
        symptoms: &[impl AsRef<str>],
        herbs: &[impl AsRef<str>],
        allow_new: bool,
    ) -> Result<IngestOutcome, IngestError> {
        // Resolve (and validate) everything before mutating any vocab so
        // a rejected record leaves no trace.
        if !allow_new {
            for s in symptoms {
                if self.corpus.symptom_vocab().id(s.as_ref()).is_none() {
                    return Err(IngestError::UnknownSymptom(s.as_ref().to_string()));
                }
            }
            for h in herbs {
                if self.corpus.herb_vocab().id(h.as_ref()).is_none() {
                    return Err(IngestError::UnknownHerb(h.as_ref().to_string()));
                }
            }
        }
        if symptoms.is_empty() {
            return Err(IngestError::EmptySet("symptom"));
        }
        if herbs.is_empty() {
            return Err(IngestError::EmptySet("herb"));
        }
        let mut new_symptoms = Vec::new();
        let symptom_ids: Vec<u32> = symptoms
            .iter()
            .map(|s| {
                let name = s.as_ref();
                match self.corpus.symptom_vocab().id(name) {
                    Some(id) => id,
                    None => {
                        let id = self.corpus.symptom_vocab_mut().get_or_add(name);
                        new_symptoms.push(name.to_string());
                        id
                    }
                }
            })
            .collect();
        let mut new_herbs = Vec::new();
        let herb_ids: Vec<u32> = herbs
            .iter()
            .map(|h| {
                let name = h.as_ref();
                match self.corpus.herb_vocab().id(name) {
                    Some(id) => id,
                    None => {
                        let id = self.corpus.herb_vocab_mut().get_or_add(name);
                        new_herbs.push(name.to_string());
                        id
                    }
                }
            })
            .collect();
        self.stats.new_symptoms += new_symptoms.len();
        self.stats.new_herbs += new_herbs.len();
        if let Some(wal) = &mut self.wal {
            for name in &new_symptoms {
                wal.append(format!("+symptom\t{name}").as_bytes())?;
            }
            for name in &new_herbs {
                wal.append(format!("+herb\t{name}").as_bytes())?;
            }
        }
        self.accept(symptom_ids, herb_ids, true)
    }

    /// Shared validation + dedup + WAL append + queue.
    fn accept(
        &mut self,
        symptoms: Vec<u32>,
        herbs: Vec<u32>,
        log: bool,
    ) -> Result<IngestOutcome, IngestError> {
        if symptoms.is_empty() {
            return Err(IngestError::EmptySet("symptom"));
        }
        if herbs.is_empty() {
            return Err(IngestError::EmptySet("herb"));
        }
        let n_s = self.corpus.n_symptoms();
        if let Some(&bad) = symptoms.iter().find(|&&s| s as usize >= n_s) {
            return Err(IngestError::OutOfRange {
                kind: "symptom",
                id: bad,
                len: n_s,
            });
        }
        let n_h = self.corpus.n_herbs();
        if let Some(&bad) = herbs.iter().find(|&&h| h as usize >= n_h) {
            return Err(IngestError::OutOfRange {
                kind: "herb",
                id: bad,
                len: n_h,
            });
        }
        let p = Prescription::new(symptoms, herbs);
        if self.seen.contains(&p) {
            self.stats.duplicates += 1;
            return Ok(IngestOutcome::Duplicate);
        }
        if log {
            if let Some(wal) = &mut self.wal {
                let symptoms: Vec<String> = p.symptoms().iter().map(u32::to_string).collect();
                let herbs: Vec<String> = p.herbs().iter().map(u32::to_string).collect();
                let line = format!("{}\t{}", symptoms.join(" "), herbs.join(" "));
                // The frame is flushed durable (and any failure repaired
                // back to the last good frame) before the record is
                // acknowledged below.
                wal.append(line.as_bytes())?;
            }
        }
        // The dedup set admits the record only after the WAL write
        // succeeded: inserted earlier, a transient WAL failure (disk
        // full) would leave the record in `seen` but nowhere durable, and
        // the client's retry would be swallowed as Duplicate — silently
        // losing the prescription.
        self.seen.insert(p.clone());
        self.corpus.push(p.clone());
        self.pending.push(p);
        self.stats.accepted += 1;
        Ok(IngestOutcome::Accepted)
    }

    /// The evolving corpus (base + every accepted record).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Records accepted since the last [`Ingestor::take_batch`].
    pub fn pending(&self) -> &[Prescription] {
        &self.pending
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Drains the pending batch for the graph-delta stage.
    pub fn take_batch(&mut self) -> Vec<Prescription> {
        std::mem::take(&mut self.pending)
    }

    /// Puts a drained batch back at the head of the queue (refresh error
    /// recovery — the records stay acknowledged and will ride the next
    /// refresh). `batch` must be a previous [`Ingestor::take_batch`]
    /// result so ordering is preserved.
    pub fn requeue(&mut self, mut batch: Vec<Prescription>) {
        batch.append(&mut self.pending);
        self.pending = batch;
    }

    /// Truncates the WAL after its contents have been folded into a
    /// persisted corpus + model (post-refresh housekeeping). The file
    /// keeps its magic so the next open replays an empty framed log.
    pub fn truncate_wal(&mut self) -> Result<(), IngestError> {
        if let Some(wal) = &mut self.wal {
            wal.reset()?;
        }
        Ok(())
    }

    /// The recovery report from the last [`Ingestor::with_wal`] replay,
    /// if the log had a damaged tail that was truncated away. `None`
    /// means the log replayed byte-for-byte clean.
    pub fn wal_recovery(&self) -> Option<&WalRecovery> {
        self.recovery.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_data::Vocabulary;

    fn base_corpus() -> Corpus {
        Corpus::new(
            Vocabulary::from_names(["s0", "s1", "s2"]),
            Vocabulary::from_names(["h0", "h1"]),
            vec![Prescription::new(vec![0, 1], vec![0])],
        )
    }

    #[test]
    fn accepts_validates_and_dedupes_ids() {
        let mut ing = Ingestor::new(base_corpus());
        assert_eq!(
            ing.append_ids(vec![2], vec![1]).unwrap(),
            IngestOutcome::Accepted
        );
        // Same set in a different order and with repeats: duplicate.
        assert_eq!(
            ing.append_ids(vec![2, 2], vec![1]).unwrap(),
            IngestOutcome::Duplicate
        );
        // Already in the *base* corpus: duplicate too.
        assert_eq!(
            ing.append_ids(vec![1, 0], vec![0]).unwrap(),
            IngestOutcome::Duplicate
        );
        assert!(matches!(
            ing.append_ids(vec![9], vec![0]),
            Err(IngestError::OutOfRange {
                kind: "symptom",
                ..
            })
        ));
        assert!(matches!(
            ing.append_ids(vec![0], vec![]),
            Err(IngestError::EmptySet("herb"))
        ));
        assert_eq!(ing.pending().len(), 1);
        assert_eq!(ing.corpus().len(), 2);
        let stats = ing.stats();
        assert_eq!((stats.accepted, stats.duplicates), (1, 2));
    }

    #[test]
    fn named_appends_grow_vocab_with_stable_ids() {
        let mut ing = Ingestor::new(base_corpus());
        let out = ing
            .append_named(&["s1", "s-new"], &["h0", "h-new"], true)
            .unwrap();
        assert_eq!(out, IngestOutcome::Accepted);
        assert_eq!(ing.corpus().symptom_vocab().id("s-new"), Some(3));
        assert_eq!(ing.corpus().herb_vocab().id("h-new"), Some(2));
        assert_eq!(ing.corpus().symptom_vocab().id("s0"), Some(0), "stable");
        assert_eq!(ing.stats().new_symptoms, 1);
        assert_eq!(ing.stats().new_herbs, 1);
        // Without growth permission, unknown names are errors.
        assert!(matches!(
            ing.append_named(&["never"], &["h0"], false),
            Err(IngestError::UnknownSymptom(_))
        ));
    }

    #[test]
    fn wal_replays_after_reopen() {
        let dir = std::env::temp_dir().join("smgcn_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();

        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        ing.append_named(&["s0"], &["h-late"], true).unwrap();
        drop(ing); // crash before any refresh

        let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(reopened.pending().len(), 2, "log replays into the batch");
        assert_eq!(reopened.corpus().herb_vocab().id("h-late"), Some(2));
        assert_eq!(reopened.corpus().len(), 3);

        // After a refresh the WAL is truncated; reopening finds nothing.
        let mut reopened = reopened;
        let batch = reopened.take_batch();
        assert_eq!(batch.len(), 2);
        reopened.truncate_wal().unwrap();
        drop(reopened);
        let clean = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert!(clean.pending().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_corrupt_lines() {
        let mut ing = Ingestor::new(base_corpus());
        let err = ing.apply_wal_line("0 1 no-tab-here", 1).unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 1, .. }), "{err}");
    }

    fn wal_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("smgcn_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal_{tag}_{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn wal_v2_is_framed_with_magic_and_crc() {
        let path = wal_path("framed");
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        drop(ing);
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(WAL_MAGIC), "framed WAL starts with magic");
        let len = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let payload = &data[16..16 + len];
        assert_eq!(payload, b"2\t1");
        assert_eq!(stored, crc32(payload), "frame checksum matches payload");
        assert_eq!(data.len(), 16 + len, "exactly one frame");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_continues() {
        let path = wal_path("torn");
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        ing.append_ids(vec![0, 2], vec![1]).unwrap();
        drop(ing);
        // Crash mid-append: half a frame header lands after the two
        // good records.
        let good = std::fs::read(&path).unwrap();
        let mut torn = good.clone();
        torn.extend_from_slice(&[0x07, 0x00, 0x00]);
        std::fs::write(&path, &torn).unwrap();

        let mut reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(reopened.pending().len(), 2, "good prefix fully replayed");
        let recovery = reopened.wal_recovery().expect("damage must be reported");
        assert_eq!(recovery.valid_records, 2);
        assert_eq!(recovery.valid_bytes, good.len() as u64);
        assert_eq!(recovery.dropped_bytes, 3);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good.len() as u64,
            "tail truncated on disk"
        );
        // Appends continue cleanly after the cut and replay in full.
        reopened.append_ids(vec![1, 2], vec![0, 1]).unwrap();
        drop(reopened);
        let clean = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(clean.pending().len(), 3);
        assert!(clean.wal_recovery().is_none(), "repaired log replays clean");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_truncates_from_damage_onward() {
        let path = wal_path("corrupt");
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        let first_frame_end = std::fs::metadata(&path).unwrap().len();
        ing.append_ids(vec![0, 2], vec![1]).unwrap();
        drop(ing);
        // Flip one payload byte of the second record.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        std::fs::write(&path, &data).unwrap();

        let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(reopened.pending().len(), 1, "only the intact record");
        let recovery = reopened.wal_recovery().expect("corruption reported");
        assert_eq!(recovery.valid_records, 1);
        assert_eq!(recovery.valid_bytes, first_frame_end);
        assert!(recovery.reason.contains("checksum"), "{}", recovery.reason);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_text_wal_migrates_to_framed_format() {
        let path = wal_path("legacy");
        std::fs::write(&path, "+herb\th-late\n2\t2\n0 2\t1\n").unwrap();
        let ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(ing.pending().len(), 2);
        assert_eq!(ing.corpus().herb_vocab().id("h-late"), Some(2));
        drop(ing);
        let data = std::fs::read(&path).unwrap();
        assert!(
            data.starts_with(WAL_MAGIC),
            "legacy log rewritten with framing"
        );
        // And the migrated file replays identically.
        let again = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(again.pending().len(), 2);
        assert!(again.wal_recovery().is_none());
        std::fs::remove_file(&path).ok();
    }
}
