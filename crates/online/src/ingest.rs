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
//! The file is a `smgcn_obs::integrity::FramedLog` behind the magic
//! `"SMGNWAL2"`, one `[u32 len][u32 crc32][payload]` frame per logged
//! line (all integers little-endian), the framing the metrics tsdb
//! shares. The per-record CRC32 makes crash damage *detectable*: a torn
//! final frame (short write during a crash) or a bit-flipped record
//! fails its checksum, and replay recovers by truncating the file back
//! to the last frame that verified — every record before the damage
//! survives, the tail is dropped with a [`WalRecovery`] report, and
//! appending continues cleanly after the cut. A file that does not
//! start with the magic is refused and left untouched.
//!
//! Every accepted append is written to the WAL *before* it is
//! acknowledged; reopening an ingestor over the same base corpus and
//! WAL replays the log, so a crash between refreshes loses nothing. A
//! failed append (disk error, torn write) is repaired immediately — the
//! file is truncated back to its last whole frame so a later accepted
//! record can never sit *behind* damage and be silently lost by the
//! next replay. A successful refresh folds the batch into the model and
//! the caller then [`Ingestor::truncate_wal`]s it.
//!
//! The fault-injection sites `wal.append.write` and `wal.replay.read`
//! (see `smgcn-faults`) let tests and the fault-storm scenario force
//! disk errors, short writes and corruption through these exact paths.

use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use smgcn_data::{Corpus, Prescription};
use smgcn_faults::{sites, FaultAction};
use smgcn_obs::integrity::FramedLog;
pub use smgcn_obs::integrity::WalRecovery;

/// File magic opening every WAL.
const WAL_MAGIC: &[u8; 8] = b"SMGNWAL2";

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

/// The WAL's write of one whole frame, through the `wal.append.write`
/// fault site.
fn write_frame(file: &mut File, frame: &[u8]) -> std::io::Result<()> {
    match smgcn_faults::at(sites::WAL_APPEND_WRITE) {
        Some(FaultAction::IoError) => {
            return Err(smgcn_faults::injected_io_error(sites::WAL_APPEND_WRITE));
        }
        Some(FaultAction::ShortWrite { keep }) => {
            // A torn write: part of the frame reaches the disk, then
            // the "crash", so the repair has something real to truncate.
            let keep = (keep as usize).min(frame.len().saturating_sub(1));
            file.write_all(&frame[..keep])?;
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
    file.write_all(frame)
}

/// The WAL's read of one frame during replay: the `wal.replay.read`
/// fault site may hand back a corrupted copy (the file is untouched),
/// which the frame's checksum then catches.
fn read_frame(payload: &[u8]) -> Option<Vec<u8>> {
    if !smgcn_faults::enabled() {
        return None;
    }
    let mut copy = payload.to_vec();
    smgcn_faults::corrupt_buf(sites::WAL_REPLAY_READ, &mut copy).then_some(copy)
}

/// Streaming prescription intake over an evolving corpus.
pub struct Ingestor {
    corpus: Corpus,
    seen: HashSet<Prescription>,
    pending: Vec<Prescription>,
    wal: Option<FramedLog>,
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
    /// mismatch — is truncated away (see [`Ingestor::wal_recovery`]); a
    /// file that is not a WAL, or a verified record that does not
    /// parse, is an error and leaves the file as it was.
    pub fn with_wal(corpus: Corpus, path: impl AsRef<Path>) -> Result<Self, IngestError> {
        let mut ingestor = Self::new(corpus);
        let mut line = 0;
        let replay = |payload: &[u8]| {
            line += 1;
            let text = std::str::from_utf8(payload).map_err(|e| IngestError::Parse {
                line,
                message: format!("checksummed frame is not utf-8: {e}"),
            })?;
            ingestor.apply_wal_line(text, line).map(|()| true)
        };
        let (wal, recovery) = FramedLog::open(path.as_ref(), WAL_MAGIC, read_frame, replay)?;
        ingestor.wal = Some(wal);
        ingestor.recovery = recovery;
        Ok(ingestor)
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
                wal.append(format!("+symptom\t{name}").as_bytes(), write_frame)?;
            }
            for name in &new_herbs {
                wal.append(format!("+herb\t{name}").as_bytes(), write_frame)?;
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
                // The frame is written whole (and any failure repaired
                // back to the last good frame) before the record is
                // acknowledged below.
                wal.append(line.as_bytes(), write_frame)?;
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
    use smgcn_obs::integrity::crc32;
    use std::path::PathBuf;

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
    fn a_text_file_at_the_wal_path_is_refused_untouched() {
        let path = wal_path("text");
        let text = "+herb\th-late\n2\t2\n0 2\t1\n";
        std::fs::write(&path, text).unwrap();
        let err = Ingestor::with_wal(base_corpus(), &path)
            .err()
            .expect("a file without the magic is not a WAL");
        assert!(matches!(err, IngestError::Io(_)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), text.as_bytes());
        std::fs::remove_file(&path).ok();
    }
}
