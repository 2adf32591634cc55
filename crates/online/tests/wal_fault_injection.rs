//! Deterministic fault-injection tests for the ingest WAL, driven
//! through the `wal.append.write` / `wal.replay.read` sites.
//!
//! These live in their own integration-test binary (their own process):
//! an installed fault plan is process-global, so unit tests elsewhere
//! never see a live plan. Within this binary the tests run on parallel
//! threads and share that one plan: `with_plan`'s guard serializes only
//! the code inside it, so every WAL write or read here — even one meant
//! to be clean — runs under `with_plan` (an empty plan where no fault is
//! wanted), or another test's plan fires on it.
//!
//! The invariant under test is the acceptance condition of the fault
//! plane: **no accepted-then-lost ingests**. An append that takes an
//! injected disk error or torn write returns an error (never an ack),
//! repairs the file, and every record that *was* acknowledged is still
//! replayed by the next open.

use smgcn_data::{Corpus, Prescription, Vocabulary};
use smgcn_faults::{sites, FaultAction, FaultPlan};
use smgcn_online::{IngestError, IngestOutcome, Ingestor};

fn base_corpus() -> Corpus {
    Corpus::new(
        Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
        Vocabulary::from_names(["h0", "h1", "h2"]),
        vec![Prescription::new(vec![0, 1], vec![0])],
    )
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smgcn_wal_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("wal_{tag}_{}.log", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn injected_disk_error_rejects_the_append_without_losing_acked_records() {
    let path = tmp_path("ioerr");
    let mut plan = FaultPlan::new(11);
    // Hit 1 (the second append) takes a disk error; everything else is
    // clean.
    plan.push(sites::WAL_APPEND_WRITE, 1, FaultAction::IoError);
    smgcn_faults::with_plan(&plan, || {
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(
            ing.append_ids(vec![2], vec![1]).unwrap(),
            IngestOutcome::Accepted
        );
        let err = ing.append_ids(vec![0, 3], vec![2]).unwrap_err();
        assert!(matches!(err, IngestError::Io(_)), "{err}");
        assert_eq!(ing.pending().len(), 1, "failed append is not acked");
        // The client retries the rejected record; it must not be
        // swallowed as a duplicate of a phantom ack.
        assert_eq!(
            ing.append_ids(vec![0, 3], vec![2]).unwrap(),
            IngestOutcome::Accepted
        );
        drop(ing);
        let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(reopened.pending().len(), 2, "both acked records replay");
        assert!(reopened.wal_recovery().is_none(), "no torn bytes on disk");
        assert_eq!(smgcn_faults::injected_total(), 1, "exactly one fault fired");
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_short_write_repairs_the_torn_frame_before_the_next_ack() {
    let path = tmp_path("short");
    let mut plan = FaultPlan::new(12);
    plan.push(
        sites::WAL_APPEND_WRITE,
        1,
        FaultAction::ShortWrite { keep: 5 },
    );
    smgcn_faults::with_plan(&plan, || {
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        let err = ing.append_ids(vec![0, 3], vec![2]).unwrap_err();
        assert!(matches!(err, IngestError::Io(_)), "{err}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "torn frame truncated away before returning the error"
        );
        // Later accepted records land after the repair point, so the
        // next replay sees every ack and no damage.
        ing.append_ids(vec![1, 3], vec![0, 2]).unwrap();
        drop(ing);
        let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(reopened.pending().len(), 2);
        assert!(reopened.wal_recovery().is_none());
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_replay_corruption_is_detected_and_reported() {
    let path = tmp_path("replaycorrupt");
    // Write a clean two-record log under an empty plan: it schedules no
    // fault, but holding `with_plan`'s guard keeps another test's plan
    // from firing on these appends.
    smgcn_faults::with_plan(&FaultPlan::new(0), || {
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        ing.append_ids(vec![2], vec![1]).unwrap();
        ing.append_ids(vec![0, 3], vec![0, 2]).unwrap();
    });
    let mut plan = FaultPlan::new(13);
    // The second frame read comes back corrupted, as if the sector
    // rotted under the file.
    plan.push(
        sites::WAL_REPLAY_READ,
        1,
        FaultAction::Corrupt {
            offset: 2,
            xor: 0x41,
        },
    );
    smgcn_faults::with_plan(&plan, || {
        let reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert_eq!(
            reopened.pending().len(),
            1,
            "reads past the rot are not trusted"
        );
        let recovery = reopened
            .wal_recovery()
            .expect("corruption must be reported");
        assert_eq!(recovery.valid_records, 1);
        assert!(recovery.reason.contains("checksum"), "{}", recovery.reason);
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn same_seed_reproduces_the_same_injected_sequence() {
    // The storm plan is pure plan-time state: identical seeds must give
    // byte-identical canonical output, and a different seed must not.
    let a = FaultPlan::storm(42);
    let b = FaultPlan::storm(42);
    let c = FaultPlan::storm(43);
    assert_eq!(a.canonical_string(), b.canonical_string());
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.canonical_string(), c.canonical_string());

    // And the runtime fires exactly the planned subset, in hit order.
    let mut plan = FaultPlan::new(7);
    plan.push(sites::WAL_APPEND_WRITE, 0, FaultAction::IoError);
    plan.push(sites::WAL_APPEND_WRITE, 2, FaultAction::IoError);
    let record = |tag: &str| {
        let path = tmp_path(tag);
        let mut fired = Vec::new();
        smgcn_faults::with_plan(&plan, || {
            let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
            for i in 0..4u32 {
                let ok = ing.append_ids(vec![i % 4], vec![(i % 3).max(1)]).is_ok();
                fired.push(!ok);
            }
        });
        std::fs::remove_file(&path).ok();
        fired
    };
    let first = record("seq1");
    let second = record("seq2");
    assert_eq!(first, second, "same plan, same appends, same faults");
    assert_eq!(first, vec![true, false, true, false]);
}
