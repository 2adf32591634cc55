//! WAL crash-damage property tests: for *every* possible truncation
//! point and every single-byte corruption of a framed log, replay must
//! (a) never panic, (b) recover exactly the maximal prefix of frames
//! that verify, and (c) leave a log that accepts appends and replays
//! clean afterwards. The exhaustive sweeps cover the full byte space of
//! a representative log; the proptest varies the log contents too.

use proptest::prelude::*;
use smgcn_data::{Corpus, Prescription, Vocabulary};
use smgcn_online::Ingestor;

fn base_corpus() -> Corpus {
    Corpus::new(
        Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
        Vocabulary::from_names(["h0", "h1", "h2"]),
        vec![Prescription::new(vec![0, 1], vec![0])],
    )
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smgcn_wal_props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("wal_{tag}_{}.log", std::process::id()))
}

/// Builds a log with vocabulary growth + several prescriptions and
/// returns its bytes plus the frame boundaries (file offsets at which a
/// frame ends, magic included as boundary 0's end).
fn build_log(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<usize>) {
    let path = tmp_path(tag);
    std::fs::remove_file(&path).ok();
    let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
    ing.append_ids(vec![2], vec![1]).unwrap();
    ing.append_named(&["s1", "s-grown"], &["h-grown"], true)
        .unwrap();
    ing.append_ids(vec![0, 3], vec![0, 2]).unwrap();
    ing.append_ids(vec![1, 2, 3], vec![1]).unwrap();
    drop(ing);
    let data = std::fs::read(&path).unwrap();
    let mut boundaries = vec![8usize];
    let mut off = 8usize;
    while off < data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        boundaries.push(off);
    }
    assert_eq!(off, data.len(), "log must be a whole number of frames");
    (path, data, boundaries)
}

/// Replays `pending` prescriptions expected from a prefix that keeps
/// `n_frames` whole frames of this particular log. Frame order:
/// [0] "2\t1", [1] "+symptom\ts-grown", [2] "+herb\th-grown",
/// [3] "1 4\t3", [4] "0 3\t0 2", [5] "1 2 3\t1".
fn expected_pending(n_frames: usize) -> usize {
    [0, 1, 1, 1, 2, 3, 4][n_frames.min(6)]
}

#[test]
fn every_truncation_point_recovers_the_maximal_valid_prefix() {
    let (path, data, boundaries) = build_log("trunc");
    for cut in 0..=data.len() {
        std::fs::write(&path, &data[..cut]).unwrap();
        let mut reopened = Ingestor::with_wal(base_corpus(), &path)
            .unwrap_or_else(|e| panic!("cut at {cut}: replay must not fail: {e}"));
        let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count();
        // boundaries[0] is the magic; whole_frames counts it when cut>=8.
        let frames = whole_frames.saturating_sub(1);
        assert_eq!(
            reopened.pending().len(),
            expected_pending(frames),
            "cut at {cut}"
        );
        // cut == 0 is an empty (fresh) log, not damage.
        let clean_cut = cut == 0 || boundaries.contains(&cut) || cut == data.len();
        assert_eq!(
            reopened.wal_recovery().is_none(),
            clean_cut,
            "cut at {cut}: damage is reported iff the cut is mid-frame"
        );
        // The repaired log accepts appends and replays clean.
        reopened.append_ids(vec![3], vec![2]).unwrap();
        drop(reopened);
        let clean = Ingestor::with_wal(base_corpus(), &path).unwrap();
        assert!(clean.wal_recovery().is_none(), "cut at {cut}");
        assert_eq!(
            clean.pending().len(),
            expected_pending(frames) + 1,
            "cut at {cut}: re-appended record survives the next replay"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_byte_corruption_is_detected_or_harmless() {
    let (path, data, boundaries) = build_log("flip");
    let full = expected_pending(6);
    for offset in 0..data.len() {
        let mut bad = data.clone();
        bad[offset] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        match Ingestor::with_wal(base_corpus(), &path) {
            Ok(reopened) => {
                if offset < 8 {
                    // Corrupt magic: the file is refused as not a WAL
                    // (the Err arm below), so this arm never runs; all
                    // it would promise is no invented records.
                    assert!(reopened.pending().len() <= full, "magic flip at {offset}");
                    continue;
                }
                // The damaged frame and everything after it are dropped;
                // everything before replays.
                let damaged_frame = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
                assert_eq!(
                    reopened.pending().len(),
                    expected_pending(damaged_frame),
                    "flip at {offset}"
                );
                let recovery = reopened
                    .wal_recovery()
                    .unwrap_or_else(|| panic!("flip at {offset}: damage must be reported"));
                assert_eq!(
                    recovery.valid_bytes, boundaries[damaged_frame] as u64,
                    "flip at {offset}: truncated to the last good frame"
                );
            }
            Err(e) => {
                // Only a corrupt magic may make the file unopenable: it
                // is refused as not a WAL. Framed damage always recovers.
                assert!(offset < 8, "flip at {offset} must recover, got: {e}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random logs, random damage: the recovered pending count equals
    /// the number of whole prescription frames before the damage, and a
    /// follow-up append always lands.
    #[test]
    fn random_logs_recover_under_random_damage(
        records in proptest::collection::vec(
            (proptest::collection::vec(0u32..4, 1..4),
             proptest::collection::vec(0u32..3, 1..3)),
            1..8,
        ),
        cut_frac in 0.0f64..1.0,
        flip in 0usize..4096,
    ) {
        let path = tmp_path("rand");
        std::fs::remove_file(&path).ok();
        let mut ing = Ingestor::with_wal(base_corpus(), &path).unwrap();
        let mut accepted = 0usize;
        for (s, h) in &records {
            let mut s = s.clone();
            let mut h = h.clone();
            s.sort_unstable();
            s.dedup();
            h.sort_unstable();
            h.dedup();
            if ing.append_ids(s, h).unwrap() == smgcn_online::IngestOutcome::Accepted {
                accepted += 1;
            }
        }
        drop(ing);
        let data = std::fs::read(&path).unwrap();
        // Damage: truncate at a random point past the magic, then flip
        // one surviving byte (also past the magic).
        let cut = 8 + ((data.len() - 8) as f64 * cut_frac) as usize;
        let mut bad = data[..cut].to_vec();
        if cut > 8 {
            let at = 8 + flip % (cut - 8);
            bad[at] ^= 0x11;
        }
        std::fs::write(&path, &bad).unwrap();
        let mut reopened = Ingestor::with_wal(base_corpus(), &path).unwrap();
        prop_assert!(reopened.pending().len() <= accepted);
        reopened.append_ids(vec![3], vec![2]).unwrap();
        let n = reopened.pending().len();
        drop(reopened);
        let clean = Ingestor::with_wal(base_corpus(), &path).unwrap();
        prop_assert!(clean.wal_recovery().is_none());
        prop_assert_eq!(clean.pending().len(), n);
        std::fs::remove_file(&path).ok();
    }
}
