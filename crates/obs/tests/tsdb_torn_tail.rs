//! Tsdb crash-damage sweep, the metrics-history twin of the ingest
//! WAL's `wal_torn_tail.rs`: a small file cut at *every* byte offset,
//! offsets inside the 5-byte header included, must reopen through
//! `Tsdb::open` keeping exactly the whole records before the cut, and a
//! record appended after that reopen must survive the next open.

use smgcn_obs::tsdb::{Tsdb, TsdbData};

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smgcn_tsdb_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.tsdb"));
    std::fs::remove_file(&path).ok();
    path
}

/// Scrape `i`: a counter every time, and a gauge that first appears in
/// scrape 2, so one record grows the series dictionary mid-file.
fn scrape(i: u64) -> (u64, Vec<(String, f64)>) {
    let mut samples = vec![("ticks_total".to_string(), i as f64)];
    if i >= 2 {
        samples.push(("queue_depth".to_string(), 0.5 * i as f64));
    }
    (1_000 + 250 * i, samples)
}

fn ticks(data: &TsdbData) -> Vec<(u64, f64)> {
    data.points("ticks_total").unwrap_or_default().to_vec()
}

#[test]
fn every_truncation_point_reopens_to_the_whole_records_before_it() {
    let path = tmp_path("sweep");
    // File length after the header and after each record.
    let mut boundaries = Vec::new();
    {
        let mut tsdb = Tsdb::create(&path).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        for i in 0..4 {
            let (at, samples) = scrape(i);
            tsdb.append(at, &samples).unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
    }
    assert_eq!(boundaries[0], 5, "the header is magic + version");
    let data = std::fs::read(&path).unwrap();
    let all: Vec<(u64, f64)> = (0..4).map(|i| (scrape(i).0, i as f64)).collect();
    for cut in 0..=data.len() {
        std::fs::write(&path, &data[..cut]).unwrap();
        let (mut tsdb, history) =
            Tsdb::open(&path).unwrap_or_else(|e| panic!("cut at {cut}: reopen failed: {e}"));
        let kept = boundaries[1..].iter().filter(|&&b| b <= cut).count();
        assert_eq!(ticks(&history), all[..kept], "cut at {cut}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            boundaries[kept],
            "cut at {cut}: the file is cut back to its last whole record"
        );
        tsdb.append(9_000, &[("ticks_total".to_string(), 99.0)])
            .unwrap();
        drop(tsdb);
        let (_, again) = Tsdb::open(&path).unwrap();
        let mut expected = all[..kept].to_vec();
        expected.push((9_000, 99.0));
        assert_eq!(
            ticks(&again),
            expected,
            "cut at {cut}: the record appended after the reopen survives"
        );
    }
    std::fs::remove_file(&path).ok();
}
