//! Percentiles, medians, the noise report's spread, and what `/proc`
//! says about this process and this machine.

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Less a hair, so that a product a rounding error above a whole
    // number does not skip a rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that leaves at least ten of `samples` beyond
/// it under [`percentile`]'s nearest rank, and the median when there are
/// not twenty samples to halve. It rises with every sample, with no
/// steps for a run-to-run difference of a few calls to fall off.
pub fn highest_supported(samples: usize) -> f64 {
    if samples < 20 {
        0.50
    } else {
        1.0 - 10.0 / samples as f64
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median; the mean of the middle two for an even count, NaN for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `(max - min) / median`: how far the slices of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    (s[s.len() - 1] - s[0]) / median(values)
}

/// `VmHWM`, the most memory this process ever had resident, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb = line.split_whitespace().nth(1).expect("VmHWM value");
    kb.parse::<f64>().expect("VmHWM number") / 1024.0
}

/// The 1-minute load average, for the noise report.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Cores this process may use, as counted on the first call. `main`
/// calls it before any thread is pinned: the count follows the calling
/// thread's own placement.
pub fn nproc() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_reports_the_median_and_the_highest_supported_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.90), 90.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // p90 of 100 leaves exactly ten beyond; p95 would leave five.
        assert_eq!(highest_supported(100), 0.90);
        assert_eq!(highest_supported(200), 0.95);
        assert_eq!(highest_supported(1_000), 0.99);
        assert_eq!(highest_supported(6), 0.50);
        assert_eq!(highest_supported(19), 0.50);
        for n in [20usize, 37, 105, 199, 4_000] {
            let ascending: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let picked = percentile(&ascending, highest_supported(n));
            assert_eq!(picked, (n - 10) as f64, "ten of {n} beyond");
        }
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.1);
        assert!(nproc() >= 1);
    }
}
