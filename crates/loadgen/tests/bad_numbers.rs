//! A typo in a numeric flag of `obs_overhead` is a misuse, not a crash:
//! exit 2 with an error naming the flag, before any work starts.

use std::process::Command;

#[test]
fn obs_overhead_rejects_each_numeric_flag_that_is_not_a_number() {
    for flag in [
        "--queries",
        "--conns",
        "--trials",
        "--sample-every",
        "--scrape-ms",
        "--max-regress",
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_obs_overhead"))
            .args([flag, "x"])
            .output()
            .expect("start obs_overhead");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flag} x: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} needs a number")),
            "{flag} x: {stderr}"
        );
    }
}
