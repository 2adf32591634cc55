//! A typo in a numeric flag of a perf bin is a misuse, not a crash: exit
//! 2 with an error naming the flag, before any work starts.

use std::process::Command;

fn assert_misuse(bin: &str, flag: &str) {
    let run = Command::new(bin)
        .args([flag, "x"])
        .output()
        .expect("start the bench bin");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{bin} {flag} x: {stderr}");
    assert!(
        stderr.contains(&format!("error: {flag} needs a number")),
        "{bin} {flag} x: {stderr}"
    );
}

#[test]
fn online_refresh_rejects_a_seed_that_is_not_a_number() {
    assert_misuse(env!("CARGO_BIN_EXE_online_refresh"), "--seed");
}

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
        assert_misuse(env!("CARGO_BIN_EXE_obs_overhead"), flag);
    }
}
