//! Property tests for the fleet metrics merge (the degraded,
//! `{"code":"partial"}` aggregates are driven against live sockets in
//! `fleet_walks.rs`).
//!
//! The router's `{"op":"metrics"}` merge is a fold over per-replica
//! snapshots, and its laws are what make the merged view trustworthy:
//!
//! - **commutativity / associativity** — the merged snapshot must not
//!   depend on the order replicas answered in (scrape order is racy by
//!   nature). Counters and histogram `count`/`sum` fields are summed as
//!   integer-valued floats (exact below 2^53), everything else is a max
//!   — both operations are order-free, and the tests pin that the
//!   *composition* stays order-free too;
//! - **percentile bounds** — a merged quantile is the fleet max, so it
//!   is bounded below by every replica's own quantile (a fleet p99 can
//!   never look better than its worst replica).

use std::collections::BTreeMap;

use proptest::prelude::*;
use smgcn_cluster::merge_metrics;
use smgcn_serve::json::{self, Json};

/// One synthetic per-replica metrics snapshot: a few counters, a gauge,
/// and a histogram stats object, all integer-valued so float summation
/// is exact and associativity holds bit-for-bit.
fn snapshot_strategy() -> impl Strategy<Value = Json> {
    let counter = 0u32..10_000;
    let hist = (
        0u32..1000,   // count
        0u32..50_000, // sum_us
        0u32..2_000,  // p50_us
        0u32..8_000,  // p99_us
    );
    // The vendored proptest has no `option::of`; a 1-in-4 selector
    // stands in for "this replica reports no latency histogram yet".
    (counter.clone(), counter, 0u32..16, 0u32..4, hist).prop_map(
        |(requests, errors, generation, has_hist, hist)| {
            let mut fields = vec![
                ("serve_requests_total", Json::Num(f64::from(requests))),
                ("serve_errors_total", Json::Num(f64::from(errors))),
                ("serve_generation", Json::Num(f64::from(generation))),
            ];
            if has_hist > 0 {
                let (count, sum_us, p50, p99) = hist;
                fields.push((
                    "serve_latency_us",
                    json::obj([
                        ("count", Json::Num(f64::from(count))),
                        ("sum_us", Json::Num(f64::from(sum_us))),
                        ("p50_us", Json::Num(f64::from(p50))),
                        ("p99_us", Json::Num(f64::from(p99.max(p50)))),
                        ("total_count", Json::Num(f64::from(count))),
                        ("total_sum_us", Json::Num(f64::from(sum_us))),
                        ("total_p99_us", Json::Num(f64::from(p99.max(p50)))),
                    ]),
                ));
            }
            json::obj(fields)
        },
    )
}

fn merge_all(snapshots: &[Json]) -> BTreeMap<String, Json> {
    let mut merged = BTreeMap::new();
    for snap in snapshots {
        merge_metrics(&mut merged, snap);
    }
    merged
}

fn get_num(merged: &BTreeMap<String, Json>, key: &str) -> f64 {
    merged.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative_and_associative(
        snaps in proptest::collection::vec(snapshot_strategy(), 2..6),
    ) {
        let forward = merge_all(&snaps);
        let mut reversed_order = snaps.clone();
        reversed_order.reverse();
        prop_assert_eq!(
            &forward,
            &merge_all(&reversed_order),
            "merge must not depend on replica answer order"
        );
        // Associativity: fold the tail first, then merge the head's
        // snapshot into it — same result as the left fold.
        let mut tail_first = BTreeMap::new();
        merge_metrics(&mut tail_first, &snaps[0]);
        let tail = merge_all(&snaps[1..]);
        merge_metrics(&mut tail_first, &Json::Obj(tail.into_iter().collect()));
        prop_assert_eq!(&forward, &tail_first);
    }

    #[test]
    fn counters_sum_gauges_and_quantiles_max_sums_stay_extensive(
        snaps in proptest::collection::vec(snapshot_strategy(), 1..6),
    ) {
        let merged = merge_all(&snaps);
        let total: f64 = snaps
            .iter()
            .map(|s| s.get("serve_requests_total").and_then(Json::as_num).unwrap())
            .sum();
        prop_assert_eq!(get_num(&merged, "serve_requests_total"), total);
        let max_gen = snaps
            .iter()
            .map(|s| s.get("serve_generation").and_then(Json::as_num).unwrap())
            .fold(0.0f64, f64::max);
        prop_assert_eq!(get_num(&merged, "serve_generation"), max_gen);
        if let Some(hist) = merged.get("serve_latency_us") {
            let replica_hists: Vec<&Json> =
                snaps.iter().filter_map(|s| s.get("serve_latency_us")).collect();
            let count_sum: f64 = replica_hists
                .iter()
                .map(|h| h.get("count").and_then(Json::as_num).unwrap())
                .sum();
            let sum_us_sum: f64 = replica_hists
                .iter()
                .map(|h| h.get("sum_us").and_then(Json::as_num).unwrap())
                .sum();
            prop_assert_eq!(hist.get("count").and_then(Json::as_num), Some(count_sum));
            prop_assert_eq!(hist.get("sum_us").and_then(Json::as_num), Some(sum_us_sum));
            // The merged quantile is bounded below by every replica's:
            // the fleet view can never flatter the worst replica.
            let merged_p99 = hist.get("p99_us").and_then(Json::as_num).unwrap();
            for h in &replica_hists {
                let p99 = h.get("p99_us").and_then(Json::as_num).unwrap();
                prop_assert!(
                    merged_p99 >= p99,
                    "merged p99 {merged_p99} below a replica's {p99}"
                );
            }
        }
    }
}
