//! The router's two fleet walks against scripted replicas: the read
//! walk behind every fleet-wide admin verb (`gather`) and the rolling
//! walk behind every publish.
//!
//! A scripted replica is a listener that answers every connection with
//! one fixed line — the way a server at its connection cap sheds — so a
//! refusal, a rejection or an acknowledgement can be placed at an exact
//! position in the fleet, next to a live server and a dead address.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smgcn_cluster::{
    rolling_candidate_publish, rolling_publish, rolling_publish_addrs, PoolConfig, ReplicaPool,
    Router, RouterConfig,
};
use smgcn_serve::json::Json;
use smgcn_serve::server::StopHandle;
use smgcn_serve::{FrozenModel, Running, Server, ServerConfig, ServingVocab};
use smgcn_tensor::Matrix;

const SHED: &str = r#"{"error":{"code":"overloaded","message":"at capacity","retryable":true}}"#;
const REJECT: &str = r#"{"error":{"code":"bad_artifact","message":"checksum mismatch"}}"#;
const ACK: &str = r#"{"generation":4,"published":true}"#;

/// A replica that answers every connection with `reply` the moment it
/// is accepted, then waits for the client to hang up. Also counts the
/// connections it took.
fn scripted(reply: &'static str) -> (Running, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let contacts = Arc::new(AtomicUsize::new(0));
    let (stopped, counted) = (Arc::clone(&stop), Arc::clone(&contacts));
    let serve = move || {
        for stream in listener.incoming() {
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = stream?;
            counted.fetch_add(1, Ordering::SeqCst);
            stream.write_all(format!("{reply}\n").as_bytes())?;
            // Closing over an unread request would reset the reply away.
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        }
        Ok(())
    };
    let running = Running::start(addr, StopHandle::new(stop, Some(addr)), serve).unwrap();
    (running, contacts)
}

/// An address that accepts nothing: bind, note the port, drop the
/// listener. Connections to it are refused immediately.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn config() -> PoolConfig {
    PoolConfig {
        replica_timeout: Duration::from_secs(2),
        admin_timeout: Duration::from_secs(2),
        ..PoolConfig::default()
    }
}

/// Fleet reads with one replica unreachable and one refusing: the live
/// replica's numbers still merge, and the other two keep their entries,
/// each carrying the same structured `{"code":"partial"}` marker on
/// every verb instead of silently shrinking the aggregate.
#[test]
fn every_fleet_read_marks_the_replicas_it_could_not_gather() {
    let symptoms = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) % 4) as f32 - 1.5);
    let herbs = Matrix::from_fn(7, 3, |r, c| ((r * 2 + c * 5) % 6) as f32 - 2.5);
    let model = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
    let live = Server::bind(
        "127.0.0.1:0",
        model,
        ServingVocab::default(),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .unwrap();
    let (shedding, _) = scripted(SHED);
    let router = Router::bind(
        "127.0.0.1:0",
        vec![live.addr(), dead_addr(), shedding.addr()],
        RouterConfig {
            pool: config(),
            probe_interval: Duration::ZERO,
            ..RouterConfig::default()
        },
    )
    .and_then(Router::spawn)
    .unwrap();
    let mut client = router.client().unwrap();

    // A ranking first, so the live replica has non-zero counters (the
    // ring may try the other two first: both fail over).
    let resp = client.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
    assert!(resp.get("error").is_none(), "{resp}");

    for (verb, request) in [
        ("stats", r#"{"op":"stats"}"#),
        ("metrics", r#"{"op":"metrics"}"#),
        ("profile", r#"{"op":"profile"}"#),
        ("events", r#"{"op":"events"}"#),
        ("status", r#"{"op":"experiment","action":"status"}"#),
    ] {
        let report = client.ask_json(request).unwrap();
        assert_eq!(report.get("partial"), Some(&Json::Bool(true)), "{report}");
        let entries = report.get("replicas").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 3, "every replica keeps its entry: {report}");
        let marker = |i: usize| {
            let entry: &Json = &entries[i];
            assert!(entry.get("addr").is_some(), "{entry}");
            let error = entry.get("error")?;
            assert_eq!(error.get("code").and_then(Json::as_str), Some("partial"));
            error.get("message").and_then(Json::as_str)
        };
        assert_eq!(marker(0), None, "{verb}: the live replica answered");
        let unreachable = marker(1).expect("the dead replica is marked");
        assert!(
            unreachable.starts_with("connect: "),
            "{verb}: {unreachable}"
        );
        assert_eq!(
            marker(2),
            Some(format!("replica refused {verb}: {SHED}").as_str()),
            "{verb}: a shed line is a refusal, never a report"
        );
    }
    let compare = client
        .ask_json(r#"{"op":"experiment","action":"compare"}"#)
        .unwrap();
    assert_eq!(compare.get("partial"), Some(&Json::Bool(true)), "{compare}");

    // The merges still carry the live replica's contribution.
    let snap = client.ask_json(r#"{"op":"metrics"}"#).unwrap();
    let requests = snap
        .get("merged")
        .and_then(|m| m.get("serve_requests_total"));
    assert!(requests.and_then(Json::as_num).unwrap() >= 1.0, "{snap}");
    let prof = client.ask_json(r#"{"op":"profile"}"#).unwrap();
    let folded = prof.get("folded").and_then(Json::as_str).unwrap();
    assert!(folded.contains("router;forward "), "{folded}");
    assert!(folded.contains("serve;request;"), "{folded}");
}

/// The rolling walk, one replica of each kind in rollout order: it
/// moves on past a shed and past a dead replica (blaming both on the
/// replica), reports an ejected one without contacting it, and stops at
/// the first rejection — a verdict on the artifact, so the rejecting
/// replica stays healthy and nobody after it is contacted.
#[test]
fn the_rolling_walk_skips_continues_blames_and_stops() {
    let (shedding, _) = scripted(SHED);
    let (ejected, ejected_contacts) = scripted(ACK);
    let (acking, _) = scripted(ACK);
    let (rejecting, _) = scripted(REJECT);
    let (after, after_contacts) = scripted(ACK);
    let addrs = vec![
        shedding.addr(),
        ejected.addr(),
        acking.addr(),
        dead_addr(),
        rejecting.addr(),
        after.addr(),
    ];
    let pool = ReplicaPool::new(addrs.clone(), config());
    pool.replica(1).note_failure("synthetic");

    let report = rolling_publish(&pool, "AAAA");
    let errors: Vec<&str> = report
        .outcomes
        .iter()
        .map(|o| o.error.as_deref().unwrap_or("ok"))
        .collect();
    assert_eq!(errors.len(), 5, "nobody after the rejection: {errors:?}");
    assert_eq!(
        errors[0],
        r#"replica shed the publish: {"code":"overloaded","message":"at capacity","retryable":true}"#
    );
    assert_eq!(errors[1], "skipped: ejected");
    assert_eq!(errors[2], "ok");
    assert_eq!(report.outcomes[2].generation, Some(4));
    assert!(errors[3].starts_with("connect: "), "{}", errors[3]);
    assert_eq!(
        errors[4],
        r#"replica rejected publish: {"code":"bad_artifact","message":"checksum mismatch"}"#
    );
    assert_eq!(report.rejected_by(), Some(addrs[4]));
    assert_eq!((report.published(), report.aborted()), (1, true));
    assert_eq!(ejected_contacts.load(Ordering::SeqCst), 0);
    assert_eq!(after_contacts.load(Ordering::SeqCst), 0);
    let reasons: Vec<_> = pool
        .replicas()
        .iter()
        .map(|r| r.health().eject_reason)
        .collect();
    let blamed = Some("publish failed");
    assert_eq!(
        reasons,
        [blamed, Some("synthetic"), None, blamed, None, None],
        "transport failures and sheds are the replica's, a rejection is the artifact's"
    );

    // The candidate rollout is the same walk under its own wording.
    let pool = ReplicaPool::new(addrs[4..].to_vec(), config());
    let report = rolling_candidate_publish(&pool, "canary", "AAAA");
    assert_eq!(
        report.outcomes[0].error.as_deref(),
        Some(
            r#"replica rejected candidate publish: {"code":"bad_artifact","message":"checksum mismatch"}"#
        )
    );
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(pool.replica(0).health().eject_reason, None);

    // So is the CLI's, over bare addresses: no pool, no health to consult.
    let report = rolling_publish_addrs(&addrs[..5], b"model", &config());
    let oks: Vec<bool> = report.outcomes.iter().map(|o| o.ok).collect();
    assert_eq!(oks, [false, true, true, false, false]);
    assert_eq!(report.rejected_by(), Some(addrs[4]));
    assert_eq!(after_contacts.load(Ordering::SeqCst), 0);
}
