//! Protocol golden tests: the wire contract, frozen byte for byte.
//!
//! A deterministic replay corpus covers every admin verb
//! (stats/metrics/events/profile/publish/experiment), every recommend
//! variant (names, ids, default k, scores, deadlines, traces, explicit
//! and sticky experiment variants) and every deterministically reachable
//! structured error code — against both the replica server and the
//! router. Each response is masked of wall-clock noise (timings,
//! timestamps, ephemeral addresses, profiler text) and compared against
//! a checked-in transcript.
//!
//! The point: a transport refactor (e.g. swapping the thread-per-conn
//! loop for a readiness reactor) must not move a single byte of the
//! protocol. Anything these goldens don't pin is explicitly volatile.
//!
//! Re-record after an *intentional* protocol change with:
//!
//! ```text
//! SMGCN_GOLDEN_RECORD=1 cargo test -q --test protocol_golden
//! ```
//!
//! One code stays uncovered by design: `no_replicas` only fires with a
//! dead fleet, which is not replayable deterministically (its
//! classification is unit-tested in `smgcn-serve::errors`).

use std::path::PathBuf;
use std::time::Duration;

use smgcn_repro::cluster::{PoolConfig, Router, RouterConfig};
use smgcn_repro::experiment::SplitPlan;
use smgcn_repro::serve::json::{self, Json};
use smgcn_repro::serve::{artifact, FrozenModel, Running, Server, ServerConfig, ServingVocab};
use smgcn_repro::tensor::Matrix;

const N_SYMPTOMS: usize = 6;
const N_HERBS: usize = 8;
const DIM: usize = 4;

/// Deterministic model content, perturbed by `tag` (same scheme as the
/// bench harness: distinct tags rank differently, herb names carry the
/// tag so a response names the generation it claims).
fn model(tag: u64) -> FrozenModel {
    let t = tag as usize;
    let symptoms = Matrix::from_fn(N_SYMPTOMS, DIM, |r, c| {
        ((r * (31 + 2 * t) + c * 17 + t) % 23) as f32 * 0.1 - 1.1
    });
    let herbs = Matrix::from_fn(N_HERBS, DIM, |r, c| {
        ((r * 13 + c * (29 + t)) % 19) as f32 * 0.1 - 0.9
    });
    FrozenModel::from_parts(symptoms, herbs, None).expect("golden model dims agree")
}

fn vocab(tag: u64) -> ServingVocab {
    ServingVocab::new(
        (0..N_SYMPTOMS).map(|i| format!("s{i}")).collect(),
        (0..N_HERBS).map(|i| format!("g{tag}-h{i}")).collect(),
    )
}

fn artifact_b64(tag: u64) -> String {
    artifact::to_base64(&artifact::encode(&model(tag), &vocab(tag)))
}

/// [`artifact_b64`] with one bit flipped mid-payload: well-formed base64
/// whose checksum every replica must refuse.
fn corrupt_b64(tag: u64) -> String {
    let mut bytes = artifact::encode(&model(tag), &vocab(tag));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    artifact::to_base64(&bytes)
}

/// One step of a replay corpus.
enum Step {
    /// A request line sent on the corpus's single persistent connection.
    Line(String),
    /// Opens extra connections until one is refused and records the
    /// refusal line — the only deterministic way to see `overloaded`.
    OverloadProbe,
}

fn line(s: impl Into<String>) -> Step {
    Step::Line(s.into())
}

// ---------------------------------------------------------------------------
// Masking: the explicit list of what the protocol does NOT promise.
// ---------------------------------------------------------------------------

/// Numeric fields carrying wall-clock measurements.
fn volatile_num(key: &str) -> bool {
    key == "us" || key.ends_with("_us") || matches!(key, "micros" | "uptime_s" | "unix_ms" | "qps")
}

/// String fields carrying free-form volatile text. (`router` is the
/// router's own folded profile stack in `{"op":"profile"}`; in
/// `{"op":"stats"}` the same key is a bool, which stays unmasked.)
fn volatile_str(key: &str) -> bool {
    matches!(
        key,
        "prometheus" | "folded" | "trace_id" | "addr" | "router"
    )
}

/// Replaces volatile values with `"MASKED"`, leaving the deterministic
/// structure (keys, counts, rankings, error codes) byte-exact.
fn mask(value: &Json) -> Json {
    match value {
        Json::Obj(map) => Json::Obj(
            map.iter()
                // Reactor health metrics (`reactor_*`) were added after
                // these transcripts were recorded; the registry is
                // additive by design, so they are dropped rather than
                // masked to keep the recorded key sets comparable.
                .filter(|(k, _)| !k.starts_with("reactor_"))
                .map(|(k, v)| (k.clone(), mask_field(k, v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(mask).collect()),
        // Ephemeral addresses leak into detail strings and span labels.
        Json::Str(s) if s.contains("127.0.0.1") => Json::Str("MASKED".into()),
        other => other.clone(),
    }
}

fn mask_field(key: &str, value: &Json) -> Json {
    match value {
        Json::Num(_) if volatile_num(key) => Json::Str("MASKED".into()),
        Json::Str(_) if volatile_str(key) => Json::Str("MASKED".into()),
        other => mask(other),
    }
}

// ---------------------------------------------------------------------------
// Transcript machinery.
// ---------------------------------------------------------------------------

/// Replays `corpus` over one persistent connection against `front`,
/// returning the masked transcript (request + masked response pairs).
fn replay(front: &Running, corpus: &[Step]) -> String {
    let mut conn = front.client().expect("connect");
    let mut transcript = String::new();
    for step in corpus {
        match step {
            Step::Line(request) => {
                let raw = conn.ask(request).expect("round trip");
                let parsed = json::parse(&raw)
                    .unwrap_or_else(|e| panic!("unparseable response to {request:?}: {e}: {raw}"));
                transcript.push_str(&format!(">>> {request}\n{}\n\n", mask(&parsed)));
            }
            Step::OverloadProbe => {
                // Hold extra connections open until one is refused; the
                // refusal line is the shed contract. Capacity is small
                // enough that this terminates in a handful of opens.
                let mut held = Vec::new();
                let refusal = loop {
                    assert!(held.len() < 64, "no shed after 64 extra connections");
                    let mut extra = front.client().expect("connect");
                    // A refused connection gets one line then close; an
                    // accepted one stays silent until we speak. Probe by
                    // sending a request: accepted conns answer it,
                    // refused conns already wrote the shed line.
                    let first = extra.ask_json("{\"op\":\"stats\"}").expect("probe");
                    let code = first
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str);
                    if code == Some("overloaded") {
                        break first;
                    }
                    held.push(extra);
                };
                transcript.push_str(&format!(">>> !overload-probe\n{}\n\n", mask(&refusal)));
            }
        }
    }
    transcript
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Checks (or, under `SMGCN_GOLDEN_RECORD=1`, records) a transcript.
fn check_golden(name: &str, transcript: &str) {
    let path = golden_path(name);
    if std::env::var_os("SMGCN_GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, transcript).expect("write golden");
        eprintln!("recorded {} ({} bytes)", path.display(), transcript.len());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); record it with SMGCN_GOLDEN_RECORD=1",
            path.display()
        )
    });
    if want == transcript {
        return;
    }
    // Pinpoint the first diverging entry for an actionable failure.
    let want_entries: Vec<&str> = want.split("\n\n").collect();
    let got_entries: Vec<&str> = transcript.split("\n\n").collect();
    for (i, (w, g)) in want_entries.iter().zip(&got_entries).enumerate() {
        assert_eq!(
            w, g,
            "golden {name} entry {i} diverged (recorded vs fresh above)"
        );
    }
    assert_eq!(
        want_entries.len(),
        got_entries.len(),
        "golden {name}: entry count changed"
    );
    unreachable!("transcripts differ but all entries matched");
}

// ---------------------------------------------------------------------------
// The corpora.
// ---------------------------------------------------------------------------

/// Every replica-server verb, recommend variant and reachable error, in
/// a fixed order (counters are part of the pinned bytes, so order is
/// contract too).
fn serve_corpus() -> Vec<Step> {
    let plan = SplitPlan::new(
        7,
        1,
        &[("control".to_string(), 50), ("canary".to_string(), 50)],
    )
    .expect("valid plan");
    vec![
        // Recommend variants.
        line(r#"{"symptoms":["s1","s2"],"k":3}"#),
        line(r#"{"symptom_ids":[1,2],"k":3}"#), // cache hit of the same key
        line(r#"{"symptom_ids":[0],"k":5,"scores":true}"#),
        line(r#"{"symptom_ids":[3]}"#), // default k
        line(r#"{"symptom_ids":[0,3],"k":3,"trace":true}"#), // traced miss
        line(r#"{"symptom_ids":[0,3],"k":3,"trace":true}"#), // traced hit
        line(r#"{"symptom_ids":[1],"deadline_ms":60000,"k":3}"#),
        // Structured errors.
        line(r#"{"#),                                        // bad_json
        line(r#"{"symptom_ids":[0],"k":0}"#),                // bad_k
        line(r#"{"symptom_ids":[0],"k":999}"#),              // bad_k (above max)
        line(r#"{"symptom_ids":[],"k":3}"#),                 // empty_symptoms
        line(r#"{"symptom_ids":[2,2],"k":3}"#),              // duplicate_symptom
        line(r#"{"symptom_ids":[77],"k":3}"#),               // symptom_out_of_range
        line(r#"{"symptoms":["zz"],"k":3}"#),                // unknown_symptom
        line(r#"{"symptom_ids":[-4],"k":3}"#),               // bad_request: bad id
        line(r#"{"k":3}"#),                                  // bad_request: no symptoms
        line(r#"{"op":"teleport"}"#),                        // unknown_op
        line(r#"{"symptom_ids":[1],"deadline_ms":"soon"}"#), // bad_request
        line(r#"{"symptom_ids":[1],"deadline_ms":0}"#),      // deadline_exceeded
        Step::OverloadProbe,                                 // overloaded
        // Admin verbs.
        line(r#"{"op":"stats"}"#),
        line(r#"{"op":"metrics"}"#),
        line(r#"{"op":"metrics","format":"prometheus"}"#),
        line(r#"{"op":"events"}"#),
        line(r#"{"op":"events","limit":2}"#),
        line(r#"{"op":"profile"}"#),
        // Publish plane.
        line(format!(
            r#"{{"op":"publish","artifact":"{}"}}"#,
            artifact_b64(1)
        )),
        line(r#"{"symptom_ids":[1,2],"k":3}"#), // generation 1 serving
        line(r#"{"op":"publish","artifact":"@@not-base64@@"}"#), // bad_artifact
        // Experiment plane.
        line(format!(
            r#"{{"op":"experiment","action":"publish","variant":"canary","artifact":"{}"}}"#,
            artifact_b64(2)
        )),
        line(format!(
            r#"{{"op":"experiment","action":"install","plan":"{}"}}"#,
            plan.to_canonical()
        )),
        line(r#"{"symptom_ids":[1,2],"k":3,"client":"golden-a"}"#), // sticky assign
        line(r#"{"symptom_ids":[1,2],"k":3,"variant":"canary"}"#),  // explicit
        line(r#"{"symptom_ids":[1,2],"k":3,"variant":"ghost"}"#),   // unknown_variant
        line(r#"{"symptom_ids":[1],"k":3,"variant":7}"#),           // bad_request
        line(r#"{"op":"experiment","action":"install","plan":"junk"}"#), // bad_plan
        line(r#"{"op":"experiment","action":"status"}"#),
        line(r#"{"op":"experiment","action":"samples"}"#),
        line(format!(
            r#"{{"op":"experiment","action":"publish","variant":"control","artifact":"{}"}}"#,
            artifact_b64(2)
        )), // bad_request: control is publish-managed
        line(r#"{"op":"experiment","action":"promote-local","variant":"canary"}"#),
        line(r#"{"op":"experiment","action":"halt"}"#),
        line(r#"{"op":"experiment","action":"warp"}"#), // bad_request
        line(r#"{"op":"stats"}"#),
    ]
}

/// The router face of the same contract: local verbs, forwarded verbs,
/// the unknown-op forward fall-through, and the fleet experiment plane.
fn router_corpus() -> Vec<Step> {
    vec![
        line(r#"{"symptom_ids":[1,2],"k":3}"#),
        line(r#"{"symptoms":["s1","s2"],"k":3}"#),
        line(r#"{"symptom_ids":[0],"k":5,"scores":true}"#),
        line(r#"{"#),                                        // router-local bad_json
        line(r#"{"op":"teleport"}"#), // forwards: the REPLICA answers unknown_op
        line(r#"{"symptom_ids":[],"k":3}"#), // forwarded non-retryable error
        line(r#"{"symptom_ids":[1],"deadline_ms":0}"#), // router-local deadline shed
        line(r#"{"symptom_ids":[1],"deadline_ms":"x"}"#), // router-local bad_request
        line(r#"{"symptom_ids":[0,3],"k":3,"trace":true}"#), // traced forward
        line(r#"{"op":"stats"}"#),
        line(r#"{"op":"metrics"}"#),
        line(r#"{"op":"events"}"#),
        line(r#"{"op":"profile"}"#),
        Step::OverloadProbe, // router-side overloaded
        line(format!(
            r#"{{"op":"publish","artifact":"{}"}}"#,
            artifact_b64(1)
        )),
        line(r#"{"symptom_ids":[1,2],"k":3}"#), // generation 1 via the fleet
        line(format!(
            r#"{{"op":"experiment","action":"publish","variant":"canary","artifact":"{}"}}"#,
            artifact_b64(2)
        )),
        line(r#"{"op":"experiment","action":"install","weights":"control:50,canary:50"}"#),
        line(r#"{"symptom_ids":[1,2],"k":3,"client":"golden-a"}"#), // split-injected
        line(r#"{"op":"experiment","action":"status"}"#),
        line(r#"{"op":"experiment","action":"halt"}"#),
        line(r#"{"op":"stats"}"#),
        // Refusals: the outcome prose, `rejected_by` and `aborted` of a
        // rollout the first replica rejects, and a promotion nobody serves.
        line(format!(
            r#"{{"op":"publish","artifact":"{}"}}"#,
            corrupt_b64(3)
        )),
        line(format!(
            r#"{{"op":"experiment","action":"publish","variant":"canary","artifact":"{}"}}"#,
            corrupt_b64(3)
        )),
        line(r#"{"op":"experiment","action":"promote","variant":"ghost"}"#),
    ]
}

// ---------------------------------------------------------------------------
// Stacks under test.
// ---------------------------------------------------------------------------

fn serve_stack() -> Running {
    Server::bind(
        "127.0.0.1:0",
        model(0),
        vocab(0),
        ServerConfig {
            // Small cap so the overload probe sheds deterministically.
            max_connections: 2,
            // Every labeled request duels: deterministic samples.
            duel_sample_every: 1,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .expect("start golden server")
}

/// The router and, behind it, its replica: a tuple drops in field
/// order, so the router stops first.
fn router_stack() -> (Running, Running) {
    let replica = Server::bind(
        "127.0.0.1:0",
        model(0),
        vocab(0),
        ServerConfig {
            duel_sample_every: 1,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .expect("start golden replica");
    let router = Router::bind(
        "127.0.0.1:0",
        vec![replica.addr()],
        RouterConfig {
            // Replays on one connection: capacity 1 + the shed probe.
            max_connections: 1,
            // Zero disables active probing: without it the replica's
            // request counters (pinned in these goldens) only move for
            // corpus traffic.
            probe_interval: Duration::ZERO,
            pool: PoolConfig::default(),
            ..RouterConfig::default()
        },
    )
    .and_then(Router::spawn)
    .expect("start golden router");
    (router, replica)
}

// ---------------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------------

/// Two fresh-server replays must agree byte for byte; the first
/// diverging entry names the volatile field the mask list is missing.
fn assert_deterministic(which: &str, first: &str, second: &str) {
    if first == second {
        return;
    }
    for (i, (a, b)) in first.split("\n\n").zip(second.split("\n\n")).enumerate() {
        assert_eq!(
            a, b,
            "{which} transcript is nondeterministic at entry {i}: \
             a volatile field is unmasked"
        );
    }
    panic!("{which} transcript is nondeterministic (entry counts differ)");
}

/// The corpus replayed twice against fresh servers must produce the same
/// masked transcript — otherwise the golden itself would be flaky and
/// the masking list is missing a volatile field.
#[test]
fn serve_protocol_matches_golden() {
    let corpus = serve_corpus();
    let first = replay(&serve_stack(), &corpus);
    let second = replay(&serve_stack(), &corpus);
    assert_deterministic("serve", &first, &second);
    check_golden("protocol_serve.golden", &first);
}

#[test]
fn router_protocol_matches_golden() {
    let corpus = router_corpus();
    let first = replay(&router_stack().0, &corpus);
    let second = replay(&router_stack().0, &corpus);
    assert_deterministic("router", &first, &second);
    check_golden("protocol_router.golden", &first);
}
