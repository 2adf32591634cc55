//! Rolling model publishes: ship one generation to the whole fleet
//! without going dark.
//!
//! The single-node story (PR 3) swaps a [`smgcn_serve::ModelSlot`]
//! in-process; a fleet needs the same upgrade *across machines*. The
//! coordinator drives the `{"op":"publish"}` admin verb **one replica at
//! a time**:
//!
//! - while replica `i` swaps, replicas `i+1..` keep serving their
//!   current generation and `0..i` serve the new one — the fleet never
//!   goes dark, and every individual response still comes from exactly
//!   one replica pinned to exactly one generation (the no-mixing
//!   invariant is per-response, and replicas enforce it locally);
//! - each swap is verified from the replica's acknowledgement before
//!   the next one starts, so a bad artifact stops after the first
//!   replica instead of taking out the fleet;
//! - ejected replicas are skipped and reported: when they come back
//!   they re-probe as healthy but stale, and the operator (or the next
//!   publish) catches them up — the outcome list says exactly who needs
//!   it.

use std::net::SocketAddr;

use smgcn_serve::json::{self, Json};

use crate::pool::{PoolConfig, ReplicaConn, ReplicaPool};

/// What one replica did with the publish.
#[derive(Clone, Debug)]
pub struct PublishOutcome {
    /// The replica's address.
    pub addr: SocketAddr,
    /// True when the replica acknowledged the new generation.
    pub ok: bool,
    /// The replica's generation after the publish (when acknowledged).
    pub generation: Option<u64>,
    /// Failure description (transport error, replica rejection, or
    /// "skipped: ejected").
    pub error: Option<String>,
    /// True when the replica *actively rejected* the artifact (reachable
    /// and healthy, blob refused) as opposed to a transport failure —
    /// the rollout stops on a rejection because every other replica
    /// would refuse the same bytes.
    pub rejected: bool,
}

/// A whole fleet's publish result.
#[derive(Clone, Debug)]
pub struct PublishReport {
    /// Per-replica outcomes, in rollout order.
    pub outcomes: Vec<PublishOutcome>,
}

impl PublishReport {
    /// Replicas that acknowledged.
    pub fn published(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok).count()
    }

    /// True when every replica acknowledged.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.ok)
    }

    /// The replica that *rejected* the artifact and aborted the rollout,
    /// when one did. A `Some` here means the artifact itself is bad (the
    /// named replica verified and refused the bytes); replicas after it
    /// in rollout order were never contacted and keep the old generation.
    pub fn rejected_by(&self) -> Option<SocketAddr> {
        self.outcomes.iter().find(|o| o.rejected).map(|o| o.addr)
    }

    /// True when the rollout stopped early on a rejection.
    pub fn aborted(&self) -> bool {
        self.rejected_by().is_some()
    }

    /// The wire-level report behind the router's publish verb.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("published", Json::Num(self.published() as f64)),
            ("replicas", Json::Num(self.outcomes.len() as f64)),
            ("all_ok", Json::Bool(self.all_ok())),
            ("aborted", Json::Bool(self.aborted())),
        ];
        if let Some(addr) = self.rejected_by() {
            fields.push(("rejected_by", Json::Str(addr.to_string())));
        }
        fields.push((
            "outcomes",
            Json::Arr(
                self.outcomes
                    .iter()
                    .map(|o| {
                        let mut fields = vec![
                            ("addr", Json::Str(o.addr.to_string())),
                            ("ok", Json::Bool(o.ok)),
                        ];
                        if o.rejected {
                            fields.push(("rejected", Json::Bool(true)));
                        }
                        if let Some(g) = o.generation {
                            fields.push(("generation", Json::Num(g as f64)));
                        }
                        if let Some(e) = &o.error {
                            fields.push(("error", Json::Str(e.clone())));
                        }
                        json::obj(fields)
                    })
                    .collect(),
            ),
        ));
        json::obj(fields)
    }
}

/// The `{"op":"publish"}` request line for `artifact_b64`. A rollout
/// builds it once and sends the same bytes to every replica: the line is
/// as large as the model.
fn publish_line(artifact_b64: &str) -> String {
    json::obj([
        ("op", Json::Str("publish".into())),
        ("artifact", Json::Str(artifact_b64.to_string())),
    ])
    .to_string()
}

/// Sends the publish `line` to one replica over a dedicated connection
/// (publishes are rare; stealing pooled request connections for a
/// potentially large admin line would add tail latency to live traffic).
fn publish_one(addr: SocketAddr, line: &str, config: &PoolConfig) -> PublishOutcome {
    let fail = |error: String| PublishOutcome {
        addr,
        ok: false,
        generation: None,
        error: Some(error),
        rejected: false,
    };
    let mut conn = match ReplicaConn::connect_admin(addr, config) {
        Ok(conn) => conn,
        Err(e) => return fail(format!("connect: {e}")),
    };
    let response = match conn.round_trip(line) {
        Ok(line) => line,
        Err(e) => return fail(format!("publish round trip: {e}")),
    };
    let Ok(ack) = json::parse(&response) else {
        return fail(format!("unparseable publish ack: {response}"));
    };
    if let Some(err) = ack.get("error") {
        // A retryable error is an overload shed (the accept loop refused
        // the admin connection) — transient, not a verdict on the
        // artifact; the rollout continues past this replica. Any other
        // error is the replica refusing the blob itself, which stops the
        // rollout: every other replica would refuse the same bytes.
        if err.get("retryable") == Some(&Json::Bool(true)) {
            return fail(format!("replica shed the publish: {err}"));
        }
        return PublishOutcome {
            addr,
            ok: false,
            generation: None,
            error: Some(format!("replica rejected publish: {err}")),
            rejected: true,
        };
    }
    match (
        ack.get("published"),
        ack.get("generation").and_then(Json::as_num),
    ) {
        (Some(&Json::Bool(true)), Some(generation)) => PublishOutcome {
            addr,
            ok: true,
            generation: Some(generation as u64),
            error: None,
            rejected: false,
        },
        _ => fail(format!("unexpected publish ack: {ack}")),
    }
}

/// Rolls `artifact_b64` across the pool's replicas in id order, skipping
/// ejected ones (reported as failures so nothing is silently stale) and
/// stopping at the first rejection — a bad artifact must not take down
/// generation consistency fleet-wide.
pub fn rolling_publish(pool: &ReplicaPool, artifact_b64: &str) -> PublishReport {
    let line = publish_line(artifact_b64);
    let mut outcomes = Vec::with_capacity(pool.len());
    for replica in pool.replicas() {
        if !replica.available() {
            outcomes.push(PublishOutcome {
                addr: replica.addr,
                ok: false,
                generation: None,
                error: Some("skipped: ejected".into()),
                rejected: false,
            });
            continue;
        }
        let outcome = publish_one(replica.addr, &line, &pool.config());
        let rejected = outcome.rejected;
        if outcome.ok {
            replica.note_success();
        } else if !rejected {
            // Transport-level failure: blame the replica. A *rejection*
            // blames the artifact — the replica is healthy and still
            // serving its current generation.
            replica.note_failure("publish failed");
        }
        outcomes.push(outcome);
        if rejected {
            // The artifact itself is bad; the remaining replicas keep the
            // old generation rather than each rejecting it in turn.
            break;
        }
    }
    PublishReport { outcomes }
}

/// Rolls an artifact across explicit addresses (the CLI path — no pool,
/// fresh connection per replica, same one-at-a-time semantics).
pub fn rolling_publish_addrs(
    addrs: &[SocketAddr],
    artifact: &[u8],
    config: &PoolConfig,
) -> PublishReport {
    let line = publish_line(&smgcn_serve::artifact::to_base64(artifact));
    let mut outcomes = Vec::with_capacity(addrs.len());
    for &addr in addrs {
        let outcome = publish_one(addr, &line, config);
        let rejected = outcome.rejected;
        outcomes.push(outcome);
        if rejected {
            break;
        }
    }
    PublishReport { outcomes }
}
