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
//!
//! That discipline is written once, in `roll`; a control publish, a
//! candidate publish ([`crate::experiment`]) and the CLI's pool-less
//! rollout differ only in the line they send and the words of their
//! outcomes.

use std::net::SocketAddr;

use smgcn_serve::artifact::{publish_line, to_base64};
use smgcn_serve::client::Unanswered;
use smgcn_serve::json::{self, Json};

use crate::pool::{ask, PoolConfig, Replica, ReplicaPool};

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

impl PublishOutcome {
    /// A replica that did not take the publish, and why.
    fn failed(addr: SocketAddr, error: String) -> Self {
        Self {
            addr,
            ok: false,
            generation: None,
            error: Some(error),
            rejected: false,
        }
    }
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

/// Reads one replica's answer to a publish — `what` names it in the
/// outcome (`publish`, `candidate publish`). A retryable refusal is an
/// overload shed (the accept loop refused the admin connection):
/// transient, not a verdict on the artifact. Any other refusal is the
/// replica rejecting the blob itself.
fn publish_outcome(
    addr: SocketAddr,
    what: &str,
    answer: Result<Json, Unanswered>,
) -> PublishOutcome {
    let ack = match answer {
        Ok(ack) => ack,
        Err(shed) if shed.retryable() => {
            return PublishOutcome::failed(addr, format!("replica shed the publish: {shed}"))
        }
        Err(refusal @ Unanswered::Refused(_)) => {
            return PublishOutcome {
                rejected: true,
                ..PublishOutcome::failed(addr, format!("replica rejected {what}: {refusal}"))
            }
        }
        Err(transport) => return PublishOutcome::failed(addr, transport.to_string()),
    };
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
        _ => PublishOutcome::failed(addr, format!("unexpected {what} ack: {ack}")),
    }
}

/// How a rollout names itself: in its outcomes (`unexpected <what>
/// ack`, `replica rejected <what>`), and as the eject reason of a
/// replica it could not reach.
pub(crate) type Wording = (&'static str, &'static str);

const CONTROL_PUBLISH: Wording = ("publish", "publish failed");

/// The one rolling walk: `line` goes to one replica at a time, in
/// order. A pool member that is ejected is skipped and reported (so
/// nothing is silently stale); a transport failure or a shed is blamed
/// on the replica (`failed` becomes its eject reason) and the walk
/// moves on; a rejection is a verdict on the artifact — every other
/// replica would refuse the same bytes — so the walk stops there and
/// the rest keep the old generation rather than each rejecting it in
/// turn. Targets without a pool member (the CLI path) have no health
/// record to consult or update.
pub(crate) fn roll<'a>(
    targets: impl IntoIterator<Item = (SocketAddr, Option<&'a Replica>)>,
    config: &PoolConfig,
    line: &str,
    (what, failed): Wording,
) -> PublishReport {
    let mut outcomes = Vec::new();
    for (addr, member) in targets {
        if member.is_some_and(|replica| !replica.available()) {
            outcomes.push(PublishOutcome::failed(addr, "skipped: ejected".into()));
            continue;
        }
        let outcome = publish_outcome(addr, what, ask(addr, config, line));
        if let Some(replica) = member {
            if outcome.ok {
                replica.note_success();
            } else if !outcome.rejected {
                replica.note_failure(failed);
            }
        }
        let rejected = outcome.rejected;
        outcomes.push(outcome);
        if rejected {
            break;
        }
    }
    PublishReport { outcomes }
}

/// [`roll`]'s targets for a pool: every replica, in id order.
pub(crate) fn members(pool: &ReplicaPool) -> impl Iterator<Item = (SocketAddr, Option<&Replica>)> {
    pool.replicas().iter().map(|r| (r.addr, Some(r)))
}

/// Rolls `artifact_b64` across the pool's replicas, one at a time.
pub fn rolling_publish(pool: &ReplicaPool, artifact_b64: String) -> PublishReport {
    let line = publish_line(artifact_b64);
    roll(members(pool), &pool.config(), &line, CONTROL_PUBLISH)
}

/// Rolls an artifact across explicit addresses (the CLI path — no pool,
/// same one-at-a-time walk).
pub fn rolling_publish_addrs(
    addrs: &[SocketAddr],
    artifact: &[u8],
    config: &PoolConfig,
) -> PublishReport {
    let line = publish_line(to_base64(artifact));
    let targets = addrs.iter().map(|&addr| (addr, None));
    roll(targets, config, &line, CONTROL_PUBLISH)
}
