//! Rolling model publishes: ship one generation to the whole fleet
//! without going dark.
//!
//! The single-node story (PR 3) swaps a [`smgcn_serve::ModelSlot`]
//! in-process; a fleet needs the same upgrade *across machines*. The
//! coordinator drives a publish — the `{"op":"publish"}` admin verb, or
//! the experiment plane's `publish` action into a candidate slot — **one
//! replica at a time**:
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
//! That discipline is written once, in `roll`, behind
//! [`rolling_publish`] and the CLI's pool-less [`rolling_publish_addrs`].
//! A control publish and a candidate publish ([`crate::experiment`])
//! differ only in the `variant` they name: it picks the form of
//! [`publish_line`] they send and the words of their outcomes.

use std::net::SocketAddr;

use smgcn_serve::artifact::{publish_line, to_base64};
use smgcn_serve::client::Unanswered;
use smgcn_serve::json::{self, Json};

use crate::pool::{ask, PoolConfig, Replica, ReplicaPool};

/// One replica's outcome in a fleet walk: a publish, or an experiment
/// install, halt or promotion.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The replica's address.
    pub addr: SocketAddr,
    /// True when the replica acknowledged.
    pub ok: bool,
    /// The replica's generation after a publish (when acknowledged).
    pub generation: Option<u64>,
    /// Failure description (transport error, replica rejection or
    /// refusal, or "skipped: ejected").
    pub error: Option<String>,
    /// True when the replica *actively rejected* a published artifact
    /// (reachable and healthy, blob refused) as opposed to a transport
    /// failure — the rollout stops on a rejection because every other
    /// replica would refuse the same bytes.
    pub rejected: bool,
}

impl FleetOutcome {
    /// A replica that acknowledged (`Ok`, with its generation after a
    /// publish) or did not take the action (`Err`, and why).
    pub(crate) fn new(addr: SocketAddr, ack: Result<Option<u64>, String>) -> Self {
        Self {
            addr,
            ok: ack.is_ok(),
            generation: ack.as_ref().ok().copied().flatten(),
            error: ack.err(),
            rejected: false,
        }
    }

    /// The wire shape inside the router's publish and experiment
    /// replies; `rejected` and `generation` appear only when set.
    pub fn to_json(&self) -> Json {
        let fields = [
            ("addr", Some(Json::Str(self.addr.to_string()))),
            ("ok", Some(Json::Bool(self.ok))),
            ("rejected", self.rejected.then_some(Json::Bool(true))),
            ("generation", self.generation.map(|g| Json::Num(g as f64))),
            ("error", self.error.clone().map(Json::Str)),
        ];
        json::obj(fields.into_iter().filter_map(|(k, v)| Some((k, v?))))
    }
}

/// A whole fleet's publish result.
#[derive(Clone, Debug)]
pub struct PublishReport {
    /// Per-replica outcomes, in rollout order.
    pub outcomes: Vec<FleetOutcome>,
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
            Json::Arr(self.outcomes.iter().map(FleetOutcome::to_json).collect()),
        ));
        json::obj(fields)
    }
}

/// Reads one replica's answer to a publish — `what` names it in the
/// outcome (`publish`, `candidate publish`). A retryable refusal is an
/// overload shed (the accept loop refused the admin connection):
/// transient, not a verdict on the artifact. Any other refusal is the
/// replica rejecting the blob itself.
fn publish_outcome(addr: SocketAddr, what: &str, answer: Result<Json, Unanswered>) -> FleetOutcome {
    let ack = match answer {
        Ok(ack) => match (ack.get("published"), ack.get("generation")) {
            (Some(&Json::Bool(true)), Some(&Json::Num(generation))) => Ok(Some(generation as u64)),
            _ => Err(format!("unexpected {what} ack: {ack}")),
        },
        Err(shed) if shed.retryable() => Err(format!("replica shed the publish: {shed}")),
        Err(refusal @ Unanswered::Refused(_)) => {
            let error = Err(format!("replica rejected {what}: {refusal}"));
            return FleetOutcome {
                rejected: true,
                ..FleetOutcome::new(addr, error)
            };
        }
        Err(transport) => Err(transport.to_string()),
    };
    FleetOutcome::new(addr, ack)
}

/// The one rolling walk: `line` — a [`publish_line`] into control, or
/// into the candidate `variant` names — goes to one replica at a time,
/// in order. A pool member that is ejected is skipped and reported (so
/// nothing is silently stale); a transport failure or a shed is blamed
/// on the replica (its eject reason names the publish) and the walk
/// moves on; a rejection is a verdict on the artifact — every other
/// replica would refuse the same bytes — so the walk stops there and
/// the rest keep the old generation rather than each rejecting it in
/// turn. Targets without a pool member (the CLI path) have no health
/// record to consult or update.
fn roll<'a>(
    targets: impl IntoIterator<Item = (SocketAddr, Option<&'a Replica>)>,
    config: &PoolConfig,
    line: &str,
    variant: Option<&str>,
) -> PublishReport {
    // How the rollout names itself in its outcomes (`unexpected <what>
    // ack`, `replica rejected <what>`) and as the eject reason of a
    // replica it could not reach.
    let (what, failed) = match variant {
        None => ("publish", "publish failed"),
        Some(_) => ("candidate publish", "candidate publish failed"),
    };
    let mut outcomes = Vec::new();
    for (addr, member) in targets {
        if member.is_some_and(|replica| !replica.available()) {
            outcomes.push(FleetOutcome::new(addr, Err("skipped: ejected".into())));
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

/// Rolls `artifact_b64` across the pool's replicas, one at a time, into
/// control (`variant` `None`) or into the named candidate slot.
pub fn rolling_publish(
    pool: &ReplicaPool,
    artifact_b64: String,
    variant: Option<&str>,
) -> PublishReport {
    let line = publish_line(artifact_b64, variant);
    let members = pool.replicas().iter().map(|r| (r.addr, Some(r)));
    roll(members, &pool.config(), &line, variant)
}

/// Rolls an artifact into control across explicit addresses (the CLI
/// path — no pool, same one-at-a-time walk).
pub fn rolling_publish_addrs(
    addrs: &[SocketAddr],
    artifact: &[u8],
    config: &PoolConfig,
) -> PublishReport {
    let line = publish_line(to_base64(artifact), None);
    let targets = addrs.iter().map(|&addr| (addr, None));
    roll(targets, config, &line, None)
}
