//! Fleet-level A/B experiment coordination: candidate rollouts, atomic
//! split installs, guardrailed promotion.
//!
//! The replica half of the experiment plane (`smgcn_serve::variants`)
//! keeps named candidate slots next to the control [`ModelSlot`] and
//! resolves per-request variant overrides; this module drives that verb
//! across a [`ReplicaPool`] the way [`crate::publish`] drives control
//! publishes:
//!
//! - **candidate publish** rolls one replica at a time and stops on the
//!   first *rejection* (a verdict on the artifact bytes, not the
//!   replica) — same semantics as a control rollout;
//! - **split install** is atomic: a preflight confirms every replica is
//!   reachable and already serves every weighted variant *before* any
//!   replica is touched, and a mid-roll failure triggers a fleet-wide
//!   halt so no partial split survives;
//! - **halt** is a best-effort broadcast — collapsing traffic back to
//!   control must not itself be blockable by one sick replica;
//! - **promotion** re-points each replica's control slot at the
//!   candidate's resident model (`promote-local`), one replica at a
//!   time, after the router has checked the comparison report against
//!   the [`Guardrails`].
//!
//! The pure report helpers ([`variant_stats_from_merged`],
//! [`interleave_by_variant`]) live here rather than in the router so
//! they can be unit-tested without sockets.
//!
//! [`ModelSlot`]: smgcn_serve::ModelSlot
//! [`Guardrails`]: smgcn_experiment::guardrail::Guardrails

use std::collections::BTreeMap;
use std::net::SocketAddr;

use smgcn_experiment::guardrail::VariantStats;
use smgcn_experiment::interleave::{self, DuelCredit, InterleaveSummary};
pub use smgcn_experiment::DEFAULT_SPLIT_SEED;
use smgcn_experiment::{fnv1a64, splitmix64, SplitPlan, CONTROL};
use smgcn_serve::client::Unanswered;
use smgcn_serve::json::{self, Json};
use smgcn_serve::DuelSample;

use crate::pool::{ask, PoolConfig, Replica, ReplicaPool};
use crate::publish::{members, roll, PublishReport};

/// Permutation rounds behind the comparison report's p-value.
pub const PERMUTATION_ROUNDS: usize = 1024;

/// One replica's outcome in a fleet-wide experiment broadcast
/// (install / halt / promote).
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The replica's address.
    pub addr: SocketAddr,
    /// True when the replica acknowledged the action.
    pub ok: bool,
    /// Failure description when it did not.
    pub error: Option<String>,
}

impl FleetOutcome {
    /// The wire shape inside the router's experiment responses.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("addr", Json::Str(self.addr.to_string())),
            ("ok", Json::Bool(self.ok)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::Str(e.clone())));
        }
        json::obj(fields)
    }
}

/// The `{"op":"experiment","action":…}` request line, `fields` added.
pub(crate) fn action_line(
    action: &str,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> String {
    let verb = [
        ("op", Json::Str("experiment".into())),
        ("action", Json::Str(action.to_string())),
    ];
    json::obj(verb.into_iter().chain(fields)).to_string()
}

/// Sends one experiment action to one replica. With an `ok_field` the
/// ack must carry `ack[ok_field] == true`; without one (halt: a replica
/// that has no plan answers `{"halted":false}`) any answer that is not
/// a refusal will do.
fn experiment_ack(
    replica: &Replica,
    config: &PoolConfig,
    request: &str,
    ok_field: Option<&str>,
) -> FleetOutcome {
    let error = match ask(replica.addr, config, request) {
        Ok(ack) if ok_field.is_none_or(|f| ack.get(f) == Some(&Json::Bool(true))) => None,
        Ok(ack) => Some(format!("unexpected ack: {ack}")),
        Err(refusal @ Unanswered::Refused(_)) => Some(format!("replica refused: {refusal}")),
        Err(transport) => Some(transport.to_string()),
    };
    FleetOutcome {
        addr: replica.addr,
        ok: error.is_none(),
        error,
    }
}

/// Rolls a candidate artifact across the pool — the rollout discipline
/// of [`crate::publish::rolling_publish`] (it is the same walk), aimed
/// at a candidate slot.
pub fn rolling_candidate_publish(
    pool: &ReplicaPool,
    variant: &str,
    artifact_b64: &str,
) -> PublishReport {
    // One request line for the whole rollout: it is as large as the model.
    let line = action_line(
        "publish",
        [
            ("variant", Json::Str(variant.to_string())),
            ("artifact", Json::Str(artifact_b64.to_string())),
        ],
    );
    let wording = ("candidate publish", "candidate publish failed");
    roll(members(pool), &pool.config(), &line, wording)
}

/// Install preflight: every replica must be reachable and must already
/// serve every *weighted* variant of `plan`. Runs before any replica is
/// touched, so a rejection leaves the fleet exactly as it was — the
/// atomicity half of "install is all-or-nothing".
///
/// `Err((code, message))` uses the shared wire codes: `unknown_variant`
/// when a replica lacks a slot, `partial` when one cannot be asked.
pub fn preflight_install(
    pool: &ReplicaPool,
    plan: &SplitPlan,
) -> Result<(), (&'static str, String)> {
    use smgcn_serve::errors::codes;
    let needed: Vec<&str> = plan
        .weights()
        .iter()
        .filter(|(name, weight)| name != CONTROL && *weight > 0)
        .map(|(name, _)| name.as_str())
        .collect();
    let status_req = action_line("status", []);
    let config = pool.config();
    for replica in pool.replicas() {
        if !replica.available() {
            return Err((
                codes::PARTIAL,
                format!(
                    "replica {} is ejected; a split cannot be installed atomically",
                    replica.addr
                ),
            ));
        }
        let status = ask(replica.addr, &config, &status_req)
            .map_err(|e| (codes::PARTIAL, format!("replica {}: {e}", replica.addr)))?;
        let served: Vec<&str> = status
            .get("variants")
            .and_then(Json::as_arr)
            .map(|vs| {
                vs.iter()
                    .filter_map(|v| v.get("name").and_then(Json::as_str))
                    .collect()
            })
            .unwrap_or_default();
        for name in &needed {
            if !served.contains(name) {
                return Err((
                    codes::UNKNOWN_VARIANT,
                    format!(
                        "replica {} does not serve variant {name:?}; publish it everywhere first",
                        replica.addr
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Installs `plan` on every replica in pool order. The caller preflights
/// first and rolls back (fleet halt) if any outcome failed.
pub fn install_everywhere(pool: &ReplicaPool, plan: &SplitPlan) -> Vec<FleetOutcome> {
    let request = action_line("install", [("plan", Json::Str(plan.to_canonical()))]);
    let config = pool.config();
    let install = |replica| experiment_ack(replica, &config, &request, Some("installed"));
    pool.replicas().iter().map(install).collect()
}

/// Broadcasts a halt to every replica, ejected or not — collapsing
/// traffic back to control is the emergency path and must reach
/// whatever answers.
pub fn halt_everywhere(pool: &ReplicaPool) -> Vec<FleetOutcome> {
    let request = action_line("halt", []);
    let config = pool.config();
    let halt = |replica| experiment_ack(replica, &config, &request, None);
    pool.replicas().iter().map(halt).collect()
}

/// Rolls `promote-local` across the fleet one replica at a time,
/// stopping at the first failure (the caller reports how far it got —
/// replicas already promoted keep the new control, exactly like a
/// rolling publish that stops midway).
///
/// Not `publish::roll`: that walk continues past a transport
/// failure and steers ejection, while a promotion must stop at *any*
/// failure — there is no artifact to blame, and a fleet half on the
/// new control is what the caller has to report — and observes health
/// without touching it.
pub fn promote_everywhere(pool: &ReplicaPool, variant: &str) -> Vec<FleetOutcome> {
    let request = action_line(
        "promote-local",
        [("variant", Json::Str(variant.to_string()))],
    );
    let config = pool.config();
    let mut outcomes = Vec::with_capacity(pool.len());
    for replica in pool.replicas() {
        outcomes.push(experiment_ack(replica, &config, &request, Some("promoted")));
        if outcomes.last().is_some_and(|o| !o.ok) {
            break;
        }
    }
    outcomes
}

/// Extracts per-variant serving stats from a fleet-merged metrics map
/// (the output of [`crate::router::merge_metrics`] over replica
/// snapshots). Requests and errors come from the variant-labeled
/// counters; p99 is the since-start `total_p99_us` of the labeled
/// latency histogram, whose fleet merge takes the worst replica.
pub fn variant_stats_from_merged(
    merged: &BTreeMap<String, Json>,
    names: &[String],
) -> Vec<VariantStats> {
    let num = |key: String| -> u64 {
        merged
            .get(&key)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .unwrap_or(0)
    };
    names
        .iter()
        .map(|name| VariantStats {
            name: name.clone(),
            requests: num(format!(
                "serve_variant_requests_total{{variant=\"{name}\"}}"
            )),
            errors: num(format!("serve_variant_errors_total{{variant=\"{name}\"}}")),
            p99_us: merged
                .get(&format!("serve_variant_latency_us{{variant=\"{name}\"}}"))
                .and_then(|h| h.get("total_p99_us"))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64,
        })
        .collect()
}

/// Team-draft interleaving summaries per candidate, from the fleet's
/// journaled duel samples. Each duel's draft coin is seeded from the
/// split seed and the sample's symptom set, so the report is
/// reproducible from the same journal.
pub fn interleave_by_variant(
    samples: &[DuelSample],
    seed: u64,
) -> Vec<(String, InterleaveSummary)> {
    let mut by_variant: BTreeMap<&str, Vec<DuelCredit>> = BTreeMap::new();
    for (i, sample) in samples.iter().enumerate() {
        let sym_bytes: Vec<u8> = sample
            .symptom_ids
            .iter()
            .flat_map(|id| id.to_le_bytes())
            .collect();
        let duel_seed = splitmix64(seed ^ fnv1a64(&sym_bytes) ^ (i as u64).wrapping_mul(0x9e37));
        by_variant
            .entry(&sample.variant)
            .or_default()
            .push(interleave::team_draft_credit(
                &sample.control_top,
                &sample.candidate_top,
                duel_seed,
            ));
    }
    by_variant
        .into_iter()
        .map(|(variant, credits)| {
            let summary = interleave::summarize(&credits, seed, PERMUTATION_ROUNDS);
            (variant.to_string(), summary)
        })
        .collect()
}

/// The wire shape of one [`InterleaveSummary`] in the compare report.
pub fn interleave_summary_json(variant: &str, s: &InterleaveSummary) -> Json {
    json::obj([
        ("variant", Json::Str(variant.to_string())),
        ("duels", Json::Num(s.duels as f64)),
        ("candidate_wins", Json::Num(s.candidate_wins as f64)),
        ("control_wins", Json::Num(s.control_wins as f64)),
        ("ties", Json::Num(s.ties as f64)),
        ("mean_delta", Json::Num(s.mean_delta)),
        ("p_value", Json::Num(s.p_value)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged_with(entries: &[(&str, Json)]) -> BTreeMap<String, Json> {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn variant_stats_read_labeled_keys() {
        let merged = merged_with(&[
            (
                "serve_variant_requests_total{variant=\"control\"}",
                Json::Num(900.0),
            ),
            (
                "serve_variant_errors_total{variant=\"control\"}",
                Json::Num(3.0),
            ),
            (
                "serve_variant_latency_us{variant=\"control\"}",
                json::obj([("total_p99_us", Json::Num(420.0))]),
            ),
            (
                "serve_variant_requests_total{variant=\"cand\"}",
                Json::Num(100.0),
            ),
        ]);
        let stats =
            variant_stats_from_merged(&merged, &["control".to_string(), "cand".to_string()]);
        assert_eq!(stats[0].requests, 900);
        assert_eq!(stats[0].errors, 3);
        assert_eq!(stats[0].p99_us, 420);
        assert_eq!(stats[1].requests, 100);
        assert_eq!(stats[1].errors, 0, "absent counters read as zero");
        assert_eq!(stats[1].p99_us, 0);
    }

    #[test]
    fn interleaving_groups_by_variant_and_is_deterministic() {
        let sample = |variant: &str, flip: bool| DuelSample {
            variant: variant.to_string(),
            symptom_ids: vec![1, 2, 3],
            k: 3,
            candidate_top: if flip {
                vec![(1, 0.9), (2, 0.5), (3, 0.1)]
            } else {
                vec![(3, 0.9), (2, 0.5), (1, 0.1)]
            },
            control_top: vec![(1, 0.9), (2, 0.5), (3, 0.1)],
        };
        let samples = vec![
            sample("a", true),
            sample("b", false),
            sample("a", true),
            sample("b", false),
        ];
        let one = interleave_by_variant(&samples, 7);
        let two = interleave_by_variant(&samples, 7);
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].0, "a");
        assert_eq!(one[1].0, "b");
        for ((va, sa), (vb, sb)) in one.iter().zip(&two) {
            assert_eq!(va, vb);
            assert_eq!(sa.mean_delta, sb.mean_delta, "report must be reproducible");
            assert_eq!(sa.p_value, sb.p_value);
        }
        assert_eq!(one[0].1.duels, 2);
    }
}
