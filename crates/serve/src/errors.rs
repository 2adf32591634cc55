//! The structured wire error codes, in one place.
//!
//! Every error a server or router puts on the wire is
//! `{"error":{"code":…,"message":…,"retryable":…}}`, and the router's
//! failover logic *branches* on the code: retryable codes mean "the
//! request was never scored, replay it on another replica", everything
//! else means "the client (or the artifact) is wrong, replaying won't
//! help". Before this module the code strings were scattered as literals
//! across `smgcn-serve` and `smgcn-cluster`; a typo on either side would
//! silently break retry classification. Servers emit [`codes`] constants
//! and the router classifies with [`is_retryable`], so the two can't
//! drift.

/// The machine-readable error codes of the NDJSON protocol.
pub mod codes {
    /// The request line was not valid JSON.
    pub const BAD_JSON: &str = "bad_json";
    /// The request was structurally wrong (missing/mistyped fields).
    pub const BAD_REQUEST: &str = "bad_request";
    /// `k` was missing its bounds (zero, non-integer, above `MAX_K`).
    pub const BAD_K: &str = "bad_k";
    /// A symptom name not in the serving vocabulary.
    pub const UNKNOWN_SYMPTOM: &str = "unknown_symptom";
    /// The symptom set was empty.
    pub const EMPTY_SYMPTOMS: &str = "empty_symptoms";
    /// A symptom id beyond the model's vocabulary size.
    pub const SYMPTOM_OUT_OF_RANGE: &str = "symptom_out_of_range";
    /// A symptom id appeared more than once.
    pub const DUPLICATE_SYMPTOM: &str = "duplicate_symptom";
    /// An unrecognised `"op"`.
    pub const UNKNOWN_OP: &str = "unknown_op";
    /// Shed at the connection cap — transient, never scored, retryable.
    pub const OVERLOADED: &str = "overloaded";
    /// The scorer itself failed (model-side bug or damage).
    pub const SCORING_FAILED: &str = "scoring_failed";
    /// A publish artifact that failed validation (bad base64, bad
    /// magic/version, checksum mismatch, malformed payload). The live
    /// generation is untouched.
    pub const BAD_ARTIFACT: &str = "bad_artifact";
    /// The request's `deadline_ms` budget ran out before scoring; the
    /// client has (by its own declaration) stopped waiting, so this is
    /// deliberately **not** retryable — replaying a dead request burns
    /// capacity with no reader.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// A request (or a split-plan install) named a variant this
    /// replica does not serve.
    pub const UNKNOWN_VARIANT: &str = "unknown_variant";
    /// A split plan failed validation (bad weights, bad canonical
    /// encoding, missing control entry).
    pub const BAD_PLAN: &str = "bad_plan";
    /// Router: a promotion was refused because the comparison report
    /// does not clear the configured guardrails.
    pub const GUARDRAIL: &str = "guardrail";
    /// Router: every candidate replica is ejected or unreachable.
    pub const NO_REPLICAS: &str = "no_replicas";
    /// Router: a fleet-wide admin op succeeded on some replicas only.
    pub const PARTIAL: &str = "partial";
}

/// Whether an error code marks a request that was shed *before* scoring
/// and is therefore safe to replay on another replica. This is the
/// router's failover classification — the single source of truth.
pub fn is_retryable(code: &str) -> bool {
    code == codes::OVERLOADED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pre_scoring_sheds_are_retryable() {
        assert!(is_retryable(codes::OVERLOADED));
        for terminal in [
            codes::BAD_JSON,
            codes::BAD_REQUEST,
            codes::BAD_K,
            codes::UNKNOWN_SYMPTOM,
            codes::EMPTY_SYMPTOMS,
            codes::SYMPTOM_OUT_OF_RANGE,
            codes::DUPLICATE_SYMPTOM,
            codes::UNKNOWN_OP,
            codes::SCORING_FAILED,
            codes::BAD_ARTIFACT,
            codes::DEADLINE_EXCEEDED,
            codes::UNKNOWN_VARIANT,
            codes::BAD_PLAN,
            codes::GUARDRAIL,
            codes::NO_REPLICAS,
            codes::PARTIAL,
        ] {
            assert!(!is_retryable(terminal), "{terminal} must not be retryable");
        }
    }
}
