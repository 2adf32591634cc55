//! Per-scenario SLO contracts and their evaluation.
//!
//! Three classes of assertion, mirroring what production cares about:
//!
//! - **latency budget** — client-observed p99 under the scenario's
//!   ceiling (budgets are smoke-safe: generous enough for a loaded CI
//!   runner, tight enough that a 2x serving regression trips them);
//! - **error budget** — client-visible failures; every scenario's budget
//!   is zero (the router/retry machinery exists precisely so bursts,
//!   publishes and replica kills never surface to clients);
//! - **generation consistency** — every response matches the model
//!   generation it claims (exact precomputed rankings for synthetic
//!   topologies, per-connection monotonicity under live refreshes).
//!
//! Beside them ride the alert contract and, for `connection-storm`, the
//! cohort's own promises (every connection held by the server at once,
//! bounded memory).

/// How generation consistency is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenCheck {
    /// No generation invariant (no publishes possible).
    None,
    /// Generations must be non-decreasing per connection (live refresh:
    /// exact rankings are not precomputable, mixing still is detectable).
    Monotone,
    /// Every response's ranking must equal the precomputed ranking of
    /// the generation it claims, and its herb names must carry that
    /// generation's tag.
    ExactRankings,
    /// Experiment mode: every response is validated against the
    /// *variant* it claims (control when unlabeled) — exact rankings,
    /// herb names carrying the variant's artifact tag, the variant's
    /// expected generation — and a client's assigned variant must never
    /// flap for the lifetime of the split.
    VariantRankings,
}

impl GenCheck {
    /// The report label.
    pub fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Monotone => "monotone",
            Self::ExactRankings => "exact-rankings",
            Self::VariantRankings => "variant-rankings",
        }
    }
}

/// One scenario's pass/fail contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slo {
    /// Client-observed p99 ceiling, milliseconds.
    pub max_p99_ms: f64,
    /// Failed-request budget (zero everywhere: error budget must not
    /// burn at all during planned chaos).
    pub max_failures: usize,
    /// The generation invariant in force.
    pub generation_consistency: GenCheck,
}

/// What execution measured, as the SLO evaluator needs it.
#[derive(Clone, Debug, Default)]
pub struct SloInputs {
    /// Requests that completed (success or failure).
    pub executed: usize,
    /// Requests the schedule planned.
    pub scheduled: usize,
    /// Client-visible failures (error responses, transport failures).
    pub failures: usize,
    /// Client-observed p99, milliseconds.
    pub p99_ms: f64,
    /// Server-side error count derived from the fleet's metric counters
    /// (non-retryable serve errors plus requests the router exhausted);
    /// `None` when no metrics snapshot was available. This is the
    /// server's own ledger — it must agree with the client-side
    /// `failures` view, so it shares the same budget.
    pub counter_errors: Option<u64>,
    /// Invariant violations collected by workers (bounded sample).
    pub violations: Vec<String>,
    /// Burn-rate alerting contract failures: a rule the scenario
    /// expected to fire that stayed silent, or one it expected silent
    /// that paged. Empty when the alert plan held (or had no rules).
    pub alert_failures: Vec<String>,
    /// Connection-storm promises the held cohort broke
    /// ([`crate::StormSpec::violations`]); empty without a storm.
    pub storm_failures: Vec<String>,
}

/// The verdict: empty `violations` means the SLO held.
#[derive(Clone, Debug)]
pub struct SloVerdict {
    /// Every violated assertion, human-readable, machine-greppable.
    pub violations: Vec<String>,
}

impl SloVerdict {
    /// True when the scenario met its contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Evaluates `inputs` against `slo`.
pub fn evaluate(slo: &Slo, inputs: &SloInputs) -> SloVerdict {
    let mut violations = Vec::new();
    if inputs.executed < inputs.scheduled {
        violations.push(format!(
            "incomplete run: executed {} of {} scheduled requests",
            inputs.executed, inputs.scheduled
        ));
    }
    if inputs.failures > slo.max_failures {
        violations.push(format!(
            "error budget burned: {} failed request(s), budget {}",
            inputs.failures, slo.max_failures
        ));
    }
    if let Some(errors) = inputs.counter_errors {
        if errors as usize > slo.max_failures {
            violations.push(format!(
                "counter error budget burned: metric counters recorded {errors} \
                 server-side error(s), budget {}",
                slo.max_failures
            ));
        }
    }
    if inputs.p99_ms > slo.max_p99_ms {
        violations.push(format!(
            "latency budget blown: p99 {:.2} ms > {:.2} ms",
            inputs.p99_ms, slo.max_p99_ms
        ));
    }
    for v in &inputs.violations {
        violations.push(format!(
            "{} violated: {v}",
            slo.generation_consistency.name()
        ));
    }
    for f in &inputs.alert_failures {
        violations.push(format!("alert contract violated: {f}"));
    }
    violations.extend(inputs.storm_failures.iter().cloned());
    SloVerdict { violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo() -> Slo {
        Slo {
            max_p99_ms: 100.0,
            max_failures: 0,
            generation_consistency: GenCheck::ExactRankings,
        }
    }

    fn clean(scheduled: usize) -> SloInputs {
        SloInputs {
            executed: scheduled,
            scheduled,
            failures: 0,
            p99_ms: 10.0,
            counter_errors: Some(0),
            violations: Vec::new(),
            alert_failures: Vec::new(),
            storm_failures: Vec::new(),
        }
    }

    #[test]
    fn clean_run_passes() {
        assert!(evaluate(&slo(), &clean(100)).passed());
    }

    #[test]
    fn each_budget_trips_independently() {
        let mut slow = clean(100);
        slow.p99_ms = 101.0;
        let v = evaluate(&slo(), &slow);
        assert!(!v.passed());
        assert!(v.violations[0].contains("latency"));

        let mut failing = clean(100);
        failing.failures = 1;
        assert!(evaluate(&slo(), &failing)
            .violations
            .iter()
            .any(|v| v.contains("error budget")));

        let mut short = clean(100);
        short.executed = 99;
        assert!(evaluate(&slo(), &short)
            .violations
            .iter()
            .any(|v| v.contains("incomplete")));

        let mut leaky = clean(100);
        leaky.counter_errors = Some(2);
        assert!(evaluate(&slo(), &leaky)
            .violations
            .iter()
            .any(|v| v.contains("counter error budget")));
        // No snapshot means no counter assertion, not a violation.
        let mut blind = clean(100);
        blind.counter_errors = None;
        assert!(evaluate(&slo(), &blind).passed());

        let mut mixed = clean(100);
        mixed.violations.push("gen 1 ranking != expected".into());
        assert!(evaluate(&slo(), &mixed)
            .violations
            .iter()
            .any(|v| v.contains("exact-rankings violated")));

        let mut paged = clean(100);
        paged
            .alert_failures
            .push("rule \"availability-burn\" fired on a clean run".into());
        assert!(evaluate(&slo(), &paged)
            .violations
            .iter()
            .any(|v| v.contains("alert contract violated")));
    }
}
