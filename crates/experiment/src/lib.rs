//! Experiment plane for the SMGCN serving stack.
//!
//! Std-only building blocks shared by the replica, the router, and the
//! CLI:
//!
//! - [`SplitPlan`] — a seeded, versioned weighted traffic split over
//!   named variants. Assignment is sticky: a bucket map (100 buckets)
//!   is computed once at construction and carried verbatim through the
//!   wire codec, so every replica and every re-install agrees on the
//!   exact same key → variant mapping. Plan updates move buckets only
//!   from shrinking variants to growing ones, so a key whose variant's
//!   weight did not change is never reassigned.
//! - [`interleave`] — team-draft interleaving of two top-k rankings
//!   with per-position credit assignment and a seeded-permutation
//!   significance check.
//! - [`guardrail`] — promotion guardrails (error rate, p99 delta,
//!   minimum sample count) evaluated against per-variant stats.
//!
//! The crate depends on nothing but std; serialization uses a canonical
//! single-line string codec (like the fault plane's storm plans) so the
//! NDJSON wire can carry plans as ordinary JSON strings.

use std::collections::BTreeMap;
use std::fmt;

/// Reserved name of the baseline variant. Always present in a plan.
pub const CONTROL: &str = "control";

/// Number of hash buckets in a split plan. Weights are integer
/// percents summing to 100, so each bucket is exactly one percent.
pub const BUCKETS: usize = 100;

/// Seed minted for splits installed from a bare weight spec (no explicit
/// `"seed"`). Any fixed value works — determinism across replicas comes
/// from carrying the seed *in the canonical plan*, not from this choice.
pub const DEFAULT_SPLIT_SEED: u64 = 0x534d_4743_4e20;

/// FNV-1a 64-bit hash — stable across platforms and releases.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer — decorrelates the FNV output from the seed.
/// Inline: the router's hash ring mixes with it on every request.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Minimal deterministic bit stream used for draft coins and
/// permutation flips. Not cryptographic.
struct BitStream {
    state: u64,
    word: u64,
    left: u32,
}

impl BitStream {
    fn new(seed: u64) -> Self {
        Self {
            state: seed,
            word: 0,
            left: 0,
        }
    }

    fn next_bit(&mut self) -> bool {
        if self.left == 0 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            self.word = splitmix64(self.state);
            self.left = 64;
        }
        let bit = self.word & 1 == 1;
        self.word >>= 1;
        self.left -= 1;
        bit
    }
}

/// Errors raised when building or parsing a [`SplitPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Weights are empty, or the reserved control entry is missing.
    MissingControl,
    /// A variant name is empty, repeated, or uses characters outside
    /// `[a-z0-9_-]`.
    BadName(String),
    /// Weights do not sum to exactly 100.
    BadSum(u32),
    /// A canonical string failed to parse; the payload says where.
    BadCanonical(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::MissingControl => write!(f, "plan must include a '{CONTROL}' entry"),
            PlanError::BadName(n) => write!(f, "bad variant name {n:?} (want [a-z0-9_-]+)"),
            PlanError::BadSum(s) => write!(f, "weights sum to {s}, want exactly 100"),
            PlanError::BadCanonical(why) => write!(f, "bad canonical plan: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// A seeded, versioned weighted traffic split over named variants.
///
/// The bucket map is part of the plan's identity: it is computed once
/// (at [`SplitPlan::new`] or derived by [`SplitPlan::update`]) and
/// carried through [`SplitPlan::to_canonical`], so two replicas that
/// install the same canonical string agree bit-for-bit on every
/// assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    version: u64,
    seed: u64,
    weights: Vec<(String, u32)>,
    buckets: Vec<u8>, // BUCKETS entries, each an index into `weights`
}

impl SplitPlan {
    /// Build a fresh plan. `weights` are integer percents that must sum
    /// to exactly 100 and must include [`CONTROL`]. Buckets are filled
    /// contiguously in the given order.
    pub fn new(seed: u64, version: u64, weights: &[(String, u32)]) -> Result<Self, PlanError> {
        Self::validate(weights)?;
        let mut buckets = Vec::with_capacity(BUCKETS);
        for (idx, (_, w)) in weights.iter().enumerate() {
            for _ in 0..*w {
                buckets.push(idx as u8);
            }
        }
        debug_assert_eq!(buckets.len(), BUCKETS);
        Ok(Self {
            version,
            seed,
            weights: weights.to_vec(),
            buckets,
        })
    }

    fn validate(weights: &[(String, u32)]) -> Result<(), PlanError> {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in weights {
            if !valid_name(name) {
                return Err(PlanError::BadName(name.clone()));
            }
            if !seen.insert(name.as_str()) {
                return Err(PlanError::BadName(name.clone()));
            }
        }
        if !seen.contains(CONTROL) {
            return Err(PlanError::MissingControl);
        }
        let sum: u32 = weights.iter().map(|(_, w)| *w).sum();
        if sum != 100 {
            return Err(PlanError::BadSum(sum));
        }
        Ok(())
    }

    /// Derive the next plan from this one, preserving the buckets of
    /// every variant whose weight did not change. Only buckets freed by
    /// shrinking (or removed) variants are handed to growing (or new)
    /// variants, so sticky assignments churn minimally: a key moves
    /// only if its variant shrank.
    pub fn update(&self, new_weights: &[(String, u32)]) -> Result<Self, PlanError> {
        Self::validate(new_weights)?;
        let name_to_new: BTreeMap<&str, u8> = new_weights
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.as_str(), i as u8))
            .collect();

        // Re-express the old bucket map in new indices; buckets whose
        // variant vanished are freed immediately.
        let mut buckets: Vec<Option<u8>> = self
            .buckets
            .iter()
            .map(|&old_idx| {
                let name = self.weights[old_idx as usize].0.as_str();
                name_to_new.get(name).copied()
            })
            .collect();

        // Free the excess buckets of shrinking variants, highest index
        // first so the low (stable) end of each variant's range stays.
        let mut counts = vec![0u32; new_weights.len()];
        for b in buckets.iter().flatten() {
            counts[*b as usize] += 1;
        }
        for (idx, (_, target)) in new_weights.iter().enumerate() {
            let mut excess = counts[idx].saturating_sub(*target);
            if excess == 0 {
                continue;
            }
            for slot in buckets.iter_mut().rev() {
                if excess == 0 {
                    break;
                }
                if *slot == Some(idx as u8) {
                    *slot = None;
                    excess -= 1;
                }
            }
        }

        // Hand freed buckets (ascending) to under-target variants in
        // declaration order.
        let mut free: Vec<usize> = buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.is_none().then_some(i))
            .collect();
        free.reverse(); // pop() yields ascending indices
        for (idx, (_, target)) in new_weights.iter().enumerate() {
            while counts[idx] < *target {
                let slot = free
                    .pop()
                    .expect("weights sum to 100 ⇒ enough free buckets");
                buckets[slot] = Some(idx as u8);
                counts[idx] += 1;
            }
        }

        Ok(Self {
            version: self.version + 1,
            seed: self.seed,
            weights: new_weights.to_vec(),
            buckets: buckets
                .into_iter()
                .map(|b| b.expect("all filled"))
                .collect(),
        })
    }

    /// Deterministically assign a sticky key to a variant name.
    pub fn assign(&self, sticky_key: &str) -> &str {
        let h = splitmix64(self.seed ^ fnv1a64(sticky_key.as_bytes()));
        let idx = self.buckets[(h % BUCKETS as u64) as usize];
        &self.weights[idx as usize].0
    }

    /// Plan version, bumped by [`SplitPlan::update`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The hash seed shared by every assignment.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `(name, percent)` pairs in declaration order.
    pub fn weights(&self) -> &[(String, u32)] {
        &self.weights
    }

    /// Percent of traffic for `name`, if present in the plan.
    pub fn weight_of(&self, name: &str) -> Option<u32> {
        self.weights
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| *w)
    }

    /// Non-control variant names in declaration order.
    pub fn candidates(&self) -> impl Iterator<Item = &str> {
        self.weights
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| *n != CONTROL)
    }

    /// Canonical single-line encoding. Carries the bucket map, so the
    /// decoded plan assigns identically on every host.
    pub fn to_canonical(&self) -> String {
        let weights = self
            .weights
            .iter()
            .map(|(n, w)| format!("{n}:{w}"))
            .collect::<Vec<_>>()
            .join(",");
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(".");
        format!(
            "v1;seed={};version={};weights={};buckets={}",
            self.seed, self.version, weights, buckets
        )
    }

    /// Parse a [`SplitPlan::to_canonical`] string.
    pub fn from_canonical(s: &str) -> Result<Self, PlanError> {
        let bad = |why: &str| PlanError::BadCanonical(why.to_string());
        let mut parts = s.split(';');
        if parts.next() != Some("v1") {
            return Err(bad("missing v1 prefix"));
        }
        let mut seed = None;
        let mut version = None;
        let mut weights: Option<Vec<(String, u32)>> = None;
        let mut buckets: Option<Vec<u8>> = None;
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad("field missing '='"))?;
            match key {
                "seed" => seed = Some(value.parse().map_err(|_| bad("seed not a u64"))?),
                "version" => version = Some(value.parse().map_err(|_| bad("version not a u64"))?),
                "weights" => {
                    let mut ws = Vec::new();
                    for entry in value.split(',') {
                        let (name, w) = entry
                            .split_once(':')
                            .ok_or_else(|| bad("weight missing ':'"))?;
                        let w: u32 = w.parse().map_err(|_| bad("weight not a u32"))?;
                        ws.push((name.to_string(), w));
                    }
                    weights = Some(ws);
                }
                "buckets" => {
                    let mut bs = Vec::new();
                    for entry in value.split('.') {
                        bs.push(entry.parse().map_err(|_| bad("bucket not a u8"))?);
                    }
                    buckets = Some(bs);
                }
                _ => return Err(bad("unknown field")),
            }
        }
        let (seed, version, weights, buckets) = match (seed, version, weights, buckets) {
            (Some(s), Some(v), Some(w), Some(b)) => (s, v, w, b),
            _ => return Err(bad("missing field")),
        };
        Self::validate(&weights).map_err(|e| bad(&e.to_string()))?;
        if buckets.len() != BUCKETS {
            return Err(bad("bucket map must have exactly 100 entries"));
        }
        let mut counts = vec![0u32; weights.len()];
        for &b in &buckets {
            let slot = counts
                .get_mut(b as usize)
                .ok_or_else(|| bad("bucket index out of range"))?;
            *slot += 1;
        }
        for (idx, (_, w)) in weights.iter().enumerate() {
            if counts[idx] != *w {
                return Err(bad("bucket counts disagree with weights"));
            }
        }
        Ok(Self {
            version,
            seed,
            weights,
            buckets,
        })
    }

    /// Stable digest of the canonical encoding, for cross-replica
    /// agreement checks.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_canonical().as_bytes())
    }
}

/// Parse a `name:weight,name:weight` CLI spec into plan weights.
pub fn parse_weight_spec(spec: &str) -> Result<Vec<(String, u32)>, PlanError> {
    let mut weights = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        let (name, w) = entry.split_once(':').ok_or_else(|| {
            PlanError::BadCanonical(format!("weight entry {entry:?} missing ':'"))
        })?;
        let w: u32 = w
            .trim()
            .parse()
            .map_err(|_| PlanError::BadCanonical(format!("weight in {entry:?} not a u32")))?;
        weights.push((name.trim().to_string(), w));
    }
    Ok(weights)
}

pub mod interleave {
    //! Team-draft interleaving of two top-k rankings.
    //!
    //! Each duel interleaves the control and candidate rankings with a
    //! seeded coin deciding which team drafts first per round; every
    //! drafted item earns its team position-discounted credit weighted
    //! by a judge score (the mean of the item's min-max-normalized
    //! scores under both rankers). A seeded sign-flip permutation test
    //! turns per-duel credit deltas into a significance estimate.

    use super::BitStream;

    /// Credit earned by each side in one interleaved duel.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DuelCredit {
        /// Credit drafted by the control ranking.
        pub control: f64,
        /// Credit drafted by the candidate ranking.
        pub candidate: f64,
    }

    impl DuelCredit {
        /// candidate − control.
        pub fn delta(&self) -> f64 {
            self.candidate - self.control
        }
    }

    fn normalized(list: &[(u32, f32)]) -> Vec<(u32, f64)> {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, s) in list {
            let s = s as f64;
            lo = lo.min(s);
            hi = hi.max(s);
        }
        let span = (hi - lo).max(1e-12);
        list.iter()
            .map(|&(id, s)| {
                (
                    id,
                    if list.len() == 1 {
                        1.0
                    } else {
                        (s as f64 - lo) / span
                    },
                )
            })
            .collect()
    }

    fn judge(id: u32, a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
        let score = |list: &[(u32, f64)]| {
            list.iter()
                .find(|(i, _)| *i == id)
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        };
        (score(a) + score(b)) / 2.0
    }

    /// Run one team-draft duel between two `(id, score)` rankings.
    ///
    /// Deterministic for a given `(seed, rankings)` pair, so replicas
    /// and the router reproduce identical credit from journaled
    /// samples.
    pub fn team_draft_credit(
        control: &[(u32, f32)],
        candidate: &[(u32, f32)],
        seed: u64,
    ) -> DuelCredit {
        let ctrl_norm = normalized(control);
        let cand_norm = normalized(candidate);
        let mut coins = BitStream::new(seed);
        let mut taken = std::collections::BTreeSet::new();
        let mut credit = DuelCredit {
            control: 0.0,
            candidate: 0.0,
        };
        let (mut ci, mut ki) = (0usize, 0usize);
        let mut pos = 0usize;
        let target = control.len().max(candidate.len());
        while pos < target {
            let cand_first = coins.next_bit();
            for side in 0..2 {
                let draft_candidate = (side == 0) == cand_first;
                let (list, cursor) = if draft_candidate {
                    (candidate, &mut ki)
                } else {
                    (control, &mut ci)
                };
                while *cursor < list.len() && taken.contains(&list[*cursor].0) {
                    *cursor += 1;
                }
                if *cursor >= list.len() {
                    continue;
                }
                let id = list[*cursor].0;
                taken.insert(id);
                let discount = 1.0 / ((pos as f64) + 2.0).log2();
                let gain = judge(id, &ctrl_norm, &cand_norm) * discount;
                if draft_candidate {
                    credit.candidate += gain;
                } else {
                    credit.control += gain;
                }
                pos += 1;
            }
            if ci >= control.len() && ki >= candidate.len() {
                break;
            }
        }
        credit
    }

    /// Aggregate duel credits into a comparison verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InterleaveSummary {
        /// Number of duels aggregated.
        pub duels: u64,
        /// Duels where the candidate out-drafted control.
        pub candidate_wins: u64,
        /// Duels where control out-drafted the candidate.
        pub control_wins: u64,
        /// Duels with equal credit.
        pub ties: u64,
        /// Mean of (candidate − control) credit.
        pub mean_delta: f64,
        /// Seeded-permutation p-value for |mean_delta| under the null
        /// of no preference. 1.0 when there are no duels.
        pub p_value: f64,
    }

    /// Summarize per-duel credit deltas with a sign-flip permutation
    /// significance check (`rounds` resamples from `seed`).
    pub fn summarize(credits: &[DuelCredit], seed: u64, rounds: usize) -> InterleaveSummary {
        let deltas: Vec<f64> = credits.iter().map(DuelCredit::delta).collect();
        let mut summary = InterleaveSummary {
            duels: deltas.len() as u64,
            candidate_wins: deltas.iter().filter(|d| **d > 0.0).count() as u64,
            control_wins: deltas.iter().filter(|d| **d < 0.0).count() as u64,
            ties: deltas.iter().filter(|d| **d == 0.0).count() as u64,
            mean_delta: 0.0,
            p_value: 1.0,
        };
        if deltas.is_empty() {
            return summary;
        }
        let n = deltas.len() as f64;
        summary.mean_delta = deltas.iter().sum::<f64>() / n;
        let observed = summary.mean_delta.abs();
        let mut coins = BitStream::new(seed);
        let mut at_least = 0usize;
        for _ in 0..rounds {
            let mut sum = 0.0;
            for d in &deltas {
                sum += if coins.next_bit() { *d } else { -*d };
            }
            if (sum / n).abs() >= observed - 1e-15 {
                at_least += 1;
            }
        }
        summary.p_value = (at_least as f64 + 1.0) / (rounds as f64 + 1.0);
        summary
    }
}

pub mod guardrail {
    //! Promotion guardrails: a candidate may replace control only when
    //! its observed error rate, tail latency, and sample volume clear
    //! configured bars.

    /// Thresholds a candidate must clear before promotion.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Guardrails {
        /// Maximum candidate error rate (errors / requests).
        pub max_error_rate: f64,
        /// Maximum fractional p99 regression vs control, e.g. `0.25`
        /// allows candidate p99 up to 1.25× control p99.
        pub max_p99_delta: f64,
        /// Minimum candidate request count before a verdict counts.
        pub min_samples: u64,
    }

    impl Default for Guardrails {
        fn default() -> Self {
            Self {
                max_error_rate: 0.01,
                max_p99_delta: 0.25,
                min_samples: 50,
            }
        }
    }

    /// Observed per-variant serving stats fed to the guardrail check.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct VariantStats {
        /// Variant name.
        pub name: String,
        /// Requests served by the variant.
        pub requests: u64,
        /// Errors attributed to the variant.
        pub errors: u64,
        /// p99 latency in microseconds.
        pub p99_us: u64,
    }

    impl VariantStats {
        /// errors / requests, 0 when idle.
        pub fn error_rate(&self) -> f64 {
            if self.requests == 0 {
                0.0
            } else {
                self.errors as f64 / self.requests as f64
            }
        }
    }

    /// Evaluate guardrails; returns human-readable violations (empty ⇒
    /// the candidate may be promoted).
    pub fn check(
        control: &VariantStats,
        candidate: &VariantStats,
        guardrails: &Guardrails,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        if candidate.requests < guardrails.min_samples {
            violations.push(format!(
                "candidate served {} requests, need at least {}",
                candidate.requests, guardrails.min_samples
            ));
        }
        let err = candidate.error_rate();
        if err > guardrails.max_error_rate {
            violations.push(format!(
                "candidate error rate {:.4} exceeds {:.4}",
                err, guardrails.max_error_rate
            ));
        }
        if control.p99_us > 0 {
            let ceiling = control.p99_us as f64 * (1.0 + guardrails.max_p99_delta);
            if candidate.p99_us as f64 > ceiling {
                violations.push(format!(
                    "candidate p99 {}us exceeds {:.0}us (control {}us + {:.0}%)",
                    candidate.p99_us,
                    ceiling,
                    control.p99_us,
                    guardrails.max_p99_delta * 100.0
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, spec: &str) -> SplitPlan {
        SplitPlan::new(seed, 1, &parse_weight_spec(spec).unwrap()).unwrap()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("client-{i}")).collect()
    }

    #[test]
    fn rejects_bad_plans() {
        assert!(matches!(
            SplitPlan::new(1, 1, &parse_weight_spec("cand:100").unwrap()),
            Err(PlanError::MissingControl)
        ));
        assert!(matches!(
            SplitPlan::new(1, 1, &parse_weight_spec("control:90,cand:20").unwrap()),
            Err(PlanError::BadSum(110))
        ));
        assert!(matches!(
            SplitPlan::new(1, 1, &[("control".into(), 50), ("Bad Name".into(), 50)]),
            Err(PlanError::BadName(_))
        ));
        assert!(matches!(
            SplitPlan::new(1, 1, &[("control".into(), 50), ("control".into(), 50)]),
            Err(PlanError::BadName(_))
        ));
    }

    #[test]
    fn proportions_track_weights_within_two_percent() {
        for (seed, spec) in [
            (7u64, "control:90,cand:10"),
            (42, "control:50,a:30,b:20"),
            (2020, "control:98,cand:2"),
        ] {
            let p = plan(seed, spec);
            let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
            let ks = keys(100_000);
            for k in &ks {
                *counts.entry(p.assign(k)).or_default() += 1;
            }
            for (name, w) in p.weights() {
                let got = *counts.get(name.as_str()).unwrap_or(&0) as f64 / ks.len() as f64;
                let want = *w as f64 / 100.0;
                assert!(
                    (got - want).abs() <= 0.02,
                    "{spec} seed {seed}: {name} got {got:.4}, want {want:.4} ±0.02"
                );
            }
        }
    }

    #[test]
    fn canonical_roundtrip_preserves_every_assignment() {
        let p = plan(99, "control:80,a:15,b:5");
        let decoded = SplitPlan::from_canonical(&p.to_canonical()).unwrap();
        assert_eq!(p, decoded);
        assert_eq!(p.digest(), decoded.digest());
        for k in keys(10_000) {
            assert_eq!(p.assign(&k), decoded.assign(&k));
        }
        // Independently constructed plans with identical inputs agree
        // too — replicas never need to gossip bucket maps.
        let again = plan(99, "control:80,a:15,b:5");
        assert_eq!(p.to_canonical(), again.to_canonical());
    }

    #[test]
    fn update_never_reassigns_unchanged_variants() {
        let p1 = plan(5, "control:80,a:10,b:10");
        // control shrinks, b grows, a untouched.
        let p2 = p1
            .update(&parse_weight_spec("control:70,a:10,b:20").unwrap())
            .unwrap();
        assert_eq!(p2.version(), p1.version() + 1);
        let mut moved = 0usize;
        for k in keys(50_000) {
            let before = p1.assign(&k);
            let after = p2.assign(&k);
            if before == "a" {
                assert_eq!(after, "a", "key {k} left unchanged variant 'a'");
            }
            if before != after {
                // Every move must be shrink → grow.
                assert_eq!(before, "control", "key {k} moved from {before}");
                assert_eq!(after, "b", "key {k} moved to {after}");
                moved += 1;
            }
        }
        // ~10% of keys should move (control 80 → 70).
        let frac = moved as f64 / 50_000.0;
        assert!((frac - 0.10).abs() <= 0.02, "moved fraction {frac:.4}");
    }

    #[test]
    fn update_handles_new_and_removed_variants() {
        let p1 = plan(11, "control:90,a:10");
        let p2 = p1
            .update(&parse_weight_spec("control:90,b:10").unwrap())
            .unwrap();
        for k in keys(20_000) {
            let before = p1.assign(&k);
            let after = p2.assign(&k);
            if before == "control" {
                assert_eq!(after, "control");
            } else {
                assert_eq!(before, "a");
                assert_eq!(after, "b");
            }
        }
    }

    #[test]
    fn halt_semantics_collapse_to_control() {
        let p1 = plan(3, "control:50,cand:50");
        let p2 = p1
            .update(&parse_weight_spec("control:100,cand:0").unwrap())
            .unwrap();
        for k in keys(5_000) {
            assert_eq!(p2.assign(&k), CONTROL);
        }
    }

    #[test]
    fn interleave_prefers_the_agreed_better_ranking() {
        // Candidate ranks the genuinely high-scoring items first;
        // control ranks them in reverse.
        let ideal: Vec<(u32, f32)> = (0..10).map(|i| (i, (10 - i) as f32)).collect();
        let reversed: Vec<(u32, f32)> = ideal.iter().rev().cloned().collect();
        let mut credits = Vec::new();
        for seed in 0..200 {
            credits.push(interleave::team_draft_credit(&reversed, &ideal, seed));
        }
        let summary = interleave::summarize(&credits, 77, 2000);
        assert!(summary.candidate_wins > summary.control_wins);
        assert!(summary.mean_delta > 0.0);
        assert!(summary.p_value < 0.05, "p={}", summary.p_value);
    }

    #[test]
    fn interleave_finds_no_signal_between_identical_rankings() {
        let list: Vec<(u32, f32)> = (0..10).map(|i| (i, (10 - i) as f32)).collect();
        let credits: Vec<_> = (0..100)
            .map(|seed| interleave::team_draft_credit(&list, &list, seed))
            .collect();
        let summary = interleave::summarize(&credits, 9, 500);
        // Per-duel credit still varies with the draft coin (the first
        // drafter of a round gets the better position), but across
        // duels there must be no systematic preference.
        assert!(
            summary.mean_delta.abs() < 0.05,
            "mean_delta={}",
            summary.mean_delta
        );
        assert!(summary.p_value > 0.2, "p={}", summary.p_value);
    }

    #[test]
    fn interleave_is_deterministic_per_seed() {
        let a: Vec<(u32, f32)> = (0..8).map(|i| (i, (8 - i) as f32)).collect();
        let b: Vec<(u32, f32)> = (0..8).map(|i| (i * 2, (9 - i) as f32)).collect();
        let c1 = interleave::team_draft_credit(&a, &b, 1234);
        let c2 = interleave::team_draft_credit(&a, &b, 1234);
        assert_eq!(c1, c2);
    }

    #[test]
    fn guardrails_catch_each_violation_class() {
        use guardrail::*;
        let g = Guardrails {
            max_error_rate: 0.01,
            max_p99_delta: 0.25,
            min_samples: 100,
        };
        let control = VariantStats {
            name: "control".into(),
            requests: 10_000,
            errors: 0,
            p99_us: 1_000,
        };
        let healthy = VariantStats {
            name: "cand".into(),
            requests: 1_000,
            errors: 5,
            p99_us: 1_100,
        };
        assert!(check(&control, &healthy, &g).is_empty());

        let thin = VariantStats {
            requests: 10,
            errors: 0,
            ..healthy.clone()
        };
        assert_eq!(check(&control, &thin, &g).len(), 1);

        let flaky = VariantStats {
            errors: 100,
            ..healthy.clone()
        };
        assert!(check(&control, &flaky, &g)
            .iter()
            .any(|v| v.contains("error rate")));

        let slow = VariantStats {
            p99_us: 2_000,
            ..healthy
        };
        assert!(check(&control, &slow, &g).iter().any(|v| v.contains("p99")));
    }
}
