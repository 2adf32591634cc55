//! Multi-variant serving: the experiment plane's replica half.
//!
//! [`VariantTable`] holds the replica's named family of model slots.
//! Its first entry is `control`, the server's own slot; any number of
//! *candidate* entries ride next to it. Every entry has the same three
//! parts: its own generation counter and frozen model, a
//! generation-tagged cache partition, and labeled metric handles. A
//! seeded, versioned [`SplitPlan`] (installed through
//! `{"op":"experiment"}`) assigns traffic deterministically by sticky
//! key, and a bounded journal of [`DuelSample`]s — sampled requests
//! scored under both the serving candidate and control — feeds the
//! router's interleaving comparison.
//!
//! Per-variant observability reuses the ordinary registry with a
//! `variant` label; the handles are pre-resolved here (once per
//! variant, not per request) so the hot path pays the same relaxed
//! atomics as the unlabeled metrics.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use smgcn_experiment::{SplitPlan, CONTROL};
use smgcn_obs::{Counter, LatencyHistogram, Registry, Sampler};

use crate::cache::{GenerationalCache, QueryKey};
use crate::errors::codes;
use crate::frozen::FrozenModel;
use crate::json::{self, Json};
use crate::ops::ApiError;
use crate::server::ServingVocab;
use crate::slot::ModelSlot;

/// Pre-resolved per-variant metric handles (`variant` label). One
/// resolution per variant lifetime keeps the request path at relaxed
/// atomic cost.
pub struct VariantObs {
    /// Requests served under this variant.
    pub requests: Counter,
    /// Errors attributed to this variant (scoring/shed failures after
    /// variant resolution).
    pub errors: Counter,
    /// Per-request wall time under this variant.
    pub latency: Arc<LatencyHistogram>,
    /// Cache hits in this variant's partition.
    pub cache_hits: Counter,
    /// Cache misses in this variant's partition.
    pub cache_misses: Counter,
}

impl VariantObs {
    fn new(registry: &Registry, variant: &str) -> Self {
        let labels = [("variant", variant)];
        Self {
            requests: registry.counter_labeled("serve_variant_requests_total", &labels),
            errors: registry.counter_labeled("serve_variant_errors_total", &labels),
            latency: registry.histogram_labeled("serve_variant_latency_us", &labels),
            cache_hits: registry.counter_labeled("serve_variant_cache_hits_total", &labels),
            cache_misses: registry.counter_labeled("serve_variant_cache_misses_total", &labels),
        }
    }
}

/// One named variant, control or candidate: its own publish slot,
/// cache partition, and metric handles.
pub struct VariantEntry {
    /// The variant's name ([`CONTROL`] for the table's first entry).
    pub name: String,
    /// The variant's atomic generation pointer.
    pub slot: Arc<ModelSlot>,
    /// The variant's own generation-tagged cache partition, so control
    /// and candidate rankings for the same symptom set never collide.
    pub cache: Option<Mutex<GenerationalCache<QueryKey, Vec<u32>>>>,
    /// Pre-resolved labeled metric handles.
    pub obs: VariantObs,
}

impl VariantEntry {
    /// An entry serving `slot`, with a cache of `cache_capacity`
    /// entries (0 disables it).
    fn new(registry: &Registry, name: &str, slot: Arc<ModelSlot>, cache_capacity: usize) -> Self {
        Self {
            name: name.to_string(),
            slot,
            cache: (cache_capacity > 0).then(|| Mutex::new(GenerationalCache::new(cache_capacity))),
            obs: VariantObs::new(registry, name),
        }
    }
}

/// One journaled control-vs-candidate comparison sample: the same
/// query's top-k under both models, with scores, as served.
#[derive(Debug, Clone, PartialEq)]
pub struct DuelSample {
    /// The candidate that served the sampled request.
    pub variant: String,
    /// The canonical (sorted) symptom-id set.
    pub symptom_ids: Vec<u32>,
    /// Ranking depth.
    pub k: usize,
    /// Candidate's `(herb_id, score)` ranking, best first.
    pub candidate_top: Vec<(u32, f32)>,
    /// Control's `(herb_id, score)` ranking, best first.
    pub control_top: Vec<(u32, f32)>,
}

fn ranking_json(list: &[(u32, f32)]) -> Json {
    Json::Arr(
        list.iter()
            .map(|(id, s)| Json::Arr(vec![Json::Num(*id as f64), Json::Num(*s as f64)]))
            .collect(),
    )
}

fn ranking_from_json(v: &Json) -> Option<Vec<(u32, f32)>> {
    v.as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            match (pair.first()?.as_num(), pair.get(1)?.as_num()) {
                (Some(id), Some(s)) if id >= 0.0 => Some((id as u32, s as f32)),
                _ => None,
            }
        })
        .collect()
}

impl DuelSample {
    /// Wire encoding, used by `{"op":"experiment","action":"samples"}`.
    pub fn to_json(&self) -> Json {
        json::obj([
            ("variant", Json::Str(self.variant.clone())),
            ("symptom_ids", json::id_array(&self.symptom_ids)),
            ("k", Json::Num(self.k as f64)),
            ("candidate_top", ranking_json(&self.candidate_top)),
            ("control_top", ranking_json(&self.control_top)),
        ])
    }

    /// Parse the wire encoding back (router-side aggregation).
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            variant: v.get("variant")?.as_str()?.to_string(),
            symptom_ids: v
                .get("symptom_ids")?
                .as_arr()?
                .iter()
                .map(|n| n.as_num().map(|n| n as u32))
                .collect::<Option<_>>()?,
            k: v.get("k")?.as_num()? as usize,
            candidate_top: ranking_from_json(v.get("candidate_top")?)?,
            control_top: ranking_from_json(v.get("control_top")?)?,
        })
    }
}

/// How many duel samples the bounded journal retains (newest win).
const DUEL_JOURNAL_CAP: usize = 512;

/// The replica's variant state: the control entry, candidate entries,
/// the active split plan, and the duel-sample journal.
pub struct VariantTable {
    registry: Arc<Registry>,
    /// The first entry, reached without a lock by every plain request.
    control: Arc<VariantEntry>,
    candidates: RwLock<HashMap<String, Arc<VariantEntry>>>,
    plan: RwLock<Option<Arc<SplitPlan>>>,
    duels: Mutex<VecDeque<DuelSample>>,
    duel_sampler: Sampler,
    duels_total: Counter,
    cache_capacity: usize,
}

impl VariantTable {
    /// A table holding only control, serving `slot` (no plan).
    /// `cache_capacity` sizes every entry's cache partition;
    /// `duel_sample_every` journals one duel per that many
    /// candidate-served requests (0 disables duels).
    pub fn new(
        registry: Arc<Registry>,
        slot: Arc<ModelSlot>,
        cache_capacity: usize,
        duel_sample_every: u64,
    ) -> Self {
        Self {
            control: Arc::new(VariantEntry::new(&registry, CONTROL, slot, cache_capacity)),
            candidates: RwLock::new(HashMap::new()),
            plan: RwLock::new(None),
            duels: Mutex::new(VecDeque::with_capacity(64)),
            duel_sampler: Sampler::new(duel_sample_every),
            duels_total: registry.counter("serve_duels_total"),
            cache_capacity,
            registry,
        }
    }

    /// The control entry.
    pub fn control(&self) -> &VariantEntry {
        &self.control
    }

    /// The active split plan, if any.
    pub fn plan(&self) -> Option<Arc<SplitPlan>> {
        self.plan.read().expect("plan lock").clone()
    }

    /// Look up a variant, control included, by name; an unknown name is
    /// an `unknown_variant` error.
    pub fn get(&self, name: &str) -> Result<Arc<VariantEntry>, ApiError> {
        if name == CONTROL {
            return Ok(Arc::clone(&self.control));
        }
        let candidates = self.candidates.read().expect("variants lock");
        candidates.get(name).cloned().ok_or_else(|| {
            ApiError::new(
                codes::UNKNOWN_VARIANT,
                format!("variant {name:?} is not served by this replica"),
            )
        })
    }

    /// Every entry: control first, then the candidates by name.
    pub fn entries(&self) -> Vec<Arc<VariantEntry>> {
        let mut candidates: Vec<_> = self
            .candidates
            .read()
            .expect("variants lock")
            .values()
            .cloned()
            .collect();
        candidates.sort_by(|a, b| a.name.cmp(&b.name));
        candidates.insert(0, Arc::clone(&self.control));
        candidates
    }

    /// Publish a model + vocabulary into the named entry, creating a
    /// candidate on its first publish (at its own generation 0).
    /// Returns the entry's new generation number.
    pub fn publish(&self, name: &str, model: FrozenModel, vocab: ServingVocab) -> u64 {
        if name == CONTROL {
            return self.control.slot.publish(model, vocab);
        }
        let mut candidates = self.candidates.write().expect("variants lock");
        match candidates.get(name) {
            Some(entry) => entry.slot.publish(model, vocab),
            None => {
                let slot = Arc::new(ModelSlot::new(model, vocab));
                let entry = VariantEntry::new(&self.registry, name, slot, self.cache_capacity);
                candidates.insert(name.to_string(), Arc::new(entry));
                0
            }
        }
    }

    /// Install (or update) the split plan. Every non-control variant
    /// the plan names must already have a published slot here —
    /// installation is all-or-nothing, a replica never splits traffic
    /// toward a variant it cannot serve.
    pub fn install(&self, plan: SplitPlan) -> Result<Arc<SplitPlan>, String> {
        let candidates = self.candidates.read().expect("variants lock");
        for name in plan.candidates() {
            if plan.weight_of(name).unwrap_or(0) > 0 && !candidates.contains_key(name) {
                return Err(format!(
                    "variant {name:?} has no published model on this replica"
                ));
            }
        }
        drop(candidates);
        let plan = Arc::new(plan);
        for (name, weight) in plan.weights() {
            self.registry
                .gauge_labeled("serve_variant_weight", &[("variant", name)])
                .set(*weight as u64);
        }
        *self.plan.write().expect("plan lock") = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// Drop the split plan: all split traffic collapses to control
    /// instantly. Published candidates stay resident (a halted
    /// experiment can be re-installed without republishing).
    pub fn halt(&self) -> bool {
        for entry in self.entries() {
            let weight = if entry.name == CONTROL { 100 } else { 0 };
            self.registry
                .gauge_labeled("serve_variant_weight", &[("variant", &entry.name)])
                .set(weight);
        }
        self.plan.write().expect("plan lock").take().is_some()
    }

    /// True when this candidate-served request should journal a duel.
    pub fn duel_fire(&self) -> bool {
        self.duel_sampler.fire()
    }

    /// Journal one duel sample (bounded; oldest evicted).
    pub fn record_duel(&self, sample: DuelSample) {
        self.duels_total.inc();
        let mut duels = self.duels.lock().expect("duel lock");
        if duels.len() >= DUEL_JOURNAL_CAP {
            duels.pop_front();
        }
        duels.push_back(sample);
    }

    /// The newest `limit` journaled duels.
    pub fn recent_duels(&self, limit: usize) -> Vec<DuelSample> {
        let duels = self.duels.lock().expect("duel lock");
        duels.iter().rev().take(limit).rev().cloned().collect()
    }

    /// Total duels journaled since start (not bounded by the ring).
    pub fn duels_total(&self) -> u64 {
        self.duels_total.get()
    }

    /// Refresh the per-variant generation gauges (read-time sync, like
    /// the server's other derived gauges).
    pub fn sync_gauges(&self) {
        if !self.active() {
            return;
        }
        for entry in self.entries() {
            self.registry
                .gauge_labeled("serve_variant_generation", &[("variant", &entry.name)])
                .set(entry.slot.generation());
        }
    }

    /// True once the experiment plane is in use on this replica (any
    /// candidate published or a plan installed). Keeps all per-variant
    /// bookkeeping off the hot path of plain single-model deployments.
    pub fn active(&self) -> bool {
        self.plan.read().expect("plan lock").is_some()
            || !self.candidates.read().expect("variants lock").is_empty()
    }

    /// The `{"action":"status"}` report: plan, per-variant generation
    /// and weight, duel journal depth.
    pub fn status_json(&self) -> Json {
        let plan = self.plan();
        let weight = |name: &str| match plan.as_ref() {
            Some(p) => p.weight_of(name).unwrap_or(0),
            None if name == CONTROL => 100,
            None => 0,
        };
        let variants = self
            .entries()
            .iter()
            .map(|entry| {
                json::obj([
                    ("name", Json::Str(entry.name.clone())),
                    ("generation", Json::Num(entry.slot.generation() as f64)),
                    ("weight", Json::Num(weight(&entry.name) as f64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("variants", Json::Arr(variants)),
            ("duels", Json::Num(self.duels_total() as f64)),
        ];
        match &plan {
            Some(p) => {
                fields.push(("plan", Json::Str(p.to_canonical())));
                fields.push(("plan_version", Json::Num(p.version() as f64)));
                fields.push(("plan_digest", Json::Str(format!("{:016x}", p.digest()))));
            }
            None => fields.push(("plan", Json::Null)),
        }
        json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenModel;
    use smgcn_experiment::parse_weight_spec;
    use smgcn_tensor::Matrix;

    fn model(fill: f32) -> FrozenModel {
        FrozenModel::from_parts(Matrix::filled(3, 2, fill), Matrix::filled(4, 2, fill), None)
            .unwrap()
    }

    fn table() -> VariantTable {
        let control = Arc::new(ModelSlot::new(model(0.5), ServingVocab::default()));
        VariantTable::new(Arc::new(Registry::new()), control, 16, 1)
    }

    #[test]
    fn install_requires_published_candidates() {
        let t = table();
        let plan = SplitPlan::new(1, 1, &parse_weight_spec("control:90,cand:10").unwrap()).unwrap();
        assert!(
            t.install(plan.clone()).is_err(),
            "no candidate published yet"
        );
        assert!(
            t.plan().is_none(),
            "failed install must not leave a plan behind"
        );
        t.publish("cand", model(2.0), ServingVocab::default());
        assert!(t.install(plan).is_ok());
        assert_eq!(t.plan().unwrap().version(), 1);
        assert!(t.halt());
        assert!(t.plan().is_none());
        assert!(!t.halt(), "second halt is a no-op");
    }

    #[test]
    fn candidate_slots_version_independently() {
        let t = table();
        assert_eq!(t.publish("cand", model(1.0), ServingVocab::default()), 0);
        assert_eq!(t.publish("cand", model(2.0), ServingVocab::default()), 1);
        assert_eq!(t.publish("other", model(3.0), ServingVocab::default()), 0);
        assert_eq!(t.publish("control", model(4.0), ServingVocab::default()), 1);
        let names: Vec<String> = t.entries().iter().map(|e| e.name.clone()).collect();
        assert_eq!(
            names,
            ["control", "cand", "other"],
            "control is the first entry"
        );
    }

    #[test]
    fn duel_journal_is_bounded_and_roundtrips() {
        let t = table();
        for i in 0..(DUEL_JOURNAL_CAP + 10) {
            t.record_duel(DuelSample {
                variant: "cand".into(),
                symptom_ids: vec![i as u32],
                k: 3,
                candidate_top: vec![(1, 0.9), (2, 0.5)],
                control_top: vec![(2, 0.8), (1, 0.6)],
            });
        }
        assert_eq!(t.duels_total() as usize, DUEL_JOURNAL_CAP + 10);
        let recent = t.recent_duels(usize::MAX);
        assert_eq!(recent.len(), DUEL_JOURNAL_CAP);
        // Oldest entries were evicted.
        assert_eq!(recent[0].symptom_ids, vec![10u32]);
        let sample = &recent[0];
        let decoded = DuelSample::from_json(&sample.to_json()).unwrap();
        assert_eq!(&decoded, sample);
    }
}
