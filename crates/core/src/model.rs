//! The full recommender: embedding layer + syndrome-aware prediction layer.
//!
//! [`SmgcnEmbedding`] composes Bipar-GCN with the optional Synergy Graph
//! Encoding and the Eq. 11 additive fusion. [`Recommender`] wraps *any*
//! [`EmbeddingLayer`] with the shared Syndrome Induction head and the Eq. 13
//! prediction `g(sc, H) = e_syndrome(sc) · e_H^T`, which is exactly how the
//! paper aligns its baselines for Table IV.

use rand::rngs::StdRng;
use rand::SeedableRng;
use smgcn_graph::GraphOperators;
use smgcn_tensor::{partial_top_k, Matrix, ParamStore, SharedCsr, Tape, Var};

use crate::batch::set_pool_matrix;
use crate::bipar_gcn::BiparGcn;
use crate::config::ModelConfig;
use crate::embedding::{EmbeddingLayer, ForwardCtx};
use crate::sge::SynergyGraphEncoding;
use crate::syndrome::SyndromeInduction;

/// SMGCN's multi-graph embedding layer: Bipar-GCN ⊕ SGE (Eq. 11).
pub struct SmgcnEmbedding {
    bipar: BiparGcn,
    sge: Option<SynergyGraphEncoding>,
}

impl SmgcnEmbedding {
    /// Registers all parameters. With `config.use_sge == false` this is the
    /// plain Bipar-GCN embedding of the Table V ablation.
    pub fn init(
        store: &mut ParamStore,
        ops: &GraphOperators,
        config: &ModelConfig,
        rng: &mut StdRng,
    ) -> Self {
        let bipar = BiparGcn::init(store, ops, config, rng);
        let sge = config.use_sge.then(|| {
            SynergyGraphEncoding::init(
                store,
                ops,
                bipar.initial_symptom_embeddings(),
                bipar.initial_herb_embeddings(),
                config.embedding_dim,
                config.final_dim(),
                rng,
            )
        });
        Self { bipar, sge }
    }
}

impl EmbeddingLayer for SmgcnEmbedding {
    fn name(&self) -> &'static str {
        if self.sge.is_some() {
            "SMGCN-embedding"
        } else {
            "Bipar-GCN"
        }
    }

    fn output_dim(&self) -> usize {
        self.bipar.output_dim()
    }

    fn embed(&self, tape: &mut Tape<'_>, ctx: &mut ForwardCtx<'_>) -> (Var, Var) {
        let (b_s, b_h) = self.bipar.embed(tape, ctx);
        match &self.sge {
            Some(sge) => {
                let (r_s, r_h) = sge.encode(tape);
                // Eq. 11: e* = b + r.
                (tape.add(b_s, r_s), tape.add(b_h, r_h))
            }
            None => (b_s, b_h),
        }
    }
}

/// A complete herb recommender with the paper's prediction layer.
pub struct Recommender {
    store: ParamStore,
    embedding: Box<dyn EmbeddingLayer>,
    si: SyndromeInduction,
    n_symptoms: usize,
    n_herbs: usize,
    dropout: f32,
    name: String,
}

impl Recommender {
    /// Assembles a recommender from a pre-initialised embedding layer and
    /// the store holding its parameters. The SI head is registered here.
    pub fn assemble(
        mut store: ParamStore,
        embedding: Box<dyn EmbeddingLayer>,
        ops: &GraphOperators,
        use_si_mlp: bool,
        dropout: f32,
        name: impl Into<String>,
        rng: &mut StdRng,
    ) -> Self {
        let si = SyndromeInduction::init(&mut store, embedding.output_dim(), use_si_mlp, rng);
        Self {
            store,
            embedding,
            si,
            n_symptoms: ops.n_symptoms,
            n_herbs: ops.n_herbs,
            dropout,
            name: name.into(),
        }
    }

    /// Builds the paper's full SMGCN (or an ablation, per `config`).
    pub fn smgcn(ops: &GraphOperators, config: &ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let embedding = SmgcnEmbedding::init(&mut store, ops, config, &mut rng);
        let name = match (config.use_sge, config.use_si_mlp) {
            (true, true) => "SMGCN",
            (true, false) => "Bipar-GCN w/ SGE",
            (false, true) => "Bipar-GCN w/ SI",
            (false, false) => "Bipar-GCN",
        };
        Self::assemble(
            store,
            Box::new(embedding),
            ops,
            config.use_si_mlp,
            config.dropout,
            name,
            &mut rng,
        )
    }

    /// Rebuilds the paper's SMGCN over (possibly grown) graph operators
    /// and warm-starts it from an already-trained parameter store.
    ///
    /// The architecture (`config`) must match the one `trained` came from;
    /// embedding tables may have grown rows (appended symptoms/herbs),
    /// whose tail keeps the fresh seed-`seed` initialisation while every
    /// previously-trained row resumes verbatim. This is the online
    /// refresh path: delta the graphs, warm-start, fine-tune a few epochs
    /// instead of retraining cold.
    pub fn warm_start_smgcn(
        ops: &GraphOperators,
        config: &ModelConfig,
        seed: u64,
        trained: &ParamStore,
    ) -> Result<Self, smgcn_tensor::checkpoint::CheckpointError> {
        let mut model = Self::smgcn(ops, config, seed);
        smgcn_tensor::checkpoint::restore_into_grown(&mut model.store, trained)?;
        Ok(model)
    }

    /// Model display name (Table IV / V row label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Symptom vocabulary size.
    pub fn n_symptoms(&self) -> usize {
        self.n_symptoms
    }

    /// Herb vocabulary size.
    pub fn n_herbs(&self) -> usize {
        self.n_herbs
    }

    /// The parameter store (for optimizers and diagnostics).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to parameters (optimizer updates).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Message-dropout rate used in training forward passes.
    pub fn dropout(&self) -> f32 {
        self.dropout
    }

    /// Records the full forward pass on `tape`, returning the `B x H` score
    /// node for the batch described by `set_pool`.
    pub fn forward_scores(
        &self,
        tape: &mut Tape<'_>,
        set_pool: &SharedCsr,
        ctx: &mut ForwardCtx<'_>,
    ) -> Var {
        let (e_s, e_h) = self.embedding.embed(tape, ctx);
        let syndrome = self.si.induce(tape, e_s, set_pool);
        tape.matmul_transb(syndrome, e_h)
    }

    /// Inference: herb probability scores for each symptom set
    /// (`B x H`, higher = more recommended). Deterministic.
    ///
    /// # Panics
    /// Panics on empty input, empty sets or out-of-range symptom ids.
    pub fn predict(&self, symptom_sets: &[&[u32]]) -> Matrix {
        assert!(!symptom_sets.is_empty(), "predict: no symptom sets given");
        let pool = SharedCsr::new(set_pool_matrix(symptom_sets, self.n_symptoms));
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ForwardCtx::inference(&mut rng);
        let mut tape = Tape::new(&self.store);
        let scores = self.forward_scores(&mut tape, &pool, &mut ctx);
        tape.value(scores).clone()
    }

    /// Top-`k` herb ids for one symptom set, by descending score (the
    /// paper's greedy inference, §IV-E).
    pub fn recommend(&self, symptom_set: &[u32], k: usize) -> Vec<u32> {
        let scores = self.predict(&[symptom_set]);
        partial_top_k(scores.row(0), k)
    }

    /// Materializes the final (post-convolution) embedding matrices:
    /// `(symptoms [S x d], herbs [H x d])`. The embedding layer only
    /// depends on the static graphs, never on a query, so these are
    /// query-independent and can be computed once after training — the
    /// basis of the `smgcn-serve` frozen inference path.
    pub fn final_embeddings(&self) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ForwardCtx::inference(&mut rng);
        let mut tape = Tape::new(&self.store);
        let (e_s, e_h) = self.embedding.embed(&mut tape, &mut ctx);
        (tape.value(e_s).clone(), tape.value(e_h).clone())
    }

    /// Clones the syndrome-induction MLP weights `(W_mlp, b_mlp)`, or
    /// `None` when the head is plain average pooling.
    pub fn syndrome_head(&self) -> Option<(Matrix, Matrix)> {
        self.si.export_weights(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_graph::SynergyThresholds;

    fn toy_ops() -> GraphOperators {
        let records: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![0, 1], vec![0, 1]),
            (vec![1, 2], vec![1, 2]),
            (vec![0, 2], vec![0, 3]),
            (vec![0, 1], vec![0, 1]),
        ];
        GraphOperators::from_records(
            records.iter().map(|(s, h)| (s.as_slice(), h.as_slice())),
            3,
            4,
            SynergyThresholds { x_s: 0, x_h: 0 },
        )
    }

    fn small_config() -> ModelConfig {
        ModelConfig {
            embedding_dim: 8,
            layer_dims: vec![8, 12],
            dropout: 0.0,
            use_sge: true,
            use_si_mlp: true,
        }
    }

    #[test]
    fn smgcn_names_follow_ablation() {
        let ops = toy_ops();
        assert_eq!(Recommender::smgcn(&ops, &small_config(), 1).name(), "SMGCN");
        let mut cfg = small_config();
        cfg.use_sge = false;
        assert_eq!(Recommender::smgcn(&ops, &cfg, 1).name(), "Bipar-GCN w/ SI");
        cfg.use_si_mlp = false;
        assert_eq!(Recommender::smgcn(&ops, &cfg, 1).name(), "Bipar-GCN");
    }

    #[test]
    fn predict_shapes_and_determinism() {
        let ops = toy_ops();
        let model = Recommender::smgcn(&ops, &small_config(), 7);
        let sets: Vec<&[u32]> = vec![&[0, 1], &[2]];
        let a = model.predict(&sets);
        let b = model.predict(&sets);
        assert_eq!(a.shape(), (2, 4));
        assert!(a.approx_eq(&b, 0.0));
        assert!(a.all_finite());
    }

    #[test]
    fn recommend_returns_k_distinct() {
        let ops = toy_ops();
        let model = Recommender::smgcn(&ops, &small_config(), 7);
        let rec = model.recommend(&[0, 1], 3);
        assert_eq!(rec.len(), 3);
        let mut dedup = rec.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn gradients_cover_all_params_in_training_graph() {
        let ops = toy_ops();
        let model = Recommender::smgcn(&ops, &small_config(), 3);
        let sets: Vec<&[u32]> = vec![&[0, 1], &[2]];
        let pool = SharedCsr::new(set_pool_matrix(&sets, 3));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = ForwardCtx::training(0.0, &mut rng);
        let mut tape = Tape::new(model.store());
        let scores = model.forward_scores(&mut tape, &pool, &mut ctx);
        let target = smgcn_tensor::LabelSets::from_rows([&[0u32, 2][..], &[1, 3]]);
        let weights = std::sync::Arc::new(vec![1.0f32; 4]);
        let loss = tape.weighted_mse(scores, std::sync::Arc::new(target), weights);
        let grads = tape.backward(loss);
        assert_eq!(
            grads.present_count(),
            model.store().len(),
            "every parameter should be in the training graph"
        );
    }

    #[test]
    fn sge_toggle_changes_scores() {
        let ops = toy_ops();
        let with = Recommender::smgcn(&ops, &small_config(), 11);
        let mut cfg = small_config();
        cfg.use_sge = false;
        let without = Recommender::smgcn(&ops, &cfg, 11);
        let sets: Vec<&[u32]> = vec![&[0]];
        assert!(!with.predict(&sets).approx_eq(&without.predict(&sets), 1e-9));
    }

    #[test]
    #[should_panic(expected = "no symptom sets")]
    fn predict_rejects_empty_batch() {
        let ops = toy_ops();
        let model = Recommender::smgcn(&ops, &small_config(), 1);
        let _ = model.predict(&[]);
    }
}
