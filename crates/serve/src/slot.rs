//! Versioned hot swap: an atomic generation pointer for frozen models.
//!
//! Online refresh re-freezes a fine-tuned model into a new [`FrozenModel`]
//! and must publish it **under live traffic**: in-flight requests finish
//! on the model they started with, new requests pick up the new one, and
//! nothing ever blocks for the duration of a scoring pass.
//!
//! [`ModelSlot`] is the std-only stand-in for an `ArcSwap`: the current
//! [`Generation`] lives behind an `RwLock<Arc<..>>` whose critical section
//! is a single refcount bump (`load` clones the `Arc` and drops the lock
//! before any scoring happens), so readers never serialise behind a
//! scoring pass and a publish waits only for those refcount bumps. Each
//! publish increments a monotonically increasing generation number that
//! tags scoring results, cache entries and `/stats` output — the
//! invariant consumers rely on is that **one request is answered by
//! exactly one generation**.
//!
//! The vocabulary rides along with the model: streaming ingestion may
//! append symptoms/herbs, so names must swap atomically with embeddings
//! (a ranking from generation `g` is always described with generation
//! `g`'s names).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::frozen::FrozenModel;
use crate::server::ServingVocab;

/// One published model version: the frozen weights, the vocabulary they
/// were frozen with, and the monotone generation number.
#[derive(Debug)]
pub struct Generation {
    /// Monotone version counter; the initial model is generation 0.
    pub number: u64,
    /// The frozen model serving this generation.
    pub model: Arc<FrozenModel>,
    /// Name/id mappings matching `model`'s vocabulary sizes.
    pub vocab: Arc<ServingVocab>,
}

/// An atomic publish point for model generations (ArcSwap-style).
#[derive(Debug)]
pub struct ModelSlot {
    current: RwLock<Arc<Generation>>,
    next_number: AtomicU64,
}

impl ModelSlot {
    /// Wraps the initial model as generation 0.
    pub fn new(model: FrozenModel, vocab: ServingVocab) -> Self {
        Self::with_arc(Arc::new(model), vocab)
    }

    /// Like [`ModelSlot::new`] for an already-shared model.
    pub fn with_arc(model: Arc<FrozenModel>, vocab: ServingVocab) -> Self {
        Self {
            current: RwLock::new(Arc::new(Generation {
                number: 0,
                model,
                vocab: Arc::new(vocab),
            })),
            next_number: AtomicU64::new(1),
        }
    }

    /// The current generation. The returned `Arc` pins that generation for
    /// as long as the caller holds it — a concurrent publish never
    /// invalidates it, so a request scores and renders against one
    /// consistent model+vocab pair.
    pub fn load(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("model slot lock"))
    }

    /// The current generation number without pinning the generation.
    pub fn generation(&self) -> u64 {
        self.current.read().expect("model slot lock").number
    }

    /// Publishes a new model (and its vocabulary) as the next generation,
    /// returning its number. Requests already holding the previous
    /// generation finish on it; the old model is dropped when its last
    /// holder releases it.
    pub fn publish(&self, model: FrozenModel, vocab: ServingVocab) -> u64 {
        self.publish_shared(Arc::new(model), Arc::new(vocab))
    }

    /// Publishes an already-shared model + vocabulary pair as the next
    /// generation. This is the in-process promotion path: an experiment
    /// candidate's current generation is re-pointed into the control
    /// slot without a serialize/deserialize round-trip, so promotion is
    /// as cheap as a publish of an already-resident model.
    pub fn publish_shared(&self, model: Arc<FrozenModel>, vocab: Arc<ServingVocab>) -> u64 {
        // Number assignment happens *inside* the write critical section:
        // taken outside, two concurrent publishes (e.g. an admin
        // `{"op":"publish"}` racing a local refresh) could install their
        // generations in the opposite order of their numbers, leaving the
        // slot serving the older model while readers watch the generation
        // counter go backwards.
        let mut current = self.current.write().expect("model slot lock");
        let number = self.next_number.fetch_add(1, Ordering::SeqCst);
        *current = Arc::new(Generation {
            number,
            model,
            vocab,
        });
        number
    }

    /// Publishes a serialized [`crate::artifact`] blob (model + vocab) as
    /// the next generation — the wire-level entry point behind the
    /// `{"op":"publish"}` admin verb, so a cluster coordinator can push a
    /// generation into a remote replica without touching its filesystem.
    ///
    /// # Errors
    /// Rejects damaged artifacts without touching the live generation:
    /// a failed publish leaves the replica serving exactly what it was.
    pub fn publish_bytes(&self, bytes: &[u8]) -> Result<u64, crate::frozen::FrozenError> {
        let (model, vocab) = crate::artifact::decode(bytes)?;
        Ok(self.publish(model, vocab))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_tensor::Matrix;

    fn model(fill: f32) -> FrozenModel {
        FrozenModel::from_parts(Matrix::filled(3, 2, fill), Matrix::filled(4, 2, fill), None)
            .unwrap()
    }

    #[test]
    fn publish_advances_generation_and_readers_pin() {
        let slot = ModelSlot::new(model(1.0), ServingVocab::default());
        let pinned = slot.load();
        assert_eq!(pinned.number, 0);
        assert_eq!(slot.publish(model(2.0), ServingVocab::default()), 1);
        assert_eq!(slot.generation(), 1);
        // The pinned generation still serves the old weights
        // (fill f scores f * f * d = 2 f^2).
        assert_eq!(pinned.model.score_one(&[0]).unwrap()[0], 2.0);
        assert_eq!(slot.load().model.score_one(&[0]).unwrap()[0], 8.0);
    }

    #[test]
    fn concurrent_loads_and_publishes_stay_consistent() {
        let slot = Arc::new(ModelSlot::new(model(1.0), ServingVocab::default()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let gen = slot.load();
                        assert!(gen.number >= last, "generations are monotone per reader");
                        last = gen.number;
                        // fill tracks generation: gen g was filled with g+1.
                        let expect = ((gen.number + 1) * (gen.number + 1) * 2) as f32;
                        assert_eq!(gen.model.score_one(&[0]).unwrap()[0], expect);
                    }
                })
            })
            .collect();
        for g in 1..20u64 {
            assert_eq!(
                slot.publish(model((g + 1) as f32), ServingVocab::default()),
                g
            );
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(slot.generation(), 19);
    }
}
