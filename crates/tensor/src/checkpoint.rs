//! Restoring trained parameters into a freshly built [`ParamStore`].
//!
//! A model's tensors travel as a `ParamStore` of named matrices (the
//! model file that carries them is `smgcn_serve::artifact`). Loading one
//! back into a model requires the architecture to match: parameters are
//! matched by name, and mismatched names, counts or shapes are hard
//! errors, not silent truncation.

use crate::tape::ParamStore;

/// A loaded store that does not fit the model it is restored into.
#[derive(Debug)]
pub struct CheckpointError(pub String);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint format error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// Copies values from `loaded` into `target`, matching parameters by name.
///
/// Every target parameter must be present in `loaded` with identical shape;
/// extra tensors in `loaded` are an error too (they indicate an
/// architecture mismatch).
pub fn restore_into(target: &mut ParamStore, loaded: &ParamStore) -> Result<(), CheckpointError> {
    restore(target, loaded, false)
}

/// Copies values from `loaded` into `target` like [`restore_into`], but
/// tolerates **row growth**: a target parameter may have *more rows* than
/// its checkpointed counterpart (same column count), in which case the
/// checkpoint fills the leading rows and the target keeps its fresh
/// initialisation for the tail.
///
/// This is the warm-start path for a grown vocabulary: embedding tables
/// are `|S| x d` / `|H| x d` and ids are append-only, so a model rebuilt
/// over the grown corpus resumes every previously-trained row verbatim
/// while newly-appended entities start from their initialiser. Any other
/// shape difference (column mismatch, target smaller than checkpoint) is
/// still a hard error — ids never shrink or renumber.
pub fn restore_into_grown(
    target: &mut ParamStore,
    loaded: &ParamStore,
) -> Result<(), CheckpointError> {
    restore(target, loaded, true)
}

/// The one restore walk; `grown` admits a checkpoint with fewer rows.
fn restore(
    target: &mut ParamStore,
    loaded: &ParamStore,
    grown: bool,
) -> Result<(), CheckpointError> {
    if target.len() != loaded.len() {
        return Err(CheckpointError(format!(
            "parameter count mismatch: model has {}, checkpoint has {}",
            target.len(),
            loaded.len()
        )));
    }
    let ids: Vec<_> = target
        .iter()
        .map(|(id, name, value)| (id, name.to_string(), value.shape()))
        .collect();
    for (id, name, (rows, cols)) in ids {
        let (_, _, source) = loaded
            .iter()
            .find(|(_, n, _)| *n == name)
            .ok_or_else(|| CheckpointError(format!("checkpoint missing parameter {name:?}")))?;
        let (l_rows, l_cols) = source.shape();
        if l_cols != cols || l_rows > rows || (!grown && l_rows != rows) {
            let rule = if grown {
                " — only row growth is warm-startable"
            } else {
                ""
            };
            return Err(CheckpointError(format!(
                "shape mismatch for {name:?}: model ({rows}, {cols}), checkpoint \
                 ({l_rows}, {l_cols}){rule}"
            )));
        }
        let dest = target.get_mut(id);
        if l_rows == rows {
            *dest = source.clone();
        } else {
            for r in 0..l_rows {
                dest.row_mut(r).copy_from_slice(source.row(r));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, xavier_uniform};
    use crate::matrix::Matrix;

    fn sample_store() -> ParamStore {
        let mut rng = seeded_rng(5);
        let mut store = ParamStore::new();
        store.add("layer.w", xavier_uniform(4, 6, &mut rng));
        store.add("layer.b", Matrix::zeros(1, 6));
        store.add("emb", xavier_uniform(10, 4, &mut rng));
        store
    }

    #[test]
    fn restore_into_matches_by_name() {
        let loaded = sample_store();
        // A freshly initialised model with the same architecture, its
        // parameters in another order.
        let mut fresh = ParamStore::new();
        fresh.add("emb", Matrix::zeros(10, 4));
        fresh.add("layer.w", Matrix::zeros(4, 6));
        fresh.add("layer.b", Matrix::filled(1, 6, 0.5));
        restore_into(&mut fresh, &loaded).unwrap();
        for (_, name, value) in fresh.iter() {
            let (_, _, want) = loaded.iter().find(|(_, n, _)| *n == name).unwrap();
            assert!(value.approx_eq(want, 0.0), "{name}");
        }
    }

    #[test]
    fn restore_into_grown_prefixes_rows_and_keeps_tail() {
        let loaded = sample_store();
        // Same architecture but the "emb" table grew 10 -> 13 rows
        // (vocabulary appended three entities).
        let mut rng = seeded_rng(99);
        let mut grown = ParamStore::new();
        grown.add("layer.w", xavier_uniform(4, 6, &mut rng));
        grown.add("layer.b", Matrix::filled(1, 6, 0.25));
        let fresh_emb = xavier_uniform(13, 4, &mut rng);
        let emb_id = grown.add("emb", fresh_emb.clone());
        restore_into_grown(&mut grown, &loaded).unwrap();
        let emb = grown.get(emb_id).clone();
        let old_emb = loaded.iter().find(|(_, n, _)| *n == "emb").unwrap().2;
        for r in 0..10 {
            assert_eq!(emb.row(r), old_emb.row(r), "trained row {r} must resume");
        }
        for r in 10..13 {
            assert_eq!(emb.row(r), fresh_emb.row(r), "new row {r} keeps its init");
        }
        // Exact-shape parameters restore wholesale.
        let b = grown.iter().find(|(_, n, _)| *n == "layer.b").unwrap().2;
        assert_eq!(b.get(0, 0), 0.0, "layer.b came from the checkpoint");
        // The exact walk refuses the same growth.
        let err = restore_into(&mut grown, &loaded).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn restore_into_grown_rejects_shrink_and_col_change() {
        let loaded = sample_store();
        // Fewer rows than the checkpoint: ids never shrink.
        let mut shrunk = ParamStore::new();
        shrunk.add("layer.w", Matrix::zeros(4, 6));
        shrunk.add("layer.b", Matrix::zeros(1, 6));
        shrunk.add("emb", Matrix::zeros(7, 4));
        assert!(restore_into_grown(&mut shrunk, &loaded).is_err());
        // Column growth is an architecture change, not vocabulary growth.
        let mut widened = ParamStore::new();
        widened.add("layer.w", Matrix::zeros(4, 6));
        widened.add("layer.b", Matrix::zeros(1, 6));
        widened.add("emb", Matrix::zeros(10, 5));
        let err = restore_into_grown(&mut widened, &loaded).unwrap_err();
        assert!(err.to_string().contains("only row growth"), "{err}");
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let loaded = sample_store();
        let mut wrong = ParamStore::new();
        wrong.add("layer.w", Matrix::zeros(3, 3));
        wrong.add("layer.b", Matrix::zeros(1, 6));
        wrong.add("emb", Matrix::zeros(10, 4));
        let err = restore_into(&mut wrong, &loaded).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_count_mismatch_and_missing_names() {
        let loaded = sample_store();
        let mut wrong = ParamStore::new();
        wrong.add("only", Matrix::zeros(1, 1));
        assert!(restore_into(&mut wrong, &loaded).is_err());
        let mut renamed = ParamStore::new();
        renamed.add("layer.w", Matrix::zeros(4, 6));
        renamed.add("layer.b", Matrix::zeros(1, 6));
        renamed.add("embedding", Matrix::zeros(10, 4));
        let err = restore_into(&mut renamed, &loaded).unwrap_err();
        assert!(err.to_string().contains("missing parameter"), "{err}");
    }
}
