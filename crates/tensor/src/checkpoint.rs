//! Binary checkpointing for [`ParamStore`]s.
//!
//! A small self-describing format (magic + version + named tensors,
//! little-endian `f32`) so trained models survive process restarts:
//!
//! ```text
//! "SMGT" | u32 version | u64 n_params |
//!   per param: u64 name_len | name bytes | u64 rows | u64 cols | f32*rows*cols
//! ```
//!
//! Loading back into a model requires the architecture to match; mismatched
//! names or shapes are hard errors, not silent truncation.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::matrix::Matrix;
use crate::tape::ParamStore;

const MAGIC: &[u8; 4] = b"SMGT";
const VERSION: u32 = 1;

/// Checkpoint IO errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structural problem in the file or a model mismatch.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<(), CheckpointError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// `f32`s converted per `read_exact` / `write_all`: 16 KiB of bytes.
const BLOCK_VALUES: usize = 4096;

/// Serialises every parameter (names, shapes, values) to a writer.
pub fn write_store(store: &ParamStore, w: impl Write) -> Result<(), CheckpointError> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_u64(&mut w, store.len() as u64)?;
    let mut block = [0u8; BLOCK_VALUES * 4];
    for (_, name, value) in store.iter() {
        write_u64(&mut w, name.len() as u64)?;
        w.write_all(name.as_bytes())?;
        write_u64(&mut w, value.rows() as u64)?;
        write_u64(&mut w, value.cols() as u64)?;
        for values in value.as_slice().chunks(BLOCK_VALUES) {
            let bytes = &mut block[..values.len() * 4];
            for (dst, v) in bytes.chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            w.write_all(bytes)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Saves a store to a file path.
pub fn save_store(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_store(store, std::fs::File::create(path)?)
}

/// Reads a checkpoint into a fresh [`ParamStore`] (names and values only;
/// the caller re-associates ids by construction order or name).
///
/// The reader's length is unknown, so tensor storage grows block by
/// block as bytes actually arrive: a header that claims more than the
/// stream holds fails on the missing bytes, not on the allocation.
pub fn read_store(r: impl Read) -> Result<ParamStore, CheckpointError> {
    read_impl(BufReader::new(r), None)
}

/// [`read_store`] for a checkpoint already in memory. Every count and
/// length in it is checked against the bytes that are left **before**
/// anything is allocated for it, and fails as
/// [`CheckpointError::Format`]: a checkpoint is as often handed over by a
/// peer as read from a trusted disk.
pub fn read_store_bytes(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
    read_impl(bytes, Some(bytes.len() as u64))
}

/// Loads a store from a file path.
pub fn load_store(path: impl AsRef<Path>) -> Result<ParamStore, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    // A pipe or device reports no meaningful length: stream it.
    let len = meta.is_file().then_some(meta.len());
    read_impl(BufReader::new(file), len)
}

/// Takes `need` bytes out of the `left` the source is known to hold.
fn claim(left: &mut Option<u64>, need: u64, what: &str) -> Result<(), CheckpointError> {
    if let Some(left) = left {
        *left = left.checked_sub(need).ok_or_else(|| {
            CheckpointError::Format(format!("{what} needs {need} bytes, {left} are left"))
        })?;
    }
    Ok(())
}

/// The one checkpoint parser; `left` is how many bytes `r` holds, when
/// the caller knows.
fn read_impl(mut r: impl Read, mut left: Option<u64>) -> Result<ParamStore, CheckpointError> {
    claim(&mut left, 16, "checkpoint header")?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format(format!("bad magic {magic:?}")));
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let n = read_u64(&mut r)?;
    let mut store = ParamStore::new();
    let mut block = [0u8; BLOCK_VALUES * 4];
    for _ in 0..n {
        claim(&mut left, 8, "tensor name length")?;
        let name_len = read_u64(&mut r)?;
        if name_len > 1 << 20 {
            return Err(CheckpointError::Format(format!(
                "implausible name length {name_len}"
            )));
        }
        claim(&mut left, name_len + 16, "tensor name and shape")?;
        // `read_to_end` sizes the buffer by what arrives, not by the claim.
        let mut name = Vec::new();
        if r.by_ref().take(name_len).read_to_end(&mut name)? as u64 != name_len {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        let name = String::from_utf8(name)
            .map_err(|e| CheckpointError::Format(format!("non-utf8 name: {e}")))?;
        let rows = read_u64(&mut r)?;
        let cols = read_u64(&mut r)?;
        let len = match rows.checked_mul(cols) {
            Some(len) if len <= 1 << 30 => len as usize,
            _ => {
                return Err(CheckpointError::Format(format!(
                    "implausible tensor shape {rows}x{cols}"
                )))
            }
        };
        claim(&mut left, len as u64 * 4, "tensor data")?;
        // Reserve the whole tensor only when its bytes are known to
        // exist; otherwise grow as they arrive.
        let mut data = Vec::with_capacity(if left.is_some() { len } else { 0 });
        while data.len() < len {
            let bytes = &mut block[..(len - data.len()).min(BLOCK_VALUES) * 4];
            r.read_exact(bytes)?;
            data.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
        }
        store.add(name, Matrix::from_vec(rows as usize, cols as usize, data));
    }
    Ok(store)
}

/// Copies values from `loaded` into `target`, matching parameters by name.
///
/// Every target parameter must be present in `loaded` with identical shape;
/// extra tensors in `loaded` are an error too (they indicate an
/// architecture mismatch).
pub fn restore_into(target: &mut ParamStore, loaded: &ParamStore) -> Result<(), CheckpointError> {
    if target.len() != loaded.len() {
        return Err(CheckpointError::Format(format!(
            "parameter count mismatch: model has {}, checkpoint has {}",
            target.len(),
            loaded.len()
        )));
    }
    let ids: Vec<_> = target
        .iter()
        .map(|(id, name, value)| (id, name.to_string(), value.shape()))
        .collect();
    for (id, name, shape) in ids {
        let found = loaded.iter().find(|(_, n, _)| *n == name).ok_or_else(|| {
            CheckpointError::Format(format!("checkpoint missing parameter {name:?}"))
        })?;
        if found.2.shape() != shape {
            return Err(CheckpointError::Format(format!(
                "shape mismatch for {name:?}: model {shape:?}, checkpoint {:?}",
                found.2.shape()
            )));
        }
        let value = found.2.clone();
        *target.get_mut(id) = value;
    }
    Ok(())
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
    if target.len() != loaded.len() {
        return Err(CheckpointError::Format(format!(
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
        let found = loaded.iter().find(|(_, n, _)| *n == name).ok_or_else(|| {
            CheckpointError::Format(format!("checkpoint missing parameter {name:?}"))
        })?;
        let (l_rows, l_cols) = found.2.shape();
        if l_cols != cols || l_rows > rows {
            return Err(CheckpointError::Format(format!(
                "shape mismatch for {name:?}: model ({rows}, {cols}), checkpoint \
                 ({l_rows}, {l_cols}) — only row growth is warm-startable"
            )));
        }
        if l_rows == rows {
            let value = found.2.clone();
            *target.get_mut(id) = value;
        } else {
            let source = found.2.clone();
            let dest = target.get_mut(id);
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

    fn sample_store() -> ParamStore {
        let mut rng = seeded_rng(5);
        let mut store = ParamStore::new();
        store.add("layer.w", xavier_uniform(4, 6, &mut rng));
        store.add("layer.b", Matrix::zeros(1, 6));
        store.add("emb", xavier_uniform(10, 4, &mut rng));
        store
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, n1, v1), (_, n2, v2)) in store.iter().zip(loaded.iter()) {
            assert_eq!(n1, n2);
            assert!(v1.approx_eq(v2, 0.0));
        }
    }

    #[test]
    fn restore_into_matches_by_name() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
        // A freshly initialised model with the same architecture.
        let mut fresh = sample_store();
        let first_id = fresh.iter().next().unwrap().0;
        fresh.get_mut(first_id).scale_assign(0.0);
        restore_into(&mut fresh, &loaded).unwrap();
        for ((_, _, v1), (_, _, v2)) in fresh.iter().zip(store.iter()) {
            assert!(v1.approx_eq(v2, 0.0));
        }
    }

    #[test]
    fn restore_into_grown_prefixes_rows_and_keeps_tail() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
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
        let old_emb = store.iter().find(|(_, n, _)| *n == "emb").unwrap().2;
        for r in 0..10 {
            assert_eq!(emb.row(r), old_emb.row(r), "trained row {r} must resume");
        }
        for r in 10..13 {
            assert_eq!(emb.row(r), fresh_emb.row(r), "new row {r} keeps its init");
        }
        // Exact-shape parameters restore wholesale.
        let b = grown.iter().find(|(_, n, _)| *n == "layer.b").unwrap().2;
        assert_eq!(b.get(0, 0), 0.0, "layer.b came from the checkpoint");
    }

    #[test]
    fn restore_into_grown_rejects_shrink_and_col_change() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
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
        assert!(restore_into_grown(&mut widened, &loaded).is_err());
    }

    /// The value-at-a-time writer this module used before the block
    /// one, kept as the parity oracle: the bytes on disk may not change.
    fn write_store_per_value(store: &ParamStore) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(MAGIC);
        w.extend_from_slice(&VERSION.to_le_bytes());
        w.extend_from_slice(&(store.len() as u64).to_le_bytes());
        for (_, name, value) in store.iter() {
            w.extend_from_slice(&(name.len() as u64).to_le_bytes());
            w.extend_from_slice(name.as_bytes());
            w.extend_from_slice(&(value.rows() as u64).to_le_bytes());
            w.extend_from_slice(&(value.cols() as u64).to_le_bytes());
            for v in value.as_slice() {
                w.extend_from_slice(&v.to_le_bytes());
            }
        }
        w
    }

    fn bits(store: &ParamStore) -> Vec<(String, (usize, usize), Vec<u32>)> {
        store
            .iter()
            .map(|(_, name, value)| {
                let bits = value.as_slice().iter().map(|v| v.to_bits()).collect();
                (name.to_string(), value.shape(), bits)
            })
            .collect()
    }

    #[test]
    fn block_conversion_is_exact_around_block_boundaries() {
        let mut store = ParamStore::new();
        // Every value a distinct bit pattern, NaNs with payloads included.
        for (i, len) in [0usize, 1, 4095, 4096, 4097, 3 * 4096 + 5]
            .into_iter()
            .enumerate()
        {
            let data = (0..len)
                .map(|j| f32::from_bits((j as u32).wrapping_mul(0x9E37_79B9) ^ i as u32))
                .collect();
            store.add(format!("t{i}"), Matrix::from_vec(1, len, data));
        }
        let mut bytes = Vec::new();
        write_store(&store, &mut bytes).unwrap();
        assert_eq!(bytes, write_store_per_value(&store));
        assert_eq!(bits(&read_store(bytes.as_slice()).unwrap()), bits(&store));
        assert_eq!(bits(&read_store_bytes(&bytes).unwrap()), bits(&store));
    }

    /// A one-tensor checkpoint header: `n`, `name_len`, `name`, shape.
    fn header(n: u64, name_len: u64, name: &[u8], rows: u64, cols: u64) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&n.to_le_bytes());
        b.extend_from_slice(&name_len.to_le_bytes());
        b.extend_from_slice(name);
        b.extend_from_slice(&rows.to_le_bytes());
        b.extend_from_slice(&cols.to_le_bytes());
        b
    }

    #[test]
    fn lengths_beyond_the_bytes_present_are_format_errors_in_memory() {
        for (what, blob) in [
            ("2^30 values, no data", header(1, 1, b"t", 1 << 15, 1 << 15)),
            ("one value short", {
                let mut b = header(1, 1, b"t", 2, 2);
                b.extend_from_slice(&[0; 12]);
                b
            }),
            ("shape product overflows", header(1, 1, b"t", u64::MAX, 2)),
            ("name longer than the blob", header(1, 1 << 19, b"t", 1, 1)),
            ("2^60 tensors", {
                let mut b = header(1 << 60, 1, b"t", 1, 1);
                b.extend_from_slice(&[0; 4]);
                b
            }),
        ] {
            let err = read_store_bytes(&blob).unwrap_err();
            assert!(matches!(err, CheckpointError::Format(_)), "{what}: {err}");
            // The streaming reader cannot know the length up front; it
            // fails on the missing bytes instead, never on allocation.
            assert!(read_store(blob.as_slice()).is_err(), "{what}");
        }
    }

    #[test]
    fn readers_never_panic_and_agree_on_arbitrary_bytes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut valid = Vec::new();
        write_store(&sample_store(), &mut valid).unwrap();
        for case in 0..10_000 {
            let blob: Vec<u8> = if case % 3 == 0 {
                let mut b = MAGIC.to_vec();
                b.extend((0..rng.gen_range(0..80usize)).map(|_| rng.gen_range(0..=255u32) as u8));
                b
            } else {
                let mut b = valid.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..b.len());
                    b[at] = rng.gen_range(0..=255u32) as u8;
                }
                if case % 3 == 1 {
                    b.truncate(rng.gen_range(0..=b.len()));
                }
                b
            };
            match (read_store(blob.as_slice()), read_store_bytes(&blob)) {
                (Ok(streamed), Ok(in_memory)) => assert_eq!(bits(&streamed), bits(&in_memory)),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "case {case}: readers disagree: {:?} / {:?}",
                    a.err(),
                    b.err()
                ),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_store(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn truncated_file_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_store(buf.as_slice()).is_err());
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
        let mut wrong = ParamStore::new();
        wrong.add("layer.w", Matrix::zeros(3, 3));
        wrong.add("layer.b", Matrix::zeros(1, 6));
        wrong.add("emb", Matrix::zeros(10, 4));
        let err = restore_into(&mut wrong, &loaded).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_count_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        let loaded = read_store(buf.as_slice()).unwrap();
        let mut wrong = ParamStore::new();
        wrong.add("only", Matrix::zeros(1, 1));
        assert!(restore_into(&mut wrong, &loaded).is_err());
    }

    #[test]
    fn file_round_trip() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("smgcn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.smgt");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
