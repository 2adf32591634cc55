//! The publish artifact: one frozen model + its serving vocabulary as a
//! single byte blob.
//!
//! A rolling cluster publish ships a new model generation to every
//! replica over the NDJSON admin protocol. The unit being shipped must
//! carry the *pair* the hot-swap invariant is built on — embeddings and
//! the names they were frozen with — because streaming ingestion grows
//! vocabularies, and a replica that swapped weights without names would
//! describe generation `g` rankings with generation `g-1` labels.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "SMGA"                magic
//! u8  version           format version (currently 2)
//! u32 n_symptoms        symptom name count
//! u32 n_herbs           herb name count
//! n_symptoms x (u32 len, utf-8 bytes)
//! n_herbs    x (u32 len, utf-8 bytes)
//! <frozen model>        the SMGT checkpoint, FrozenModel::write_to
//! u32 crc32             checksum of every preceding byte
//! ```
//!
//! Version 2 added the version byte and the CRC32 trailer: a publish
//! artifact travels process→socket→process and then *becomes the model*,
//! so a flipped bit that still parses would silently serve garbage
//! embeddings fleet-wide. [`decode`] verifies the checksum before
//! touching the payload and rejects any mismatch as a structured
//! `bad_artifact`; version-1 blobs (no version byte, no trailer) are
//! rejected too — every publisher in the workspace re-encodes.
//!
//! For transport inside a JSON line the blob is base64-encoded
//! ([`to_base64`] / [`from_base64`]) and wrapped in the request line by
//! [`publish_line`]; the codec lives here because the workspace is
//! std-only. Decoding has two paths, pinned equal by tests (`Ok` bytes
//! and `Err` text alike): on a CPU with AVX2 a vector loop decodes the
//! leading run of clean 32-digit blocks, and the scalar quad loop — the
//! only path elsewhere — decodes the rest and names the first bad quad.

use crate::frozen::{FrozenError, FrozenModel};
use crate::json::{self, Json};
use crate::server::ServingVocab;
use smgcn_obs::integrity::crc32;
use smgcn_tensor::checkpoint::CheckpointError;

const MAGIC: &[u8; 4] = b"SMGA";

/// The artifact format version written by [`encode`].
pub const VERSION: u8 = 2;

/// Serialises a model + vocabulary into one publishable blob.
pub fn encode(model: &FrozenModel, vocab: &ServingVocab) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    let names = |out: &mut Vec<u8>, list: &[String]| {
        for name in list {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
    };
    out.extend_from_slice(&(vocab.symptom_names().len() as u32).to_le_bytes());
    out.extend_from_slice(&(vocab.herb_names().len() as u32).to_le_bytes());
    names(&mut out, vocab.symptom_names());
    names(&mut out, vocab.herb_names());
    model
        .write_to(&mut out)
        .expect("writing a frozen model to memory cannot fail");
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The `{"op":"publish"}` request line (no newline) that ships the
/// base64 text of an artifact. Every publisher builds its line here; a
/// rollout builds it once and sends the same bytes to every replica, so
/// the line is as large as the model.
pub fn publish_line(artifact_b64: &str) -> String {
    json::obj([
        ("op", Json::Str("publish".into())),
        ("artifact", Json::Str(artifact_b64.to_string())),
    ])
    .to_string()
}

/// Byte cursor over an artifact; every read is bounds-checked so a
/// truncated blob fails cleanly instead of panicking.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrozenError> {
        if self.rest.len() < n {
            return Err(FrozenError::Format("truncated publish artifact".into()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<usize, FrozenError> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn names(&mut self, n: usize) -> Result<Vec<String>, FrozenError> {
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.u32()?;
            let raw = self.take(len)?;
            names.push(
                std::str::from_utf8(raw)
                    .map_err(|e| FrozenError::Format(format!("bad name encoding: {e}")))?
                    .to_string(),
            );
        }
        Ok(names)
    }
}

/// Parses a blob produced by [`encode`], verifying the CRC32 trailer
/// before touching the payload.
///
/// # Errors
/// [`FrozenError::Format`] on a damaged, truncated, checksum-mismatched
/// or wrong-version artifact, plus any checkpoint error from the
/// embedded frozen model. The `artifact.decode` injection site can
/// corrupt a byte here to prove the checksum rejection path.
pub fn decode(bytes: &[u8]) -> Result<(FrozenModel, ServingVocab), FrozenError> {
    // Fault plane: a planned corruption flips one byte of a private copy
    // (the caller's buffer is never touched). Zero cost when disabled.
    let mut corrupted: Vec<u8>;
    let mut bytes = bytes;
    if smgcn_faults::enabled() {
        corrupted = bytes.to_vec();
        if smgcn_faults::corrupt_buf(smgcn_faults::sites::ARTIFACT_DECODE, &mut corrupted) {
            bytes = &corrupted;
        }
    }
    let mut cur = Cursor { rest: bytes };
    if cur.take(4)? != MAGIC {
        return Err(FrozenError::Format(
            "not a publish artifact (bad magic)".into(),
        ));
    }
    let version = cur.take(1)?[0];
    if version != VERSION {
        return Err(FrozenError::Format(format!(
            "unsupported publish artifact version {version} (expected {VERSION})"
        )));
    }
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(FrozenError::Format("truncated publish artifact".into()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(FrozenError::Format(format!(
            "publish artifact checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — corrupt artifact rejected"
        )));
    }
    // Re-anchor the cursor on the checksummed body (magic + version
    // already consumed above).
    cur = Cursor {
        rest: &body[MAGIC.len() + 1..],
    };
    let n_symptoms = cur.u32()?;
    let n_herbs = cur.u32()?;
    // Name counts that cannot fit in the remaining bytes (each name
    // costs at least its 4-byte length prefix) are corruption, not a
    // huge vocabulary — fail before `Vec::with_capacity` turns a crafted
    // count into a multi-gigabyte allocation.
    if n_symptoms.saturating_add(n_herbs).saturating_mul(4) > bytes.len() {
        return Err(FrozenError::Format(
            "publish artifact name counts exceed payload".into(),
        ));
    }
    let symptoms = cur.names(n_symptoms)?;
    let herbs = cur.names(n_herbs)?;
    // The checkpoint parser checks every tensor's `rows * cols * 4`
    // against the bytes left in `cur.rest` before allocating it; what it
    // rejects is a malformed artifact like any other.
    let model = FrozenModel::read_from(cur.rest).map_err(|e| match e {
        FrozenError::Checkpoint(CheckpointError::Format(m)) => FrozenError::Format(m),
        other => other,
    })?;
    if !symptoms.is_empty() && symptoms.len() != model.n_symptoms() {
        return Err(FrozenError::Format(format!(
            "artifact vocab has {} symptom names but the model has {}",
            symptoms.len(),
            model.n_symptoms()
        )));
    }
    if !herbs.is_empty() && herbs.len() != model.n_herbs() {
        return Err(FrozenError::Format(format!(
            "artifact vocab has {} herb names but the model has {}",
            herbs.len(),
            model.n_herbs()
        )));
    }
    Ok((model, ServingVocab::new(symptoms, herbs)))
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte that is not a base64 digit in [`B64_VALUE`] (`=` included).
const NOT_B64: u8 = 0xff;

/// Byte → 6-bit value, [`NOT_B64`] for everything outside the alphabet.
const B64_VALUE: [u8; 256] = {
    let mut table = [NOT_B64; 256];
    let mut i = 0;
    while i < 64 {
        table[B64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Standard base64 (with padding) over arbitrary bytes.
pub fn to_base64(bytes: &[u8]) -> String {
    let digit = |n: u32, shift: u32| B64[((n >> shift) & 0x3f) as usize];
    let mut out = vec![b'='; bytes.len().div_ceil(3) * 4];
    let mut triples = bytes.chunks_exact(3);
    let mut quads = out.chunks_exact_mut(4);
    for (t, q) in (&mut triples).zip(&mut quads) {
        let n = u32::from_be_bytes([0, t[0], t[1], t[2]]);
        q.copy_from_slice(&[digit(n, 18), digit(n, 12), digit(n, 6), digit(n, 0)]);
    }
    // A 1- or 2-byte tail fills 2 or 3 digits of the last quad; the rest
    // of it stays `=`.
    let tail = triples.remainder();
    if let Some(q) = quads.next() {
        let n = u32::from_be_bytes([0, tail[0], *tail.get(1).unwrap_or(&0), 0]);
        q[0] = digit(n, 18);
        q[1] = digit(n, 12);
        if tail.len() == 2 {
            q[2] = digit(n, 6);
        }
    }
    String::from_utf8(out).expect("base64 digits are ASCII")
}

/// The error for a quad that does not decode, by the rules
/// [`from_base64`] documents: padding first, then the leftmost character
/// outside the alphabet.
fn bad_quad(quad: &[u8], last: bool) -> String {
    let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 || (pad > 0 && !last) {
        return "misplaced base64 padding".into();
    }
    let bad = quad[..4 - pad]
        .iter()
        .find(|&&c| B64_VALUE[c as usize] == NOT_B64)
        .expect("a quad that failed to decode holds a non-digit");
    format!("bad base64 character {:?}", *bad as char)
}

/// Decodes standard base64 (padding required, whitespace rejected).
///
/// # Errors
/// A length that is not a multiple of 4, else the first quad that does
/// not decode: `misplaced base64 padding` when it ends in more than two
/// `=` or ends in `=` without being the last quad, otherwise
/// `bad base64 character` naming its leftmost non-digit (so `"A=AA"` is
/// a bad character: only *trailing* `=` count as padding).
pub fn from_base64(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let Some(body_len) = bytes.len().checked_sub(4) else {
        return Ok(Vec::new());
    };
    // Only the last quad may be padded: every quad before it is four
    // digits to three bytes, straight into the output. The vector loop
    // takes the leading run of clean 32-digit blocks; the quad loop
    // finishes the body, so the quad that fails is always found by it.
    let (body, last) = bytes.split_at(body_len);
    let mut out = vec![0u8; body_len / 4 * 3 + 3];
    let done = decode_blocks(body, &mut out);
    let (full, tail) = out.split_at_mut(body_len / 4 * 3);
    decode_quads(&body[done..], &mut full[done / 4 * 3..])?;
    let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
    let mut bad = pad > 2;
    let mut n = 0u32;
    for &c in &last[..4usize.saturating_sub(pad)] {
        let v = B64_VALUE[c as usize];
        bad |= v == NOT_B64;
        n = n << 6 | u32::from(v & 0x3f);
    }
    if bad {
        return Err(bad_quad(last, true));
    }
    n <<= 6 * pad as u32;
    tail.copy_from_slice(&n.to_be_bytes()[1..]);
    out.truncate(out.len() - pad);
    Ok(out)
}

/// Decodes `body`, whole unpadded quads, into `out`, three bytes a
/// quad; the error is that of the first quad that does not decode.
fn decode_quads(body: &[u8], out: &mut [u8]) -> Result<(), String> {
    for (quad, dst) in body.chunks_exact(4).zip(out.chunks_exact_mut(3)) {
        let v = [
            B64_VALUE[quad[0] as usize],
            B64_VALUE[quad[1] as usize],
            B64_VALUE[quad[2] as usize],
            B64_VALUE[quad[3] as usize],
        ];
        // Digits are < 64, so the high bit is set only by `NOT_B64`.
        if (v[0] | v[1] | v[2] | v[3]) & 0x80 != 0 {
            return Err(bad_quad(quad, false));
        }
        dst[0] = v[0] << 2 | v[1] >> 4;
        dst[1] = v[1] << 4 | v[2] >> 2;
        dst[2] = v[2] << 6 | v[3];
    }
    Ok(())
}

/// Decodes the leading 32-digit blocks of `body` into `out`, 24 bytes a
/// block, while each block is all digits and its 32-byte store fits in
/// `out`. Returns the digits consumed, a multiple of 32: 0 on a CPU
/// without AVX2, where [`decode_quads`] does all the work.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn decode_blocks(body: &[u8], out: &mut [u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // Block `i` reads `body[32i..32i + 32]` and stores
        // `out[24i..24i + 32]`.
        let blocks = (body.len() / 32).min(out.len().saturating_sub(8) / 24);
        // SAFETY: the CPU has AVX2; `blocks` blocks of 32 digits lie in
        // `body`, and each block's 32-byte store lies in `out`.
        return unsafe { b64_avx2::decode(body.as_ptr(), out.as_mut_ptr(), blocks) };
    }
    0
}

/// The AVX2 base64 decoder (after Muła and Lemire, "Faster Base64
/// Encoding and Decoding Using AVX2 Instructions", 2018).
///
/// A digit's class is read off its two nibbles: `lo_lut[low nibble] &
/// hi_lut[high nibble]` is zero exactly for the 64 digits of [`B64`].
/// Each `hi_lut` entry is one bit standing for a range of 16 bytes (0x10
/// for the ranges holding no digit), and each `lo_lut` entry sets the
/// bits of the ranges in which that low nibble is *not* a digit. A byte ≥ 0x80 has
/// a high nibble ≥ 8, so it lands on 0x10 and is refused like any
/// other non-digit.
///
/// A valid digit's 6-bit value is the byte plus an offset picked by its
/// high nibble (`+` and `/` share a nibble, so `/` steps one entry
/// down). Four 6-bit values pack into a 24-bit word with two multiply-
/// adds, and a byte shuffle plus a lane permute lay the eight words of a
/// block out as 24 contiguous bytes.
#[cfg(target_arch = "x86_64")]
mod b64_avx2 {
    use std::arch::x86_64::*;

    /// Both 128-bit lanes of a table.
    macro_rules! twice {
        ($($b:expr),*) => { _mm256_setr_epi8($($b as i8),*, $($b as i8),*) };
    }

    /// One block: `Some` 24 bytes (in the low 24 of the register) when
    /// all 32 bytes are digits.
    #[target_feature(enable = "avx2")]
    fn block(text: __m256i) -> Option<__m256i> {
        let lo_lut = twice!(
            0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x13, 0x1a, 0x1b, 0x1b,
            0x1b, 0x1a
        );
        let hi_lut = twice!(
            0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10,
            0x10, 0x10
        );
        // '+' +19, '/' +16, '0'..'9' +4, 'A'..'Z' -65, 'a'..'z' -71.
        let offsets = twice!(0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0);
        let nibble = _mm256_set1_epi8(0x0f);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(text), nibble);
        let lo = _mm256_and_si256(text, nibble);
        let class = _mm256_and_si256(
            _mm256_shuffle_epi8(lo_lut, lo),
            _mm256_shuffle_epi8(hi_lut, hi),
        );
        if _mm256_testz_si256(class, class) == 0 {
            return None;
        }
        let slash = _mm256_cmpeq_epi8(text, _mm256_set1_epi8(b'/' as i8));
        let offset = _mm256_shuffle_epi8(offsets, _mm256_add_epi8(hi, slash));
        let values = _mm256_add_epi8(text, offset);
        // [a b c d] → a·64 + b, c·64 + d → (a·64 + b)·4096 + c·64 + d.
        let pairs = _mm256_maddubs_epi16(values, _mm256_set1_epi32(0x0140_0140));
        let words = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0001_1000));
        // Each word's three bytes, big end first, into the low 12 bytes
        // of its lane; then the two lanes' 12 bytes side by side.
        let bytes = _mm256_shuffle_epi8(
            words,
            twice!(2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, -1, -1, -1, -1),
        );
        Some(_mm256_permutevar8x32_epi32(
            bytes,
            _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 7, 7),
        ))
    }

    /// Decodes up to `blocks` blocks from `text` into `out`, stopping at
    /// the first block that holds a non-digit; returns the digits
    /// consumed.
    ///
    /// # Safety
    /// The CPU must have AVX2; `text` must be readable for `32 * blocks`
    /// bytes and `out` writable for `24 * (blocks - 1) + 32` (when
    /// `blocks > 0`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode(text: *const u8, out: *mut u8, blocks: usize) -> usize {
        for i in 0..blocks {
            // SAFETY: `i < blocks`, so bytes `32i..32i + 32` are readable.
            let digits = unsafe { _mm256_loadu_si256(text.add(32 * i).cast()) };
            let Some(bytes) = block(digits) else {
                return 32 * i;
            };
            // SAFETY: `i < blocks`, so bytes `24i..24i + 32` are writable.
            unsafe { _mm256_storeu_si256(out.add(24 * i).cast(), bytes) };
        }
        32 * blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use smgcn_tensor::Matrix;

    fn sample() -> (FrozenModel, ServingVocab) {
        let symptoms = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 - 1.5);
        let herbs = Matrix::from_fn(4, 2, |r, c| (r * 3 + c * 5) as f32 * 0.25 - 2.0);
        let si = Some((Matrix::identity(2).scale(1.5), Matrix::filled(1, 2, 0.1)));
        let model = FrozenModel::from_parts(symptoms, herbs, si).unwrap();
        let vocab = ServingVocab::new(
            vec!["fever".into(), "咳嗽".into(), "night sweat".into()],
            (0..4).map(|i| format!("herb-{i}")).collect(),
        );
        (model, vocab)
    }

    /// 19 herbs x d = 5: three GEMM panels, the last one ragged.
    fn multi_panel_sample() -> (FrozenModel, ServingVocab) {
        let symptoms = Matrix::from_fn(6, 5, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.3 - 1.4);
        let herbs = Matrix::from_fn(19, 5, |r, c| ((r * 5 + c * 13) % 17) as f32 * 0.2 - 1.7);
        let si = Some((
            Matrix::from_fn(5, 5, |r, c| ((r * 3 + c) % 7) as f32 * 0.25 - 0.6),
            Matrix::from_fn(1, 5, |_, c| c as f32 * 0.1 - 0.2),
        ));
        let model = FrozenModel::from_parts(symptoms, herbs, si).unwrap();
        (model, ServingVocab::default())
    }

    #[test]
    fn artifact_round_trips_model_and_vocab() {
        // The model holds herbs and W_mlp as GEMM panels only; encoding
        // unpacks them, so a re-encode must reproduce the blob exactly.
        for (model, vocab) in [sample(), multi_panel_sample()] {
            let blob = encode(&model, &vocab);
            let (m2, v2) = decode(&blob).unwrap();
            assert_eq!(encode(&m2, &v2), blob, "encode(decode(bytes)) == bytes");
        }
        let (model, vocab) = sample();
        let blob = encode(&model, &vocab);
        let (m2, v2) = decode(&blob).unwrap();
        assert_eq!(
            m2.score_one(&[0, 2]).unwrap(),
            model.score_one(&[0, 2]).unwrap()
        );
        assert_eq!(v2.symptom_names(), vocab.symptom_names());
        assert_eq!(v2.herb_names(), vocab.herb_names());
        assert_eq!(v2.symptom_id("咳嗽"), Some(1));
    }

    #[test]
    fn nameless_vocab_round_trips() {
        let (model, _) = sample();
        let blob = encode(&model, &ServingVocab::default());
        let (_, v2) = decode(&blob).unwrap();
        assert!(v2.is_empty());
    }

    #[test]
    fn rejects_damaged_artifacts() {
        let (model, vocab) = sample();
        let blob = encode(&model, &vocab);
        assert!(decode(&blob[..3]).is_err(), "truncated magic");
        assert!(decode(&blob[..10]).is_err(), "truncated header");
        let mut wrong = blob.clone();
        wrong[0] = b'X';
        assert!(decode(&wrong).is_err(), "bad magic");
        let mut huge = blob;
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&huge).is_err(), "absurd name count");
    }

    #[test]
    fn rejects_wrong_version() {
        let (model, vocab) = sample();
        let mut blob = encode(&model, &vocab);
        blob[4] = 1;
        let err = decode(&blob).unwrap_err();
        assert!(
            err.to_string().contains("version"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checksum_rejects_every_single_byte_flip() {
        let (model, vocab) = sample();
        let blob = encode(&model, &vocab);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(
                decode(&bad).is_err(),
                "flip at byte {i}/{} must be rejected",
                blob.len()
            );
        }
    }

    #[test]
    fn vocab_model_size_mismatch_rejected() {
        let (model, _) = sample();
        let vocab = ServingVocab::new(vec!["only-one".into()], Vec::new());
        assert!(decode(&encode(&model, &vocab)).is_err());
    }

    #[test]
    fn base64_round_trips_all_tail_lengths() {
        for len in 0..10usize {
            let bytes: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(200))
                .collect();
            let text = to_base64(&bytes);
            assert_eq!(from_base64(&text).unwrap(), bytes, "len {len}");
        }
        assert_eq!(
            to_base64(b"any carnal pleasure."),
            "YW55IGNhcm5hbCBwbGVhc3VyZS4="
        );
    }

    /// The per-character encoder this module used before the
    /// table-driven one, kept as the parity oracle.
    fn to_base64_per_char(bytes: &[u8]) -> String {
        let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
        for chunk in bytes.chunks(3) {
            let b = [
                chunk[0],
                *chunk.get(1).unwrap_or(&0),
                *chunk.get(2).unwrap_or(&0),
            ];
            let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
            let sextet = |shift: u32| B64[((n >> shift) & 0x3f) as usize] as char;
            out.push(sextet(18));
            out.push(sextet(12));
            out.push(if chunk.len() > 1 { sextet(6) } else { '=' });
            out.push(if chunk.len() > 2 { sextet(0) } else { '=' });
        }
        out
    }

    /// The per-character decoder kept as the parity oracle: its `Ok`
    /// bytes and its `Err` strings are the contract.
    fn from_base64_per_char(text: &str) -> Result<Vec<u8>, String> {
        let bytes = text.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "base64 length {} is not a multiple of 4",
                bytes.len()
            ));
        }
        let value = |c: u8| -> Result<u32, String> {
            match c {
                b'A'..=b'Z' => Ok((c - b'A') as u32),
                b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
                b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
                b'+' => Ok(62),
                b'/' => Ok(63),
                other => Err(format!("bad base64 character {:?}", other as char)),
            }
        };
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for (i, quad) in bytes.chunks(4).enumerate() {
            let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
            if pad > 2 || (pad > 0 && i + 1 != bytes.len() / 4) {
                return Err("misplaced base64 padding".into());
            }
            let mut n = 0u32;
            for &c in &quad[..4 - pad] {
                n = (n << 6) | value(c)?;
            }
            n <<= 6 * pad as u32;
            let b = n.to_be_bytes();
            out.extend_from_slice(&b[1..4 - pad]);
        }
        Ok(out)
    }

    #[test]
    fn base64_matches_the_per_char_oracle_on_every_length_and_random_buffers() {
        let mut rng = StdRng::seed_from_u64(21);
        let lengths = (0..=67).chain((0..200).map(|_| rng.gen_range(68..5000usize)));
        for len in lengths.collect::<Vec<_>>() {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let text = to_base64(&bytes);
            assert_eq!(text, to_base64_per_char(&bytes), "len {len}");
            assert_eq!(from_base64(&text).unwrap(), bytes, "len {len}");
            assert_eq!(from_base64_per_char(&text).unwrap(), bytes, "len {len}");
        }
    }

    #[test]
    fn base64_errors_are_pinned() {
        for (text, want) in [
            ("abc", "base64 length 3 is not a multiple of 4"),
            ("AAAAA", "base64 length 5 is not a multiple of 4"),
            // Only trailing `=` are padding: one in the middle is a bad
            // character, reported before anything after it.
            ("A=AA", "bad base64 character '='"),
            ("=AAA", "bad base64 character '='"),
            ("AA=A", "bad base64 character '='"),
            ("A=A=", "bad base64 character '='"),
            ("A===", "misplaced base64 padding"),
            ("====", "misplaced base64 padding"),
            ("AA==AAAA", "misplaced base64 padding"),
            ("AAA=AAAA", "misplaced base64 padding"),
            // Padding is judged before the characters of the same quad …
            ("!A==AAAA", "misplaced base64 padding"),
            // … and an earlier quad before a later one.
            ("A!AAAA==AAAA", "bad base64 character '!'"),
            ("AA==A!AA", "misplaced base64 padding"),
            ("!A==", "bad base64 character '!'"),
            ("A\nAA", "bad base64 character '\\n'"),
            ("AAé", "bad base64 character 'Ã'"),
        ] {
            assert_eq!(from_base64(text).unwrap_err(), want, "{text:?}");
            assert_eq!(from_base64_per_char(text).unwrap_err(), want, "{text:?}");
        }
        // Slack bits in a padded quad were never checked and still are not.
        assert_eq!(from_base64("QR==").unwrap(), from_base64("QQ==").unwrap());
    }

    #[test]
    fn base64_agrees_with_the_oracle_on_every_short_string() {
        // Every string of one and of two quads over an alphabet with a
        // digit from each range, `=`, and non-digits: each malformed
        // class at each position, alone and next to every other.
        let alphabet = *b"Az9/=!";
        for len in [4usize, 8] {
            let mut text = vec![0u8; len];
            for code in 0..alphabet.len().pow(len as u32) {
                let mut rest = code;
                for slot in &mut text {
                    *slot = alphabet[rest % alphabet.len()];
                    rest /= alphabet.len();
                }
                let text = std::str::from_utf8(&text).unwrap();
                assert_eq!(from_base64(text), from_base64_per_char(text), "{text:?}");
            }
        }
    }

    #[test]
    fn base64_never_panics_and_agrees_on_arbitrary_bytes() {
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..10_000 {
            // Up to 400 bytes: a body long enough for several of the
            // vector loop's 32-digit blocks and its store slack.
            let mut bytes: Vec<u8> = (0..rng.gen_range(0..400usize))
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => rng.gen_range(0..=255u32) as u8,
                    1 => b'=',
                    _ => B64[rng.gen_range(0..64usize)],
                })
                .collect();
            if case % 2 == 0 {
                bytes.truncate(bytes.len() / 4 * 4);
            }
            let text = String::from_utf8_lossy(&bytes);
            assert_eq!(from_base64(&text), from_base64_per_char(&text), "{text:?}");
        }
    }

    #[test]
    fn base64_agrees_with_the_oracle_on_each_malformed_class_at_every_position() {
        // 160 digits: four 32-digit blocks for the vector loop, then the
        // quad loop and the last quad. Each class lands in a vector
        // block, in the quad loop's share and in the last quad.
        let mut rng = StdRng::seed_from_u64(24);
        let digits: Vec<u8> = (0..160).map(|_| B64[rng.gen_range(0..64usize)]).collect();
        for class in [b'=', b'!', b'-', b' ', b'\n', 0, 0xff] {
            for at in 0..digits.len() {
                let mut bytes = digits.clone();
                bytes[at] = class;
                if class >= 0x80 {
                    // Lossy UTF-8 turns the byte into the 3-byte U+FFFD:
                    // drop two digits at the end to keep 160 bytes.
                    bytes.truncate(bytes.len() - 2);
                    if at >= bytes.len() {
                        continue;
                    }
                }
                let text = String::from_utf8_lossy(&bytes);
                assert_eq!(
                    from_base64(&text),
                    from_base64_per_char(&text),
                    "class {class:#04x} at {at}"
                );
            }
        }
    }

    #[test]
    fn base64_vector_and_quad_loops_agree_on_artifact_sized_buffers() {
        let mut rng = StdRng::seed_from_u64(25);
        for case in 0..4 {
            let len = 1_420_382 + rng.gen_range(0..3usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let mut text = to_base64(&bytes).into_bytes();
            assert_eq!(
                from_base64_per_char(std::str::from_utf8(&text).unwrap()).unwrap(),
                bytes
            );
            // Each loop on its own over the whole body, then the public
            // function clean and with one digit spoiled.
            let body = &text[..text.len() - 4];
            let (mut vector, mut quads) = (vec![0; len + 3], vec![0; len + 3]);
            let done = decode_blocks(body, &mut vector);
            decode_quads(body, &mut quads).unwrap();
            assert_eq!(vector[..done / 4 * 3], quads[..done / 4 * 3], "case {case}");
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // A clean body leaves the quad loop under two blocks.
                assert!(body.len() - done < 64, "case {case}: stopped at {done}");
            }
            assert_eq!(
                from_base64(std::str::from_utf8(&text).unwrap()).unwrap(),
                bytes
            );
            let at = rng.gen_range(0..text.len() - 4);
            text[at] = b'*';
            let text = std::str::from_utf8(&text).unwrap();
            assert_eq!(
                from_base64(text),
                from_base64_per_char(text),
                "case {case} at {at}"
            );
        }
    }

    /// Rewrites the CRC trailer so that a mutated artifact gets past
    /// the checksum and into the parsers behind it.
    fn reseal(blob: &mut [u8]) {
        let body = blob.len() - 4;
        let crc = crc32(&blob[..body]);
        blob[body..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn decode_never_panics_on_arbitrary_or_resealed_bytes() {
        let mut rng = StdRng::seed_from_u64(23);
        let (model, vocab) = sample();
        let valid = encode(&model, &vocab);
        for case in 0..10_000 {
            let blob: Vec<u8> = match case % 3 {
                0 => (0..rng.gen_range(0..96usize))
                    .map(|_| rng.gen_range(0..=255u32) as u8)
                    .collect(),
                // A valid artifact, cut short or with a few bytes (often a
                // length field: they are most of the header) overwritten.
                _ => {
                    let mut blob = valid.clone();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let at = rng.gen_range(0..blob.len() - 4);
                        blob[at] = rng.gen_range(0..=255u32) as u8;
                    }
                    if case % 3 == 1 {
                        blob.truncate(rng.gen_range(9..=blob.len()));
                    }
                    reseal(&mut blob);
                    blob
                }
            };
            // Ok or Err, never a panic; what decodes is a sound model
            // (a mutated tensor name is dropped, so compare re-encodings).
            if let Ok((m, v)) = decode(&blob) {
                let again = encode(&m, &v);
                let (m2, v2) = decode(&again).unwrap();
                assert_eq!(encode(&m2, &v2), again, "case {case}");
            }
        }
    }

    #[test]
    fn base64_rejects_malformed_text() {
        for bad in ["abc", "a=bc", "====", "ab!c", "=abc"] {
            assert!(from_base64(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn base64_survives_artifact_sized_blobs() {
        let (model, vocab) = sample();
        let blob = encode(&model, &vocab);
        assert_eq!(from_base64(&to_base64(&blob)).unwrap(), blob);
    }
}
