//! The model file: the one format for model bytes, on disk and on the
//! wire.
//!
//! Training checkpoints (`smgcn train --out`: a recommender's parameter
//! store), frozen models ([`FrozenModel::save`], `smgcn freeze`: `E_S`,
//! `E*_H` and the SI head) and the publish artifact ([`encode`] /
//! [`decode`]) are all this file: [`write()`] writes it and one streaming
//! reader reads it. A publish must carry the *pair* the hot-swap
//! invariant is built on — embeddings and the names they were frozen
//! with — because ingestion grows vocabularies, so the file carries the
//! serving names too (empty in checkpoints and frozen files).
//!
//! A magic, then `smgcn_obs::integrity` frames (`len crc payload`, all
//! integers little-endian):
//!
//! ```text
//! file   := MAGIC header tensor*
//! header := frame: u32 version (3), u64 n_symptoms, u64 n_herbs,
//!                  per name: u64 len, utf-8 bytes;
//!                  u64 n_tensors, per tensor: u64 name_len, name, u64 rows, u64 cols, u32 crc
//! tensor := frame: rows x cols f32, row-major — one per header entry, in order
//! ```
//!
//! A file becomes the model, so a flipped bit that still parsed would
//! serve garbage. Every frame is checksummed, and the header lists each
//! tensor frame's CRC too, so a frame moved from another slot or file is
//! refused like a damaged one. A load names the damaged frame; [`decode`]
//! answers as a publish always has ("publish artifact checksum
//! mismatch"), which the server returns as `bad_artifact`. The two
//! earlier formats (an unchecksummed checkpoint, the version-2 artifact)
//! are refused by their magic.
//!
//! A load streams: each frame header, then the payload block by block
//! straight into its tensor, feeding the CRC. When the input's length is
//! known (a file, bytes in memory), every count, shape and frame length
//! is checked against the bytes left **before** anything is allocated for
//! it: anyone who can publish can compute a CRC. A pipe's tensors grow
//! as its bytes arrive.
//!
//! For transport inside a JSON line the file is base64-encoded
//! ([`to_base64`] / [`from_base64`]), wrapped in the request line by
//! [`publish_line`] and moved back out by [`take_artifact`]; the codec
//! lives here because the workspace is std-only. Decoding has two
//! paths, pinned equal by tests (`Ok` bytes and `Err` text alike): on a
//! CPU with AVX2 a vector loop decodes the leading run of clean
//! 32-digit blocks, and the scalar quad loop — the only path elsewhere —
//! decodes the rest and names the first bad quad.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::errors::codes;
use crate::frozen::{FrozenError, FrozenModel};
use crate::json::{self, Json};
use crate::ops::ApiError;
use crate::server::ServingVocab;
use smgcn_obs::integrity::{
    crc32, crc32_update, encode_frame, frame_header, parse_frame_header, FRAME_HEADER,
};
use smgcn_tensor::{Matrix, ParamStore};

/// The first bytes of every model file.
pub const MAGIC: &[u8; 8] = b"SMGMODEL";

/// The format version [`write()`] puts in the header.
pub const VERSION: u32 = 3;

/// Bytes of a tensor converted per `read_exact` / `write_all`: 16 KiB.
const BLOCK_BYTES: usize = 16 << 10;

/// Writes `store`'s tensors, in order, and `vocab`'s names as a model
/// file. Each tensor is converted a block at a time twice: once for the
/// CRC the header lists, once to write it.
pub fn write(mut w: impl Write, store: &ParamStore, vocab: &ServingVocab) -> io::Result<()> {
    let mut block = [0u8; BLOCK_BYTES];
    let crcs: Vec<u32> = store
        .iter()
        .map(|(_, _, m)| {
            m.as_slice()
                .chunks(BLOCK_BYTES / 4)
                .fold(0, |crc, vs| crc32_update(crc, le_bytes(vs, &mut block)))
        })
        .collect();
    let mut header = VERSION.to_le_bytes().to_vec();
    let mut put = |n: usize, bytes: &[u8]| {
        header.extend_from_slice(&(n as u64).to_le_bytes());
        header.extend_from_slice(bytes);
    };
    put(vocab.symptom_names().len(), &[]);
    put(vocab.herb_names().len(), &[]);
    for name in vocab.symptom_names().iter().chain(vocab.herb_names()) {
        put(name.len(), name.as_bytes());
    }
    put(store.len(), &[]);
    for ((_, name, m), crc) in store.iter().zip(&crcs) {
        put(name.len(), name.as_bytes());
        put(m.rows(), &[]);
        put(m.cols(), &crc.to_le_bytes());
    }
    let mut head = MAGIC.to_vec();
    encode_frame(&header, &mut head);
    w.write_all(&head)?;
    for ((_, name, m), crc) in store.iter().zip(crcs) {
        let len = u32::try_from(m.len() * 4)
            .map_err(|_| io::Error::other(format!("tensor {name:?} does not fit a frame")))?;
        w.write_all(&frame_header(len, crc))?;
        for vs in m.as_slice().chunks(BLOCK_BYTES / 4) {
            w.write_all(le_bytes(vs, &mut block))?;
        }
    }
    w.flush()
}

/// `values` as little-endian bytes, in the front of `block`.
fn le_bytes<'a>(values: &[f32], block: &'a mut [u8; BLOCK_BYTES]) -> &'a [u8] {
    let bytes = &mut block[..values.len() * 4];
    for (dst, v) in bytes.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// [`write()`]s a model file at `path`.
pub fn save(
    path: impl AsRef<Path>,
    store: &ParamStore,
    vocab: &ServingVocab,
) -> Result<(), FrozenError> {
    Ok(write(
        BufWriter::new(std::fs::File::create(path)?),
        store,
        vocab,
    )?)
}

/// Reads the model file at `path`, a file or a pipe: its tensors and
/// its names.
///
/// # Errors
/// [`FrozenError::Io`] when it cannot be read, else
/// [`FrozenError::Format`] saying what is wrong and where: a bad magic,
/// a damaged or torn frame (by its tensor's name, or `"header"`), a claim
/// past the end of the file.
pub fn load(path: impl AsRef<Path>) -> Result<(ParamStore, ServingVocab), FrozenError> {
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    // A pipe or device reports no meaningful length: stream it.
    read(
        BufReader::new(file),
        meta.is_file().then_some(meta.len()),
        false,
    )
}

/// [`load`] of a model file in memory.
pub(crate) fn read_bytes(bytes: &[u8]) -> Result<(ParamStore, ServingVocab), FrozenError> {
    read(bytes, Some(bytes.len() as u64), false)
}

/// Serialises a model + vocabulary into one publishable model file.
pub fn encode(model: &FrozenModel, vocab: &ServingVocab) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut out, &model.to_store(), vocab).expect("writing a model to memory cannot fail");
    out
}

/// Parses a model file published by [`encode`]: a frozen model and the
/// names it serves with.
///
/// # Errors
/// [`FrozenError::Format`] on a damaged, truncated, checksum-mismatched
/// or wrong-version file, or a vocabulary that does not fit the model;
/// [`FrozenError::NotFrozen`] on a training checkpoint. The
/// `artifact.decode` injection site can corrupt a byte here to prove the
/// checksum rejection path.
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
    let (store, vocab) = read(bytes, Some(bytes.len() as u64), true)?;
    let model = FrozenModel::from_store(store)?;
    for (what, names, want) in [
        ("symptom", vocab.symptom_names(), model.n_symptoms()),
        ("herb", vocab.herb_names(), model.n_herbs()),
    ] {
        if !names.is_empty() && names.len() != want {
            return Err(FrozenError::Format(format!(
                "artifact vocab has {} {what} names but the model has {want}",
                names.len()
            )));
        }
    }
    Ok((model, vocab))
}

/// The one model file reader. `left` is how many bytes `r` holds, when
/// the caller knows; `publish` picks the words of a checksum mismatch.
fn read(
    mut r: impl Read,
    mut left: Option<u64>,
    publish: bool,
) -> Result<(ParamStore, ServingVocab), FrozenError> {
    let known = left.is_some();
    let refuse = FrozenError::Format;
    // A damaged frame: a publish is refused in the words its replies
    // have always had, a load names the frame.
    let mismatch = |frame: &str, stored: u32, computed: u32| {
        let (what, noun) = match publish {
            true => ("publish artifact".to_string(), "artifact"),
            false => (format!("frame {frame:?}"), "model file"),
        };
        refuse(format!(
            "{what} checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — corrupt {noun} rejected"
        ))
    };
    // Takes `need` bytes out of those the input is known to hold.
    let mut claim = |need: u64, what: &str| -> Result<(), FrozenError> {
        if let Some(left) = left.as_mut() {
            *left = left
                .checked_sub(need)
                .ok_or_else(|| refuse(format!("{what} needs {need} bytes, {left} are left")))?;
        }
        Ok(())
    };
    claim((MAGIC.len() + FRAME_HEADER) as u64, "a model file")?;
    let mut head = [0u8; MAGIC.len() + FRAME_HEADER];
    r.read_exact(&mut head)?;
    let (magic, frame) = head.split_first_chunk::<8>().expect("the magic is 8 bytes");
    if magic != MAGIC {
        return Err(refuse("not a model file (bad magic)".into()));
    }
    let (len, stored) = parse_frame_header(frame.try_into().expect("a frame header"));
    claim(len.into(), "frame \"header\"")?;
    // Sized by the claim only when its bytes are known to exist;
    // otherwise `read_to_end` grows it as they arrive.
    let mut header = Vec::with_capacity(if known { len as usize } else { 0 });
    if r.by_ref().take(len.into()).read_to_end(&mut header)? != len as usize {
        return Err(refuse(format!(
            "frame \"header\" is torn ({} of {len} bytes)",
            header.len()
        )));
    }
    let computed = crc32(&header);
    if computed != stored {
        return Err(mismatch("header", stored, computed));
    }
    let (vocab, entries) =
        parse_header(&header).map_err(|m| refuse(format!("frame \"header\": {m}")))?;
    drop(header);
    let need = entries
        .iter()
        .map(|(_, rows, cols, _)| FRAME_HEADER as u64 + 4 * (rows * cols) as u64)
        .sum();
    claim(need, "the header's tensor frames")?;
    if let Some(extra @ 1..) = left {
        return Err(refuse(format!("{extra} bytes after the last tensor frame")));
    }
    let mut store = ParamStore::new();
    let mut block = [0u8; BLOCK_BYTES];
    for (name, rows, cols, crc) in entries {
        let mut frame = [0u8; FRAME_HEADER];
        r.read_exact(&mut frame)?;
        let (len, stored) = parse_frame_header(&frame);
        let want = rows * cols * 4;
        if len as usize != want {
            return Err(refuse(format!(
                "frame {name:?} is {len} bytes, the header lists {want}"
            )));
        }
        // Reserve the whole tensor only when its bytes are known to
        // exist; otherwise grow as they arrive.
        let mut data = Vec::with_capacity(if known { rows * cols } else { 0 });
        let mut computed = 0;
        while data.len() < rows * cols {
            let bytes = &mut block[..(rows * cols - data.len()).min(BLOCK_BYTES / 4) * 4];
            r.read_exact(bytes)?;
            computed = crc32_update(computed, bytes);
            data.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
        }
        if computed != stored {
            return Err(mismatch(&name, stored, computed));
        }
        if stored != crc {
            return Err(refuse(format!(
                "frame {name:?} holds another tensor's bytes"
            )));
        }
        store.add(name, Matrix::from_vec(rows, cols, data));
    }
    if !known && r.read(&mut block[..1])? != 0 {
        return Err(refuse("bytes after the last tensor frame".into()));
    }
    Ok((store, vocab))
}

/// A tensor as the header lists it: name, rows, cols and its frame's CRC.
type Entry = (String, usize, usize, u32);

/// The header frame's payload: the names and the tensor directory. No
/// list is given room for more items than the rest of the header holds.
fn parse_header(mut h: &[u8]) -> Result<(ServingVocab, Vec<Entry>), String> {
    let h = &mut h;
    let version = u32::from_le_bytes(take(h, 4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(format!(
            "unsupported model file version {version} (expected {VERSION})"
        ));
    }
    let (n_symptoms, n_herbs) = (word(h)?, word(h)?);
    let symptoms = names(h, n_symptoms)?;
    let herbs = names(h, n_herbs)?;
    let n = word(h)?;
    // An entry is at least its three words and its CRC.
    let mut entries = Vec::with_capacity(n.min(h.len() as u64 / 28) as usize);
    for _ in 0..n {
        let name = name(h)?;
        let (rows, cols) = (word(h)?, word(h)?);
        let bytes = rows.checked_mul(cols).and_then(|n| n.checked_mul(4));
        if bytes.is_none_or(|len| len > u64::from(u32::MAX)) {
            return Err(format!(
                "tensor {name:?} of {rows} x {cols} does not fit a frame"
            ));
        }
        let crc = u32::from_le_bytes(take(h, 4)?.try_into().expect("4 bytes"));
        entries.push((name, rows as usize, cols as usize, crc));
    }
    if !h.is_empty() {
        return Err(format!("{} bytes after the tensor directory", h.len()));
    }
    Ok((ServingVocab::new(symptoms, herbs), entries))
}

/// The next `n` bytes of the header, if it holds that many.
fn take<'a>(h: &mut &'a [u8], n: u64) -> Result<&'a [u8], String> {
    if n > h.len() as u64 {
        return Err(format!("{n} bytes claimed, {} are left", h.len()));
    }
    let (head, rest) = h.split_at(n as usize);
    *h = rest;
    Ok(head)
}

fn word(h: &mut &[u8]) -> Result<u64, String> {
    Ok(u64::from_le_bytes(take(h, 8)?.try_into().expect("8 bytes")))
}

fn name(h: &mut &[u8]) -> Result<String, String> {
    let len = word(h)?;
    let raw = take(h, len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| format!("bad name encoding: {e}"))
}

/// `n` names; each is at least its length word.
fn names(h: &mut &[u8], n: u64) -> Result<Vec<String>, String> {
    let mut names = Vec::with_capacity(n.min(h.len() as u64 / 8) as usize);
    for _ in 0..n {
        names.push(name(h)?);
    }
    Ok(names)
}

/// The request line (no newline) that ships the base64 text of an
/// artifact: `{"op":"publish"}` into control when `variant` is `None`,
/// the experiment `publish` action into the named candidate otherwise.
/// Every publisher builds its line here; a rollout builds it once and
/// sends the same bytes to every replica, so the line is as large as
/// the model. The text is moved in, so the line is its only copy.
pub fn publish_line(artifact_b64: String, variant: Option<&str>) -> String {
    let artifact = ("artifact", Json::Str(artifact_b64));
    match variant {
        None => json::obj([("op", Json::Str("publish".into())), artifact]),
        Some(name) => json::obj([
            ("op", Json::Str("experiment".into())),
            ("action", Json::Str("publish".into())),
            ("variant", Json::Str(name.to_string())),
            artifact,
        ]),
    }
    .to_string()
}

/// Moves the `"artifact"` text out of a publish request, either form of
/// [`publish_line`].
pub fn take_artifact(req: &mut Json) -> Result<String, ApiError> {
    let taken = match req {
        Json::Obj(fields) => fields.remove("artifact"),
        _ => None,
    };
    match taken {
        Some(Json::Str(text)) => Ok(text),
        _ => Err(ApiError::new(
            codes::BAD_REQUEST,
            "publish needs \"artifact\" (base64)",
        )),
    }
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

    /// A small SMGCN's whole parameter store: a training checkpoint.
    fn training_store() -> ParamStore {
        let records: [(&[u32], &[u32]); 3] =
            [(&[0, 1], &[0, 1]), (&[1, 2], &[2, 3]), (&[0, 2], &[0, 3])];
        let ops = smgcn_graph::GraphOperators::from_records(
            records,
            3,
            4,
            smgcn_graph::SynergyThresholds { x_s: 0, x_h: 0 },
        );
        let config = smgcn_core::ModelConfig {
            embedding_dim: 4,
            layer_dims: vec![4],
            ..smgcn_core::ModelConfig::smgcn()
        };
        smgcn_core::Recommender::smgcn(&ops, &config, 3)
            .store()
            .clone()
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smgcn_model_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    /// Each frame of a model file: its name and its byte range, header
    /// included.
    fn frames(file: &[u8], store: &ParamStore) -> Vec<(String, std::ops::Range<usize>)> {
        let names = std::iter::once("header").chain(store.iter().map(|(_, name, _)| name));
        let mut at = MAGIC.len();
        names
            .map(|name| {
                let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
                let range = at..at + FRAME_HEADER + len;
                at = range.end;
                (name.to_string(), range)
            })
            .collect()
    }

    /// Rewrites the header frame's CRC, so that a mutated header gets
    /// past the checksum and into the parser behind it.
    fn reseal(blob: &mut [u8]) {
        if blob.len() < 16 {
            return;
        }
        let len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        let body = 16..(16 + len).min(blob.len());
        let crc = crc32(&blob[body]);
        blob[12..16].copy_from_slice(&crc.to_le_bytes());
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

    /// Both line forms, byte for byte, and back through the verb parser
    /// and [`take_artifact`] to the same text and variant.
    #[test]
    fn publish_lines_are_pinned_and_read_back() {
        use crate::ops::{candidate_of, AdminOp};
        let control = publish_line("U01HQQ==".into(), None);
        assert_eq!(control, r#"{"artifact":"U01HQQ==","op":"publish"}"#);
        let candidate = publish_line("U01HQQ==".into(), Some("canary"));
        assert_eq!(
            candidate,
            r#"{"action":"publish","artifact":"U01HQQ==","op":"experiment","variant":"canary"}"#
        );
        for (line, op, variant) in [
            (control, AdminOp::Publish, None),
            (candidate, AdminOp::Experiment, Some("canary")),
        ] {
            let mut req = json::parse(&line).unwrap();
            assert_eq!(AdminOp::parse(&req), Ok(Some(op)));
            assert_eq!(candidate_of(&req).ok().as_deref(), variant);
            assert_eq!(take_artifact(&mut req).ok().as_deref(), Some("U01HQQ=="));
            assert!(take_artifact(&mut req).is_err(), "the text was moved out");
        }
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
    fn a_training_checkpoint_round_trips_through_a_file() {
        let store = training_store();
        let path = tmp_path("checkpoint");
        save(&path, &store, &ServingVocab::default()).unwrap();
        let (loaded, vocab) = load(&path).unwrap();
        assert_eq!(bits(&loaded), bits(&store));
        assert!(vocab.is_empty());
        // A publish needs a frozen model.
        let err = decode(&std::fs::read(&path).unwrap()).unwrap_err();
        assert!(matches!(err, FrozenError::NotFrozen(_)), "{err}");
        std::fs::remove_file(&path).ok();
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
        write(&mut bytes, &store, &ServingVocab::default()).unwrap();
        let frames = frames(&bytes, &store);
        for ((name, range), (_, _, value)) in frames[1..].iter().zip(store.iter()) {
            let payload = &bytes[range.start + FRAME_HEADER..range.end];
            let want: Vec<u8> = value
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            assert_eq!(payload, want, "{name}");
        }
        assert_eq!(bits(&read_bytes(&bytes).unwrap().0), bits(&store));
        assert_eq!(
            bits(&read(bytes.as_slice(), None, false).unwrap().0),
            bits(&store)
        );
    }

    #[test]
    fn every_damaged_frame_is_refused_by_name() {
        // A byte of each frame's length, of its checksum and of its
        // payload, in a training checkpoint and in a frozen model file.
        let (model, _) = sample();
        let frozen = model.to_store();
        for (tag, store) in [("checkpoint", training_store()), ("frozen", frozen)] {
            let path = tmp_path(tag);
            save(&path, &store, &ServingVocab::default()).unwrap();
            let file = std::fs::read(&path).unwrap();
            let frames = frames(&file, &store);
            assert_eq!(frames.last().unwrap().1.end, file.len(), "{tag}");
            for (name, range) in &frames {
                let payload = range.start + FRAME_HEADER..range.end;
                for at in [
                    range.start,
                    range.start + 4,
                    (payload.start + payload.end) / 2,
                ] {
                    let mut bad = file.clone();
                    bad[at] ^= 0x40;
                    std::fs::write(&path, &bad).unwrap();
                    let err = match tag {
                        "frozen" => FrozenModel::load(&path).map(drop),
                        _ => load(&path).map(drop),
                    }
                    .unwrap_err()
                    .to_string();
                    assert!(
                        err.contains(&format!("{name:?}")),
                        "{tag}, byte {at}: {err}"
                    );
                    assert!(decode(&bad).is_err(), "{tag}, byte {at}");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn the_earlier_formats_are_refused_by_magic() {
        // A one-tensor checkpoint of the first, unchecksummed format:
        // magic, u32 version 1, u64 tensor count, then u64 name length,
        // name, u64 rows, u64 cols and the values.
        let mut v1 = vec![b'S', b'M', b'G', b'T', 1, 0, 0, 0];
        for word in [1u64, 1] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        v1.push(b'w');
        for word in [1u64, 1] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        v1.extend_from_slice(&1.0f32.to_le_bytes());
        // The version-2 publish artifact: magic, version byte, two empty
        // name lists, that checkpoint, then a CRC32 of all of it.
        let mut v2 = vec![b'S', b'M', b'G', b'A', 2, 0, 0, 0, 0, 0, 0, 0, 0];
        v2.extend_from_slice(&v1);
        v2.extend_from_slice(&crc32(&v2).to_le_bytes());
        let path = tmp_path("legacy");
        for old in [v1, v2] {
            let err = decode(&old).unwrap_err().to_string();
            assert!(err.contains("bad magic"), "{err}");
            std::fs::write(&path, &old).unwrap();
            let err = FrozenModel::load(&path).unwrap_err().to_string();
            assert!(err.contains("bad magic"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_damaged_artifacts() {
        let (model, vocab) = sample();
        let blob = encode(&model, &vocab);
        assert!(decode(&blob[..3]).is_err(), "truncated magic");
        assert!(decode(&blob[..20]).is_err(), "truncated header");
        let mut wrong = blob.clone();
        wrong[0] = b'X';
        assert!(decode(&wrong).is_err(), "bad magic");
        let mut huge = blob.clone();
        huge[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut huge);
        let err = decode(&huge).unwrap_err().to_string();
        assert!(
            err.contains("frame \"header\"") && err.contains("bytes claimed"),
            "absurd name count: {err}"
        );
        let mut longer = blob;
        longer.push(0);
        let err = decode(&longer).unwrap_err().to_string();
        assert!(err.contains("1 bytes after the last tensor frame"), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let (model, vocab) = sample();
        let mut blob = encode(&model, &vocab);
        blob[16] = 2;
        reseal(&mut blob);
        let err = decode(&blob).unwrap_err();
        assert!(
            err.to_string().contains("version 2 (expected 3)"),
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

    /// A one-tensor header frame's payload: `n` tensors claimed, then one
    /// entry with `name_len`, `name` and its shape.
    fn header(n: u64, name_len: u64, name: &[u8], rows: u64, cols: u64) -> Vec<u8> {
        let mut h = VERSION.to_le_bytes().to_vec();
        for word in [0, 0, n, name_len] {
            h.extend_from_slice(&word.to_le_bytes());
        }
        h.extend_from_slice(name);
        for word in [rows, cols] {
            h.extend_from_slice(&word.to_le_bytes());
        }
        h.extend_from_slice(&0u32.to_le_bytes());
        let mut file = MAGIC.to_vec();
        encode_frame(&h, &mut file);
        file
    }

    #[test]
    fn lengths_beyond_the_bytes_present_are_format_errors_in_memory() {
        for (what, blob) in [
            ("2^30 values, no data", header(1, 1, b"t", 1 << 15, 1 << 15)),
            ("2^28 values, no data", header(1, 1, b"t", 1 << 14, 1 << 14)),
            ("one value short", {
                let mut b = header(1, 1, b"t", 2, 2);
                b.extend_from_slice(&frame_header(16, 0));
                b.extend_from_slice(&[0; 12]);
                b
            }),
            ("shape product overflows", header(1, 1, b"t", u64::MAX, 2)),
            (
                "name longer than the header",
                header(1, 1 << 19, b"t", 1, 1),
            ),
            ("2^60 tensors", header(1 << 60, 1, b"t", 1, 1)),
            ("a header frame past the end", {
                let mut b = header(1, 1, b"t", 1, 1);
                b[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
                b
            }),
            ("a tensor frame past the end", {
                let mut b = header(1, 1, b"t", 1, 1);
                b.extend_from_slice(&frame_header(1 << 20, 0));
                b.extend_from_slice(&[0; 4]);
                b
            }),
        ] {
            let err = read_bytes(&blob).unwrap_err();
            assert!(matches!(err, FrozenError::Format(_)), "{what}: {err}");
            // The streaming reader cannot know the length up front; it
            // fails on the missing bytes instead, never on allocation.
            assert!(read(blob.as_slice(), None, false).is_err(), "{what}");
        }
    }

    #[test]
    fn decode_never_panics_and_the_readers_agree_on_arbitrary_or_resealed_bytes() {
        let mut rng = StdRng::seed_from_u64(23);
        let (model, vocab) = sample();
        let valid = encode(&model, &vocab);
        for case in 0..10_000 {
            let blob: Vec<u8> = match case % 3 {
                0 => {
                    let mut b = if case % 2 == 0 {
                        MAGIC.to_vec()
                    } else {
                        Vec::new()
                    };
                    b.extend(
                        (0..rng.gen_range(0..96usize)).map(|_| rng.gen_range(0..=255u32) as u8),
                    );
                    b
                }
                // A valid artifact, cut short or with a few bytes (mostly
                // of its header: length fields and names) overwritten.
                _ => {
                    let mut blob = valid.clone();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let at = rng.gen_range(MAGIC.len()..blob.len().min(200));
                        blob[at] = rng.gen_range(0..=255u32) as u8;
                    }
                    if case % 3 == 1 {
                        blob.truncate(rng.gen_range(0..=blob.len()));
                    }
                    reseal(&mut blob);
                    blob
                }
            };
            // A file's length and a pipe's stream read the same.
            let known = read_bytes(&blob).map(|(store, _)| bits(&store));
            let streamed = read(blob.as_slice(), None, false).map(|(store, _)| bits(&store));
            match (known, streamed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "case {case}: readers disagree: {:?} / {:?}",
                    a.err(),
                    b.err()
                ),
            }
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
