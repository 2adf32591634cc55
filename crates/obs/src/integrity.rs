//! Data-integrity primitives shared across the stack.
//!
//! Every durable format in the repo — the ingest WAL (`smgcn-online`),
//! the model file (`smgcn-serve`'s `artifact`: training checkpoints,
//! frozen models and publish artifacts) and the metrics history store
//! ([`crate::tsdb`]) — checksums its payloads with the same CRC32 so a
//! bit flip anywhere between "accepted" and "served" is detected instead
//! of decoded into garbage. One implementation lives here, at the bottom
//! of the dependency graph, so the formats can never disagree on the
//! polynomial. It has two kernels, pinned equal by tests: carry-less-
//! multiply folding for inputs of 128 bytes or more on x86_64 CPUs with
//! `pclmulqdq` and `sse4.1` (a model file's tensor blocks, a large
//! frame), and the slicing-by-8 table loop for everything else.
//!
//! All three formats share one framing, also kept here:
//!
//! ```text
//! file  := magic frame*
//! frame := len:u32le crc:u32le payload       (crc = crc32(payload))
//! ```
//!
//! [`encode_frame`] writes a frame, [`frame_header`] and
//! [`parse_frame_header`] are its first [`FRAME_HEADER`] bytes for a
//! format that streams payloads (a model file's tensors are read block by
//! block straight into their matrices), [`scan`] verifies frames already
//! in memory, and [`FramedLog`] is the append-only file of the WAL and
//! the tsdb. Opening one replays the verified prefix and truncates a
//! torn or corrupt tail; a failed append is truncated back to the last
//! good frame. Either way a torn write (crash, full disk) costs exactly
//! the torn tail, and the damage is reported as a [`WalRecovery`]. A
//! model file is not a log: it is read whole, and any damaged frame
//! refuses the file.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected form
/// `0xEDB88320`) — the same parameters as zlib/PNG/Ethernet, checkable
/// with any external tool.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Streaming form: feed chunks through repeated calls, starting from 0;
/// any split of a stream gives the same value.
///
/// Two kernels compute it, pinned equal by tests. On x86_64 an input of
/// at least 128 bytes goes to the carry-less-multiply folding
/// kernel when the CPU has `pclmulqdq` and `sse4.1`; everything else —
/// short inputs, the folding kernel's sub-16-byte tail, other CPUs —
/// runs the slicing-by-8 table loop.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN && clmul::supported() {
        // SAFETY: `supported()` just saw both features on this CPU.
        return unsafe { clmul::update(crc, bytes) };
    }
    crc32_table(crc, bytes)
}

/// The shortest input sent to the folding kernel: below it, setting up
/// four lanes and reducing them costs more than the table loop.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 128;

/// Slicing-by-8: eight bytes per step through eight 256-entry tables
/// (8 KiB, built at compile time), the sub-8-byte tail one byte at a
/// time through the first table — which is the classic bytewise table.
fn crc32_table(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][(lo >> 8 & 0xff) as usize]
            ^ TABLES[5][(lo >> 16 & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][(hi >> 8 & 0xff) as usize]
            ^ TABLES[1][(hi >> 16 & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC32 by folding with carry-less multiplies (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
/// 2009, in its bit-reflected form). The state is four 128-bit lanes;
/// each 64-byte step multiplies every lane by x^512 mod P (split in two
/// 64-bit halves) and xors in the next 16 bytes. The lanes then fold
/// into one, the remaining whole 16-byte blocks fold in at x^128, and
/// the 128-bit remainder is reduced to 64 bits and then, by Barrett
/// reduction, to the 32-bit CRC.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Whether this CPU runs [`update`].
    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The polynomial P with its x^32 term, in normal (unreflected) bit
    /// order: 33 bits.
    const POLY: u128 = 0x1_04C1_1DB7;

    /// P bit-reflected, as the Barrett step multiplies by it.
    const P: u64 = (POLY as u64).reverse_bits() >> 31;

    /// `x^n mod P` in the kernel's operand form: the 32-bit remainder
    /// bit-reflected, then shifted left once, because the carry-less
    /// product of two bit-reflected operands comes out one bit short.
    const fn x_pow_mod_p(n: u32) -> u64 {
        let mut r: u128 = 1;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r >> 32 != 0 {
                r ^= POLY;
            }
            i += 1;
        }
        ((r as u32).reverse_bits() as u64) << 1
    }

    /// Barrett's constant `floor(x^64 / P)`, 33 bits, bit-reflected.
    const fn mu() -> u64 {
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        let mut i = 64;
        while i >= 32 {
            if rem >> i & 1 != 0 {
                rem ^= POLY << (i - 32);
                q |= 1 << (i - 32);
            }
            i -= 1;
        }
        q.reverse_bits() >> 31
    }

    /// Fold distances: four lanes (512 bits) apart, one lane (128) apart,
    /// and the 64-bit step of the final reduction.
    const FOLD_4: (u64, u64) = (x_pow_mod_p(4 * 128 + 32), x_pow_mod_p(4 * 128 - 32));
    const FOLD_1: (u64, u64) = (x_pow_mod_p(128 + 32), x_pow_mod_p(128 - 32));
    const FOLD_64: u64 = x_pow_mod_p(64);
    const MU: u64 = mu();

    /// `acc`'s two halves carried `k`'s distance forward, plus `next`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`super::crc32_update`] of `bytes` from `crc`.
    ///
    /// # Safety
    /// The CPU must have `pclmulqdq` and `sse4.1` ([`supported`]).
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than the four lanes' first 64 bytes.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        let load = |block: &[u8; 16]| {
            // SAFETY: `block` is 16 bytes, the extent of an unaligned load.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        };
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("the caller passes at least 64 bytes");
        let mut lanes = first.each_ref().map(load);
        // The incoming state enters as a prefix xor on the first word.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!crc as i32));
        let k4 = _mm_set_epi64x(FOLD_4.1 as i64, FOLD_4.0 as i64);
        let (groups, singles) = rest.as_chunks::<4>();
        for group in groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), k4);
            }
        }
        let k1 = _mm_set_epi64x(FOLD_1.1 as i64, FOLD_1.0 as i64);
        let mut x = fold(lanes[0], lanes[1], k1);
        x = fold(x, lanes[2], k1);
        x = fold(x, lanes[3], k1);
        for block in singles {
            x = fold(x, load(block), k1);
        }

        // 128 → 96 bits: the low half carried 64 bits forward onto the
        // high half; 96 → 64: the low word carried 32 bits forward.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k1), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(
                _mm_and_si128(x, low32),
                _mm_set_epi64x(0, FOLD_64 as i64),
            ),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32) * mu, T2 = (T1 mod x^32) * P, and
        // the remainder is R ^ T2, whose bit-reflected form sits in the
        // upper word.
        let pu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let folded = !(_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32);
        super::crc32_table(folded, tail)
    }
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` is the CRC state
/// after byte `i` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Bytes before a frame's payload: its length, then its checksum.
pub const FRAME_HEADER: usize = 8;

/// The header of a frame whose payload is `len` bytes with checksum `crc`.
pub fn frame_header(len: u32, crc: u32) -> [u8; FRAME_HEADER] {
    let mut head = [0; FRAME_HEADER];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&crc.to_le_bytes());
    head
}

/// A frame header's payload length and stored checksum.
pub fn parse_frame_header(head: &[u8; FRAME_HEADER]) -> (u32, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    (
        u32::from_le_bytes([l0, l1, l2, l3]),
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Appends one frame carrying `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("a frame payload fits in 4 GiB");
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&frame_header(len, crc32(payload)));
    out.extend_from_slice(payload);
}

/// How a damaged framed log was recovered: everything before
/// `valid_bytes` verified and was kept; `dropped_bytes` of unverifiable
/// tail were dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecovery {
    /// Frames that replayed cleanly before the damage.
    pub valid_records: usize,
    /// Length of the verified prefix, magic included (0 for a torn
    /// magic).
    pub valid_bytes: u64,
    /// Bytes dropped from the damaged tail.
    pub dropped_bytes: u64,
    /// What the scan hit: a torn magic or frame, a checksum mismatch,
    /// an undecodable record.
    pub reason: String,
}

impl std::fmt::Display for WalRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} records ({} bytes), dropped {} damaged tail bytes: {}",
            self.valid_records, self.valid_bytes, self.dropped_bytes, self.reason
        )
    }
}

/// Verifies the frames of `bytes` from offset `start` (just past the
/// magic) and hands each verified payload to `replay`, in order.
/// Returns `None` when every byte verified, else the report of the
/// damaged tail.
///
/// `read` sees each whole frame's payload before its checksum is
/// checked and may return a substitute for it: the WAL's fault plane
/// corrupts frames there. `replay` returns `Ok(false)` for a payload
/// that verified but does not decode, which ends the scan as damage the
/// way a checksum mismatch does; an `Err` from it aborts the scan. The
/// first damaged frame ends the scan, since the length field that would
/// locate the next one is itself unverified. Only bytes already in
/// `bytes` are sliced, so a hostile length field allocates nothing.
pub fn scan<E>(
    bytes: &[u8],
    start: usize,
    mut read: impl FnMut(&[u8]) -> Option<Vec<u8>>,
    mut replay: impl FnMut(&[u8]) -> Result<bool, E>,
) -> Result<Option<WalRecovery>, E> {
    let (mut off, mut records) = (start, 0);
    let reason = loop {
        let rest = bytes.get(off..).unwrap_or_default();
        if rest.is_empty() {
            return Ok(None);
        }
        let Some((head, body)) = rest.split_first_chunk::<FRAME_HEADER>() else {
            break format!("torn frame header ({} bytes) at {off}", rest.len());
        };
        let (len, stored) = parse_frame_header(head);
        let len = len as usize;
        let Some(payload) = body.get(..len) else {
            break format!(
                "torn frame payload ({} of {len} bytes) at {off}",
                body.len()
            );
        };
        let substitute = read(payload);
        let payload = substitute.as_deref().unwrap_or(payload);
        if crc32(payload) != stored {
            break format!("frame checksum mismatch at {off}");
        }
        if !replay(payload)? {
            break format!("undecodable record at {off}");
        }
        records += 1;
        off += FRAME_HEADER + len;
    };
    Ok(Some(WalRecovery {
        valid_records: records,
        valid_bytes: off as u64,
        dropped_bytes: (bytes.len() - off) as u64,
        reason,
    }))
}

/// An append-only file of frames behind a magic (the ingest WAL, the
/// tsdb). Every byte before `good_len` either verified on open or was
/// written whole by [`FramedLog::append`].
#[derive(Debug)]
pub struct FramedLog {
    file: File,
    magic_len: u64,
    good_len: u64,
}

impl FramedLog {
    /// Opens the log at `path` and replays it through `read` and
    /// `replay` (see [`scan`]).
    ///
    /// - A missing or empty file is created behind `magic`.
    /// - A proper prefix of `magic` is a torn first write: nothing was
    ///   ever logged, so it recovers as an empty log.
    /// - Any other file that does not start with `magic` is refused
    ///   with [`io::ErrorKind::InvalidData`] and left byte-identical.
    /// - A damaged tail is truncated away and reported.
    ///
    /// An `Err` from `replay` aborts the open and leaves the file as it
    /// was.
    pub fn open<E: From<io::Error>>(
        path: &Path,
        magic: &[u8],
        read: impl FnMut(&[u8]) -> Option<Vec<u8>>,
        replay: impl FnMut(&[u8]) -> Result<bool, E>,
    ) -> Result<(FramedLog, Option<WalRecovery>), E> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (good_len, recovery) = if bytes.starts_with(magic) {
            let recovery = scan(&bytes, magic.len(), read, replay)?;
            let good_len = recovery
                .as_ref()
                .map_or(bytes.len() as u64, |r| r.valid_bytes);
            (good_len, recovery)
        } else if magic.starts_with(&bytes) {
            std::fs::write(path, magic)?;
            let torn = (!bytes.is_empty()).then(|| WalRecovery {
                valid_records: 0,
                valid_bytes: 0,
                dropped_bytes: bytes.len() as u64,
                reason: format!("torn file magic ({} of {} bytes)", bytes.len(), magic.len()),
            });
            (magic.len() as u64, torn)
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} does not start with the magic \"{}\"",
                    path.display(),
                    magic.escape_ascii()
                ),
            )
            .into());
        };
        let file = OpenOptions::new().append(true).open(path)?;
        // Appends continue after the last good frame, not after garbage.
        file.set_len(good_len)?;
        let log = FramedLog {
            file,
            magic_len: magic.len() as u64,
            good_len,
        };
        Ok((log, recovery))
    }

    /// Appends one frame carrying `payload`, written whole by `write`
    /// (the WAL passes its fault-aware write, the tsdb
    /// `Write::write_all`). The frame counts once `write` returns `Ok`;
    /// on any error the file is truncated back to the last good frame
    /// before the error is returned, so an acknowledged frame never
    /// lands after torn bytes.
    pub fn append(
        &mut self,
        payload: &[u8],
        write: impl FnOnce(&mut File, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut frame = Vec::new();
        encode_frame(payload, &mut frame);
        let written = write(&mut self.file, &frame);
        if written.is_ok() {
            self.good_len += frame.len() as u64;
        } else {
            // Best effort: the write error is what the caller needs to
            // see either way.
            let _ = self.file.set_len(self.good_len);
        }
        written
    }

    /// Empties the log back to its magic.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(self.magic_len)?;
        self.good_len = self.magic_len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time update this module used before slicing-by-8,
    /// kept as the parity oracle.
    fn crc32_update_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    /// splitmix64: the crate has no dependencies, tests included.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_bytewise_oracle_at_every_length_and_offset() {
        // Lengths run well past `CLMUL_MIN`, so both kernels, the
        // dispatch edge and every sub-16-byte tail of the folding kernel
        // are covered; offsets move the start across a 16-byte boundary.
        let mut state = 31;
        let data: Vec<u8> = (0..1024 + 16).map(|_| next(&mut state) as u8).collect();
        for offset in 0..16 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                for start in [0, 0xDEAD_BEEF] {
                    assert_eq!(
                        crc32_update(start, slice),
                        crc32_update_bytewise(start, slice),
                        "offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_folding_and_table_kernels_agree_when_called_directly() {
        // `crc32_update` sends long inputs to the folding kernel on a
        // CPU that has it, so the table loop is checked here by name.
        let mut state = 33;
        for case in 0..400 {
            let len = 64 + (next(&mut state) % 5000) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
            let start = next(&mut state) as u32;
            let want = crc32_update_bytewise(start, &data);
            assert_eq!(crc32_table(start, &data), want, "case {case} len {len}");
            #[cfg(target_arch = "x86_64")]
            if clmul::supported() {
                // SAFETY: the CPU has the kernel's features.
                let got = unsafe { clmul::update(start, &data) };
                assert_eq!(got, want, "case {case} len {len}");
            }
        }
    }

    #[test]
    fn random_streaming_splits_equal_oneshot() {
        let mut state = 32;
        for case in 0..2_000 {
            let len = (next(&mut state) % 700) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
            let oneshot = crc32(&data);
            assert_eq!(oneshot, crc32_update_bytewise(0, &data), "case {case}");
            let (mut c, mut rest) = (0, data.as_slice());
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(1 + next(&mut state) as usize % rest.len());
                c = crc32_update(c, head);
                rest = tail;
            }
            assert_eq!(c, oneshot, "case {case}");
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(data);
        let mut c = 0;
        for chunk in data.chunks(7) {
            c = crc32_update(c, chunk);
        }
        assert_eq!(c, oneshot);
    }

    fn log_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smgcn_framed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(tag);
        std::fs::remove_file(&path).ok();
        path
    }

    fn open_counting(path: &Path) -> (FramedLog, usize, Option<WalRecovery>) {
        let mut frames = 0;
        let replay = |_: &[u8]| {
            frames += 1;
            Ok::<_, io::Error>(true)
        };
        let (log, recovery) = FramedLog::open(path, b"MAGIC", |_| None, replay).unwrap();
        (log, frames, recovery)
    }

    #[test]
    fn a_failed_append_is_cut_back_and_reset_keeps_the_magic() {
        use std::io::Write;
        let path = log_path("append");
        let (mut log, _, _) = open_counting(&path);
        log.append(b"one", |file, frame| file.write_all(frame))
            .unwrap();
        let good = std::fs::read(&path).unwrap();
        let torn = log.append(b"two", |file, frame| {
            file.write_all(&frame[..5])?;
            Err(io::Error::other("disk full"))
        });
        assert!(torn.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), good, "torn bytes cut away");
        log.append(b"three", |file, frame| file.write_all(frame))
            .unwrap();
        drop(log);
        let (mut log, frames, recovery) = open_counting(&path);
        assert_eq!((frames, recovery), (2, None));
        log.reset().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"MAGIC");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let good = crc32(&data);
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x01;
            assert_ne!(crc32(&bad), good, "flip at byte {i} must change the crc");
        }
    }
}
