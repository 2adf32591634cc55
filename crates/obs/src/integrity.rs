//! Data-integrity primitives shared across the stack.
//!
//! Every durable format in the repo — the ingest WAL's per-record
//! framing (`smgcn-online`), the publish artifact's trailer
//! (`smgcn-serve`) and the metrics history store ([`crate::tsdb`]) —
//! checksums its payloads with the same CRC32 so a bit flip anywhere
//! between "accepted" and "served" is detected instead of decoded into
//! garbage. One implementation lives here, at the bottom of the
//! dependency graph, so the formats can never disagree on the
//! polynomial.

/// CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected form
/// `0xEDB88320`) — the same parameters as zlib/PNG/Ethernet, checkable
/// with any external tool.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Streaming form: feed chunks through repeated calls, starting from 0.
///
/// Slicing-by-8: eight bytes per step through eight 256-entry tables
/// (8 KiB, built at compile time), the sub-8-byte tail one byte at a
/// time through the first table — which is the classic bytewise table,
/// so any split of a stream gives the same value.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
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
        let mut state = 31;
        let data: Vec<u8> = (0..80).map(|_| next(&mut state) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
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
