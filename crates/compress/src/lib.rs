//! # rvsim-compress — LZSS payload compression
//!
//! The paper's deployment compresses HTTP responses with gzip, which raised
//! local load-test throughput by ~40 % (§IV-A).  This crate provides the same
//! capability for the Rust reproduction: a small, dependency-free LZSS
//! compressor used by the simulation server to shrink JSON payloads
//! (processor-state snapshots compress extremely well because of their
//! repetitive structure).
//!
//! The format is deliberately simple and self-contained:
//!
//! * the stream is a sequence of blocks introduced by a flag byte;
//! * each of the 8 flag bits selects either a literal byte (bit = 0) or a
//!   back-reference (bit = 1) encoded as two bytes: a 12-bit distance and a
//!   4-bit length (length 3–18).
//!
//! Ratios are worse than zlib's, but the *trade-off direction* — CPU spent
//! compressing versus bytes on the wire — is preserved, which is what
//! experiment E2 (compression ablation) needs.

#![warn(missing_docs)]

use bytes::Bytes;

/// Minimum back-reference length (shorter matches are stored as literals).
const MIN_MATCH: usize = 3;
/// Maximum back-reference length (4-bit length field + MIN_MATCH).
const MAX_MATCH: usize = 18;
/// Sliding-window size (12-bit distance field).
const WINDOW: usize = 4096;

/// Hash-table size (3-byte hash, 16 bits).
const HASH_SIZE: usize = 1 << 16;
/// How many chain candidates are examined per position.  Snapshot payloads
/// are highly repetitive, so a short walk already finds near-optimal matches.
const CHAIN_LIMIT: usize = 8;
/// Matches at least this long skip the lazy one-byte-later probe: the gain
/// from maybe finding a slightly longer match no longer pays for a second
/// chain walk (zlib's `good_length` heuristic).
const LAZY_THRESHOLD: usize = 10;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let a = data[i] as usize;
    let b = data[i + 1] as usize;
    let c = data[i + 2] as usize;
    (a.wrapping_mul(2654435761) ^ b.wrapping_mul(40503) ^ c.wrapping_mul(2246822519)) & 0xffff
}

/// Reusable LZSS compressor: hash chains with lazy matching, compressing
/// from/into caller-provided buffers.  The search tables persist across calls
/// (stale entries are invalidated by a monotonically increasing sequence
/// base, not by clearing half a megabyte of table per payload), so a
/// per-session compressor performs no allocation in steady state.
///
/// The emitted stream is the same on-wire format [`compress`] always
/// produced — [`decompress`] decodes it unchanged.
#[derive(Debug)]
pub struct Compressor {
    /// Latest sequence position per 3-byte hash; values below `base` are
    /// stale leftovers from earlier payloads.
    head: Vec<i64>,
    /// Previous sequence position with the same hash, indexed by
    /// `seq & (WINDOW - 1)`.
    prev: Vec<i64>,
    /// Sequence number of byte 0 of the current payload.
    base: i64,
    /// Per-flag-group scratch (up to 8 tokens).
    chunk: Vec<u8>,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A fresh compressor (the only allocations this type ever makes).
    pub fn new() -> Self {
        Compressor {
            head: vec![-1; HASH_SIZE],
            prev: vec![-1; WINDOW],
            base: 0,
            chunk: Vec::with_capacity(24),
        }
    }

    /// Longest chain match for `pos`, as `(length, distance)`.
    #[inline]
    fn find_match(&self, input: &[u8], pos: usize) -> (usize, usize) {
        let max_len = MAX_MATCH.min(input.len() - pos);
        if max_len < MIN_MATCH {
            return (0, 0);
        }
        let pos_seq = self.base + pos as i64;
        let mut cand_seq = self.head[hash3(input, pos)];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        for _ in 0..CHAIN_LIMIT {
            // Stale (previous payload) and out-of-window candidates end the
            // walk; chains are strictly decreasing so this terminates.
            if cand_seq < self.base || pos_seq - cand_seq > WINDOW as i64 || cand_seq >= pos_seq {
                break;
            }
            let cand = (cand_seq - self.base) as usize;
            let mut len = 0;
            while len < max_len && input[cand + len] == input[pos + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = pos - cand;
                if len == max_len {
                    break;
                }
            }
            let next = self.prev[(cand_seq as usize) & (WINDOW - 1)];
            if next >= cand_seq {
                break;
            }
            cand_seq = next;
        }
        if best_len >= MIN_MATCH {
            (best_len, best_dist)
        } else {
            (0, 0)
        }
    }

    /// Insert `pos` into the hash chains.
    #[inline]
    fn insert(&mut self, input: &[u8], pos: usize) {
        if pos + MIN_MATCH > input.len() {
            return;
        }
        let seq = self.base + pos as i64;
        let h = hash3(input, pos);
        self.prev[(seq as usize) & (WINDOW - 1)] = self.head[h];
        self.head[h] = seq;
    }

    /// Compress `input`, appending the stream (length header + blocks) to
    /// `out`.  `out` is not cleared, so callers can prepend protocol bytes.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());

        let mut pos = 0usize;
        // Match found by a lazy probe for the position we are about to
        // process, carried forward so the chain walk is not repeated.
        let mut carried: Option<(usize, usize)> = None;
        while pos < input.len() {
            let mut flags = 0u8;
            let mut flag_bit = 0;
            self.chunk.clear();

            while flag_bit < 8 && pos < input.len() {
                let (mut best_len, best_dist) =
                    carried.take().unwrap_or_else(|| self.find_match(input, pos));
                if (MIN_MATCH..LAZY_THRESHOLD).contains(&best_len) && pos + 1 < input.len() {
                    // Lazy matching: when the next position starts a strictly
                    // longer match, emit a literal here and take that one
                    // (the probed match is carried to the next iteration).
                    let (next_len, next_dist) = self.find_match(input, pos + 1);
                    if next_len > best_len {
                        best_len = 0;
                        carried = Some((next_len, next_dist));
                    }
                }

                if best_len >= MIN_MATCH {
                    flags |= 1 << flag_bit;
                    let token = (((best_dist - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                    self.chunk.extend_from_slice(&token.to_le_bytes());
                    for p in pos..pos + best_len {
                        self.insert(input, p);
                    }
                    pos += best_len;
                } else {
                    self.insert(input, pos);
                    self.chunk.push(input[pos]);
                    pos += 1;
                }
                flag_bit += 1;
            }

            out.push(flags);
            out.extend_from_slice(&self.chunk);
        }

        // Advance the sequence base past this payload plus a full window so
        // no stale chain entry can ever look in-window for the next payload.
        self.base += input.len() as i64 + WINDOW as i64;
    }
}

/// Compress `input` with LZSS.
///
/// The output starts with the uncompressed length as a little-endian `u32`
/// so [`decompress`] can pre-allocate, followed by the block stream.
/// One-shot convenience over [`Compressor::compress_into`]; server sessions
/// hold a reusable [`Compressor`] instead.
pub fn compress(input: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    Compressor::new().compress_into(input, &mut out);
    Bytes::from(out)
}

/// Errors returned by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended unexpectedly.
    Truncated,
    /// A back-reference points before the start of the output.
    BadReference,
    /// The decoded length does not match the header.
    LengthMismatch {
        /// Length promised by the header.
        expected: usize,
        /// Length actually decoded.
        actual: usize,
    },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadReference => write!(f, "back-reference outside decoded data"),
            DecompressError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, header promised {expected}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if input.len() < 4 {
        return Err(DecompressError::Truncated);
    }
    let expected = u32::from_le_bytes(input[0..4].try_into().unwrap()) as usize;
    // The header is untrusted: reserve no more than the stream can decode
    // to.  Past the header, each two-byte back-reference yields at most
    // MAX_MATCH bytes and each literal byte one, so a short stream that
    // claims gigabytes reserves next to nothing.
    let decodable = (input.len() - 4).saturating_mul(MAX_MATCH / 2);
    let mut out = Vec::with_capacity(expected.min(decodable));
    let mut pos = 4usize;

    while pos < input.len() && out.len() < expected {
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            if pos >= input.len() {
                return Err(DecompressError::Truncated);
            }
            if flags & (1 << bit) != 0 {
                if pos + 1 >= input.len() {
                    return Err(DecompressError::Truncated);
                }
                let token = u16::from_le_bytes([input[pos], input[pos + 1]]);
                pos += 2;
                let dist = ((token >> 4) as usize) + 1;
                let len = (token & 0xf) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(DecompressError::BadReference);
                }
                let start = out.len() - dist;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            } else {
                out.push(input[pos]);
                pos += 1;
            }
        }
    }

    if out.len() != expected {
        return Err(DecompressError::LengthMismatch { expected, actual: out.len() });
    }
    Ok(out)
}

/// Compression ratio achieved on `input` (compressed size / original size).
/// Values below 1.0 mean the payload shrank.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(data: &[u8]) {
        let compressed = compress(data);
        let back = decompress(&compressed).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_json_like_payload_shrinks_well() {
        let payload: String = (0..200)
            .map(|i| format!("{{\"id\":{i},\"mnemonic\":\"addi\",\"state\":\"Dispatched\"}},"))
            .collect();
        let data = payload.as_bytes();
        round_trip(data);
        let r = ratio(data);
        assert!(r < 0.4, "repetitive JSON should compress to <40 %, got {r}");
    }

    #[test]
    fn highly_repetitive_input() {
        let data = vec![b'x'; 10_000];
        round_trip(&data);
        // Match length is capped at 18 bytes, so the floor is ~2.1/18 ≈ 0.12.
        assert!(ratio(&data) < 0.2, "ratio {}", ratio(&data));
    }

    #[test]
    fn incompressible_random_data_round_trips() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..5000).map(|_| rng.random()).collect();
        round_trip(&data);
        // Random data may expand slightly, but never catastrophically.
        assert!(ratio(&data) < 1.2);
    }

    #[test]
    fn long_runs_exceeding_max_match() {
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.extend(std::iter::repeat_n(i, 100));
        }
        round_trip(&data);
    }

    #[test]
    fn decompress_error_cases() {
        assert_eq!(decompress(&[]), Err(DecompressError::Truncated));
        assert_eq!(decompress(&[10, 0, 0]), Err(DecompressError::Truncated));
        // Header promises 4 bytes but stream ends immediately.
        assert_eq!(
            decompress(&[4, 0, 0, 0]),
            Err(DecompressError::LengthMismatch { expected: 4, actual: 0 })
        );
        // A back-reference with distance 16 before any output exists.
        let bad = [5u8, 0, 0, 0, 0b0000_0001, 0xf0, 0x00];
        assert_eq!(decompress(&bad), Err(DecompressError::BadReference));
        // Flag byte promising a reference but stream ends.
        let trunc = [5u8, 0, 0, 0, 0b0000_0001, 0x01];
        assert_eq!(decompress(&trunc), Err(DecompressError::Truncated));
    }

    #[test]
    fn ratio_of_empty_is_one() {
        assert_eq!(ratio(b""), 1.0);
    }

    #[test]
    fn reused_compressor_round_trips_successive_payloads() {
        // A per-session compressor sees many different payloads; stale hash
        // chains from earlier payloads must never corrupt later streams.
        let mut compressor = Compressor::new();
        let payloads: Vec<Vec<u8>> = vec![
            b"abcabcabcabcabc".to_vec(),
            vec![b'x'; 5000],
            (0..2000u32).flat_map(|i| i.to_le_bytes()).collect(),
            b"".to_vec(),
            b"abcabcabcabcabc".to_vec(),
            {
                let mut rng = StdRng::seed_from_u64(11);
                (0..3000).map(|_| rng.random()).collect()
            },
        ];
        let mut out = Vec::new();
        for payload in &payloads {
            out.clear();
            compressor.compress_into(payload, &mut out);
            assert_eq!(decompress(&out).unwrap(), *payload);
        }
    }

    #[test]
    fn compress_into_appends_after_existing_bytes() {
        let mut out = vec![9u8];
        Compressor::new().compress_into(b"hello hello hello", &mut out);
        assert_eq!(out[0], 9);
        assert_eq!(decompress(&out[1..]).unwrap(), b"hello hello hello");
    }

    #[test]
    fn hash_chains_find_matches_beyond_the_newest_candidate() {
        // Byte patterns where the newest hash-table candidate is a short
        // match but an older chain entry yields a longer one: a single-head
        // table stops at the first candidate, chains keep walking.
        let mut data = Vec::new();
        data.extend_from_slice(b"AAAABBBBCCCCDDDD-long-prefix-0123456789");
        data.extend_from_slice(b"AAAAZZZZ"); // newest "AAAA" occurrence, diverges after 4
        data.extend_from_slice(b"AAAABBBBCCCCDDDD-long-prefix-0123456789"); // full repeat
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
        // The 39-byte repeat must compress into a handful of tokens: well
        // under half the repeat's size on the wire.
        assert!(
            compressed.len() < data.len() - 20,
            "chains should exploit the long repeat ({} vs {})",
            compressed.len(),
            data.len()
        );
    }

    proptest! {
        #[test]
        fn prop_round_trip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let compressed = compress(&data);
            let back = decompress(&compressed).unwrap();
            prop_assert_eq!(back, data);
        }

        #[test]
        fn prop_round_trip_structured_text(words in proptest::collection::vec("[a-z]{1,8}", 0..200)) {
            let text = words.join(" ");
            let compressed = compress(text.as_bytes());
            let back = decompress(&compressed).unwrap();
            prop_assert_eq!(back, text.as_bytes());
        }
    }
}
