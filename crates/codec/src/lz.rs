//! `zlite`: a greedy LZ77 match coder with hash-chain search.
//!
//! AE-SZ finishes its pipeline with Zstd on top of the Huffman-coded
//! quantization bins. Zstd itself is out of scope to rebuild faithfully, so
//! `zlite` plays the same role: a byte-oriented dictionary coder that removes
//! the repetitiveness Huffman cannot see (runs of identical codes, repeated
//! block headers, …). The format is:
//!
//! ```text
//! uvarint original_len
//! tokens*:
//!   literal run:  0x00, uvarint len, len raw bytes
//!   match:        0x01, uvarint len (>= MIN_MATCH), uvarint distance (>= 1)
//! ```
//!
//! # Match finder
//!
//! The encoder is greedy: at each position it takes the longest match the
//! search finds (the first one on ties), else emits a literal. The search is
//! defined by a *bucket walk*: the four bytes at each position hash into one
//! of 2^16 buckets, each bucket chains its earlier positions newest first,
//! and the walk examines at most `MAX_CHAIN` (32) links of that chain, stopping
//! early at the first link that leaves the 1 MiB window or at a match that
//! reaches `limit` (the bytes left, at most `MAX_MATCH`). The encoder's
//! scalar twin, `zlite_compress_reference` in `tests/kernel_differential.rs`,
//! runs that walk literally.
//!
//! Most links of a bucket chain are hash collisions, each a dependent,
//! cache-missing load. [`zlite_compress`] examines only the candidates the
//! bucket walk examines whose first four bytes equal the current four, in
//! the same order, so it picks the same `(len, dist)` and emits the same
//! tokens:
//!
//! - a candidate whose first four bytes differ matches fewer than
//!   `MIN_MATCH ≤ limit` bytes, so it can neither be emitted nor end the
//!   walk at `limit`;
//! - a candidate whose byte at `best_len` differs cannot beat `best_len`.
//!
//! It finds them on a *finer* hash chain whose buckets nest inside the
//! 16-bit buckets: both hashes are the top bits of one multiplicative hash
//! of the four bytes. Each 16-bit bucket counts its insertions and each
//! position records its sequence number within its bucket, so a candidate's
//! place in the bucket chain is `count − 1 − seq`. The walk stops when that
//! rank reaches `MAX_CHAIN` or the candidate leaves the window, exactly where
//! the bucket walk's link counter stops.
//!
//! The tables follow the input length. The finer hash has ⌊log2 len⌋ bits,
//! clamped to 16–`MAX_FINE_BITS`. Below 128 KiB it has 16 bits: it is the
//! bucket itself, a candidate's rank is the count of links walked, and the
//! encoder allocates what the bucket walk needs, a 256 KiB head table and
//! 4 B per input byte (at most the window). From 128 KiB on the finer head
//! takes `4 · 2^bits` bytes, the count table 256 KiB and the sequence
//! numbers another 4 B per input byte.

use crate::varint::{read_uvarint, write_uvarint};

/// Minimum match length worth emitting (shorter matches cost more than literals).
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps token lengths bounded; longer repeats split).
const MAX_MATCH: usize = 1 << 16;
/// Window size: how far back matches may reach. A power of two, so a
/// position's slot in the window-sized rings is `pos & (WINDOW - 1)`.
const WINDOW: usize = 1 << 20;
/// Maximum number of bucket-chain links examined per position.
const MAX_CHAIN: usize = 32;
/// Bits of the bucket hash whose chain bounds the walk.
const BUCKET_BITS: u32 = 16;
/// Most bits of the finer hash (a 1 MiB head table).
const MAX_FINE_BITS: u32 = 18;

/// The four bytes at `pos` as a little-endian word, if `pos` can start a
/// match.
#[inline]
fn key_at(data: &[u8], pos: usize) -> Option<u32> {
    let w = data.get(pos..pos.checked_add(MIN_MATCH)?)?;
    Some(u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
}

/// The multiplicative hash whose top bits are both the bucket and the finer
/// hash of a key, so finer buckets nest inside the 16-bit ones.
#[inline]
fn mix(key: u32) -> u32 {
    key.wrapping_mul(2654435761)
}

/// Widen a `u32` table entry or hash to an index; `u32` always fits `usize`
/// on the platforms we build for.
#[inline]
fn widen(v: u32) -> usize {
    usize::try_from(v).unwrap_or(0)
}

/// Length of the common prefix of `a` and `b`, compared a word at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |c: &[u8]| <[u8; 8]>::try_from(c).map_or(0, u64::from_le_bytes);
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| word(x) == word(y))
        .count();
    let n = words * 8;
    let tail = match (a.get(n..), b.get(n..)) {
        (Some(x), Some(y)) => x.iter().zip(y).take_while(|(p, q)| p == q).count(),
        _ => 0,
    };
    n + tail
}

/// The hash chains of one [`zlite_compress`] call (see the module docs).
struct MatchFinder {
    /// `32 - bits` of the finer hash.
    shift: u32,
    /// `head[h]`: most recent position with finer hash `h`, plus one
    /// (0 = empty).
    head: Vec<u32>,
    /// `prev[p & (WINDOW - 1)]`: the previous position with `p`'s finer
    /// hash, plus one.
    prev: Vec<u32>,
    /// Insertions per 16-bit bucket; empty while the finer hash is the
    /// bucket.
    count: Vec<u32>,
    /// `seq[p & (WINDOW - 1)]`: `count` of `p`'s bucket before `p` was
    /// inserted; empty with `count`.
    seq: Vec<u32>,
}

impl MatchFinder {
    fn new(len: usize) -> MatchFinder {
        let bits = (usize::BITS - len.leading_zeros())
            .saturating_sub(1)
            .clamp(BUCKET_BITS, MAX_FINE_BITS);
        let ring = len.min(WINDOW);
        let ranked = bits > BUCKET_BITS;
        MatchFinder {
            shift: u32::BITS - bits,
            head: vec![0; 1 << bits],
            prev: vec![0; ring],
            count: if ranked {
                vec![0; 1 << BUCKET_BITS]
            } else {
                Vec::new()
            },
            seq: if ranked { vec![0; ring] } else { Vec::new() },
        }
    }

    /// Record position `p`. Positions that cannot start a match, and those
    /// past `u32::MAX - 1`, are not indexed.
    #[inline]
    fn insert(&mut self, data: &[u8], p: usize) {
        let (Some(key), Ok(stamp)) = (key_at(data, p), u32::try_from(p + 1)) else {
            return;
        };
        let h = mix(key);
        let slot = p & (WINDOW - 1);
        if let Some(head) = self.head.get_mut(widen(h >> self.shift)) {
            if let Some(link) = self.prev.get_mut(slot) {
                *link = *head;
            }
            *head = stamp;
        }
        if let Some(count) = self.count.get_mut(widen(h >> (u32::BITS - BUCKET_BITS))) {
            if let Some(seq) = self.seq.get_mut(slot) {
                *seq = *count;
            }
            *count = count.wrapping_add(1);
        }
    }

    /// The longest match for `pos` among the candidates of the bucket walk,
    /// as `(len, dist)`; `len` is 0 when no candidate shares the four bytes
    /// at `pos`.
    #[inline]
    fn longest(&self, data: &[u8], pos: usize) -> (usize, usize) {
        let (mut best_len, mut best_dist) = (0usize, 0usize);
        let Some(key) = key_at(data, pos) else {
            return (best_len, best_dist);
        };
        let h = mix(key);
        // Insertions into this position's bucket so far, when a rank needs
        // sequence numbers. Links walked on the finer chain are bucket
        // entries too, so in a bucket of at most `MAX_CHAIN` entries their
        // count stays below the cutoff just as every rank does, and the
        // walk need not read `seq`.
        let inserted = self
            .count
            .get(widen(h >> (u32::BITS - BUCKET_BITS)))
            .copied()
            .filter(|&n| widen(n) > MAX_CHAIN);
        let limit = (data.len() - pos).min(MAX_MATCH);
        let current = data.get(pos..pos + limit).unwrap_or_default();
        let mut candidate = widen(self.head.get(widen(h >> self.shift)).copied().unwrap_or(0));
        let mut links = 0usize;
        while let Some(cand_pos) = candidate.checked_sub(1) {
            if cand_pos >= pos || pos - cand_pos > WINDOW {
                break;
            }
            let slot = cand_pos & (WINDOW - 1);
            let rank = match inserted {
                Some(n) => widen(
                    n.wrapping_sub(self.seq.get(slot).copied().unwrap_or(0))
                        .wrapping_sub(1),
                ),
                None => links,
            };
            if rank >= MAX_CHAIN {
                break;
            }
            // The candidate's window ends before `data.len()` because
            // `cand_pos < pos`, so the `get` always succeeds.
            let prior = data.get(cand_pos..cand_pos + limit).unwrap_or_default();
            if key_at(prior, 0) == Some(key) && prior.get(best_len) == current.get(best_len) {
                let len = MIN_MATCH
                    + common_prefix(
                        prior.get(MIN_MATCH..).unwrap_or_default(),
                        current.get(MIN_MATCH..).unwrap_or_default(),
                    );
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand_pos;
                    if len >= limit {
                        break;
                    }
                }
            }
            candidate = widen(self.prev.get(slot).copied().unwrap_or(0));
            links += 1;
        }
        (best_len, best_dist)
    }
}

/// Append one literal-run token (nothing for an empty run).
fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if !literals.is_empty() {
        out.push(0x00);
        write_uvarint(out, literals.len() as u64);
        out.extend_from_slice(literals);
    }
}

/// Compress a byte buffer with greedy LZ77.
pub fn zlite_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    write_uvarint(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    let mut finder = MatchFinder::new(data.len());
    let mut literal_start = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let (len, dist) = finder.longest(data, pos);
        if len >= MIN_MATCH {
            flush_literals(&mut out, data.get(literal_start..pos).unwrap_or_default());
            out.push(0x01);
            write_uvarint(&mut out, len as u64);
            write_uvarint(&mut out, dist as u64);
            // Index the covered positions so later matches can still
            // reference them.
            let end = pos + len;
            while pos < end {
                finder.insert(data, pos);
                pos += 1;
            }
            literal_start = end;
        } else {
            finder.insert(data, pos);
            pos += 1;
        }
    }
    flush_literals(&mut out, data.get(literal_start..).unwrap_or_default());
    out
}

/// Decompress a buffer produced by [`zlite_compress`] into at most
/// `max_len` bytes.
///
/// Returns `None` when the stream is malformed *or* declares more than
/// `max_len` output bytes. Decoders of untrusted input should pass the
/// largest size a valid payload could have, so a corrupt length prefix is
/// rejected up front instead of driving a huge allocation.
pub fn zlite_decompress_capped(buf: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let original_len = read_uvarint(buf, &mut pos)?;
    if original_len > max_len as u64 {
        return None;
    }
    // Checked above against `max_len: usize`, so this conversion cannot fail;
    // `try_from` still guards 32-bit targets where the cap itself is smaller.
    let original_len = usize::try_from(original_len).ok()?;
    // The capacity is only a hint: clamp it so a corrupt prefix that slipped
    // past a permissive cap still cannot abort the process on allocation.
    let mut out = Vec::with_capacity(original_len.min(buf.len().saturating_mul(8).max(4096)));
    while out.len() < original_len {
        let tag = *buf.get(pos)?;
        pos += 1;
        match tag {
            0x00 => {
                let len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
                let bytes = buf.get(pos..pos.checked_add(len)?)?;
                pos += len;
                out.extend_from_slice(bytes);
            }
            0x01 => {
                let len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
                let dist = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
                if dist == 0 || dist > out.len() || !(MIN_MATCH..=MAX_MATCH).contains(&len) {
                    return None;
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Disjoint source: one bulk copy. The range is in
                    // bounds by the validation above (start + len ≤
                    // out.len() exactly when len ≤ dist).
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy (common for runs): the source grows
                    // as we append, so copy in doubling chunks — each
                    // chunk's source range ends at the pre-chunk length.
                    let mut src = start;
                    let mut remaining = len;
                    while remaining > 0 {
                        let chunk = (out.len() - src).min(remaining);
                        out.extend_from_within(src..src + chunk);
                        src += chunk;
                        remaining -= chunk;
                    }
                }
            }
            _ => return None,
        }
    }
    if out.len() == original_len {
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let enc = zlite_compress(data);
        let dec = zlite_decompress_capped(&enc, data.len()).expect("roundtrip must decode");
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn run_of_identical_bytes_compresses_hard() {
        let data = vec![7u8; 100_000];
        let enc = zlite_compress(&data);
        assert!(enc.len() < 100, "run should collapse: {} bytes", enc.len());
        roundtrip(&data);
    }

    #[test]
    fn repeating_pattern_compresses() {
        let pattern: Vec<u8> = (0..64u8).collect();
        let data: Vec<u8> = pattern.iter().cycle().take(64 * 200).copied().collect();
        let enc = zlite_compress(&data);
        assert!(enc.len() < data.len() / 10);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_random_data_roundtrips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let enc = zlite_compress(&data);
        // Random bytes should expand only slightly (literal-run overhead).
        assert!(enc.len() < data.len() + data.len() / 16 + 64);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_is_handled() {
        // "abcabcabc..." forces matches with distance 3 < length.
        let data: Vec<u8> = b"abc".iter().cycle().take(3000).copied().collect();
        roundtrip(&data);
    }

    #[test]
    fn mixed_structured_payload() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
        }
        let enc = zlite_compress(&data);
        assert!(enc.len() < data.len() / 2);
        roundtrip(&data);
    }

    #[test]
    fn capped_decode_rejects_oversized_declarations() {
        let data = vec![3u8; 4096];
        let enc = zlite_compress(&data);
        // Honest size passes, one byte less fails.
        assert_eq!(zlite_decompress_capped(&enc, 4096), Some(data));
        assert_eq!(zlite_decompress_capped(&enc, 4095), None);
        // A stream declaring an absurd length must fail fast, not allocate.
        let mut hostile = Vec::new();
        crate::varint::write_uvarint(&mut hostile, u64::MAX);
        assert_eq!(zlite_decompress_capped(&hostile, 1 << 20), None);
        assert_eq!(zlite_decompress_capped(&hostile, usize::MAX), None);
    }

    #[test]
    fn match_length_beyond_format_limit_is_rejected() {
        // original_len 8, one literal byte, then a match claiming a length
        // far above MAX_MATCH — the decoder must refuse it.
        let mut buf = Vec::new();
        crate::varint::write_uvarint(&mut buf, 8);
        buf.extend_from_slice(&[0x00, 0x01, 0xAA]); // literal run of 1
        buf.push(0x01);
        crate::varint::write_uvarint(&mut buf, (MAX_MATCH + 1) as u64);
        crate::varint::write_uvarint(&mut buf, 1);
        assert_eq!(zlite_decompress_capped(&buf, 8), None);
    }

    #[test]
    fn corrupt_input_fails_cleanly() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut enc = zlite_compress(&data);
        // Truncate.
        assert_eq!(
            zlite_decompress_capped(&enc[..enc.len() - 2], data.len()),
            None
        );
        // Invalid tag.
        let last = enc.len() - 1;
        enc[last.min(2)] = 0xFF;
        let _ = zlite_decompress_capped(&enc, data.len()); // must not panic
    }
}
