//! Canonical Huffman coding over `u32` alphabets.
//!
//! The SZ-style quantization stage produces a stream of bin indices drawn from
//! an alphabet of up to 65,536 symbols whose distribution is sharply peaked
//! around the zero-error bin; Huffman coding is the first entropy stage the
//! paper applies to them. Codes are canonical so only the code *lengths* per
//! symbol need to be stored in the header.

use crate::bitio::{BitReader, BitWriter};
use crate::varint::{read_uvarint, write_uvarint};
use std::collections::HashMap;

/// Maximum code length we allow before rescaling frequencies.
const MAX_CODE_LEN: u8 = 56;

/// Upper bound (exclusive) on symbol values served by the dense encode
/// tables. Covers the full quantizer alphabet (65,536 bins plus escape)
/// with headroom; wider alphabets take the hash-map reference path.
const DENSE_SYMBOL_LIMIT: usize = 1 << 17;

/// Window width (bits) of the flattened decode LUT: one peek of this many
/// bits resolves any code of length ≤ `LUT_BITS` in a single table probe.
const LUT_BITS: u8 = 12;
const LUT_SIZE: usize = 1 << 12;
/// Sentinel for unclaimed LUT slots (impossible entry: the length byte of a
/// real entry is 1..=56, never 0xFF).
const LUT_EMPTY: u64 = u64::MAX;
/// Streams with fewer symbols than this decode straight through the
/// reference loop — building the LUT would cost more than it saves.
const LUT_MIN_SYMBOLS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    /// Tie-break so the heap ordering is deterministic across runs.
    order: u32,
    index: usize,
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (weight, order).
        other
            .weight
            .cmp(&self.weight)
            .then(other.order.cmp(&self.order))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Compute Huffman code lengths for the given (symbol, frequency) pairs.
fn code_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u8)> {
    let n = freqs.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![(freqs[0].0, 1)];
    }
    // Tree nodes: leaves 0..n, internal nodes appended after.
    let mut weights: Vec<u64> = freqs.iter().map(|&(_, w)| w.max(1)).collect();
    let mut parent: Vec<usize> = vec![usize::MAX; freqs.len()];
    let mut heap: std::collections::BinaryHeap<HeapNode> = freqs
        .iter()
        .enumerate()
        .map(|(i, &(_, w))| HeapNode {
            weight: w.max(1),
            // Tie-break order saturates far beyond any real alphabet (the
            // symbol space itself is only u32).
            order: u32::try_from(i).unwrap_or(u32::MAX),
            index: i,
        })
        .collect();
    let mut next_order = u32::try_from(n).unwrap_or(u32::MAX);
    while heap.len() > 1 {
        let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
            break;
        };
        let idx = weights.len();
        weights.push(a.weight + b.weight);
        parent.push(usize::MAX);
        if let Some(p) = parent.get_mut(a.index) {
            *p = idx;
        }
        if let Some(p) = parent.get_mut(b.index) {
            *p = idx;
        }
        heap.push(HeapNode {
            weight: a.weight + b.weight,
            order: next_order,
            index: idx,
        });
        next_order += 1;
    }
    // Depth of each leaf = number of parent hops to the root.
    let mut lengths = Vec::with_capacity(freqs.len());
    for (i, &(sym, _)) in freqs.iter().enumerate() {
        let mut depth = 0u8;
        let mut node = i;
        while let Some(&up) = parent.get(node) {
            if up == usize::MAX {
                break;
            }
            node = up;
            depth = depth.saturating_add(1);
        }
        lengths.push((sym, depth.max(1)));
    }
    lengths
}

/// Assign canonical codes from (symbol, length) pairs.
/// Returns symbol → (code, length).
fn canonical_codes(lengths: &[(u32, u8)]) -> HashMap<u32, (u64, u8)> {
    let mut sorted: Vec<(u32, u8)> = lengths.to_vec();
    sorted.sort_by_key(|&(sym, len)| (len, sym));
    let mut codes = HashMap::with_capacity(sorted.len());
    let mut code: u64 = 0;
    let mut prev_len = 0u8;
    for &(sym, len) in &sorted {
        code <<= len - prev_len;
        codes.insert(sym, (code, len));
        code += 1;
        prev_len = len;
    }
    codes
}

/// Encode a slice of symbols. The output is self-describing (header with the
/// canonical table plus the packed code stream) and decodable with
/// [`huffman_decode`].
///
/// Fast path for compact alphabets (symbols < `DENSE_SYMBOL_LIMIT`, which
/// covers every quantizer stream): frequencies are counted into a dense
/// array instead of a hash map, and emission goes through a dense
/// symbol-indexed table of pre-reversed codes so each symbol is one batched
/// [`BitWriter::write_bits`] call instead of a per-bit loop. Output bytes
/// are identical to [`huffman_encode_reference`] — scanning the dense count
/// array in index order yields exactly the sorted `(symbol, weight)` list
/// the reference builds, and writing the bit-reversed code LSB-first equals
/// writing the code MSB-first. `tests/kernel_differential.rs` locks this.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    let Some(&max_sym) = symbols.iter().max() else {
        return huffman_encode_reference(symbols);
    };
    let dense_len = match usize::try_from(max_sym) {
        Ok(max_idx) if max_idx < DENSE_SYMBOL_LIMIT => (max_idx + 1).min(DENSE_SYMBOL_LIMIT),
        _ => return huffman_encode_reference(symbols),
    };
    let mut counts = vec![0u64; dense_len];
    for &s in symbols {
        if let Some(slot) = usize::try_from(s).ok().and_then(|i| counts.get_mut(i)) {
            *slot += 1;
        }
    }
    let mut freqs: Vec<(u32, u64)> = Vec::new();
    for (i, &w) in counts.iter().enumerate() {
        if w != 0 {
            freqs.push((u32::try_from(i).unwrap_or(u32::MAX), w));
        }
    }

    let mut lengths = code_lengths(&freqs);
    if lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
        let rescaled: Vec<(u32, u64)> = freqs
            .iter()
            .map(|&(s, w)| (s, (w as f64).sqrt().ceil() as u64))
            .collect();
        lengths = code_lengths(&rescaled);
    }
    let codes = canonical_codes(&lengths);

    let mut out = Vec::new();
    write_uvarint(&mut out, symbols.len() as u64);
    write_uvarint(&mut out, lengths.len() as u64);
    let mut sorted = lengths.clone();
    sorted.sort_unstable_by_key(|&(sym, _)| sym);
    let mut prev = 0u64;
    for &(sym, len) in &sorted {
        write_uvarint(&mut out, sym as u64 - prev);
        out.push(len);
        prev = sym as u64;
    }

    if lengths.len() <= 1 {
        write_uvarint(&mut out, 0);
        return out;
    }

    // Dense emission table: entry = (bit-reversed code << 8) | length, so
    // the hot loop is one lookup plus one batched write per symbol. A
    // length byte of zero marks "no code" and is unreachable for any input
    // symbol (the table was built from them).
    let mut emit = vec![0u64; dense_len.min(DENSE_SYMBOL_LIMIT)];
    for (&sym, &(code, len)) in &codes {
        let rev = code.reverse_bits() >> (64 - u32::from(len.max(1)));
        if let Some(slot) = usize::try_from(sym).ok().and_then(|i| emit.get_mut(i)) {
            *slot = (rev << 8) | u64::from(len);
        }
    }
    let mut bits = BitWriter::with_capacity(symbols.len() / 2 + 16);
    for &s in symbols {
        let entry = usize::try_from(s)
            .ok()
            .and_then(|i| emit.get(i))
            .copied()
            .unwrap_or(0);
        debug_assert!(entry != 0, "every input symbol has a code");
        bits.write_bits(entry >> 8, (entry & 0xFF) as u8);
    }
    let payload = bits.into_bytes();
    write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Scalar twin of [`huffman_encode`]: hash-map frequency counting and
/// per-bit MSB-first emission. Also serves as the fallback for alphabets
/// too wide for the dense tables. The differential harness asserts both
/// paths produce identical bytes.
pub fn huffman_encode_reference(symbols: &[u32]) -> Vec<u8> {
    let mut freq: HashMap<u32, u64> = HashMap::new();
    for &s in symbols {
        *freq.entry(s).or_insert(0) += 1;
    }
    let mut freqs: Vec<(u32, u64)> = freq.into_iter().collect();
    freqs.sort_unstable();

    let mut lengths = code_lengths(&freqs);
    // Extremely skewed distributions on huge inputs could exceed the writer's
    // 64-bit code limit; flatten the tail by rescaling frequencies if so.
    if lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
        let rescaled: Vec<(u32, u64)> = freqs
            .iter()
            .map(|&(s, w)| (s, (w as f64).sqrt().ceil() as u64))
            .collect();
        lengths = code_lengths(&rescaled);
    }
    let codes = canonical_codes(&lengths);

    let mut out = Vec::new();
    write_uvarint(&mut out, symbols.len() as u64);
    write_uvarint(&mut out, lengths.len() as u64);
    // Delta-encode the sorted symbol values to keep the table small.
    let mut sorted = lengths.clone();
    sorted.sort_unstable_by_key(|&(sym, _)| sym);
    let mut prev = 0u64;
    for &(sym, len) in &sorted {
        write_uvarint(&mut out, sym as u64 - prev);
        out.push(len);
        prev = sym as u64;
    }

    if lengths.len() <= 1 {
        // Degenerate alphabet: the count and the single table entry say it all.
        write_uvarint(&mut out, 0);
        return out;
    }

    let mut bits = BitWriter::with_capacity(symbols.len() / 2 + 16);
    for &s in symbols {
        let Some(&(code, len)) = codes.get(&s) else {
            // Impossible by construction (the table was built from these
            // symbols); skipping would still yield a stream the decoder
            // rejects by count, not a panic.
            debug_assert!(false, "every input symbol has a code");
            continue;
        };
        // Canonical codes are MSB-first; emit them that way so the decoder can
        // grow the prefix bit by bit.
        for i in (0..len).rev() {
            bits.write_bit((code >> i) & 1 == 1);
        }
    }
    let payload = bits.into_bytes();
    write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decode a buffer produced by [`huffman_encode`].
/// Returns `None` if the buffer is malformed or truncated.
///
/// The declared symbol count is trusted for the degenerate single-symbol
/// layout, whose output size a tiny input can inflate arbitrarily — decode
/// untrusted bytes with [`huffman_decode_capped`] instead.
pub fn huffman_decode(buf: &[u8]) -> Option<Vec<u32>> {
    huffman_decode_capped(buf, usize::MAX)
}

/// [`huffman_decode`] with an upper bound on the declared symbol count.
///
/// Returns `None` when the stream is malformed *or* declares more than
/// `max_symbols` symbols, so a corrupt count prefix on untrusted input is
/// rejected before any symbol-count-sized allocation happens.
pub fn huffman_decode_capped(buf: &[u8], max_symbols: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    huffman_decode_capped_into(buf, max_symbols, &mut out)?;
    Some(out)
}

/// [`huffman_decode_capped`] into a caller-owned buffer, which is cleared
/// first and holds the symbols on success; a decoder that keeps the buffer
/// across streams allocates none once it is warm.
pub fn huffman_decode_capped_into(
    buf: &[u8],
    max_symbols: usize,
    out: &mut Vec<u32>,
) -> Option<()> {
    out.clear();
    let mut pos = 0usize;
    let count = read_uvarint(buf, &mut pos)?;
    if count > max_symbols as u64 {
        return None;
    }
    let count = usize::try_from(count).ok()?;
    let table_len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
    if count == 0 {
        return Some(());
    }
    // Every table entry occupies at least two bytes (delta varint + length),
    // so a table longer than the remaining input is malformed.
    if table_len.checked_mul(2)? > buf.len().saturating_sub(pos) {
        return None;
    }
    let mut lengths = Vec::with_capacity(table_len);
    let mut prev = 0u64;
    for _ in 0..table_len {
        let delta = read_uvarint(buf, &mut pos)?;
        let len = *buf.get(pos)?;
        pos += 1;
        // The encoder only emits code lengths 1..=MAX_CODE_LEN; anything else
        // would overflow the canonical-code shifts below.
        if len == 0 || len > MAX_CODE_LEN {
            return None;
        }
        let sym = prev.checked_add(delta)?;
        lengths.push((u32::try_from(sym).ok()?, len));
        prev = sym;
    }
    let payload_len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
    let payload = buf.get(pos..pos.checked_add(payload_len)?)?;

    if table_len == 1 {
        // Degenerate alphabet: the payload carries `count` copies of one symbol.
        out.resize(count, lengths[0].0);
        return Some(());
    }

    let codes = canonical_codes(&lengths);
    // Invert to (length, code) → symbol for prefix matching.
    let mut decode: HashMap<(u8, u64), u32> = HashMap::with_capacity(codes.len());
    let mut max_len = 0u8;
    for (&sym, &(code, len)) in &codes {
        decode.insert((len, code), sym);
        max_len = max_len.max(len);
    }
    // Flattened LUT: peeking LUT_BITS bits resolves any code of length
    // ≤ LUT_BITS in one probe. Short streams skip the build cost.
    let lut = if count >= LUT_MIN_SYMBOLS {
        Some(build_decode_lut(&codes))
    } else {
        None
    };

    // Each symbol consumes at least one payload bit; clamp the hint so a
    // corrupt count cannot force a huge allocation before the bit reader
    // runs out of input.
    out.reserve(count.min(payload.len().saturating_mul(8)));
    let mut reader = BitReader::new(payload);
    'symbols: while out.len() < count {
        if let Some(lut) = &lut {
            if reader.bits_remaining() >= usize::from(LUT_BITS) {
                let window = reader.peek_bits(LUT_BITS);
                let entry = usize::try_from(window)
                    .ok()
                    .and_then(|i| lut.get(i))
                    .copied()
                    .unwrap_or(LUT_EMPTY);
                if entry != LUT_EMPTY {
                    reader.consume((entry & 0xFF) as u8);
                    out.push(u32::try_from(entry >> 8).ok()?);
                    continue 'symbols;
                }
            }
        }
        // Long-code / stream-tail fallback: the scalar reference loop, one
        // bit at a time against the (length, code) map. A LUT miss leaves
        // the reader untouched, so this re-reads the same bits the peek saw.
        let mut code: u64 = 0;
        let mut len: u8 = 0;
        loop {
            let bit = reader.read_bit()?;
            code = (code << 1) | u64::from(bit);
            len += 1;
            if len > max_len {
                return None;
            }
            if let Some(&sym) = decode.get(&(len, code)) {
                out.push(sym);
                continue 'symbols;
            }
        }
    }
    Some(())
}

/// Build the flattened decode LUT: for every window value whose leading
/// bits spell a code of length ≤ [`LUT_BITS`] (MSB-first in code space,
/// which is LSB-first in the reader's peek window), store
/// `(symbol << 8) | length`. Slots are claimed in ascending
/// `(length, code)` order and never overwritten, so the shortest matching
/// code wins — exactly the reference loop's first-match semantics. Entries
/// whose code value overflows its own length (possible only for hostile
/// over-full tables) are unreachable in the reference and are skipped here.
fn build_decode_lut(codes: &HashMap<u32, (u64, u8)>) -> Vec<u64> {
    let mut entries: Vec<(u8, u64, u32)> = codes
        .iter()
        .filter(|&(_, &(code, len))| len <= LUT_BITS && code >> len == 0)
        .map(|(&sym, &(code, len))| (len, code, sym))
        .collect();
    entries.sort_unstable();
    let mut lut = vec![LUT_EMPTY; LUT_SIZE];
    for &(len, code, sym) in &entries {
        let rev = code.reverse_bits() >> (64 - u32::from(len.max(1)));
        let step = 1usize << len.min(LUT_BITS);
        let mut idx = usize::try_from(rev).unwrap_or(LUT_SIZE);
        while idx < LUT_SIZE {
            if let Some(slot) = lut.get_mut(idx) {
                if *slot == LUT_EMPTY {
                    *slot = (u64::from(sym) << 8) | u64::from(len);
                }
            }
            idx += step;
        }
    }
    lut
}

/// Scalar twin of [`huffman_decode_capped`]: identical header parsing and
/// validation, but the symbol loop reads one bit at a time against the
/// `(length, code)` map with no LUT. The differential harness asserts both
/// decoders agree on every stream, hostile inputs included.
pub fn huffman_decode_capped_reference(buf: &[u8], max_symbols: usize) -> Option<Vec<u32>> {
    let mut pos = 0usize;
    let count = read_uvarint(buf, &mut pos)?;
    if count > max_symbols as u64 {
        return None;
    }
    let count = usize::try_from(count).ok()?;
    let table_len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
    if count == 0 {
        return Some(Vec::new());
    }
    if table_len.checked_mul(2)? > buf.len().saturating_sub(pos) {
        return None;
    }
    let mut lengths = Vec::with_capacity(table_len);
    let mut prev = 0u64;
    for _ in 0..table_len {
        let delta = read_uvarint(buf, &mut pos)?;
        let len = *buf.get(pos)?;
        pos += 1;
        if len == 0 || len > MAX_CODE_LEN {
            return None;
        }
        let sym = prev.checked_add(delta)?;
        lengths.push((u32::try_from(sym).ok()?, len));
        prev = sym;
    }
    let payload_len = usize::try_from(read_uvarint(buf, &mut pos)?).ok()?;
    let payload = buf.get(pos..pos.checked_add(payload_len)?)?;

    if table_len == 1 {
        return Some(vec![lengths[0].0; count]);
    }

    let codes = canonical_codes(&lengths);
    let mut decode: HashMap<(u8, u64), u32> = HashMap::with_capacity(codes.len());
    let mut max_len = 0u8;
    for (&sym, &(code, len)) in &codes {
        decode.insert((len, code), sym);
        max_len = max_len.max(len);
    }

    let mut out = Vec::with_capacity(count.min(payload.len().saturating_mul(8)));
    let mut reader = BitReader::new(payload);
    let mut code: u64 = 0;
    let mut len: u8 = 0;
    while out.len() < count {
        let bit = reader.read_bit()?;
        code = (code << 1) | u64::from(bit);
        len += 1;
        if len > max_len {
            return None;
        }
        if let Some(&sym) = decode.get(&(len, code)) {
            out.push(sym);
            code = 0;
            len = 0;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let enc = huffman_encode(&[]);
        assert_eq!(huffman_decode(&enc), Some(vec![]));
    }

    #[test]
    fn single_symbol_alphabet() {
        let data = vec![7u32; 1000];
        let enc = huffman_encode(&data);
        assert!(
            enc.len() < 40,
            "degenerate stream should be tiny: {}",
            enc.len()
        );
        assert_eq!(huffman_decode(&enc), Some(data));
    }

    #[test]
    fn two_symbols_roundtrip() {
        let data: Vec<u32> = (0..257).map(|i| if i % 3 == 0 { 5 } else { 9 }).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc), Some(data));
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% of symbols are the centre bin, like real quantization codes.
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            data.push(if i % 20 == 0 { 32768 + (i % 7) } else { 32768 });
        }
        let enc = huffman_encode(&data);
        assert!(
            enc.len() < data.len(), // ≪ 4 bytes/symbol
            "skewed stream should compress well: {} bytes for {} symbols",
            enc.len(),
            data.len()
        );
        assert_eq!(huffman_decode(&enc), Some(data));
    }

    #[test]
    fn wide_alphabet_roundtrip() {
        let data: Vec<u32> = (0..5000)
            .map(|i| (i * 2654435761u64 % 60000) as u32)
            .collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc), Some(data));
    }

    #[test]
    fn capped_decode_rejects_oversized_counts() {
        let data: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode_capped(&enc, 500), Some(data));
        assert_eq!(huffman_decode_capped(&enc, 499), None);
        // Degenerate single-symbol streams are the cheapest amplification
        // vector: a few bytes can declare billions of symbols.
        let degenerate = huffman_encode(&vec![42u32; 100]);
        assert_eq!(huffman_decode_capped(&degenerate, 99), None);
        let mut hostile = Vec::new();
        write_uvarint(&mut hostile, u64::MAX); // count
        write_uvarint(&mut hostile, 1); // table_len
        assert_eq!(huffman_decode_capped(&hostile, 1 << 20), None);
    }

    #[test]
    fn decode_into_a_reused_buffer_matches_the_allocating_decode() {
        let streams = [
            (0..3000)
                .map(|i| (i * 7919 % 300) as u32)
                .collect::<Vec<_>>(),
            vec![42u32; 100], // degenerate single-symbol layout
            Vec::new(),
            vec![5, 9],
        ];
        // One buffer across every stream, left dirty by the previous one.
        let mut out = vec![u32::MAX; 4000];
        for data in &streams {
            let enc = huffman_encode(data);
            assert_eq!(
                huffman_decode_capped_into(&enc, data.len(), &mut out),
                Some(())
            );
            assert_eq!(&out, data);
        }
        let enc = huffman_encode(&streams[0]);
        let warm = out.capacity();
        assert_eq!(huffman_decode_capped_into(&enc, 2999, &mut out), None);
        assert_eq!(
            huffman_decode_capped_into(&enc[..enc.len() - 3], 3000, &mut out),
            None
        );
        assert_eq!(out.capacity(), warm, "a rejected stream keeps the buffer");
    }

    #[test]
    fn table_longer_than_input_is_rejected() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 10); // count
        write_uvarint(&mut buf, u32::MAX as u64); // table_len ≫ input
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(huffman_decode(&buf), None);
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let data: Vec<u32> = (0..100).map(|i| i % 17).collect();
        let enc = huffman_encode(&data);
        assert_eq!(huffman_decode(&enc[..enc.len() - 3]), None);
        assert_eq!(huffman_decode(&enc[..2]), None);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = vec![(0u32, 2u8), (1, 2), (2, 3), (3, 3), (4, 3), (5, 3)];
        let codes = canonical_codes(&lengths);
        let items: Vec<(u64, u8)> = codes.values().copied().collect();
        for (i, &(ca, la)) in items.iter().enumerate() {
            for (j, &(cb, lb)) in items.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, slen, long, llen) = if la <= lb {
                    (ca, la, cb, lb)
                } else {
                    (cb, lb, ca, la)
                };
                assert_ne!(
                    short,
                    long >> (llen - slen),
                    "code {short:b} is a prefix of {long:b}"
                );
            }
        }
    }

    #[test]
    fn determinism() {
        let data: Vec<u32> = (0..4096).map(|i| i % 97).collect();
        assert_eq!(huffman_encode(&data), huffman_encode(&data));
    }

    #[test]
    fn dense_encode_matches_reference() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7; 1000],
            (0..257).map(|i| if i % 3 == 0 { 5 } else { 9 }).collect(),
            (0..10_000u32)
                .map(|i| if i % 20 == 0 { 32768 + (i % 7) } else { 32768 })
                .collect(),
            (0..5000)
                .map(|i| (i * 2654435761u64 % 60000) as u32)
                .collect(),
            // Beyond the dense limit: both sides take the hash-map path.
            vec![u32::MAX, 0, u32::MAX, 1],
        ];
        for data in cases {
            assert_eq!(huffman_encode(&data), huffman_encode_reference(&data));
        }
    }

    #[test]
    fn lut_decode_matches_reference() {
        // Large enough that the LUT path is active (count ≥ 512) with a
        // wide alphabet so both short and long codes occur.
        let data: Vec<u32> = (0..20_000u64)
            .map(|i| {
                if i % 3 == 0 {
                    100
                } else {
                    (i * 2654435761 % 60000) as u32
                }
            })
            .collect();
        let enc = huffman_encode(&data);
        assert_eq!(
            huffman_decode_capped(&enc, usize::MAX),
            huffman_decode_capped_reference(&enc, usize::MAX)
        );
        assert_eq!(huffman_decode(&enc), Some(data));
        // Truncated streams must fail identically.
        let cut = &enc[..enc.len() - 4];
        assert_eq!(
            huffman_decode_capped(cut, usize::MAX),
            huffman_decode_capped_reference(cut, usize::MAX)
        );
    }

    #[test]
    fn hostile_overfull_table_decodes_identically() {
        // Hand-built header: 3 symbols all claiming length 1 (violates
        // Kraft). The canonical assignment gives the third symbol a code
        // value that overflows its length; both decoders must treat it as
        // unreachable and agree bit for bit.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 600); // count (LUT path active)
        write_uvarint(&mut buf, 3); // table_len
        for delta in [0u64, 1, 1] {
            write_uvarint(&mut buf, delta);
            buf.push(1); // length 1 for every symbol
        }
        let payload = vec![0b0101_0101u8; 80];
        write_uvarint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        assert_eq!(
            huffman_decode_capped(&buf, usize::MAX),
            huffman_decode_capped_reference(&buf, usize::MAX)
        );
    }
}
