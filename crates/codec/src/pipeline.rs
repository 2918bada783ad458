//! Composed lossless stages used by every compressor in the workspace.
//!
//! * [`encode_codes`] / [`decode_codes_capped`] — the paper's "Huffman +
//!   Zstd" stage applied to quantization-bin indices (Huffman over the `u32`
//!   alphabet, then `zlite` over the Huffman bytes).
//! * [`compress_bytes`] / [`decompress_bytes_capped`] — `zlite` over raw byte
//!   payloads (unpredictable values, latent headers, block means).
//!
//! Every decoder takes a cap on its output, so a corrupt length prefix is
//! rejected instead of trusted into a large allocation.

use crate::huffman::{huffman_decode_capped_into, huffman_encode};
use crate::lz::{zlite_compress, zlite_decompress_capped};

/// Errors surfaced while decoding compressed payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The zlite layer could not reconstruct the byte stream.
    CorruptLz,
    /// The Huffman layer could not reconstruct the symbol stream.
    CorruptHuffman,
    /// A structured payload (header, varint field) was malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::CorruptLz => write!(f, "corrupt zlite stream"),
            CodecError::CorruptHuffman => write!(f, "corrupt Huffman stream"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Entropy-encode quantization codes: canonical Huffman, then zlite.
pub fn encode_codes(codes: &[u32]) -> Vec<u8> {
    zlite_compress(&huffman_encode(codes))
}

/// Inverse of [`encode_codes`], for a stream of at most `max_symbols` codes:
/// corrupt length prefixes in either lossless stage are rejected instead of
/// trusted into large allocations. A Huffman code spends
/// at most [`crate::huffman`]'s 56 bits (7 bytes) per symbol, so the inner
/// zlite output is capped at `8 · max_symbols` bytes plus table headroom.
pub fn decode_codes_capped(buf: &[u8], max_symbols: usize) -> Result<Vec<u32>, CodecError> {
    let mut codes = Vec::new();
    decode_codes_capped_into(buf, max_symbols, &mut codes)?;
    Ok(codes)
}

/// [`decode_codes_capped`] into a caller-owned buffer, which is cleared
/// first and holds the codes on success; a decoder that keeps the buffer
/// across streams allocates no code buffer once it is warm.
pub fn decode_codes_capped_into(
    buf: &[u8],
    max_symbols: usize,
    codes: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let huff_cap = max_symbols.saturating_mul(8).saturating_add(1 << 16);
    let huff = zlite_decompress_capped(buf, huff_cap).ok_or(CodecError::CorruptLz)?;
    huffman_decode_capped_into(&huff, max_symbols, codes).ok_or(CodecError::CorruptHuffman)
}

/// Losslessly compress an arbitrary byte payload with zlite.
pub fn compress_bytes(bytes: &[u8]) -> Vec<u8> {
    zlite_compress(bytes)
}

/// Inverse of [`compress_bytes`], for a payload of at most `max_len` bytes.
pub fn decompress_bytes_capped(buf: &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
    zlite_decompress_capped(buf, max_len).ok_or(CodecError::CorruptLz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_compress() {
        // Typical quantization codes: nearly all in the centre bin.
        let codes: Vec<u32> = (0..50_000)
            .map(|i| if i % 50 == 0 { 32768 + (i % 9) } else { 32768 })
            .collect();
        let enc = encode_codes(&codes);
        assert!(
            enc.len() * 20 < codes.len() * 4,
            "centre-heavy codes should compress >20x, got {} bytes",
            enc.len()
        );
        assert_eq!(decode_codes_capped(&enc, codes.len()).unwrap(), codes);
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes: Vec<u8> = (0..10_000u32).flat_map(|i| (i / 3).to_le_bytes()).collect();
        let enc = compress_bytes(&bytes);
        assert_eq!(decompress_bytes_capped(&enc, bytes.len()).unwrap(), bytes);
    }

    #[test]
    fn empty_streams() {
        assert_eq!(
            decode_codes_capped(&encode_codes(&[]), 0).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(
            decompress_bytes_capped(&compress_bytes(&[]), 0).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn corrupt_streams_return_errors() {
        let enc = encode_codes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(decode_codes_capped(&enc[..1], 10).is_err());
        assert!(decompress_bytes_capped(&[0xFF, 0xFF, 0xFF], 3).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(CodecError::CorruptLz.to_string(), "corrupt zlite stream");
        assert!(CodecError::Malformed("header")
            .to_string()
            .contains("header"));
    }
}
