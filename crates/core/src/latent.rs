//! The customized ("custo.") lossy codec for AE latent vectors (Section IV-E).
//!
//! Instead of storing raw `f32` latents, AE-SZ quantizes every latent element
//! with an error bound of `0.1·e` (one tenth of the data error bound) and
//! entropy-codes the quantization indices with Huffman + zlite. Crucially the
//! compression of each latent vector is independent of every other block —
//! unlike SZ2.1, whose cross-block prediction would break AE-SZ's ability to
//! drop the latents of Lorenzo-predicted blocks. Decoding the quantized
//! latents (`z_d` in Fig. 5) is what the decoder network consumes on both the
//! compression and decompression sides, so the two sides always see identical
//! predictions.

use aesz_codec::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use aesz_codec::{decode_codes_capped, encode_codes, CodecError};

/// Quantizes latent vectors with a fixed absolute error bound and
/// entropy-codes the indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentCodec {
    /// Absolute error bound applied to every latent element.
    pub abs_bound: f64,
}

impl LatentCodec {
    /// Codec with the given absolute per-element error bound, which must be
    /// finite and positive (debug builds check it; AE-SZ derives it from a
    /// validated bound and floors it at `1e-9`).
    pub fn new(abs_bound: f64) -> Self {
        debug_assert!(abs_bound > 0.0 && abs_bound.is_finite());
        LatentCodec { abs_bound }
    }

    /// Quantize a latent vector to integer indices; `dequantize_one` of each
    /// index reproduces the value the decoder will use.
    pub fn quantize(&self, latent: &[f32]) -> Vec<i64> {
        let mut out = vec![0; latent.len()];
        self.quantize_into(latent, &mut out);
        out
    }

    /// In-place [`LatentCodec::quantize`]: writes the index of `latent[i]`
    /// to `out[i]` (the two slices have the same length).
    pub fn quantize_into(&self, latent: &[f32], out: &mut [i64]) {
        debug_assert_eq!(latent.len(), out.len());
        for (o, &v) in out.iter_mut().zip(latent) {
            *o = (v as f64 / (2.0 * self.abs_bound)).round() as i64;
        }
    }

    /// Reconstruct one latent element from its quantization index.
    pub fn dequantize_one(&self, index: i64) -> f32 {
        (index as f64 * 2.0 * self.abs_bound) as f32
    }

    /// Reconstruct a full latent vector from its indices.
    pub fn dequantize(&self, indices: &[i64]) -> Vec<f32> {
        let mut out = vec![0.0; indices.len()];
        self.dequantize_into(indices, &mut out);
        out
    }

    /// In-place [`LatentCodec::dequantize`]: writes the value of
    /// `indices[i]` to `out[i]` (the two slices have the same length).
    pub fn dequantize_into(&self, indices: &[i64], out: &mut [f32]) {
        debug_assert_eq!(indices.len(), out.len());
        for (o, &i) in out.iter_mut().zip(indices) {
            *o = self.dequantize_one(i);
        }
    }

    /// Quantize and immediately dequantize (the `z → z_d` path of Fig. 5).
    pub fn roundtrip(&self, latent: &[f32]) -> Vec<f32> {
        self.dequantize(&self.quantize(latent))
    }

    /// Whether [`LatentCodec::encode`] can code `indices`: their span
    /// (maximum − minimum) must fit a `u32` symbol.
    pub fn fits(indices: &[i64]) -> bool {
        let (Some(&min), Some(&max)) = (indices.iter().min(), indices.iter().max()) else {
            return true;
        };
        max.checked_sub(min)
            .is_some_and(|span| u32::try_from(span).is_ok())
    }

    /// Entropy-encode a set of quantized latent vectors (all of equal length).
    ///
    /// The indices are mapped to unsigned symbols by offsetting with the
    /// stream minimum, then Huffman + zlite coded; the minimum, the vector
    /// length and the vector count go into a small header. Returns `None`
    /// when the indices do not [fit](LatentCodec::fits) `u32` symbols, so
    /// the round trip is exact or refused.
    pub fn encode(&self, indices: &[i64], latent_dim: usize) -> Option<Vec<u8>> {
        let min = indices.iter().copied().min().unwrap_or(0);
        let symbols = indices
            .iter()
            .map(|&i| u32::try_from(i.checked_sub(min)?).ok())
            .collect::<Option<Vec<u32>>>()?;
        let mut out = Vec::new();
        write_uvarint(&mut out, latent_dim as u64);
        write_uvarint(&mut out, indices.len() as u64);
        write_ivarint(&mut out, min);
        let payload = encode_codes(&symbols);
        write_uvarint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        Some(out)
    }

    /// Decode a buffer produced by [`LatentCodec::encode`]; returns
    /// `(indices, latent_dim)`.
    pub fn decode(&self, bytes: &[u8]) -> Result<(Vec<i64>, usize), CodecError> {
        self.decode_capped(bytes, usize::MAX)
    }

    /// [`LatentCodec::decode`] with an upper bound on the declared index
    /// count, for untrusted input: a corrupt count or length prefix is
    /// rejected instead of driving a huge allocation or a slice panic.
    pub fn decode_capped(
        &self,
        bytes: &[u8],
        max_indices: usize,
    ) -> Result<(Vec<i64>, usize), CodecError> {
        let mut pos = 0usize;
        let latent_dim =
            read_uvarint(bytes, &mut pos).ok_or(CodecError::Malformed("latent_dim"))?;
        let latent_dim =
            usize::try_from(latent_dim).map_err(|_| CodecError::Malformed("latent_dim"))?;
        let count = read_uvarint(bytes, &mut pos).ok_or(CodecError::Malformed("count"))?;
        if count > max_indices as u64 {
            return Err(CodecError::Malformed("latent count exceeds cap"));
        }
        let count = usize::try_from(count).map_err(|_| CodecError::Malformed("count"))?;
        let min = read_ivarint(bytes, &mut pos).ok_or(CodecError::Malformed("min"))?;
        let payload_len =
            read_uvarint(bytes, &mut pos).ok_or(CodecError::Malformed("payload_len"))?;
        let end = usize::try_from(payload_len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .ok_or(CodecError::Malformed("payload length overflow"))?;
        let payload = bytes
            .get(pos..end)
            .ok_or(CodecError::Malformed("payload"))?;
        let symbols = decode_codes_capped(payload, count)?;
        if symbols.len() != count {
            return Err(CodecError::Malformed("latent symbol count"));
        }
        Ok((
            symbols
                .into_iter()
                .map(|s| i64::from(s).wrapping_add(min))
                .collect(),
            latent_dim,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_respects_bound() {
        let codec = LatentCodec::new(0.01);
        let latent: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 2.0).collect();
        let rt = codec.roundtrip(&latent);
        for (a, b) in latent.iter().zip(rt.iter()) {
            assert!((a - b).abs() <= 0.01 + 1e-7);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let codec = LatentCodec::new(0.005);
        let latent: Vec<f32> = (0..256).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
        let indices = codec.quantize(&latent);
        let bytes = codec.encode(&indices, 16).unwrap();
        let (decoded, dim) = codec.decode(&bytes).unwrap();
        assert_eq!(decoded, indices);
        assert_eq!(dim, 16);
    }

    #[test]
    fn empty_latent_set_is_fine() {
        let codec = LatentCodec::new(0.01);
        let bytes = codec.encode(&[], 8).unwrap();
        let (decoded, dim) = codec.decode(&bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(dim, 8);
    }

    #[test]
    fn corrupted_buffer_is_an_error() {
        let codec = LatentCodec::new(0.01);
        let bytes = codec.encode(&[1, 2, 3, 4], 2).unwrap();
        assert!(codec.decode(&bytes[..3]).is_err());
    }

    #[test]
    fn capped_decode_rejects_oversized_counts() {
        let codec = LatentCodec::new(0.01);
        let bytes = codec.encode(&[1, 2, 3, 4], 2).unwrap();
        assert!(codec.decode_capped(&bytes, 4).is_ok());
        assert!(codec.decode_capped(&bytes, 3).is_err());
        // A hostile count prefix alone must not drive an allocation.
        let mut hostile = Vec::new();
        write_uvarint(&mut hostile, 2); // latent_dim
        write_uvarint(&mut hostile, u64::MAX); // count
        assert!(codec.decode_capped(&hostile, 1 << 20).is_err());
    }

    #[test]
    fn index_spans_past_u32_are_refused_not_truncated() {
        let codec = LatentCodec::new(0.01);
        // Truncated to `u32`, this span of 2^32 + 8 decodes the middle index
        // as 5.
        let wide = [0, (1i64 << 32) + 5, -3];
        assert!(!LatentCodec::fits(&wide));
        assert_eq!(codec.encode(&wide, 3), None);
        // Saturated indices (from ±inf latents) must not overflow `i - min`.
        let saturated = [i64::MAX, 0, i64::MIN];
        assert!(!LatentCodec::fits(&saturated));
        assert_eq!(codec.encode(&saturated, 1), None);
        // The widest span that fits round-trips exactly.
        let widest = [-7, i64::from(u32::MAX) - 7, 0];
        assert!(LatentCodec::fits(&widest));
        let bytes = codec.encode(&widest, 3).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), (widest.to_vec(), 3));
        assert!(LatentCodec::fits(&[]));
    }

    #[test]
    fn compresses_smooth_latents_well() {
        // Latents whose values cluster tightly should cost far less than 4 bytes each.
        let codec = LatentCodec::new(0.01);
        let latent: Vec<f32> = (0..4096).map(|i| ((i % 7) as f32) * 0.005).collect();
        let indices = codec.quantize(&latent);
        let bytes = codec.encode(&indices, 16).unwrap();
        assert!(bytes.len() * 4 < latent.len() * 4, "{} bytes", bytes.len());
    }

    proptest! {
        /// The decoded latent the decompressor sees equals the one the
        /// compressor used, and both are within the bound of the original.
        #[test]
        fn prop_roundtrip_and_bound(
            latent in proptest::collection::vec(-5.0f32..5.0, 1..128),
            bound_exp in -4i32..-1,
        ) {
            let bound = 10f64.powi(bound_exp);
            let codec = LatentCodec::new(bound);
            let indices = codec.quantize(&latent);
            let bytes = codec.encode(&indices, latent.len()).unwrap();
            let (decoded, _) = codec.decode(&bytes).unwrap();
            prop_assert_eq!(&decoded, &indices);
            // The reconstructed latent is stored as f32, so allow one f32 ULP of
            // the value magnitude on top of the quantization bound.
            for (v, d) in latent.iter().zip(codec.dequantize(&decoded)) {
                let slack = (v.abs() as f64) * f32::EPSILON as f64 + 1e-9;
                prop_assert!((*v as f64 - d as f64).abs() <= bound + slack);
            }
        }
    }
}
