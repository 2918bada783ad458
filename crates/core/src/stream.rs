//! On-disk / in-memory layout of an AE-SZ compressed stream.
//!
//! The stream mirrors the paper's description of the compressed data: "a
//! header containing metadata (with trivial space cost), lossy compressed
//! latent vectors from autoencoders, and quantization bins (losslessly
//! encoded)" — plus the block means of mean-predicted blocks and the escaped
//! unpredictable values that SZ-style quantization always needs.
//!
//! # Validated header invariants
//!
//! [`Stream::from_bytes`] is the trust boundary of the decoder: it fully
//! validates the header *before* any payload byte is interpreted, so
//! truncated or hostile input yields a [`DecompressError`] instead of a
//! panic or an attacker-sized allocation. A successfully parsed [`Stream`]
//! guarantees:
//!
//! * the input starts with [`MAGIC`] (version 3: followed by the 16-byte
//!   [`ModelId`] of the encoding network) or [`MAGIC_V2`] (version 2: no
//!   model id, parsed as "model id unknown");
//! * the rank is 1–3, and the total element count neither overflows `usize`
//!   nor exceeds [`MAX_FIELD_ELEMS`];
//! * `data_min`/`data_max` are finite with `data_min <= data_max`, and
//!   `rel_eb` is finite and positive;
//! * `block_size >= 1` with `block_size^rank` (the padded block volume) no
//!   larger than [`MAX_FIELD_ELEMS`], and `latent_dim >= 1`; `quant_bins`
//!   is in `4..=2³¹` and `latent_eb_fraction` is finite and non-negative
//!   (the header is self-describing: decoding never depends on the
//!   decoder's own configuration of these parameters);
//! * the stored block count equals the block-grid size implied by the dims
//!   and `block_size`, and the packed predictor flags for exactly that many
//!   blocks are present, with no flag holding the invalid bit pattern
//!   `0b11`;
//! * a stream whose policy is `LorenzoOnly` contains no AE-predicted block;
//! * every section length prefix fits inside the remaining input (a corrupt
//!   varint cannot drive a huge `Vec` or a slice panic), and no trailing
//!   bytes follow the last section.
//!
//! Payload-level consistency (symbol counts vs. block geometry, escape
//! counts, latent payload size) is validated by
//! [`crate::AeSz::try_decompress`] before reconstruction starts.

use aesz_codec::varint::{read_f32, read_f64, read_uvarint, write_f32, write_f64, write_uvarint};
use aesz_tensor::Dims;

use crate::config::PredictorPolicy;
use crate::error::DecompressError;

/// Magic bytes identifying a current AE-SZ stream (version 3: the magic is
/// followed by the 16-byte content-addressed [`ModelId`] of the network that
/// encoded the stream, so a decoder can resolve the exact trained model —
/// or fail with a dedicated "missing model" error instead of decoding
/// garbage).
pub const MAGIC: &[u8; 8] = b"AESZ0003";

/// Magic bytes of the previous stream version, which carries no model id.
/// Still fully decodable: such streams parse with
/// [`Header::model_id`]` == None` ("model id unknown") and rely on the
/// geometry checks alone, exactly as they did before version 3.
pub const MAGIC_V2: &[u8; 8] = b"AESZ0002";

pub use aesz_metrics::container::MAX_FIELD_ELEMS;
use aesz_metrics::container::MODEL_ID_LEN;
pub use aesz_metrics::ModelId;

/// Per-block predictor choice, two bits per block in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPredictor {
    /// Autoencoder prediction from the lossily compressed latent vector.
    Ae = 0,
    /// Classic first-order Lorenzo within the block.
    Lorenzo = 1,
    /// Constant block-mean prediction ("mean-Lorenzo").
    Mean = 2,
}

impl BlockPredictor {
    /// Decode a two-bit flag; the fourth bit pattern (`0b11`) is unassigned
    /// and returns `None` so corrupted flags fail decoding instead of being
    /// silently misread as a valid predictor.
    pub fn try_from_bits(bits: u8) -> Option<BlockPredictor> {
        match bits & 0b11 {
            0 => Some(BlockPredictor::Ae),
            1 => Some(BlockPredictor::Lorenzo),
            2 => Some(BlockPredictor::Mean),
            _ => None,
        }
    }
}

/// Parsed header of an AE-SZ stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Content-addressed id of the trained model that encoded the stream
    /// (`None` for version-2 streams, which predate model provenance).
    /// Serialized immediately after the magic so it can be peeked without
    /// parsing the rest of the header
    /// ([`aesz_metrics::container::peek_payload_model_id`]).
    pub model_id: Option<ModelId>,
    /// Extents of the original field.
    pub dims: Dims,
    /// Global minimum of the original field (for the [-1, 1] normalization).
    pub data_min: f32,
    /// Global maximum of the original field.
    pub data_max: f32,
    /// Value-range-relative error bound the stream was compressed with.
    pub rel_eb: f64,
    /// Block edge length.
    pub block_size: usize,
    /// Latent vector length of the model that produced the stream.
    pub latent_dim: usize,
    /// Number of linear quantization bins the residual codes were written
    /// with; the decoder must dequantize with the same bin count.
    pub quant_bins: usize,
    /// Fraction of the data error bound used for the latent quantizer
    /// ([`crate::AeSzConfig::latent_eb_fraction`] at compression time); the
    /// decoder must reconstruct latents at the same scale.
    pub latent_eb_fraction: f64,
    /// Predictor policy used (Adaptive / AeOnly / LorenzoOnly).
    pub policy: PredictorPolicy,
}

/// Fully parsed AE-SZ stream: header, per-block predictor flags, and the four
/// compressed payload sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Stream header.
    pub header: Header,
    /// Predictor choice per block, in block-grid scan order.
    pub predictors: Vec<BlockPredictor>,
    /// "custo."-encoded latent indices of the AE-predicted blocks.
    pub latent_section: Vec<u8>,
    /// zlite-compressed little-endian means of the mean-predicted blocks.
    pub means_section: Vec<u8>,
    /// Huffman+zlite-encoded quantization codes of every block, concatenated.
    pub codes_section: Vec<u8>,
    /// zlite-compressed little-endian unpredictable values.
    pub unpredictable_section: Vec<u8>,
}

fn write_dims(out: &mut Vec<u8>, dims: Dims) {
    let e = dims.extents();
    out.push(e.len() as u8);
    for &d in &e {
        write_uvarint(out, d as u64);
    }
}

fn read_dims(buf: &[u8], pos: &mut usize) -> Result<Dims, DecompressError> {
    let rank = usize::from(
        *buf.get(*pos)
            .ok_or(DecompressError::Truncated("rank byte"))?,
    );
    *pos += 1;
    if !(1..=3).contains(&rank) {
        return Err(DecompressError::InvalidHeader("rank must be 1-3"));
    }
    let mut e = Vec::with_capacity(rank);
    for _ in 0..rank {
        let ext = read_uvarint(buf, pos).ok_or(DecompressError::Truncated("extent"))?;
        if ext == 0 {
            return Err(DecompressError::InvalidHeader("zero extent"));
        }
        if ext > MAX_FIELD_ELEMS as u64 {
            return Err(DecompressError::InvalidHeader("extent too large"));
        }
        e.push(
            usize::try_from(ext).map_err(|_| DecompressError::InvalidHeader("extent too large"))?,
        );
    }
    e.iter()
        .try_fold(1usize, |acc, &ext| acc.checked_mul(ext))
        .filter(|&n| n <= MAX_FIELD_ELEMS)
        .ok_or(DecompressError::InvalidHeader("field too large"))?;
    match rank {
        1 => Ok(Dims::d1(e[0])),
        2 => Ok(Dims::d2(e[0], e[1])),
        _ => Ok(Dims::d3(e[0], e[1], e[2])),
    }
}

fn write_section(out: &mut Vec<u8>, section: &[u8]) {
    write_uvarint(out, section.len() as u64);
    out.extend_from_slice(section);
}

fn read_section(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<Vec<u8>, DecompressError> {
    let len = read_uvarint(buf, pos).ok_or(DecompressError::Truncated(what))?;
    // Reject length prefixes that exceed the remaining input outright; the
    // declared length is never trusted into an allocation or slice index.
    let remaining = buf.len() - *pos;
    if len > remaining as u64 {
        return Err(DecompressError::Truncated(what));
    }
    let len = usize::try_from(len).map_err(|_| DecompressError::Truncated(what))?;
    let bytes = buf
        .get(*pos..*pos + len)
        .ok_or(DecompressError::Truncated(what))?
        .to_vec();
    *pos += len;
    Ok(bytes)
}

impl Stream {
    /// Serialize the stream to bytes: version 3 (magic + model id) when the
    /// header carries a model id, the id-less version 2 layout otherwise.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self.header.model_id {
            Some(id) => {
                out.extend_from_slice(MAGIC);
                out.extend_from_slice(id.as_bytes());
            }
            None => out.extend_from_slice(MAGIC_V2),
        }
        write_dims(&mut out, self.header.dims);
        write_f32(&mut out, self.header.data_min);
        write_f32(&mut out, self.header.data_max);
        write_f64(&mut out, self.header.rel_eb);
        write_uvarint(&mut out, self.header.block_size as u64);
        write_uvarint(&mut out, self.header.latent_dim as u64);
        write_uvarint(&mut out, self.header.quant_bins as u64);
        write_f64(&mut out, self.header.latent_eb_fraction);
        out.push(match self.header.policy {
            PredictorPolicy::Adaptive => 0,
            PredictorPolicy::AeOnly => 1,
            PredictorPolicy::LorenzoOnly => 2,
        });
        write_uvarint(&mut out, self.predictors.len() as u64);
        // Two bits per block, packed four to a byte.
        let mut packed = vec![0u8; self.predictors.len().div_ceil(4)];
        for (i, &p) in self.predictors.iter().enumerate() {
            if let Some(slot) = packed.get_mut(i / 4) {
                *slot |= (p as u8) << ((i % 4) * 2);
            }
        }
        out.extend_from_slice(&packed);
        write_section(&mut out, &self.latent_section);
        write_section(&mut out, &self.means_section);
        write_section(&mut out, &self.codes_section);
        write_section(&mut out, &self.unpredictable_section);
        out
    }

    /// Parse and validate a stream from bytes produced by
    /// [`Stream::to_bytes`]. See the module docs for the invariants a
    /// returned `Stream` satisfies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Stream, DecompressError> {
        if bytes.len() < MAGIC.len() {
            return Err(DecompressError::Truncated("magic"));
        }
        let mut pos = MAGIC.len();
        let model_id = match &bytes[..MAGIC.len()] {
            m if m == MAGIC => {
                let id = bytes
                    .get(pos..)
                    .and_then(ModelId::from_prefix)
                    .ok_or(DecompressError::Truncated("model id"))?;
                pos += MODEL_ID_LEN;
                Some(id)
            }
            m if m == MAGIC_V2 => None,
            _ => return Err(DecompressError::BadMagic),
        };
        let dims = read_dims(bytes, &mut pos)?;
        let data_min = read_f32(bytes, &mut pos).ok_or(DecompressError::Truncated("data_min"))?;
        let data_max = read_f32(bytes, &mut pos).ok_or(DecompressError::Truncated("data_max"))?;
        if !data_min.is_finite() || !data_max.is_finite() || data_min > data_max {
            return Err(DecompressError::InvalidHeader("data range"));
        }
        let rel_eb = read_f64(bytes, &mut pos).ok_or(DecompressError::Truncated("rel_eb"))?;
        if !rel_eb.is_finite() || rel_eb <= 0.0 {
            return Err(DecompressError::InvalidHeader("rel_eb"));
        }
        // Validate wire integers in the u64 domain *before* narrowing; an
        // `as usize` here would wrap on 32-bit targets and let a value like
        // 2^32 + 8 masquerade as a tiny block size.
        let block_size_raw =
            read_uvarint(bytes, &mut pos).ok_or(DecompressError::Truncated("block_size"))?;
        if block_size_raw == 0 || block_size_raw > MAX_FIELD_ELEMS as u64 {
            return Err(DecompressError::InvalidHeader("block_size"));
        }
        // Reconstruction allocates padded block_size^rank buffers; cap that
        // volume like the field itself so a tiny hostile stream (e.g. a 1×1
        // field claiming a 2³⁰ block edge) cannot abort on allocation.
        let rank_exp =
            u32::try_from(dims.rank()).map_err(|_| DecompressError::InvalidHeader("rank"))?;
        if block_size_raw
            .checked_pow(rank_exp)
            .is_none_or(|v| v > MAX_FIELD_ELEMS as u64)
        {
            return Err(DecompressError::InvalidHeader("block volume"));
        }
        let block_size = usize::try_from(block_size_raw)
            .map_err(|_| DecompressError::InvalidHeader("block_size"))?;
        let latent_dim_raw =
            read_uvarint(bytes, &mut pos).ok_or(DecompressError::Truncated("latent_dim"))?;
        if latent_dim_raw == 0 || latent_dim_raw > MAX_FIELD_ELEMS as u64 {
            return Err(DecompressError::InvalidHeader("latent_dim"));
        }
        let latent_dim = usize::try_from(latent_dim_raw)
            .map_err(|_| DecompressError::InvalidHeader("latent_dim"))?;
        let quant_bins =
            read_uvarint(bytes, &mut pos).ok_or(DecompressError::Truncated("quant_bins"))?;
        // The quantizer requires at least 4 bins; the cap keeps the value
        // within usize on every target (codes are u32 anyway).
        if !(4..=1 << 31).contains(&quant_bins) {
            return Err(DecompressError::InvalidHeader("quant_bins"));
        }
        let quant_bins = usize::try_from(quant_bins)
            .map_err(|_| DecompressError::InvalidHeader("quant_bins"))?;
        let latent_eb_fraction =
            read_f64(bytes, &mut pos).ok_or(DecompressError::Truncated("latent_eb_fraction"))?;
        if !latent_eb_fraction.is_finite() || latent_eb_fraction < 0.0 {
            return Err(DecompressError::InvalidHeader("latent_eb_fraction"));
        }
        let policy = match bytes.get(pos).ok_or(DecompressError::Truncated("policy"))? {
            0 => PredictorPolicy::Adaptive,
            1 => PredictorPolicy::AeOnly,
            2 => PredictorPolicy::LorenzoOnly,
            _ => return Err(DecompressError::InvalidHeader("policy value")),
        };
        pos += 1;
        let n_blocks_raw =
            read_uvarint(bytes, &mut pos).ok_or(DecompressError::Truncated("n_blocks"))?;
        // The block count is implied by the dims and block size; a stream
        // claiming anything else is corrupt, and rejecting it here bounds
        // the predictor-flag allocation by the (already capped) field size.
        // The comparison stays in u64 so a count like 2^32 + k cannot alias
        // the expected value on 32-bit targets.
        let expected_blocks: usize = dims
            .block_grid(block_size)
            .iter()
            .try_fold(1usize, |acc, &g| acc.checked_mul(g))
            .ok_or(DecompressError::InvalidHeader("block grid overflow"))?;
        if n_blocks_raw != expected_blocks as u64 {
            return Err(DecompressError::Inconsistent(
                "block count does not match dims / block_size",
            ));
        }
        let n_blocks = expected_blocks;
        let packed_len = n_blocks.div_ceil(4);
        let packed = bytes
            .get(pos..pos + packed_len)
            .ok_or(DecompressError::Truncated("predictor flags"))?;
        pos += packed_len;
        let mut predictors = Vec::with_capacity(n_blocks.min(MAX_FIELD_ELEMS));
        for i in 0..n_blocks {
            let byte = *packed
                .get(i / 4)
                .ok_or(DecompressError::Truncated("predictor flags"))?;
            let p = BlockPredictor::try_from_bits(byte >> ((i % 4) * 2))
                .ok_or(DecompressError::InvalidHeader("predictor flag 0b11"))?;
            if p == BlockPredictor::Ae && policy == PredictorPolicy::LorenzoOnly {
                return Err(DecompressError::Inconsistent(
                    "AE-predicted block in a LorenzoOnly stream",
                ));
            }
            predictors.push(p);
        }
        let latent_section = read_section(bytes, &mut pos, "latent section")?;
        let means_section = read_section(bytes, &mut pos, "means section")?;
        let codes_section = read_section(bytes, &mut pos, "codes section")?;
        let unpredictable_section = read_section(bytes, &mut pos, "unpredictable section")?;
        if pos != bytes.len() {
            return Err(DecompressError::Inconsistent("trailing bytes"));
        }
        Ok(Stream {
            header: Header {
                model_id,
                dims,
                data_min,
                data_max,
                rel_eb,
                block_size,
                latent_dim,
                quant_bins,
                latent_eb_fraction,
                policy,
            },
            predictors,
            latent_section,
            means_section,
            codes_section,
            unpredictable_section,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> Stream {
        Stream {
            header: Header {
                model_id: None,
                dims: Dims::d2(100, 200),
                data_min: -1.5,
                data_max: 2.5,
                rel_eb: 1e-3,
                block_size: 32,
                latent_dim: 16,
                quant_bins: 65_536,
                latent_eb_fraction: 0.1,
                policy: PredictorPolicy::Adaptive,
            },
            // 100×200 with 32-blocks → 4×7 grid = 28 blocks.
            predictors: (0..28)
                .map(|i| match i % 3 {
                    0 => BlockPredictor::Ae,
                    1 => BlockPredictor::Lorenzo,
                    _ => BlockPredictor::Mean,
                })
                .collect(),
            latent_section: vec![1, 2, 3],
            means_section: vec![4, 5],
            codes_section: vec![6, 7, 8, 9],
            unpredictable_section: vec![],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample_stream();
        let bytes = s.to_bytes();
        let parsed = Stream::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn v3_streams_carry_a_peekable_model_id() {
        let mut s = sample_stream();
        let id = ModelId::of(b"the trained network");
        s.header.model_id = Some(id);
        let bytes = s.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        let parsed = Stream::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, s);
        for len in 0..bytes.len() {
            assert!(
                Stream::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes parsed as a complete v3 stream"
            );
        }

        // Version-2 streams decode as "model id unknown".
        let v2 = sample_stream().to_bytes();
        assert_eq!(&v2[..8], MAGIC_V2);
        assert_eq!(Stream::from_bytes(&v2).unwrap().header.model_id, None);
    }

    #[test]
    fn payload_magic_is_pinned_to_the_container_peek() {
        // `aesz_metrics::container::peek` sniffs the AE-SZ payload magic to
        // report a framed stream's model id without depending on this crate;
        // the two constants must never drift apart.
        assert_eq!(aesz_metrics::container::AESZ_PAYLOAD_MAGIC, *MAGIC);
    }

    #[test]
    fn v3_header_costs_exactly_the_model_id() {
        let mut s = sample_stream();
        let v2_len = s.to_bytes().len();
        s.header.model_id = Some(ModelId::of(b"net"));
        assert_eq!(s.to_bytes().len(), v2_len + 16);
    }

    #[test]
    fn header_overhead_is_trivial() {
        // The paper calls the header "trivial space cost"; ours is tens of bytes.
        let s = sample_stream();
        let empty_payload = s.to_bytes().len()
            - s.latent_section.len()
            - s.means_section.len()
            - s.codes_section.len()
            - s.unpredictable_section.len();
        assert!(empty_payload < 64, "header is {empty_payload} bytes");
    }

    #[test]
    fn corrupt_magic_and_truncation_are_rejected() {
        let s = sample_stream();
        let mut bytes = s.to_bytes();
        assert!(Stream::from_bytes(&bytes[..10]).is_err());
        bytes[0] = b'X';
        assert_eq!(Stream::from_bytes(&bytes), Err(DecompressError::BadMagic));
    }

    #[test]
    fn every_truncated_prefix_is_rejected() {
        let bytes = sample_stream().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Stream::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes parsed as a complete stream"
            );
        }
    }

    #[test]
    fn all_predictor_policies_roundtrip() {
        for policy in [
            PredictorPolicy::Adaptive,
            PredictorPolicy::AeOnly,
            PredictorPolicy::LorenzoOnly,
        ] {
            let mut s = sample_stream();
            s.header.policy = policy;
            if policy == PredictorPolicy::LorenzoOnly {
                // LorenzoOnly streams must not contain AE blocks.
                for p in s.predictors.iter_mut() {
                    if *p == BlockPredictor::Ae {
                        *p = BlockPredictor::Lorenzo;
                    }
                }
            }
            let parsed = Stream::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(parsed.header.policy, policy);
        }
    }

    #[test]
    fn predictor_flags_pack_two_bits_each() {
        let s = sample_stream();
        let parsed = Stream::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(parsed.predictors, s.predictors);
    }

    #[test]
    fn invalid_flag_pattern_is_an_error() {
        assert_eq!(
            BlockPredictor::try_from_bits(0b00),
            Some(BlockPredictor::Ae)
        );
        assert_eq!(
            BlockPredictor::try_from_bits(0b01),
            Some(BlockPredictor::Lorenzo)
        );
        assert_eq!(
            BlockPredictor::try_from_bits(0b10),
            Some(BlockPredictor::Mean)
        );
        assert_eq!(BlockPredictor::try_from_bits(0b11), None);

        // Force the first block's flag to 0b11 in a serialized stream.
        let s = sample_stream();
        let mut bytes = s.to_bytes();
        let flags_at = bytes.len()
            - s.unpredictable_section.len()
            - 1
            - s.codes_section.len()
            - 1
            - s.means_section.len()
            - 1
            - s.latent_section.len()
            - 1
            - s.predictors.len().div_ceil(4);
        bytes[flags_at] |= 0b11;
        assert_eq!(
            Stream::from_bytes(&bytes),
            Err(DecompressError::InvalidHeader("predictor flag 0b11"))
        );
    }

    #[test]
    fn invalid_header_fields_are_rejected() {
        let base = sample_stream();

        let mut s = base.clone();
        s.header.block_size = 0;
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("block_size"))
        ));

        let mut s = base.clone();
        s.header.latent_dim = 0;
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("latent_dim"))
        ));

        let mut s = base.clone();
        s.header.quant_bins = 3;
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("quant_bins"))
        ));

        let mut s = base.clone();
        s.header.latent_eb_fraction = f64::NAN;
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("latent_eb_fraction"))
        ));
        s.header.latent_eb_fraction = -0.1;
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());

        let mut s = base.clone();
        s.header.rel_eb = f64::NAN;
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());
        s.header.rel_eb = -1.0;
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());

        let mut s = base.clone();
        s.header.data_min = f32::INFINITY;
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());
        s.header.data_min = 5.0;
        s.header.data_max = -5.0;
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());

        let mut s = base.clone();
        s.header.dims = Dims::d2(0, 8);
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("zero extent"))
        ));
    }

    #[test]
    fn oversized_block_volume_is_rejected() {
        // A 1×1 field with a 2³⁰ block edge has a block grid of exactly one
        // block, so it passes the count check — but reconstructing it would
        // allocate a (2³⁰)² padded buffer. The volume cap must reject it.
        let s = Stream {
            header: Header {
                model_id: None,
                dims: Dims::d2(1, 1),
                data_min: 0.0,
                data_max: 1.0,
                rel_eb: 1e-3,
                block_size: 1 << 30,
                latent_dim: 1,
                quant_bins: 65_536,
                latent_eb_fraction: 0.1,
                policy: PredictorPolicy::Adaptive,
            },
            predictors: vec![BlockPredictor::Lorenzo],
            latent_section: vec![],
            means_section: vec![],
            codes_section: vec![],
            unpredictable_section: vec![],
        };
        assert_eq!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::InvalidHeader("block volume"))
        );
    }

    #[test]
    fn block_count_must_match_the_grid() {
        let mut s = sample_stream();
        s.predictors.pop();
        assert!(matches!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::Inconsistent(_))
        ));
        let mut s = sample_stream();
        s.predictors.push(BlockPredictor::Lorenzo);
        assert!(Stream::from_bytes(&s.to_bytes()).is_err());
    }

    #[test]
    fn lorenzo_only_streams_may_not_contain_ae_blocks() {
        let mut s = sample_stream();
        s.header.policy = PredictorPolicy::LorenzoOnly;
        assert_eq!(
            Stream::from_bytes(&s.to_bytes()),
            Err(DecompressError::Inconsistent(
                "AE-predicted block in a LorenzoOnly stream"
            ))
        );
    }

    #[test]
    fn oversized_dims_and_section_lengths_are_rejected() {
        // Dims whose product overflows / exceeds the cap.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(MAGIC);
        hostile.extend_from_slice(&[0u8; MODEL_ID_LEN]); // v3 model id slot
        hostile.push(3);
        for _ in 0..3 {
            aesz_codec::varint::write_uvarint(&mut hostile, (MAX_FIELD_ELEMS as u64) - 1);
        }
        hostile.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            Stream::from_bytes(&hostile),
            Err(DecompressError::InvalidHeader("field too large"))
        ));

        // A section length prefix far beyond the remaining input.
        let s = sample_stream();
        let good = s.to_bytes();
        let latent_len_at = good.len()
            - s.unpredictable_section.len()
            - 1
            - s.codes_section.len()
            - 1
            - s.means_section.len()
            - 1
            - s.latent_section.len()
            - 1;
        let mut bytes = good[..latent_len_at].to_vec();
        aesz_codec::varint::write_uvarint(&mut bytes, u64::MAX / 2);
        assert!(matches!(
            Stream::from_bytes(&bytes),
            Err(DecompressError::Truncated("latent section"))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_stream().to_bytes();
        bytes.push(0);
        assert_eq!(
            Stream::from_bytes(&bytes),
            Err(DecompressError::Inconsistent("trailing bytes"))
        );
    }
}
