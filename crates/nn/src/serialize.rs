//! Flat binary serialization of trained autoencoders.
//!
//! The paper stores the trained network separately from the compressed data so
//! one model can serve many snapshots of the same application. This module
//! writes the [`AeConfig`] followed by every parameter tensor (encoder first,
//! then decoder, in construction order) as little-endian `f32`, and rebuilds
//! an identical model on load. Because the [`AeConfig`] pins every
//! architectural choice (rank, block, latent, channels, variational flag),
//! **every member of the autoencoder zoo round-trips through the same
//! format** — the zoo variants differ only in training objective, which is
//! not a property of the weights.
//!
//! The `AESZMDL1` layout is a **stable wire format**: golden fixtures lock it
//! byte-for-byte, and the content-addressed [`ModelId`] derived from these
//! bytes travels inside stream headers and archives, so neither the field
//! order nor the encoding may change without a new magic.
//!
//! The parameter-stream halves ([`write_params`] / [`read_params_into`]) are
//! exposed on their own so other model-bearing codecs (AE-A's dense stack in
//! `aesz_baselines`) serialize their weights the same way without sharing the
//! `AESZMDL1` header.

use crate::layer::Param;
use crate::models::conv_ae::{AeConfig, ConvAutoencoder};

pub use aesz_codec::hash::ModelId;

/// Magic bytes identifying a serialized AE-SZ model.
const MAGIC: &[u8; 8] = b"AESZMDL1";

/// Errors produced while loading a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before all fields could be read.
    Truncated,
    /// A config field holds a value no valid model file can contain (wrong
    /// rank, zero/oversized geometry, non-canonical flag). Validated before
    /// any architecture is built, so hostile headers cannot drive a panic or
    /// an attacker-sized allocation.
    InvalidConfig(&'static str),
    /// The parameter payload does not match the model the config describes.
    ParamMismatch {
        /// Number of scalars the config implies.
        expected: usize,
        /// Number of scalars present in the payload.
        got: usize,
    },
    /// Bytes follow the last parameter — the file is not a pure `AESZMDL1`
    /// stream (rejecting them keeps `ModelId` canonical: one model, one
    /// byte sequence, one id).
    TrailingBytes,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::BadMagic => write!(f, "not an AE-SZ model file"),
            ModelError::Truncated => write!(f, "model file truncated"),
            ModelError::InvalidConfig(what) => {
                write!(f, "invalid model config field: {what}")
            }
            ModelError::ParamMismatch { expected, got } => {
                write!(
                    f,
                    "parameter count mismatch: expected {expected}, got {got}"
                )
            }
            ModelError::TrailingBytes => write!(f, "trailing bytes after the model parameters"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Caps on the architecture a model file may describe, far above the paper's
/// largest configuration (block 32, channels \[32, 64, 128, 256\], latent
/// 128) but small enough that building the described model is a bounded
/// allocation even for a hostile file.
const MAX_MODEL_BLOCK: usize = 1024;
const MAX_MODEL_LATENT: usize = 65_536;
const MAX_MODEL_CONV_BLOCKS: usize = 6;
const MAX_MODEL_CHANNELS: usize = 512;
/// Cap on the flattened-feature × latent product of the junction dense
/// layers (2²⁸ scalars ≈ 1 GiB of `f32`).
const MAX_MODEL_DENSE: usize = 1 << 28;

/// Validate a deserialized config before any layer is constructed.
///
/// [`ConvAutoencoder::new`] `assert!`s on impossible configs and allocates
/// proportionally to the architecture, so this is the trust boundary between
/// file bytes and the constructor.
fn validate_config(cfg: &AeConfig) -> Result<(), ModelError> {
    if cfg.spatial_rank != 2 && cfg.spatial_rank != 3 {
        return Err(ModelError::InvalidConfig("spatial rank must be 2 or 3"));
    }
    if cfg.channels.is_empty() || cfg.channels.len() > MAX_MODEL_CONV_BLOCKS {
        return Err(ModelError::InvalidConfig("conv block count out of range"));
    }
    if cfg
        .channels
        .iter()
        .any(|&c| c == 0 || c > MAX_MODEL_CHANNELS)
    {
        return Err(ModelError::InvalidConfig("channel count out of range"));
    }
    if cfg.block_size == 0 || cfg.block_size > MAX_MODEL_BLOCK {
        return Err(ModelError::InvalidConfig("block size out of range"));
    }
    if !cfg.block_size.is_multiple_of(1 << cfg.channels.len()) {
        return Err(ModelError::InvalidConfig(
            "block size not divisible by 2^conv blocks",
        ));
    }
    if cfg.latent_dim == 0 || cfg.latent_dim > MAX_MODEL_LATENT {
        return Err(ModelError::InvalidConfig("latent dim out of range"));
    }
    if cfg
        .feature_len()
        .checked_mul(cfg.encoder_out())
        .is_none_or(|n| n > MAX_MODEL_DENSE)
    {
        return Err(ModelError::InvalidConfig("junction dense layer too large"));
    }
    Ok(())
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, ModelError> {
    let b = buf.get(*pos..*pos + 8).ok_or(ModelError::Truncated)?;
    *pos += 8;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// A config field: a wire `u64` that must fit this platform's `usize`.
fn read_field(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, ModelError> {
    usize::try_from(read_u64(buf, pos)?).map_err(|_| ModelError::InvalidConfig(what))
}

/// Scalar count of the network `cfg` describes, from the layer shapes
/// [`ConvAutoencoder::new`] builds, without building it (`None` on
/// overflow). A test pins it to [`ConvAutoencoder::num_params`].
fn config_param_count(cfg: &AeConfig) -> Option<usize> {
    let taps = 3usize.checked_pow(u32::try_from(cfg.spatial_rank).ok()?)?;
    // ConvNd and Dense: an `out × in` weight (times the kernel taps for a
    // convolution) and `out` biases; GDN: `c` betas and a `c × c` gamma.
    let conv = |i: usize, o: usize| o.checked_mul(i)?.checked_mul(taps)?.checked_add(o);
    let dense = |i: usize, o: usize| o.checked_mul(i)?.checked_add(o);
    let gdn = |c: usize| c.checked_mul(c)?.checked_add(c);
    let last = *cfg.channels.last()?;
    let (feature, latent) = (cfg.feature_len(), cfg.latent_dim);
    // The junction: encoder dense, decoder dense, and the decoder's final
    // one-channel convolution.
    let mut total = dense(feature, cfg.encoder_out())?
        .checked_add(dense(latent, feature)?)?
        .checked_add(conv(cfg.channels.first().copied()?, 1)?)?;
    // Per block: the encoder's stride-1 and stride-2 convolutions and GDN,
    // and the decoder's mirrored convolution and inverse GDN.
    let mut enc_in = 1;
    let mut dec_in = last;
    for (&c, &mirror) in cfg.channels.iter().zip(cfg.channels.iter().rev()) {
        let block = conv(enc_in, c)?
            .checked_add(conv(c, c)?)?
            .checked_add(gdn(c)?)?
            .checked_add(conv(dec_in, mirror)?)?
            .checked_add(gdn(mirror)?)?;
        total = total.checked_add(block)?;
        (enc_in, dec_in) = (c, mirror);
    }
    Some(total)
}

/// Read the scalar count opening a parameter stream, which must be
/// `expected`.
fn read_param_count(bytes: &[u8], pos: &mut usize, expected: usize) -> Result<(), ModelError> {
    let declared = read_u64(bytes, pos)?;
    if declared != expected as u64 {
        return Err(ModelError::ParamMismatch {
            expected,
            got: usize::try_from(declared).unwrap_or(usize::MAX),
        });
    }
    Ok(())
}

/// Check, before any layer is built, that the parameter stream at `pos`
/// declares exactly `expected` scalars and that exactly that many `f32`s
/// follow: the only allocation a model file can then cause is the one its
/// own bytes pay for.
fn check_param_stream(bytes: &[u8], mut pos: usize, expected: usize) -> Result<(), ModelError> {
    read_param_count(bytes, &mut pos, expected)?;
    match (bytes.len() - pos).cmp(&expected.saturating_mul(4)) {
        std::cmp::Ordering::Less => Err(ModelError::Truncated),
        std::cmp::Ordering::Greater => Err(ModelError::TrailingBytes),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

/// Total scalar count of a parameter list (what a serialized stream of those
/// parameters must carry).
pub fn param_count(params: &[&Param]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

/// Append every parameter tensor as little-endian `f32`, preceded by the
/// total scalar count as a `u64` — the weight half of every model format in
/// the workspace.
pub fn write_params(out: &mut Vec<u8>, params: &[&Param]) {
    push_u64(out, param_count(params) as u64);
    for p in params {
        for &v in p.value.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Read a parameter stream written by [`write_params`] back into `params`
/// (which must describe the identical architecture), advancing `pos` past the
/// payload. Rejects count mismatches and truncation without partial writes
/// being observable as success.
pub fn read_params_into(
    bytes: &[u8],
    pos: &mut usize,
    mut params: Vec<&mut Param>,
) -> Result<(), ModelError> {
    let expected: usize = params.iter().map(|p| p.len()).sum();
    read_param_count(bytes, pos, expected)?;
    let payload = bytes
        .get(*pos..*pos + expected * 4)
        .ok_or(ModelError::Truncated)?;
    *pos += expected * 4;
    let mut values = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    for p in params.iter_mut() {
        for v in p.value.as_mut_slice() {
            *v = values.next().ok_or(ModelError::Truncated)?;
        }
    }
    Ok(())
}

/// Serialize the model (config + all weights) to bytes.
pub fn save_model(model: &ConvAutoencoder) -> Vec<u8> {
    let cfg = model.config();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_u64(&mut out, cfg.spatial_rank as u64);
    push_u64(&mut out, cfg.block_size as u64);
    push_u64(&mut out, cfg.latent_dim as u64);
    push_u64(&mut out, cfg.variational as u64);
    push_u64(&mut out, cfg.seed);
    push_u64(&mut out, cfg.channels.len() as u64);
    for &c in &cfg.channels {
        push_u64(&mut out, c as u64);
    }
    write_params(&mut out, &model.params());
    out
}

/// Content-addressed identity of a model: the truncated SHA-256 of its
/// [`save_model`] bytes. Two models share an id exactly when their serialized
/// form is byte-identical (same architecture, same weights, same seed field),
/// which is what lets streams and archives name "the network that encoded
/// me" without shipping it.
pub fn model_id(model: &ConvAutoencoder) -> ModelId {
    ModelId::of(&save_model(model))
}

/// Rebuild a model from bytes written by [`save_model`].
///
/// The config is validated and the parameter stream's declared count and
/// length are checked against the network the config describes before a
/// single layer is built, so a few hostile header bytes cannot make the
/// loader allocate a network the file does not carry.
pub fn load_model(bytes: &[u8]) -> Result<ConvAutoencoder, ModelError> {
    if bytes.get(..8) != Some(&MAGIC[..]) {
        return Err(ModelError::BadMagic);
    }
    let mut pos = 8usize;
    let spatial_rank = read_field(bytes, &mut pos, "spatial rank must be 2 or 3")?;
    let block_size = read_field(bytes, &mut pos, "block size out of range")?;
    let latent_dim = read_field(bytes, &mut pos, "latent dim out of range")?;
    let variational = match read_u64(bytes, &mut pos)? {
        0 => false,
        1 => true,
        _ => return Err(ModelError::InvalidConfig("variational flag not 0/1")),
    };
    let seed = read_u64(bytes, &mut pos)?;
    let n_channels = read_u64(bytes, &mut pos)?;
    if n_channels > MAX_MODEL_CONV_BLOCKS as u64 {
        return Err(ModelError::InvalidConfig("conv block count out of range"));
    }
    let mut channels = Vec::with_capacity(MAX_MODEL_CONV_BLOCKS);
    for _ in 0..n_channels {
        channels.push(read_field(bytes, &mut pos, "channel count out of range")?);
    }
    let config = AeConfig {
        spatial_rank,
        block_size,
        latent_dim,
        channels,
        variational,
        seed,
    };
    validate_config(&config)?;
    let expected = config_param_count(&config)
        .ok_or(ModelError::InvalidConfig("parameter count overflows"))?;
    check_param_stream(bytes, pos, expected)?;
    let mut model = ConvAutoencoder::new(config);
    read_params_into(bytes, &mut pos, model.params_mut())?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_tensor::Tensor;

    fn tiny_model() -> ConvAutoencoder {
        ConvAutoencoder::new(AeConfig {
            spatial_rank: 2,
            block_size: 8,
            latent_dim: 4,
            channels: vec![4],
            variational: false,
            seed: 11,
        })
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let mut model = tiny_model();
        let bytes = save_model(&model);
        let mut loaded = load_model(&bytes).expect("roundtrip");
        let x =
            Tensor::from_vec(&[1, 1, 8, 8], (0..64).map(|v| v as f32 / 64.0).collect()).unwrap();
        let a = model.reconstruct(&x);
        let b = loaded.reconstruct(&x);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(loaded.config(), model.config());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let model = tiny_model();
        let mut bytes = save_model(&model);
        bytes[0] = b'X';
        assert!(matches!(load_model(&bytes), Err(ModelError::BadMagic)));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let model = tiny_model();
        let bytes = save_model(&model);
        assert!(matches!(
            load_model(&bytes[..bytes.len() - 10]),
            Err(ModelError::Truncated)
        ));
        assert!(matches!(
            load_model(&bytes[..20]),
            Err(ModelError::Truncated)
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ModelError::BadMagic.to_string().contains("AE-SZ"));
        assert!(ModelError::ParamMismatch {
            expected: 10,
            got: 5
        }
        .to_string()
        .contains("expected 10"));
        assert!(ModelError::InvalidConfig("latent dim out of range")
            .to_string()
            .contains("latent dim"));
        assert!(ModelError::TrailingBytes.to_string().contains("trailing"));
    }

    #[test]
    fn every_zoo_variant_roundtrips_with_a_stable_id() {
        use crate::models::zoo::AeVariant;
        use crate::train::{TrainConfig, Trainer};

        // All eight zoo variants share the conv trunk; the variational ones
        // double the encoder output. Train each for one tiny epoch so the
        // weights are variant-specific, then save → load → compare.
        let blocks: Vec<Vec<f32>> = (0..8)
            .map(|i| crate::train::synthetic_block(64, 8, 2, i))
            .collect();
        for variant in AeVariant::table1() {
            let cfg = AeConfig {
                spatial_rank: 2,
                block_size: 8,
                latent_dim: 4,
                channels: vec![4],
                variational: variant.is_variational(),
                seed: 21,
            };
            let mut trainer = Trainer::new(
                cfg,
                TrainConfig {
                    epochs: 1,
                    batch_size: 4,
                    learning_rate: 1e-3,
                    variant,
                    seed: 22,
                },
            );
            trainer.train(&blocks);
            let model = trainer.into_model();
            let bytes = save_model(&model);
            let mut loaded = load_model(&bytes).unwrap_or_else(|e| {
                panic!("{} failed to round-trip: {e}", variant.name());
            });
            assert_eq!(loaded.config(), model.config(), "{}", variant.name());
            assert_eq!(
                model_id(&loaded),
                model_id(&model),
                "{} id must survive the round-trip",
                variant.name()
            );
            assert_eq!(save_model(&loaded), bytes, "{}", variant.name());
            let x = Tensor::from_vec(&[1, 1, 8, 8], (0..64).map(|v| v as f32 / 64.0).collect())
                .unwrap();
            let mut model = model;
            assert_eq!(
                model.reconstruct(&x).as_slice(),
                loaded.reconstruct(&x).as_slice(),
                "{} outputs must match",
                variant.name()
            );
        }
    }

    #[test]
    fn model_id_tracks_weight_content() {
        let model = tiny_model();
        let id = model_id(&model);
        assert_eq!(id, ModelId::of(&save_model(&model)), "id = hash of bytes");
        assert_eq!(id, model_id(&tiny_model()), "same seed, same id");
        let mut other = tiny_model();
        other.params_mut()[0].value.as_mut_slice()[0] += 1.0;
        assert_ne!(model_id(&other), id, "a changed weight changes the id");
    }

    #[test]
    fn parameter_count_is_computed_without_building_the_network() {
        for spatial_rank in [2, 3] {
            for channels in [vec![4], vec![2, 3], vec![2, 3, 5]] {
                for variational in [false, true] {
                    let cfg = AeConfig {
                        spatial_rank,
                        block_size: 8,
                        latent_dim: 6,
                        channels: channels.clone(),
                        variational,
                        seed: 1,
                    };
                    let built = ConvAutoencoder::new(cfg.clone()).num_params();
                    assert_eq!(config_param_count(&cfg), Some(built), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn hostile_configs_are_rejected_before_construction() {
        let good = save_model(&tiny_model());
        // Field layout: magic(8) rank(8) block(8) latent(8) variational(8)
        // seed(8) n_channels(8) channels… — patch fields in place.
        let patch = |at: usize, v: u64| {
            let mut b = good.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        assert!(matches!(
            load_model(&patch(8, 5)),
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(16, 0)), // zero block size
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(16, 7)), // not divisible by 2^blocks
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(16, u64::MAX)), // absurd block size
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(24, 0)), // zero latent
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(24, u64::MAX)), // absurd latent
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(32, 2)), // non-canonical variational flag
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            load_model(&patch(48, u64::MAX)), // absurd conv block count
            Err(ModelError::InvalidConfig(_))
        ));
        // A wrong parameter count and trailing bytes are both rejected.
        let total_at = 48 + 8 + 8; // one channel entry in tiny_model
        let mut b = good.clone();
        let claimed = u64::from_le_bytes(b[total_at..total_at + 8].try_into().unwrap());
        b[total_at..total_at + 8].copy_from_slice(&(claimed + 1).to_le_bytes());
        assert!(matches!(
            load_model(&b),
            Err(ModelError::ParamMismatch { .. })
        ));
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(load_model(&b), Err(ModelError::TrailingBytes)));
    }
}
