//! AE-A baseline: the fully-connected autoencoder compressor of Liu et al.
//! ("High-ratio lossy compression: exploring the autoencoder to compress
//! scientific data", reference \[43\] of the paper).
//!
//! AE-A treats the field as a 1D stream, cuts it into fixed-length windows,
//! and pushes each window through a small stack of fully-connected layers
//! whose sizes shrink by 8× per layer (512× total reduction to the latent).
//! The latent values are stored in the compressed stream, and the residual
//! between the autoencoder reconstruction and the original data is compressed
//! with an SZ-style quantization stage (the ".dvalue" file of the original
//! code), which is what restores the error bound. Its weaknesses relative to
//! AE-SZ — no spatial awareness, slow dense layers, heavy residual volume —
//! are exactly what the paper's comparison shows.
//!
//! # Payload format
//!
//! The payload leads with the 16-byte content-addressed [`ModelId`] of the
//! trained network, followed by the shared baseline stream
//! ([`crate::common::assemble`]). Pre-model-id AE-A payloads (which carried
//! no version marker) are **not** decodable by this version — unlike AE-SZ,
//! whose magic distinguishes stream versions, AE-A streams were never
//! decodable outside the process that trained the exact instance, so there
//! is no compatible installed base to preserve.

use aesz_codec::varint::{read_f32, write_f32, write_uvarint};
use aesz_codec::{compress_bytes, decompress_bytes_capped};
use aesz_metrics::container::MODEL_ID_LEN;
use aesz_metrics::{
    CodecId, CompressError, Compressor, DecompressError, EmbeddedModel, ErrorBound, ModelId,
};
use aesz_nn::activation::Tanh;
use aesz_nn::dense::Dense;
use aesz_nn::layer::Layer;
use aesz_nn::loss;
use aesz_nn::optim::Adam;
use aesz_nn::sequential::Sequential;
use aesz_nn::serialize::{read_params_into, write_params, ModelError};
use aesz_nn::{NnScratch, Shape};
use aesz_predictors::{Quantizer, DEFAULT_QUANT_BINS};
use aesz_tensor::{init, Field, Tensor};

use crate::common::{assemble, parse, read_len, resolve_bound, take, BaseHeader};

/// Window length of the 1D fully-connected autoencoder.
pub const WINDOW: usize = 512;
/// Latent length per window (512× reduction, as in the original design).
pub const LATENT: usize = 1;

/// Magic bytes identifying a serialized AE-A model (the fixed dense
/// architecture needs no config fields — just the parameter stream).
const MODEL_MAGIC: &[u8; 8] = b"AEAMODL1";

/// The AE-A compressor. Must be trained ([`AeA::train`]) or rebuilt from a
/// trained model file ([`AeA::from_model_bytes`]) before use.
#[derive(Clone)]
pub struct AeA {
    encoder: Sequential,
    decoder: Sequential,
    trained: bool,
    /// Content-addressed id of the trained weights; `None` until trained.
    model_id: Option<ModelId>,
    /// Resident inference buffers; warm after the first call, clone cold.
    scratch: AeAScratch,
}

/// Per-instance buffers of the window codec's inference path: the network
/// scratch plus the flattened-window and prediction staging vectors. Clones
/// are cold so [`Compressor::fork`] stays cheap and every fork warms its own
/// buffers (the per-worker residency model of `aesz serve`).
#[derive(Default)]
struct AeAScratch {
    nn: NnScratch,
    flat: Vec<f32>,
    pred: Vec<f32>,
}

impl Clone for AeAScratch {
    fn clone(&self) -> Self {
        AeAScratch::default()
    }
}

impl Default for AeA {
    fn default() -> Self {
        Self::new(9)
    }
}

impl AeA {
    /// Fresh, untrained model with the given initialisation seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = init::rng(seed);
        // Encoder 512 → 64 → 8 → 1, decoder mirror; Tanh in between.
        let encoder = Sequential::new()
            .push(Box::new(Dense::new(WINDOW, 64, &mut rng)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(64, 8, &mut rng)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(8, LATENT, &mut rng)));
        let decoder = Sequential::new()
            .push(Box::new(Dense::new(LATENT, 8, &mut rng)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(8, 64, &mut rng)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(64, WINDOW, &mut rng)))
            .push(Box::new(Tanh::new()));
        AeA {
            encoder,
            decoder,
            trained: false,
            model_id: None,
            scratch: AeAScratch::default(),
        }
    }

    /// Whether [`AeA::train`] has been called.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Content-addressed id of the trained weights (`None` while untrained).
    pub fn model_id(&self) -> Option<ModelId> {
        self.model_id
    }

    /// Serialize the trained weights: magic + the encoder-then-decoder
    /// parameter stream ([`aesz_nn::serialize::write_params`]). This byte
    /// sequence is what the [`ModelId`] hashes.
    pub fn to_model_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MODEL_MAGIC);
        let mut params = self.encoder.params();
        params.extend(self.decoder.params());
        write_params(&mut out, &params);
        out
    }

    /// Rebuild a trained AE-A from bytes written by [`AeA::to_model_bytes`]
    /// — the decode path of the sidecar / embedded-model lifecycle. The
    /// loaded instance is trained by definition and carries the id of the
    /// given bytes.
    pub fn from_model_bytes(bytes: &[u8]) -> Result<AeA, ModelError> {
        if bytes.len() < MODEL_MAGIC.len() {
            return Err(ModelError::Truncated);
        }
        if &bytes[..MODEL_MAGIC.len()] != MODEL_MAGIC {
            return Err(ModelError::BadMagic);
        }
        let mut ae = AeA::new(0);
        let mut pos = MODEL_MAGIC.len();
        let mut params = ae.encoder.params_mut();
        params.extend(ae.decoder.params_mut());
        read_params_into(bytes, &mut pos, params)?;
        if pos != bytes.len() {
            return Err(ModelError::TrailingBytes);
        }
        ae.trained = true;
        ae.model_id = Some(ModelId::of(bytes));
        Ok(ae)
    }

    /// Cut a normalised field into fixed-length windows (zero-padded tail).
    fn windows(data: &[f32]) -> Vec<Vec<f32>> {
        data.chunks(WINDOW)
            .map(|c| {
                let mut w = c.to_vec();
                w.resize(WINDOW, 0.0);
                w
            })
            .collect()
    }

    /// Train the dense autoencoder on windows drawn from the training fields
    /// (plain MSE objective, as in the original work).
    pub fn train(&mut self, training_fields: &[Field], epochs: usize, seed: u64) {
        let mut rng = init::rng(seed);
        let mut windows: Vec<Vec<f32>> = Vec::new();
        for field in training_fields {
            let (norm, _, _) = field.normalize_pm1();
            windows.extend(Self::windows(norm.as_slice()));
        }
        assert!(!windows.is_empty(), "no training windows");
        let mut adam = Adam::new(1e-3);
        let batch = 32usize;
        for _ in 0..epochs {
            use rand::seq::SliceRandom;
            windows.shuffle(&mut rng);
            for chunk in windows.chunks(batch) {
                let flat: Vec<f32> = chunk.iter().flatten().copied().collect();
                let x = Tensor::from_vec(&[chunk.len(), WINDOW], flat).expect("shape");
                let z = self.encoder.forward(&x);
                let y = self.decoder.forward(&z);
                let (_, grad) = loss::mse(&y, &x);
                let gz = self.decoder.backward(&grad);
                let _ = self.encoder.backward(&gz);
                let mut params = self.encoder.params_mut();
                params.extend(self.decoder.params_mut());
                adam.step(&mut params);
            }
        }
        self.trained = true;
        self.model_id = Some(ModelId::of(&self.to_model_bytes()));
    }

    /// Encode a normalised field into one latent vector per window, through
    /// the allocation-free inference path: the windows are packed (with the
    /// zero-padded tail) straight into a resident flat buffer — no
    /// per-window `Vec`s, no input clone, no training caches touched.
    fn encode_latents(&mut self, norm: &[f32]) -> Vec<f32> {
        let n = norm.len().div_ceil(WINDOW);
        let sc = &mut self.scratch;
        sc.flat.clear();
        sc.flat.resize(n * WINDOW, 0.0);
        for (dst, src) in sc.flat.chunks_mut(WINDOW).zip(norm.chunks(WINDOW)) {
            dst[..src.len()].copy_from_slice(src);
        }
        let mut latents = Vec::new();
        self.encoder
            .infer_into(&sc.flat, Shape::new(&[n, WINDOW]), &mut latents, &mut sc.nn)
            .expect("windows shaped by the packing loop");
        latents
    }

    /// Decode latents back to a flat normalised signal of length `len`,
    /// through the allocation-free inference path.
    fn decode_latents(&mut self, latents: &[f32], len: usize) -> Vec<f32> {
        let n = latents.len() / LATENT;
        let sc = &mut self.scratch;
        self.decoder
            .infer_into(latents, Shape::new(&[n, LATENT]), &mut sc.pred, &mut sc.nn)
            .expect("latent count is a multiple of LATENT");
        sc.pred[..len.min(sc.pred.len())].to_vec()
    }

    /// Denormalise a prediction signal back to the data domain.
    fn denormalise(norm: &[f32], lo: f32, hi: f32) -> Vec<f32> {
        let range = (hi - lo) as f64;
        norm.iter()
            .map(|&v| ((v as f64 + 1.0) * 0.5 * range + lo as f64) as f32)
            .collect()
    }
}

impl Compressor for AeA {
    fn codec_id(&self) -> CodecId {
        CodecId::AeA
    }

    fn fork(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }

    fn embedded_model(&self) -> Option<EmbeddedModel> {
        self.trained
            .then(|| EmbeddedModel::new(CodecId::AeA, &self.to_model_bytes()))
    }

    fn embedded_model_id(&self) -> Option<ModelId> {
        self.model_id.filter(|_| self.trained)
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        let Some(model_id) = self.model_id.filter(|_| self.trained) else {
            return Err(CompressError::Untrained(
                "AeA::train must be called before compressing",
            ));
        };
        let (abs_eb, lo, hi) = resolve_bound(field, bound)?;
        let (norm, _, _) = field.normalize_pm1();
        // Latents are stored; predictions come from decoding the *stored*
        // latents so the decompressor reproduces them exactly.
        let latents = self.encode_latents(norm.as_slice());
        let pred_norm = self.decode_latents(&latents, field.len());
        let preds = Self::denormalise(&pred_norm, lo, hi);
        let quantizer = Quantizer::new(abs_eb, DEFAULT_QUANT_BINS);
        let (blk, _) = quantizer.quantize_buffer(field.as_slice(), &preds);

        let mut extra = Vec::new();
        write_f32(&mut extra, lo);
        write_f32(&mut extra, hi);
        let latent_bytes: Vec<u8> = latents.iter().flat_map(|v| v.to_le_bytes()).collect();
        let latent_payload = compress_bytes(&latent_bytes);
        write_uvarint(&mut extra, latent_payload.len() as u64);
        extra.extend_from_slice(&latent_payload);

        let body = assemble(
            BaseHeader {
                dims: field.dims(),
                abs_eb,
            },
            &blk,
            &extra,
        )?;
        // The model id leads the payload (before the shared baseline header)
        // so dispatchers can resolve the model without parsing anything.
        let mut out = Vec::with_capacity(MODEL_ID_LEN + body.len());
        out.extend_from_slice(model_id.as_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        let stream_id =
            ModelId::from_prefix(bytes).ok_or(DecompressError::Truncated("model id"))?;
        // Provenance check before anything else: an untrained instance or
        // one holding different weights cannot reconstruct this stream, and
        // the stream itself names the model that can.
        if !self.trained || self.model_id != Some(stream_id) {
            return Err(DecompressError::MissingModel {
                codec: CodecId::AeA,
                model_id: stream_id,
            });
        }
        let (header, blk, extra) = parse(&bytes[MODEL_ID_LEN..], |h| h.dims.len())?;
        let mut pos = 0usize;
        let lo = read_f32(&extra, &mut pos).ok_or(DecompressError::Truncated("data range"))?;
        let hi = read_f32(&extra, &mut pos).ok_or(DecompressError::Truncated("data range"))?;
        if !lo.is_finite() || !hi.is_finite() {
            return Err(DecompressError::InvalidHeader("data range"));
        }
        let latent_len = read_len(&extra, &mut pos, "latent length")?;
        let latent_section = take(&extra, &mut pos, latent_len, "latent section")?;
        if pos != extra.len() {
            return Err(DecompressError::Inconsistent("trailing extra bytes"));
        }
        let n = header.dims.len();
        // One LATENT-sized vector per 512-value window, exactly.
        let expected_latent_bytes = n.div_ceil(WINDOW) * LATENT * 4;
        let latent_bytes = decompress_bytes_capped(latent_section, expected_latent_bytes)?;
        if latent_bytes.len() != expected_latent_bytes {
            return Err(DecompressError::Inconsistent(
                "latent count does not match window count",
            ));
        }
        let latents: Vec<f32> = latent_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let pred_norm = self.decode_latents(&latents, n);
        let preds = Self::denormalise(&pred_norm, lo, hi);
        let quantizer = Quantizer::new(header.abs_eb, DEFAULT_QUANT_BINS);
        let data = quantizer.dequantize_buffer(&blk, &preds);
        Field::from_vec(header.dims, data)
            .map_err(|_| DecompressError::Inconsistent("payload does not match dims"))
    }

    fn is_error_bounded(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;
    use aesz_metrics::verify_error_bound;
    use aesz_tensor::Dims;

    #[test]
    fn windows_pad_the_tail() {
        let w = AeA::windows(&vec![1.0; WINDOW + 10]);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1][10], 0.0);
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 0);
        let mut ae = AeA::new(1);
        let (norm, _, _) = field.normalize_pm1();
        let recon_err = |ae: &mut AeA| -> f64 {
            let latents = ae.encode_latents(norm.as_slice());
            ae.decode_latents(&latents, norm.len())
                .iter()
                .zip(norm.as_slice())
                .map(|(a, b)| (a - b).abs() as f64)
                .sum()
        };
        let before = recon_err(&mut ae);
        ae.train(std::slice::from_ref(&field), 3, 2);
        let after = recon_err(&mut ae);
        assert!(after < before, "training must help: {before} -> {after}");
    }

    #[test]
    fn roundtrip_respects_the_error_bound() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 51);
        let mut ae = AeA::new(3);
        ae.train(std::slice::from_ref(&field), 2, 4);
        for rel_eb in [1e-2, 1e-3] {
            let bytes = ae.compress(&field, ErrorBound::rel(rel_eb)).unwrap();
            let recon = ae.decompress(&bytes).unwrap();
            let abs = rel_eb * field.value_range() as f64;
            verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3).unwrap();
        }
    }

    #[test]
    fn latent_overhead_is_small() {
        // One latent per 512 values: the stream must be dominated by residuals,
        // not latents, and still smaller than the raw data at a coarse bound.
        let field = Application::CesmFreqsh.generate(Dims::d2(64, 64), 1);
        let mut ae = AeA::new(6);
        ae.train(std::slice::from_ref(&field), 2, 7);
        let bytes = ae.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        assert!(bytes.len() < field.len() * 4);
    }

    #[test]
    fn untrained_model_refuses_to_compress() {
        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 0);
        let mut ae = AeA::new(5);
        assert!(matches!(
            ae.compress(&field, ErrorBound::rel(1e-2)),
            Err(CompressError::Untrained(_))
        ));
        assert!(matches!(
            ae.decompress(b"not a stream"),
            Err(DecompressError::BadMagic)
        ));
    }

    #[test]
    fn model_bytes_roundtrip_and_streams_carry_the_id() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 12);
        let mut ae = AeA::new(4);
        assert_eq!(ae.model_id(), None);
        ae.train(std::slice::from_ref(&field), 1, 5);
        let id = ae.model_id().expect("trained");
        let bytes = ae.to_model_bytes();
        assert_eq!(ModelId::of(&bytes), id);

        // A fresh instance rebuilt from the bytes decodes the stream the
        // trainer's instance wrote, bit-identically.
        let stream = ae.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        let mut rebuilt = AeA::from_model_bytes(&bytes).expect("reload");
        assert_eq!(rebuilt.model_id(), Some(id));
        assert_eq!(rebuilt.to_model_bytes(), bytes, "canonical serialization");
        let a = ae.decompress(&stream).unwrap();
        let b = rebuilt.decompress(&stream).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());

        // The payload leads with the id; a differently trained instance
        // refuses with the dedicated missing-model error naming it.
        let (_, payload) = aesz_metrics::container::read_frame(&stream).unwrap();
        assert_eq!(
            aesz_metrics::container::peek_payload_model_id(CodecId::AeA, payload),
            Some(id)
        );
        let mut other = AeA::new(99);
        other.train(std::slice::from_ref(&field), 1, 100);
        assert_eq!(
            other.decompress(&stream),
            Err(DecompressError::MissingModel {
                codec: CodecId::AeA,
                model_id: id,
            })
        );
        // An untrained instance reports the same missing model.
        assert!(matches!(
            AeA::new(1).decompress(&stream),
            Err(DecompressError::MissingModel { .. })
        ));

        // Corrupt model files are rejected, never panicking.
        assert!(matches!(
            AeA::from_model_bytes(b"AEAMODL1"),
            Err(ModelError::Truncated)
        ));
        assert!(matches!(
            AeA::from_model_bytes(b"XXXXXXXXrest"),
            Err(ModelError::BadMagic)
        ));
        for len in 0..bytes.len().min(64) {
            assert!(AeA::from_model_bytes(&bytes[..len]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            AeA::from_model_bytes(&padded),
            Err(ModelError::TrailingBytes)
        ));
    }

    #[test]
    fn truncated_streams_are_rejected_not_panicking() {
        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 9);
        let mut ae = AeA::new(7);
        ae.train(std::slice::from_ref(&field), 1, 8);
        let bytes = ae.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        for len in 0..bytes.len() {
            assert!(ae.decompress(&bytes[..len]).is_err());
        }
    }
}
