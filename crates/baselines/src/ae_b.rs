//! AE-B baseline: the convolutional autoencoder of Glaws et al. ("Deep
//! learning for in situ data compression of large turbulent flow
//! simulations", reference \[40\] of the paper).
//!
//! AE-B compresses 3D blocks through a convolutional autoencoder at a *fixed*
//! 64:1 ratio and is **not error bounded** — both properties are called out in
//! the paper (Fig. 1 shows its pointwise error reaching ~20 % of the value
//! range). The compressed stream is simply the latent vectors (plus a small
//! header); reconstruction quality is whatever the network delivers.
//!
//! The payload leads with the 16-byte content-addressed [`ModelId`] of the
//! trained network (pre-model-id AE-B payloads are not decodable by this
//! version — like AE-A, such streams were never usable outside the training
//! process, so nothing compatible is lost).
//!
//! Both directions run on lanes of [`aesz_tensor::lanes`]. Decode lanes own
//! whole z-slabs and write each decoded block, denormalised, through the
//! field's one slab writer ([`aesz_tensor::engine::write_to_slab`]).

use aesz_codec::varint::{read_f32, write_f32, write_uvarint};
use aesz_metrics::container::MODEL_ID_LEN;
use aesz_metrics::{
    CodecId, CompressError, Compressor, DecompressError, EmbeddedModel, ErrorBound, ModelId,
};
use aesz_nn::models::conv_ae::{AeConfig, ConvAutoencoder};
use aesz_nn::models::zoo::AeVariant;
use aesz_nn::serialize::{load_model, model_id, save_model, ModelError};
use aesz_nn::train::{TrainConfig, Trainer};
use aesz_nn::{NnError, NnScratch};
use aesz_tensor::engine::write_to_slab;
use aesz_tensor::lanes::{self, LaneScratch, Lanes};
use aesz_tensor::{BlockSpec, Dims, Field};

use crate::common::{read_dims, read_len, write_dims};

/// Block edge length (16³ = 4096 values per block).
pub const BLOCK: usize = 16;
/// Latent length per block: 4096 / 64 = 64 → the fixed 64:1 reduction.
pub const LATENT: usize = 64;
/// Values per block.
const BLOCK_LEN: usize = BLOCK * BLOCK * BLOCK;
/// Bytes of one block's latent record: `LATENT` little-endian `f32`s.
const RECORD: usize = LATENT * 4;
/// Blocks per network call on every lane.
const BATCH: usize = 16;

/// The AE-B compressor. Must be trained (or fine-tuned) before use.
#[derive(Clone)]
pub struct AeB {
    model: ConvAutoencoder,
    trained: bool,
    /// Content-addressed id of the trained weights; `None` until trained.
    model_id: Option<ModelId>,
    /// Resident inference buffers, one slot per lane; warm after the first
    /// batch, clone cold.
    scratch: LaneScratch<AeBLane>,
}

/// One lane's buffers of the blockwise inference path.
#[derive(Default)]
struct AeBLane {
    nn: NnScratch,
    block: Vec<f32>,
    batch: Vec<f32>,
    latents: Vec<f32>,
    decoded: Vec<f32>,
}

impl Default for AeB {
    fn default() -> Self {
        Self::new(13)
    }
}

impl AeB {
    /// Fresh, untrained model with the given initialisation seed.
    pub fn new(seed: u64) -> Self {
        let model = ConvAutoencoder::new(AeConfig {
            spatial_rank: 3,
            block_size: BLOCK,
            latent_dim: LATENT,
            channels: vec![8, 8],
            variational: false,
            seed,
        });
        AeB {
            model,
            trained: false,
            model_id: None,
            scratch: LaneScratch::default(),
        }
    }

    /// Whether [`AeB::train`] has been called.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Content-addressed id of the trained weights (`None` while untrained).
    pub fn model_id(&self) -> Option<ModelId> {
        self.model_id
    }

    /// Serialize the trained model (the standard `AESZMDL1` format — AE-B's
    /// network is a [`ConvAutoencoder`] like AE-SZ's).
    pub fn to_model_bytes(&self) -> Vec<u8> {
        save_model(&self.model)
    }

    /// Rebuild a trained AE-B from bytes written by [`AeB::to_model_bytes`].
    /// The model must describe exactly AE-B's fixed geometry (rank 3, block
    /// 16, latent 64, deterministic encoder); anything else is rejected —
    /// AE-B's wire format hard-codes that reduction.
    pub fn from_model_bytes(bytes: &[u8]) -> Result<AeB, ModelError> {
        let model = load_model(bytes)?;
        let cfg = model.config();
        if cfg.spatial_rank != 3
            || cfg.block_size != BLOCK
            || cfg.latent_dim != LATENT
            || cfg.variational
        {
            return Err(ModelError::InvalidConfig(
                "model geometry does not match AE-B's fixed 16^3 -> 64 reduction",
            ));
        }
        let id = model_id(&model);
        Ok(AeB {
            model,
            trained: true,
            model_id: Some(id),
            scratch: LaneScratch::default(),
        })
    }

    /// Train (the paper fine-tunes a pre-trained network; we train from
    /// scratch for a few epochs) on blocks drawn from 3D training fields.
    pub fn train(&mut self, training_fields: &[Field], epochs: usize, seed: u64) {
        let mut blocks = Vec::new();
        for field in training_fields {
            // lint:allow(R1): training input is local, not wire bytes; a 2D field is a caller bug
            assert_eq!(field.dims().rank(), 3, "AE-B is defined for 3D data only");
            let (lo, hi) = field.min_max();
            let range = hi - lo;
            for spec in field.blocks(BLOCK) {
                let blk = field.extract_block(&spec);
                blocks.push(if range > 0.0 {
                    blk.data
                        .iter()
                        .map(|&v| 2.0 * (v - lo) / range - 1.0)
                        .collect()
                } else {
                    vec![0.0; blk.data.len()]
                });
            }
        }
        // Cap the training set so fine-tuning stays quick.
        blocks.truncate(128);
        let config = self.model.config().clone();
        let trainer_cfg = TrainConfig {
            epochs,
            batch_size: 8,
            learning_rate: 2e-3,
            variant: AeVariant::Ae,
            seed,
        };
        // Re-create the model inside a trainer (keeps the Trainer API uniform),
        // then adopt the trained weights.
        let mut trainer = Trainer::with_model(
            std::mem::replace(&mut self.model, ConvAutoencoder::new(config)),
            trainer_cfg,
        );
        trainer.train(&blocks);
        self.model = trainer.into_model();
        self.trained = true;
        self.model_id = Some(model_id(&self.model));
    }
}

impl Compressor for AeB {
    fn codec_id(&self) -> CodecId {
        CodecId::AeB
    }

    fn fork(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }

    fn embedded_model(&self) -> Option<EmbeddedModel> {
        self.trained
            .then(|| EmbeddedModel::new(CodecId::AeB, &self.to_model_bytes()))
    }

    fn embedded_model_id(&self) -> Option<ModelId> {
        self.model_id.filter(|_| self.trained)
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        _bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        let Some(model_id) = self.model_id.filter(|_| self.trained) else {
            return Err(CompressError::Untrained(
                "AeB::train must be called before compressing",
            ));
        };
        if field.dims().rank() != 3 {
            return Err(CompressError::UnsupportedField(
                "AE-B is defined for 3D data only",
            ));
        }
        let (lo, hi) = field.min_max();
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CompressError::UnsupportedField(
                "field contains non-finite values",
            ));
        }
        let range = hi - lo;
        if !range.is_finite() {
            return Err(CompressError::UnsupportedField(
                "the value range overflows f32",
            ));
        }
        let dims = field.dims();
        let n_blocks = field.block_count(BLOCK);
        let mut out = Vec::new();
        // The model id leads the payload (like AE-A) so dispatchers can
        // resolve the model without parsing the stream.
        out.extend_from_slice(model_id.as_bytes());
        write_dims(&mut out, dims);
        write_f32(&mut out, lo);
        write_f32(&mut out, hi);
        write_uvarint(&mut out, n_blocks as u64);
        // One fixed-size latent record per block; each lane encodes its
        // contiguous block range straight into its share of the records.
        let header_len = out.len();
        out.resize(header_len + n_blocks * RECORD, 0);
        let records = out.get_mut(header_len..).unwrap_or_default();
        let norm = |v: f32| {
            if range > 0.0 {
                2.0 * (v - lo) / range - 1.0
            } else {
                0.0
            }
        };
        let plan = Lanes::for_batches(n_blocks, BATCH);
        let model = &self.model;
        let work = plan
            .ranges()
            .zip(plan.split_mut(records, RECORD))
            .zip(self.scratch.lanes(plan.count()));
        lanes::run(work, |((blocks, records), sc)| -> Result<(), NnError> {
            for (first, records) in blocks
                .step_by(BATCH)
                .zip(records.chunks_mut(BATCH * RECORD))
            {
                let n = records.len() / RECORD;
                sc.batch.clear();
                for i in first..first + n {
                    field.extract_block_into(&BlockSpec::of(dims, BLOCK, i), &mut sc.block);
                    sc.batch.extend(sc.block.iter().map(|&v| norm(v)));
                }
                model.encode_blocks_into(&sc.batch, n, &mut sc.latents, &mut sc.nn)?;
                for (dst, v) in records.chunks_exact_mut(4).zip(&sc.latents) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            Ok(())
        })
        .map_err(|_| CompressError::UnsupportedField("block batch shape"))?;
        Ok(out)
    }

    fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        let stream_id =
            ModelId::from_prefix(bytes).ok_or(DecompressError::Truncated("model id"))?;
        if !self.trained || self.model_id != Some(stream_id) {
            return Err(DecompressError::MissingModel {
                codec: CodecId::AeB,
                model_id: stream_id,
            });
        }
        let mut pos = MODEL_ID_LEN;
        let dims: Dims = read_dims(bytes, &mut pos)?;
        let Dims::D3 { nz, ny, nx } = dims else {
            return Err(DecompressError::InvalidHeader("AE-B streams are 3D only"));
        };
        let lo = read_f32(bytes, &mut pos).ok_or(DecompressError::Truncated("lo"))?;
        let hi = read_f32(bytes, &mut pos).ok_or(DecompressError::Truncated("hi"))?;
        if !lo.is_finite() || !hi.is_finite() || !(hi - lo).is_finite() {
            return Err(DecompressError::InvalidHeader("data range"));
        }
        let n_blocks = read_len(bytes, &mut pos, "block count")?;
        // Validate the header against the payload before allocating anything
        // it sizes: the block grid follows from the dims arithmetically, and
        // the latent section is exactly one LATENT-vector per block, so a
        // short frame claiming a huge field is refused without touching the
        // heap.
        let slab_blocks = ny
            .div_ceil(BLOCK)
            .checked_mul(nx.div_ceil(BLOCK))
            .ok_or(DecompressError::InvalidHeader("block grid overflow"))?;
        let grid_blocks = slab_blocks
            .checked_mul(nz.div_ceil(BLOCK))
            .ok_or(DecompressError::InvalidHeader("block grid overflow"))?;
        if grid_blocks != n_blocks {
            return Err(DecompressError::Inconsistent(
                "block count does not match dims",
            ));
        }
        let latent_bytes = bytes
            .get(pos..)
            .ok_or(DecompressError::Truncated("latent payload"))?;
        let expected_latent_bytes = n_blocks
            .checked_mul(RECORD)
            .ok_or(DecompressError::InvalidHeader("latent payload overflow"))?;
        if latent_bytes.len() != expected_latent_bytes {
            return Err(if latent_bytes.len() < expected_latent_bytes {
                DecompressError::Truncated("latent payload")
            } else {
                DecompressError::Inconsistent("trailing bytes")
            });
        }
        let range = (hi - lo) as f64;
        let mut field = Field::zeros(dims);
        // Lanes own whole z-slabs: blocks are row-major over the grid, so
        // block row `r` covers field planes [16r, 16r + 16) contiguously, and
        // each lane decodes its slabs' blocks in batches straight into its
        // share of the field.
        let slab_len = BLOCK.saturating_mul(ny).saturating_mul(nx);
        let plan = Lanes::over(
            nz.div_ceil(BLOCK),
            Lanes::for_batches(n_blocks, BATCH).count(),
        );
        let model = &self.model;
        let work = plan
            .ranges()
            .zip(plan.split(latent_bytes, slab_blocks * RECORD))
            .zip(plan.split_mut(field.as_mut_slice(), slab_len))
            .zip(self.scratch.lanes(plan.count()));
        lanes::run(
            work,
            |(((slabs, latents), out), sc)| -> Result<(), DecompressError> {
                let first_block = slabs.start * slab_blocks;
                let batches = (first_block..)
                    .step_by(BATCH)
                    .zip(latents.chunks(BATCH * RECORD));
                for (first, chunk) in batches {
                    sc.latents.clear();
                    sc.latents.extend(
                        chunk
                            .chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                    );
                    let n = sc.latents.len() / LATENT;
                    model
                        .decode_latents_into(&sc.latents, n, &mut sc.decoded, &mut sc.nn)
                        .map_err(|_| DecompressError::Inconsistent("latent batch shape"))?;
                    for (i, block) in (first..).zip(sc.decoded.chunks_exact(BLOCK_LEN)) {
                        let spec = BlockSpec::of(dims, BLOCK, i);
                        let planes = block.chunks_exact(BLOCK * BLOCK).take(spec.size[0]);
                        let rows = planes.flat_map(|p| p.chunks_exact(BLOCK).take(spec.size[1]));
                        let denorm = |v: f32| ((v as f64 + 1.0) * 0.5 * range + lo as f64) as f32;
                        write_to_slab(out, slabs.start * slab_len, dims, &spec, rows, denorm)
                            .ok_or(DecompressError::Inconsistent("block outside its lane"))?;
                    }
                }
                Ok(())
            },
        )?;
        Ok(field)
    }

    fn is_error_bounded(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;

    #[test]
    fn fixed_ratio_is_about_64x() {
        let field = Application::Rtm.generate(Dims::d3(32, 32, 32), 10);
        let mut ae = AeB::new(1);
        ae.train(std::slice::from_ref(&field), 1, 2);
        let bytes = ae.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        let ratio = (field.len() * 4) as f64 / bytes.len() as f64;
        assert!(
            (50.0..70.0).contains(&ratio),
            "expected ~64:1 fixed ratio, got {ratio:.1}"
        );
    }

    #[test]
    fn not_error_bounded_but_reconstruction_is_sane() {
        let field = Application::HurricaneQvapor.generate(Dims::d3(16, 32, 32), 3);
        let mut ae = AeB::new(2);
        ae.train(std::slice::from_ref(&field), 2, 3);
        let bytes = ae.compress(&field, ErrorBound::rel(1e-4)).unwrap();
        let recon = ae.decompress(&bytes).unwrap();
        assert!(!ae.is_error_bounded());
        assert_eq!(recon.dims(), field.dims());
        // Reconstruction must stay within the (denormalised) data range envelope.
        let (lo, hi) = field.min_max();
        let slack = (hi - lo) * 0.2;
        assert!(recon
            .as_slice()
            .iter()
            .all(|&v| v >= lo - slack && v <= hi + slack));
    }

    #[test]
    #[should_panic(expected = "3D data only")]
    fn training_rejects_2d_fields() {
        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 0);
        let mut ae = AeB::new(3);
        ae.train(std::slice::from_ref(&field), 1, 1);
    }

    #[test]
    fn compress_rejects_2d_fields_and_untrained_models() {
        let field3 = Application::Rtm.generate(Dims::d3(16, 16, 16), 1);
        let mut ae = AeB::new(4);
        assert!(matches!(
            ae.compress(&field3, ErrorBound::rel(1e-3)),
            Err(CompressError::Untrained(_))
        ));
        ae.train(std::slice::from_ref(&field3), 1, 5);
        let field2 = Application::CesmCldhgh.generate(Dims::d2(32, 32), 0);
        assert!(matches!(
            ae.compress(&field2, ErrorBound::rel(1e-3)),
            Err(CompressError::UnsupportedField(_))
        ));
    }

    #[test]
    fn truncated_streams_are_rejected_not_panicking() {
        let field = Application::Rtm.generate(Dims::d3(16, 16, 16), 2);
        let mut ae = AeB::new(5);
        ae.train(std::slice::from_ref(&field), 1, 6);
        let bytes = ae.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        for len in 0..bytes.len() {
            assert!(ae.decompress(&bytes[..len]).is_err());
        }
    }

    /// Peak virtual size of this process in KiB (Linux), if readable.
    fn vm_peak_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    #[test]
    fn huge_dims_in_a_tiny_frame_are_refused_before_allocating() {
        let field = Application::Rtm.generate(Dims::d3(16, 16, 16), 4);
        let mut ae = AeB::new(9);
        ae.train(std::slice::from_ref(&field), 1, 10);
        let id = ae.model_id().expect("trained");
        // ~40 bytes claiming a 2^31-element field: the right model id, dims
        // 2048x1024x1024, a matching block count and no latents at all.
        let frame = |blocks: u64| {
            let mut payload = id.as_bytes().to_vec();
            write_dims(&mut payload, Dims::d3(2048, 1024, 1024));
            write_f32(&mut payload, 0.0);
            write_f32(&mut payload, 1.0);
            write_uvarint(&mut payload, blocks);
            payload
        };
        let before = vm_peak_kib();
        assert_eq!(
            ae.decompress_payload(&frame(128 * 64 * 64)),
            Err(DecompressError::Truncated("latent payload"))
        );
        assert_eq!(
            ae.decompress_payload(&frame(7)),
            Err(DecompressError::Inconsistent(
                "block count does not match dims"
            ))
        );
        // The 8 GiB field (and its half-million block specs) must never have
        // been requested: the process's peak address space barely moves.
        if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
            assert!(
                after < before + (1 << 20),
                "peak virtual size grew from {before} KiB to {after} KiB"
            );
        }
    }

    #[test]
    fn lanes_match_the_per_block_reference_at_every_boundary() {
        // Freshly initialised weights, loaded as a trained model: inference
        // bits are all that matter here, so training is skipped.
        let mut ae = AeB::from_model_bytes(&AeB::new(11).to_model_bytes()).expect("AE-B model");
        let model = ae.model.clone();
        let mut nn = NnScratch::new();
        let mut latents = Vec::new();
        let mut decoded = Vec::new();
        // A partial last z-slab and edge blocks on every axis; the first
        // field spans several batches (and lanes, on a multi-core machine).
        for dims in [Dims::d3(40, 56, 72), Dims::d3(17, 16, 33)] {
            let field = Application::NyxBaryonDensity.generate(dims, 12);
            let (lo, hi) = field.min_max();
            let (range, range64) = (hi - lo, (hi - lo) as f64);
            let payload = ae.compress_payload(&field, ErrorBound::rel(1e-3)).unwrap();
            let n_blocks = field.block_count(BLOCK);
            let records = &payload[payload.len() - n_blocks * RECORD..];
            let mut recon = Field::zeros(dims);
            for (spec, record) in field.blocks(BLOCK).zip(records.chunks_exact(RECORD)) {
                let block = field.extract_block(&spec).data;
                let normed: Vec<f32> = block
                    .iter()
                    .map(|&v| 2.0 * (v - lo) / range - 1.0)
                    .collect();
                model
                    .encode_blocks_into(&normed, 1, &mut latents, &mut nn)
                    .unwrap();
                let want: Vec<u8> = latents.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(record, want.as_slice(), "latents of block {}", spec.index);
                model
                    .decode_latents_into(&latents, 1, &mut decoded, &mut nn)
                    .unwrap();
                let values: Vec<f32> = decoded
                    .iter()
                    .map(|&v| ((v as f64 + 1.0) * 0.5 * range64 + lo as f64) as f32)
                    .collect();
                recon.write_block(&spec, &values);
            }
            let got = ae.decompress_payload(&payload).unwrap();
            assert_eq!(got.as_slice(), recon.as_slice(), "reconstruction of {dims}");
        }
    }

    #[test]
    fn model_bytes_roundtrip_and_streams_carry_the_id() {
        let field = Application::Rtm.generate(Dims::d3(16, 16, 16), 8);
        let mut ae = AeB::new(6);
        ae.train(std::slice::from_ref(&field), 1, 7);
        let id = ae.model_id().expect("trained");
        let bytes = ae.to_model_bytes();
        assert_eq!(ModelId::of(&bytes), id);

        let stream = ae.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        let (_, payload) = aesz_metrics::container::read_frame(&stream).unwrap();
        assert_eq!(
            aesz_metrics::container::peek_payload_model_id(CodecId::AeB, payload),
            Some(id)
        );

        let mut rebuilt = AeB::from_model_bytes(&bytes).expect("reload");
        assert_eq!(rebuilt.model_id(), Some(id));
        let a = ae.decompress(&stream).unwrap();
        let b = rebuilt.decompress(&stream).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());

        // Wrong weights → the dedicated missing-model error naming the id.
        let mut other = AeB::new(44);
        other.train(std::slice::from_ref(&field), 1, 45);
        assert_eq!(
            other.decompress(&stream),
            Err(DecompressError::MissingModel {
                codec: CodecId::AeB,
                model_id: id,
            })
        );
        assert!(matches!(
            AeB::new(1).decompress(&stream),
            Err(DecompressError::MissingModel { .. })
        ));

        // A model file with the wrong geometry is rejected up front.
        let foreign = save_model(&ConvAutoencoder::new(AeConfig {
            spatial_rank: 2,
            block_size: 16,
            latent_dim: 8,
            channels: vec![4],
            variational: false,
            seed: 0,
        }));
        assert!(matches!(
            AeB::from_model_bytes(&foreign),
            Err(ModelError::InvalidConfig(_))
        ));
    }
}
