//! The AE-SZ compressor / decompressor (Algorithm 1 of the paper).
//!
//! Both directions are organized as a *fallible, parallel block pipeline*:
//!
//! * **Fallible** — both directions return `Result`. Compression rejects
//!   unusable bounds and non-finite fields with a [`CompressError`];
//!   [`AeSz::try_decompress`] validates the stream header and every
//!   payload-level invariant (code counts, escape counts, latent payload
//!   size, model geometry) and returns a [`DecompressError`] on any
//!   violation. The [`Compressor`] trait impl wraps the raw AE-SZ stream in
//!   the workspace container frame; the inherent methods work on the
//!   unframed stream.
//! * **Parallel** — AE inference runs in contiguous *lanes* of blocks, at
//!   most one per core ([`aesz_tensor::lanes`]): each lane owns a resident
//!   network scratch and a disjoint range of the flat prediction and
//!   latent-index buffers, and walks it in batches of `AE_BATCH` blocks. The
//!   per-block select–quantize and reconstruct loops run on the block-row
//!   lanes of [`aesz_tensor::engine`], which AE-SZ shares with SZ2.1: each
//!   block row's codes go straight into the field-sized code buffer, its
//!   block means are the side section, and decode rebuilds each lane's rows
//!   straight into its slab of the field. A sample's inference does not
//!   depend on which blocks share its batch, and a block's choice and codes
//!   depend only on its own values, so the parallel path produces
//!   **byte-identical** streams and reports to the serial reference
//!   ([`AeSz::compress_with_report_serial`] / [`AeSz::try_decompress_serial`]),
//!   which runs the same loops on one lane.

use aesz_codec::{compress_bytes, decode_codes_capped_into, decompress_bytes_capped, encode_codes};
use aesz_metrics::{CodecId, CompressError, Compressor, EmbeddedModel, ErrorBound, ModelId};
use aesz_nn::models::conv_ae::ConvAutoencoder;
use aesz_nn::serialize::save_model;
use aesz_nn::{NnError, NnScratch};
use aesz_predictors::{lorenzo, mean, Quantizer};
use aesz_tensor::engine::{Block, BlockRows, Scratch};
use aesz_tensor::lanes::{self, LaneScratch, Lanes};
use aesz_tensor::{BlockSpec, Field};

use crate::config::{AeSzConfig, PredictorPolicy};
use crate::error::DecompressError;
use crate::latent::LatentCodec;
use crate::stream::{BlockPredictor, Header, Stream};

/// Per-compression statistics (drives Fig. 10 and the section-size analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressionReport {
    /// Total number of blocks in the field.
    pub total_blocks: usize,
    /// Blocks predicted by the autoencoder.
    pub ae_blocks: usize,
    /// Blocks predicted by classic Lorenzo.
    pub lorenzo_blocks: usize,
    /// Blocks predicted by their mean.
    pub mean_blocks: usize,
    /// Total compressed size in bytes.
    pub compressed_bytes: usize,
    /// Bytes spent on the lossily compressed latent vectors.
    pub latent_bytes: usize,
    /// Bytes spent on the entropy-coded quantization codes.
    pub codes_bytes: usize,
    /// Bytes spent on block means.
    pub means_bytes: usize,
    /// Bytes spent on escaped (unpredictable) values.
    pub unpredictable_bytes: usize,
}

impl CompressionReport {
    /// Fraction of blocks predicted by the autoencoder (the y-axis of Fig. 10).
    pub fn ae_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.ae_blocks as f64 / self.total_blocks as f64
        }
    }
}

/// The AE-SZ error-bounded lossy compressor: a pre-trained blockwise SWAE
/// predictor combined with the (mean-)Lorenzo predictor and SZ-style
/// quantization + entropy coding.
///
/// Cloning deep-copies the model, so forked instances (see
/// [`Compressor::fork`]) encode and decode independently across threads.
#[derive(Clone)]
pub struct AeSz {
    model: ConvAutoencoder,
    /// Content-addressed id of `model`, computed once at construction and
    /// stamped into every stream this instance writes (hashing the weights
    /// per compression would be wasted work).
    model_id: ModelId,
    config: AeSzConfig,
    last_report: CompressionReport,
    /// Resident inference buffers, one slot per lane; warm after the first
    /// batch, clone cold.
    scratch: LaneScratch<AeSzLane>,
    /// Resident quantization codes of the field being coded, in either
    /// direction.
    codes: CodeBuffer,
}

/// The field-sized code buffer (one `u32` per value) of compress and
/// decompress, kept across calls so a warm instance allocates only the
/// stream or field it returns. A fresh code buffer per call stacked its size
/// on the field's at the top of the heap, and whether glibc's dynamic trim
/// threshold then handed that memory back to the kernel after each call
/// (about 4k page faults per 8 MB field to map it again) depended on what
/// the process had allocated before. Clones are cold, like the lane scratch.
#[derive(Default)]
struct CodeBuffer(Vec<u32>);

impl Clone for CodeBuffer {
    fn clone(&self) -> Self {
        CodeBuffer::default()
    }
}

/// One lane's buffers of the AE inference stages: the network scratch plus
/// the block/batch/latent/decode staging vectors that `ae_predict_blocks`
/// and `ae_decode_latents` cycle through. All reach their high-water mark on
/// the lane's first batch, making AE inference allocation-free for the rest
/// of the field.
#[derive(Default)]
struct AeSzLane {
    nn: NnScratch,
    block: Vec<f32>,
    batch: Vec<f32>,
    latents: Vec<f32>,
    zd: Vec<f32>,
    decoded: Vec<f32>,
}

/// Blocks per network call on every lane.
const AE_BATCH: usize = 32;

impl AeSz {
    /// Build a compressor around a pre-trained model.
    ///
    /// # Panics
    /// Panics when the model's block size does not match the configuration.
    pub fn new(model: ConvAutoencoder, config: AeSzConfig) -> Self {
        // lint:allow(R1): documented `# Panics` contract on a constructor that
        // takes programmer-supplied configuration, not untrusted wire input
        assert_eq!(
            model.config().block_size,
            config.block_size,
            "model was trained for block size {}, config asks for {}",
            model.config().block_size,
            config.block_size
        );
        let model_id = aesz_nn::serialize::model_id(&model);
        AeSz {
            model,
            model_id,
            config,
            last_report: CompressionReport::default(),
            scratch: LaneScratch::default(),
            codes: CodeBuffer::default(),
        }
    }

    /// Build a compressor around a (typically deserialized) trained model
    /// with the default configuration for the model's rank, taking the block
    /// size from the model itself — the constructor the model store uses
    /// when all it has is a model file.
    pub fn from_model(model: ConvAutoencoder) -> Self {
        let mut config = match model.config().spatial_rank {
            3 => AeSzConfig::default_3d(),
            _ => AeSzConfig::default_2d(),
        };
        config.block_size = model.config().block_size;
        AeSz::new(model, config)
    }

    /// Content-addressed id of the model this instance encodes and decodes
    /// with (the id stamped into its streams).
    pub fn model_id(&self) -> ModelId {
        self.model_id
    }

    /// The compressor configuration.
    pub fn config(&self) -> &AeSzConfig {
        &self.config
    }

    /// Change the predictor policy (used by the Fig. 11 ablation).
    pub fn set_policy(&mut self, policy: PredictorPolicy) {
        self.config.policy = policy;
    }

    /// The underlying trained model.
    pub fn model(&self) -> &ConvAutoencoder {
        &self.model
    }

    /// Statistics of the most recent [`AeSz::compress`] call.
    pub fn last_report(&self) -> CompressionReport {
        self.last_report
    }

    /// Absolute error bound for a value-range-relative bound `rel_eb` on a
    /// field spanning `[lo, hi]`.
    ///
    /// # Degenerate-range contract
    /// For a constant (or empty) field `hi == lo`, a *relative* bound has no
    /// scale to be relative to. In that case `rel_eb` is interpreted as an
    /// **absolute** bound, floored at `1e-12` so the quantizer stays valid.
    /// Compression additionally stores constant fields through the mean
    /// predictor with the exact constant as the mean, so the reconstruction
    /// is bit-exact regardless of the bound.
    fn abs_bound(rel_eb: f64, lo: f32, hi: f32) -> f64 {
        let range = (hi - lo) as f64;
        if range > 0.0 {
            rel_eb * range
        } else {
            rel_eb.max(1e-12)
        }
    }

    /// Extract the valid-region values of a padded block buffer into a
    /// caller-owned buffer (cleared first) with row-contiguous copies.
    fn padded_to_valid_into(padded: &[f32], spec: &BlockSpec, rank: usize, out: &mut Vec<f32>) {
        let b = spec.nominal.max(1);
        out.clear();
        out.reserve(spec.valid_len());
        match rank {
            1 => {
                out.extend(padded.iter().take(spec.size[0]));
            }
            2 => {
                for row in padded.chunks(b).take(spec.size[0]) {
                    out.extend(row.iter().take(spec.size[1]));
                }
            }
            _ => {
                for plane in padded.chunks(b * b).take(spec.size[0]) {
                    for row in plane.chunks(b).take(spec.size[1]) {
                        out.extend(row.iter().take(spec.size[2]));
                    }
                }
            }
        }
    }

    /// The lanes of an AE stage over `blocks` blocks: one per core (at most
    /// one per batch) by default, or at most `lanes`.
    fn ae_lanes(blocks: usize, lanes: Option<usize>) -> Lanes {
        match lanes {
            None => Lanes::for_batches(blocks, AE_BATCH),
            Some(lanes) => Lanes::over(blocks, lanes),
        }
    }

    /// Map normalised network outputs back to the data domain.
    fn denormalise_into(dst: &mut [f32], src: &[f32], lo: f32, range: f64) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = (v + 1.0) * 0.5 * range as f32 + lo;
        }
    }

    /// Run every block through encoder → latent quantization → decoder,
    /// returning the flat denormalised predictions (`block_len` padded
    /// values per block) and the flat quantized latent indices (`latent_dim`
    /// per block), both in block order.
    fn ae_predict_blocks(
        &mut self,
        field: &Field,
        specs: &[BlockSpec],
        lo: f32,
        range: f64,
        latent_codec: &LatentCodec,
        lanes: Option<usize>,
    ) -> Result<(Vec<f32>, Vec<i64>), NnError> {
        let latent_dim = self.model.config().latent_dim.max(1);
        let block_len = self.model.config().block_len().max(1);
        let mut preds = vec![0.0f32; specs.len() * block_len];
        let mut indices = vec![0i64; specs.len() * latent_dim];
        let plan = Self::ae_lanes(specs.len(), lanes);
        let model = &self.model;
        let norm = |v: f32| 2.0 * (v - lo) / range as f32 - 1.0;
        let work = plan
            .split(specs, 1)
            .zip(plan.split_mut(&mut preds, block_len))
            .zip(plan.split_mut(&mut indices, latent_dim))
            .zip(self.scratch.lanes(plan.count()));
        lanes::run(work, |(((specs, preds), indices), sc)| {
            let batches = specs
                .chunks(AE_BATCH)
                .zip(preds.chunks_mut(AE_BATCH * block_len))
                .zip(indices.chunks_mut(AE_BATCH * latent_dim));
            for ((specs, preds), indices) in batches {
                sc.batch.clear();
                for spec in specs {
                    field.extract_block_into(spec, &mut sc.block);
                    sc.batch.extend(sc.block.iter().map(|&v| norm(v)));
                }
                model.encode_blocks_into(&sc.batch, specs.len(), &mut sc.latents, &mut sc.nn)?;
                // Quantize + dequantize the latents (the z → z_d path of Fig. 5).
                latent_codec.quantize_into(&sc.latents, indices);
                sc.zd.resize(indices.len(), 0.0);
                latent_codec.dequantize_into(indices, &mut sc.zd);
                model.decode_latents_into(&sc.zd, specs.len(), &mut sc.decoded, &mut sc.nn)?;
                Self::denormalise_into(preds, &sc.decoded, lo, range);
            }
            Ok(())
        })?;
        Ok((preds, indices))
    }

    /// Decode the flat latent indices of the AE-predicted blocks (one
    /// model-sized latent vector per block) back into flat denormalised block
    /// predictions (`block_len` padded values per block).
    fn ae_decode_latents(
        &mut self,
        latent_indices: &[i64],
        lo: f32,
        range: f64,
        latent_codec: &LatentCodec,
        lanes: Option<usize>,
    ) -> Result<Vec<f32>, DecompressError> {
        let latent_dim = self.model.config().latent_dim.max(1);
        let block_len = self.model.config().block_len().max(1);
        debug_assert_eq!(latent_indices.len() % latent_dim, 0);
        let n_ae = latent_indices.len() / latent_dim;
        let n_preds = n_ae
            .checked_mul(block_len)
            .ok_or(DecompressError::InvalidHeader("prediction buffer overflow"))?;
        let mut preds = vec![0.0f32; n_preds];
        let plan = Self::ae_lanes(n_ae, lanes);
        let model = &self.model;
        let work = plan
            .split(latent_indices, latent_dim)
            .zip(plan.split_mut(&mut preds, block_len))
            .zip(self.scratch.lanes(plan.count()));
        lanes::run(work, |((indices, preds), sc)| {
            let batches = indices
                .chunks(AE_BATCH * latent_dim)
                .zip(preds.chunks_mut(AE_BATCH * block_len));
            for (indices, preds) in batches {
                let n = indices.len() / latent_dim;
                sc.zd.resize(indices.len(), 0.0);
                latent_codec.dequantize_into(indices, &mut sc.zd);
                model.decode_latents_into(&sc.zd, n, &mut sc.decoded, &mut sc.nn)?;
                Self::denormalise_into(preds, &sc.decoded, lo, range);
            }
            Ok(())
        })
        .map_err(|_: NnError| DecompressError::Inconsistent("latent batch shape"))?;
        Ok(preds)
    }

    /// Compress a field with the parallel pipeline, returning the raw
    /// (unframed) stream bytes and the per-block report.
    ///
    /// Rejects unusable bounds and empty or non-finite fields with a
    /// [`CompressError`] instead of panicking. Pair with
    /// [`AeSz::try_decompress`]; the [`Compressor`] trait adds the workspace
    /// container frame on top of this stream.
    pub fn compress_with_report(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<(Vec<u8>, CompressionReport), CompressError> {
        self.compress_on_lanes(field, bound, None)
    }

    /// Serial reference implementation of [`AeSz::compress_with_report`];
    /// produces byte-identical streams (kept for benchmarking and as a
    /// differential-testing oracle).
    pub fn compress_with_report_serial(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<(Vec<u8>, CompressionReport), CompressError> {
        self.compress_on_lanes(field, bound, Some(1))
    }

    /// [`AeSz::compress_with_report`] with every stage on at most `lanes`
    /// lanes (`None`: each stage's own rule). The stream does not depend on
    /// the lane count.
    fn compress_on_lanes(
        &mut self,
        field: &Field,
        bound: ErrorBound,
        lanes: Option<usize>,
    ) -> Result<(Vec<u8>, CompressionReport), CompressError> {
        bound.validate()?;
        if field.is_empty() {
            return Err(CompressError::UnsupportedField("field has no elements"));
        }
        let dims = field.dims();
        let rank = dims.rank();
        let bs = self.config.block_size;
        let (lo, hi) = field.min_max();
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CompressError::UnsupportedField(
                "field contains non-finite values; the error bound is undefined",
            ));
        }
        if !(hi - lo).is_finite() {
            return Err(CompressError::UnsupportedField(
                "the value range overflows f32; the error bound is undefined",
            ));
        }
        let range = (hi - lo) as f64;
        // The (version-2) stream header stores a range-relative bound, so an
        // absolute request is converted against the data range here; on a
        // degenerate range the stored value doubles as the absolute bound
        // (the contract of `abs_bound`). Deriving `abs_eb` from the *stored*
        // `rel_eb` keeps encoder and decoder quantizers bit-identical.
        let rel_eb = bound.to_range_rel(lo, hi).value();
        if !rel_eb.is_finite() || rel_eb <= 0.0 {
            return Err(CompressError::InvalidBound(
                "bound underflows relative to the data range",
            ));
        }
        let abs_eb = Self::abs_bound(rel_eb, lo, hi);
        let quantizer = Quantizer::new(abs_eb, self.config.quant_bins);
        // Latent error bound: fraction of the *normalised-domain* bound
        // (normalised range is 2, so e_norm = 2·rel_eb).
        let latent_eb = (self.config.latent_eb_fraction * 2.0 * rel_eb).max(1e-9);
        let latent_codec = LatentCodec::new(latent_eb);
        let latent_dim = self.model.config().latent_dim;

        let specs: Vec<BlockSpec> = field.blocks(bs).collect();
        let n_blocks = specs.len();

        // --- AE path (skipped under LorenzoOnly, for degenerate ranges, and
        // for fields whose rank the model was not built for) ---
        let use_ae = self.config.policy != PredictorPolicy::LorenzoOnly
            && range > 0.0
            && rank == self.model.config().spatial_rank;
        let (ae_preds, latent_indices) = if use_ae {
            self.ae_predict_blocks(field, &specs, lo, range, &latent_codec, lanes)
                .map_err(|_| CompressError::UnsupportedField("block batch shape"))?
        } else {
            (Vec::new(), Vec::new())
        };
        // The latent codec refuses index spans past `u32` (tiny bounds on
        // large or infinite latents). The kept latents are a subset of
        // these, so when all of them fit, the AE blocks can be coded;
        // otherwise no block uses the AE.
        let (ae_preds, latent_indices) = if LatentCodec::fits(&latent_indices) {
            (ae_preds, latent_indices)
        } else {
            (Vec::new(), Vec::new())
        };
        let block_len = self.model.config().block_len().max(1);

        // --- Per-block predictor selection and quantization, on block-row
        // lanes; the block means are the side section ---
        let policy = self.config.policy;
        let step = |spec: &BlockSpec, sc: &mut Scratch<Vec<f32>>, means: &mut Vec<f32>| {
            let Scratch {
                valid,
                codes,
                escapes,
                recon,
                extra: pred_valid,
            } = sc;
            if range == 0.0 {
                // Constant field: store the exact constant as the block mean
                // so reconstruction is bit-exact (see `abs_bound`).
                mean::compress_into(valid, lo, &quantizer, codes, escapes, recon);
                means.push(lo);
                return BlockPredictor::Mean;
            }
            // AE candidate: valid-region prediction plus its L1 loss.
            let ae_loss = ae_preds
                .chunks_exact(block_len)
                .nth(spec.index)
                .map(|pred| {
                    Self::padded_to_valid_into(pred, spec, rank, pred_valid);
                    valid
                        .iter()
                        .zip(pred_valid.iter())
                        .map(|(&a, &b)| (a as f64 - b as f64).abs())
                        .sum::<f64>()
                });
            let lorenzo_loss = lorenzo::l1_loss(valid, &spec.size);
            let mean_value = mean::block_mean(valid);
            let mean_loss = mean::mean_l1_loss(valid);
            let lorenzo_or_mean = if mean_loss < lorenzo_loss {
                BlockPredictor::Mean
            } else {
                BlockPredictor::Lorenzo
            };
            let choice = match (policy, ae_loss) {
                (PredictorPolicy::AeOnly, Some(_)) => BlockPredictor::Ae,
                (PredictorPolicy::Adaptive, Some(al)) if al < lorenzo_loss.min(mean_loss) => {
                    BlockPredictor::Ae
                }
                _ => lorenzo_or_mean,
            };
            match choice {
                // `choice` is only Ae when an AE prediction exists, so
                // `pred_valid` was filled by the loss pass above.
                BlockPredictor::Ae => {
                    quantizer.quantize_buffer_into(valid, pred_valid, codes, escapes, recon)
                }
                BlockPredictor::Lorenzo => {
                    lorenzo::compress_into(valid, &spec.size, &quantizer, codes, escapes, recon)
                }
                BlockPredictor::Mean => {
                    mean::compress_into(valid, mean_value, &quantizer, codes, escapes, recon);
                    means.push(mean_value);
                }
            }
            choice
        };
        let rows = BlockRows::new(dims, bs, lanes);
        let mut predictors = vec![BlockPredictor::Lorenzo; rows.blocks().min(field.len())];
        let all_codes = &mut self.codes.0;
        all_codes.clear();
        all_codes.resize(field.len(), 0);
        let pred_valid = || Vec::with_capacity(block_len.min(field.len()));
        let (unpredictable, means) = rows
            .encode(field, 1, all_codes, &mut predictors, pred_valid, step)
            .ok_or(CompressError::UnsupportedField(
                "block codes overrun their block row",
            ))?;
        let mut report = CompressionReport {
            total_blocks: n_blocks,
            ..CompressionReport::default()
        };
        let mut kept_latent_indices: Vec<i64> = Vec::new();
        for (bi, choice) in predictors.iter().enumerate() {
            match choice {
                BlockPredictor::Ae => {
                    report.ae_blocks += 1;
                    let idx = latent_indices.chunks_exact(latent_dim.max(1)).nth(bi);
                    kept_latent_indices.extend_from_slice(idx.unwrap_or_default());
                }
                BlockPredictor::Lorenzo => report.lorenzo_blocks += 1,
                BlockPredictor::Mean => report.mean_blocks += 1,
            }
        }

        // The AE predictions (a padded copy of the field) are spent: release
        // them before the entropy coders allocate their tables.
        drop(ae_preds);
        drop(latent_indices);

        // --- Assemble the stream ---
        let latent_section = latent_codec
            .encode(&kept_latent_indices, latent_dim)
            .ok_or(CompressError::UnsupportedField(
                "latent indices span more than u32",
            ))?;
        let means_bytes: Vec<u8> = means.iter().flat_map(|v| v.to_le_bytes()).collect();
        let means_section = compress_bytes(&means_bytes);
        let codes_section = encode_codes(&self.codes.0);
        let unpred_bytes: Vec<u8> = unpredictable.iter().flat_map(|v| v.to_le_bytes()).collect();
        let unpredictable_section = compress_bytes(&unpred_bytes);

        report.latent_bytes = latent_section.len();
        report.codes_bytes = codes_section.len();
        report.means_bytes = means_section.len();
        report.unpredictable_bytes = unpredictable_section.len();

        let stream = Stream {
            header: Header {
                model_id: Some(self.model_id),
                dims,
                data_min: lo,
                data_max: hi,
                rel_eb,
                block_size: bs,
                latent_dim,
                quant_bins: self.config.quant_bins,
                latent_eb_fraction: self.config.latent_eb_fraction,
                policy: self.config.policy,
            },
            predictors,
            latent_section,
            means_section,
            codes_section,
            unpredictable_section,
        };
        let bytes = stream.to_bytes();
        report.compressed_bytes = bytes.len();
        self.last_report = report;
        Ok((bytes, report))
    }

    /// Reconstruct a field from a compressed stream, returning an error on
    /// any malformed, truncated or inconsistent input (never panicking and
    /// never allocating more than the validated header implies).
    pub fn try_decompress(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        self.decompress_on_lanes(bytes, None)
    }

    /// Serial reference implementation of [`AeSz::try_decompress`]; produces
    /// identical fields (kept for benchmarking and differential testing).
    pub fn try_decompress_serial(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        self.decompress_on_lanes(bytes, Some(1))
    }

    /// [`AeSz::try_decompress`] with every stage on at most `lanes` lanes
    /// (`None`: each stage's own rule).
    fn decompress_on_lanes(
        &mut self,
        bytes: &[u8],
        lanes: Option<usize>,
    ) -> Result<Field, DecompressError> {
        // Lend the resident code buffer to the call and take it back
        // whatever the outcome.
        let mut codes = std::mem::take(&mut self.codes);
        let field = self.decompress_with(bytes, lanes, &mut codes.0);
        self.codes = codes;
        field
    }

    /// [`AeSz::decompress_on_lanes`] with the code buffer lent out of `self`.
    fn decompress_with(
        &mut self,
        bytes: &[u8],
        lanes: Option<usize>,
        all_codes: &mut Vec<u32>,
    ) -> Result<Field, DecompressError> {
        let stream = Stream::from_bytes(bytes)?;
        let h = &stream.header;
        let dims = h.dims;
        let rank = dims.rank();
        let bs = h.block_size;
        let (lo, hi) = (h.data_min, h.data_max);
        let range = (hi - lo) as f64;
        let abs_eb = Self::abs_bound(h.rel_eb, lo, hi);
        if !abs_eb.is_finite() || abs_eb <= 0.0 {
            return Err(DecompressError::InvalidHeader("absolute error bound"));
        }
        // Quantizer and latent scale come from the (validated) stream header,
        // never from this compressor's own configuration — a decoder
        // configured differently from the encoder must still reconstruct
        // correctly.
        let quantizer = Quantizer::new(abs_eb, h.quant_bins);
        let latent_eb = (h.latent_eb_fraction * 2.0 * h.rel_eb).max(1e-9);
        if !latent_eb.is_finite() {
            return Err(DecompressError::InvalidHeader("latent error bound"));
        }
        let latent_codec = LatentCodec::new(latent_eb);

        // --- Payload-level consistency checks (counts before contents) ---
        let n_points = dims.len();
        decode_codes_capped_into(&stream.codes_section, n_points, all_codes)?;
        let all_codes: &[u32] = all_codes;
        if all_codes.len() != n_points {
            return Err(DecompressError::Inconsistent(
                "code count does not match dims",
            ));
        }
        let escapes_total = all_codes.iter().filter(|&&c| c == 0).count();
        let unpred_bytes =
            decompress_bytes_capped(&stream.unpredictable_section, escapes_total * 4)?;
        if unpred_bytes.len() != escapes_total * 4 {
            return Err(DecompressError::Inconsistent(
                "unpredictable count does not match escape codes",
            ));
        }
        let unpredictable: Vec<f32> = unpred_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let count = |want| stream.predictors.iter().filter(|&&p| p == want).count();
        let n_mean = count(BlockPredictor::Mean);
        let means_bytes = decompress_bytes_capped(&stream.means_section, n_mean * 4)?;
        if means_bytes.len() != n_mean * 4 {
            return Err(DecompressError::Inconsistent(
                "mean count does not match mean-predicted blocks",
            ));
        }
        let means: Vec<f32> = means_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();

        let n_ae = count(BlockPredictor::Ae);
        if n_ae > 0 {
            // Provenance first: a version-3 stream names the exact network
            // that encoded it, and holding a *different* model — even one
            // with coincidentally matching geometry — must fail as "missing
            // model" so a registry can resolve the right one and retry.
            // Streams with no AE-predicted blocks decode model-free.
            if let Some(stream_id) = h.model_id {
                if stream_id != self.model_id {
                    return Err(DecompressError::MissingModel {
                        model_id: stream_id,
                    });
                }
            }
            // Geometry check: the only defence version-2 streams have, and a
            // cheap invariant for version 3.
            if h.block_size != self.model.config().block_size
                || h.latent_dim != self.model.config().latent_dim
                || rank != self.model.config().spatial_rank
            {
                return Err(DecompressError::ModelMismatch {
                    stream_block_size: h.block_size,
                    stream_latent_dim: h.latent_dim,
                    model_block_size: self.model.config().block_size,
                    model_latent_dim: self.model.config().latent_dim,
                });
            }
        }
        let max_latents = n_ae
            .checked_mul(h.latent_dim)
            .ok_or(DecompressError::InvalidHeader("latent payload overflow"))?;
        let (latent_indices, lat_dim) =
            latent_codec.decode_capped(&stream.latent_section, max_latents)?;
        if n_ae > 0 && lat_dim != h.latent_dim {
            return Err(DecompressError::Inconsistent(
                "latent section dim disagrees with header",
            ));
        }
        if latent_indices.len() != n_ae * h.latent_dim {
            return Err(DecompressError::Inconsistent(
                "latent payload does not match the number of AE blocks",
            ));
        }

        // --- Lane-parallel AE decode over all AE blocks ---
        let ae_preds = if n_ae > 0 {
            self.ae_decode_latents(&latent_indices, lo, range, &latent_codec, lanes)?
        } else {
            Vec::new()
        };
        let block_len = self.model.config().block_len().max(1);

        // --- Block-row lanes rebuild their slabs of the field; the ordinal
        // of an AE or mean block indexes its prediction or mean ---
        let mut field = Field::zeros(dims);
        let rows = BlockRows::new(dims, bs, lanes);
        let pred_valid = || Vec::with_capacity(block_len.min(n_points));
        let step = |spec: &BlockSpec, b: Block<'_, BlockPredictor>, sc: &mut Scratch<Vec<f32>>| {
            let (codes, escapes, valid) = (b.codes, b.escapes, &mut sc.valid);
            match b.choice {
                BlockPredictor::Ae => {
                    let pred = ae_preds.chunks_exact(block_len).nth(b.ordinal)?;
                    Self::padded_to_valid_into(pred, spec, rank, &mut sc.extra);
                    quantizer.dequantize_buffer_into(codes, escapes, &sc.extra, valid);
                }
                BlockPredictor::Lorenzo => {
                    lorenzo::decompress_into(codes, escapes, &spec.size, &quantizer, valid);
                }
                BlockPredictor::Mean => {
                    let mean = *means.get(b.ordinal)?;
                    mean::decompress_into(codes, escapes, mean, &quantizer, valid);
                }
            }
            Some(())
        };
        let (choices, escapes) = (&stream.predictors, &unpredictable);
        rows.decode(
            choices,
            all_codes,
            escapes,
            field.as_mut_slice(),
            pred_valid,
            step,
        )
        .ok_or(DecompressError::Inconsistent(
            "block sections do not match the block grid",
        ))?;
        Ok(field)
    }
}

impl Compressor for AeSz {
    fn codec_id(&self) -> CodecId {
        CodecId::AeSz
    }

    fn fork(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }

    fn embedded_model(&self) -> Option<EmbeddedModel> {
        Some(EmbeddedModel::new(CodecId::AeSz, &save_model(&self.model)))
    }

    fn embedded_model_id(&self) -> Option<ModelId> {
        Some(self.model_id)
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_with_report(field, bound).map(|(b, _)| b)
    }

    fn decompress_payload(
        &mut self,
        payload: &[u8],
    ) -> Result<Field, aesz_metrics::DecompressError> {
        self.try_decompress(payload).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_swae_for_field, TrainingOptions};
    use aesz_datagen::Application;
    use aesz_metrics::verify_error_bound;
    use aesz_tensor::Dims;

    /// A quickly trained 2D compressor shared by the tests in this module.
    fn quick_aesz_2d(field: &Field) -> AeSz {
        let opts = TrainingOptions {
            block_size: 16,
            latent_dim: 8,
            channels: vec![4, 8],
            epochs: 3,
            max_blocks: 96,
            seed: 17,
            ..TrainingOptions::default_for_rank(2)
        };
        let model = train_swae_for_field(std::slice::from_ref(field), &opts);
        AeSz::new(
            model,
            AeSzConfig {
                block_size: 16,
                ..AeSzConfig::default_2d()
            },
        )
    }

    #[test]
    fn roundtrip_respects_error_bound_2d() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 51);
        let mut aesz = quick_aesz_2d(&field);
        for rel_eb in [1e-2, 1e-3] {
            let (bytes, _) = aesz
                .compress_with_report(&field, ErrorBound::rel(rel_eb))
                .expect("valid input");
            let recon = aesz.try_decompress(&bytes).expect("valid stream");
            let abs = rel_eb * field.value_range() as f64;
            verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3)
                .expect("error bound must hold");
            assert!(bytes.len() < field.len() * 4, "must actually compress");
        }
    }

    #[test]
    fn report_accounts_for_every_block() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 48), 52);
        let mut aesz = quick_aesz_2d(&field);
        let (_, report) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        assert_eq!(
            report.ae_blocks + report.lorenzo_blocks + report.mean_blocks,
            report.total_blocks
        );
        assert_eq!(report.total_blocks, field.block_count(16));
        assert!(report.compressed_bytes > 0);
        assert!(report.ae_fraction() >= 0.0 && report.ae_fraction() <= 1.0);
    }

    #[test]
    fn policy_ablation_changes_block_assignment() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 53);
        let mut aesz = quick_aesz_2d(&field);
        aesz.set_policy(PredictorPolicy::AeOnly);
        let (_, r_ae) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        assert_eq!(r_ae.ae_blocks, r_ae.total_blocks);
        aesz.set_policy(PredictorPolicy::LorenzoOnly);
        let (bytes, r_lor) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        assert_eq!(r_lor.ae_blocks, 0);
        // Both policies must still satisfy the error bound.
        let recon = aesz.try_decompress(&bytes).expect("valid stream");
        let abs = 1e-2 * field.value_range() as f64;
        verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3).unwrap();
    }

    #[test]
    fn constant_field_compresses_to_almost_nothing() {
        let field = Field::from_vec(Dims::d2(32, 32), vec![4.2; 1024]).unwrap();
        let mut aesz = quick_aesz_2d(&Application::CesmCldhgh.generate(Dims::d2(32, 32), 3));
        let (bytes, _) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-3))
            .expect("valid input");
        let recon = aesz.try_decompress(&bytes).expect("valid stream");
        assert_eq!(recon.as_slice(), field.as_slice());
        assert!(
            bytes.len() < 300,
            "constant field produced {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn constant_fields_reconstruct_exactly_at_any_bound() {
        // The degenerate-range contract of `abs_bound`: constant fields are
        // stored through the mean predictor and come back bit-exact, even
        // for values that are awkward in f32 and for extreme bounds.
        let mut aesz = quick_aesz_2d(&Application::CesmCldhgh.generate(Dims::d2(32, 32), 3));
        for value in [0.0f32, 4.2, -1.0e-7, 3.3333333e12] {
            for rel_eb in [1e-1, 1e-6, 1e-12] {
                let field = Field::from_vec(Dims::d2(32, 32), vec![value; 1024]).unwrap();
                let (bytes, _) = aesz
                    .compress_with_report(&field, ErrorBound::rel(rel_eb))
                    .expect("valid input");
                let recon = aesz.try_decompress(&bytes).expect("valid stream");
                assert_eq!(
                    recon.as_slice(),
                    field.as_slice(),
                    "constant {value} at eb {rel_eb} must reconstruct exactly"
                );
            }
        }
    }

    #[test]
    fn finer_bounds_cost_more_bits() {
        let field = Application::CesmFreqsh.generate(Dims::d2(64, 64), 54);
        let mut aesz = quick_aesz_2d(&field);
        let coarse = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-1))
            .expect("valid input")
            .0
            .len();
        let fine = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-4))
            .expect("valid input")
            .0
            .len();
        assert!(fine > coarse, "fine {fine} <= coarse {coarse}");
    }

    #[test]
    fn code_buffer_stays_resident_across_calls_and_clones_cold() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 80), 5);
        let mut aesz = quick_aesz_2d(&field);
        let bound = ErrorBound::rel(1e-3);
        let (bytes, _) = aesz.compress_with_report(&field, bound).unwrap();
        let recon = aesz.try_decompress(&bytes).unwrap();
        assert!(aesz.codes.0.capacity() >= field.len());
        let buffer = aesz.codes.0.as_ptr();
        // Warm calls in either direction give the same bits and reuse the
        // buffer, and a call that fails part-way keeps it.
        assert_eq!(aesz.compress_with_report(&field, bound).unwrap().0, bytes);
        assert_eq!(
            aesz.try_decompress(&bytes).unwrap().as_slice(),
            recon.as_slice()
        );
        assert!(aesz.try_decompress(&bytes[..bytes.len() - 8]).is_err());
        assert_eq!(aesz.codes.0.as_ptr(), buffer);
        assert_eq!(
            aesz.try_decompress_serial(&bytes).unwrap().as_slice(),
            recon.as_slice()
        );
        // A fork starts cold and decodes the same field.
        let mut fork = aesz.clone();
        assert_eq!(fork.codes.0.capacity(), 0);
        assert_eq!(
            fork.try_decompress(&bytes).unwrap().as_slice(),
            recon.as_slice()
        );
    }

    #[test]
    fn parallel_and_serial_paths_are_bit_identical() {
        // Both fields hold more than 2 × AE_BATCH blocks with partial edge
        // blocks, so on a multi-core machine the AE stages run several lanes
        // (under AeOnly the decoder's lanes too) against the one-lane serial
        // reference.
        let field_2d = Application::CesmCldhgh.generate(Dims::d2(150, 136), 55);
        let aesz_2d = quick_aesz_2d(&field_2d);
        let field_3d = Application::NyxBaryonDensity.generate(Dims::d3(36, 40, 44), 55);
        let opts = TrainingOptions {
            block_size: 8,
            latent_dim: 8,
            channels: vec![4, 8],
            epochs: 1,
            max_blocks: 16,
            seed: 17,
            ..TrainingOptions::default_for_rank(3)
        };
        let model = train_swae_for_field(std::slice::from_ref(&field_3d), &opts);
        let aesz_3d = AeSz::new(model, AeSzConfig::default_3d());
        for (field, mut aesz) in [(field_2d, aesz_2d), (field_3d, aesz_3d)] {
            assert!(field.block_count(aesz.config().block_size) > 2 * AE_BATCH);
            for (policy, rel_eb) in [
                (PredictorPolicy::Adaptive, 1e-2),
                (PredictorPolicy::Adaptive, 1e-3),
                (PredictorPolicy::AeOnly, 1e-3),
            ] {
                aesz.set_policy(policy);
                let (par_bytes, par_report) = aesz
                    .compress_with_report(&field, ErrorBound::rel(rel_eb))
                    .expect("valid input");
                let (ser_bytes, ser_report) = aesz
                    .compress_with_report_serial(&field, ErrorBound::rel(rel_eb))
                    .expect("valid input");
                assert_eq!(par_bytes, ser_bytes, "streams must be byte-identical");
                assert_eq!(par_report, ser_report, "reports must match");
                if policy == PredictorPolicy::AeOnly {
                    assert_eq!(par_report.ae_blocks, par_report.total_blocks);
                }
                let par_field = aesz.try_decompress(&par_bytes).unwrap();
                let ser_field = aesz.try_decompress_serial(&par_bytes).unwrap();
                assert_eq!(par_field.as_slice(), ser_field.as_slice());
            }
        }
    }

    #[test]
    fn lanes_match_one_lane() {
        // Odd shapes whose last block row is partial, fields shorter than
        // one block row, a constant field, and block-row offsets under
        // noise so mean blocks (and their side values) land in every lane.
        let noisy = |dims: Dims| {
            Field::from_fn(dims, |c| {
                let hash = c.iter().fold(17usize, |h, &x| h * 31 + x * 7);
                (c[0] / 8) as f32 * 10.0 + (hash % 13) as f32 * 0.1
            })
        };
        let field_2d = Application::CesmCldhgh.generate(Dims::d2(37, 21), 8);
        let aesz_2d = quick_aesz_2d(&field_2d);
        let field_3d = Application::NyxBaryonDensity.generate(Dims::d3(27, 13, 10), 8);
        let opts = TrainingOptions {
            block_size: 8,
            latent_dim: 8,
            channels: vec![4, 8],
            epochs: 1,
            max_blocks: 16,
            seed: 17,
            ..TrainingOptions::default_for_rank(3)
        };
        let model = train_swae_for_field(std::slice::from_ref(&field_3d), &opts);
        let aesz_3d = AeSz::new(model, AeSzConfig::default_3d());
        let cases = [
            (
                aesz_2d,
                vec![
                    Field::from_fn(Dims::d1(333), |c| ((c[0] as f32) * 0.1).sin()),
                    field_2d,
                    Application::CesmCldhgh.generate(Dims::d2(5, 70), 8),
                    Field::from_vec(Dims::d2(37, 21), vec![4.2; 37 * 21]).unwrap(),
                    noisy(Dims::d2(45, 29)),
                ],
            ),
            (
                aesz_3d,
                vec![
                    field_3d,
                    Application::NyxBaryonDensity.generate(Dims::d3(6, 9, 17), 8),
                    noisy(Dims::d3(19, 9, 11)),
                ],
            ),
        ];
        let (mut ae, mut mean, mut escapes) = (0, 0, 0);
        for (mut aesz, fields) in cases {
            for field in &fields {
                for policy in [
                    PredictorPolicy::Adaptive,
                    PredictorPolicy::AeOnly,
                    PredictorPolicy::LorenzoOnly,
                ] {
                    aesz.set_policy(policy);
                    // The finest bound overflows the quantizer's bins, so
                    // escaped values are concatenated across lanes too.
                    for bound in [ErrorBound::rel(1e-3), ErrorBound::rel(1e-8)] {
                        let what = format!("{} {policy:?} {bound}", field.dims());
                        let (bytes, report) =
                            aesz.compress_on_lanes(field, bound, Some(1)).unwrap();
                        let recon = aesz.decompress_on_lanes(&bytes, Some(1)).unwrap();
                        for lanes in 2..=4 {
                            let got = aesz.compress_on_lanes(field, bound, Some(lanes)).unwrap();
                            assert_eq!(got, (bytes.clone(), report), "{what} on {lanes} lanes");
                            let decoded = aesz.decompress_on_lanes(&bytes, Some(lanes)).unwrap();
                            assert_eq!(decoded, recon, "{what} decoded on {lanes} lanes");
                        }
                        let stream = Stream::from_bytes(&bytes).unwrap();
                        let unpred = &stream.unpredictable_section;
                        escapes += decompress_bytes_capped(unpred, field.len() * 4)
                            .unwrap()
                            .len();
                        ae += report.ae_blocks;
                        mean += report.mean_blocks;
                    }
                }
            }
        }
        assert!(ae > 0 && mean > 0 && escapes > 0);
    }

    #[test]
    fn rank1_fields_fall_back_to_lorenzo_predictors() {
        // The 2D model cannot predict 1D blocks; the pipeline must route
        // rank-1 fields through (mean-)Lorenzo under any policy.
        let field = Field::from_fn(Dims::d1(333), |c| ((c[0] as f32) * 0.1).sin());
        let mut aesz = quick_aesz_2d(&Application::CesmCldhgh.generate(Dims::d2(32, 32), 3));
        let (bytes, report) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-3))
            .expect("valid input");
        assert_eq!(report.ae_blocks, 0);
        let recon = aesz.try_decompress(&bytes).expect("valid stream");
        let abs = 1e-3 * field.value_range() as f64;
        verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3).unwrap();
    }

    #[test]
    fn decoder_with_different_config_still_reconstructs_correctly() {
        // The stream header is self-describing: quant_bins and
        // latent_eb_fraction are read from the stream, so a decoder whose own
        // configuration differs must still honour the error bound.
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 58);
        let mut aesz = quick_aesz_2d(&field);
        let (bytes, _) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-3))
            .expect("valid input");
        aesz.config.quant_bins = 1024;
        aesz.config.latent_eb_fraction = 0.5;
        let recon = aesz.try_decompress(&bytes).expect("valid stream");
        let abs = 1e-3 * field.value_range() as f64;
        verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3)
            .expect("decoder config must not affect reconstruction");
    }

    #[test]
    fn wrong_model_is_reported_as_missing_model_not_geometry() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 57);
        let mut aesz = quick_aesz_2d(&field);
        let (bytes, report) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        if report.ae_blocks == 0 {
            return; // nothing latent-coded; any model can decode it
        }
        // Streams carry the encoder's content-addressed model id…
        assert_eq!(
            aesz_metrics::container::peek_payload_model_id(CodecId::AeSz, &bytes),
            Some(aesz.model_id()),
            "streams must be stamped with the encoder's model id"
        );
        // …so a compressor around *any* other model — different latent size
        // or even identical geometry but different weights — must refuse the
        // stream with the dedicated missing-model error naming that id.
        let opts = TrainingOptions {
            block_size: 16,
            latent_dim: 4,
            channels: vec![4, 8],
            epochs: 1,
            max_blocks: 16,
            seed: 5,
            ..TrainingOptions::default_for_rank(2)
        };
        let other_model = train_swae_for_field(std::slice::from_ref(&field), &opts);
        let mut other = AeSz::new(
            other_model,
            AeSzConfig {
                block_size: 16,
                ..AeSzConfig::default_2d()
            },
        );
        assert_eq!(
            other.try_decompress(&bytes),
            Err(DecompressError::MissingModel {
                model_id: aesz.model_id()
            })
        );
        // Same geometry, different weights: still missing-model, because the
        // id — not the shape — is the identity.
        let retrained = quick_aesz_2d(&Application::CesmFreqsh.generate(Dims::d2(64, 64), 99));
        assert_ne!(retrained.model_id(), aesz.model_id());
        let mut retrained = retrained;
        assert!(matches!(
            retrained.try_decompress(&bytes),
            Err(DecompressError::MissingModel { .. })
        ));
    }

    #[test]
    fn v2_streams_without_an_id_fall_back_to_geometry_checks() {
        // Strip the id from a v3 stream by re-serializing its parsed form
        // with `model_id: None` — exactly the bytes a pre-model encoder
        // would have produced.
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 60);
        let mut aesz = quick_aesz_2d(&field);
        let (bytes, report) = aesz
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        let mut stream = crate::stream::Stream::from_bytes(&bytes).unwrap();
        stream.header.model_id = None;
        let v2_bytes = stream.to_bytes();
        // The same instance decodes the id-less stream identically.
        let a = aesz.try_decompress(&bytes).unwrap();
        let b = aesz.try_decompress(&v2_bytes).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        if report.ae_blocks == 0 {
            return;
        }
        // A geometry-incompatible model gets the classic mismatch error.
        let opts = TrainingOptions {
            block_size: 16,
            latent_dim: 4,
            channels: vec![4, 8],
            epochs: 1,
            max_blocks: 16,
            seed: 5,
            ..TrainingOptions::default_for_rank(2)
        };
        let other_model = train_swae_for_field(std::slice::from_ref(&field), &opts);
        let mut other = AeSz::new(
            other_model,
            AeSzConfig {
                block_size: 16,
                ..AeSzConfig::default_2d()
            },
        );
        assert!(matches!(
            other.try_decompress(&v2_bytes),
            Err(DecompressError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn from_model_adopts_the_models_geometry() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 61);
        let mut trained = quick_aesz_2d(&field);
        let (bytes, _) = trained
            .compress_with_report(&field, ErrorBound::rel(1e-2))
            .expect("valid input");
        let mut rebuilt = AeSz::from_model(trained.model().clone());
        assert_eq!(rebuilt.config().block_size, 16);
        assert_eq!(rebuilt.model_id(), trained.model_id());
        let a = trained.try_decompress(&bytes).unwrap();
        let b = rebuilt.try_decompress(&bytes).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
