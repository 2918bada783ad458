//! SZ2.1-like baseline: blockwise selection between first-order Lorenzo and
//! linear regression, followed by SZ quantization and Huffman + zlite.
//!
//! This mirrors the structure of Liang et al.'s SZ2.1 (the paper's main
//! traditional comparison point): the field is split into small blocks
//! (6×6 / 6×6×6 in the original; 8 here for alignment with the rest of the
//! workspace), a regression plane is fitted per block, and whichever of
//! {Lorenzo, regression} predicts the sampled block better is used. The
//! regression coefficients are stored (lossily quantized to f32) per
//! regression block, exactly the overhead the AE latents replace in AE-SZ.
//!
//! Compression runs the select–quantize block loop on *block-row lanes*
//! ([`aesz_nn::lanes`]): one lane per 2^18 values, at most one per core.
//! Blocks are row-major over the block grid, so the blocks of one
//! slowest-axis block row are contiguous in block order and their codes are
//! one contiguous range of the code buffer. Each lane takes whole block rows
//! and writes its codes straight into its slice of the field-sized code
//! buffer and one flag per block into its slice of the flag buffer; its
//! regression coefficients and escaped values are concatenated in lane
//! order. Every block's choice and codes depend only on its own values, so
//! any lane split emits the same bytes as one lane. Fields under 2^18
//! values (archive chunks, served fields) run on the calling thread.
//!
//! Decompression stays serial. Huffman decoding is about 60% of it (33 of
//! 53 ms on the 8 MB Nyx field) and is serial by format, which leaves lanes
//! little to win.

use aesz_codec::varint::write_uvarint;
use aesz_codec::{compress_bytes, decompress_bytes_capped};
use aesz_metrics::{CodecId, CompressError, Compressor, DecompressError, ErrorBound};
use aesz_nn::lanes::{self, Lanes};
use aesz_predictors::regression::{self, RegressionCoeffs};
use aesz_predictors::{lorenzo, QuantizedBlock, Quantizer, DEFAULT_QUANT_BINS};
use aesz_tensor::{BlockSpec, Field};
use std::ops::Range;

use crate::common::{assemble, parse, read_len, resolve_bound, take, BaseHeader};

/// SZ2.1-like compressor.
#[derive(Clone)]
pub struct Sz2 {
    /// Block edge length used for the regression/Lorenzo selection.
    pub block_size: usize,
}

impl Default for Sz2 {
    fn default() -> Self {
        Sz2 { block_size: 8 }
    }
}

impl Sz2 {
    /// New compressor with the default block size.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Values per compress lane: one lane per `LANE_VALUES` values, at most one
/// per core, so an 8 MB field fans out while archive chunks and served
/// fields stay on the calling thread and spawn nothing.
const LANE_VALUES: usize = 1 << 18;

/// Per-lane scratch buffers reused across every block of the lane, so the
/// per-block loop performs no heap allocation after the first block warms the
/// buffers up (see `tests/allocation_discipline.rs`).
#[derive(Default)]
struct BlockScratch {
    valid: Vec<f32>,
    codes: Vec<u32>,
    unpredictable: Vec<f32>,
    recon: Vec<f32>,
    coeffs: RegressionCoeffs,
}

/// One lane's scratch and its share of the side sections, which the caller
/// concatenates in lane order.
#[derive(Default)]
struct Lane {
    scratch: BlockScratch,
    /// Regression coefficients of the lane's regression blocks, in block
    /// order.
    coeff_bytes: Vec<u8>,
    /// Escaped values of the lane's blocks, in block order.
    unpredictable: Vec<f32>,
}

impl Lane {
    /// A lane for `blocks` blocks of `field`, its buffers reserved up front
    /// for every block it may quantize. The caller builds its lanes, so the
    /// workers allocate only for escaped values: an allocation on a worker
    /// thread lands in that thread's malloc arena, which stays resident
    /// after the thread exits.
    fn new(field: &Field, block_size: usize, blocks: usize) -> Lane {
        let rank = field.dims().rank();
        // A block holds at most `block_size^rank` values and never more than
        // the field. A regression block holds more values than coefficients,
        // so coefficients take at most 4 bytes per value of the field.
        let block_len = block_size
            .max(1)
            .saturating_pow(u32::try_from(rank).unwrap_or(u32::MAX))
            .min(field.len());
        let coeff_len = blocks.saturating_mul(4 * (rank + 1)).min(4 * field.len());
        let coeff_bytes = Vec::with_capacity(coeff_len);
        let scratch = BlockScratch {
            valid: Vec::with_capacity(block_len),
            codes: Vec::with_capacity(block_len),
            unpredictable: Vec::with_capacity(block_len),
            recon: Vec::with_capacity(block_len),
            coeffs: RegressionCoeffs {
                slopes: Vec::with_capacity(rank),
                intercept: 0.0,
            },
        };
        Lane {
            scratch,
            coeff_bytes,
            unpredictable: Vec::new(),
        }
    }

    /// Select a predictor for each block of `blocks` and quantize it,
    /// writing the blocks' codes back to back into `codes` and whether
    /// regression predicts each block into `flags`.
    fn encode(
        &mut self,
        field: &Field,
        block_size: usize,
        quantizer: &Quantizer,
        blocks: Range<usize>,
        codes: &mut [u32],
        flags: &mut [bool],
    ) -> Result<(), CompressError> {
        let scratch = &mut self.scratch;
        let mut at = 0usize;
        for (bi, flag) in blocks.zip(flags) {
            let spec = BlockSpec::of(field.dims(), block_size, bi);
            field.read_block_valid_into(&spec, &mut scratch.valid);
            let valid = &scratch.valid;
            // Choose by comparing l1 losses of ideal predictions. The fit
            // is computed once into scratch and reused for compression —
            // `l1_loss` / `compress_into` would each refit identically.
            let lorenzo_loss = lorenzo::l1_loss(valid, &spec.size);
            regression::fit_into(valid, &spec.size, &mut scratch.coeffs);
            let reg_loss = regression::l1_loss_with(&scratch.coeffs, valid, &spec.size);
            *flag = reg_loss < lorenzo_loss && spec.valid_len() > spec.size.len() + 1;
            if *flag {
                regression::compress_with_coeffs_into(
                    &scratch.coeffs,
                    valid,
                    &spec.size,
                    quantizer,
                    &mut scratch.codes,
                    &mut scratch.unpredictable,
                    &mut scratch.recon,
                );
                let coeffs = &scratch.coeffs;
                for &v in coeffs
                    .slopes
                    .iter()
                    .chain(std::iter::once(&coeffs.intercept))
                {
                    self.coeff_bytes.extend_from_slice(&v.to_le_bytes());
                }
            } else {
                lorenzo::compress_into(
                    valid,
                    &spec.size,
                    quantizer,
                    &mut scratch.codes,
                    &mut scratch.unpredictable,
                    &mut scratch.recon,
                );
            }
            // The lane's blocks are whole block rows, whose codes fill the
            // lane's slice of the code buffer exactly.
            let end = at + scratch.codes.len();
            codes
                .get_mut(at..end)
                .ok_or(CompressError::UnsupportedField(
                    "block codes overrun their block row",
                ))?
                .copy_from_slice(&scratch.codes);
            at = end;
            self.unpredictable.extend_from_slice(&scratch.unpredictable);
        }
        Ok(())
    }
}

impl Sz2 {
    /// [`Compressor::compress_payload`] with the block loop on at most
    /// `lanes` lanes of whole slowest-axis block rows. The stream does not
    /// depend on the lane count.
    fn compress_on_lanes(
        &self,
        field: &Field,
        bound: ErrorBound,
        lanes: usize,
    ) -> Result<Vec<u8>, CompressError> {
        let (abs_eb, _, _) = resolve_bound(field, bound)?;
        let quantizer = Quantizer::new(abs_eb, DEFAULT_QUANT_BINS);

        // Blocks are row-major over the block grid, so the blocks of one
        // slowest-axis block row are contiguous in block order and their
        // codes are one contiguous range of the code buffer: `row_values`
        // codes for every full row, fewer for a partial last row.
        let grid = field.dims().block_grid(self.block_size);
        let block_rows = grid.first().copied().unwrap_or(0);
        let row_blocks: usize = grid.iter().skip(1).product();
        let row_values: usize =
            self.block_size.max(1) * field.dims().extents().iter().skip(1).product::<usize>();
        let plan = Lanes::over(block_rows, lanes);

        let mut codes = vec![0u32; field.len()];
        // One flag per block; every block holds at least one value.
        let mut block_flags = vec![false; field.block_count(self.block_size).min(field.len())];
        let mut lane_outs: Vec<Lane> = plan
            .ranges()
            .map(|rows| Lane::new(field, self.block_size, rows.len() * row_blocks))
            .collect();
        let work = plan
            .ranges()
            .zip(plan.split_mut(&mut codes, row_values))
            .zip(plan.split_mut(&mut block_flags, row_blocks))
            .zip(lane_outs.iter_mut());
        lanes::run(work, |(((rows, codes), flags), lane)| {
            let blocks = rows.start * row_blocks..rows.end * row_blocks;
            lane.encode(field, self.block_size, &quantizer, blocks, codes, flags)
        })?;

        let mut lane_outs = lane_outs.into_iter();
        let first = lane_outs.next().unwrap_or_default();
        let (mut unpredictable, mut coeff_bytes) = (first.unpredictable, first.coeff_bytes);
        for lane in lane_outs {
            unpredictable.extend_from_slice(&lane.unpredictable);
            coeff_bytes.extend_from_slice(&lane.coeff_bytes);
        }
        // Extra section: per-block flag (1 bit per block, packed) + coefficients.
        let flags: Vec<u8> = block_flags
            .chunks(8)
            .map(|byte| {
                byte.iter()
                    .enumerate()
                    .fold(0, |b, (i, &r)| b | u8::from(r) << i)
            })
            .collect();

        let mut extra = Vec::new();
        write_uvarint(&mut extra, self.block_size as u64);
        write_uvarint(&mut extra, flags.len() as u64);
        extra.extend_from_slice(&flags);
        let coeff_payload = compress_bytes(&coeff_bytes);
        write_uvarint(&mut extra, coeff_payload.len() as u64);
        extra.extend_from_slice(&coeff_payload);

        assemble(
            BaseHeader {
                dims: field.dims(),
                abs_eb,
            },
            &QuantizedBlock {
                codes,
                unpredictable,
            },
            &extra,
        )
    }
}

impl Compressor for Sz2 {
    fn codec_id(&self) -> CodecId {
        CodecId::Sz2
    }

    fn fork(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        let lanes = Lanes::for_batches(field.len(), LANE_VALUES).count();
        self.compress_on_lanes(field, bound, lanes)
    }

    fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        // The blocks of any block size partition the field, so the code
        // count always equals the element count.
        let (header, all, extra) = parse(bytes, |h| h.dims.len())?;
        let mut pos = 0usize;
        let block_size = read_len(&extra, &mut pos, "block size")?;
        // Reconstruction allocates padded block_size^rank buffers; cap that
        // volume like the field itself so a tiny hostile stream cannot abort
        // on allocation.
        if block_size == 0
            || (block_size as u64)
                .checked_pow(u32::try_from(header.dims.rank()).unwrap_or(u32::MAX))
                .is_none_or(|v| v > crate::common::MAX_FIELD_ELEMS as u64)
        {
            return Err(DecompressError::InvalidHeader("block size"));
        }
        let flags_len = read_len(&extra, &mut pos, "flag length")?;
        let flags = take(&extra, &mut pos, flags_len, "flag section")?;
        let coeff_len = read_len(&extra, &mut pos, "coeff length")?;
        let coeff_section = take(&extra, &mut pos, coeff_len, "coeff section")?;
        if pos != extra.len() {
            return Err(DecompressError::Inconsistent("trailing extra bytes"));
        }

        let mut field = Field::zeros(header.dims);
        let rank = header.dims.rank();
        let specs: Vec<BlockSpec> = field.blocks(block_size).collect();
        if flags.len() != specs.len().div_ceil(8) {
            return Err(DecompressError::Inconsistent(
                "flag count does not match block grid",
            ));
        }
        let n_regression: usize = (0..specs.len())
            .filter(|bi| flags.get(bi / 8).is_some_and(|b| b >> (bi % 8) & 1 == 1))
            .count();
        let expected_coeffs = n_regression * (rank + 1) * 4;
        let coeff_bytes = decompress_bytes_capped(coeff_section, expected_coeffs)?;
        if coeff_bytes.len() != expected_coeffs {
            return Err(DecompressError::Inconsistent(
                "coefficient count does not match regression blocks",
            ));
        }
        let coeffs: Vec<f32> = coeff_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();

        let quantizer = Quantizer::new(header.abs_eb, DEFAULT_QUANT_BINS);
        let mut code_pos = 0usize;
        let mut unpred_pos = 0usize;
        let mut coeff_pos = 0usize;
        let mut valid: Vec<f32> = Vec::new();
        let mut block_coeffs = RegressionCoeffs::default();
        for (bi, spec) in specs.iter().enumerate() {
            let n = spec.valid_len();
            let codes = all
                .codes
                .get(code_pos..code_pos + n)
                .ok_or(DecompressError::Inconsistent("codes underrun"))?;
            code_pos += n;
            let escapes = codes.iter().filter(|&&c| c == 0).count();
            let unpredictable = all
                .unpredictable
                .get(unpred_pos..unpred_pos + escapes)
                .ok_or(DecompressError::Inconsistent("unpredictable underrun"))?;
            unpred_pos += escapes;
            let use_regression = flags.get(bi / 8).is_some_and(|b| b >> (bi % 8) & 1 == 1);
            if use_regression {
                // Sized exactly by the `expected_coeffs` check above, but read
                // through `get` so the invariant is local, not load-bearing.
                let section = coeffs
                    .get(coeff_pos..coeff_pos + rank + 1)
                    .ok_or(DecompressError::Inconsistent("coefficient underrun"))?;
                block_coeffs.copy_from_slice(section);
                coeff_pos += rank + 1;
                regression::decompress_into(
                    &block_coeffs,
                    codes,
                    unpredictable,
                    &spec.size,
                    &quantizer,
                    &mut valid,
                );
            } else {
                lorenzo::decompress_into(codes, unpredictable, &spec.size, &quantizer, &mut valid);
            }
            // Write back the valid region directly; blocks partition the
            // field, so no padded staging buffer is needed.
            field.write_block_valid(spec, &valid);
        }
        Ok(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;
    use aesz_metrics::verify_error_bound;
    use aesz_tensor::Dims;

    #[test]
    fn roundtrip_respects_bound_2d_and_3d() {
        for (app, dims) in [
            (Application::CesmCldhgh, Dims::d2(64, 80)),
            (Application::NyxBaryonDensity, Dims::d3(24, 24, 24)),
        ] {
            let field = app.generate(dims, 50);
            let mut sz = Sz2::new();
            for rel_eb in [1e-2, 1e-3, 1e-4] {
                let bytes = sz.compress(&field, ErrorBound::rel(rel_eb)).unwrap();
                let recon = sz.decompress(&bytes).unwrap();
                let abs = rel_eb * field.value_range() as f64;
                verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3)
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
                assert!(bytes.len() < field.len() * 4);
            }
        }
    }

    #[test]
    fn smooth_data_compresses_much_better_than_raw() {
        let field = Application::CesmCldhgh.generate(Dims::d2(128, 128), 10);
        let mut sz = Sz2::new();
        let bytes = sz.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        assert!(
            bytes.len() * 8 < field.len() * 4,
            "expected >8x compression, got {} bytes for {} values",
            bytes.len(),
            field.len()
        );
    }

    #[test]
    fn regression_blocks_are_used_on_planar_data() {
        // A smooth gradient field strongly favours the regression predictor.
        let field = Field::from_fn(Dims::d2(64, 64), |c| {
            0.31 * c[0] as f32 + 0.17 * c[1] as f32
        });
        let mut sz = Sz2::new();
        let bytes = sz.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        let recon = sz.decompress(&bytes).unwrap();
        let abs = 1e-3 * field.value_range() as f64;
        verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3).unwrap();
    }

    #[test]
    fn finer_bound_costs_more() {
        let field = Application::HurricaneU.generate(Dims::d3(16, 32, 32), 5);
        let mut sz = Sz2::new();
        assert!(
            sz.compress(&field, ErrorBound::rel(1e-4)).unwrap().len()
                > sz.compress(&field, ErrorBound::rel(1e-2)).unwrap().len()
        );
    }

    #[test]
    fn absolute_bounds_are_honoured() {
        let field = Application::CesmFreqsh.generate(Dims::d2(48, 48), 3);
        let abs = 0.5e-2 * field.value_range() as f64;
        let mut sz = Sz2::new();
        let bytes = sz.compress(&field, ErrorBound::abs(abs)).unwrap();
        let recon = sz.decompress(&bytes).unwrap();
        verify_error_bound(field.as_slice(), recon.as_slice(), abs, abs * 1e-3).unwrap();
    }

    #[test]
    fn lanes_match_the_serial_block_loop() {
        // Odd shapes whose last block row is partial, fields shorter than
        // one block row, and a noisy plane so regression blocks (and their
        // coefficients) land in every lane.
        let plane = Field::from_fn(Dims::d3(21, 11, 9), |c| {
            let noise = ((c[0] * 7 + c[1] * 13 + c[2] * 29) % 11) as f32 * 1e-3;
            0.3 * c[0] as f32 + 0.2 * c[1] as f32 - 0.1 * c[2] as f32 + noise
        });
        let fields = [
            Application::CesmCldhgh.generate(Dims::d2(37, 21), 7),
            Application::CesmCldhgh.generate(Dims::d2(5, 70), 7),
            Application::NyxBaryonDensity.generate(Dims::d3(27, 13, 10), 7),
            Application::NyxBaryonDensity.generate(Dims::d3(6, 9, 17), 7),
            Application::HurricaneU.generate(Dims::d3(19, 8, 5), 7),
            plane,
        ];
        let (mut escapes, mut regression_blocks) = (0, 0);
        for field in &fields {
            for block_size in [4, 8] {
                let sz = Sz2 { block_size };
                // The finest bound overflows the quantizer's bins, so
                // escaped values are concatenated across lanes too.
                for bound in [ErrorBound::rel(1e-3), ErrorBound::rel(1e-8)] {
                    let serial = sz.compress_on_lanes(field, bound, 1).unwrap();
                    for lanes in 2..=4 {
                        assert_eq!(
                            sz.compress_on_lanes(field, bound, lanes).unwrap(),
                            serial,
                            "{} block {block_size} {bound:?} on {lanes} lanes",
                            field.dims()
                        );
                    }
                    let (_, all, extra) = parse(&serial, |h| h.dims.len()).unwrap();
                    escapes += all.unpredictable.len();
                    let mut pos = 0;
                    read_len(&extra, &mut pos, "block size").unwrap();
                    let flags_len = read_len(&extra, &mut pos, "flag length").unwrap();
                    let flags = take(&extra, &mut pos, flags_len, "flags").unwrap();
                    regression_blocks += flags.iter().map(|b| b.count_ones()).sum::<u32>();
                }
            }
        }
        assert!(escapes > 0 && regression_blocks > 0);
    }

    #[test]
    fn truncated_streams_are_rejected_not_panicking() {
        let field = Application::CesmCldhgh.generate(Dims::d2(32, 32), 2);
        let mut sz = Sz2::new();
        let bytes = sz.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        for len in 0..bytes.len() {
            assert!(sz.decompress(&bytes[..len]).is_err());
        }
    }
}
