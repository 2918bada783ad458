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
//! Both directions run on the block-row lanes of [`aesz_tensor::engine`],
//! the engine SZ2.1 shares with AE-SZ: one lane per 2^18 values, at most one
//! per core, so archive chunks and served fields run on the calling thread.
//! Each lane writes its codes straight into its slice of the field-sized
//! code buffer and one flag per block into its slice of the flag buffer; the
//! regression coefficients are the side section, concatenated with the
//! escapes in lane order. On decode each lane rebuilds its block rows
//! straight into its slab of the field, indexing the coefficients by the
//! number of regression blocks before each block. Every block's choice and
//! codes depend only on its own values, so any lane split emits the same
//! bytes and reconstruction as one lane.

use aesz_codec::varint::write_uvarint;
use aesz_codec::{compress_bytes, decompress_bytes_capped};
use aesz_metrics::{CodecId, CompressError, Compressor, DecompressError, ErrorBound};
use aesz_predictors::regression::{self, RegressionCoeffs};
use aesz_predictors::{lorenzo, QuantizedBlock, Quantizer, DEFAULT_QUANT_BINS};
use aesz_tensor::engine::{Block, BlockRows, Scratch};
use aesz_tensor::{BlockSpec, Field};

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

/// A regression fit with room for `rank` slopes (at most 3), built on the
/// calling thread.
fn fit_for(rank: usize) -> RegressionCoeffs {
    RegressionCoeffs {
        slopes: Vec::with_capacity(rank.min(3)),
        intercept: 0.0,
    }
}

impl Sz2 {
    /// [`Compressor::compress_payload`] with the block loop on at most
    /// `lanes` lanes of whole slowest-axis block rows (`None`: the engine's
    /// rule). The stream does not depend on the lane count.
    fn compress_on_lanes(
        &self,
        field: &Field,
        bound: ErrorBound,
        lanes: Option<usize>,
    ) -> Result<Vec<u8>, CompressError> {
        let (abs_eb, _, _) = resolve_bound(field, bound)?;
        let quantizer = Quantizer::new(abs_eb, DEFAULT_QUANT_BINS);
        let rank = field.dims().rank();
        let rows = BlockRows::new(field.dims(), self.block_size, lanes);
        let mut codes = vec![0u32; field.len()];
        // One flag per block; every block holds at least one value.
        let mut block_flags = vec![false; rows.blocks().min(field.len())];
        let step = |spec: &BlockSpec, sc: &mut Scratch<RegressionCoeffs>, coeffs: &mut Vec<f32>| {
            let Scratch {
                valid,
                codes,
                escapes,
                recon,
                extra: fit,
            } = sc;
            // Choose by comparing l1 losses of ideal predictions. The fit is
            // computed once into scratch and reused for compression —
            // `l1_loss` / `compress_into` would each refit identically.
            let lorenzo_loss = lorenzo::l1_loss(valid, &spec.size);
            regression::fit_into(valid, &spec.size, fit);
            let reg_loss = regression::l1_loss_with(fit, valid, &spec.size);
            let use_regression = reg_loss < lorenzo_loss && spec.valid_len() > spec.size.len() + 1;
            if use_regression {
                let (q, size) = (&quantizer, &spec.size);
                regression::compress_with_coeffs_into(fit, valid, size, q, codes, escapes, recon);
                coeffs.extend(fit.slopes.iter().chain([&fit.intercept]));
            } else {
                lorenzo::compress_into(valid, &spec.size, &quantizer, codes, escapes, recon);
            }
            use_regression
        };
        let fit = || fit_for(rank);
        let (unpredictable, coeffs) = rows
            .encode(field, rank + 1, &mut codes, &mut block_flags, fit, step)
            .ok_or(CompressError::UnsupportedField(
                "block codes overrun their block row",
            ))?;
        let coeff_bytes: Vec<u8> = coeffs.iter().flat_map(|v| v.to_le_bytes()).collect();
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

    /// [`Compressor::decompress_payload`] with the block loop on at most
    /// `lanes` lanes of whole slowest-axis block rows (`None`: the engine's
    /// rule).
    fn decompress_on_lanes(
        &self,
        bytes: &[u8],
        lanes: Option<usize>,
    ) -> Result<Field, DecompressError> {
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
        let rows = BlockRows::new(header.dims, block_size, lanes);
        if flags.len() != rows.blocks().div_ceil(8) {
            return Err(DecompressError::Inconsistent(
                "flag count does not match block grid",
            ));
        }
        let use_regression: Vec<bool> = (0..rows.blocks())
            .map(|bi| flags.get(bi / 8).is_some_and(|b| b >> (bi % 8) & 1 == 1))
            .collect();
        let n_regression = use_regression.iter().filter(|&&r| r).count();
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
        // The regression ordinal of a block indexes its coefficients.
        let step = |spec: &BlockSpec, b: Block<'_, bool>, sc: &mut Scratch<RegressionCoeffs>| {
            let (codes, escapes, size) = (b.codes, b.escapes, &spec.size);
            if b.choice {
                let at = b.ordinal * (rank + 1);
                sc.extra.copy_from_slice(coeffs.get(at..at + rank + 1)?);
                regression::decompress_into(
                    &sc.extra,
                    codes,
                    escapes,
                    size,
                    &quantizer,
                    &mut sc.valid,
                );
            } else {
                lorenzo::decompress_into(codes, escapes, size, &quantizer, &mut sc.valid);
            }
            Some(())
        };
        rows.decode(
            &use_regression,
            &all.codes,
            &all.unpredictable,
            field.as_mut_slice(),
            || fit_for(rank),
            step,
        )
        .ok_or(DecompressError::Inconsistent(
            "block sections do not match the block grid",
        ))?;
        Ok(field)
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
        self.compress_on_lanes(field, bound, None)
    }

    fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        self.decompress_on_lanes(bytes, None)
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
                    let serial = sz.compress_on_lanes(field, bound, Some(1)).unwrap();
                    let recon = sz.decompress_on_lanes(&serial, Some(1)).unwrap();
                    for lanes in 2..=4 {
                        let what = format!("{} block {block_size} {bound:?}", field.dims());
                        let bytes = sz.compress_on_lanes(field, bound, Some(lanes)).unwrap();
                        assert_eq!(bytes, serial, "{what} compressed on {lanes} lanes");
                        let field = sz.decompress_on_lanes(&serial, Some(lanes)).unwrap();
                        assert_eq!(field, recon, "{what} decoded on {lanes} lanes");
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
