//! ZFP-like baseline: blockwise decorrelating transform + uniform coefficient
//! quantization (the "transform-based" family of Section II).
//!
//! Real ZFP partitions the field into 4^d blocks, applies a fixed lifting
//! transform along each dimension, and encodes coefficient bit planes. This
//! reimplementation keeps the essential behaviour — block-local orthogonal-ish
//! decorrelation followed by coefficient-domain quantization and entropy
//! coding — using ZFP's own lifting kernel and a uniform quantization step
//! derived from the error bound. The characteristic consequence the paper
//! relies on (at large error bounds few coefficients survive, so quality
//! collapses earlier than prediction-based compressors) is preserved.

use aesz_metrics::{CodecId, CompressError, Compressor, DecompressError, ErrorBound};
use aesz_predictors::{QuantizedBlock, Quantizer, DEFAULT_QUANT_BINS};
use aesz_tensor::{BlockSpec, Dims, Field};

use crate::common::{assemble, parse, resolve_bound, BaseHeader};

/// Edge length of a ZFP block.
const BLOCK: usize = 4;

/// ZFP's forward lifting transform on 4 values.
fn fwd_lift(v: &mut [f32; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    x += w;
    x *= 0.5;
    w -= x;
    z += y;
    z *= 0.5;
    y -= z;
    x += z;
    x *= 0.5;
    z -= x;
    w += y;
    w *= 0.5;
    y -= w;
    w += y * 0.5;
    y -= w * 0.5;
    *v = [x, y, z, w];
}

/// Inverse of [`fwd_lift`].
fn inv_lift(v: &mut [f32; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    y += w * 0.5;
    w -= y * 0.5;
    y += w;
    w *= 2.0;
    w -= y;
    z += x;
    x *= 2.0;
    x -= z;
    y += z;
    z *= 2.0;
    z -= y;
    w += x;
    x *= 2.0;
    x -= w;
    *v = [x, y, z, w];
}

/// Apply the lifting transform along each axis of a padded 4^rank block.
fn transform_block(data: &mut [f32], rank: usize, inverse: bool) {
    let lift = if inverse { inv_lift } else { fwd_lift };
    match rank {
        1 => {
            let mut v = [data[0], data[1], data[2], data[3]];
            lift(&mut v);
            data.copy_from_slice(&v);
        }
        2 => {
            // Rows then columns (order does not matter for separable lifting).
            for y in 0..BLOCK {
                let mut v = [0.0f32; 4];
                v.copy_from_slice(&data[y * BLOCK..(y + 1) * BLOCK]);
                lift(&mut v);
                data[y * BLOCK..(y + 1) * BLOCK].copy_from_slice(&v);
            }
            for x in 0..BLOCK {
                let mut v = [
                    data[x],
                    data[BLOCK + x],
                    data[2 * BLOCK + x],
                    data[3 * BLOCK + x],
                ];
                lift(&mut v);
                for (i, &val) in v.iter().enumerate() {
                    data[i * BLOCK + x] = val;
                }
            }
        }
        _ => {
            let idx = |z: usize, y: usize, x: usize| (z * BLOCK + y) * BLOCK + x;
            for z in 0..BLOCK {
                for y in 0..BLOCK {
                    let mut v = [
                        data[idx(z, y, 0)],
                        data[idx(z, y, 1)],
                        data[idx(z, y, 2)],
                        data[idx(z, y, 3)],
                    ];
                    lift(&mut v);
                    for (x, &val) in v.iter().enumerate() {
                        data[idx(z, y, x)] = val;
                    }
                }
            }
            for z in 0..BLOCK {
                for x in 0..BLOCK {
                    let mut v = [
                        data[idx(z, 0, x)],
                        data[idx(z, 1, x)],
                        data[idx(z, 2, x)],
                        data[idx(z, 3, x)],
                    ];
                    lift(&mut v);
                    for (y, &val) in v.iter().enumerate() {
                        data[idx(z, y, x)] = val;
                    }
                }
            }
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    let mut v = [
                        data[idx(0, y, x)],
                        data[idx(1, y, x)],
                        data[idx(2, y, x)],
                        data[idx(3, y, x)],
                    ];
                    lift(&mut v);
                    for (z, &val) in v.iter().enumerate() {
                        data[idx(z, y, x)] = val;
                    }
                }
            }
        }
    }
}

/// ZFP-like transform-based compressor (fixed-accuracy mode).
#[derive(Default, Clone)]
pub struct Zfp;

impl Zfp {
    /// New instance.
    pub fn new() -> Self {
        Zfp
    }

    /// Quantization step used in the coefficient domain. The inverse lifting
    /// pass amplifies coefficient errors by up to 3.75× per dimension (the
    /// L∞ operator norm of the inverse lifting matrix — its rows are
    /// [1, ±1.5, ±1, ±0.25]), so the step is abs_eb / 3.75^rank to keep the
    /// pointwise error within the bound (more conservative than real ZFP's
    /// bit-plane coding, see DESIGN.md).
    fn coeff_step(abs_eb: f64, rank: usize) -> f64 {
        abs_eb / 3.75f64.powi(rank as i32)
    }

    /// Whether the lifting of a rank-`rank` field whose values lie within
    /// `±m`, coded at absolute bound `abs_eb`, stays finite in `f32` in both
    /// directions.
    ///
    /// Forward: the steps of [`fwd_lift`] peak at twice their largest input
    /// (`x += w`) and its outputs stay within it (each row of the forward
    /// matrix has L1 norm at most 1), so every axis pass starts within `m`
    /// and peaks at `2m`.
    ///
    /// Inverse: a coefficient `c` (`|c| ≤ m`) comes back verbatim (escaped)
    /// or within `min(step, |c|)` of itself (it rounds to zero when
    /// `|c| < step`), where `step = abs_eb / 3.75^rank`. Each inverse pass
    /// scales that error by at most 3.75 (the L∞ norm of [`inv_lift`]),
    /// while the exact part of its input stays within `m` (it is the field
    /// lifted forward along the axes not yet inverted). So every pass starts
    /// within `m + min(abs_eb / 3.75, 3.75^(rank−1)·m)`, and the steps of
    /// [`inv_lift`] peak at 4× their largest input (`x -= w`), which also
    /// covers the forward `2m`. Doubled for `f32` rounding, that peak must
    /// stay below `f32::MAX`.
    fn lifts_finitely(m: f64, abs_eb: f64, rank: usize) -> bool {
        let passes = i32::try_from(rank).unwrap_or(3) - 1;
        let error = (abs_eb / 3.75).min(3.75f64.powi(passes) * m);
        2.0 * 4.0 * (m + error) <= f64::from(f32::MAX)
    }

    /// Number of quantization codes a ZFP stream over `dims` carries: one per
    /// element of every padded 4^rank block.
    fn code_count(dims: Dims) -> usize {
        let n_blocks: usize = dims.block_grid(BLOCK).iter().product();
        n_blocks * BLOCK.pow(dims.rank() as u32)
    }
}

impl Compressor for Zfp {
    fn codec_id(&self) -> CodecId {
        CodecId::Zfp
    }

    fn fork(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        let (abs_eb, lo, hi) = resolve_bound(field, bound)?;
        let rank = field.dims().rank();
        if !Self::lifts_finitely(f64::from(lo.abs().max(hi.abs())), abs_eb, rank) {
            return Err(CompressError::UnsupportedField(
                "field magnitude overflows the f32 lifting transform",
            ));
        }
        let step = Self::coeff_step(abs_eb, rank);
        let quantizer = Quantizer::new(step, DEFAULT_QUANT_BINS);
        let specs: Vec<BlockSpec> = field.blocks(BLOCK).collect();
        let mut all = QuantizedBlock {
            codes: Vec::with_capacity(field.len()),
            unpredictable: Vec::new(),
        };
        for spec in &specs {
            let mut block = field.extract_block(spec).data;
            transform_block(&mut block, rank, false);
            // Quantize the coefficients against zero predictions.
            let preds = vec![0.0f32; block.len()];
            let (blk, _) = quantizer.quantize_buffer(&block, &preds);
            all.codes.extend_from_slice(&blk.codes);
            all.unpredictable.extend_from_slice(&blk.unpredictable);
        }
        assemble(
            BaseHeader {
                dims: field.dims(),
                abs_eb,
            },
            &all,
            &[],
        )
    }

    fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        // The padded code count can exceed the element count by up to 4x per
        // dimension (each extent rounds up to a multiple of 4), so degenerate
        // hostile dims like (1, 1, 2^31) would pass the element cap yet
        // declare 2^35 codes. Clamp the decode-side allocation to the same
        // ceiling as everything else before handing it to the codec.
        let (header, all, extra) = parse(bytes, |h| {
            Self::code_count(h.dims).min(crate::common::MAX_FIELD_ELEMS)
        })?;
        if !extra.is_empty() {
            return Err(DecompressError::Inconsistent("unexpected extra section"));
        }
        let rank = header.dims.rank();
        let step = Self::coeff_step(header.abs_eb, rank);
        let quantizer = Quantizer::new(step, DEFAULT_QUANT_BINS);
        let mut field = Field::zeros(header.dims);
        let specs: Vec<BlockSpec> = field.blocks(BLOCK).collect();
        let block_len = BLOCK.pow(rank as u32);
        let mut code_pos = 0usize;
        let mut unpred_pos = 0usize;
        for spec in &specs {
            let codes = all
                .codes
                .get(code_pos..code_pos + block_len)
                .ok_or(DecompressError::Inconsistent("codes underrun"))?
                .to_vec();
            code_pos += block_len;
            let escapes = codes.iter().filter(|&&c| c == 0).count();
            let unpredictable = all
                .unpredictable
                .get(unpred_pos..unpred_pos + escapes)
                .ok_or(DecompressError::Inconsistent("unpredictable underrun"))?
                .to_vec();
            unpred_pos += escapes;
            let blk = QuantizedBlock {
                codes,
                unpredictable,
            };
            let preds = vec![0.0f32; block_len];
            let mut coeffs = quantizer.dequantize_buffer(&blk, &preds);
            transform_block(&mut coeffs, rank, true);
            field.write_block(spec, &coeffs);
        }
        Ok(field)
    }

    fn is_error_bounded(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;
    use aesz_tensor::Dims;

    #[test]
    fn lifting_transform_is_invertible() {
        let mut v = [1.0f32, -2.0, 3.5, 0.25];
        let orig = v;
        fwd_lift(&mut v);
        inv_lift(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-5, "{v:?} vs {orig:?}");
        }
    }

    #[test]
    fn block_transform_roundtrips_in_all_ranks() {
        for rank in 1..=3usize {
            let n = BLOCK.pow(rank as u32);
            let orig: Vec<f32> = (0..n).map(|i| (i as f32 * 0.73).sin() * 5.0).collect();
            let mut data = orig.clone();
            transform_block(&mut data, rank, false);
            transform_block(&mut data, rank, true);
            for (a, b) in data.iter().zip(orig.iter()) {
                assert!((a - b).abs() < 1e-4, "rank {rank}");
            }
        }
    }

    #[test]
    fn transform_concentrates_energy_on_smooth_blocks() {
        // A linear ramp should put most energy in the first (DC/low) coefficients.
        let mut data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        transform_block(&mut data, 2, false);
        let total: f32 = data.iter().map(|v| v * v).sum();
        let low: f32 = data[..4].iter().map(|v| v * v).sum();
        assert!(
            low > 0.6 * total,
            "low-frequency energy fraction {}",
            low / total
        );
    }

    #[test]
    fn roundtrip_error_stays_near_the_bound() {
        for (app, dims) in [
            (Application::CesmCldhgh, Dims::d2(64, 64)),
            (Application::Rtm, Dims::d3(32, 32, 32)),
        ] {
            let field = app.generate(dims, 5);
            let mut zfp = Zfp::new();
            let rel_eb = 1e-3;
            let bytes = zfp.compress(&field, ErrorBound::rel(rel_eb)).unwrap();
            let recon = zfp.decompress(&bytes).unwrap();
            let abs = rel_eb * field.value_range() as f64;
            let max_err = aesz_metrics::max_abs_error(field.as_slice(), recon.as_slice());
            assert!(
                max_err <= 1.1 * abs,
                "{}: max error {max_err} vs bound {abs}",
                app.name()
            );
            assert!(bytes.len() < field.len() * 4);
        }
    }

    #[test]
    fn compresses_smooth_fields_substantially() {
        let field = Application::CesmCldhgh.generate(Dims::d2(128, 128), 1);
        let mut zfp = Zfp::new();
        let bytes = zfp.compress(&field, ErrorBound::rel(1e-2)).unwrap();
        assert!(bytes.len() * 4 < field.len() * 4, "{} bytes", bytes.len());
    }

    #[test]
    fn huge_fields_rebuild_finite_within_the_bound_or_are_refused() {
        // Near `f32::MAX / 8` the check in `lifts_finitely` decides: fields it
        // accepts must come back finite and within the bound.
        for (app, dims) in [
            (Application::CesmCldhgh, Dims::d2(32, 32)),
            (Application::NyxBaryonDensity, Dims::d3(16, 16, 16)),
        ] {
            let (unit, _, _) = app.generate(dims, 6).normalize_pm1();
            for scale in [1e36f32, 4e37, 5e37, 3e38] {
                let values = unit.as_slice().iter().map(|v| v * scale).collect();
                let field = Field::from_vec(dims, values).unwrap();
                for bound in [ErrorBound::rel(1e-3), ErrorBound::rel(0.5)] {
                    let Ok(bytes) = Zfp::new().compress(&field, bound) else {
                        assert!(scale > 1e36, "{dims} at {scale:e} refused at {bound}");
                        continue;
                    };
                    let recon = Zfp::new().decompress(&bytes).unwrap();
                    assert!(recon.as_slice().iter().all(|v| v.is_finite()));
                    let abs = bound.resolve(&field);
                    let max_err = aesz_metrics::max_abs_error(field.as_slice(), recon.as_slice());
                    assert!(max_err <= abs, "{dims} at {scale:e}: {max_err:e} > {abs:e}");
                }
            }
        }
    }

    #[test]
    fn truncated_streams_are_rejected_not_panicking() {
        let field = Application::CesmCldhgh.generate(Dims::d2(24, 24), 4);
        let mut zfp = Zfp::new();
        let bytes = zfp.compress(&field, ErrorBound::rel(1e-3)).unwrap();
        for len in 0..bytes.len() {
            assert!(zfp.decompress(&bytes[..len]).is_err());
        }
    }
}
