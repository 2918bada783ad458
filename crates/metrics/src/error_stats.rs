//! Pointwise error statistics between an original and a reconstructed field.

/// Summary of the pointwise differences between two equal-length buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean squared error.
    pub mse: f64,
    /// Maximum absolute pointwise error.
    pub max_abs_error: f64,
    /// Peak signal-to-noise ratio in dB (∞ for identical data).
    pub psnr: f64,
    /// Value range (max − min) of the original data.
    pub value_range: f64,
    /// Normalised root-mean-square error (RMSE / value range).
    pub nrmse: f64,
}

impl ErrorStats {
    /// Compute all statistics in one pass over the two buffers.
    ///
    /// # Panics
    /// Panics when the buffers have different lengths.
    pub fn compute(original: &[f32], reconstructed: &[f32]) -> ErrorStats {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "original and reconstructed data must have the same length"
        );
        if original.is_empty() {
            return ErrorStats {
                mse: 0.0,
                max_abs_error: 0.0,
                psnr: f64::INFINITY,
                value_range: 0.0,
                nrmse: 0.0,
            };
        }
        let mut sum_sq = 0.0f64;
        let mut max_err = 0.0f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (&a, &b) in original.iter().zip(reconstructed.iter()) {
            let a = a as f64;
            let b = b as f64;
            let diff = (a - b).abs();
            sum_sq += diff * diff;
            if diff > max_err {
                max_err = diff;
            }
            if a < lo {
                lo = a;
            }
            if a > hi {
                hi = a;
            }
        }
        let mse = sum_sq / original.len() as f64;
        let range = hi - lo;
        let psnr = if mse == 0.0 {
            f64::INFINITY
        } else if range == 0.0 {
            // Constant original data: fall back to pure −10·log10(mse).
            -10.0 * mse.log10()
        } else {
            20.0 * range.log10() - 10.0 * mse.log10()
        };
        let nrmse = if range == 0.0 {
            0.0
        } else {
            mse.sqrt() / range
        };
        ErrorStats {
            mse,
            max_abs_error: max_err,
            psnr,
            value_range: range,
            nrmse,
        }
    }
}

/// Mean squared error between two buffers.
pub fn mse(original: &[f32], reconstructed: &[f32]) -> f64 {
    ErrorStats::compute(original, reconstructed).mse
}

/// Maximum absolute pointwise error between two buffers.
pub fn max_abs_error(original: &[f32], reconstructed: &[f32]) -> f64 {
    ErrorStats::compute(original, reconstructed).max_abs_error
}

/// Peak signal-to-noise ratio (value-range based, in dB).
pub fn psnr(original: &[f32], reconstructed: &[f32]) -> f64 {
    ErrorStats::compute(original, reconstructed).psnr
}

/// Normalised root-mean-square error (RMSE divided by the value range).
pub fn nrmse(original: &[f32], reconstructed: &[f32]) -> f64 {
    ErrorStats::compute(original, reconstructed).nrmse
}

/// Check the error-bound invariant of an error-bounded compressor:
/// every reconstructed value must be within `abs_bound` of the original,
/// with `slack` absorbing one ULP of quantization rounding. A NaN or
/// infinite reconstruction of a finite original is a violation.
pub fn verify_error_bound(
    original: &[f32],
    reconstructed: &[f32],
    abs_bound: f64,
    slack: f64,
) -> Result<(), String> {
    assert_eq!(original.len(), reconstructed.len());
    for (i, (&a, &b)) in original.iter().zip(reconstructed.iter()).enumerate() {
        let diff = (a as f64 - b as f64).abs();
        // `diff > bound` alone is false for a NaN reconstruction.
        if diff > abs_bound + slack || (a.is_finite() && !b.is_finite()) {
            return Err(format!(
                "error bound violated at index {i}: |{a} - {b}| = {diff} > {abs_bound} (+{slack})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_has_infinite_psnr() {
        let d = vec![1.0f32, 2.0, 3.0];
        let s = ErrorStats::compute(&d, &d);
        assert_eq!(s.mse, 0.0);
        assert_eq!(s.max_abs_error, 0.0);
        assert!(s.psnr.is_infinite());
        assert_eq!(s.nrmse, 0.0);
    }

    #[test]
    fn known_mse_and_psnr() {
        // Original range 0..=10, constant error of 0.1 everywhere.
        let orig: Vec<f32> = (0..=100).map(|i| i as f32 * 0.1).collect();
        let recon: Vec<f32> = orig.iter().map(|v| v + 0.1).collect();
        let s = ErrorStats::compute(&orig, &recon);
        assert!((s.mse - 0.01).abs() < 1e-6);
        assert!((s.max_abs_error - 0.1).abs() < 1e-6);
        // PSNR = 20*log10(10) - 10*log10(0.01) = 20 + 20 = 40.
        assert!((s.psnr - 40.0).abs() < 0.01, "psnr = {}", s.psnr);
        assert!((s.nrmse - 0.01).abs() < 1e-5);
    }

    #[test]
    fn psnr_increases_as_error_shrinks() {
        let orig: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let noisy_big: Vec<f32> = orig.iter().map(|v| v + 0.01).collect();
        let noisy_small: Vec<f32> = orig.iter().map(|v| v + 0.001).collect();
        assert!(psnr(&orig, &noisy_small) > psnr(&orig, &noisy_big) + 15.0);
    }

    #[test]
    fn constant_field_psnr_does_not_blow_up() {
        let orig = vec![5.0f32; 100];
        let recon = vec![5.001f32; 100];
        let s = ErrorStats::compute(&orig, &recon);
        assert!(s.psnr.is_finite());
        assert_eq!(s.value_range, 0.0);
    }

    #[test]
    fn empty_inputs_are_benign() {
        let s = ErrorStats::compute(&[], &[]);
        assert!(s.psnr.is_infinite());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        ErrorStats::compute(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn verify_error_bound_detects_violations() {
        let orig = vec![0.0f32, 1.0, 2.0];
        let ok = vec![0.05f32, 1.05, 1.95];
        let bad = vec![0.05f32, 1.3, 2.0];
        assert!(verify_error_bound(&orig, &ok, 0.1, 1e-6).is_ok());
        let err = verify_error_bound(&orig, &bad, 0.1, 1e-6).unwrap_err();
        assert!(err.contains("index 1"));
    }

    #[test]
    fn verify_error_bound_rejects_non_finite_reconstructions() {
        let orig = vec![0.0f32, 1.0, 2.0];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let recon = vec![0.0f32, bad, 2.0];
            let err = verify_error_bound(&orig, &recon, 0.1, 1e-6).unwrap_err();
            assert!(err.contains("index 1"), "{bad}: {err}");
        }
        // A non-finite original has no finite bound to check against.
        let orig = vec![f32::NAN, f32::INFINITY];
        assert!(verify_error_bound(&orig, &orig, 0.1, 1e-6).is_ok());
    }
}
