//! Table VIII-style throughput assertion for the parallel AE-SZ pipeline:
//! on a ≥ 8 MB field the lane-parallel block pipeline must beat the serial
//! reference in both directions while producing byte-identical streams.
//!
//! The measurement needs the optimized profile to be meaningful, so the test
//! is ignored under debug builds (CI runs it via `cargo test --release`).
//! The byte-identity check always runs; the timing assertions are skipped on
//! single-core machines, where the lanes degenerate to the serial path
//! plus scheduling overhead.

use aesz_core::{AeSz, AeSzConfig, PredictorPolicy};
use aesz_datagen::Application;
use aesz_metrics::ErrorBound;
use aesz_nn::models::conv_ae::{AeConfig, ConvAutoencoder};
use aesz_tensor::{Dims, Field};
use std::time::Instant;

/// Best-of-3 wall time of `f`, returning its last output alongside.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("loop ran"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "throughput assertion needs --release")]
fn parallel_beats_serial_on_8mb_field() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // 1456² f32 = 8.09 MB. The model is untrained (predictor quality is
    // irrelevant to throughput) and the policy is LorenzoOnly so the
    // measurement isolates the per-block pipeline that the block-row lane
    // engine parallelizes; no AE inference runs, so the lane-parallel AE
    // stage (one lane on the serial path) does not enter the timing.
    let field = Application::CesmCldhgh.generate(Dims::d2(1456, 1456), 42);
    assert!(field.len() * 4 >= 8 * 1024 * 1024, "field must be >= 8 MB");
    let model = ConvAutoencoder::new(AeConfig {
        spatial_rank: 2,
        block_size: 16,
        latent_dim: 8,
        channels: vec![8, 16],
        variational: false,
        seed: 1,
    });
    let mut aesz = AeSz::new(
        model,
        AeSzConfig {
            block_size: 16,
            policy: PredictorPolicy::LorenzoOnly,
            ..AeSzConfig::default_2d()
        },
    );

    // Warm-up pass doubling as a reference stream.
    let eb = ErrorBound::rel(1e-3);
    let (reference, _) = aesz
        .compress_with_report_serial(&field, eb)
        .expect("valid input");

    let (t_ser, ser_bytes) = {
        let (t, b) = best_of_3(|| aesz.compress_with_report_serial(&field, eb).unwrap().0);
        (t, b)
    };
    let (t_par, par_bytes) = {
        let (t, b) = best_of_3(|| aesz.compress_with_report(&field, eb).unwrap().0);
        (t, b)
    };
    assert_eq!(par_bytes, ser_bytes, "streams must be byte-identical");
    assert_eq!(par_bytes, reference);

    let (t_dser, dser_field): (f64, Field) =
        best_of_3(|| aesz.try_decompress_serial(&ser_bytes).unwrap());
    let (t_dpar, dpar_field): (f64, Field) = best_of_3(|| aesz.try_decompress(&ser_bytes).unwrap());
    assert_eq!(
        dpar_field.as_slice(),
        dser_field.as_slice(),
        "reconstructions must be identical"
    );

    let mb = (field.len() * 4) as f64 / (1024.0 * 1024.0);
    eprintln!(
        "compress:   serial {:.2} MB/s, parallel {:.2} MB/s ({cores} cores)",
        mb / t_ser,
        mb / t_par
    );
    eprintln!(
        "decompress: serial {:.2} MB/s, parallel {:.2} MB/s",
        mb / t_dser,
        mb / t_dpar
    );

    if cores < 2 {
        eprintln!("only {cores} core(s): byte-identity verified, timing assertions skipped");
        return;
    }
    assert!(
        t_par < t_ser,
        "parallel compression ({t_par:.3}s) must beat serial ({t_ser:.3}s) on {cores} cores"
    );
    assert!(
        t_dpar < t_dser,
        "parallel decompression ({t_dpar:.3}s) must beat serial ({t_dser:.3}s) on {cores} cores"
    );
}
