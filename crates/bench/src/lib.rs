//! # aesz-bench
//!
//! Benchmark harness regenerating every table and figure of the AE-SZ paper's
//! evaluation (Section V). Each table/figure has a dedicated binary under
//! `src/bin/` (see DESIGN.md §5 for the full index); `table8_speeds` prints
//! the throughput numbers of Table VIII.
//!
//! The harness runs on the synthetic SDRBench stand-ins from `aesz-datagen`
//! at laptop-scale extents, so absolute numbers differ from the paper's
//! V100-node measurements; the comparisons (who wins, by roughly what factor,
//! where the crossovers fall) are what the binaries print and what
//! EXPERIMENTS.md records.

#![forbid(unsafe_code)]

use aesz_core::training::TrainingOptions;
use aesz_core::{train_swae_for_field, AeSz, AeSzConfig};
use aesz_datagen::Application;
use aesz_metrics::{measure, Compressor, ErrorBound, RdCurve, RdPoint, SweepPoint};
use aesz_tensor::{Dims, Field};

/// Field extents used by the harness (scaled-down stand-ins for Table V).
pub fn bench_dims(app: Application) -> Dims {
    match app.rank() {
        2 => Dims::d2(128, 128),
        _ => Dims::d3(48, 48, 48),
    }
}

/// Snapshot indices used for training (the paper trains on early time steps).
pub fn train_snapshots() -> Vec<u64> {
    vec![0, 1, 2]
}

/// Snapshot index used for testing (a later, unseen time step).
pub fn test_snapshot() -> u64 {
    50
}

/// Generate the training fields for an application at harness extents.
pub fn training_fields(app: Application) -> Vec<Field> {
    train_snapshots()
        .into_iter()
        .map(|s| app.generate(bench_dims(app), s))
        .collect()
}

/// Generate the held-out test field for an application at harness extents.
pub fn test_field(app: Application) -> Field {
    app.generate(bench_dims(app), test_snapshot())
}

/// Training options used for the harness (small networks, few epochs — the
/// architecture matches Table VI, the capacity is scaled for CPU training).
pub fn harness_training_options(app: Application) -> TrainingOptions {
    let rank = app.rank();
    let mut opts = TrainingOptions::default_for_rank(rank);
    opts.block_size = if rank == 2 { 16 } else { 8 };
    opts.latent_dim = if rank == 2 { 8 } else { 16 };
    opts.channels = vec![8, 16];
    opts.epochs = 4;
    opts.max_blocks = 192;
    opts
}

/// Train an AE-SZ compressor for an application on its training snapshots.
pub fn trained_aesz(app: Application) -> AeSz {
    let opts = harness_training_options(app);
    let fields = training_fields(app);
    let model = train_swae_for_field(&fields, &opts);
    let config = AeSzConfig {
        block_size: opts.block_size,
        ..if app.rank() == 2 {
            AeSzConfig::default_2d()
        } else {
            AeSzConfig::default_3d()
        }
    };
    AeSz::new(model, config)
}

/// The error-bound sweep used by the rate-distortion figures.
pub fn standard_bounds() -> Vec<f64> {
    vec![1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 1e-4]
}

/// Sweep one compressor over a field and collect its rate-distortion curve.
///
/// The harness generates its own (valid) inputs, so a failed roundtrip is a
/// bug in the compressor under test and panics with the reported error.
pub fn sweep(compressor: &mut dyn Compressor, field: &Field, bounds: &[f64]) -> RdCurve {
    let mut curve = RdCurve::new(compressor.name());
    for &eb in bounds {
        let p: SweepPoint = measure(compressor, field, ErrorBound::rel(eb))
            .unwrap_or_else(|e| panic!("{} failed at eb {eb:e}: {e}", compressor.name()));
        curve.push(RdPoint {
            error_bound: eb,
            bit_rate: p.bit_rate,
            psnr: p.psnr,
            compression_ratio: p.compression_ratio,
        });
    }
    curve
}

/// Print a set of rate-distortion curves as an aligned text block (the text
/// form of one panel of Fig. 8 / Fig. 11).
pub fn print_curves(title: &str, curves: &[RdCurve]) {
    println!("== {title} ==");
    for curve in curves {
        print!("{}", curve.to_table());
    }
    println!();
}

/// Render a 2D slice of a field as a coarse ASCII heat map (the text stand-in
/// for the visual comparisons of Fig. 1 / Fig. 9).
pub fn ascii_heatmap(field: &Field, rows: usize, cols: usize) -> String {
    let ramp = b" .:-=+*#%@";
    let (lo, hi) = field.min_max();
    let range = (hi - lo).max(f32::MIN_POSITIVE);
    let e = field.dims().extents();
    // Take the middle slice of 3D data; the whole field for 2D.
    let (ny, nx, offset) = match field.dims() {
        Dims::D2 { ny, nx } => (ny, nx, 0usize),
        Dims::D3 { nz, ny, nx } => (ny, nx, (nz / 2) * ny * nx),
        Dims::D1 { n } => (1, n, 0),
    };
    let _ = e;
    let data = field.as_slice();
    let mut out = String::new();
    for r in 0..rows {
        let y = r * ny / rows;
        for c in 0..cols {
            let x = c * nx / cols;
            let v = data[offset + y * nx + x];
            let t = ((v - lo) / range * (ramp.len() - 1) as f32).round() as usize;
            out.push(ramp[t.min(ramp.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_baselines::Sz2;

    #[test]
    fn sweep_produces_monotone_bit_rates() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 1);
        let mut sz = Sz2::new();
        let curve = sweep(&mut sz, &field, &[1e-2, 1e-3, 1e-4]);
        assert_eq!(curve.points.len(), 3);
        assert!(curve.points[0].bit_rate <= curve.points[2].bit_rate);
        assert!(curve.points[0].psnr <= curve.points[2].psnr);
    }

    #[test]
    fn ascii_heatmap_has_requested_shape() {
        let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 1);
        let map = ascii_heatmap(&field, 10, 20);
        assert_eq!(map.lines().count(), 10);
        assert!(map.lines().all(|l| l.chars().count() == 20));
    }

    #[test]
    fn bench_dims_match_application_rank() {
        for app in Application::all() {
            assert_eq!(bench_dims(app).rank(), app.rank());
        }
    }
}
