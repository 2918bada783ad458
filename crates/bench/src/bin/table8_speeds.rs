//! Table VIII — compression and decompression throughput (MB/s) of every
//! compressor at error bound 1e-3, one single-shot measurement per cell. The
//! gated throughput numbers come from the release-mode speed test
//! (`tests/speed_bench.rs`, `BENCH_speed.json` against `bench-floor.toml`).

use aesz_baselines::{AeA, AeB, Sz2, SzAuto, SzInterp, Zfp};
use aesz_bench::{test_field, trained_aesz, training_fields};
use aesz_datagen::Application;
use aesz_metrics::{Compressor, ErrorBound};
use std::time::Instant;

fn throughput(mb: f64, seconds: f64) -> f64 {
    mb / seconds.max(1e-9)
}

fn main() {
    println!("Table VIII counterpart — compression / decompression speed (MB/s), eb = 1e-3");
    println!("paper reference ordering: SZ2.1/ZFP/SZauto/SZinterp >> AE-SZ >> AE-A; AE-B similar to AE-SZ.");
    println!(
        "AE-SZ rows use the lane-parallel block pipeline; AE-SZ(ser) is the serial reference."
    );
    println!(
        "{:<22} {:<10} {:>12} {:>12}",
        "dataset", "compressor", "comp MB/s", "decomp MB/s"
    );
    for app in [
        Application::CesmCldhgh,
        Application::NyxBaryonDensity,
        Application::HurricaneU,
        Application::Rtm,
    ] {
        let field = test_field(app);
        let train = training_fields(app);
        let mb = (field.len() * 4) as f64 / (1024.0 * 1024.0);
        let mut aesz = trained_aesz(app);
        let mut ae_a = AeA::new(1);
        ae_a.train(&train, 1, 2);
        let mut sz2 = Sz2::new();
        let mut zfp = Zfp::new();
        let mut szauto = SzAuto::new();
        let mut szinterp = SzInterp::new();
        let mut entries: Vec<(&str, &mut dyn Compressor)> = vec![("SZ2.1", &mut sz2)];
        entries.push(("ZFP", &mut zfp));
        if app.rank() == 3 {
            entries.push(("SZauto", &mut szauto));
            entries.push(("SZinterp", &mut szinterp));
        }
        entries.push(("AE-SZ", &mut aesz));
        entries.push(("AE-A", &mut ae_a));
        let mut ae_b = AeB::new(2);
        if app.rank() == 3 {
            ae_b.train(&train, 1, 3);
            entries.push(("AE-B", &mut ae_b));
        }
        for (name, comp) in entries {
            let t0 = Instant::now();
            let bytes = comp
                .compress(&field, ErrorBound::rel(1e-3))
                .expect("valid input");
            let t_comp = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = comp.decompress(&bytes).expect("own stream decodes");
            let t_dec = t1.elapsed().as_secs_f64();
            println!(
                "{:<22} {:<10} {:>12.2} {:>12.2}",
                app.name(),
                name,
                throughput(mb, t_comp),
                throughput(mb, t_dec)
            );
        }
        // Serial reference path of AE-SZ (the entries borrow has ended).
        let t0 = Instant::now();
        let bytes = aesz
            .compress_with_report_serial(&field, ErrorBound::rel(1e-3))
            .expect("valid input")
            .0;
        let t_comp = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = aesz
            .try_decompress_serial(&bytes)
            .expect("own stream decodes");
        let t_dec = t1.elapsed().as_secs_f64();
        println!(
            "{:<22} {:<10} {:>12.2} {:>12.2}",
            app.name(),
            "AE-SZ(ser)",
            throughput(mb, t_comp),
            throughput(mb, t_dec)
        );
    }
}
