//! Release-mode per-codec throughput measurement and speed gate.
//!
//! Every registered codec compresses and decompresses an 8 MB field
//! (rank matched to what the codec supports) through the whole-field
//! path — the same path the kernel rewrites in `crates/codec`,
//! `crates/predictors`, `crates/baselines`, `crates/core` and the
//! GEMM-lowered inference engine in `crates/nn` target. The measured
//! MB/s land in `BENCH_speed.json` (CI's speed artifact) together with
//! two informational extras: the rank-3-capable codecs re-measured on
//! the same Nyx 128³ field AE-B runs on (`<codec>@nyx` rows, so the
//! cross-codec comparison is same-field instead of same-size), and a
//! per-layer time breakdown of the NN inference stacks. `bench-floor.toml`
//! records the per-codec floor for the seven canonical rows: the test
//! fails if any gated codec drops more than 20% below its floor, so a
//! kernel regression breaks the build instead of silently eating the
//! speedup. The `@nyx` rows are not gated.
//!
//! Each row's codec is forked once and called `1 + REPS` times in each
//! direction: one untimed warm-up call, then `REPS` timed ones, with the
//! rows interleaved round-robin so host load drifting during the run falls
//! on every codec alike. A row reports its fastest repetition, the
//! throughput the code reaches rather than the load it happened to meet.
//!
//! Timings only mean something under the optimized profile, so the
//! suite is ignored in debug builds (CI runs it via
//! `cargo test --release -q --test speed_bench`).

use aesz_repro::datagen::Application;
use aesz_repro::metrics::{CodecId, Compressor, ErrorBound};
use aesz_repro::nn::{AeConfig, ConvAutoencoder, NnScratch, Shape};
use aesz_repro::{Dims, Field, Registry};
use std::fmt::Write as _;
use std::time::Instant;

mod common;

/// Stable lowercase key for JSON/TOML (CodecId::name has dots and dashes).
fn key(id: CodecId) -> &'static str {
    match id {
        CodecId::AeSz => "aesz",
        CodecId::Sz2 => "sz2",
        CodecId::Zfp => "zfp",
        CodecId::SzAuto => "szauto",
        CodecId::SzInterp => "szinterp",
        CodecId::AeA => "aea",
        CodecId::AeB => "aeb",
    }
}

/// Timed repetitions per direction, after one untimed warm-up call.
const REPS: usize = 5;

struct Measured<'a> {
    id: CodecId,
    field: &'a Field,
    codec: Box<dyn Compressor>,
    key: String,
    name: String,
    field_desc: String,
    raw_bytes: usize,
    stream_bytes: usize,
    compress_mbps: f64,
    decompress_mbps: f64,
    /// Canonical rows are gated against `bench-floor.toml`; the same-field
    /// `@nyx` comparison rows are informational.
    gated: bool,
}

impl<'a> Measured<'a> {
    /// A row measuring `id` on `field` through its own fork.
    fn new(
        registry: &Registry,
        id: CodecId,
        field: &'a Field,
        key: String,
        field_desc: String,
        gated: bool,
    ) -> Self {
        Measured {
            id,
            field,
            codec: registry.fork(id).expect("every codec is registered"),
            key,
            name: id.name().to_string(),
            field_desc,
            raw_bytes: field.len() * 4,
            stream_bytes: 0,
            compress_mbps: 0.0,
            decompress_mbps: 0.0,
            gated,
        }
    }

    /// One whole-field compress + decompress round; a timed round raises
    /// the row's best throughput in each direction.
    fn round(&mut self, timed: bool) {
        let bound = ErrorBound::rel(1e-3);
        let t0 = Instant::now();
        let stream = self.codec.compress(self.field, bound).expect("compress");
        let compress_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let recon = self.codec.decompress(&stream).expect("decompress");
        let decompress_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            recon.dims(),
            self.field.dims(),
            "{:?} round trip lost the dims",
            self.id
        );
        self.stream_bytes = stream.len();
        if timed {
            let mbps = |secs: f64| self.raw_bytes as f64 / 1e6 / secs;
            self.compress_mbps = self.compress_mbps.max(mbps(compress_s));
            self.decompress_mbps = self.decompress_mbps.max(mbps(decompress_s));
        }
    }
}

struct LayerTiming {
    stack: &'static str,
    label: String,
    out_elems: usize,
    ms_per_batch: f64,
}

/// Time each layer of the inference stacks on AE-B's model geometry
/// (3D, block 16, channels [8, 8], latent 64) over a 16-block batch — the
/// chunk size the AE compressors feed `infer_into` with. Untrained weights
/// time exactly like trained ones (same shapes, same kernels).
fn nn_layer_breakdown() -> Vec<LayerTiming> {
    let model = ConvAutoencoder::new(AeConfig {
        spatial_rank: 3,
        block_size: 16,
        latent_dim: 64,
        channels: vec![8, 8],
        variational: false,
        seed: 7,
    });
    let batch = 16usize;
    let block_len = model.config().block_len();
    let blocks: Vec<f32> = (0..batch * block_len)
        .map(|i| ((i as f32) * 0.37).sin())
        .collect();
    let latents = vec![0.25f32; batch * model.config().latent_dim];

    let mut timings = Vec::new();
    let stacks: [(&'static str, &aesz_repro::nn::Sequential, Vec<f32>, Shape); 2] = [
        (
            "encoder",
            model.encoder_layers(),
            blocks,
            Shape::new(&[batch, 1, 16, 16, 16]),
        ),
        (
            "decoder",
            model.decoder_layers(),
            latents,
            Shape::new(&[batch, model.config().latent_dim]),
        ),
    ];
    for (stack, seq, input, in_shape) in stacks {
        let mut scratch = NnScratch::new();
        let mut cur = input;
        let mut shape = in_shape;
        let mut out = Vec::new();
        for (i, layer) in seq.layers().iter().enumerate() {
            // Warm the scratch, then time steady-state repetitions.
            let out_shape = layer
                .infer_into(&cur, shape, &mut out, &mut scratch)
                .expect("bench shapes are valid");
            let reps = 5u32;
            let t0 = Instant::now();
            for _ in 0..reps {
                layer
                    .infer_into(&cur, shape, &mut out, &mut scratch)
                    .expect("bench shapes are valid");
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
            timings.push(LayerTiming {
                stack,
                label: format!("{i}:{}", layer.name()),
                out_elems: out_shape.len(),
                ms_per_batch: ms,
            });
            std::mem::swap(&mut cur, &mut out);
            shape = out_shape;
        }
    }
    timings
}

/// Floors parsed from `bench-floor.toml`: `(codec key, compress, decompress)`.
///
/// The file is plain `[section]` + `key = float` TOML; parsing it by hand
/// keeps the gate dependency-free (the workspace is offline).
fn parse_floors(src: &str) -> Vec<(String, f64, f64)> {
    let mut floors: Vec<(String, f64, f64)> = Vec::new();
    for line in src.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            floors.push((name.trim().to_string(), f64::NAN, f64::NAN));
        } else if let Some((k, v)) = line.split_once('=') {
            let entry = floors.last_mut().expect("key before any [codec] section");
            let value: f64 = v.trim().parse().expect("floor values are floats");
            match k.trim() {
                "compress_mbps" => entry.1 = value,
                "decompress_mbps" => entry.2 = value,
                other => panic!("unknown floor key {other:?}"),
            }
        }
    }
    for (name, c, d) in &floors {
        assert!(
            c.is_finite() && d.is_finite(),
            "[{name}] must set both compress_mbps and decompress_mbps"
        );
    }
    floors
}

#[test]
#[cfg_attr(debug_assertions, ignore = "throughput measurement needs --release")]
fn per_codec_throughput_is_recorded_and_gated() {
    // 8 MB fields, rank-matched: AE-B only accepts rank 3; the 2D codecs
    // get a 2048x1024 CESM slab of the same byte size.
    let dims_2d = Dims::d2(2048, 1024);
    let field_2d = Application::CesmCldhgh.generate(dims_2d, 9);
    let dims_3d = Dims::d3(128, 128, 128);
    let field_3d = Application::NyxBaryonDensity.generate(dims_3d, 3);
    assert!(field_2d.len() * 4 >= 8 * 1024 * 1024);
    assert!(field_3d.len() * 4 >= 8 * 1024 * 1024);

    let registry = common::trained_registry();

    // The seven canonical (gated) rows.
    let mut results: Vec<Measured> = Vec::new();
    for id in CodecId::all() {
        let (field, desc) = match id {
            // The learned codecs were trained on rank-2 blocks; AE-B is the
            // rank-3-only convolutional baseline.
            CodecId::AeB => (&field_3d, format!("nyx-baryon {dims_3d}")),
            _ => (&field_2d, format!("cesm {dims_2d}")),
        };
        results.push(Measured::new(
            &registry,
            id,
            field,
            key(id).to_string(),
            desc,
            true,
        ));
    }

    // Same-field comparison rows: every rank-3-capable codec on the exact
    // field AE-B is measured on, so the cross-codec columns compare like
    // with like (informational — no floors).
    for id in [
        CodecId::Sz2,
        CodecId::Zfp,
        CodecId::SzAuto,
        CodecId::SzInterp,
        CodecId::AeA,
    ] {
        results.push(Measured::new(
            &registry,
            id,
            &field_3d,
            format!("{}@nyx", key(id)),
            format!("nyx-baryon {dims_3d}"),
            false,
        ));
    }
    // One warm-up round, then the timed ones, every row per round.
    for round in 0..=REPS {
        for row in &mut results {
            row.round(round > 0);
        }
    }

    let layer_timings = nn_layer_breakdown();

    // BENCH_speed.json: one object per codec row, keyed by the stable name,
    // plus the per-layer NN inference breakdown.
    let mut json = String::from("{\n  \"bound\": \"rel 1e-3\",\n  \"codecs\": {\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = write!(
            json,
            "    \"{}\": {{\n      \"name\": \"{}\", \"field\": \"{}\", \"gated\": {},\n      \
             \"raw_bytes\": {}, \"stream_bytes\": {},\n      \
             \"compress_mbps\": {:.2}, \"decompress_mbps\": {:.2}\n    }}{}\n",
            m.key,
            m.name,
            m.field_desc,
            m.gated,
            m.raw_bytes,
            m.stream_bytes,
            m.compress_mbps,
            m.decompress_mbps,
            comma,
        );
    }
    json.push_str("  },\n");
    json.push_str(
        "  \"nn_layer_ms_per_16_block_batch\": {\n    \
         \"model\": \"AE-B geometry: 3D, block 16, channels [8, 8], latent 64\",\n",
    );
    for (stack_i, stack) in ["encoder", "decoder"].iter().enumerate() {
        let rows: Vec<&LayerTiming> = layer_timings.iter().filter(|t| t.stack == *stack).collect();
        let _ = writeln!(json, "    \"{stack}\": [");
        for (i, t) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      {{ \"layer\": \"{}\", \"out_elems\": {}, \"ms\": {:.3} }}{}",
                t.label, t.out_elems, t.ms_per_batch, comma,
            );
        }
        let comma = if stack_i == 0 { "," } else { "" };
        let _ = writeln!(json, "    ]{comma}");
    }
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_speed.json");
    std::fs::write(path, &json).expect("write BENCH_speed.json");
    println!("wrote {path}:\n{json}");

    // The gate: every gated codec must have a floor and stay within 20% of
    // it, in both directions. Informational rows carry no floors.
    let floor_path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench-floor.toml");
    let floors = parse_floors(&std::fs::read_to_string(floor_path).expect("read bench-floor.toml"));
    for m in results.iter().filter(|m| m.gated) {
        assert!(
            floors.iter().any(|(name, _, _)| *name == m.key),
            "bench-floor.toml is missing a floor for {}",
            m.key
        );
    }
    let mut failures = String::new();
    for (name, floor_c, floor_d) in &floors {
        let m = results
            .iter()
            .find(|m| m.gated && m.key == *name)
            .unwrap_or_else(|| panic!("bench-floor.toml names unknown codec {name:?}"));
        for (dir, measured, floor) in [
            ("compress", m.compress_mbps, *floor_c),
            ("decompress", m.decompress_mbps, *floor_d),
        ] {
            if measured < floor * 0.8 {
                let _ = writeln!(
                    failures,
                    "  {name} {dir}: {measured:.2} MB/s is more than 20% below \
                     the {floor:.2} MB/s floor"
                );
            }
        }
    }
    assert!(failures.is_empty(), "speed gate failed:\n{failures}");
}
