//! Streaming archive walkthrough: compress a 3D field into the chunked
//! `AESA` format with a different codec per region, inspect the chunk index,
//! decode one chunk by random access, then decode the whole archive — all
//! through the codec registry.
//!
//! Run with `cargo run --release --example archive_stream`.

use aesz_repro::archive::{
    compress_field_with, decompress, decompress_chunk, ArchiveOptions, ArchiveReader,
};
use aesz_repro::datagen::Application;
use aesz_repro::metrics::{CodecId, ErrorBound};
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{Dims, Registry};

fn main() {
    let registry = Registry::with_defaults();
    let dims = Dims::d3(48, 48, 48);
    let field = Application::HurricaneQvapor.generate(dims, 12);
    let bound = ErrorBound::rel(1e-3);

    // Chunks of 16³, at most 4 in flight: the writer's resident raw payload
    // is 4 × 16³ × 4 B = 64 KiB, independent of the field size.
    let opts = ArchiveOptions::new().chunk(16).window(4);

    // Per-chunk codec choice: SZ2.1 for boundary chunks (they are cheap to
    // predict), the ZFP-like transform codec for the interior.
    let pick = |spec: &BlockSpec| {
        let interior = spec
            .origin
            .iter()
            .zip(spec.size.iter())
            .zip(dims.extents())
            .all(|((&o, &s), e)| o > 0 && o + s < e);
        if interior {
            CodecId::Zfp
        } else {
            CodecId::Sz2
        }
    };
    let (bytes, stats) =
        compress_field_with(&registry, &field, bound, &opts, pick).expect("archive");
    println!(
        "archived {} ({} chunks): {} -> {} bytes (ratio {:.2}:1), peak window {} KiB",
        dims,
        stats.chunks,
        stats.raw_bytes,
        stats.archive_bytes,
        stats.raw_bytes as f64 / stats.archive_bytes as f64,
        stats.peak_window_raw_bytes / 1024,
    );

    // Opening walks every frame head once: the rebuilt chunk index is
    // validated up front and tells us who wrote what.
    let reader = ArchiveReader::open(&bytes).expect("valid archive");
    for id in [CodecId::Sz2, CodecId::Zfp] {
        let n = reader.entries().iter().filter(|e| e.codec == id).count();
        println!("  {:<6} {n:>3} chunks", id.name());
    }

    // Random access: decode a single interior chunk without touching the
    // other frames.
    let middle = stats.chunks / 2;
    let (spec, chunk) = decompress_chunk(&registry, &bytes, middle).expect("chunk");
    println!(
        "chunk {middle} at origin {:?} decoded alone: {} values, first = {:.5}",
        spec.origin,
        chunk.len(),
        chunk[0]
    );

    // Full decode (windowed + parallel) honours the field-level bound.
    let (recon, _) = decompress(&registry, &bytes, opts.window_chunks()).expect("decode");
    let abs = bound.resolve(&field);
    let worst = field
        .as_slice()
        .iter()
        .zip(recon.as_slice())
        .map(|(a, b)| ((a - b) as f64).abs())
        .fold(0.0f64, f64::max);
    println!("full decode: max abs err {worst:.3e} <= bound {abs:.3e}");
    assert!(worst <= abs * 1.0001);
    assert_eq!(
        chunk.as_slice(),
        recon.read_block_valid(&spec).as_slice(),
        "random access must match the full decode"
    );
    println!("random-access chunk matches the full decode bit-for-bit");
}
