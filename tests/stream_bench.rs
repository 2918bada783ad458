//! Release-mode streaming acceptance + throughput measurement.
//!
//! * An 8 MB+ field pushed through [`StreamFieldDecoder`] in fixed-size
//!   packets must reconstruct bit-identically to the buffered decode while
//!   the parser's buffer high-water mark stays bounded by one chunk frame,
//!   not the archive.
//! * Streamed-vs-buffered decode throughput (and the residency witness) is
//!   measured and written to `BENCH_stream.json` (committed, and CI's bench
//!   artifact). Both decode the same windows of chunks in parallel, so the
//!   two rows differ only by the push path's parsing and frame copies.
//!
//! Timings only mean something under the optimized profile, so the suite is
//! ignored in debug builds (CI runs it via `cargo test --release`).

use aesz_repro::archive::{compress_field_with, decompress, ArchiveOptions};
use aesz_repro::datagen::Application;
use aesz_repro::metrics::{CodecId, ErrorBound};
use aesz_repro::stream::{StreamFieldDecoder, StreamOutput};
use aesz_repro::{Dims, Field, Registry};
use std::time::Instant;

#[test]
#[cfg_attr(debug_assertions, ignore = "throughput measurement needs --release")]
fn streamed_vs_buffered_decode_throughput_is_recorded() {
    let dims = Dims::d3(128, 128, 128);
    let field = Application::NyxBaryonDensity.generate(dims, 3);
    let raw_bytes = field.len() * 4;
    assert!(raw_bytes >= 8 * 1024 * 1024, "field must be >= 8 MB");
    let bound = ErrorBound::rel(1e-3);
    let registry = Registry::with_defaults();
    let window = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 16);
    let opts = ArchiveOptions::new().chunk(64).window(window);

    let (bytes, _) = compress_field_with(&registry, &field, bound, &opts, |_| CodecId::Sz2)
        .expect("archive compress");

    // Buffered reference decode (windowed + parallel).
    let buffered_decode = || decompress(&registry, &bytes, window).expect("buffered decode");

    // Push-based decode in pipe-sized packets, on the same window.
    const PACKET: usize = 64 * 1024;
    let streamed_decode = || {
        let mut decoder = StreamFieldDecoder::with_window(&registry, window);
        let mut recon: Option<Field> = None;
        let mut chunks = 0usize;
        let drain = |d: &mut StreamFieldDecoder, recon: &mut Option<Field>, chunks: &mut usize| {
            while let Some(out) = d.poll().expect("stream decode") {
                match out {
                    StreamOutput::Header(h) => *recon = Some(Field::zeros(h.dims)),
                    StreamOutput::Chunk(spec, chunk) => {
                        *chunks += 1;
                        recon
                            .as_mut()
                            .expect("header precedes chunks")
                            .write_block_valid(&spec, chunk.as_slice());
                    }
                    StreamOutput::Field(_) => panic!("archive stream, not a frame"),
                }
            }
        };
        for packet in bytes.chunks(PACKET) {
            decoder.feed(packet);
            drain(&mut decoder, &mut recon, &mut chunks);
        }
        decoder.finish();
        drain(&mut decoder, &mut recon, &mut chunks);
        let recon = recon.expect("stream yielded a field");
        (recon, chunks, decoder.peak_buffered())
    };

    // One untimed call of each, then the fastest of six interleaved timed
    // calls per path, each path going first in every other round: one cold
    // call on a shared machine says little.
    let (buffered, _) = buffered_decode();
    let (recon, chunks, peak) = streamed_decode();
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut buffered_s, mut streamed_s) = (f64::INFINITY, f64::INFINITY);
    for round in 0..6 {
        for path in [round % 2, 1 - round % 2] {
            if path == 0 {
                buffered_s = buffered_s.min(time(&|| drop(buffered_decode())));
            } else {
                streamed_s = streamed_s.min(time(&|| drop(streamed_decode())));
            }
        }
    }

    // Acceptance: bit-identity with the buffered path, bounded residency.
    assert_eq!(recon.as_slice(), buffered.as_slice());
    assert!(
        peak < bytes.len() / 4,
        "parser buffered {peak} of a {}-byte archive",
        bytes.len()
    );

    let mbps = |secs: f64| raw_bytes as f64 / 1e6 / secs;
    let json = format!(
        "{{\n  \"field\": \"nyx-baryon {dims}\",\n  \"field_bytes\": {raw_bytes},\n  \
         \"bound\": \"{bound}\",\n  \"codec\": \"SZ2.1\",\n  \
         \"archive_bytes\": {},\n  \"chunk\": {}, \"window\": {window},\n  \
         \"packet_bytes\": {PACKET},\n  \"chunks\": {chunks},\n  \
         \"buffered\": {{ \"decompress_s\": {buffered_s:.4}, \"decompress_mbps\": {:.2} }},\n  \
         \"streamed\": {{ \"decompress_s\": {streamed_s:.4}, \"decompress_mbps\": {:.2},\n    \
         \"peak_parser_buffer_bytes\": {peak} }}\n}}\n",
        bytes.len(),
        opts.chunk_edge(),
        mbps(buffered_s),
        mbps(streamed_s),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("wrote {path}:\n{json}");
}
