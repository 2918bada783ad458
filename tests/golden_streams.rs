//! Golden-stream fixtures: committed `AESC` and `AESA` byte streams that
//! today's decoders must keep reading byte-for-byte, locking the wire
//! formats against accidental version breaks.
//!
//! The fixtures live under `tests/fixtures/` and were produced by the
//! `#[ignore]`d `regenerate_golden_fixtures` test below
//! (`cargo test --test golden_streams -- --ignored` rewrites the `AESC`
//! frame and the inline archive — only do that for an *intentional*,
//! version-bumped format change). The version-1 archive
//! `mixed_24x20_chunk8.aesa` and the reconstruction it decodes to are
//! decode locks from before every writer went inline: nothing regenerates
//! them. The input field is analytic (no RNG, no datagen), so the fixtures
//! are independent of the vendored `rand` stream.
//!
//! Only deterministic traditional codecs appear in fixtures: the learned
//! codecs' streams depend on model weights, which are not wire format.

use aesz_repro::archive::{compress_field_with, decompress, decompress_chunk, ArchiveReader};
use aesz_repro::metrics::legacy::{relay, Layout};
use aesz_repro::metrics::{container, CodecId, Compressor, ErrorBound};
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{Dims, Field, Registry};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name))
        .unwrap_or_else(|e| panic!("missing fixture {name} (regenerate_golden_fixtures): {e}"))
}

/// The analytic input field of every fixture.
///
/// Exact IEEE `f32` arithmetic only — integer-valued operands and
/// power-of-two divisors, no libm calls (`sin` etc. are platform-libm
/// dependent to 1 ulp) — so the fixture inputs, and therefore the encoded
/// bytes, are bit-identical on every platform.
fn golden_field(dims: Dims) -> Field {
    Field::from_fn(dims, |c| {
        let mut h: u32 = 2166136261;
        for &x in c {
            h = (h ^ x as u32).wrapping_mul(16777619);
        }
        let mut v = 0.25f32 + (h % 1024) as f32 / 4096.0;
        for (ax, &x) in c.iter().enumerate() {
            v += ((x * (ax + 2)) % 23) as f32 / 64.0;
        }
        v
    })
}

const FRAME_DIMS: Dims = Dims::D2 { ny: 16, nx: 12 };
const ARCHIVE_DIMS: Dims = Dims::D2 { ny: 24, nx: 20 };
const ARCHIVE_CHUNK: usize = 8;
const ARCHIVE_CODECS: [CodecId; 4] = [
    CodecId::Sz2,
    CodecId::Zfp,
    CodecId::SzInterp,
    CodecId::SzAuto,
];
const BOUND: ErrorBound = ErrorBound::Abs(1e-3);

fn make_frame() -> Vec<u8> {
    aesz_repro::baselines::Sz2::new()
        .compress(&golden_field(FRAME_DIMS), BOUND)
        .expect("golden frame")
}

fn make_archive() -> Vec<u8> {
    let registry = Registry::with_defaults();
    compress_field_with(
        &registry,
        &golden_field(ARCHIVE_DIMS),
        BOUND,
        &aesz_repro::archive::ArchiveOptions::new()
            .chunk(ARCHIVE_CHUNK)
            .window(2),
        |spec: &BlockSpec| ARCHIVE_CODECS[spec.index % ARCHIVE_CODECS.len()],
    )
    .expect("golden archive")
    .0
}

#[test]
fn golden_aesc_frame_still_decodes_byte_for_byte() {
    let stream = read_fixture("sz2_16x12.aesc");
    let expected = read_fixture("sz2_16x12.recon.f32");

    assert_eq!(container::peek(&stream).unwrap().codec, CodecId::Sz2);
    let (recon, id) = aesz_repro::decompress_any(&stream).expect("golden frame decodes");
    assert_eq!(id, CodecId::Sz2);
    assert_eq!(recon.dims(), FRAME_DIMS);
    assert_eq!(
        recon.to_le_bytes(),
        expected,
        "reconstruction of the committed AESC stream changed"
    );
    // The committed reconstruction really honours the committed bound.
    let field = golden_field(FRAME_DIMS);
    for (a, b) in field.as_slice().iter().zip(recon.as_slice()) {
        assert!(((a - b) as f64).abs() <= 1e-3 * 1.0001);
    }
}

#[test]
fn golden_aesa_archive_still_decodes_byte_for_byte() {
    let stream = read_fixture("mixed_24x20_chunk8.aesa");
    let expected = read_fixture("mixed_24x20_chunk8.recon.f32");

    let reader = ArchiveReader::open(&stream).expect("golden archive opens");
    assert_eq!(reader.dims(), ARCHIVE_DIMS);
    assert_eq!(reader.header().chunk, ARCHIVE_CHUNK);
    assert_eq!(reader.chunk_count(), 9);
    for (i, entry) in reader.entries().iter().enumerate() {
        assert_eq!(entry.codec, ARCHIVE_CODECS[i % ARCHIVE_CODECS.len()]);
    }

    let registry = Registry::with_defaults();
    let (recon, _) = decompress(&registry, &stream, 3).expect("golden archive decodes");
    assert_eq!(
        recon.to_le_bytes(),
        expected,
        "reconstruction of the committed AESA archive changed"
    );
    // Random access agrees with the committed full decode.
    for i in 0..reader.chunk_count() {
        let (spec, chunk) = decompress_chunk(&registry, &stream, i).expect("chunk decodes");
        assert_eq!(chunk.as_slice(), recon.read_block_valid(&spec).as_slice());
    }
}

#[test]
fn todays_encoders_still_reproduce_the_golden_streams() {
    // Stronger than decode-compat: the traditional codecs are deterministic,
    // so today's encoders should emit the committed bytes exactly. If an
    // *intentional* encoder change breaks this, regenerate the fixtures and
    // say so in the changelog; decode-compat above must never break.
    assert_eq!(make_frame(), read_fixture("sz2_16x12.aesc"));
    let stream = read_fixture("mixed_24x20_chunk8.inline.aesa");
    assert_eq!(make_archive(), stream);

    // The inline archive decodes to the committed reconstruction, and its
    // nine chunk frames are the version-1 fixture's, byte for byte: only the
    // layout around them changed.
    let registry = Registry::with_defaults();
    let (recon, _) = decompress(&registry, &stream, 3).expect("inline archive decodes");
    assert_eq!(
        recon.to_le_bytes(),
        read_fixture("mixed_24x20_chunk8.recon.f32"),
        "reconstruction of the committed inline archive changed"
    );
    let v1 = read_fixture("mixed_24x20_chunk8.aesa");
    let (inline_reader, v1_reader) = (
        ArchiveReader::open(&stream).expect("inline archive opens"),
        ArchiveReader::open(&v1).expect("v1 archive opens"),
    );
    assert_eq!(inline_reader.header().version, 3);
    assert_eq!(inline_reader.header().index_cap, 0);
    assert_eq!(inline_reader.chunk_count(), 9);
    assert_eq!(v1_reader.chunk_count(), 9);
    for i in 0..9 {
        assert!(inline_reader.chunk_frame(i).is_some());
        assert_eq!(
            inline_reader.chunk_frame(i),
            v1_reader.chunk_frame(i),
            "chunk frame {i}"
        );
    }
    // Re-laid as version 1, today's archive is the version-1 fixture.
    assert_eq!(relay(&stream, Layout::V1), v1);
}

/// Rewrites the `AESC` frame and the inline archive, the two streams
/// today's encoders are locked to. Run explicitly (`-- --ignored`) only for
/// an intentional wire-format or encoder change.
#[test]
#[ignore = "regenerates the committed golden fixtures"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(fixture_path("sz2_16x12.aesc"), make_frame()).unwrap();
    std::fs::write(
        fixture_path("mixed_24x20_chunk8.inline.aesa"),
        make_archive(),
    )
    .unwrap();
}
