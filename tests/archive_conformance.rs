//! Conformance suite of the chunked streaming archive layer: every codec
//! must round-trip through the archive path across ranks, awkward chunk
//! grids and window sizes; random-access chunk decode must match the full
//! decode byte-for-byte; and corrupted archives — truncated anywhere,
//! index offsets flipped, chunk counts lied about — must produce an `Err`,
//! never a panic and never an input-independent allocation.

use std::io::Cursor;

use aesz_repro::archive::{
    compress_field, compress_field_with, decompress, decompress_chunk, ArchiveAppender,
    ArchiveOptions, ArchiveReadError, ArchiveReader,
};
use aesz_repro::metrics::container::{
    ArchiveHeader, ARCHIVE_VERSION_APPEND, CHUNK_ENTRY_LEN, FRAME_LEN,
};
use aesz_repro::metrics::legacy::{relay, Layout};
use aesz_repro::metrics::{CodecId, DecompressError, ErrorBound};
use aesz_repro::tensor::BlockSpec;
use aesz_repro::{Dims, Field, Registry};
use proptest::prelude::*;

mod common;
use common::trained_registry;

/// Deterministic smooth-ish field (no datagen dependency, so chunk contents
/// are stable under RNG changes).
fn wavy(dims: Dims) -> Field {
    Field::from_fn(dims, |c| {
        let mut v = 0.35f32;
        for (ax, &x) in c.iter().enumerate() {
            v += ((x as f32) * 0.17 + ax as f32).sin() * 0.5;
        }
        v
    })
}

/// The rank-appropriate test geometries: extents the chunk edge does not
/// divide, a single-chunk case (chunk ≥ every extent), and a many-chunk case.
fn geometries(rank: usize) -> Vec<(Dims, usize)> {
    match rank {
        1 => vec![(Dims::d1(135), 32), (Dims::d1(40), 64), (Dims::d1(96), 8)],
        2 => vec![
            (Dims::d2(44, 38), 16),
            (Dims::d2(30, 19), 7),
            (Dims::d2(24, 24), 64),
        ],
        _ => vec![(Dims::d3(14, 12, 10), 8), (Dims::d3(8, 8, 8), 16)],
    }
}

/// Ranks a codec's archive path is exercised on. AE-B is rank-3-only; the
/// others accept any rank (AE-SZ falls back to Lorenzo off its model rank).
fn ranks(id: CodecId) -> Vec<usize> {
    match id {
        CodecId::AeB => vec![3],
        _ => vec![1, 2, 3],
    }
}

#[test]
fn every_codec_roundtrips_through_the_archive_path() {
    let registry = trained_registry();
    let bound = ErrorBound::rel(1e-2);
    for id in CodecId::all() {
        let bounded = registry.get(id).expect("registered").is_error_bounded();
        for rank in ranks(id) {
            for (dims, chunk) in geometries(rank) {
                let field = wavy(dims);
                let opts = ArchiveOptions::new().chunk(chunk).window(3);
                let (bytes, stats) = compress_field(&registry, &field, bound, &opts, id)
                    .unwrap_or_else(|e| panic!("{id} failed to archive {dims}/{chunk}: {e}"));
                assert_eq!(stats.raw_bytes, field.len() * 4);
                assert!(stats.peak_window_raw_bytes <= stats.raw_bytes);
                let grid_chunks: usize = dims.block_grid(chunk).iter().product();
                assert_eq!(stats.chunks, grid_chunks);

                let (recon, codecs) = decompress(&registry, &bytes, 4)
                    .unwrap_or_else(|e| panic!("{id} failed to read {dims}/{chunk} back: {e}"));
                assert_eq!(recon.dims(), dims);
                assert!(codecs.iter().all(|&c| c == id));
                if bounded {
                    let abs = bound.resolve(&field);
                    for (i, (a, b)) in field.as_slice().iter().zip(recon.as_slice()).enumerate() {
                        assert!(
                            ((a - b) as f64).abs() <= abs * 1.0001,
                            "{id} violated the bound at element {i} of {dims}/{chunk}"
                        );
                    }
                } else {
                    let (lo, hi) = field.min_max();
                    let slack = (hi - lo) * 0.5;
                    assert!(
                        recon
                            .as_slice()
                            .iter()
                            .all(|&v| v.is_finite() && v >= lo - slack && v <= hi + slack),
                        "{id} reconstruction left the data envelope"
                    );
                }

                // Random access: every chunk decoded alone must be
                // byte-identical to its region of the full decode.
                for i in 0..stats.chunks {
                    let (spec, chunk_field) = decompress_chunk(&registry, &bytes, i)
                        .unwrap_or_else(|e| panic!("{id} chunk {i} of {dims}/{chunk}: {e}"));
                    let region = recon.read_block_valid(&spec);
                    assert_eq!(chunk_field.len(), region.len());
                    for (a, b) in chunk_field.as_slice().iter().zip(region.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{id} chunk {i} diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn window_size_does_not_change_the_archive() {
    let registry = Registry::with_defaults();
    let field = wavy(Dims::d2(40, 28));
    let bound = ErrorBound::rel(1e-3);
    let reference = compress_field(
        &registry,
        &field,
        bound,
        &ArchiveOptions::new().chunk(8).window(1),
        CodecId::Sz2,
    )
    .unwrap()
    .0;
    for window in [2, 5, 100] {
        let bytes = compress_field(
            &registry,
            &field,
            bound,
            &ArchiveOptions::new().chunk(8).window(window),
            CodecId::Sz2,
        )
        .unwrap()
        .0;
        assert_eq!(bytes, reference, "window {window} changed the stream");
        let (recon, _) = decompress(&registry, &bytes, window).unwrap();
        let (ref_recon, _) = decompress(&registry, &reference, 1).unwrap();
        assert_eq!(recon.as_slice(), ref_recon.as_slice());
    }
}

#[test]
fn heterogeneous_archives_dispatch_each_chunk_to_its_codec() {
    let registry = trained_registry();
    let field = wavy(Dims::d2(48, 32));
    let lenses = [
        CodecId::Sz2,
        CodecId::Zfp,
        CodecId::SzInterp,
        CodecId::SzAuto,
        CodecId::AeSz,
    ];
    let bound = ErrorBound::rel(1e-2);
    let opts = ArchiveOptions::new().chunk(16).window(4);
    let (bytes, stats) =
        compress_field_with(&registry, &field, bound, &opts, |spec: &BlockSpec| {
            lenses[spec.index % lenses.len()]
        })
        .expect("mixed archive");
    let reader = ArchiveReader::open(&bytes).expect("open");
    for (i, entry) in reader.entries().iter().enumerate() {
        assert_eq!(entry.codec, lenses[i % lenses.len()]);
    }
    let (recon, codecs) = decompress(&registry, &bytes, 3).expect("mixed decode");
    assert_eq!(codecs.len(), stats.chunks);
    let abs = bound.resolve(&field);
    for (a, b) in field.as_slice().iter().zip(recon.as_slice()) {
        assert!(((a - b) as f64).abs() <= abs * 1.0001);
    }
}

/// A small single-codec archive for the corruption harness, as written
/// (inline, no index table) and as the version-1 copy the writer emitted
/// before every writer went inline.
fn small_archives() -> (Registry, [Vec<u8>; 2]) {
    let registry = Registry::with_defaults();
    let field = wavy(Dims::d2(20, 14));
    let bytes = compress_field(
        &registry,
        &field,
        ErrorBound::rel(1e-3),
        &ArchiveOptions::new().chunk(8).window(2),
        CodecId::Sz2,
    )
    .unwrap()
    .0;
    (registry, [relay(&bytes, Layout::V1), bytes])
}

#[test]
fn truncation_at_every_offset_returns_err_never_panics() {
    let (registry, archives) = small_archives();
    for bytes in archives {
        for len in 0..bytes.len() {
            assert!(
                decompress(&registry, &bytes[..len], 2).is_err(),
                "archive prefix of {len}/{} bytes decoded",
                bytes.len()
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decompress(&registry, &padded, 2).is_err());
    }
}

#[test]
fn lying_headers_and_flipped_index_offsets_are_rejected() {
    let (registry, archives) = small_archives();
    for bytes in archives {
        let header = ArchiveHeader::read(&bytes).unwrap();
        // Chunk edge, then chunk count, right after the two extents.
        let (edge_at, count_at) = (24, 32);
        let assert_rejected = |evil: Vec<u8>, what: &str| {
            assert!(
                decompress(&registry, &evil, 2).is_err(),
                "corruption `{what}` of a v{} archive decoded",
                header.version
            );
        };

        // Lie about the chunk count (both directions).
        for delta in [1u8, 0xFF] {
            let mut evil = bytes.clone();
            evil[count_at] = evil[count_at].wrapping_add(delta);
            assert_rejected(evil, "chunk count");
        }
        // Zero and inflate the chunk edge (changes the grid → count
        // mismatch).
        for patch in [0u64, 3, u64::MAX] {
            let mut evil = bytes.clone();
            evil[edge_at..edge_at + 8].copy_from_slice(&patch.to_le_bytes());
            assert_rejected(evil, "chunk edge");
        }
        // Zero and explode an extent.
        for patch in [0u64, 1 << 40] {
            let mut evil = bytes.clone();
            evil[8..16].copy_from_slice(&patch.to_le_bytes());
            assert_rejected(evil, "extent");
        }
        // Unknown dtype / rank / reserved flags / version / magic.
        for (at, val) in [(5usize, 2u8), (6, 0), (6, 4), (7, 1), (4, 9), (0, b'X')] {
            let mut evil = bytes.clone();
            evil[at] = val;
            assert_rejected(evil, "header byte");
        }

        // Each chunk's codec, offset and length: an index entry, or the head
        // of its frame when the archive has no index table (there the
        // offset is implied by the previous frame, so the lengths carry it).
        let reader = ArchiveReader::open(&bytes).unwrap();
        let (codec_at, len_at): (Vec<usize>, Vec<usize>) = if header.index_slots() > 0 {
            let entry = |i: usize| header.encoded_len() + i * CHUNK_ENTRY_LEN;
            // Swap the offsets of the first two index entries.
            let mut evil = bytes.clone();
            let (a, b) = (entry(0) + 1, entry(1) + 1);
            for k in 0..8 {
                evil.swap(a + k, b + k);
            }
            assert_rejected(evil, "swapped offsets");
            // Nudge an offset.
            for at in [entry(0) + 1, entry(1) + 1] {
                for delta in [1u8, 0x80] {
                    let mut evil = bytes.clone();
                    evil[at] = evil[at].wrapping_add(delta);
                    assert_rejected(evil, "index offset");
                }
            }
            (vec![entry(0), entry(1)], vec![entry(0) + 9, entry(1) + 9])
        } else {
            let frame = |i: usize| reader.entries()[i].offset as usize;
            (
                vec![frame(0) + 5, frame(1) + 5],
                vec![frame(0) + 6, frame(1) + 6],
            )
        };
        // Swap the lengths of the first two chunks.
        let mut evil = bytes.clone();
        for k in 0..8 {
            evil.swap(len_at[0] + k, len_at[1] + k);
        }
        assert_rejected(evil, "swapped lengths");
        // Nudge a length and a codec id.
        for at in [len_at[0], len_at[1], codec_at[0], codec_at[1]] {
            for delta in [1u8, 0x80] {
                let mut evil = bytes.clone();
                evil[at] = evil[at].wrapping_add(delta);
                assert_rejected(evil, "chunk length or codec");
            }
        }
        let mut evil = bytes.clone();
        evil[codec_at[0]] = 0;
        assert_rejected(evil, "codec id 0");
        let mut evil = bytes.clone();
        evil[codec_at[0]] = 200;
        assert_rejected(evil, "codec id 200");
    }
}

/// A 48-byte inline v3 archive that declares 2³¹ one-element chunks and
/// holds no frame is a truncated stream to every entry point: none of them
/// may size an allocation from the declared chunk count.
#[test]
fn a_frameless_header_declaring_two_billion_chunks_is_truncated() {
    let header = ArchiveHeader {
        dims: Dims::d1(1 << 31),
        chunk: 1,
        version: ARCHIVE_VERSION_APPEND,
        model_len: 0,
        index_cap: 0,
    };
    let mut bytes = Vec::new();
    header.write(&mut bytes);
    assert_eq!(bytes.len(), 48);
    let truncated = DecompressError::Truncated("archive chunk data");

    assert_eq!(ArchiveReader::open(&bytes).err(), Some(truncated.clone()));
    let registry = Registry::with_defaults();
    assert!(matches!(
        decompress(&registry, &bytes, 2),
        Err(ArchiveReadError::Archive(ref e)) if *e == truncated
    ));
    assert!(matches!(
        decompress_chunk(&registry, &bytes, 0),
        Err(ArchiveReadError::Archive(ref e)) if *e == truncated
    ));
    assert!(matches!(
        ArchiveAppender::open(Cursor::new(bytes)),
        Err(ArchiveReadError::Archive(ref e)) if *e == truncated
    ));
}

proptest! {
    /// Flipping any single byte of the chunk index, or of any chunk frame's
    /// fixed header, must surface as an `Err` (the index tiling invariant,
    /// the per-frame length check and the codec-id cross-checks leave no
    /// silently-accepted bit). Chunk *payload* bytes are exempt: a payload
    /// flip may decode to different in-bounds values, which is the codec's
    /// own conformance concern.
    #[test]
    fn any_index_or_frame_header_byte_flip_is_rejected(at in 0usize..1000, bit in 0u8..8) {
        let (registry, archives) = small_archives();
        for bytes in archives {
            let header = ArchiveHeader::read(&bytes).unwrap();
            let reader = ArchiveReader::open(&bytes).unwrap();
            let mut protected: Vec<usize> =
                (header.encoded_len()..header.data_start()).collect();
            for entry in reader.entries() {
                protected.extend(entry.offset as usize..entry.offset as usize + FRAME_LEN);
            }
            let at = protected[at % protected.len()];
            let mut evil = bytes.clone();
            evil[at] ^= 1 << bit;
            prop_assert!(
                decompress(&registry, &evil, 2).is_err(),
                "flipping bit {} of byte {} of a v{} archive was accepted",
                bit,
                at,
                header.version
            );
        }
    }

    /// Random multi-byte stompings anywhere in the archive must never panic
    /// (errors and — for payload-only damage — decodes are both acceptable).
    #[test]
    fn random_corruption_never_panics(
        at in 0usize..4096,
        len in 1usize..16,
        fill in 0u8..=255,
    ) {
        let (registry, archives) = small_archives();
        for bytes in archives {
            let at = at % bytes.len();
            let end = (at + len).min(bytes.len());
            let mut evil = bytes.clone();
            for b in &mut evil[at..end] {
                *b = fill;
            }
            let _ = decompress(&registry, &evil, 2);
            let _ = decompress_chunk(&registry, &evil, 0);
        }
        prop_assert!(true);
    }
}
