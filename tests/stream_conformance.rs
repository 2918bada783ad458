//! Conformance of the streaming ingest/egress layer against the buffered
//! paths it must agree with:
//!
//! * the push-based [`StreamFieldDecoder`] must reconstruct the same field
//!   as the buffered [`ArchiveReader`] decode, at *any* feed granularity
//!   (down to one byte at a time) and any decode window, across all seven
//!   codecs — including learned chunks whose embedded models only arrive in
//!   the archive tail;
//! * a truncated or header-corrupted stream must error in both paths —
//!   never a panic, never a silent partial field — and a chunk frame that
//!   does not fill its grid cell must fail both with the same error;
//! * an archive grown in place with [`ArchiveAppender`] must reopen as a
//!   plain archive whose chunks — old and new — random-access decode, with
//!   the original payload bytes untouched.

use std::io::Cursor;
use std::sync::OnceLock;

use aesz_repro::archive::{
    compress_field, compress_field_embedding, decompress, decompress_chunk, ArchiveAppender,
    ArchiveOptions, ArchiveReadError, ArchiveReader, FieldSource,
};
use aesz_repro::metrics::container::{peek, ArchiveHeader, FRAME_LEN};
use aesz_repro::metrics::legacy::{relay, Layout};
use aesz_repro::metrics::CodecId;
use aesz_repro::stream::{decompress_reader, StreamFieldDecoder, StreamOutput};
use aesz_repro::{DecompressError, Dims, ErrorBound, Field, Registry};
use proptest::prelude::*;

mod common;

/// One archive exercising all seven codecs (cycled per chunk) with the
/// learned models *embedded*, plus its buffered reconstruction — built once,
/// since training the learned codecs dominates the suite's runtime. A fresh
/// default registry must decode it, which is exactly what the streaming
/// decoder's deferred-chunk path is for: chunks arrive before the models.
/// The archive comes as written (inline, no index table) and as the
/// version-2 copy the embedding writer emitted before every writer went
/// inline; both decode to the one reconstruction.
fn seven_codec_archives() -> &'static ([Vec<u8>; 2], Field, usize) {
    static CELL: OnceLock<([Vec<u8>; 2], Field, usize)> = OnceLock::new();
    CELL.get_or_init(|| {
        let registry = common::trained_registry();
        let field = common::field_3d();
        let all = CodecId::all();
        let opts = ArchiveOptions::new().chunk(8).window(2);
        let (bytes, stats) =
            compress_field_embedding(&registry, &field, ErrorBound::rel(1e-2), &opts, |spec| {
                all[spec.index % all.len()]
            })
            .expect("seven-codec archive");
        let fresh = Registry::with_defaults();
        let (recon, _) = decompress(&fresh, &bytes, 3).expect("buffered decode");
        let v2 = relay(&bytes, Layout::V2);
        let (v2_recon, _) = decompress(&fresh, &v2, 3).expect("buffered v2 decode");
        assert_eq!(v2_recon.as_slice(), recon.as_slice());
        ([v2, bytes], recon, stats.chunks)
    })
}

/// Push `bytes` through a [`StreamFieldDecoder`] decoding windows of
/// `window` chunks, in packets of `step`, assembling the reconstruction
/// like a consumer would: the field, the chunk indices in the order they
/// arrived, and the parser's buffer high-water mark.
fn push_decode(
    registry: &Registry,
    bytes: &[u8],
    step: usize,
    window: usize,
) -> Result<(Field, Vec<usize>, usize), DecompressError> {
    let mut decoder = StreamFieldDecoder::with_window(registry, window);
    let mut recon: Option<Field> = None;
    let mut order = Vec::new();
    let drain = |d: &mut StreamFieldDecoder, recon: &mut Option<Field>, order: &mut Vec<usize>| {
        while let Some(out) = d.poll()? {
            match out {
                StreamOutput::Header(h) => *recon = Some(Field::zeros(h.dims)),
                StreamOutput::Chunk(spec, chunk) => {
                    order.push(spec.index);
                    recon
                        .as_mut()
                        .expect("header precedes chunks")
                        .write_block_valid(&spec, chunk.as_slice());
                }
                StreamOutput::Field(field) => *recon = Some(field),
            }
        }
        Ok::<(), DecompressError>(())
    };
    for packet in bytes.chunks(step.max(1)) {
        decoder.feed(packet);
        drain(&mut decoder, &mut recon, &mut order)?;
    }
    decoder.finish();
    drain(&mut decoder, &mut recon, &mut order)?;
    let peak = decoder.peak_buffered();
    Ok((recon.expect("stream yielded a field"), order, peak))
}

proptest! {
    /// Incremental decode is granularity- and window-independent: whatever
    /// packet size the bytes arrive in — one byte, a weird prime, bigger
    /// than the archive — and however many chunks decode per window, the
    /// reconstruction is bit-identical to the buffered reader's, every
    /// chunk is emitted exactly once, chunks leave in index order except
    /// the learned ones parked until their model streams in (which leave in
    /// index order per model), and the parser's buffer high-water mark
    /// stays below the whole stream.
    #[test]
    fn incremental_decode_matches_buffered_at_any_granularity(
        step in 1usize..3000,
        window in 1usize..10,
    ) {
        let (archives, buffered, chunk_count) = seven_codec_archives();
        let fresh = Registry::with_defaults();
        for bytes in archives {
            let (recon, order, peak) =
                push_decode(&fresh, bytes, step, window).expect("stream decode");
            let mut once = order.clone();
            once.sort_unstable();
            prop_assert_eq!(once, (0..*chunk_count).collect::<Vec<_>>());
            // The model each chunk names; `None` chunks are never parked.
            let reader = ArchiveReader::open(bytes).unwrap();
            let model = |i: usize| peek(reader.chunk_frame(i).unwrap()).unwrap().model_id;
            for parked_on in order.iter().map(|&i| model(i)) {
                let same: Vec<usize> =
                    order.iter().copied().filter(|&i| model(i) == parked_on).collect();
                prop_assert!(
                    same.windows(2).all(|w| w[0] < w[1]),
                    "window {}: chunks of model {:?} left as {:?}", window, parked_on, same
                );
            }
            prop_assert_eq!(recon.dims(), buffered.dims());
            prop_assert_eq!(recon.as_slice(), buffered.as_slice());
            prop_assert!(peak < bytes.len(), "peak {} vs stream {}", peak, bytes.len());
        }
    }

    /// Every proper prefix of the archive errors in both paths: the
    /// buffered reader (which sees the truncation up front) and the push
    /// decoder (which only learns of it at `finish`). Both surface a
    /// decode-layer error, not an I/O one — truncation is a property of the
    /// stream, not of the transport.
    #[test]
    fn any_truncation_errs_in_both_paths(frac in 0usize..1000) {
        let (archives, _, _) = seven_codec_archives();
        for bytes in archives {
            let cut = frac * (bytes.len() - 1) / 999;
            let prefix = &bytes[..cut];

            let fresh = Registry::with_defaults();
            prop_assert!(decompress(&fresh, prefix, 2).is_err());
            match decompress_reader(&fresh, &mut &prefix[..]) {
                Err(ArchiveReadError::Archive(_)) => {}
                Err(other) => return Err(TestCaseError::fail(format!(
                    "streamed truncation at {cut} gave a non-archive error: {other}"
                ))),
                Ok(_) => return Err(TestCaseError::fail(format!(
                    "streamed decode accepted a {cut}-byte prefix of {} bytes", bytes.len()
                ))),
            }
        }
    }

    /// Flipping any bit of the chunk index or of a chunk frame's fixed
    /// header is rejected by both paths. (Payload bytes are exempt: a
    /// payload flip may decode to different in-bounds values, which is the
    /// codec's own conformance concern.)
    #[test]
    fn index_and_frame_header_flips_err_in_both_paths(at in 0usize..100_000, bit in 0u8..8) {
        let (archives, _, _) = seven_codec_archives();
        for bytes in archives {
            let header = ArchiveHeader::read(bytes).unwrap();
            let reader = ArchiveReader::open(bytes).unwrap();
            let mut protected: Vec<usize> =
                (header.encoded_len()..header.data_start()).collect();
            for entry in reader.entries() {
                protected.extend(entry.offset as usize..entry.offset as usize + FRAME_LEN);
            }
            let at = protected[at % protected.len()];
            let mut evil = bytes.clone();
            evil[at] ^= 1 << bit;

            let fresh = Registry::with_defaults();
            prop_assert!(decompress(&fresh, &evil, 2).is_err());
            prop_assert!(decompress_reader(&fresh, &mut &evil[..]).is_err());
        }
    }

    /// Append + reopen is indistinguishable from having written the grown
    /// archive in the first place: the base archive's payload bytes are
    /// untouched, the reopened index covers old and new chunks, every chunk
    /// random-access decodes within the bound, and both the buffered and
    /// the push decoder reconstruct the same grown field.
    #[test]
    fn append_then_reopen_roundtrips_with_random_access(pre in 1usize..4, post in 1usize..4) {
        let chunk = 8usize;
        let fast = 24usize;
        let full = Field::from_fn(Dims::d2((pre + post) * chunk, fast), |c| {
            ((c[0] as f32) * 0.13).sin() + ((c[1] as f32) * 0.29).cos() * 0.5
        });
        let row = fast;
        let (base_vals, slab_vals) = full.as_slice().split_at(pre * chunk * row);
        let base = Field::from_vec(Dims::d2(pre * chunk, fast), base_vals.to_vec()).unwrap();
        let slab = Field::from_vec(Dims::d2(post * chunk, fast), slab_vals.to_vec()).unwrap();
        let bound = ErrorBound::abs(1e-3);
        let per_band = fast.div_ceil(chunk);

        let registry = Registry::with_defaults();
        let opts = ArchiveOptions::new().chunk(chunk).window(2);
        let (inline, base_stats) =
            compress_field(&registry, &base, bound, &opts, CodecId::Sz2).unwrap();
        // As written (no index, no capacity to run out of) and as an
        // indexed file with exactly the slots the slab needs.
        let indexed = relay(&inline, Layout::Indexed { spare: post * per_band });

        for bytes in [indexed, inline] {
            let has_index = ArchiveHeader::read(&bytes).unwrap().index_slots() > 0;
            let mut appender = ArchiveAppender::open(Cursor::new(bytes.clone())).unwrap();
            let spare = if has_index { post * per_band } else { usize::MAX };
            prop_assert_eq!(appender.spare_slots(), spare);
            let stats = appender
                .append(&mut FieldSource(&slab), bound, 2, &mut |_| {
                    registry
                        .fork(CodecId::Zfp)
                        .ok_or(aesz_repro::CompressError::UnsupportedField("zfp"))
                })
                .unwrap();
            prop_assert_eq!(stats.chunks, post * per_band);
            let grown = appender.finalize().unwrap().into_inner();

            // Existing payload bytes were never rewritten.
            let data_start = ArchiveHeader::read(&bytes).unwrap().data_start();
            let old_payload = &bytes[data_start..];
            prop_assert_eq!(&grown[data_start..data_start + old_payload.len()], old_payload);

            let reader = ArchiveReader::open(&grown).unwrap();
            prop_assert_eq!(reader.dims(), full.dims());
            prop_assert_eq!(reader.chunk_count(), base_stats.chunks + stats.chunks);
            // Every reserved slot was consumed; an inline archive stays
            // inline.
            let slots = if has_index { reader.chunk_count() } else { 0 };
            prop_assert_eq!(reader.header().index_slots(), slots);

            // Every chunk — pre-existing and appended — random-access
            // decodes within the bound.
            for i in 0..reader.chunk_count() {
                let (spec, chunk_field) = decompress_chunk(&registry, &grown, i).unwrap();
                let original = full.read_block_valid(&spec);
                for (a, b) in original.iter().zip(chunk_field.as_slice()) {
                    prop_assert!(((a - b) as f64).abs() <= 1e-3 * 1.0001);
                }
            }

            // Buffered and pushed full decodes agree bit for bit.
            let (buffered, _) = decompress(&registry, &grown, 3).unwrap();
            let (pushed, order, _) = push_decode(&registry, &grown, 61, 2).unwrap();
            prop_assert_eq!(order, (0..reader.chunk_count()).collect::<Vec<_>>());
            prop_assert_eq!(pushed.as_slice(), buffered.as_slice());
        }
    }
}

/// The byte-at-a-time extreme is the classic state-machine bug magnet, so
/// it gets a dedicated (non-random) lock next to the proptest sweep.
#[test]
fn one_byte_packets_decode_identically() {
    let (archives, buffered, chunk_count) = seven_codec_archives();
    let fresh = Registry::with_defaults();
    for bytes in archives {
        let (recon, order, _) = push_decode(&fresh, bytes, 1, 8).expect("stream decode");
        assert_eq!(order.len(), *chunk_count);
        assert_eq!(recon.as_slice(), buffered.as_slice());
    }
}

/// An 8×16 ZFP archive of two 8×8 chunks whose chunk-1 frame is replaced
/// by a valid ZFP frame of an `edge`×`edge` field: well-formed bytes, a
/// chunk that does not fill its grid cell.
fn archive_with_a_misfit_chunk(registry: &Registry, edge: usize) -> Vec<u8> {
    let field = Field::from_fn(Dims::d2(8, 16), |c| (c[0] * 16 + c[1]) as f32 * 0.01);
    let bound = ErrorBound::abs(1e-3);
    let opts = ArchiveOptions::new().chunk(8).window(2);
    let (mut bytes, _) = compress_field(registry, &field, bound, &opts, CodecId::Zfp).unwrap();
    let misfit = registry
        .fork(CodecId::Zfp)
        .unwrap()
        .compress(&Field::zeros(Dims::d2(edge, edge)), bound)
        .unwrap();
    // The inline layout ends with chunk 1's frame: swap it out whole.
    let entry = ArchiveReader::open(&bytes).unwrap().entries()[1];
    bytes.truncate(entry.offset as usize);
    bytes.extend_from_slice(&misfit);
    bytes
}

/// A frame that decodes to too few (4×4) or too many (16×16) values for
/// its 8×8 cell fails the push decoder with the buffered reader's error —
/// at one-byte and whole-stream packets, serial and windowed — and never
/// reaches the sink.
#[test]
fn chunks_that_miss_their_grid_cell_fail_both_paths_alike() {
    let registry = Registry::with_defaults();
    for edge in [4, 16] {
        let bytes = archive_with_a_misfit_chunk(&registry, edge);
        let want = match decompress(&registry, &bytes, 2) {
            Err(ArchiveReadError::Chunk { chunk: 1, error }) => error,
            other => panic!("{edge}×{edge}: buffered decode gave {other:?}"),
        };
        assert_eq!(
            want,
            DecompressError::Inconsistent("chunk reconstruction disagrees with the archive grid")
        );
        for step in [1, bytes.len()] {
            for window in [1, 8] {
                let got = push_decode(&registry, &bytes, step, window).err();
                assert_eq!(
                    got.as_ref(),
                    Some(&want),
                    "{edge}×{edge}, step {step}, window {window}"
                );
            }
        }
        match decompress_reader(&registry, &mut &bytes[..]) {
            Err(ArchiveReadError::Archive(error)) => assert_eq!(error, want),
            other => panic!("{edge}×{edge}: reader gave {other:?}"),
        }
    }
}
