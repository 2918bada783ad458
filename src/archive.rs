//! Registry-driven entry points to the streaming archive layer.
//!
//! [`aesz_metrics::archive`] owns the mechanics (chunk grid, windowed
//! parallel batches, bounded-memory sources/sinks, the validated
//! on-disk format of [`aesz_metrics::container`]); this module binds them to
//! the codec [`Registry`], which is where per-chunk codec heterogeneity and
//! trained-model lookup live:
//!
//! * [`compress_field`] — archive an in-memory field with one codec;
//! * [`compress_field_with`] — pick the codec *per chunk* (e.g. a cheap
//!   traditional codec for boundary chunks and AE-SZ for the interior);
//! * [`decompress_into`] — windowed parallel decode of a whole archive into
//!   any [`ChunkSink`], dispatching every chunk to the registered codec its
//!   index entry names; [`decompress`] runs it into an in-memory field;
//! * [`decompress_chunk`] — random-access decode of a single chunk by index
//!   without touching the rest of the archive.
//!
//! Out-of-core pipelines (raw files larger than RAM) skip the field-level
//! helpers and drive [`write_archive_stream`] / [`decompress_into`] with
//! their own [`ChunkSource`] / [`ChunkSink`] — the `aesz` CLI does exactly
//! that with seek-based file IO.

pub use aesz_metrics::archive::{
    chunk_dims, write_archive_embedding, write_archive_stream, write_field_archive,
    write_field_archive_embedding, ArchiveAppender, ArchiveOptions, ArchiveReadError,
    ArchiveReader, ArchiveStats, ArchiveWriteError, ChunkSink, ChunkSource, CompressorFork,
    DecoderFork, FieldSink, FieldSource,
};
pub use aesz_metrics::container::{ArchiveHeader, ChunkEntry};

use crate::registry::Registry;
use crate::resolve::ModelResolver;
use aesz_metrics::{CodecId, CompressError, DecompressError, ErrorBound};
use aesz_tensor::{BlockSpec, Field};

/// Compress `field` into a multi-chunk archive, every chunk through the
/// registered codec `codec`. Returns the archive bytes and the writer's
/// bounded-memory stats.
pub fn compress_field(
    registry: &Registry,
    field: &Field,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codec: CodecId,
) -> Result<(Vec<u8>, ArchiveStats), ArchiveWriteError> {
    compress_field_with(registry, field, bound, opts, |_| codec)
}

/// Compress `field` into a multi-chunk archive, choosing the codec **per
/// chunk** with `pick` (called with each chunk's placement). Every named
/// codec is forked from the registry, so trained models registered via
/// [`Registry::register`] are what encode.
pub fn compress_field_with(
    registry: &Registry,
    field: &Field,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    mut pick: impl FnMut(&BlockSpec) -> CodecId,
) -> Result<(Vec<u8>, ArchiveStats), ArchiveWriteError> {
    write_field_archive(field, bound, opts, &mut |spec: &BlockSpec| {
        let id = pick(spec);
        registry
            .fork(id)
            .ok_or(CompressError::UnsupportedField("codec not registered"))
    })
}

/// [`compress_field_with`], but **embedding the trained models** of the
/// learned codecs used: each distinct model is shipped once in the
/// archive's model tail, after the last chunk frame, so the archive bytes
/// alone are enough for a fresh process — one that never saw the trainer —
/// to decode every chunk ([`decompress`] resolves embedded models
/// automatically).
pub fn compress_field_embedding(
    registry: &Registry,
    field: &Field,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    mut pick: impl FnMut(&BlockSpec) -> CodecId,
) -> Result<(Vec<u8>, ArchiveStats), ArchiveWriteError> {
    write_field_archive_embedding(field, bound, opts, &mut |spec: &BlockSpec| {
        let id = pick(spec);
        registry
            .fork(id)
            .ok_or(CompressError::UnsupportedField("codec not registered"))
    })
}

/// Decode every chunk of `reader`'s archive into `sink`, in parallel
/// windows of `window` chunks ([`ArchiveReader::decode_into`]), each chunk
/// through the registered codec its index entry names.
///
/// Learned chunks resolve their trained models per chunk, by the model id
/// stamped in the chunk's stream ([`ModelResolver`]: the registered
/// instance, the archive's embedded models, then the registry's store), and
/// fail with [`DecompressError::MissingModel`] when none of them has it.
pub fn decompress_into(
    registry: &Registry,
    reader: &ArchiveReader<'_>,
    window: usize,
    sink: &mut dyn ChunkSink,
) -> Result<(), ArchiveReadError> {
    let mut resolver = ModelResolver::for_archive(registry, reader);
    reader.decode_into(
        window,
        &mut |i, id| resolver.chunk_decoder(reader, i, id),
        sink,
    )
}

/// Decode a whole archive into an in-memory field ([`decompress_into`] a
/// [`FieldSink`]). Returns the field and the codec that decoded each chunk
/// (index order).
pub fn decompress(
    registry: &Registry,
    bytes: &[u8],
    window: usize,
) -> Result<(Field, Vec<CodecId>), ArchiveReadError> {
    let reader = ArchiveReader::open(bytes)?;
    let mut sink = FieldSink::new(reader.dims());
    decompress_into(registry, &reader, window, &mut sink)?;
    let codecs = reader.entries().iter().map(|e| e.codec).collect();
    Ok((sink.into_field(), codecs))
}

/// Random-access decode of the single chunk `index`: returns its placement
/// in the field and its reconstructed values. Only that chunk's payload is
/// decoded (plus, for a learned chunk, its model — embedded or from the
/// registry's store), but opening the archive checks every chunk's 14-byte
/// frame head against its index entry, so a damaged frame head anywhere in
/// the archive fails this call as [`ArchiveReadError::Archive`].
pub fn decompress_chunk(
    registry: &Registry,
    bytes: &[u8],
    index: usize,
) -> Result<(BlockSpec, Field), ArchiveReadError> {
    let reader = ArchiveReader::open(bytes)?;
    let (entry, spec) = reader
        .entries()
        .get(index)
        .zip(reader.chunk_spec(index))
        .ok_or(ArchiveReadError::Archive(DecompressError::Inconsistent(
            "chunk index out of range",
        )))?;
    let chunk = |error| ArchiveReadError::Chunk {
        chunk: index,
        error,
    };
    let mut codec = ModelResolver::for_archive(registry, &reader)
        .chunk_decoder(&reader, index, entry.codec)
        .map_err(chunk)?;
    let field = reader.decode_chunk(index, codec.as_mut()).map_err(chunk)?;
    Ok((spec, field))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_datagen::Application;
    use aesz_tensor::Dims;

    #[test]
    fn registry_archive_roundtrip_with_mixed_codecs() {
        let registry = Registry::with_defaults();
        let field = Application::CesmCldhgh.generate(Dims::d2(40, 56), 9);
        let opts = ArchiveOptions::new().chunk(16).window(3);
        let lenses = [
            CodecId::Sz2,
            CodecId::Zfp,
            CodecId::SzInterp,
            CodecId::SzAuto,
        ];
        let bound = ErrorBound::rel(1e-3);
        let (bytes, stats) =
            compress_field_with(&registry, &field, bound, &opts, |spec: &BlockSpec| {
                lenses[spec.index % lenses.len()]
            })
            .expect("archive write");
        assert_eq!(stats.chunks, 3 * 4);
        // The one written layout: version 3, no index table.
        let header = ArchiveReader::open(&bytes).unwrap().header();
        assert_eq!((header.version, header.index_cap), (3, 0));
        let (recon, codecs) = decompress(&registry, &bytes, 4).expect("archive read");
        assert_eq!(recon.dims(), field.dims());
        for (i, id) in codecs.iter().enumerate() {
            assert_eq!(*id, lenses[i % lenses.len()]);
        }
        let abs = bound.resolve(&field);
        for (a, b) in field.as_slice().iter().zip(recon.as_slice()) {
            assert!(((a - b) as f64).abs() <= abs * 1.0001);
        }
        // Random access agrees with the full decode, chunk by chunk.
        for i in 0..stats.chunks {
            let (spec, chunk) = decompress_chunk(&registry, &bytes, i).expect("chunk");
            assert_eq!(chunk.as_slice(), recon.read_block_valid(&spec).as_slice());
        }
        assert!(decompress_chunk(&registry, &bytes, stats.chunks).is_err());
    }

    #[test]
    fn unregistered_codecs_fail_cleanly() {
        let registry = Registry::with_defaults();
        let field = Application::CesmCldhgh.generate(Dims::d2(16, 16), 2);
        let opts = ArchiveOptions::new().chunk(8).window(2);
        let (bytes, _) = compress_field(
            &registry,
            &field,
            ErrorBound::rel(1e-3),
            &opts,
            CodecId::Sz2,
        )
        .unwrap();
        let mut sparse = Registry::empty();
        sparse.register(Box::new(aesz_baselines::Zfp::new()));
        assert!(matches!(
            decompress(&sparse, &bytes, 2),
            Err(ArchiveReadError::Chunk { .. })
        ));
        assert!(
            compress_field(&sparse, &field, ErrorBound::rel(1e-3), &opts, CodecId::Sz2).is_err()
        );
    }
}
