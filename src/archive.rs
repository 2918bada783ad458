//! Registry-driven entry points to the streaming archive layer.
//!
//! [`aesz_metrics::archive`] owns the mechanics (chunk grid, windowed
//! rayon-parallel batches, bounded-memory sources/sinks, the validated
//! on-disk format of [`aesz_metrics::container`]); this module binds them to
//! the codec [`Registry`], which is where per-chunk codec heterogeneity and
//! trained-model lookup live:
//!
//! * [`compress_field`] — archive an in-memory field with one codec;
//! * [`compress_field_with`] — pick the codec *per chunk* (e.g. a cheap
//!   traditional codec for boundary chunks and AE-SZ for the interior);
//! * [`decompress`] — windowed parallel decode of a whole archive,
//!   dispatching every chunk to the registered codec its index entry names;
//! * [`decompress_chunk`] — random-access decode of a single chunk by index
//!   without touching the rest of the archive.
//!
//! Out-of-core pipelines (raw files larger than RAM) skip the field-level
//! helpers and drive [`write_archive`] / [`ArchiveReader::decode_into`] with
//! their own [`ChunkSource`] / [`ChunkSink`] — the `aesz` CLI does exactly
//! that with seek-based file IO.

pub use aesz_metrics::archive::{
    chunk_dims, write_archive, write_archive_embedding, write_archive_stream, write_field_archive,
    write_field_archive_embedding, ArchiveAppender, ArchiveOptions, ArchiveReadError,
    ArchiveReader, ArchiveStats, ArchiveWriteError, ChunkSink, ChunkSource, CompressorFork,
    DecoderFork, FieldSink, FieldSource,
};
pub use aesz_metrics::container::{ArchiveHeader, ChunkEntry};

use crate::model_store::build_compressor;
use crate::registry::Registry;
use aesz_metrics::{
    CodecId, CompressError, Compressor, DecompressError, EmbeddedModel, ErrorBound, ModelId,
};
use aesz_tensor::{BlockSpec, Field};
use std::collections::HashMap;

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

/// [`compress_field_with`], but as a **version-2 archive that embeds the
/// trained models** of the learned codecs used: each distinct model is
/// shipped once in the archive's model section, so the archive bytes alone
/// are enough for a fresh process — one that never saw the trainer — to
/// decode every chunk ([`decompress`] resolves embedded models
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

/// Read the model id stamped into a chunk frame's payload, for the learned
/// codecs that stamp one. Traditional codecs and pre-model streams yield
/// `None`, as does a frame whose codec disagrees with its index entry.
fn peek_stream_model_id(codec: CodecId, frame: &[u8]) -> Option<ModelId> {
    aesz_metrics::container::peek(frame)
        .ok()
        .filter(|info| info.codec == codec)?
        .model_id
}

/// Per-archive trained-model resolution: one built compressor prototype per
/// distinct `(codec, model id)` pair the archive's chunks reference, so an
/// archive whose chunks of one codec were encoded by *different* trained
/// models (all embedded, or all in the store) still decodes — dispatch is
/// per chunk, not per codec.
///
/// Models resolve from the archive's embedded model section (v2,
/// hash-verified at open) first, then from the registry's [`ModelStore`]
/// (in-memory registrations and sidecar files); ids the registered instance
/// already holds need no prototype (the plain registry fork serves them),
/// and unresolvable ids are left to the codec itself, which reports the
/// dedicated [`DecompressError::MissingModel`] at decode time.
///
/// [`ModelStore`]: crate::model_store::ModelStore
pub struct ArchiveDecoders<'a> {
    registry: &'a Registry,
    /// One entry per distinct `(codec, model id)` the chunks reference —
    /// `None` records a resolution that failed (model absent or corrupt),
    /// so a missing model costs one lookup, not one per chunk.
    resolved: HashMap<(CodecId, ModelId), Option<Box<dyn Compressor>>>,
}

impl<'a> ArchiveDecoders<'a> {
    /// Resolve every distinct `(codec, model id)` pair referenced by
    /// `reader`'s chunks (each model is looked up, verified and built once,
    /// however many chunks share it).
    pub fn resolve(registry: &'a Registry, reader: &ArchiveReader) -> Self {
        let mut resolved = HashMap::new();
        for (i, entry) in reader.entries().iter().enumerate() {
            let codec = entry.codec;
            if !matches!(codec, CodecId::AeSz | CodecId::AeA | CodecId::AeB) {
                continue;
            }
            let Some(frame) = reader.chunk_frame(i) else {
                continue;
            };
            let Some(model_id) = peek_stream_model_id(codec, frame) else {
                continue;
            };
            let key = (codec, model_id);
            if resolved.contains_key(&key) {
                continue;
            }
            // The registered instance may already hold this model (cached-id
            // comparison — no serialization).
            if registry.get(codec).and_then(|c| c.embedded_model_id()) == Some(model_id) {
                continue;
            }
            let model = match reader.model_frame(model_id) {
                // Embedded frames were hash-verified when the reader opened.
                Some(mf) => EmbeddedModel::from_frame(mf).ok().map(|(m, _)| m),
                None => registry
                    .model_store()
                    .lookup(model_id)
                    .filter(|m| m.codec() == codec),
            };
            // Failed resolutions are cached too (as None): the codec itself
            // reports MissingModel per chunk, and re-probing sidecar
            // directories for every chunk of an absent model would be
            // O(chunks × model bytes).
            resolved.insert(key, model.and_then(|m| build_compressor(&m).ok()));
        }
        ArchiveDecoders { registry, resolved }
    }

    /// The decoder for chunk `index` of `reader` (codec `id` per its index
    /// entry): a fork of the chunk's resolved trained prototype when one was
    /// built, the plain registry instance otherwise — the factory shape
    /// [`ArchiveReader::decode_into`] consumes.
    pub fn fork_for(
        &self,
        reader: &ArchiveReader,
        index: usize,
        id: CodecId,
    ) -> Result<Box<dyn Compressor>, DecompressError> {
        if let Some(frame) = reader.chunk_frame(index) {
            if let Some(model_id) = peek_stream_model_id(id, frame) {
                if let Some(Some(proto)) = self.resolved.get(&(id, model_id)) {
                    return Ok(proto.fork());
                }
            }
        }
        self.registry
            .fork(id)
            .ok_or(DecompressError::UnknownCodec(id as u8))
    }
}

/// Decode a whole archive into an in-memory field, dispatching every chunk
/// to the registered codec its index entry names, in rayon-parallel windows
/// of `window` chunks. Returns the field and the codec that decoded each
/// chunk (index order).
///
/// Learned chunks resolve their trained models automatically (per chunk, by
/// the model id stamped in the chunk's stream — see [`ArchiveDecoders`]) and
/// fail with [`DecompressError::MissingModel`] when neither the archive nor
/// the registry's store has the model a stream names.
pub fn decompress(
    registry: &Registry,
    bytes: &[u8],
    window: usize,
) -> Result<(Field, Vec<CodecId>), ArchiveReadError> {
    let reader = ArchiveReader::open(bytes)?;
    let codecs: Vec<CodecId> = reader.entries().iter().map(|e| e.codec).collect();
    let decoders = ArchiveDecoders::resolve(registry, &reader);
    let field = reader.decode_all(window, &mut |index, id| {
        decoders.fork_for(&reader, index, id)
    })?;
    Ok((field, codecs))
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
    let entry = *reader
        .entries()
        .get(index)
        .ok_or(ArchiveReadError::Archive(DecompressError::Inconsistent(
            "chunk index out of range",
        )))?;
    // Resolve just this chunk's model (if any), not the whole archive's.
    let mut codec = resolve_one(registry, &reader, index, entry.codec).map_or_else(
        || {
            registry.fork(entry.codec).ok_or(ArchiveReadError::Archive(
                DecompressError::UnknownCodec(entry.codec as u8),
            ))
        },
        Ok,
    )?;
    let spec = reader.chunk_spec(index).ok_or(ArchiveReadError::Archive(
        DecompressError::Inconsistent("chunk index out of range"),
    ))?;
    let field = reader
        .decode_chunk(index, codec.as_mut())
        .map_err(|error| ArchiveReadError::Chunk {
            chunk: index,
            error,
        })?;
    Ok((spec, field))
}

/// Build the trained compressor chunk `index`'s stream names, if its model
/// can be found and the registered instance does not already hold it.
fn resolve_one(
    registry: &Registry,
    reader: &ArchiveReader,
    index: usize,
    codec: CodecId,
) -> Option<Box<dyn Compressor>> {
    if !matches!(codec, CodecId::AeSz | CodecId::AeA | CodecId::AeB) {
        return None;
    }
    let model_id = peek_stream_model_id(codec, reader.chunk_frame(index)?)?;
    if registry.get(codec).and_then(|c| c.embedded_model_id()) == Some(model_id) {
        return None;
    }
    let model = match reader.model_frame(model_id) {
        Some(mf) => EmbeddedModel::from_frame(mf).ok()?.0,
        None => registry
            .model_store()
            .lookup(model_id)
            .filter(|m| m.codec() == codec)?,
    };
    build_compressor(&model).ok()
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
