//! Decode-time trained-model resolution: the one place where the
//! `(codec, ModelId)` a stream names becomes a trained decoder.
//!
//! The learned codecs (AE-SZ, AE-A, AE-B) stamp the content-addressed id of
//! the network that encoded a stream into it, and decoding needs exactly
//! that network. A [`ModelResolver`] lives for one decode session — one
//! archive, one pushed stream — and every decode path takes its decoders
//! from it: [`crate::archive::decompress`], [`crate::archive::decompress_chunk`],
//! [`crate::stream::StreamFieldDecoder`] (hence [`crate::decompress_reader`]
//! and the daemon) and the `aesz` CLI. For a frame of codec C naming model M
//! they all follow one order:
//!
//! 1. the instance registered for C holds M: fork it (a registry hit);
//! 2. a prototype for (C, M) was built earlier in this session: fork it;
//! 3. the archive offered an embedded M whose `AESM` frame names C: build it;
//! 4. the registry's [`ModelStore`](crate::ModelStore) (memory, then
//!    sidecars) holds M under C: build it;
//! 5. otherwise the miss is cached for the session until an embedded M is
//!    offered, so an absent model costs one store probe, not one per chunk.
//!
//! Frames that name no model (the traditional codecs, pre-model streams) go
//! straight to the registry's instance. On a miss the buffered paths hand
//! the chunk to the registry's instance too, whose codec then reports
//! [`DecompressError::MissingModel`] (or decodes it, for an AE-SZ stream
//! with no AE-predicted block); the push decoder parks the frame until the
//! archive's model tail and does the same when the stream ends. A single
//! `AESC` frame ([`decompress_frame`], hence
//! [`Registry::decompress_any`](crate::Registry::decompress_any)) is a
//! one-frame session with nothing offered.
//!
//! The resolver never mutates the registry: what it builds lives for the
//! session, so no decode path changes what is registered.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::archive::{ArchiveReader, DecoderFork};
use crate::model_store::build_compressor;
use crate::registry::RegistryAccess;
use aesz_metrics::container::{peek, peek_payload_model_id, read_model_frame, FRAME_LEN};
use aesz_metrics::{CodecId, Compressor, DecompressError, EmbeddedModel, ModelId};
use aesz_tensor::Field;

/// The model a `codec` frame names, if any. The frame head is trusted here:
/// both archive parsers check it against the chunk's index entry.
pub(crate) fn frame_model_id(codec: CodecId, frame: &[u8]) -> Option<ModelId> {
    peek_payload_model_id(codec, frame.get(FRAME_LEN..).unwrap_or_default())
}

/// Decode one container frame from any registered codec, dispatching by
/// the codec id in its head and resolving the model it names as a
/// one-frame session. Fails (never panics) on malformed frames,
/// unregistered codecs and hostile payloads.
///
/// # Errors
///
/// Frame-level problems ([`DecompressError::BadMagic`],
/// [`DecompressError::UnknownCodec`], …) as-is, an unresolvable model as
/// [`DecompressError::MissingModel`], and any other codec failure wrapped
/// in [`DecompressError::CodecFailed`] naming the codec.
pub fn decompress_frame(
    registry: &dyn RegistryAccess,
    bytes: &[u8],
) -> Result<(Field, CodecId), DecompressError> {
    let info = peek(bytes)?;
    ModelResolver::new(registry)
        .decoder(info.codec, info.model_id)?
        .decompress(bytes)
        .map(|field| (field, info.codec))
        .map_err(|error| codec_error(info.codec, error))
}

/// The error a decode path reports when `codec` rejects a frame: a model
/// that could not be resolved stays the dedicated
/// [`DecompressError::MissingModel`]; anything else is wrapped in
/// [`DecompressError::CodecFailed`] naming the codec.
pub(crate) fn codec_error(codec: CodecId, error: DecompressError) -> DecompressError {
    match error {
        miss @ DecompressError::MissingModel { .. } => miss,
        error => DecompressError::CodecFailed {
            codec,
            error: Box::new(error),
        },
    }
}

/// One decode session's trained decoders (see the module docs for the
/// order it resolves in).
pub struct ModelResolver<'a> {
    /// Accessed per call, so a [`SharedRegistry`](crate::SharedRegistry)
    /// is never locked between resolutions.
    registry: &'a dyn RegistryAccess,
    /// Embedded `AESM` frames offered this session and not yet built.
    offered: Vec<(ModelId, Cow<'a, [u8]>)>,
    /// Prototypes built this session; `None` caches a miss.
    built: HashMap<(CodecId, ModelId), Option<Box<dyn Compressor>>>,
    registry_hits: u64,
}

impl<'a> ModelResolver<'a> {
    /// A resolver over `registry` with no embedded models offered yet.
    pub(crate) fn new(registry: &'a dyn RegistryAccess) -> Self {
        ModelResolver {
            registry,
            offered: Vec::new(),
            built: HashMap::new(),
            registry_hits: 0,
        }
    }

    /// A resolver offered every model `reader`'s archive embeds
    /// (hash-verified when the reader opened; none is built until a chunk
    /// names it).
    pub fn for_archive(registry: &'a dyn RegistryAccess, reader: &ArchiveReader<'a>) -> Self {
        let mut resolver = ModelResolver::new(registry);
        for &(id, frame) in reader.models() {
            resolver.offer(id, Cow::Borrowed(frame));
        }
        resolver
    }

    /// Offer an embedded model's verified `AESM` frame. A miss cached for
    /// `id` is forgotten, so the next frame naming it resolves again.
    pub(crate) fn offer(&mut self, id: ModelId, frame: Cow<'a, [u8]>) {
        self.built
            .retain(|&(_, model), proto| model != id || proto.is_some());
        self.offered.push((id, frame));
    }

    /// An instance of the codec registered for `codec`.
    pub(crate) fn fork(&self, codec: CodecId) -> DecoderFork {
        self.registry
            .fork_codec(codec)
            .ok_or(DecompressError::UnknownCodec(codec as u8))
    }

    /// The decoder for chunk `index` of `reader`, whose index entry names
    /// `codec` — the factory [`ArchiveReader::decode_into`] takes.
    pub fn chunk_decoder(
        &mut self,
        reader: &ArchiveReader<'_>,
        index: usize,
        codec: CodecId,
    ) -> DecoderFork {
        let model = reader
            .chunk_frame(index)
            .and_then(|frame| frame_model_id(codec, frame));
        self.decoder(codec, model)
    }

    /// The decoder for a `codec` frame naming `model`: the resolved one, or
    /// the registry's instance for a model-free frame or a miss.
    fn decoder(&mut self, codec: CodecId, model: Option<ModelId>) -> DecoderFork {
        match model.and_then(|id| self.resolve(codec, id)) {
            Some(decoder) => Ok(decoder),
            None => self.fork(codec),
        }
    }

    /// A decoder holding model `id` for `codec`, or `None` on a miss.
    pub(crate) fn resolve(&mut self, codec: CodecId, id: ModelId) -> Option<Box<dyn Compressor>> {
        if self.registry.registered_model_id(codec) == Some(id) {
            // With a shared registry every access takes its own short lock,
            // so the instance can be replaced between the id check and the
            // fork; a fork holding another model falls through to the
            // session's own prototypes.
            let fork = self
                .registry
                .fork_codec(codec)
                .filter(|fork| fork.embedded_model_id() == Some(id));
            if fork.is_some() {
                self.registry_hits += 1;
                return fork;
            }
        }
        let (offered, registry) = (&mut self.offered, self.registry);
        let proto = self.built.entry((codec, id)).or_insert_with(|| {
            let at = offered.iter().position(|(model, frame)| {
                *model == id && read_model_frame(frame).is_ok_and(|(named, _)| named == codec)
            });
            let model = match at {
                // (C, M) is built at most once, so the frame is done with.
                Some(at) => {
                    EmbeddedModel::from_frame(&offered.swap_remove(at).1)
                        .ok()?
                        .0
                }
                None => registry.lookup_model(id).filter(|m| m.codec() == codec)?,
            };
            build_compressor(&model).ok()
        });
        proto.as_ref().map(|proto| proto.fork())
    }

    /// Frames served by the registered instance's own model (step 1).
    pub(crate) fn registry_hits(&self) -> u64 {
        self.registry_hits
    }

    /// Distinct trained models this session built (steps 3 and 4).
    pub(crate) fn models_built(&self) -> usize {
        self.built.values().filter(|proto| proto.is_some()).count()
    }
}
