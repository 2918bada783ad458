//! Registry-driven incremental decoding of pushed byte streams.
//!
//! [`aesz_metrics::stream::StreamDecoder`] owns the byte-level state machine
//! (feed bytes in any granularity, get validated parse events out); this
//! module binds it to the codec [`Registry`](crate::Registry), turning
//! those events into decoded fields:
//!
//! * [`StreamFieldDecoder`] — the push-based core: [`feed`] arbitrary byte
//!   slices (a socket, a pipe, a file tail), [`poll`] decoded output —
//!   archive geometry, decoded chunks with their placement, or a whole field
//!   for single-frame streams. Resident memory is bounded by one chunk
//!   frame plus the decoder's internal buffer, never the archive.
//! * [`StreamFieldDecoder::read_field`] — the pull loop over any
//!   [`std::io::Read`]: feeds fixed-size slabs and assembles the chunks into
//!   an in-memory field under an element cap. [`decompress_reader`],
//!   [`decompress_reader_limited`] and the `aesz serve` daemon all run it.
//!
//! Trained models resolve through the same [`ModelResolver`] as the
//! buffered [`decompress`](crate::archive::decompress), with one twist
//! inherent to streaming: an archive's embedded model section arrives
//! *after* its chunks. A learned chunk whose model misses (not registered,
//! not offered yet, not in the registry's
//! [`ModelStore`](crate::model_store::ModelStore)) is parked — costing
//! compressed (not raw) bytes — and decoded the moment the tail offers the
//! model. A miss is cached for the stream, so a model entering the store
//! mid-stream is not picked up by it. A chunk still parked when the stream
//! ends goes to the registry's instance, like a miss on the buffered paths:
//! it fails with the dedicated [`DecompressError::MissingModel`] unless its
//! codec needs no network for it.
//!
//! [`feed`]: StreamFieldDecoder::feed
//! [`poll`]: StreamFieldDecoder::poll

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::archive::ArchiveReadError;
use crate::registry::RegistryAccess;
use crate::resolve::{codec_error, frame_model_id, ModelResolver};
use aesz_metrics::container::{ArchiveHeader, CodecId, ModelId};
use aesz_metrics::stream::{StreamDecoder, StreamEvent};
use aesz_metrics::{Compressor, DecompressError};
use aesz_tensor::{BlockSpec, Field};

/// One decoded unit of a pushed stream.
#[derive(Debug)]
pub enum StreamOutput {
    /// The stream is a multi-chunk archive with this geometry. Always the
    /// first output of an archive stream — a sink can size its destination
    /// before any chunk arrives.
    Header(ArchiveHeader),
    /// One decoded archive chunk and its placement in the field. Chunks
    /// normally arrive in index order; chunks deferred on a missing model
    /// are emitted later, when the archive's model tail resolves them.
    Chunk(BlockSpec, Field),
    /// The stream was a single container frame: the whole reconstruction.
    Field(Field),
}

/// One complete container frame (an archive chunk or the single frame)
/// and the trained model it names.
struct Frame {
    index: usize,
    codec: CodecId,
    model_id: Option<ModelId>,
    bytes: Vec<u8>,
}

/// Push-based incremental decoder: bytes in ([`feed`]), decoded fields and
/// chunks out ([`poll`]), bounded residency throughout.
///
/// ```no_run
/// use aesz_repro::stream::{StreamFieldDecoder, StreamOutput};
/// use aesz_repro::Registry;
///
/// let registry = Registry::with_defaults();
/// let mut decoder = StreamFieldDecoder::new(&registry);
/// # let packets: Vec<Vec<u8>> = vec![];
/// for packet in packets {
///     decoder.feed(&packet);
///     while let Some(out) = decoder.poll().unwrap() {
///         match out {
///             StreamOutput::Header(h) => eprintln!("archive of {:?}", h.dims),
///             StreamOutput::Chunk(spec, chunk) => { /* place chunk at spec */ }
///             StreamOutput::Field(field) => { /* whole reconstruction */ }
///         }
///     }
/// }
/// decoder.finish();
/// while let Some(out) = decoder.poll().unwrap() { /* tail chunks */ }
/// ```
///
/// [`feed`]: StreamFieldDecoder::feed
/// [`poll`]: StreamFieldDecoder::poll
pub struct StreamFieldDecoder<'r> {
    /// Registry access is per call ([`RegistryAccess`]): with a
    /// [`SharedRegistry`](crate::SharedRegistry) behind the resolver, no
    /// lock is ever held between [`poll`](StreamFieldDecoder::poll) calls —
    /// a caller may block on transport I/O without starving writers.
    resolver: ModelResolver<'r>,
    inner: StreamDecoder,
    header: Option<ArchiveHeader>,
    /// The codec of a single-frame stream, from its parsed frame head.
    frame_codec: Option<CodecId>,
    /// Decoded-but-not-yet-polled output (a model arriving in the tail can
    /// unblock several deferred chunks at once).
    ready: VecDeque<StreamOutput>,
    /// Frames parked on a missing model, in index order.
    deferred: VecDeque<Frame>,
}

impl<'r> StreamFieldDecoder<'r> {
    /// A decoder dispatching to `registry`'s codecs and model store — a
    /// plain [`Registry`](crate::Registry) or anything else implementing
    /// [`RegistryAccess`] (a [`SharedRegistry`](crate::SharedRegistry) for
    /// concurrent callers).
    pub fn new<R: RegistryAccess>(registry: &'r R) -> Self {
        StreamFieldDecoder {
            resolver: ModelResolver::new(registry),
            inner: StreamDecoder::new(),
            header: None,
            frame_codec: None,
            ready: VecDeque::new(),
            deferred: VecDeque::new(),
        }
    }

    /// Push the next bytes of the stream. Never fails — errors surface on
    /// [`poll`](StreamFieldDecoder::poll).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes);
    }

    /// Declare the end of input. Required: a stream that merely stops is
    /// indistinguishable from one still in flight, so truncation is only
    /// detected (and deferred chunks only fail with their missing-model
    /// error) after this call. Keep polling until `Ok(None)` afterwards.
    pub fn finish(&mut self) {
        self.inner.finish();
    }

    /// The archive geometry, once the header has been parsed (`None` before
    /// that, and forever for single-frame streams).
    pub fn archive_header(&self) -> Option<&ArchiveHeader> {
        self.header.as_ref()
    }

    /// The codec of a single-frame stream, once its 14-byte frame head has
    /// been parsed (`None` before that, and forever for archives).
    pub fn frame_codec(&self) -> Option<CodecId> {
        self.frame_codec
    }

    /// High-water mark of the parser's internal byte buffer — the witness
    /// that residency is bounded by one section, not the stream.
    pub fn peak_buffered(&self) -> usize {
        self.inner.peak_buffered()
    }

    /// Distinct trained models this stream made resident (built from the
    /// registry's store or the archive's embedded model tail).
    pub fn resolved_models(&self) -> usize {
        self.resolver.models_built()
    }

    /// Learned chunks decoded by the already-registered trained instance —
    /// no store lookup, no prototype build.
    pub fn registry_model_hits(&self) -> u64 {
        self.resolver.registry_hits()
    }

    /// Next decoded output, `Ok(None)` when more input (or
    /// [`finish`](StreamFieldDecoder::finish)) is needed. Errors are sticky;
    /// decode failures name the codec via [`DecompressError::CodecFailed`],
    /// except [`DecompressError::MissingModel`], which propagates unchanged.
    pub fn poll(&mut self) -> Result<Option<StreamOutput>, DecompressError> {
        loop {
            if let Some(out) = self.ready.pop_front() {
                return Ok(Some(out));
            }
            let Some(event) = self.inner.poll()? else {
                // End of a well-formed stream: no model the archive offered
                // unblocked these chunks, so the registry's instance gets
                // them (see the module docs).
                if !self.inner.is_done() {
                    return Ok(None);
                }
                let Some(frame) = self.deferred.pop_front() else {
                    return Ok(None);
                };
                let decoder = self.resolver.fork(frame.codec)?;
                return self.decode(decoder, &frame).map(Some);
            };
            match event {
                StreamEvent::ArchiveHeader(h) => {
                    self.header = Some(h);
                    return Ok(Some(StreamOutput::Header(h)));
                }
                StreamEvent::FrameHeader(info) if self.header.is_none() => {
                    self.frame_codec = Some(info.codec);
                }
                StreamEvent::IndexEntry { .. } | StreamEvent::FrameHeader(_) => {}
                StreamEvent::ChunkFrame {
                    index,
                    codec,
                    frame,
                } => {
                    let frame = Frame {
                        index,
                        codec,
                        model_id: frame_model_id(codec, &frame),
                        bytes: frame,
                    };
                    if let Some(out) = self.decode_or_park(frame)? {
                        return Ok(Some(out));
                    }
                }
                StreamEvent::Model { id, frame } => {
                    self.resolver.offer(id, Cow::Owned(frame));
                    // Retry every chunk parked on this model, in index order.
                    for frame in std::mem::take(&mut self.deferred) {
                        if frame.model_id != Some(id) {
                            self.deferred.push_back(frame);
                        } else if let Some(out) = self.decode_or_park(frame)? {
                            self.ready.push_back(out);
                        }
                    }
                }
            }
        }
    }

    /// Decode `frame` now, unless the model it names misses: park it then.
    fn decode_or_park(&mut self, frame: Frame) -> Result<Option<StreamOutput>, DecompressError> {
        let decoder = match frame.model_id {
            None => self.resolver.fork(frame.codec)?,
            Some(id) => match self.resolver.resolve(frame.codec, id) {
                Some(decoder) => decoder,
                None => {
                    self.deferred.push_back(frame);
                    return Ok(None);
                }
            },
        };
        self.decode(decoder, &frame).map(Some)
    }

    /// Decode `frame` and place it.
    fn decode(
        &self,
        mut decoder: Box<dyn Compressor>,
        frame: &Frame,
    ) -> Result<StreamOutput, DecompressError> {
        let field = decoder
            .decompress(&frame.bytes)
            .map_err(|error| codec_error(frame.codec, error))?;
        Ok(match self.header {
            Some(h) => StreamOutput::Chunk(BlockSpec::of(h.dims, h.chunk, frame.index), field),
            None => StreamOutput::Field(field),
        })
    }

    /// Drive this decoder over `input` to its end, reading fixed-size slabs,
    /// and assemble the reconstruction. Streams whose declared geometry
    /// (archive header dims, or a single frame's decoded field) exceeds
    /// `max_elems` elements fail with [`DecompressError::Unsupported`] — for
    /// archives *before* the destination field is allocated.
    pub fn read_field(
        &mut self,
        input: &mut dyn std::io::Read,
        max_elems: usize,
    ) -> Result<Field, ArchiveReadError> {
        let over = || {
            ArchiveReadError::Archive(DecompressError::Unsupported(
                "reconstruction exceeds the element cap",
            ))
        };
        let mut sink: Option<Field> = None;
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                self.finish();
            } else {
                // A conforming `Read` never returns more than the buffer
                // holds; a broken one must not become an out-of-bounds slice.
                self.feed(buf.get(..n).ok_or(ArchiveReadError::Archive(
                    DecompressError::Inconsistent("reader returned more bytes than requested"),
                ))?);
            }
            while let Some(out) = self.poll().map_err(ArchiveReadError::Archive)? {
                match out {
                    StreamOutput::Header(h) => {
                        if h.dims.len() > max_elems {
                            return Err(over());
                        }
                        sink = Some(Field::zeros(h.dims));
                    }
                    StreamOutput::Chunk(spec, chunk) => match sink.as_mut() {
                        Some(field) => field.write_block_valid(&spec, chunk.as_slice()),
                        None => {
                            return Err(ArchiveReadError::Archive(DecompressError::Inconsistent(
                                "chunk emitted before the archive header",
                            )))
                        }
                    },
                    StreamOutput::Field(field) => {
                        if field.len() > max_elems {
                            return Err(over());
                        }
                        sink = Some(field);
                    }
                }
            }
            if n == 0 {
                return sink.ok_or(ArchiveReadError::Archive(DecompressError::Truncated(
                    "empty stream",
                )));
            }
        }
    }
}

/// Decode a complete stream (single frame or archive) from any
/// [`std::io::Read`] into an in-memory field, reading in fixed-size slabs —
/// the pull-shaped convenience over [`StreamFieldDecoder`]. The *input* is
/// never buffered whole; the reconstruction of course is.
pub fn decompress_reader<R: RegistryAccess>(
    registry: &R,
    input: &mut dyn std::io::Read,
) -> Result<Field, ArchiveReadError> {
    decompress_reader_limited(registry, input, usize::MAX)
}

/// [`decompress_reader`] with a reconstruction cap
/// ([`StreamFieldDecoder::read_field`]) — the entry point for untrusted
/// sockets, so a hostile header cannot drive resident memory.
pub fn decompress_reader_limited<R: RegistryAccess>(
    registry: &R,
    input: &mut dyn std::io::Read,
    max_elems: usize,
) -> Result<Field, ArchiveReadError> {
    StreamFieldDecoder::new(registry).read_field(input, max_elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{compress_field_with, ArchiveOptions};
    use crate::Registry;
    use aesz_metrics::{CodecId, ErrorBound};
    use aesz_tensor::Dims;

    #[test]
    fn pushed_archive_bytes_decode_chunk_by_chunk() {
        let registry = Registry::with_defaults();
        let field = aesz_datagen::Application::CesmCldhgh.generate(Dims::d2(24, 40), 11);
        let opts = ArchiveOptions::new().chunk(8).window(2);
        let lenses = [CodecId::Zfp, CodecId::Sz2, CodecId::SzInterp];
        let bound = ErrorBound::rel(1e-3);
        let (bytes, stats) = compress_field_with(&registry, &field, bound, &opts, |spec| {
            lenses[spec.index % lenses.len()]
        })
        .unwrap();
        let (buffered, _) = crate::archive::decompress(&registry, &bytes, 3).unwrap();

        // Feed in awkward 7-byte packets; the reconstruction must be
        // byte-identical to the buffered decode.
        let mut decoder = StreamFieldDecoder::new(&registry);
        let mut recon: Option<Field> = None;
        let mut chunks = 0;
        let mut drain = |d: &mut StreamFieldDecoder, recon: &mut Option<Field>| {
            while let Some(out) = d.poll().unwrap() {
                match out {
                    StreamOutput::Header(h) => {
                        assert_eq!(h.dims, field.dims());
                        *recon = Some(Field::zeros(h.dims));
                    }
                    StreamOutput::Chunk(spec, chunk) => {
                        chunks += 1;
                        recon
                            .as_mut()
                            .unwrap()
                            .write_block_valid(&spec, chunk.as_slice());
                    }
                    StreamOutput::Field(_) => panic!("archive stream, not a frame"),
                }
            }
        };
        for packet in bytes.chunks(7) {
            decoder.feed(packet);
            drain(&mut decoder, &mut recon);
        }
        decoder.finish();
        drain(&mut decoder, &mut recon);
        assert_eq!(chunks, stats.chunks);
        assert_eq!(recon.unwrap().as_slice(), buffered.as_slice());
        // Residency stayed far below the archive: parser buffering is
        // bounded by one section (frame/header/index slice), not the stream.
        assert!(decoder.peak_buffered() < bytes.len());
    }

    #[test]
    fn pushed_single_frames_yield_the_whole_field() {
        let mut registry = Registry::with_defaults();
        let field = aesz_datagen::Application::CesmCldhgh.generate(Dims::d2(16, 16), 3);
        let bytes = registry
            .get_mut(CodecId::SzAuto)
            .unwrap()
            .compress(&field, ErrorBound::rel(1e-3))
            .unwrap();
        let recon = decompress_reader(&registry, &mut &bytes[..]).unwrap();
        let buffered = registry.decompress_any(&bytes).unwrap().0;
        assert_eq!(recon.as_slice(), buffered.as_slice());
        // Truncations fail instead of hanging or panicking.
        for len in [0, 5, bytes.len() - 1] {
            assert!(decompress_reader(&registry, &mut &bytes[..len]).is_err());
        }
    }
}
