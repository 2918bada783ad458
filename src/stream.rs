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
//!   for single-frame streams. Complete chunk frames collect into a window
//!   that decodes in parallel, like [`ArchiveReader::decode_into`]'s. Resident
//!   memory is bounded by one window of chunks (their frames and
//!   reconstructions) plus the parser's internal buffer, never the archive.
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
//! [`ArchiveReader::decode_into`]: crate::archive::ArchiveReader::decode_into

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::archive::{chunk_dims, ArchiveOptions, ArchiveReadError};
use crate::registry::RegistryAccess;
use crate::resolve::{codec_error, frame_model_id, ModelResolver};
use aesz_metrics::container::{ArchiveHeader, CodecId, ModelId};
use aesz_metrics::stream::{StreamDecoder, StreamEvent};
use aesz_metrics::{Compressor, DecompressError};
use aesz_tensor::{lanes, BlockSpec, Field};

/// One decoded unit of a pushed stream.
#[derive(Debug)]
pub enum StreamOutput {
    /// The stream is a multi-chunk archive with this geometry. Always the
    /// first output of an archive stream — a sink can size its destination
    /// before any chunk arrives.
    Header(ArchiveHeader),
    /// One decoded archive chunk and its placement in the field. Chunks
    /// arrive in index order; chunks deferred on a missing model are
    /// emitted later, when the archive's model tail resolves them.
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
/// Complete chunk frames collect into a window of
/// [`with_window`](StreamFieldDecoder::with_window) frames, which decodes in
/// parallel (one forked decoder per frame, on the archive layer's fan-out)
/// once it is full, once the parser has no more chunk frames to give (the
/// model tail starts, or the stream ends), and before a parse error is
/// returned. Its chunks leave in index order, so batches depend on the
/// window, never on the packet size. A single-frame stream decodes as soon
/// as its frame completes.
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
    /// Frames per parallel decode (at least 1).
    window: usize,
    /// Received frames and their resolved decoders, in stream order,
    /// waiting for the window to decode.
    batch: Vec<(Frame, Box<dyn Compressor>)>,
    /// Decoded-but-not-yet-polled output (one window of chunks, or the
    /// deferred chunks a model in the tail unblocks).
    ready: VecDeque<StreamOutput>,
    /// Frames parked on a missing model, in index order.
    deferred: VecDeque<Frame>,
    /// The stream's first error, repeated by every later poll.
    failed: Option<DecompressError>,
}

impl<'r> StreamFieldDecoder<'r> {
    /// A decoder dispatching to `registry`'s codecs and model store — a
    /// plain [`Registry`](crate::Registry) or anything else implementing
    /// [`RegistryAccess`] (a [`SharedRegistry`](crate::SharedRegistry) for
    /// concurrent callers) — decoding windows of the archive layer's
    /// default size ([`ArchiveOptions::window_chunks`], 8 chunks).
    pub fn new<R: RegistryAccess>(registry: &'r R) -> Self {
        Self::with_window(registry, ArchiveOptions::default().window_chunks())
    }

    /// [`new`](StreamFieldDecoder::new) decoding `window` chunk frames at a
    /// time: the bound on resident decoded chunks and on parallelism.
    /// Window 1 decodes each chunk as its frame completes, on the calling
    /// thread; window 0 acts as 1.
    pub fn with_window<R: RegistryAccess>(registry: &'r R, window: usize) -> Self {
        StreamFieldDecoder {
            resolver: ModelResolver::new(registry),
            inner: StreamDecoder::new(),
            header: None,
            frame_codec: None,
            window: window.max(1),
            batch: Vec::new(),
            ready: VecDeque::new(),
            deferred: VecDeque::new(),
            failed: None,
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
    /// [`finish`](StreamFieldDecoder::finish)) is needed. A window's chunks
    /// are handed out one per call, in index order.
    ///
    /// Errors are sticky: the first error in stream order is returned by
    /// this call and every later one, after the chunks that precede it and
    /// with none that follow it. Decode failures name the codec via
    /// [`DecompressError::CodecFailed`], except
    /// [`DecompressError::MissingModel`], which propagates unchanged; a
    /// chunk whose reconstruction does not fill its grid cell is
    /// [`DecompressError::Inconsistent`].
    pub fn poll(&mut self) -> Result<Option<StreamOutput>, DecompressError> {
        loop {
            if let Some(out) = self.ready.pop_front() {
                return Ok(Some(out));
            }
            if let Some(error) = &self.failed {
                return Err(error.clone());
            }
            match self.advance() {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                // The frames received before the failure still decode and
                // leave first; an error among them is earlier, so it wins.
                Err(error) => self.failed = Some(self.decode_window().err().unwrap_or(error)),
            }
        }
    }

    /// Act on the parser's next event. `Ok(false)` when it needs more input
    /// or the stream is over and nothing is left to decode.
    fn advance(&mut self) -> Result<bool, DecompressError> {
        let Some(event) = self.inner.poll()? else {
            if !self.inner.is_done() || (self.batch.is_empty() && self.deferred.is_empty()) {
                return Ok(false);
            }
            // End of a well-formed stream: no model the archive offered
            // unblocked the parked chunks, so the registry's instance gets
            // them (see the module docs).
            for frame in std::mem::take(&mut self.deferred) {
                let decoder = self.resolver.fork(frame.codec)?;
                self.push(frame, decoder)?;
            }
            self.decode_window()?;
            return Ok(true);
        };
        match event {
            StreamEvent::ArchiveHeader(h) => {
                self.header = Some(h);
                self.ready.push_back(StreamOutput::Header(h));
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
                self.push_or_park(frame)?;
            }
            StreamEvent::Model { id, frame } => {
                self.resolver.offer(id, Cow::Owned(frame));
                // Retry every chunk parked on this model, in index order,
                // behind the chunk frames still in the window.
                for frame in std::mem::take(&mut self.deferred) {
                    if frame.model_id != Some(id) {
                        self.deferred.push_back(frame);
                    } else {
                        self.push_or_park(frame)?;
                    }
                }
                // The chunk frames are over: the window decodes now.
                self.decode_window()?;
            }
        }
        Ok(true)
    }

    /// Queue `frame` for the window, unless the model it names misses: park
    /// it then.
    fn push_or_park(&mut self, frame: Frame) -> Result<(), DecompressError> {
        let decoder = match frame.model_id {
            None => self.resolver.fork(frame.codec)?,
            Some(id) => match self.resolver.resolve(frame.codec, id) {
                Some(decoder) => decoder,
                None => {
                    self.deferred.push_back(frame);
                    return Ok(());
                }
            },
        };
        self.push(frame, decoder)
    }

    /// Queue `frame` and its decoder; a full window decodes. The frame of a
    /// single-frame stream skips the window and decodes at once.
    fn push(
        &mut self,
        frame: Frame,
        mut decoder: Box<dyn Compressor>,
    ) -> Result<(), DecompressError> {
        if self.header.is_none() {
            let out = decode(None, &frame, decoder.as_mut())?;
            self.ready.push_back(out);
            return Ok(());
        }
        self.batch.push((frame, decoder));
        if self.batch.len() >= self.window {
            self.decode_window()?;
        }
        Ok(())
    }

    /// Decode the queued frames in parallel and make their outputs ready in
    /// stream order, up to the first failure, which is returned.
    fn decode_window(&mut self) -> Result<(), DecompressError> {
        let mut batch = std::mem::take(&mut self.batch);
        let mut outs: Vec<Option<StreamOutput>> = batch.iter().map(|_| None).collect();
        let header = self.header;
        let decoded = lanes::run(
            batch.iter_mut().zip(outs.iter_mut()),
            |((frame, decoder), out)| {
                *out = Some(decode(header, frame, decoder.as_mut())?);
                Ok(())
            },
        );
        // Every frame before the first failure decoded; none after it leaves.
        self.ready.extend(outs.into_iter().map_while(|out| out));
        decoded
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

/// Decode `frame` through `decoder` and place it: an archive chunk must
/// fill its grid cell, as [`ArchiveReader::decode_into`] demands.
///
/// [`ArchiveReader::decode_into`]: crate::archive::ArchiveReader::decode_into
fn decode(
    header: Option<ArchiveHeader>,
    frame: &Frame,
    decoder: &mut dyn Compressor,
) -> Result<StreamOutput, DecompressError> {
    let field = decoder
        .decompress(&frame.bytes)
        .map_err(|error| codec_error(frame.codec, error))?;
    let Some(h) = header else {
        return Ok(StreamOutput::Field(field));
    };
    let spec = BlockSpec::of(h.dims, h.chunk, frame.index);
    if field.dims() != chunk_dims(&spec) {
        return Err(DecompressError::Inconsistent(
            "chunk reconstruction disagrees with the archive grid",
        ));
    }
    Ok(StreamOutput::Chunk(spec, field))
}

/// Decode a complete stream (single frame or archive) from any
/// [`std::io::Read`] into an in-memory field, reading in fixed-size slabs —
/// the pull-shaped convenience over [`StreamFieldDecoder`], decoding
/// windows of the default size. The *input* is never buffered whole; the
/// reconstruction of course is.
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
    use crate::archive::{compress_field_with, ArchiveOptions, ArchiveReader};
    use crate::Registry;
    use aesz_metrics::container::FRAME_LEN;
    use aesz_metrics::{CodecId, ErrorBound};
    use aesz_tensor::Dims;

    /// A 24×40 CESM field as 15 chunks of edge 8, cycling ZFP, SZ2.1 and
    /// SZinterp, and its buffered reconstruction.
    fn cycled_archive(registry: &Registry) -> (Field, Vec<u8>, Field) {
        let field = aesz_datagen::Application::CesmCldhgh.generate(Dims::d2(24, 40), 11);
        let opts = ArchiveOptions::new().chunk(8).window(2);
        let lenses = [CodecId::Zfp, CodecId::Sz2, CodecId::SzInterp];
        let bound = ErrorBound::rel(1e-3);
        let (bytes, stats) = compress_field_with(registry, &field, bound, &opts, |spec| {
            lenses[spec.index % lenses.len()]
        })
        .unwrap();
        assert_eq!(stats.chunks, 15);
        let (buffered, _) = crate::archive::decompress(registry, &bytes, 3).unwrap();
        (field, bytes, buffered)
    }

    /// The byte range of chunk `index`'s whole frame in `archive`.
    fn frame_range(archive: &[u8], index: usize) -> std::ops::Range<usize> {
        let entry = ArchiveReader::open(archive).unwrap().entries()[index];
        entry.offset as usize..(entry.offset + entry.len) as usize
    }

    /// Feed `bytes` whole, then poll until the stream fails: the chunk
    /// indices emitted before the error, and the error.
    fn chunks_before_error(
        decoder: &mut StreamFieldDecoder,
        bytes: &[u8],
    ) -> (Vec<usize>, DecompressError) {
        decoder.feed(bytes);
        decoder.finish();
        let mut chunks = Vec::new();
        loop {
            match decoder.poll() {
                Ok(Some(StreamOutput::Chunk(spec, _))) => chunks.push(spec.index),
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt stream decoded to the end"),
                Err(error) => return (chunks, error),
            }
        }
    }

    #[test]
    fn pushed_archive_bytes_decode_chunk_by_chunk() {
        let registry = Registry::with_defaults();
        let (field, bytes, buffered) = cycled_archive(&registry);

        // Feed in awkward 7-byte packets at every window shape (0 acts as
        // 1; 20 exceeds the chunk count); the reconstruction must be
        // byte-identical to the buffered decode, with the chunks in index
        // order.
        for window in [0, 1, 2, 8, 20] {
            let mut decoder = StreamFieldDecoder::with_window(&registry, window);
            let mut recon: Option<Field> = None;
            let mut order = Vec::new();
            let mut drain = |d: &mut StreamFieldDecoder, recon: &mut Option<Field>| {
                while let Some(out) = d.poll().unwrap() {
                    match out {
                        StreamOutput::Header(h) => {
                            assert_eq!(h.dims, field.dims());
                            *recon = Some(Field::zeros(h.dims));
                        }
                        StreamOutput::Chunk(spec, chunk) => {
                            order.push(spec.index);
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
            assert_eq!(order, (0..15).collect::<Vec<_>>(), "window {window}");
            assert_eq!(recon.unwrap().as_slice(), buffered.as_slice());
            // Residency stayed far below the archive: parser buffering is
            // bounded by one section (frame/header/index slice), not the
            // stream.
            assert!(decoder.peak_buffered() < bytes.len());
        }
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
        // A single frame skips the window: it decodes as soon as it is
        // complete, before the stream is declared over.
        let mut decoder = StreamFieldDecoder::with_window(&registry, 8);
        decoder.feed(&bytes);
        match decoder.poll().unwrap() {
            Some(StreamOutput::Field(pushed)) => assert_eq!(pushed.as_slice(), buffered.as_slice()),
            other => panic!("expected the field before finish, got {other:?}"),
        }
        // Truncations fail instead of hanging or panicking.
        for len in [0, 5, bytes.len() - 1] {
            assert!(decompress_reader(&registry, &mut &bytes[..len]).is_err());
        }
    }

    #[test]
    fn windowed_decode_errors_are_sticky() {
        let registry = Registry::with_defaults();
        let (_, mut bytes, _) = cycled_archive(&registry);
        let frame = frame_range(&bytes, 1);
        bytes[frame.start + FRAME_LEN..frame.end].fill(0xFF);
        for window in [1, 2, 8] {
            let mut decoder = StreamFieldDecoder::with_window(&registry, window);
            let (chunks, error) = chunks_before_error(&mut decoder, &bytes);
            assert_eq!(chunks, [0], "window {window}");
            assert!(
                matches!(error, DecompressError::CodecFailed { .. }),
                "window {window}: {error}"
            );
            // Every later poll repeats the error; chunk 2 never leaves.
            for _ in 0..3 {
                assert_eq!(decoder.poll().unwrap_err(), error, "window {window}");
            }
        }
    }

    #[test]
    fn windowed_decode_reports_the_first_error_in_stream_order() {
        let registry = Registry::with_defaults();
        let (_, mut bytes, _) = cycled_archive(&registry);
        let first = frame_range(&bytes, 1);
        bytes[first.start + FRAME_LEN..first.end].fill(0xFF);
        // Chunk 4's frame head fails the parser while chunks 0–3 wait in
        // the window: they decode first, and chunk 1's failure wins.
        let head = frame_range(&bytes, 4).start;
        bytes[head] ^= 0xFF;
        for window in [1, 2, 8] {
            let mut decoder = StreamFieldDecoder::with_window(&registry, window);
            let (chunks, error) = chunks_before_error(&mut decoder, &bytes);
            assert_eq!(chunks, [0], "window {window}");
            assert!(
                matches!(
                    error,
                    DecompressError::CodecFailed {
                        codec: CodecId::Sz2,
                        ..
                    }
                ),
                "window {window}: {error}"
            );
        }
        // With chunk 1 intact, the parse error comes after chunks 0–3.
        let (_, mut bytes, _) = cycled_archive(&registry);
        bytes[head] ^= 0xFF;
        let mut decoder = StreamFieldDecoder::with_window(&registry, 8);
        let (chunks, error) = chunks_before_error(&mut decoder, &bytes);
        assert_eq!(chunks, [0, 1, 2, 3]);
        assert!(
            !matches!(error, DecompressError::CodecFailed { .. }),
            "{error}"
        );
    }
}
