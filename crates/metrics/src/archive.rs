//! The streaming archive layer: bounded-memory, chunked, parallel
//! compression of fields larger than RAM.
//!
//! A whole-field [`Compressor`] stream (one `AESC` frame) forces both sides
//! to materialize the entire dataset. The archive format
//! (magic `AESA`, laid out in [`crate::container`]) instead splits the field
//! into a grid of chunks and compresses every chunk into its own complete
//! `AESC` frame — possibly through a *different* codec per chunk. Every
//! writer ([`write_archive_stream`], and [`write_archive_embedding`] when the
//! trained models ride along) emits the inline layout: a header, then the
//! frames back to back, with no index table. So:
//!
//! * **bounded memory** — the writer pulls chunks from a [`ChunkSource`] and
//!   [`ArchiveReader::decode_into`] pushes them into a [`ChunkSink`] in
//!   windows of [`ArchiveOptions::window`] chunks; the peak resident raw
//!   payload is one window, never the whole field (the compressed archive
//!   itself is buffered only on the reader side, where it arrives as the
//!   input);
//! * **parallelism** — the chunks of a window are compressed/decompressed
//!   concurrently, each on its own [`Compressor::fork`]ed instance, so no
//!   `&mut` compressor is ever shared across threads;
//! * **random access** — [`ArchiveReader::open`] walks every chunk's 14-byte
//!   frame head once, which yields each chunk's codec, offset and length, and
//!   [`ArchiveReader::decode_chunk`] then decodes one chunk by index straight
//!   from its frame without touching the rest of the archive;
//! * **growth** — [`ArchiveAppender`] extends a written archive in place
//!   along its slowest axis, with no capacity limit.
//!
//! Value-range-relative bounds are resolved against the *whole field's*
//! range (one streaming `min_max` pass over the source) and then applied to
//! every chunk as an absolute bound, so the archive honours exactly the
//! bound a whole-field compression would have.

use std::io::{Cursor, Read, Seek, SeekFrom, Write};

use crate::bound::ErrorBound;
use crate::compressor::Compressor;
use crate::container::{
    write_chunk_entry, ArchiveHeader, ChunkEntry, CodecId, EmbeddedModel, ModelId,
    ARCHIVE_VERSION_APPEND,
};
use crate::error::{CompressError, DecompressError};
use crate::stream::{read_archive, seek_archive};
use aesz_tensor::{lanes, BlockSpec, Dims, Field};

/// Chunking and batching knobs of the archive writer/reader, built fluently:
///
/// ```
/// use aesz_metrics::archive::ArchiveOptions;
/// let opts = ArchiveOptions::new().chunk(32).window(4);
/// assert_eq!(opts.chunk_edge(), 32);
/// assert_eq!(opts.window_chunks(), 4);
/// ```
///
/// Every builder method is `const fn`, so options can live in `const`
/// context. The fields are private on purpose: a new knob extends the
/// builder without breaking a single call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveOptions {
    /// Nominal chunk edge length (need not divide the extents; edge chunks
    /// are smaller).
    chunk: usize,
    /// Number of chunks processed concurrently per batch — the bound on
    /// resident raw payload and on parallelism.
    window: usize,
}

impl ArchiveOptions {
    /// The default knobs: chunk edge 64, window 8.
    pub const fn new() -> ArchiveOptions {
        ArchiveOptions {
            chunk: 64,
            window: 8,
        }
    }

    /// Set the nominal chunk edge length.
    pub const fn chunk(mut self, chunk: usize) -> ArchiveOptions {
        self.chunk = chunk;
        self
    }

    /// Set the number of chunks compressed/decompressed concurrently per
    /// batch.
    pub const fn window(mut self, window: usize) -> ArchiveOptions {
        self.window = window;
        self
    }

    /// The nominal chunk edge length.
    pub const fn chunk_edge(&self) -> usize {
        self.chunk
    }

    /// The per-batch concurrency window, in chunks.
    pub const fn window_chunks(&self) -> usize {
        self.window
    }
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        ArchiveOptions::new()
    }
}

/// The dims of the small [`Field`] holding one chunk's values (same rank as
/// the parent field, extents = the chunk's valid size).
#[expect(clippy::unreachable)]
pub fn chunk_dims(spec: &BlockSpec) -> Dims {
    match *spec.size.as_slice() {
        [n] => Dims::d1(n),
        [ny, nx] => Dims::d2(ny, nx),
        [nz, ny, nx] => Dims::d3(nz, ny, nx),
        // lint:allow(R1): BlockSpec::size is built from a Dims, whose rank
        // is 1..=3 by construction; no wire input reaches this match
        _ => unreachable!("BlockSpec rank is always 1..=3"),
    }
}

/// Where the writer pulls raw chunk data from — an in-memory field
/// ([`FieldSource`]) or something out-of-core like a raw `f32` file read
/// with seeks (the `aesz` CLI), so the whole dataset never has to be
/// resident.
pub trait ChunkSource {
    /// Extents of the field being archived.
    fn dims(&self) -> Dims;

    /// Global min/max of the field (one streaming pass is fine). Only called
    /// when a value-range-relative bound needs resolving.
    fn min_max(&mut self) -> std::io::Result<(f32, f32)>;

    /// Read the chunk covering `spec` as a small field of dims
    /// [`chunk_dims`]`(spec)` (row-major over `spec.size`, no padding).
    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field>;
}

/// Where the reader pushes decoded chunks — an in-memory field
/// ([`FieldSink`]) or an out-of-core target written with seeks.
pub trait ChunkSink {
    /// Store the decoded chunk covering `spec` (dims [`chunk_dims`]`(spec)`).
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()>;
}

/// [`ChunkSource`] over a borrowed in-memory field.
pub struct FieldSource<'a>(pub &'a Field);

impl ChunkSource for FieldSource<'_> {
    fn dims(&self) -> Dims {
        self.0.dims()
    }

    fn min_max(&mut self) -> std::io::Result<(f32, f32)> {
        Ok(self.0.min_max())
    }

    fn read_chunk(&mut self, spec: &BlockSpec) -> std::io::Result<Field> {
        let values = self.0.read_block_valid(spec);
        Field::from_vec(chunk_dims(spec), values)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// [`ChunkSink`] assembling decoded chunks into an in-memory field.
pub struct FieldSink(Field);

impl FieldSink {
    /// A zero-initialised sink for a field with the given extents.
    pub fn new(dims: Dims) -> Self {
        FieldSink(Field::zeros(dims))
    }

    /// The assembled field.
    pub fn into_field(self) -> Field {
        self.0
    }
}

impl ChunkSink for FieldSink {
    fn write_chunk(&mut self, spec: &BlockSpec, chunk: &Field) -> std::io::Result<()> {
        self.0.write_block_valid(spec, chunk.as_slice());
        Ok(())
    }
}

/// Why an archive could not be written.
#[derive(Debug)]
pub enum ArchiveWriteError {
    /// The options, bound or source geometry are unusable.
    Invalid(&'static str),
    /// Compressing one chunk failed.
    Compress {
        /// Index of the failing chunk in the chunk grid.
        chunk: usize,
        /// The codec's error.
        error: CompressError,
    },
    /// The sink or the chunk source failed.
    Io(std::io::Error),
}

impl From<std::io::Error> for ArchiveWriteError {
    fn from(e: std::io::Error) -> Self {
        ArchiveWriteError::Io(e)
    }
}

impl std::fmt::Display for ArchiveWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveWriteError::Invalid(what) => write!(f, "invalid archive request: {what}"),
            ArchiveWriteError::Compress { chunk, error } => {
                write!(f, "compressing chunk {chunk} failed: {error}")
            }
            ArchiveWriteError::Io(e) => write!(f, "archive I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ArchiveWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveWriteError::Compress { error, .. } => Some(error),
            ArchiveWriteError::Io(e) => Some(e),
            ArchiveWriteError::Invalid(_) => None,
        }
    }
}

/// Why an archive could not be read back.
#[derive(Debug)]
pub enum ArchiveReadError {
    /// The archive header or chunk index is malformed (reported before any
    /// chunk payload is touched).
    Archive(DecompressError),
    /// Decoding one chunk frame failed.
    Chunk {
        /// Index of the failing chunk in the chunk grid.
        chunk: usize,
        /// The codec's error.
        error: DecompressError,
    },
    /// The chunk sink failed.
    Io(std::io::Error),
}

impl From<DecompressError> for ArchiveReadError {
    fn from(e: DecompressError) -> Self {
        ArchiveReadError::Archive(e)
    }
}

impl From<std::io::Error> for ArchiveReadError {
    fn from(e: std::io::Error) -> Self {
        ArchiveReadError::Io(e)
    }
}

impl std::fmt::Display for ArchiveReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveReadError::Archive(e) => write!(f, "malformed archive: {e}"),
            ArchiveReadError::Chunk { chunk, error } => {
                write!(f, "decoding chunk {chunk} failed: {error}")
            }
            ArchiveReadError::Io(e) => write!(f, "archive I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ArchiveReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveReadError::Archive(e) => Some(e),
            ArchiveReadError::Chunk { error, .. } => Some(error),
            ArchiveReadError::Io(e) => Some(e),
        }
    }
}

/// What a writer or an [`ArchiveAppender::append`] measured while streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Number of chunks written.
    pub chunks: usize,
    /// Raw payload size (field elements × 4 bytes).
    pub raw_bytes: usize,
    /// Bytes written: the whole archive (header and model tail included)
    /// for a writer, the appended frames for an append.
    pub archive_bytes: usize,
    /// Largest raw payload resident at once — the bounded-memory witness:
    /// with `window × chunkᵣᵃⁿᵏ` elements per batch this stays far below
    /// `raw_bytes` for any multi-window archive.
    pub peak_window_raw_bytes: usize,
    /// Bytes of the embedded model section (0 unless written through
    /// [`write_archive_embedding`] with learned codecs that expose a model).
    pub model_bytes: usize,
}

/// What the writer's per-chunk codec factory returns: a dedicated
/// (forked) compressor for one chunk, or the reason it could not be made.
pub type CompressorFork = Result<Box<dyn Compressor>, CompressError>;

/// What the reader's per-chunk decoder factory returns.
pub type DecoderFork = Result<Box<dyn Compressor>, DecompressError>;

/// Compress a field pulled from `source` into the multi-chunk archive
/// format, streaming the archive into `sink` — a file, a pipe, a socket,
/// stdout or an in-memory buffer.
///
/// This is the one archive writer. It emits the **inline** version-3
/// layout: a v3 header with index capacity 0, then the chunk frames back to
/// back in index order, with no index table and nothing to back-patch, so
/// the sink never seeks. Opening the archive rebuilds the index by walking
/// the frame heads, so it is random-accessible once the bytes are on disk,
/// and [`ArchiveAppender`] extends it without a capacity limit.
///
/// `codecs` is called once per chunk (in index order) and must hand back a
/// *dedicated* compressor instance — typically [`Compressor::fork`] of a
/// registered codec; different chunks may use different codecs. Chunks are
/// compressed in parallel windows of [`ArchiveOptions::window`]; only
/// one window of raw chunk data is resident at a time. The archive starts at
/// the sink's current position, so it may be embedded in a larger stream.
pub fn write_archive_stream<W: Write>(
    source: &mut dyn ChunkSource,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    sink: &mut W,
) -> Result<ArchiveStats, ArchiveWriteError> {
    write_inline(source, bound, opts, codecs, None, sink)
}

/// [`write_archive_stream`] plus the **trained models** of the codecs used:
/// every forked codec is asked for its [`Compressor::embedded_model`], each
/// distinct model (by [`ModelId`]) is appended once to the model tail after
/// the last chunk frame, and the header's model-section length is patched
/// in place, so a reader that never saw the trainer can resolve the learned
/// chunks from the archive bytes alone. That one 8-byte patch is why the
/// sink must seek; the sink is left just past the archive's last byte.
///
/// Model-free codecs contribute nothing: an archive written purely with
/// traditional codecs is byte-identical to [`write_archive_stream`]'s.
pub fn write_archive_embedding<W: Write + Seek>(
    source: &mut dyn ChunkSource,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    sink: &mut W,
) -> Result<ArchiveStats, ArchiveWriteError> {
    let base = sink.stream_position()?;
    let mut models = Vec::new();
    let mut stats = write_inline(source, bound, opts, codecs, Some(&mut models), sink)?;
    let model_section = encode_model_section(&models);
    sink.write_all(&model_section)?;
    // Which models the chunks reference is only known once every codec has
    // been forked; their length is the header's last u64.
    let header = ArchiveHeader::inline(source.dims(), opts.chunk);
    sink.seek(SeekFrom::Start(base + (header.encoded_len() - 8) as u64))?;
    sink.write_all(&(model_section.len() as u64).to_le_bytes())?;
    stats.archive_bytes += model_section.len();
    stats.model_bytes = model_section.len();
    sink.seek(SeekFrom::Start(base + stats.archive_bytes as u64))?;
    Ok(stats)
}

/// Validate writer knobs and resolve a range-relative bound against the
/// whole source once (a per-chunk range would be tighter on smooth chunks
/// and looser on none). Shared by every archive writer.
fn resolve_write_request(
    source: &mut dyn ChunkSource,
    bound: ErrorBound,
    chunk: usize,
    window: usize,
) -> Result<(Dims, ErrorBound), ArchiveWriteError> {
    if chunk == 0 {
        return Err(ArchiveWriteError::Invalid("chunk edge must be at least 1"));
    }
    if window == 0 {
        return Err(ArchiveWriteError::Invalid("window must be at least 1"));
    }
    if bound.validate().is_err() {
        return Err(ArchiveWriteError::Invalid(
            "error bound must be finite and strictly positive",
        ));
    }
    let dims = source.dims();
    if dims.is_empty() {
        return Err(ArchiveWriteError::Invalid("field has no elements"));
    }
    let chunk_bound = match bound {
        ErrorBound::Abs(_) => bound,
        ErrorBound::RangeRel(_) => {
            let (lo, hi) = source.min_max()?;
            if !lo.is_finite() || !hi.is_finite() {
                return Err(ArchiveWriteError::Invalid(
                    "field contains non-finite values; a relative bound is undefined",
                ));
            }
            ErrorBound::Abs(bound.absolute(lo, hi))
        }
    };
    Ok((dims, chunk_bound))
}

/// The windowed compression core every writer shares: pull chunks from
/// `source` over `dims`, compress them in parallel windows (one job per
/// chunk on [`lanes::run`]), and hand each finished frame to `on_frame` in
/// index order, up to the first failure.
///
/// `spec_for_codec` maps the source-local [`BlockSpec`] to the spec the
/// codec factory sees — the identity for a plain write, a global-coordinate
/// shift for an append. When `models` is `Some`, each forked codec's
/// embedded model is collected there exactly once (deduplicated by id, also
/// against whatever the vector already holds — the appender seeds it with
/// the archive's existing tail). Returns `(raw_bytes, peak_window_raw_bytes)`.
#[allow(clippy::too_many_arguments)]
fn compress_chunk_frames(
    source: &mut dyn ChunkSource,
    dims: Dims,
    chunk_bound: ErrorBound,
    chunk: usize,
    window: usize,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    mut models: Option<&mut Vec<EmbeddedModel>>,
    spec_for_codec: &dyn Fn(&BlockSpec) -> BlockSpec,
    on_frame: &mut dyn FnMut(usize, CodecId, Vec<u8>) -> Result<(), ArchiveWriteError>,
) -> Result<(usize, usize), ArchiveWriteError> {
    struct Job {
        index: usize,
        id: CodecId,
        field: Field,
        codec: Box<dyn Compressor>,
    }

    let count: usize = dims.block_grid(chunk).iter().product();
    let mut raw_bytes = 0usize;
    let mut peak_window_raw_bytes = 0usize;
    let mut next = 0usize;
    while next < count {
        let batch = window.min(count - next);
        let mut jobs = Vec::with_capacity(batch);
        for index in next..next + batch {
            let spec = BlockSpec::of(dims, chunk, index);
            let field = source.read_chunk(&spec)?;
            if field.dims() != chunk_dims(&spec) {
                return Err(ArchiveWriteError::Invalid(
                    "chunk source returned a chunk with the wrong dims",
                ));
            }
            let codec_spec = spec_for_codec(&spec);
            let codec = codecs(&codec_spec).map_err(|error| ArchiveWriteError::Compress {
                chunk: codec_spec.index,
                error,
            })?;
            if let Some(models) = models.as_deref_mut() {
                // Dedup by the cached id first: serializing + hashing the
                // full model once per *chunk* would be O(chunks × weights).
                match codec.embedded_model_id() {
                    Some(id) if models.iter().any(|m| m.id == id) => {}
                    Some(_) | None => {
                        if let Some(model) = codec.embedded_model() {
                            if !models.iter().any(|m| m.id == model.id) {
                                models.push(model);
                            }
                        }
                    }
                }
            }
            jobs.push(Job {
                index,
                id: codec.codec_id(),
                field,
                codec,
            });
        }
        let window_raw: usize = jobs.iter().map(|j| j.field.len() * 4).sum();
        peak_window_raw_bytes = peak_window_raw_bytes.max(window_raw);
        let mut frames: Vec<Option<Vec<u8>>> = jobs.iter().map(|_| None).collect();
        let compressed: Result<(), ArchiveWriteError> =
            lanes::run(jobs.iter_mut().zip(frames.iter_mut()), |(job, frame)| {
                let bytes = job
                    .codec
                    .compress(&job.field, chunk_bound)
                    .map_err(|error| ArchiveWriteError::Compress {
                        chunk: job.index,
                        error,
                    })?;
                *frame = Some(bytes);
                Ok(())
            });
        // Every job before the first failure produced its frame.
        for (job, frame) in jobs.iter().zip(frames.into_iter().map_while(|f| f)) {
            raw_bytes += job.field.len() * 4;
            on_frame(job.index, job.id, frame)?;
        }
        compressed?;
        next += batch;
    }
    Ok((raw_bytes, peak_window_raw_bytes))
}

/// Serialize the model tail: per model, its id, frame length and frame.
fn encode_model_section(models: &[EmbeddedModel]) -> Vec<u8> {
    let mut section = Vec::new();
    for model in models {
        section.extend_from_slice(model.id.as_bytes());
        section.extend_from_slice(&(model.frame.len() as u64).to_le_bytes());
        section.extend_from_slice(&model.frame);
    }
    section
}

/// The one layout every writer emits: an inline v3 header, then each chunk
/// frame as its window finishes. `models` collects the forked codecs'
/// embedded models when the caller ships them.
fn write_inline(
    source: &mut dyn ChunkSource,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    models: Option<&mut Vec<EmbeddedModel>>,
    sink: &mut dyn Write,
) -> Result<ArchiveStats, ArchiveWriteError> {
    let (dims, chunk_bound) = resolve_write_request(source, bound, opts.chunk, opts.window)?;
    let header = ArchiveHeader::inline(dims, opts.chunk);
    let mut head = Vec::with_capacity(header.encoded_len());
    header.write(&mut head);
    sink.write_all(&head)?;

    let mut archive_bytes = header.encoded_len();
    let (raw_bytes, peak_window_raw_bytes) = compress_chunk_frames(
        source,
        dims,
        chunk_bound,
        opts.chunk,
        opts.window,
        codecs,
        models,
        &|spec| spec.clone(),
        &mut |_index, _id, frame| {
            sink.write_all(&frame)?;
            archive_bytes += frame.len();
            Ok(())
        },
    )?;

    Ok(ArchiveStats {
        chunks: header.chunk_count(),
        raw_bytes,
        archive_bytes,
        peak_window_raw_bytes,
        model_bytes: 0,
    })
}

/// [`write_archive_stream`] into a fresh in-memory buffer — the convenience
/// path for fields that are already resident.
pub fn write_field_archive(
    field: &Field,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
) -> Result<(Vec<u8>, ArchiveStats), ArchiveWriteError> {
    let mut out = Vec::new();
    let stats = write_archive_stream(&mut FieldSource(field), bound, opts, codecs, &mut out)?;
    Ok((out, stats))
}

/// [`write_archive_embedding`] into a fresh in-memory buffer.
pub fn write_field_archive_embedding(
    field: &Field,
    bound: ErrorBound,
    opts: &ArchiveOptions,
    codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
) -> Result<(Vec<u8>, ArchiveStats), ArchiveWriteError> {
    let mut cursor = Cursor::new(Vec::new());
    let stats = write_archive_embedding(&mut FieldSource(field), bound, opts, codecs, &mut cursor)?;
    Ok((cursor.into_inner(), stats))
}

/// In-place extension of an existing version-3 archive along its slowest
/// axis, without rewriting a single existing payload byte.
///
/// [`ArchiveAppender::open`] validates the archive with the parser behind
/// [`ArchiveReader::open`] (header, index tiling, frame heads, model-tail
/// hashes), driven through seeks — chunk payloads are never read. Each
/// [`append`](ArchiveAppender::append) compresses a new slab of data into
/// frames written where the model tail used to start; the tail itself is
/// stashed at open and written back — extended with any newly referenced
/// models — by [`finalize`](ArchiveAppender::finalize), which also
/// back-patches the header (grown extents, chunk count, model-section
/// length). Random access to the grown archive comes from the same
/// frame-head walk at open as for any other archive.
///
/// Every archive a writer emits is appendable without a capacity limit: it
/// is an inline version-3 archive, with no index table to fill. Indexed
/// version-3 files that older writers left on disk take appends too, until
/// their spare index slots run out; version-1 and version-2 files take
/// none. The archive must also be
/// *open-ended*: its slowest extent must be a multiple of the chunk edge,
/// otherwise the last slab of existing chunks would change shape when the
/// axis grows. Appends require an absolute error bound — the whole-field
/// value range that a relative bound resolves against cannot be recomputed
/// without decoding everything.
pub struct ArchiveAppender<F: Read + Write + Seek> {
    file: F,
    /// Stream position of the archive's first byte (archives may be
    /// embedded in larger files).
    base: u64,
    header: ArchiveHeader,
    entries: Vec<ChunkEntry>,
    /// The stashed model tail (existing models first, newly referenced ones
    /// appended), rewritten on finalize.
    models: Vec<EmbeddedModel>,
    /// Archive-relative offset one past the last chunk frame — where the
    /// next appended frame (and, on finalize, the model tail) goes.
    data_end: u64,
}

impl<F: Read + Write + Seek> ArchiveAppender<F> {
    /// Open and validate an existing archive for appending. The archive is
    /// taken to start at the file's *current* position and extend to its
    /// end.
    pub fn open(mut file: F) -> Result<Self, ArchiveReadError> {
        let base = file.stream_position()?;
        let archive_len = file.seek(SeekFrom::End(0))?.saturating_sub(base);
        let (header, entries, models) = seek_archive(&mut file, base, archive_len)?;
        if header.version != ARCHIVE_VERSION_APPEND {
            return Err(ArchiveReadError::Archive(DecompressError::Unsupported(
                "only version-3 archives are appendable; rewrite the archive with any writer",
            )));
        }
        Ok(ArchiveAppender {
            file,
            base,
            header,
            entries,
            models,
            // The parser checked that the model section fits the archive.
            data_end: archive_len - header.model_len as u64,
        })
    }

    /// The archive's current header (extents grow with each append).
    pub fn header(&self) -> ArchiveHeader {
        self.header
    }

    /// The validated chunk index, including entries added by appends.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// Index slots still free for appended chunks: `usize::MAX` for the
    /// inline archives every writer emits, which have no index to exhaust;
    /// the spare slots left in an indexed version-3 file.
    pub fn spare_slots(&self) -> usize {
        if self.header.index_slots() == 0 {
            usize::MAX
        } else {
            self.header.index_slots() - self.entries.len()
        }
    }

    /// Compress `source` as new chunks extending the archive's slowest
    /// axis. `source.dims()` must match the archive on every faster axis;
    /// its slowest extent is the growth. May be called repeatedly; call
    /// [`finalize`](ArchiveAppender::finalize) once at the end.
    pub fn append(
        &mut self,
        source: &mut dyn ChunkSource,
        bound: ErrorBound,
        window: usize,
        codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    ) -> Result<ArchiveStats, ArchiveWriteError> {
        self.append_impl(source, bound, window, codecs, false)
    }

    /// [`append`](ArchiveAppender::append), additionally embedding the
    /// trained models of the codecs used (deduplicated against the models
    /// already in the archive's tail).
    pub fn append_embedding(
        &mut self,
        source: &mut dyn ChunkSource,
        bound: ErrorBound,
        window: usize,
        codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
    ) -> Result<ArchiveStats, ArchiveWriteError> {
        self.append_impl(source, bound, window, codecs, true)
    }

    fn append_impl(
        &mut self,
        source: &mut dyn ChunkSource,
        bound: ErrorBound,
        window: usize,
        codecs: &mut dyn FnMut(&BlockSpec) -> CompressorFork,
        embed_models: bool,
    ) -> Result<ArchiveStats, ArchiveWriteError> {
        if !matches!(bound, ErrorBound::Abs(_)) {
            return Err(ArchiveWriteError::Invalid(
                "appending requires an absolute error bound (the whole-field value range \
                 cannot be recomputed without decoding the archive)",
            ));
        }
        let chunk = self.header.chunk;
        let (slab_dims, chunk_bound) = resolve_write_request(source, bound, chunk, window)?;
        let old_dims = self.header.dims;
        if slab_dims.rank() != old_dims.rank() {
            return Err(ArchiveWriteError::Invalid(
                "appended slab must have the archive's rank",
            ));
        }
        let old_extents = old_dims.extents();
        let slab_extents = slab_dims.extents();
        if old_extents[1..] != slab_extents[1..] {
            return Err(ArchiveWriteError::Invalid(
                "appended slab must match the archive on every axis but the slowest",
            ));
        }
        if !old_extents[0].is_multiple_of(chunk) {
            return Err(ArchiveWriteError::Invalid(
                "archive is sealed: its slowest extent is not a multiple of the chunk edge, so \
                 the existing edge chunks would change shape",
            ));
        }
        let new_dims = grow_slowest(old_dims, slab_extents[0]);
        let old_count = self.entries.len();
        let new_header = ArchiveHeader {
            dims: new_dims,
            ..self.header
        };
        let added = new_header.chunk_count() - old_count;
        if self.header.index_slots() > 0 && added > self.spare_slots() {
            return Err(ArchiveWriteError::Invalid(
                "archive index capacity exhausted; rewrite the archive with any writer, whose \
                 inline layout has no capacity limit",
            ));
        }

        // New chunks land exactly at indices old_count.. in row-major grid
        // order (the slow axis is the outermost), so the slab's local grid
        // enumerates them 1:1. The codec factory sees the *global* spec —
        // grid position and origin in the grown field.
        self.file.seek(SeekFrom::Start(self.base + self.data_end))?;
        let mut offset = self.data_end;
        let entries = &mut self.entries;
        let file = &mut self.file;
        let (raw_bytes, peak_window_raw_bytes) = compress_chunk_frames(
            source,
            slab_dims,
            chunk_bound,
            chunk,
            window,
            codecs,
            embed_models.then_some(&mut self.models),
            &|local| BlockSpec::of(new_dims, chunk, old_count + local.index),
            &mut |_index, id, frame| {
                file.write_all(&frame)?;
                entries.push(ChunkEntry {
                    codec: id,
                    offset,
                    len: frame.len() as u64,
                });
                offset += frame.len() as u64;
                Ok(())
            },
        )?;
        let written = usize::try_from(offset - self.data_end).unwrap_or(usize::MAX);
        self.data_end = offset;
        self.header.dims = new_dims;
        debug_assert_eq!(self.header.chunk_count(), self.entries.len());

        Ok(ArchiveStats {
            chunks: added,
            raw_bytes,
            archive_bytes: written,
            peak_window_raw_bytes,
            model_bytes: 0,
        })
    }

    /// Write the model tail back, patch the header (and, in an indexed
    /// version-3 file, fill the new entries into its spare slots), flush,
    /// and hand the file back. The archive is complete and readable after
    /// this (and only after this — a crash between appends leaves the old
    /// header in place, so the previously committed chunks stay readable
    /// while the appended frames are simply unreachable garbage past the
    /// stale model tail... which the tiling check then flags; treat an
    /// unfinalized append as lost).
    pub fn finalize(mut self) -> Result<F, ArchiveWriteError> {
        let model_section = encode_model_section(&self.models);
        self.header.model_len = model_section.len();
        self.file.seek(SeekFrom::Start(self.base + self.data_end))?;
        self.file.write_all(&model_section)?;

        if self.header.index_slots() > 0 {
            let mut index = Vec::with_capacity(self.header.index_len());
            for entry in &self.entries {
                write_chunk_entry(&mut index, entry);
            }
            index.resize(self.header.index_len(), 0);
            self.file.seek(SeekFrom::Start(
                self.base + self.header.encoded_len() as u64,
            ))?;
            self.file.write_all(&index)?;
        }

        let mut head = Vec::with_capacity(self.header.encoded_len());
        self.header.write(&mut head);
        self.file.seek(SeekFrom::Start(self.base))?;
        self.file.write_all(&head)?;
        self.file.seek(SeekFrom::Start(
            self.base + self.data_end + model_section.len() as u64,
        ))?;
        self.file.flush()?;
        Ok(self.file)
    }
}

/// `dims` with its slowest extent grown by `extra`.
#[expect(clippy::unreachable)]
fn grow_slowest(dims: Dims, extra: usize) -> Dims {
    let e = dims.extents();
    match *e.as_slice() {
        [n] => Dims::d1(n + extra),
        [ny, nx] => Dims::d2(ny + extra, nx),
        [nz, ny, nx] => Dims::d3(nz + extra, ny, nx),
        // lint:allow(R1): Dims::extents always yields 1..=3 entries by
        // construction; no wire input reaches this match
        _ => unreachable!("rank is always 1..=3"),
    }
}

/// Random-access view over a validated archive byte stream.
///
/// [`ArchiveReader::open`] parses and validates the header, walks every
/// chunk's 14-byte frame head and checks the model section before
/// returning. The walk is what yields each chunk's codec, offset and length
/// — the index random access runs on — whether or not the archive stores an
/// index table (the inline layout every writer emits stores none; a stored
/// table is checked against the walk). Every accessor therefore works on
/// trusted geometry; chunk payloads stay untouched (and untrusted) until
/// decoded.
pub struct ArchiveReader<'a> {
    bytes: &'a [u8],
    header: ArchiveHeader,
    entries: Vec<ChunkEntry>,
    models: Vec<(ModelId, &'a [u8])>,
}

impl<'a> ArchiveReader<'a> {
    /// Parse and validate the header, chunk frame heads, stored chunk index
    /// (if any) and model section of `bytes`. In an indexed archive each
    /// chunk's 14-byte frame head must repeat its index entry's length and
    /// codec; in an inline one the frame heads *are* the index. Either way a
    /// damaged frame head fails here rather than at that chunk's decode. No
    /// payload byte is read or copied.
    pub fn open(bytes: &'a [u8]) -> Result<Self, DecompressError> {
        let (header, entries, models) = read_archive(bytes)?;
        Ok(ArchiveReader {
            bytes,
            header,
            entries,
            models,
        })
    }

    /// The archive's parsed header.
    pub fn header(&self) -> ArchiveHeader {
        self.header
    }

    /// Extents of the archived field.
    pub fn dims(&self) -> Dims {
        self.header.dims
    }

    /// Number of chunks in the archive.
    pub fn chunk_count(&self) -> usize {
        self.entries.len()
    }

    /// The validated chunk index, rebuilt from the frame heads at open.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// The embedded models of a v2 or v3 archive: each referenced model's
    /// content-addressed id and its complete `AESM` frame (hash-verified at
    /// [`ArchiveReader::open`]). Empty for v1 archives.
    pub fn models(&self) -> &[(ModelId, &'a [u8])] {
        &self.models
    }

    /// The `AESM` frame of the embedded model with the given id, if any.
    pub fn model_frame(&self, id: ModelId) -> Option<&'a [u8]> {
        self.models
            .iter()
            .find(|&&(mid, _)| mid == id)
            .map(|&(_, frame)| frame)
    }

    /// Placement of chunk `index` in the field (`None` out of range).
    pub fn chunk_spec(&self, index: usize) -> Option<BlockSpec> {
        (index < self.entries.len())
            .then(|| BlockSpec::of(self.header.dims, self.header.chunk, index))
    }

    /// The raw `AESC` frame of chunk `index` (`None` out of range).
    pub fn chunk_frame(&self, index: usize) -> Option<&'a [u8]> {
        let entry = self.entries.get(index)?;
        let start = usize::try_from(entry.offset).ok()?;
        let end = usize::try_from(entry.offset.checked_add(entry.len)?).ok()?;
        self.bytes.get(start..end)
    }

    /// Decode a single chunk by index through `codec` — the random-access
    /// path; nothing outside the chunk's frame is read.
    ///
    /// The caller picks `codec` from the chunk's index entry
    /// ([`ArchiveReader::entries`]); a mismatched codec is rejected by the
    /// frame check, and a frame whose reconstruction does not match the
    /// chunk's grid cell is rejected here.
    pub fn decode_chunk(
        &self,
        index: usize,
        codec: &mut dyn Compressor,
    ) -> Result<Field, DecompressError> {
        let frame = self
            .chunk_frame(index)
            .ok_or(DecompressError::Inconsistent("chunk index out of range"))?;
        let spec = self
            .chunk_spec(index)
            .ok_or(DecompressError::Inconsistent("chunk index out of range"))?;
        let field = codec.decompress(frame)?;
        if field.dims() != chunk_dims(&spec) {
            return Err(DecompressError::Inconsistent(
                "chunk reconstruction disagrees with the archive grid",
            ));
        }
        Ok(field)
    }

    /// Decode every chunk into `sink` in parallel windows of `window` chunks
    /// (one job per chunk on [`lanes::run`]; window 0 acts as 1), forking
    /// one compressor per in-flight chunk via `codecs`
    /// (called with each chunk's index and its index-entry codec id — the
    /// index is what lets a factory hand *different* trained models of the
    /// same codec to different chunks).
    ///
    /// Peak resident decoded payload is one window of chunks; the sink
    /// receives chunks in index order, up to the first failure.
    pub fn decode_into(
        &self,
        window: usize,
        codecs: &mut dyn FnMut(usize, CodecId) -> DecoderFork,
        sink: &mut dyn ChunkSink,
    ) -> Result<(), ArchiveReadError> {
        struct Job<'b> {
            index: usize,
            spec: BlockSpec,
            frame: &'b [u8],
            codec: Box<dyn Compressor>,
        }

        let window = window.max(1);
        let count = self.entries.len();
        let mut next = 0usize;
        while next < count {
            let batch = window.min(count - next);
            let mut jobs = Vec::with_capacity(batch);
            for index in next..next + batch {
                let out_of_range = || ArchiveReadError::Chunk {
                    chunk: index,
                    error: DecompressError::Inconsistent("chunk index out of range"),
                };
                let entry = self.entries.get(index).copied().ok_or_else(out_of_range)?;
                let codec =
                    codecs(index, entry.codec).map_err(|error| ArchiveReadError::Chunk {
                        chunk: index,
                        error,
                    })?;
                jobs.push(Job {
                    index,
                    spec: self.chunk_spec(index).ok_or_else(out_of_range)?,
                    frame: self.chunk_frame(index).ok_or_else(out_of_range)?,
                    codec,
                });
            }
            let mut fields: Vec<Option<Field>> = jobs.iter().map(|_| None).collect();
            let decoded: Result<(), ArchiveReadError> =
                lanes::run(jobs.iter_mut().zip(fields.iter_mut()), |(job, out)| {
                    let chunk_error = |error| ArchiveReadError::Chunk {
                        chunk: job.index,
                        error,
                    };
                    let field = job.codec.decompress(job.frame).map_err(chunk_error)?;
                    if field.dims() != chunk_dims(&job.spec) {
                        return Err(chunk_error(DecompressError::Inconsistent(
                            "chunk reconstruction disagrees with the archive grid",
                        )));
                    }
                    *out = Some(field);
                    Ok(())
                });
            // Every job before the first failure produced its chunk.
            for (job, field) in jobs.iter().zip(fields.into_iter().map_while(|f| f)) {
                sink.write_chunk(&job.spec, &field)?;
            }
            decoded?;
            next += batch;
        }
        Ok(())
    }

    /// Decode the whole archive into an in-memory field (a [`FieldSink`]
    /// behind [`ArchiveReader::decode_into`]).
    pub fn decode_all(
        &self,
        window: usize,
        codecs: &mut dyn FnMut(usize, CodecId) -> DecoderFork,
    ) -> Result<Field, ArchiveReadError> {
        let mut sink = FieldSink::new(self.header.dims);
        self.decode_into(window, codecs, &mut sink)?;
        Ok(sink.into_field())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{
        self, ARCHIVE_VERSION, ARCHIVE_VERSION_MODELS, CHUNK_ENTRY_LEN, FRAME_LEN,
    };
    use crate::legacy::{relay, Layout};

    /// A stand-in codec storing raw little-endian bytes behind a tiny
    /// dims header (borrowing the ZFP id purely for framing).
    #[derive(Clone)]
    struct Raw;

    impl Compressor for Raw {
        fn codec_id(&self) -> CodecId {
            CodecId::Zfp
        }
        fn fork(&self) -> Box<dyn Compressor> {
            Box::new(self.clone())
        }
        fn compress_payload(
            &mut self,
            field: &Field,
            _bound: ErrorBound,
        ) -> Result<Vec<u8>, CompressError> {
            let mut out = Vec::new();
            let e = field.dims().extents();
            out.push(e.len() as u8);
            for &d in &e {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            out.extend_from_slice(&field.to_le_bytes());
            Ok(out)
        }
        fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
            let rank = *bytes.first().ok_or(DecompressError::Truncated("rank"))? as usize;
            if !(1..=3).contains(&rank) {
                return Err(DecompressError::InvalidHeader("rank"));
            }
            let mut ext = Vec::new();
            let mut pos = 1;
            for _ in 0..rank {
                let mut b = [0u8; 8];
                b.copy_from_slice(
                    bytes
                        .get(pos..pos + 8)
                        .ok_or(DecompressError::Truncated("extent"))?,
                );
                ext.push(u64::from_le_bytes(b) as usize);
                pos += 8;
            }
            let dims = match rank {
                1 => Dims::d1(ext[0]),
                2 => Dims::d2(ext[0], ext[1]),
                _ => Dims::d3(ext[0], ext[1], ext[2]),
            };
            Field::from_le_bytes(dims, &bytes[pos..])
                .map_err(|_| DecompressError::Inconsistent("payload/dims mismatch"))
        }
    }

    fn raw_codec() -> impl FnMut(&BlockSpec) -> Result<Box<dyn Compressor>, CompressError> + 'static
    {
        |_spec: &BlockSpec| Ok(Box::new(Raw) as Box<dyn Compressor>)
    }

    fn raw_decoder(
    ) -> impl FnMut(usize, CodecId) -> Result<Box<dyn Compressor>, DecompressError> + 'static {
        |_index: usize, _id: CodecId| Ok(Box::new(Raw) as Box<dyn Compressor>)
    }

    fn ramp(dims: Dims) -> Field {
        let mut k = 0.0f32;
        Field::from_fn(dims, |_| {
            k += 1.0;
            k
        })
    }

    #[test]
    fn archive_roundtrips_losslessly_with_the_raw_codec() {
        for (dims, chunk, window) in [
            (Dims::d1(37), 8, 3),
            (Dims::d2(21, 13), 8, 1),
            (Dims::d2(16, 16), 16, 4),
            (Dims::d3(5, 7, 9), 4, 5),
        ] {
            let field = ramp(dims);
            let opts = ArchiveOptions::new().chunk(chunk).window(window);
            let (bytes, stats) =
                write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec())
                    .expect("write");
            assert_eq!(stats.raw_bytes, field.len() * 4);
            assert_eq!(stats.archive_bytes, bytes.len());
            assert!(stats.peak_window_raw_bytes <= stats.raw_bytes);
            let reader = ArchiveReader::open(&bytes).expect("open");
            assert_eq!(reader.dims(), dims);
            assert_eq!(reader.chunk_count(), stats.chunks);
            let recon = reader.decode_all(window, &mut raw_decoder()).expect("read");
            assert_eq!(recon.as_slice(), field.as_slice());
        }
    }

    #[test]
    fn random_access_matches_the_full_decode() {
        let field = ramp(Dims::d2(30, 22));
        let opts = ArchiveOptions::new().chunk(8).window(2);
        let (bytes, _) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        let reader = ArchiveReader::open(&bytes).unwrap();
        let full = reader.decode_all(4, &mut raw_decoder()).unwrap();
        for i in 0..reader.chunk_count() {
            let spec = reader.chunk_spec(i).unwrap();
            let mut codec = Raw;
            let chunk = reader.decode_chunk(i, &mut codec).unwrap();
            assert_eq!(chunk.as_slice(), full.read_block_valid(&spec).as_slice());
        }
        assert!(reader.chunk_spec(reader.chunk_count()).is_none());
        assert!(reader.chunk_frame(reader.chunk_count()).is_none());
    }

    #[test]
    fn archives_can_be_embedded_at_a_nonzero_stream_position() {
        let field = ramp(Dims::d2(10, 11));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let prefix = b"sixteen byte hdr".to_vec();
        // Both writers: the seekless one, and the one that patches the
        // model-section length into the header it wrote earlier.
        let write_after = |prefix: &[u8], embedding: bool| {
            let mut cursor = Cursor::new(prefix.to_vec());
            cursor.set_position(prefix.len() as u64);
            let source = &mut FieldSource(&field);
            let bound = ErrorBound::abs(1.0);
            let stats = if embedding {
                let mut codecs = |_: &BlockSpec| {
                    Ok(Box::new(RawWithModel(b"weights".to_vec())) as Box<dyn Compressor>)
                };
                write_archive_embedding(source, bound, &opts, &mut codecs, &mut cursor)
            } else {
                write_archive_stream(source, bound, &opts, &mut raw_codec(), &mut cursor)
            }
            .expect("embedded write");
            (cursor, stats)
        };
        for embedding in [false, true] {
            let (mut cursor, stats) = write_after(&prefix, embedding);
            // The sink is left just past the archive, the prefix is
            // untouched, and the archive decodes from its own start.
            assert_eq!(
                cursor.stream_position().unwrap(),
                (prefix.len() + stats.archive_bytes) as u64
            );
            let bytes = cursor.into_inner();
            assert_eq!(&bytes[..prefix.len()], prefix.as_slice());
            let archive = &bytes[prefix.len()..];
            let reader = ArchiveReader::open(archive).expect("open embedded");
            assert_eq!(reader.models().len(), usize::from(embedding));
            let recon = reader.decode_all(2, &mut raw_decoder()).expect("decode");
            assert_eq!(recon.as_slice(), field.as_slice());
            // Byte-identical to the same archive written at position 0.
            let (plain, _) = write_after(&[], embedding);
            assert_eq!(archive, plain.into_inner().as_slice());
            // The layout this writer used to emit decodes the same field.
            let old = relay(archive, if embedding { Layout::V2 } else { Layout::V1 });
            let recon = ArchiveReader::open(&old)
                .expect("open relaid")
                .decode_all(2, &mut raw_decoder())
                .expect("decode relaid");
            assert_eq!(recon.as_slice(), field.as_slice());
        }
    }

    #[test]
    fn writer_rejects_unusable_requests() {
        let field = ramp(Dims::d1(8));
        let ok = ArchiveOptions::new().chunk(4).window(1);
        assert!(matches!(
            write_field_archive(&field, ErrorBound::abs(1.0), &ok.chunk(0), &mut raw_codec()),
            Err(ArchiveWriteError::Invalid(_))
        ));
        assert!(matches!(
            write_field_archive(
                &field,
                ErrorBound::abs(1.0),
                &ok.window(0),
                &mut raw_codec()
            ),
            Err(ArchiveWriteError::Invalid(_))
        ));
        assert!(matches!(
            write_field_archive(&field, ErrorBound::rel(0.0), &ok, &mut raw_codec()),
            Err(ArchiveWriteError::Invalid(_))
        ));
        let empty = Field::zeros(Dims::d1(0));
        assert!(matches!(
            write_field_archive(&empty, ErrorBound::abs(1.0), &ok, &mut raw_codec()),
            Err(ArchiveWriteError::Invalid(_))
        ));
    }

    #[test]
    fn every_truncation_of_an_archive_is_rejected() {
        let field = ramp(Dims::d2(9, 9));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (inline, _) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        for bytes in [relay(&inline, Layout::V1), inline] {
            for len in 0..bytes.len() {
                assert!(
                    ArchiveReader::open(&bytes[..len]).is_err(),
                    "truncated archive of {len}/{} bytes opened",
                    bytes.len()
                );
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(ArchiveReader::open(&padded).is_err());
        }
    }

    #[test]
    fn header_errors_are_reported_before_chunk_payloads() {
        let field = ramp(Dims::d1(10));
        let opts = ArchiveOptions::new().chunk(4).window(1);
        let (inline, _) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        for bytes in [relay(&inline, Layout::V1), inline] {
            let header = ArchiveHeader::read(&bytes).unwrap();
            // The first chunk's codec, offset and length: its index entry,
            // or the head of its frame when there is no index table.
            let (codec_at, place_at) = if header.index_slots() > 0 {
                (header.encoded_len(), header.encoded_len() + 1)
            } else {
                (header.data_start() + 5, header.data_start() + 6)
            };
            // Codec byte → unknown id.
            let mut evil = bytes.clone();
            evil[codec_at] = 200;
            assert!(matches!(
                ArchiveReader::open(&evil),
                Err(DecompressError::UnknownCodec(200))
            ));
            // First entry offset (or frame length) off by one → tiling
            // violation.
            let mut evil = bytes.clone();
            evil[place_at] ^= 1;
            assert!(ArchiveReader::open(&evil).is_err());
            // Stored chunk count off by one → inconsistency.
            let mut evil = bytes.clone();
            let count_at = 16 + 8 * header.dims.rank();
            evil[count_at] = evil[count_at].wrapping_add(1);
            assert!(ArchiveReader::open(&evil).is_err());
        }
    }

    /// A [`Raw`] with a fake trained model, for the embedding path.
    #[derive(Clone)]
    struct RawWithModel(Vec<u8>);

    impl Compressor for RawWithModel {
        fn codec_id(&self) -> CodecId {
            CodecId::Zfp
        }
        fn fork(&self) -> Box<dyn Compressor> {
            Box::new(self.clone())
        }
        fn embedded_model(&self) -> Option<EmbeddedModel> {
            Some(EmbeddedModel::new(CodecId::Zfp, &self.0))
        }
        fn compress_payload(
            &mut self,
            field: &Field,
            bound: ErrorBound,
        ) -> Result<Vec<u8>, CompressError> {
            Raw.compress_payload(field, bound)
        }
        fn decompress_payload(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
            Raw.decompress_payload(bytes)
        }
    }

    #[test]
    fn embedding_writer_ships_each_model_once_and_readers_verify_it() {
        let field = ramp(Dims::d2(12, 10));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let weights = b"pretend weights".to_vec();
        let expected = EmbeddedModel::new(CodecId::Zfp, &weights);
        let mut codecs = move |_spec: &BlockSpec| {
            Ok(Box::new(RawWithModel(weights.clone())) as Box<dyn Compressor>)
        };
        let (inline, stats) =
            write_field_archive_embedding(&field, ErrorBound::abs(1.0), &opts, &mut codecs)
                .expect("embedding write");
        assert_eq!(stats.archive_bytes, inline.len());
        assert!(stats.model_bytes > 0);
        let header = ArchiveHeader::read(&inline).unwrap();
        assert_eq!(
            (header.version, header.index_cap),
            (ARCHIVE_VERSION_APPEND, 0)
        );
        assert_eq!(header.model_len, stats.model_bytes);
        let v2 = relay(&inline, Layout::V2);
        assert_eq!(
            ArchiveHeader::read(&v2).unwrap().version,
            ARCHIVE_VERSION_MODELS
        );

        for bytes in [v2, inline] {
            let reader = ArchiveReader::open(&bytes).expect("open");
            // Nine chunks forked nine codecs, but the model is embedded once.
            assert_eq!(reader.models().len(), 1);
            assert_eq!(reader.models()[0].0, expected.id);
            assert_eq!(
                reader.model_frame(expected.id),
                Some(expected.frame.as_slice())
            );
            assert_eq!(reader.model_frame(ModelId::of(b"other")), None);
            let recon = reader.decode_all(2, &mut raw_decoder()).expect("decode");
            assert_eq!(recon.as_slice(), field.as_slice());

            // Every truncation is rejected, and a flipped bit in the
            // embedded model fails the hash check at open.
            for len in 0..bytes.len() {
                assert!(ArchiveReader::open(&bytes[..len]).is_err());
            }
            let mut evil = bytes.clone();
            let last = evil.len() - 1;
            evil[last] ^= 1;
            assert!(ArchiveReader::open(&evil).is_err());
        }
    }

    #[test]
    fn embedding_model_free_codecs_matches_the_plain_writer() {
        let field = ramp(Dims::d1(10));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (embedded, stats) =
            write_field_archive_embedding(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec())
                .unwrap();
        assert_eq!(stats.model_bytes, 0);
        let (plain, s1) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        assert_eq!(s1.model_bytes, 0);
        // Nothing to embed: the two writers emit the same bytes.
        assert_eq!(embedded, plain);
        assert_eq!(stats, s1);
        assert!(ArchiveReader::open(&embedded).unwrap().models().is_empty());
        // A version-2 copy carries an empty model section; its version-1
        // twin lacks only the model-length slot.
        let v2 = relay(&embedded, Layout::V2);
        let reader = ArchiveReader::open(&v2).unwrap();
        assert_eq!(reader.header().version, ARCHIVE_VERSION_MODELS);
        assert!(reader.models().is_empty());
        let v1 = relay(&plain, Layout::V1);
        assert_eq!(
            ArchiveReader::open(&v1).unwrap().header().version,
            ARCHIVE_VERSION
        );
        assert_eq!(v1.len() + 8, v2.len());
    }

    #[test]
    fn frames_inside_an_archive_are_plain_container_frames() {
        let field = ramp(Dims::d1(12));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (bytes, _) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        let reader = ArchiveReader::open(&bytes).unwrap();
        for i in 0..reader.chunk_count() {
            let frame = reader.chunk_frame(i).unwrap();
            assert!(frame.len() >= FRAME_LEN);
            assert_eq!(container::peek(frame).unwrap().codec, CodecId::Zfp);
            let (codec, _) = container::read_frame(frame).unwrap();
            assert_eq!(codec, reader.entries()[i].codec);
        }
    }

    #[test]
    fn reserved_archives_are_v3_and_still_random_accessible() {
        let field = ramp(Dims::d2(8, 6));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (inline, stats) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        let bytes = relay(&inline, Layout::Indexed { spare: 5 });
        let reader = ArchiveReader::open(&bytes).expect("open v3");
        assert_eq!(reader.header().version, ARCHIVE_VERSION_APPEND);
        assert_eq!(reader.header().index_cap, stats.chunks + 5);
        let recon = reader.decode_all(2, &mut raw_decoder()).unwrap();
        assert_eq!(recon.as_slice(), field.as_slice());
        // Random access agrees with the inline archive it was relaid from.
        let written = ArchiveReader::open(&inline).unwrap();
        for i in 0..stats.chunks {
            assert_eq!(
                reader.decode_chunk(i, &mut Raw).unwrap().as_slice(),
                written.decode_chunk(i, &mut Raw).unwrap().as_slice()
            );
        }
        // The reserved slots cost exactly 5 spare index entries plus the
        // index-capacity header slot, relative to the v1 layout, and the
        // whole index table relative to the inline one.
        let plain = relay(&inline, Layout::V1);
        assert_eq!(bytes.len(), plain.len() + 8 + 8 + 5 * CHUNK_ENTRY_LEN);
        assert_eq!(
            bytes.len(),
            inline.len() + (stats.chunks + 5) * CHUNK_ENTRY_LEN
        );
        // A flipped byte inside a reserved slot is caught at open.
        let mut evil = bytes.clone();
        evil[reader.header().encoded_len() + stats.chunks * CHUNK_ENTRY_LEN] = 1;
        assert!(matches!(
            ArchiveReader::open(&evil),
            Err(DecompressError::BadChunkIndex { .. })
        ));
    }

    #[test]
    fn stream_written_archives_reload_with_random_access() {
        let field = ramp(Dims::d2(9, 7));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let mut piped = Vec::new();
        let stats = write_archive_stream(
            &mut FieldSource(&field),
            ErrorBound::abs(1.0),
            &opts,
            &mut raw_codec(),
            &mut piped,
        )
        .expect("stream write");
        assert_eq!(stats.archive_bytes, piped.len());
        let reader = ArchiveReader::open(&piped).expect("open inline");
        assert_eq!(reader.header().version, ARCHIVE_VERSION_APPEND);
        assert_eq!(reader.header().index_cap, 0);
        assert_eq!(reader.chunk_count(), stats.chunks);
        let full = reader.decode_all(3, &mut raw_decoder()).unwrap();
        assert_eq!(full.as_slice(), field.as_slice());
        for i in 0..reader.chunk_count() {
            let spec = reader.chunk_spec(i).unwrap();
            let chunk = reader.decode_chunk(i, &mut Raw).unwrap();
            assert_eq!(chunk.as_slice(), full.read_block_valid(&spec).as_slice());
        }
        // Truncations and trailing garbage are rejected like any archive.
        for len in 0..piped.len() {
            assert!(ArchiveReader::open(&piped[..len]).is_err());
        }
        let mut padded = piped.clone();
        padded.push(0);
        assert!(ArchiveReader::open(&padded).is_err());
    }

    #[test]
    fn every_writer_emits_the_inline_layout() {
        let field = ramp(Dims::d2(9, 7));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let bound = ErrorBound::abs(1.0);
        let mut models =
            |_: &BlockSpec| Ok(Box::new(RawWithModel(b"weights".to_vec())) as Box<dyn Compressor>);
        let mut piped = Vec::new();
        write_archive_stream(
            &mut FieldSource(&field),
            bound,
            &opts,
            &mut raw_codec(),
            &mut piped,
        )
        .unwrap();
        let mut seekable = Cursor::new(Vec::new());
        write_archive_embedding(
            &mut FieldSource(&field),
            bound,
            &opts,
            &mut models,
            &mut seekable,
        )
        .unwrap();
        let written = [
            piped,
            seekable.into_inner(),
            write_field_archive(&field, bound, &opts, &mut raw_codec())
                .unwrap()
                .0,
            write_field_archive_embedding(&field, bound, &opts, &mut models)
                .unwrap()
                .0,
        ];
        for bytes in written {
            let header = ArchiveReader::open(&bytes).unwrap().header();
            assert_eq!(
                (header.version, header.index_cap),
                (ARCHIVE_VERSION_APPEND, 0)
            );
            assert_eq!(header.data_start(), header.encoded_len());
        }
    }

    /// `full` split along its slowest axis at `at`: (head field, tail field).
    #[allow(clippy::unreachable)] // no allow-unreachable-in-tests config key
    fn split_slow(full: &Field, at: usize) -> (Field, Field) {
        let e = full.dims().extents();
        let row: usize = e[1..].iter().product();
        let (head_dims, tail_dims) = match *e.as_slice() {
            [n] => (Dims::d1(at), Dims::d1(n - at)),
            [ny, nx] => (Dims::d2(at, nx), Dims::d2(ny - at, nx)),
            [nz, ny, nx] => (Dims::d3(at, ny, nx), Dims::d3(nz - at, ny, nx)),
            _ => unreachable!(),
        };
        let head = Field::from_vec(head_dims, full.as_slice()[..at * row].to_vec()).unwrap();
        let tail = Field::from_vec(tail_dims, full.as_slice()[at * row..].to_vec()).unwrap();
        (head, tail)
    }

    #[test]
    fn appended_archives_decode_as_if_written_in_one_pass() {
        // The oracle: the concatenated field, written conventionally.
        let full = ramp(Dims::d2(12, 6));
        let (head, tail) = split_slow(&full, 8);
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (inline, base_stats) =
            write_field_archive(&head, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();

        for base in [relay(&inline, Layout::Indexed { spare: 8 }), inline] {
            // An indexed file has 8 spare slots; the inline layout has no
            // index to run out of.
            let indexed = ArchiveHeader::read(&base).unwrap().index_slots() > 0;
            let spare = |used: usize| if indexed { 8 - used } else { usize::MAX };
            let mut app = ArchiveAppender::open(Cursor::new(base.clone())).expect("open appender");
            assert_eq!(app.header().dims, head.dims());
            assert_eq!(app.spare_slots(), spare(0));
            let stats = app
                .append(
                    &mut FieldSource(&tail),
                    ErrorBound::abs(1.0),
                    2,
                    &mut raw_codec(),
                )
                .expect("append");
            // The 4×6 slab tiles into 1×2 chunks of edge 4.
            assert_eq!(stats.chunks, 2);
            assert_eq!(app.spare_slots(), spare(2));
            let bytes = app.finalize().expect("finalize").into_inner();

            // Existing payload bytes were not rewritten: the whole data
            // section of the base archive reappears verbatim.
            let base_header = ArchiveHeader::read(&base).unwrap();
            let data = base_header.data_start();
            let base_data_end = base.len() - base_header.model_len;
            assert_eq!(&bytes[data..base_data_end], &base[data..base_data_end]);

            let reader = ArchiveReader::open(&bytes).expect("reopen");
            assert_eq!(reader.dims(), full.dims());
            assert_eq!(reader.chunk_count(), base_stats.chunks + stats.chunks);
            let recon = reader.decode_all(3, &mut raw_decoder()).unwrap();
            assert_eq!(recon.as_slice(), full.as_slice());
            for i in 0..reader.chunk_count() {
                let spec = reader.chunk_spec(i).unwrap();
                let chunk = reader.decode_chunk(i, &mut Raw).unwrap();
                assert_eq!(chunk.as_slice(), recon.read_block_valid(&spec).as_slice());
            }

            // A second append drains the indexed file's remaining capacity,
            // so a third is refused there; the inline archive takes it.
            let mut app = ArchiveAppender::open(Cursor::new(bytes)).unwrap();
            let more = ramp(Dims::d2(8, 6));
            app.append(
                &mut FieldSource(&more),
                ErrorBound::abs(1.0),
                2,
                &mut raw_codec(),
            )
            .expect("second append");
            assert_eq!(app.spare_slots(), spare(6));
            let third = app.append(
                &mut FieldSource(&more),
                ErrorBound::abs(1.0),
                2,
                &mut raw_codec(),
            );
            if indexed {
                assert!(matches!(
                    third,
                    Err(ArchiveWriteError::Invalid(reason)) if reason.contains("capacity")
                ));
            } else {
                assert_eq!(third.expect("no capacity limit").chunks, 4);
            }
            let bytes = app.finalize().unwrap().into_inner();
            let rows = if indexed { 20 } else { 28 };
            assert_eq!(
                ArchiveReader::open(&bytes).unwrap().dims(),
                Dims::d2(rows, 6)
            );
        }
    }

    #[test]
    fn inline_archives_append_without_an_index() {
        let full = ramp(Dims::d2(12, 6));
        let (head, tail) = split_slow(&full, 8);
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let mut piped = Vec::new();
        write_archive_stream(
            &mut FieldSource(&head),
            ErrorBound::abs(1.0),
            &opts,
            &mut raw_codec(),
            &mut piped,
        )
        .unwrap();
        let mut app = ArchiveAppender::open(Cursor::new(piped)).expect("open inline");
        assert_eq!(app.spare_slots(), usize::MAX);
        app.append(
            &mut FieldSource(&tail),
            ErrorBound::abs(1.0),
            2,
            &mut raw_codec(),
        )
        .expect("append to inline");
        let bytes = app.finalize().unwrap().into_inner();
        let reader = ArchiveReader::open(&bytes).unwrap();
        assert_eq!(reader.dims(), full.dims());
        let recon = reader.decode_all(2, &mut raw_decoder()).unwrap();
        assert_eq!(recon.as_slice(), full.as_slice());
    }

    #[test]
    fn appends_can_be_embedded_at_a_nonzero_stream_position() {
        let full = ramp(Dims::d1(16));
        let (head, tail) = split_slow(&full, 8);
        let opts = ArchiveOptions::new().chunk(4).window(1);
        let (inline, _) =
            write_field_archive(&head, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        for base in [relay(&inline, Layout::Indexed { spare: 4 }), inline] {
            let prefix = b"sixteen byte hdr".to_vec();
            let mut cursor = Cursor::new([prefix.clone(), base].concat());
            cursor.set_position(prefix.len() as u64);
            let mut app = ArchiveAppender::open(cursor).expect("open embedded");
            app.append(
                &mut FieldSource(&tail),
                ErrorBound::abs(1.0),
                1,
                &mut raw_codec(),
            )
            .unwrap();
            let bytes = app.finalize().unwrap().into_inner();
            assert_eq!(&bytes[..prefix.len()], prefix.as_slice());
            let reader = ArchiveReader::open(&bytes[prefix.len()..]).unwrap();
            let recon = reader.decode_all(2, &mut raw_decoder()).unwrap();
            assert_eq!(recon.as_slice(), full.as_slice());
        }
    }

    #[test]
    fn appender_preserves_and_extends_the_model_tail() {
        let full = ramp(Dims::d2(12, 6));
        let (head, tail) = split_slow(&full, 8);
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let weights_a = b"weights alpha".to_vec();
        let weights_b = b"weights beta".to_vec();
        let mut codecs_a = {
            let w = weights_a.clone();
            move |_spec: &BlockSpec| Ok(Box::new(RawWithModel(w.clone())) as Box<dyn Compressor>)
        };
        let (inline, _) =
            write_field_archive_embedding(&head, ErrorBound::abs(1.0), &opts, &mut codecs_a)
                .unwrap();
        // The writer emits inline v3; the embedded tail rides along.
        let header = ArchiveHeader::read(&inline).unwrap();
        assert_eq!((header.version, header.index_cap), (3, 0));

        for base in [relay(&inline, Layout::Indexed { spare: 8 }), inline] {
            assert_eq!(ArchiveHeader::read(&base).unwrap().version, 3);
            assert_eq!(ArchiveReader::open(&base).unwrap().models().len(), 1);

            let mut app = ArchiveAppender::open(Cursor::new(base)).unwrap();
            // Appending with one already-embedded model and one new model
            // must keep the old record and add exactly one.
            let mut codecs_ab = {
                let (a, b) = (weights_a.clone(), weights_b.clone());
                let mut flip = false;
                move |_spec: &BlockSpec| {
                    flip = !flip;
                    let w = if flip { a.clone() } else { b.clone() };
                    Ok(Box::new(RawWithModel(w)) as Box<dyn Compressor>)
                }
            };
            app.append_embedding(
                &mut FieldSource(&tail),
                ErrorBound::abs(1.0),
                2,
                &mut codecs_ab,
            )
            .unwrap();
            let bytes = app.finalize().unwrap().into_inner();
            let reader = ArchiveReader::open(&bytes).unwrap();
            let ids: Vec<ModelId> = reader.models().iter().map(|(id, _)| *id).collect();
            assert_eq!(ids.len(), 2);
            assert!(ids.contains(&ModelId::of(&weights_a)));
            assert!(ids.contains(&ModelId::of(&weights_b)));
            let recon = reader.decode_all(2, &mut raw_decoder()).unwrap();
            assert_eq!(recon.as_slice(), full.as_slice());
        }
    }

    #[test]
    fn appender_rejects_what_it_cannot_honour() {
        // Version-1 and version-2 archives are not appendable.
        let field = ramp(Dims::d2(8, 6));
        let opts = ArchiveOptions::new().chunk(4).window(2);
        let (inline, _) =
            write_field_archive(&field, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        for old in [Layout::V1, Layout::V2] {
            assert!(matches!(
                ArchiveAppender::open(Cursor::new(relay(&inline, old))),
                Err(ArchiveReadError::Archive(DecompressError::Unsupported(_)))
            ));
        }

        let slab = ramp(Dims::d2(4, 6));
        let ragged = ramp(Dims::d2(10, 6));
        let (ragged, _) =
            write_field_archive(&ragged, ErrorBound::abs(1.0), &opts, &mut raw_codec()).unwrap();
        let indexed = Layout::Indexed { spare: 8 };
        for (base, sealed) in [
            (relay(&inline, indexed), relay(&ragged, indexed)),
            (inline, ragged),
        ] {
            // Relative bounds would need the whole-field range — refused.
            let mut app = ArchiveAppender::open(Cursor::new(base)).unwrap();
            assert!(matches!(
                app.append(
                    &mut FieldSource(&slab),
                    ErrorBound::rel(1e-3),
                    2,
                    &mut raw_codec()
                ),
                Err(ArchiveWriteError::Invalid(reason)) if reason.contains("absolute")
            ));
            // Fast axes must match.
            let skewed = ramp(Dims::d2(4, 7));
            assert!(matches!(
                app.append(
                    &mut FieldSource(&skewed),
                    ErrorBound::abs(1.0),
                    2,
                    &mut raw_codec()
                ),
                Err(ArchiveWriteError::Invalid(reason)) if reason.contains("axis")
            ));
            // So must the rank.
            let flat = ramp(Dims::d1(6));
            assert!(matches!(
                app.append(
                    &mut FieldSource(&flat),
                    ErrorBound::abs(1.0),
                    2,
                    &mut raw_codec()
                ),
                Err(ArchiveWriteError::Invalid(reason)) if reason.contains("rank")
            ));

            // A slow extent that is not chunk-aligned seals the archive: its
            // edge chunks would change shape if the axis grew.
            let mut app = ArchiveAppender::open(Cursor::new(sealed)).unwrap();
            assert!(matches!(
                app.append(
                    &mut FieldSource(&slab),
                    ErrorBound::abs(1.0),
                    2,
                    &mut raw_codec()
                ),
                Err(ArchiveWriteError::Invalid(reason)) if reason.contains("sealed")
            ));
        }
    }
}
