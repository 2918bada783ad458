//! The one parser of `AESC` frames and `AESA` archives, and its drivers.
//!
//! A sans-I/O state machine is the only code that parses archive structure.
//! It never reads anything itself: it declares the next section it needs —
//! the fixed header, one 17-byte index entry, one 14-byte frame head, one
//! model record, or a chunk payload to step over — and validates each
//! section its driver hands back. Three thin drivers feed it:
//!
//! * [`StreamDecoder`], the push driver: bytes arrive in any granularity
//!   (a pipe, a socket, a chunked download), are buffered up to one section
//!   and come out as [`StreamEvent`]s. It also takes single `AESC` frames,
//!   detected by their magic.
//! * the whole-slice driver behind
//!   [`ArchiveReader::open`](crate::archive::ArchiveReader::open), which
//!   borrows every section from the slice and copies no payload byte;
//! * the seek driver behind
//!   [`ArchiveAppender::open`](crate::archive::ArchiveAppender::open),
//!   which reads headers, index entries, frame heads and model records and
//!   seeks past every chunk payload.
//!
//! ```text
//!   Detect ─"AESC"─► FrameHead ─► Payload ─► End
//!     │
//!     └─"AESA"─► ArchiveProbe ─► ArchiveHead ─► Index ─► ChunkHead ⇄ Payload
//!                (the slice and seek drivers    (v3 cap = 0             │
//!                 start here)                    skips Index)           │ all chunks
//!                                                                       ▼
//!                                                   ModelHead ⇄ ModelFrame ─► End
//! ```
//!
//! Every hostile-input check lives in the machine, so the three entry points
//! reject the same inputs with the same errors. Nothing is sized from a
//! header-declared count or length: the index grows one validated entry at
//! a time, and the push driver buffers only bytes actually fed.
//!
//! Known, deliberate divergence: the slice and seek drivers know the input's
//! length, and so does the push driver once [`StreamDecoder::finish`] has
//! been called. From then on the machine knows where the data section ends,
//! and an index entry that points past it into the model tail is
//! [`DecompressError::BadChunkIndex`]. A push caller that polls before
//! `finish` has entries validated without that bound, so the same
//! corruption surfaces as [`DecompressError::Truncated`] when the bytes run
//! out early.

use std::io::{Read, Seek, SeekFrom};

use crate::archive::ArchiveReadError;
use crate::container::{
    self, header_len, ArchiveHeader, ChunkEntry, CodecId, EmbeddedModel, FrameInfo, ModelId,
    ARCHIVE_MAGIC, CHUNK_ENTRY_LEN, CONTAINER_MAGIC, FRAME_LEN, MODEL_ID_LEN,
};
use crate::error::DecompressError;

/// One model record's head: the 16-byte id and the u64 frame length.
const RECORD_HEAD: usize = MODEL_ID_LEN + 8;

/// Why an archive with bytes between its last chunk frame and its model
/// section (or its end) is rejected.
const TRAILING_CHUNKS: &str = "trailing bytes after the last chunk frame";

/// One parse event produced by [`StreamDecoder::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// The archive's fixed-size header parsed and validated (`AESA` inputs
    /// only; emitted exactly once, before any other event).
    ArchiveHeader(ArchiveHeader),
    /// One chunk-index entry parsed and validated. For indexed archives
    /// these arrive in order before the first chunk; for inline v3 archives
    /// each entry is reconstructed from its chunk's frame header and arrives
    /// immediately before that chunk's [`StreamEvent::ChunkFrame`].
    IndexEntry {
        /// Zero-based chunk number.
        index: usize,
        /// The validated entry.
        entry: ChunkEntry,
    },
    /// A container frame header parsed and validated — for a single `AESC`
    /// input the stream's only frame, for an archive each chunk's frame.
    /// Only the 14-byte head has been read, so `model_id` is `None`.
    FrameHeader(FrameInfo),
    /// A complete container frame: header plus full payload. `frame` is the
    /// exact bytes a buffered reader would slice, ready for
    /// [`crate::Compressor::decompress`].
    ChunkFrame {
        /// Zero-based chunk number (0 for a single-frame stream).
        index: usize,
        /// Codec that owns the chunk (the index entry's codec for indexed
        /// archives, which the frame header must repeat).
        codec: CodecId,
        /// The complete `AESC` frame.
        frame: Vec<u8>,
    },
    /// One embedded model record from a v2/v3 archive tail, hash-verified.
    Model {
        /// Content-addressed id the record stores (verified against the
        /// frame payload's recomputed hash).
        id: ModelId,
        /// The complete `AESM` frame.
        frame: Vec<u8>,
    },
}

/// What the parser needs next, starting at its offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Exactly this many bytes, handed to [`Parser::parse`].
    Bytes(usize),
    /// The `len`-byte payload of chunk `index`'s frame, whose head was the
    /// last section parsed: step over it, then call [`Parser::skip`].
    Payload {
        index: usize,
        codec: CodecId,
        len: u64,
    },
    /// Every section is consumed; any further byte is trailing garbage
    /// ([`Parser::trailing`]).
    End,
}

/// One validated section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parsed {
    /// The archive's fixed-size header.
    Header(ArchiveHeader),
    /// A stored index entry.
    Entry { index: usize, entry: ChunkEntry },
    /// A frame head. `entry` is the index entry of an inline archive's
    /// chunk, reconstructed from its head.
    FrameHead {
        info: FrameInfo,
        entry: Option<(usize, ChunkEntry)>,
    },
    /// A model frame whose payload hashes to this id; its bytes are the
    /// section just parsed.
    Model(ModelId),
}

/// What the machine is waiting for.
#[derive(Debug, Clone, Copy)]
enum State {
    /// The 4-byte magic, to pick a mode (push driver only).
    Detect,
    /// Single-frame mode: the `AESC` frame head.
    FrameHead,
    /// Archive mode: the first 8 header bytes, whose version and rank fix
    /// the header's length.
    ArchiveProbe,
    /// Archive mode: the fixed header of `len` bytes.
    ArchiveHead { len: usize },
    /// Archive mode: index slot `slot`.
    Index { slot: usize },
    /// Archive mode: chunk `index`'s frame head.
    ChunkHead { index: usize },
    /// Chunk `index`'s payload (index 0 for a single frame).
    Payload {
        index: usize,
        codec: CodecId,
        len: u64,
    },
    /// Archive mode: the next model record's head, `left` bytes of the
    /// model section to go.
    ModelHead { left: usize },
    /// Archive mode: the frame of a model record whose head named `id`.
    ModelFrame {
        id: ModelId,
        len: usize,
        left: usize,
    },
    /// Every section consumed.
    End,
}

/// The sans-I/O state machine behind every `AESC`/`AESA` parse (see the
/// module docs).
#[derive(Debug)]
struct Parser {
    state: State,
    /// Offset of the next unparsed byte from the start of the input.
    offset: u64,
    /// Length of the whole input, once the driver knows it.
    total: Option<u64>,
    header: Option<ArchiveHeader>,
    /// Chunk count and index slots of `header`.
    count: usize,
    slots: usize,
    /// Where the chunk frames end, once `total` is known.
    data_end: Option<u64>,
    /// Tiling cursor: where the next chunk frame must start.
    expected: u64,
    /// The validated chunk index, stored or reconstructed.
    entries: Vec<ChunkEntry>,
    /// Ids seen in the model section (duplicate rejection).
    model_ids: Vec<ModelId>,
}

impl Parser {
    /// A parser that picks single-frame or archive mode from the magic.
    fn new() -> Parser {
        Parser {
            state: State::Detect,
            offset: 0,
            total: None,
            header: None,
            count: 0,
            slots: 0,
            data_end: None,
            expected: 0,
            entries: Vec::new(),
            model_ids: Vec::new(),
        }
    }

    /// A parser for an `AESA` archive of `total` bytes.
    fn archive(total: u64) -> Parser {
        Parser {
            state: State::ArchiveProbe,
            total: Some(total),
            ..Parser::new()
        }
    }

    /// The section the machine needs next. The checks that need no bytes
    /// run here: the input's length against the header, room for an inline
    /// chunk's frame head before the model section, room for a model
    /// record.
    fn next(&mut self) -> Result<Need, DecompressError> {
        if let (None, Some(total), Some(header)) = (self.data_end, self.total, self.header) {
            self.data_end = Some(self.data_section_end(&header, total)?);
        }
        Ok(match self.state {
            State::Detect => Need::Bytes(ARCHIVE_MAGIC.len()),
            State::FrameHead => Need::Bytes(FRAME_LEN),
            State::ArchiveProbe => Need::Bytes(8),
            State::ArchiveHead { len } => Need::Bytes(len),
            State::Index { .. } => Need::Bytes(CHUNK_ENTRY_LEN),
            State::ChunkHead { .. } => {
                if self
                    .data_end
                    .is_some_and(|end| end.saturating_sub(self.offset) < FRAME_LEN as u64)
                {
                    return Err(DecompressError::Truncated("archive chunk data"));
                }
                Need::Bytes(FRAME_LEN)
            }
            State::Payload { index, codec, len } => Need::Payload { index, codec, len },
            State::ModelHead { left: 0 } | State::End => {
                self.state = State::End;
                Need::End
            }
            State::ModelHead { left } if left < RECORD_HEAD => {
                return Err(DecompressError::Truncated("archive model entry"));
            }
            State::ModelHead { .. } => Need::Bytes(RECORD_HEAD),
            State::ModelFrame { len, .. } => Need::Bytes(len),
        })
    }

    /// Validate the section [`next`](Self::next) asked for — exactly the
    /// bytes at the parser's offset — and move past it.
    fn parse(&mut self, section: &[u8]) -> Result<Option<Parsed>, DecompressError> {
        match self.state {
            State::Detect => {
                self.state = if section == CONTAINER_MAGIC {
                    State::FrameHead
                } else if section == ARCHIVE_MAGIC {
                    State::ArchiveProbe
                } else {
                    return Err(DecompressError::BadMagic);
                };
                Ok(None)
            }
            State::FrameHead => {
                let info = container::peek(section)?;
                self.offset += FRAME_LEN as u64;
                self.state = State::Payload {
                    index: 0,
                    codec: info.codec,
                    len: info.payload_len,
                };
                Ok(Some(Parsed::FrameHead { info, entry: None }))
            }
            State::ArchiveProbe => {
                // Out-of-range versions and ranks are `ArchiveHeader::read`'s
                // to reject; clamp the rank only to size the wait.
                let (version, rank) = match section {
                    [_, _, _, _, version, _, rank, ..] => (*version, usize::from(*rank)),
                    _ => (0, 1),
                };
                self.state = State::ArchiveHead {
                    len: header_len(version, rank.clamp(1, 3)),
                };
                Ok(None)
            }
            State::ArchiveHead { .. } => {
                let header = ArchiveHeader::read(section)?;
                self.count = header.chunk_count();
                self.slots = header.index_slots();
                self.offset += header.encoded_len() as u64;
                self.expected = self.offset + self.slots as u64 * CHUNK_ENTRY_LEN as u64;
                self.header = Some(header);
                self.state = if self.slots > 0 {
                    State::Index { slot: 0 }
                } else {
                    State::ChunkHead { index: 0 }
                };
                Ok(Some(Parsed::Header(header)))
            }
            State::Index { slot } => {
                self.offset += CHUNK_ENTRY_LEN as u64;
                let parsed = if slot < self.count {
                    let entry = decode_chunk_entry(section)?;
                    self.push_entry(slot, entry)?;
                    Some(Parsed::Entry { index: slot, entry })
                } else if section.iter().any(|&b| b != 0) {
                    // A stray byte in a reserved slot is either corruption
                    // or a finalize that never happened.
                    return Err(DecompressError::BadChunkIndex {
                        chunk: slot,
                        reason: "reserved index slot is not zero-filled",
                    });
                } else {
                    None
                };
                self.state = if slot + 1 < self.slots {
                    State::Index { slot: slot + 1 }
                } else {
                    self.check_tiling()?;
                    State::ChunkHead { index: 0 }
                };
                Ok(parsed)
            }
            State::ChunkHead { index } => {
                let info = container::peek(section)?;
                let entry = match self.entries.get(index) {
                    Some(stored) => {
                        // The index promised this frame's extent and codec;
                        // the frame's own head must agree.
                        let body = stored.len - FRAME_LEN as u64;
                        if info.payload_len > body {
                            return Err(DecompressError::Truncated("container payload"));
                        }
                        if info.payload_len < body {
                            return Err(DecompressError::Inconsistent(
                                "trailing bytes after container payload",
                            ));
                        }
                        if stored.codec != info.codec {
                            return Err(DecompressError::Inconsistent(
                                "index entry codec disagrees with the chunk frame",
                            ));
                        }
                        None
                    }
                    None => {
                        // Inline archive: the frame head is the index entry.
                        // A saturated length still overflows the archive in
                        // `push_entry` (the frame starts past the header).
                        let entry = ChunkEntry {
                            codec: info.codec,
                            offset: self.offset,
                            len: (FRAME_LEN as u64).saturating_add(info.payload_len),
                        };
                        self.push_entry(index, entry)?;
                        if index + 1 == self.count {
                            self.check_tiling()?;
                        }
                        Some((index, entry))
                    }
                };
                self.offset += FRAME_LEN as u64;
                self.state = State::Payload {
                    index,
                    codec: info.codec,
                    len: info.payload_len,
                };
                Ok(Some(Parsed::FrameHead { info, entry }))
            }
            State::ModelHead { left } => {
                let id = ModelId::from_prefix(section)
                    .ok_or(DecompressError::Truncated("archive model entry"))?;
                let mut len = [0u8; 8];
                len.copy_from_slice(
                    section
                        .get(MODEL_ID_LEN..RECORD_HEAD)
                        .ok_or(DecompressError::Truncated("archive model entry"))?,
                );
                let left = left
                    .checked_sub(RECORD_HEAD)
                    .ok_or(DecompressError::Truncated("archive model entry"))?;
                let len = usize::try_from(u64::from_le_bytes(len))
                    .ok()
                    .filter(|&len| len <= left)
                    .ok_or(DecompressError::Truncated("archive model frame"))?;
                self.offset += RECORD_HEAD as u64;
                self.state = State::ModelFrame {
                    id,
                    len,
                    left: left - len,
                };
                Ok(None)
            }
            State::ModelFrame { id, len, left } => {
                let (_, payload) = container::read_model_frame(section)?;
                if ModelId::of(payload) != id {
                    return Err(DecompressError::Inconsistent(
                        "embedded model bytes do not hash to their stored id",
                    ));
                }
                if self.model_ids.contains(&id) {
                    return Err(DecompressError::Inconsistent(
                        "model embedded more than once",
                    ));
                }
                self.model_ids.push(id);
                self.offset += len as u64;
                self.state = State::ModelHead { left };
                Ok(Some(Parsed::Model(id)))
            }
            State::Payload { .. } | State::End => Err(DecompressError::Inconsistent(
                "internal: no section is due here",
            )),
        }
    }

    /// Move past the payload [`next`](Self::next) asked the driver to step
    /// over.
    fn skip(&mut self) {
        if let State::Payload { index, len, .. } = self.state {
            self.offset = self.offset.saturating_add(len);
            self.state = match self.header {
                None => State::End,
                Some(_) if index + 1 < self.count => State::ChunkHead { index: index + 1 },
                Some(header) => State::ModelHead {
                    left: header.model_len,
                },
            };
        }
    }

    /// The error for an input that ends before the section
    /// [`next`](Self::next) asked for; `partial` is what is left of it.
    fn truncated(&self, partial: &[u8]) -> DecompressError {
        DecompressError::Truncated(match self.state {
            State::Detect if !partial.is_empty() && ARCHIVE_MAGIC.starts_with(partial) => {
                "archive magic"
            }
            State::Detect => "container magic",
            State::FrameHead => "container frame",
            State::Payload { .. } if self.header.is_none() => "container payload",
            State::ArchiveProbe | State::ArchiveHead { .. } => {
                // The header decoder names the missing piece (its magic and
                // version checks come first).
                return ArchiveHeader::read(partial)
                    .err()
                    .unwrap_or(DecompressError::Truncated("archive header"));
            }
            State::Index { .. } => "archive chunk index",
            State::ChunkHead { .. } | State::Payload { .. } => "archive chunk data",
            State::ModelHead { .. } | State::ModelFrame { .. } | State::End => {
                "archive model section"
            }
        })
    }

    /// The error for bytes after the last section.
    fn trailing(&self) -> DecompressError {
        DecompressError::Inconsistent(if self.header.is_some() {
            TRAILING_CHUNKS
        } else {
            "trailing bytes after container payload"
        })
    }

    /// The header and validated index of a completely parsed archive.
    fn into_archive(self) -> Result<(ArchiveHeader, Vec<ChunkEntry>), DecompressError> {
        let header = self
            .header
            .ok_or(DecompressError::Truncated("archive header"))?;
        Ok((header, self.entries))
    }

    /// Where the chunk frames of a `total`-byte archive end: the model
    /// section takes the rest, and the header and index must fit before.
    fn data_section_end(&self, header: &ArchiveHeader, total: u64) -> Result<u64, DecompressError> {
        let end = total
            .checked_sub(header.model_len as u64)
            .ok_or(DecompressError::Truncated("archive model section"))?;
        let data_start = header.encoded_len() as u64 + self.slots as u64 * CHUNK_ENTRY_LEN as u64;
        if total < data_start {
            return Err(DecompressError::Truncated("archive chunk index"));
        }
        if end < data_start {
            return Err(DecompressError::Truncated("archive model section"));
        }
        Ok(end)
    }

    /// Append chunk `index`'s entry to the index once it tiles: it starts
    /// where its predecessor ended, holds at least a frame head, and ends
    /// inside the data section.
    fn push_entry(&mut self, index: usize, entry: ChunkEntry) -> Result<(), DecompressError> {
        let bad = |reason| DecompressError::BadChunkIndex {
            chunk: index,
            reason,
        };
        if entry.offset > self.expected {
            return Err(bad("entry leaves a gap after its predecessor"));
        }
        if entry.offset < self.expected {
            return Err(bad("entry overlaps its predecessor"));
        }
        if entry.len < FRAME_LEN as u64 {
            return Err(bad("frame shorter than a container frame"));
        }
        let next = entry
            .offset
            .checked_add(entry.len)
            .ok_or(bad("frame length overflows the archive"))?;
        if next > self.data_end.unwrap_or(u64::MAX) {
            // With a model section present the entry demonstrably reaches
            // into (or past) the model tail — a malformed index. Without
            // one, the input may simply have been cut short.
            return Err(match self.header {
                Some(h) if h.model_len > 0 => {
                    bad("entry points past the data section into the model tail")
                }
                _ => DecompressError::Truncated("archive chunk data"),
            });
        }
        self.expected = next;
        self.entries.push(entry);
        Ok(())
    }

    /// Once every entry is known, and with it the input's length, the
    /// frames must end exactly where the model section begins.
    fn check_tiling(&self) -> Result<(), DecompressError> {
        match self.data_end {
            Some(end) if end != self.expected => {
                Err(DecompressError::Inconsistent(TRAILING_CHUNKS))
            }
            _ => Ok(()),
        }
    }
}

/// Decode one raw 17-byte chunk-index entry (codec id, offset, length).
fn decode_chunk_entry(raw: &[u8]) -> Result<ChunkEntry, DecompressError> {
    if raw.len() < CHUNK_ENTRY_LEN {
        return Err(DecompressError::Truncated("archive chunk index"));
    }
    let codec = CodecId::from_byte(raw[0]).ok_or(DecompressError::UnknownCodec(raw[0]))?;
    let mut b = [0u8; 8];
    b.copy_from_slice(&raw[1..9]);
    let offset = u64::from_le_bytes(b);
    b.copy_from_slice(&raw[9..17]);
    let len = u64::from_le_bytes(b);
    Ok(ChunkEntry { codec, offset, len })
}

/// A completely parsed archive: its header, validated index and embedded
/// models.
pub(crate) type ParsedArchive<M> = (ArchiveHeader, Vec<ChunkEntry>, Vec<M>);

/// The whole-slice driver: parse the complete archive `bytes`, borrowing
/// every section from it. Each model comes as its id and `AESM` frame.
pub(crate) fn read_archive(
    bytes: &[u8],
) -> Result<ParsedArchive<(ModelId, &[u8])>, DecompressError> {
    let mut parser = Parser::archive(bytes.len() as u64);
    let mut models = Vec::new();
    loop {
        let rest = usize::try_from(parser.offset)
            .ok()
            .and_then(|at| bytes.get(at..))
            .unwrap_or(&[]);
        match parser.next()? {
            Need::Bytes(n) => {
                let section = rest.get(..n).ok_or_else(|| parser.truncated(rest))?;
                if let Some(Parsed::Model(id)) = parser.parse(section)? {
                    models.push((id, section));
                }
            }
            Need::Payload { len, .. } if len > rest.len() as u64 => {
                return Err(parser.truncated(rest));
            }
            Need::Payload { .. } => parser.skip(),
            Need::End if rest.is_empty() => {
                let (header, entries) = parser.into_archive()?;
                return Ok((header, entries, models));
            }
            Need::End => return Err(parser.trailing()),
        }
    }
}

/// The seek driver: parse the `len`-byte archive starting at `base` in
/// `file`, reading each section and seeking past every chunk payload.
pub(crate) fn seek_archive<F: Read + Seek>(
    file: &mut F,
    base: u64,
    len: u64,
) -> Result<ParsedArchive<EmbeddedModel>, ArchiveReadError> {
    let mut parser = Parser::archive(len);
    let mut models = Vec::new();
    let mut section = Vec::new();
    loop {
        let rest = len.saturating_sub(parser.offset);
        match parser.next()? {
            Need::Bytes(n) => {
                // Read what the file still holds of the section.
                section.resize(n.min(usize::try_from(rest).unwrap_or(usize::MAX)), 0);
                file.seek(SeekFrom::Start(base + parser.offset))?;
                file.read_exact(&mut section)?;
                if section.len() < n {
                    return Err(parser.truncated(&section).into());
                }
                if let Some(Parsed::Model(id)) = parser.parse(&section)? {
                    models.push(EmbeddedModel {
                        id,
                        frame: section.clone(),
                    });
                }
            }
            Need::Payload { len, .. } if len > rest => return Err(parser.truncated(&[]).into()),
            Need::Payload { .. } => parser.skip(),
            Need::End if rest == 0 => {
                let (header, entries) = parser.into_archive()?;
                return Ok((header, entries, models));
            }
            Need::End => return Err(parser.trailing().into()),
        }
    }
}

/// The push driver: a decoder for `AESC` frames and `AESA` archives that is
/// fed bytes as they arrive.
///
/// Feed bytes with [`feed`](Self::feed), drain events with
/// [`poll`](Self::poll), and signal end-of-input with
/// [`finish`](Self::finish) (truncation can only be diagnosed once the
/// caller declares the input over). After an error, every subsequent poll
/// repeats the same error — a failed stream cannot be resumed.
#[derive(Debug)]
pub struct StreamDecoder {
    parser: Parser,
    /// Unconsumed input from `pos` on. Consumed bytes are compacted away so
    /// residency tracks the current section, not the stream.
    buf: Vec<u8>,
    pos: usize,
    /// Head of the frame whose payload is being buffered.
    head: [u8; FRAME_LEN],
    /// An event produced alongside the previous poll's return value (an
    /// inline chunk's reconstructed index entry comes with its frame
    /// header).
    pending: Option<StreamEvent>,
    /// Caller declared end-of-input.
    eof: bool,
    /// The whole input parsed cleanly.
    done: bool,
    /// Sticky failure: every poll after an error repeats it.
    failed: Option<DecompressError>,
    /// High-water mark of `buf.len()` (observability for residency tests).
    peak_buffered: usize,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// A fresh decoder that will auto-detect the stream shape from its
    /// magic.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            parser: Parser::new(),
            buf: Vec::new(),
            pos: 0,
            head: [0; FRAME_LEN],
            pending: None,
            eof: false,
            done: false,
            failed: None,
            peak_buffered: 0,
        }
    }

    /// Append arriving bytes. Never parses and never fails; all validation
    /// happens in [`poll`](Self::poll).
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing so residency tracks unconsumed bytes only.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
    }

    /// Declare the input complete. Idempotent; bytes must not be fed
    /// afterwards (they would be reported as trailing garbage). Once the
    /// input's length is known, the parser checks the index against it.
    pub fn finish(&mut self) {
        self.eof = true;
        self.parser.total = Some(self.parser.offset + self.buffered_len() as u64);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Largest number of bytes the decoder ever held at once.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// The parsed archive header, once [`StreamEvent::ArchiveHeader`] has
    /// been emitted.
    pub fn archive_header(&self) -> Option<&ArchiveHeader> {
        self.parser.header.as_ref()
    }

    /// True once the whole input parsed cleanly: [`finish`](Self::finish)
    /// was called, every section was consumed and no error occurred.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advance the machine. `Ok(Some(event))` hands out the next parse
    /// event; `Ok(None)` means either "need more input" (before
    /// [`finish`](Self::finish)) or "stream complete" (after). Errors are
    /// sticky.
    pub fn poll(&mut self) -> Result<Option<StreamEvent>, DecompressError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if let Some(ev) = self.pending.take() {
            return Ok(Some(ev));
        }
        self.step().inspect_err(|e| self.failed = Some(e.clone()))
    }

    /// Feed the parser buffered sections until one yields an event or the
    /// buffer runs dry.
    fn step(&mut self) -> Result<Option<StreamEvent>, DecompressError> {
        loop {
            let avail = self.buf.get(self.pos..).unwrap_or(&[]);
            let need = self.parser.next()?;
            let wanted = match need {
                Need::Bytes(n) => n,
                // u64 → usize must be checked: on a 32-bit target a declared
                // length of 2^32 + k would otherwise wrap to k.
                Need::Payload { len, .. } => usize::try_from(len).map_err(|_| {
                    DecompressError::InvalidHeader("container payload exceeds this platform")
                })?,
                Need::End if avail.is_empty() => {
                    self.done = self.eof;
                    return Ok(None);
                }
                Need::End => return Err(self.parser.trailing()),
            };
            let Some(section) = avail.get(..wanted) else {
                return if self.eof {
                    Err(self.parser.truncated(avail))
                } else {
                    Ok(None)
                };
            };
            let start = self.parser.offset;
            let event = match need {
                Need::Payload { index, codec, .. } => {
                    self.parser.skip();
                    Some(StreamEvent::ChunkFrame {
                        index,
                        codec,
                        frame: [self.head.as_slice(), section].concat(),
                    })
                }
                _ => match self.parser.parse(section)? {
                    None => None,
                    Some(Parsed::Header(header)) => Some(StreamEvent::ArchiveHeader(header)),
                    Some(Parsed::Entry { index, entry }) => {
                        Some(StreamEvent::IndexEntry { index, entry })
                    }
                    Some(Parsed::FrameHead { info, entry }) => {
                        self.head.copy_from_slice(section);
                        match entry {
                            // Inline archive: the reconstructed entry comes
                            // first, as in an indexed archive.
                            Some((index, entry)) => {
                                self.pending = Some(StreamEvent::FrameHeader(info));
                                Some(StreamEvent::IndexEntry { index, entry })
                            }
                            None => Some(StreamEvent::FrameHeader(info)),
                        }
                    }
                    Some(Parsed::Model(id)) => Some(StreamEvent::Model {
                        id,
                        frame: section.to_vec(),
                    }),
                },
            };
            self.pos += usize::try_from(self.parser.offset - start).unwrap_or(wanted);
            if event.is_some() {
                return Ok(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{ArchiveAppender, ArchiveReadError, ArchiveReader};
    use crate::container::{
        peek, write_chunk_entry, write_frame, ARCHIVE_VERSION, ARCHIVE_VERSION_APPEND,
        ARCHIVE_VERSION_MODELS,
    };
    use aesz_tensor::Dims;
    use std::io::Cursor;

    /// Feed `bytes` in `step`-sized increments, collecting every event.
    fn run(bytes: &[u8], step: usize) -> Result<Vec<StreamEvent>, DecompressError> {
        let mut dec = StreamDecoder::new();
        let mut events = Vec::new();
        for piece in bytes.chunks(step.max(1)) {
            dec.feed(piece);
            while let Some(ev) = dec.poll()? {
                events.push(ev);
            }
        }
        dec.finish();
        while let Some(ev) = dec.poll()? {
            events.push(ev);
        }
        assert!(dec.is_done());
        Ok(events)
    }

    #[test]
    fn single_frames_stream_at_any_granularity() {
        let payload = b"a payload of some size".repeat(7);
        let framed = write_frame(CodecId::SzAuto, &payload);
        for step in [1, 2, 3, 7, framed.len()] {
            let events = run(&framed, step).unwrap();
            assert_eq!(events.len(), 2);
            assert!(matches!(
                events[0],
                StreamEvent::FrameHeader(FrameInfo {
                    codec: CodecId::SzAuto,
                    ..
                })
            ));
            match &events[1] {
                StreamEvent::ChunkFrame {
                    index: 0,
                    codec: CodecId::SzAuto,
                    frame,
                } => assert_eq!(frame, &framed),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn single_frame_errors_match_the_buffered_classes() {
        let framed = write_frame(CodecId::Zfp, b"abc");
        // Truncation at every prefix mirrors `read_frame`.
        for cut in 0..framed.len() {
            let err = run(&framed[..cut], 1).unwrap_err();
            assert!(
                matches!(err, DecompressError::Truncated(_)),
                "cut {cut} gave {err:?}"
            );
        }
        // Trailing garbage.
        let mut padded = framed.clone();
        padded.push(0);
        assert_eq!(
            run(&padded, 1).unwrap_err(),
            DecompressError::Inconsistent("trailing bytes after container payload")
        );
        // Bad magic, version, codec.
        let mut evil = framed.clone();
        evil[0] = b'X';
        assert_eq!(run(&evil, 1).unwrap_err(), DecompressError::BadMagic);
        let mut evil = framed.clone();
        evil[4] = 9;
        assert_eq!(
            run(&evil, 3).unwrap_err(),
            DecompressError::UnsupportedVersion(9)
        );
        let mut evil = framed;
        evil[5] = 200;
        assert_eq!(
            run(&evil, 2).unwrap_err(),
            DecompressError::UnknownCodec(200)
        );
    }

    /// A synthetic archive of two raw chunks over `d1(8)`/chunk 4: the
    /// given `version`, `index_cap` slots (v3 only, 0 = inline) and
    /// `models` in its tail (v2/v3 only).
    fn archive(version: u8, index_cap: usize, models: &[EmbeddedModel]) -> Vec<u8> {
        let frames = [
            (CodecId::Zfp, write_frame(CodecId::Zfp, b"chunk zero")),
            (CodecId::Sz2, write_frame(CodecId::Sz2, b"chunk one!")),
        ];
        let mut section = Vec::new();
        for m in models {
            section.extend_from_slice(m.id.as_bytes());
            section.extend_from_slice(&(m.frame.len() as u64).to_le_bytes());
            section.extend_from_slice(&m.frame);
        }
        let header = ArchiveHeader {
            dims: Dims::d1(8),
            chunk: 4,
            version,
            model_len: section.len(),
            index_cap,
        };
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        let mut offset = header.data_start() as u64;
        for (codec, f) in frames.iter().take(header.index_slots()) {
            let len = f.len() as u64;
            write_chunk_entry(
                &mut bytes,
                &ChunkEntry {
                    codec: *codec,
                    offset,
                    len,
                },
            );
            offset += len;
        }
        bytes.resize(header.data_start(), 0);
        for (_, f) in &frames {
            bytes.extend_from_slice(f);
        }
        bytes.extend_from_slice(&section);
        bytes
    }

    fn v1_archive() -> Vec<u8> {
        archive(ARCHIVE_VERSION, 0, &[])
    }

    /// The same two chunks as an inline v3 archive with a one-model tail.
    fn v3_inline_archive_with_model() -> (Vec<u8>, EmbeddedModel) {
        let model = EmbeddedModel::new(CodecId::AeSz, b"tail weights");
        (
            archive(ARCHIVE_VERSION_APPEND, 0, std::slice::from_ref(&model)),
            model,
        )
    }

    #[test]
    fn index_codec_lie_is_rejected_at_the_frame_header() {
        // Entry 1 claims ZFP, but its frame's own header says SZ2: the
        // buffered path fails this at decode time (the forked ZFP rejects
        // the foreign frame); the parser must not hand the lie downstream.
        let mut evil = v1_archive();
        let header = ArchiveHeader::read(&evil).unwrap();
        let codec_at = header.encoded_len() + CHUNK_ENTRY_LEN;
        assert_eq!(evil[codec_at], CodecId::Sz2 as u8);
        evil[codec_at] = CodecId::Zfp as u8;
        assert_eq!(
            run(&evil, 1).unwrap_err(),
            DecompressError::Inconsistent("index entry codec disagrees with the chunk frame")
        );
    }

    #[test]
    fn archives_stream_with_event_parity_across_granularities() {
        let bytes = v1_archive();
        let whole = run(&bytes, bytes.len()).unwrap();
        for step in [1, 2, 5, 13] {
            assert_eq!(run(&bytes, step).unwrap(), whole, "step {step} diverged");
        }
        // Events: header, two index entries, then (frame header, chunk) × 2.
        assert!(matches!(whole[0], StreamEvent::ArchiveHeader(h) if h.version == ARCHIVE_VERSION));
        assert!(matches!(whole[1], StreamEvent::IndexEntry { index: 0, .. }));
        assert!(matches!(whole[2], StreamEvent::IndexEntry { index: 1, .. }));
        let frames: Vec<_> = whole
            .iter()
            .filter_map(|e| match e {
                StreamEvent::ChunkFrame { index, codec, .. } => Some((*index, *codec)),
                _ => None,
            })
            .collect();
        assert_eq!(frames, vec![(0, CodecId::Zfp), (1, CodecId::Sz2)]);

        // The streamed entries match the slice driver's index.
        let reader = ArchiveReader::open(&bytes).unwrap();
        let streamed: Vec<_> = whole
            .iter()
            .filter_map(|e| match e {
                StreamEvent::IndexEntry { entry, .. } => Some(*entry),
                _ => None,
            })
            .collect();
        assert_eq!(streamed, reader.entries());
    }

    #[test]
    fn hostile_frame_lengths_error_cleanly_in_every_stream_mode() {
        // Single-frame mode, u64::MAX declared payload: the decoder buffers
        // only what was actually fed (no length-proportional reservation)
        // and reports truncation at finish.
        let mut framed = write_frame(CodecId::Zfp, b"tiny");
        framed[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            run(&framed, 3).unwrap_err(),
            DecompressError::Truncated("container payload")
        );

        // The 32-bit wraparound value 2^32, which an unchecked `as usize`
        // cast would turn into a successfully-parsed 0-byte payload on a
        // 32-bit target: same clean truncation error.
        framed[6..14].copy_from_slice(&(1u64 << 32).to_le_bytes());
        assert_eq!(
            run(&framed, 3).unwrap_err(),
            DecompressError::Truncated("container payload")
        );

        // Indexed archive mode: the frame's own declared length must agree
        // with the index entry's extent, so a u64::MAX lie dies right at
        // the chunk frame header.
        let mut evil = v1_archive();
        let header = ArchiveHeader::read(&evil).unwrap();
        let len_at = header.data_start() + 6;
        evil[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            run(&evil, 1).unwrap_err(),
            DecompressError::Truncated("container payload")
        );

        // Inline (index-free) archive mode has no entry to cross-check, but
        // a length that would overflow the archive's own u64 addressing is
        // rejected before any buffering begins.
        let (mut evil, _) = v3_inline_archive_with_model();
        let header = ArchiveHeader::read(&evil).unwrap();
        let len_at = header.data_start() + 6;
        evil[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            run(&evil, 1).unwrap_err(),
            DecompressError::BadChunkIndex {
                chunk: 0,
                reason: "frame length overflows the archive",
            }
        );
    }

    #[test]
    fn inline_v3_archives_stream_and_verify_their_model_tail() {
        let (bytes, model) = v3_inline_archive_with_model();
        for step in [1, 3, bytes.len()] {
            let events = run(&bytes, step).unwrap();
            // Inline order: header, then per chunk (reconstructed entry,
            // frame header, frame), then the model tail.
            assert!(matches!(events[0], StreamEvent::ArchiveHeader(_)));
            assert!(matches!(
                events[1],
                StreamEvent::IndexEntry { index: 0, .. }
            ));
            assert!(matches!(events[2], StreamEvent::FrameHeader(_)));
            assert!(matches!(
                events[3],
                StreamEvent::ChunkFrame { index: 0, .. }
            ));
            assert!(matches!(
                events[4],
                StreamEvent::IndexEntry { index: 1, .. }
            ));
            assert!(matches!(events[5], StreamEvent::FrameHeader(_)));
            assert!(matches!(
                events[6],
                StreamEvent::ChunkFrame { index: 1, .. }
            ));
            match &events[7] {
                StreamEvent::Model { id, frame } => {
                    assert_eq!(*id, model.id);
                    assert_eq!(*frame, model.frame);
                }
                other => panic!("unexpected event {other:?}"),
            }
            assert_eq!(events.len(), 8);
        }
        // A flipped bit in the model payload is caught with the buffered
        // path's error.
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 1;
        assert_eq!(
            run(&evil, 1).unwrap_err(),
            DecompressError::Inconsistent("embedded model bytes do not hash to their stored id")
        );
        // Truncation anywhere inside the archive is Truncated.
        for cut in [5, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                run(&bytes[..cut], 1).unwrap_err(),
                DecompressError::Truncated(_)
            ));
        }
    }

    #[test]
    fn residency_stays_bounded_by_one_section() {
        let bytes = v1_archive();
        let mut dec = StreamDecoder::new();
        for b in &bytes {
            dec.feed(std::slice::from_ref(b));
            while dec.poll().unwrap().is_some() {}
        }
        dec.finish();
        while dec.poll().unwrap().is_some() {}
        assert!(dec.is_done());
        // Largest section in this archive: the fixed header (32 bytes for
        // rank 1 v1) — every chunk frame is smaller than 32 bytes here, so
        // the high-water mark must stay tiny and, crucially, far below the
        // whole input.
        assert!(
            dec.peak_buffered() <= 40,
            "peak {} exceeds one section",
            dec.peak_buffered()
        );
        assert!(dec.peak_buffered() < bytes.len());
    }

    /// The error each driver reports for `bytes`: the slice driver, the
    /// push driver fed every byte and `finish` before polling, and (for v3
    /// inputs) the seek driver.
    fn driver_errors(bytes: &[u8]) -> Vec<Option<DecompressError>> {
        let mut pushed = StreamDecoder::new();
        pushed.feed(bytes);
        pushed.finish();
        let pushed = loop {
            match pushed.poll() {
                Ok(Some(_)) => {}
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        let mut errors = vec![ArchiveReader::open(bytes).err(), pushed];
        if bytes.get(4) == Some(&ARCHIVE_VERSION_APPEND) {
            errors.push(match ArchiveAppender::open(Cursor::new(bytes.to_vec())) {
                Ok(_) => None,
                Err(ArchiveReadError::Archive(e)) => Some(e),
                Err(other) => panic!("seek driver failed outside the parser: {other}"),
            });
        }
        errors
    }

    /// Offset of index entry `i`'s byte `field` (0 codec, 1 offset, 9
    /// length), if the archive has an index.
    fn entry_byte(h: &ArchiveHeader, i: usize, field: usize) -> Option<usize> {
        (h.index_slots() > i).then(|| h.encoded_len() + i * CHUNK_ENTRY_LEN + field)
    }

    /// A corruption of a clean archive (`None` where it does not apply)
    /// and the error every driver must report for it.
    type Corruption = fn(&[u8], &ArchiveHeader) -> Option<(Vec<u8>, DecompressError)>;

    const INTO_TAIL: DecompressError = DecompressError::BadChunkIndex {
        chunk: 1,
        reason: "entry points past the data section into the model tail",
    };

    #[test]
    fn every_driver_reports_the_same_error_for_each_corruption() {
        let model = EmbeddedModel::new(CodecId::AeSz, b"tail weights");
        let models = std::slice::from_ref(&model);
        let kinds = [
            ("v1", archive(ARCHIVE_VERSION, 0, &[])),
            ("v2", archive(ARCHIVE_VERSION_MODELS, 0, models)),
            ("indexed v3", archive(ARCHIVE_VERSION_APPEND, 4, models)),
            ("inline v3", archive(ARCHIVE_VERSION_APPEND, 0, models)),
        ];
        let cases: [(&str, Corruption); 8] = [
            ("a gap in the index tiling", |bytes, h| {
                let mut evil = bytes.to_vec();
                evil[entry_byte(h, 1, 1)?] += 1;
                Some((
                    evil,
                    DecompressError::BadChunkIndex {
                        chunk: 1,
                        reason: "entry leaves a gap after its predecessor",
                    },
                ))
            }),
            ("an overlap in the index tiling", |bytes, h| {
                let mut evil = bytes.to_vec();
                evil[entry_byte(h, 1, 1)?] -= 1;
                Some((
                    evil,
                    DecompressError::BadChunkIndex {
                        chunk: 1,
                        reason: "entry overlaps its predecessor",
                    },
                ))
            }),
            ("a non-zero reserved slot", |bytes, h| {
                let mut evil = bytes.to_vec();
                evil[entry_byte(h, h.chunk_count(), 5)?] = 0xAA;
                Some((
                    evil,
                    DecompressError::BadChunkIndex {
                        chunk: 2,
                        reason: "reserved index slot is not zero-filled",
                    },
                ))
            }),
            ("an entry reaching into the model tail", |bytes, h| {
                if h.model_len == 0 {
                    return None;
                }
                let mut evil = bytes.to_vec();
                // Lengthen chunk 1 by one byte: its index entry, or its
                // frame head in an inline archive.
                let at = entry_byte(h, 1, 9).unwrap_or_else(|| {
                    let first = peek(&bytes[h.data_start()..]).unwrap();
                    h.data_start() + FRAME_LEN + first.payload_len as usize + 6
                });
                evil[at] += 1;
                Some((evil, INTO_TAIL))
            }),
            ("a flipped model byte", |bytes, h| {
                if h.model_len == 0 {
                    return None;
                }
                let mut evil = bytes.to_vec();
                let last = evil.len() - 1;
                evil[last] ^= 1;
                Some((
                    evil,
                    DecompressError::Inconsistent(
                        "embedded model bytes do not hash to their stored id",
                    ),
                ))
            }),
            ("a duplicate model", |bytes, h| {
                if h.model_len == 0 {
                    return None;
                }
                let section = &bytes[bytes.len() - h.model_len..];
                let mut evil = [bytes, section].concat();
                let len_at = h.encoded_len() - 8;
                evil[len_at..len_at + 8].copy_from_slice(&(2 * section.len() as u64).to_le_bytes());
                Some((
                    evil,
                    DecompressError::Inconsistent("model embedded more than once"),
                ))
            }),
            ("a trailing byte", |bytes, _| {
                Some((
                    [bytes, &[0]].concat(),
                    DecompressError::Inconsistent(TRAILING_CHUNKS),
                ))
            }),
            ("a truncation", |bytes, h| {
                let cut = bytes[..bytes.len() - 1].to_vec();
                // The last chunk now ends past the data section.
                Some((
                    cut,
                    if h.model_len > 0 {
                        INTO_TAIL
                    } else {
                        DecompressError::Truncated("archive chunk data")
                    },
                ))
            }),
        ];
        for (kind, bytes) in &kinds {
            let header = ArchiveHeader::read(bytes).unwrap();
            let clean = driver_errors(bytes);
            assert!(clean.iter().all(Option::is_none), "clean {kind}: {clean:?}");
            for (case, corrupt) in &cases {
                let Some((evil, expected)) = corrupt(bytes, &header) else {
                    continue;
                };
                for error in driver_errors(&evil) {
                    assert_eq!(
                        error.as_ref(),
                        Some(&expected),
                        "{case} in a {kind} archive"
                    );
                }
            }
        }
    }

    #[test]
    fn sticky_failure_repeats_and_garbage_is_rejected() {
        let mut dec = StreamDecoder::new();
        dec.feed(b"GARBAGE!");
        assert_eq!(dec.poll().unwrap_err(), DecompressError::BadMagic);
        assert_eq!(dec.poll().unwrap_err(), DecompressError::BadMagic);
        dec.feed(b"more");
        assert_eq!(dec.poll().unwrap_err(), DecompressError::BadMagic);
    }
}
