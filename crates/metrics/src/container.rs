//! The self-describing outer container every compressed stream is wrapped in.
//!
//! Each codec keeps its own payload format, but every stream produced through
//! the [`Compressor`](crate::Compressor) trait starts with one tiny frame so
//! a service front-end can dispatch untrusted bytes to the right decoder
//! without trusting anything beyond the frame itself:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"AESC"
//! 4       1     container version (currently 1)
//! 5       1     codec id (see CodecId)
//! 6       8     payload length, u64 little-endian
//! 14      n     codec-specific payload (exactly `payload length` bytes)
//! ```
//!
//! [`read_frame`] rejects bad magic, unknown codec ids, unknown versions and
//! any disagreement between the declared payload length and the actual input
//! length, so truncated or padded streams fail before a single payload byte
//! is interpreted.
//!
//! # The multi-chunk archive format (`AESA`)
//!
//! On top of the single-payload frame, this module defines the wire format
//! of the **streaming archive** ([`crate::archive`]): a field split into a
//! grid of chunks, each chunk compressed independently into one complete
//! `AESC` frame. Every writer emits one layout, **inline version 3**
//! ([`ArchiveHeader::inline`]): the header, the chunk frames back to back in
//! index order, and a tail of embedded models (possibly empty):
//!
//! ```text
//! offset      size  field
//! 0           4     magic  b"AESA"
//! 4           1     archive version (3, ARCHIVE_VERSION_APPEND)
//! 5           1     dtype (1 = f32 little-endian)
//! 6           1     rank r (1..=3)
//! 7           1     reserved, must be 0
//! 8           8·r   extents, u64 little-endian each, slow-to-fast
//! 8+8r        8     chunk edge length, u64 little-endian
//! 16+8r       8     chunk count n, u64 little-endian (== the grid product)
//! 24+8r       8     index capacity, u64 LE: 0, no index table
//! 32+8r       8     model section length m_len, u64 little-endian
//! 40+8r       …     n chunk frames, each a complete AESC frame, stored
//!                   back-to-back in index order
//! end−m_len   m_len model section: per model, a 16-byte ModelId, a u64 LE
//!                   frame length, and a complete AESM model frame
//! ```
//!
//! There is no index table: each frame's 14-byte head names its codec and
//! payload length, so the parser rebuilds every chunk's codec, offset and
//! length by walking the heads once at open, and a single chunk then decodes
//! without touching the rest of the archive. A writer needs no seek (a pipe
//! will do; only the model-section length is patched when models ride
//! along), and [`crate::archive::ArchiveAppender`] grows the archive with
//! no capacity limit. The model tail lets an archive ship the trained
//! networks its learned chunks reference, each embedded exactly once and
//! indexed by content-addressed [`ModelId`].
//!
//! ## Read-only layouts
//!
//! Archives written before every writer went inline carry a **chunk index**
//! between the header and the frames: one 17-byte entry per chunk (codec id
//! u8, absolute byte offset u64 LE, frame length u64 LE). The parser reads
//! all three of these layouts, and the appender still fills an indexed
//! version-3 file's spare slots, but no writer emits them.
//!
//! **Version 1** ([`ARCHIVE_VERSION`]) has no model section:
//!
//! ```text
//! offset      size  field
//! 0           4     magic  b"AESA"
//! 4           1     archive version (1)
//! 5           3     dtype, rank r, reserved (as above)
//! 8           8·r   extents, u64 little-endian each, slow-to-fast
//! 8+8r        8     chunk edge length, u64 little-endian
//! 16+8r       8     chunk count n, u64 little-endian (== the grid product)
//! 24+8r       17·n  chunk index: n × (codec id u8, absolute byte offset
//!                   u64 LE, frame length u64 LE)
//! 24+8r+17n   …     n chunk frames, back-to-back in index order
//! ```
//!
//! **Version 2** ([`ARCHIVE_VERSION_MODELS`]) adds the model section:
//!
//! ```text
//! offset      size  field (v2 additions)
//! 24+8r       8     model section length m_len, u64 little-endian
//! 32+8r       17·n  chunk index (as in v1, shifted by 8)
//! …                 chunk frames (as in v1)
//! end−m_len   m_len model section (as in inline v3)
//! ```
//!
//! **Indexed version 3** ([`ARCHIVE_VERSION_APPEND`] with an index capacity
//! `cap >= n`) reserves `cap` index slots: the first `n` hold real entries
//! and the rest are zero-filled (validated zero on read), for appends that
//! do not shift a single payload byte:
//!
//! ```text
//! offset      size  field (v3 additions)
//! 24+8r       8     index capacity cap, u64 LE (0, or >= chunk count n)
//! 32+8r       8     model section length m_len, u64 little-endian
//! 40+8r       17·cap chunk index slots (absent when cap == 0)
//! …                 chunk frames, then the model section as in v2
//! ```
//!
//! The archive parser in [`crate::stream`] is the trust boundary, whichever
//! driver feeds it ([`crate::stream::StreamDecoder`] for pushed bytes,
//! [`crate::archive::ArchiveReader::open`] for a slice in memory,
//! [`crate::archive::ArchiveAppender::open`] for a seekable file): extents
//! are capped at [`MAX_FIELD_ELEMS`], the stored chunk count must equal the
//! recomputed grid product, the chunk frames must tile the data section
//! exactly (the first at the data start, each abutting the previous one,
//! the last ending where the model section begins — the input's end for
//! v1), every stored index entry must agree with its frame head, and model
//! entries must tile the model section exactly with every frame's
//! recomputed payload hash equal to its stored id — so a flipped offset, a
//! lying chunk count, a corrupted model or a truncated tail is an error
//! before any chunk payload is interpreted, and no allocation exceeds the
//! input size.

use crate::error::DecompressError;
use aesz_tensor::Dims;

pub use aesz_codec::hash::{ModelId, MODEL_ID_LEN};

/// Magic bytes opening every container frame ("AE-SZ container").
pub const CONTAINER_MAGIC: [u8; 4] = *b"AESC";

/// Current container frame version.
pub const CONTAINER_VERSION: u8 = 1;

/// Size of the fixed-length frame preceding the payload.
pub const FRAME_LEN: usize = 4 + 1 + 1 + 8;

/// Upper bound on the element count any stream header may declare (2³¹
/// points, an 8 GiB `f32` field). Every decode-side allocation in the
/// workspace is proportional to a header-declared size, so this single cap
/// bounds what hostile headers can request from any codec.
pub const MAX_FIELD_ELEMS: usize = 1 << 31;

/// Identifies which compressor produced a stream — the dispatch key of
/// `decompress_any`. The discriminants are part of the on-disk format and
/// must never be reused for a different codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// The AE-SZ compressor of the paper (`aesz_core::AeSz`).
    AeSz = 1,
    /// SZ2.1-like blockwise Lorenzo/regression baseline.
    Sz2 = 2,
    /// ZFP-like transform baseline.
    Zfp = 3,
    /// SZauto-like second-order Lorenzo baseline.
    SzAuto = 4,
    /// SZinterp-like spline-interpolation baseline.
    SzInterp = 5,
    /// AE-A: the fully-connected autoencoder of Liu et al. \[43\].
    AeA = 6,
    /// AE-B: the convolutional autoencoder of Glaws et al. \[40\] (fixed-rate,
    /// not error-bounded).
    AeB = 7,
}

impl CodecId {
    /// All codec ids this build knows, in discriminant order.
    pub fn all() -> [CodecId; 7] {
        [
            CodecId::AeSz,
            CodecId::Sz2,
            CodecId::Zfp,
            CodecId::SzAuto,
            CodecId::SzInterp,
            CodecId::AeA,
            CodecId::AeB,
        ]
    }

    /// Decode a codec id byte from a frame.
    pub fn from_byte(b: u8) -> Option<CodecId> {
        match b {
            1 => Some(CodecId::AeSz),
            2 => Some(CodecId::Sz2),
            3 => Some(CodecId::Zfp),
            4 => Some(CodecId::SzAuto),
            5 => Some(CodecId::SzInterp),
            6 => Some(CodecId::AeA),
            7 => Some(CodecId::AeB),
            _ => None,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::AeSz => "AE-SZ",
            CodecId::Sz2 => "SZ2.1",
            CodecId::Zfp => "ZFP",
            CodecId::SzAuto => "SZauto",
            CodecId::SzInterp => "SZinterp",
            CodecId::AeA => "AE-A",
            CodecId::AeB => "AE-B",
        }
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wrap a codec payload in a container frame.
pub fn write_frame(codec: CodecId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_LEN + payload.len());
    out.extend_from_slice(&CONTAINER_MAGIC);
    out.push(CONTAINER_VERSION);
    out.push(codec as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse and validate a container frame, returning the codec id and the
/// borrowed payload. The declared payload length must match the remaining
/// input exactly; any shortfall or surplus is an error.
pub fn read_frame(bytes: &[u8]) -> Result<(CodecId, &[u8]), DecompressError> {
    read_whole_frame(&CONTAINER_FRAME, bytes)
}

/// The magic, version and error labels of one frame kind built on the
/// 14-byte head (`AESC` container frames and `AESM` model frames).
struct FrameKind {
    magic: [u8; 4],
    version: u8,
    /// What the input ended inside of: the magic, the rest of the head, the
    /// payload.
    cut: [&'static str; 3],
    /// The error for bytes after the declared payload.
    trailing: &'static str,
}

const CONTAINER_FRAME: FrameKind = FrameKind {
    magic: CONTAINER_MAGIC,
    version: CONTAINER_VERSION,
    cut: ["container magic", "container frame", "container payload"],
    trailing: "trailing bytes after container payload",
};

const MODEL_FRAME: FrameKind = FrameKind {
    magic: MODEL_MAGIC,
    version: MODEL_FRAME_VERSION,
    cut: ["model frame magic", "model frame", "model frame payload"],
    trailing: "trailing bytes after model frame payload",
};

/// Decode the 14-byte head every `AESC` and `AESM` frame opens with (magic,
/// version, codec id, declared payload length) from the start of `bytes` —
/// the one decoder of that layout, behind [`read_frame`],
/// [`read_model_frame`], [`peek`] and the stream parser.
fn decode_frame_head(kind: &FrameKind, bytes: &[u8]) -> Result<(CodecId, u64), DecompressError> {
    let magic = bytes
        .get(..4)
        .ok_or(DecompressError::Truncated(kind.cut[0]))?;
    if magic != kind.magic {
        return Err(DecompressError::BadMagic);
    }
    let head = bytes
        .get(..FRAME_LEN)
        .ok_or(DecompressError::Truncated(kind.cut[1]))?;
    if head[4] != kind.version {
        return Err(DecompressError::UnsupportedVersion(head[4]));
    }
    let codec = CodecId::from_byte(head[5]).ok_or(DecompressError::UnknownCodec(head[5]))?;
    let mut len = [0u8; 8];
    len.copy_from_slice(&head[6..FRAME_LEN]);
    Ok((codec, u64::from_le_bytes(len)))
}

/// Decode a complete frame of `kind`, whose declared payload length must
/// match the rest of the input exactly.
fn read_whole_frame<'a>(
    kind: &FrameKind,
    bytes: &'a [u8],
) -> Result<(CodecId, &'a [u8]), DecompressError> {
    let (codec, declared) = decode_frame_head(kind, bytes)?;
    let payload = bytes.get(FRAME_LEN..).unwrap_or(&[]);
    let actual = payload.len() as u64;
    if declared > actual {
        return Err(DecompressError::Truncated(kind.cut[2]));
    }
    if declared < actual {
        return Err(DecompressError::Inconsistent(kind.trailing));
    }
    Ok((codec, payload))
}

/// Magic bytes opening the AE-SZ codec's current *payload* (the bytes inside
/// an `AESC` frame), followed on the wire by the 16-byte [`ModelId`] of the
/// network that encoded the stream.
///
/// This is a wire constant mirrored from `aesz_core::stream::MAGIC` — the
/// container layer sits below the codec crates in the dependency graph, so
/// it keeps its own copy to peek model ids without decoding; a test in
/// `aesz_core` pins the two byte-for-byte.
pub const AESZ_PAYLOAD_MAGIC: [u8; 8] = *b"AESZ0003";

/// Everything [`peek`] can learn about a frame from its fixed-length header
/// (plus, opportunistically, the first payload bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Codec that produced the frame's payload — the dispatch key.
    pub codec: CodecId,
    /// Container version recorded in the frame.
    pub version: u8,
    /// Payload byte length the frame declares (the input may hold fewer —
    /// `peek` does not require the payload to be complete).
    pub payload_len: u64,
    /// Content-addressed id of the trained model the payload references,
    /// when the codec's payload carries one in its prefix (AE-SZ's current
    /// stream format, AE-A and AE-B) and enough payload bytes are present
    /// to read it. `None` for model-free codecs, for older AE-SZ streams
    /// that embed weights inline, and for payload prefixes too short to
    /// tell.
    pub model_id: Option<ModelId>,
}

/// Inspect a container frame without decoding it: codec id, container
/// version, declared payload length and (best-effort) the referenced model
/// id. Requires the fixed [`FRAME_LEN`]-byte header to be present; the
/// payload may be incomplete or absent.
///
pub fn peek(bytes: &[u8]) -> Result<FrameInfo, DecompressError> {
    let (codec, payload_len) = decode_frame_head(&CONTAINER_FRAME, bytes)?;
    Ok(FrameInfo {
        codec,
        version: CONTAINER_VERSION,
        payload_len,
        model_id: peek_payload_model_id(codec, bytes.get(FRAME_LEN..).unwrap_or(&[])),
    })
}

/// Best-effort model-id extraction from the prefix of a codec *payload*
/// (the bytes after the `AESC` frame header). Returns `None` whenever the
/// codec's format carries no id up front or the prefix is too short.
pub fn peek_payload_model_id(codec: CodecId, payload: &[u8]) -> Option<ModelId> {
    match codec {
        CodecId::AeSz => {
            let rest = payload.strip_prefix(&AESZ_PAYLOAD_MAGIC[..])?;
            ModelId::from_prefix(rest)
        }
        CodecId::AeA | CodecId::AeB => ModelId::from_prefix(payload),
        _ => None,
    }
}

/// Magic bytes opening every serialized-model frame ("AE-SZ model").
///
/// The frame is the unit the model lifecycle ships around: sidecar `.aesm`
/// files, the `AESA` archive model section and [`crate::Compressor::embedded_model`]
/// all carry exactly this frame. The payload is the codec-specific model
/// serialization (`AESZMDL1` for the convolutional autoencoders, the AE-A
/// dense format for AE-A); the [`ModelId`] of a model is the truncated
/// SHA-256 of that *payload*, so the id is independent of the framing.
///
/// ```text
/// offset  size  field
/// 0       4     magic  b"AESM"
/// 4       1     model frame version (currently 1)
/// 5       1     codec id the model belongs to (see CodecId)
/// 6       8     payload length, u64 little-endian
/// 14      n     codec-specific serialized model (exactly n bytes)
/// ```
pub const MODEL_MAGIC: [u8; 4] = *b"AESM";

/// Current model frame version.
pub const MODEL_FRAME_VERSION: u8 = 1;

/// Size of the fixed-length model frame preceding the model payload.
pub const MODEL_FRAME_LEN: usize = 4 + 1 + 1 + 8;

/// Wrap a codec-specific serialized model in a model frame.
pub fn write_model_frame(codec: CodecId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MODEL_FRAME_LEN + payload.len());
    out.extend_from_slice(&MODEL_MAGIC);
    out.push(MODEL_FRAME_VERSION);
    out.push(codec as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse and validate a model frame, returning the codec the model belongs
/// to and the borrowed model payload. The declared payload length must match
/// the remaining input exactly.
pub fn read_model_frame(bytes: &[u8]) -> Result<(CodecId, &[u8]), DecompressError> {
    read_whole_frame(&MODEL_FRAME, bytes)
}

/// A serialized trained model ready to travel with compressed data: the
/// content-addressed id plus the complete `AESM` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddedModel {
    /// Content-addressed identity (truncated SHA-256 of the frame payload).
    pub id: ModelId,
    /// The complete `AESM` frame ([`write_model_frame`] output).
    pub frame: Vec<u8>,
}

impl EmbeddedModel {
    /// Frame a codec-specific model serialization, deriving its id.
    pub fn new(codec: CodecId, payload: &[u8]) -> EmbeddedModel {
        EmbeddedModel {
            id: ModelId::of(payload),
            frame: write_model_frame(codec, payload),
        }
    }

    /// Parse and verify an existing frame: the frame must be well-formed and
    /// the payload hash is recomputed, so a corrupted frame cannot smuggle a
    /// wrong id into a store. Returns the model's codec alongside.
    pub fn from_frame(frame: &[u8]) -> Result<(EmbeddedModel, CodecId), DecompressError> {
        let (codec, payload) = read_model_frame(frame)?;
        Ok((
            EmbeddedModel {
                id: ModelId::of(payload),
                frame: frame.to_vec(),
            },
            codec,
        ))
    }

    /// The codec this model belongs to (from the frame header).
    #[expect(clippy::expect_used)]
    pub fn codec(&self) -> CodecId {
        // lint:allow(R1): `new`/`from_frame` validate the frame header; a
        // hand-assembled `frame` breaking that is a programmer error in this
        // process, not untrusted input reaching the decoder
        CodecId::from_byte(self.frame[5]).expect("validated at construction")
    }

    /// The codec-specific model payload inside the frame.
    pub fn payload(&self) -> &[u8] {
        &self.frame[MODEL_FRAME_LEN..]
    }
}

/// Magic bytes opening every multi-chunk archive ("AE-SZ archive").
pub const ARCHIVE_MAGIC: [u8; 4] = *b"AESA";

/// Archive format version without a model section (the original layout;
/// read-only).
pub const ARCHIVE_VERSION: u8 = 1;

/// Archive format version whose header carries a model-section length and
/// whose tail may embed the referenced models' `AESM` frames (read-only).
pub const ARCHIVE_VERSION_MODELS: u8 = 2;

/// Archive format version whose header additionally carries an index
/// capacity: `0` marks an **inline** archive, the one layout every writer
/// emits (no index table; readers rebuild the index from the frame heads);
/// any other value is a read-only indexed file with that many index slots,
/// whose spare ones an append fills in place.
pub const ARCHIVE_VERSION_APPEND: u8 = 3;

/// The one data type archives currently carry: little-endian `f32`.
pub const ARCHIVE_DTYPE_F32: u8 = 1;

/// Encoded size of one chunk-index entry (codec id + offset + length).
pub const CHUNK_ENTRY_LEN: usize = 1 + 8 + 8;

/// The parsed fixed-size head of an archive: field geometry + chunk grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveHeader {
    /// Extents of the archived field.
    pub dims: Dims,
    /// Nominal chunk edge length (edge chunks are smaller, exactly like the
    /// blockwise compressors' edge blocks).
    pub chunk: usize,
    /// Archive format version: [`ARCHIVE_VERSION_APPEND`] for everything a
    /// writer emits; [`ARCHIVE_VERSION`] or [`ARCHIVE_VERSION_MODELS`] for
    /// read-only files. Version 1 archives have no model section and their
    /// header carries no model-section length, so the v1 encoding is
    /// byte-identical to the original format.
    pub version: u8,
    /// Byte length of the model section at the archive's tail (0 for v1 and
    /// for v2/v3 archives that embed nothing).
    pub model_len: usize,
    /// Number of index slots physically present (v3 only; must be 0 for
    /// v1/v2, whose index always holds exactly [`Self::chunk_count`]
    /// entries). For v3, `0` means an inline archive with no index table and
    /// any other value must be `>= chunk_count()`.
    pub index_cap: usize,
}

impl ArchiveHeader {
    /// The header every writer emits: version 3, index capacity 0 (no index
    /// table), no model section yet.
    pub fn inline(dims: Dims, chunk: usize) -> ArchiveHeader {
        ArchiveHeader {
            dims,
            chunk,
            version: ARCHIVE_VERSION_APPEND,
            model_len: 0,
            index_cap: 0,
        }
    }

    /// Number of chunks along each axis (ceiling division per axis).
    pub fn chunk_grid(&self) -> Vec<usize> {
        self.dims.block_grid(self.chunk)
    }

    /// Total number of chunks in the archive.
    pub fn chunk_count(&self) -> usize {
        self.chunk_grid().iter().product()
    }

    /// Encoded byte length of this header (rank- and version-dependent: v2
    /// appends the 8-byte model-section length, v3 additionally the 8-byte
    /// index capacity).
    pub fn encoded_len(&self) -> usize {
        header_len(self.version, self.dims.rank())
    }

    /// Number of index slots physically present after the header: always the
    /// chunk count for v1/v2; the stored capacity for v3 (0 for an inline
    /// archive).
    pub fn index_slots(&self) -> usize {
        if self.version >= ARCHIVE_VERSION_APPEND {
            self.index_cap
        } else {
            self.chunk_count()
        }
    }

    /// Byte length of the chunk index that follows the header.
    pub fn index_len(&self) -> usize {
        self.index_slots() * CHUNK_ENTRY_LEN
    }

    /// Absolute offset of the first chunk frame (header + index).
    pub fn data_start(&self) -> usize {
        self.encoded_len() + self.index_len()
    }

    /// Serialize the header (magic through chunk count, plus the index
    /// capacity for v3 and the model-section length for v2/v3) into `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&ARCHIVE_MAGIC);
        out.push(self.version);
        out.push(ARCHIVE_DTYPE_F32);
        out.push(self.dims.rank() as u8);
        out.push(0); // reserved
        for e in self.dims.extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.chunk as u64).to_le_bytes());
        out.extend_from_slice(&(self.chunk_count() as u64).to_le_bytes());
        if self.version >= ARCHIVE_VERSION_APPEND {
            out.extend_from_slice(&(self.index_cap as u64).to_le_bytes());
        }
        if self.version >= ARCHIVE_VERSION_MODELS {
            out.extend_from_slice(&(self.model_len as u64).to_le_bytes());
        }
    }

    /// Parse and validate an archive header from the start of `bytes`, which
    /// must hold at least the complete fixed-size header (a prefix of the
    /// archive is enough).
    ///
    /// Rejects wrong magic/version/dtype, out-of-range ranks, zero or
    /// over-cap extents (total capped at [`MAX_FIELD_ELEMS`]), a zero chunk
    /// edge, and any stored chunk count that disagrees with the grid implied
    /// by the extents and chunk edge. The declared model-section length is
    /// not compared against the input here; the archive parser in
    /// [`crate::stream`] checks it once it knows where the input ends.
    pub fn read(bytes: &[u8]) -> Result<ArchiveHeader, DecompressError> {
        if bytes.len() < ARCHIVE_MAGIC.len() {
            return Err(DecompressError::Truncated("archive magic"));
        }
        if bytes[..ARCHIVE_MAGIC.len()] != ARCHIVE_MAGIC {
            return Err(DecompressError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(DecompressError::Truncated("archive header"));
        }
        let version = bytes[4];
        if !(ARCHIVE_VERSION..=ARCHIVE_VERSION_APPEND).contains(&version) {
            return Err(DecompressError::UnsupportedVersion(version));
        }
        if bytes[5] != ARCHIVE_DTYPE_F32 {
            return Err(DecompressError::InvalidHeader("archive dtype"));
        }
        let rank = usize::from(bytes[6]);
        if !(1..=3).contains(&rank) {
            return Err(DecompressError::InvalidHeader("archive rank"));
        }
        if bytes[7] != 0 {
            return Err(DecompressError::InvalidHeader("archive reserved byte"));
        }
        if bytes.len() < header_len(version, rank) {
            return Err(DecompressError::Truncated("archive header"));
        }
        let u64_at = |pos: usize| -> Result<u64, DecompressError> {
            let src = bytes
                .get(pos..pos + 8)
                .ok_or(DecompressError::Truncated("archive header"))?;
            let mut b = [0u8; 8];
            b.copy_from_slice(src);
            Ok(u64::from_le_bytes(b))
        };
        let mut extents = [0usize; 3];
        let mut total: usize = 1;
        for (ax, slot) in extents.iter_mut().take(rank).enumerate() {
            let e = u64_at(8 + 8 * ax)?;
            if e == 0 {
                return Err(DecompressError::InvalidHeader("archive extent is zero"));
            }
            if e > MAX_FIELD_ELEMS as u64 {
                return Err(DecompressError::InvalidHeader("archive extent exceeds cap"));
            }
            *slot = usize::try_from(e)
                .map_err(|_| DecompressError::InvalidHeader("archive extent exceeds cap"))?;
            total = total
                .checked_mul(*slot)
                .filter(|&t| t <= MAX_FIELD_ELEMS)
                .ok_or(DecompressError::InvalidHeader(
                    "archive element count exceeds cap",
                ))?;
        }
        let dims = match rank {
            1 => Dims::d1(extents[0]),
            2 => Dims::d2(extents[0], extents[1]),
            _ => Dims::d3(extents[0], extents[1], extents[2]),
        };
        let chunk = u64_at(8 + 8 * rank)?;
        if chunk == 0 {
            return Err(DecompressError::InvalidHeader("archive chunk edge is zero"));
        }
        if chunk > MAX_FIELD_ELEMS as u64 {
            return Err(DecompressError::InvalidHeader(
                "archive chunk edge exceeds cap",
            ));
        }
        let index_cap = if version >= ARCHIVE_VERSION_APPEND {
            let cap = u64_at(24 + 8 * rank)?;
            // Bound the cap like the element count; the precise fit against
            // the input is the parser's check.
            if cap > MAX_FIELD_ELEMS as u64 {
                return Err(DecompressError::InvalidHeader(
                    "archive index capacity exceeds cap",
                ));
            }
            usize::try_from(cap)
                .map_err(|_| DecompressError::InvalidHeader("archive index capacity exceeds cap"))?
        } else {
            0
        };
        let model_len_at = if version >= ARCHIVE_VERSION_APPEND {
            32 + 8 * rank
        } else {
            24 + 8 * rank
        };
        let model_len = if version >= ARCHIVE_VERSION_MODELS {
            // Checked narrowing only — `bytes` may be just a header prefix
            // here, so the fit against the real archive length is the
            // parser's check. An `as usize` would wrap 2^32 + k to k on a
            // 32-bit target and mislocate the model-section boundary.
            usize::try_from(u64_at(model_len_at)?).map_err(|_| {
                DecompressError::InvalidHeader("model section exceeds this platform")
            })?
        } else {
            0
        };
        let header = ArchiveHeader {
            dims,
            chunk: usize::try_from(chunk)
                .map_err(|_| DecompressError::InvalidHeader("archive chunk edge exceeds cap"))?,
            version,
            model_len,
            index_cap,
        };
        let declared = u64_at(16 + 8 * rank)?;
        if declared != header.chunk_count() as u64 {
            return Err(DecompressError::Inconsistent(
                "stored chunk count disagrees with the chunk grid",
            ));
        }
        if version >= ARCHIVE_VERSION_APPEND && index_cap != 0 && index_cap < header.chunk_count() {
            return Err(DecompressError::InvalidHeader(
                "archive index capacity smaller than the chunk count",
            ));
        }
        Ok(header)
    }
}

/// Encoded byte length of an archive header of `version` and `rank`: magic
/// through chunk count, plus the v2 model-section length and the v3 index
/// capacity.
pub(crate) fn header_len(version: u8, rank: usize) -> usize {
    24 + 8 * rank
        + 8 * usize::from(version >= ARCHIVE_VERSION_MODELS)
        + 8 * usize::from(version >= ARCHIVE_VERSION_APPEND)
}

/// One entry of the archive's chunk index: which codec wrote the chunk and
/// where its `AESC` frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Codec that produced this chunk's frame (the random-access dispatch key).
    pub codec: CodecId,
    /// Absolute byte offset of the chunk's frame from the archive start.
    pub offset: u64,
    /// Byte length of the chunk's frame.
    pub len: u64,
}

/// Serialize one chunk-index entry into `out`.
pub fn write_chunk_entry(out: &mut Vec<u8>, entry: &ChunkEntry) {
    out.push(entry.codec as u8);
    out.extend_from_slice(&entry.offset.to_le_bytes());
    out.extend_from_slice(&entry.len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveReader;

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello payload";
        let framed = write_frame(CodecId::SzInterp, payload);
        let (codec, body) = read_frame(&framed).unwrap();
        assert_eq!(codec, CodecId::SzInterp);
        assert_eq!(body, payload);
        assert_eq!(peek(&framed).unwrap().codec, CodecId::SzInterp);
    }

    #[test]
    fn peek_reports_codec_length_and_model_id() {
        // A model-free codec: no id, full header info.
        let framed = write_frame(CodecId::Zfp, b"0123456789");
        let info = peek(&framed).unwrap();
        assert_eq!(info.codec, CodecId::Zfp);
        assert_eq!(info.version, CONTAINER_VERSION);
        assert_eq!(info.payload_len, 10);
        assert_eq!(info.model_id, None);

        // AE-SZ's current stream format: payload magic + 16-byte model id.
        let id = ModelId::of(b"some weights");
        let mut payload = AESZ_PAYLOAD_MAGIC.to_vec();
        payload.extend_from_slice(id.as_bytes());
        payload.extend_from_slice(b"rest of stream");
        let framed = write_frame(CodecId::AeSz, &payload);
        assert_eq!(peek(&framed).unwrap().model_id, Some(id));
        // Peeking works even when only the id prefix of the payload arrived.
        let cut = FRAME_LEN + AESZ_PAYLOAD_MAGIC.len() + MODEL_ID_LEN;
        assert_eq!(peek(&framed[..cut]).unwrap().model_id, Some(id));
        // …and degrades to None when too few payload bytes are present.
        assert_eq!(peek(&framed[..cut - 1]).unwrap().model_id, None);

        // AE-A / AE-B payloads open with the raw id.
        let mut payload = id.as_bytes().to_vec();
        payload.extend_from_slice(b"latents");
        let framed = write_frame(CodecId::AeA, &payload);
        assert_eq!(peek(&framed).unwrap().model_id, Some(id));

        // The frame header itself is still mandatory.
        assert!(matches!(
            peek(&framed[..FRAME_LEN - 1]),
            Err(DecompressError::Truncated(_))
        ));
    }

    #[test]
    fn codec_ids_roundtrip_through_bytes() {
        for id in CodecId::all() {
            assert_eq!(CodecId::from_byte(id as u8), Some(id));
            assert!(!id.name().is_empty());
        }
        assert_eq!(CodecId::from_byte(0), None);
        assert_eq!(CodecId::from_byte(200), None);
    }

    #[test]
    fn every_truncated_prefix_is_rejected() {
        let framed = write_frame(CodecId::AeSz, &[7u8; 100]);
        for len in 0..framed.len() {
            assert!(
                read_frame(&framed[..len]).is_err(),
                "prefix of {len} bytes parsed as a complete frame"
            );
        }
    }

    #[test]
    fn hostile_u64_lengths_are_rejected_without_truncation_or_allocation() {
        // A declared payload length of exactly 1 << 32 becomes 0 under a
        // 32-bit `as usize` cast — the truncation bug this exercises. The
        // frame must be rejected as truncated, not accepted as empty.
        let mut framed = write_frame(CodecId::Zfp, b"tiny");
        framed[6..14].copy_from_slice(&(1u64 << 32).to_le_bytes());
        assert!(matches!(
            read_frame(&framed),
            Err(DecompressError::Truncated(_))
        ));

        // The worst case: u64::MAX. Still a clean error, and `read_frame`
        // never allocates payload-proportional memory (it borrows).
        framed[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_frame(&framed).is_err());

        // An archive header whose trailing model-section length claims more
        // bytes than the whole input: opening must fail before any caller
        // trusts the length, while the header decoder (which by contract
        // does not validate the tail sections) still parses the fixed prefix.
        let header = ArchiveHeader::inline(Dims::d1(16), 16);
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        let model_len_at = bytes.len() - 8;
        bytes[model_len_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ArchiveReader::open(&bytes),
            Err(DecompressError::Truncated(_)) | Err(DecompressError::InvalidHeader(_))
        ));
        let prefix = ArchiveHeader::read(&bytes).unwrap();
        assert_eq!(prefix.dims, Dims::d1(16));
        assert_eq!(prefix.model_len as u64, u64::MAX);
    }

    #[test]
    fn model_frames_roundtrip_and_reject_corruption() {
        let payload = b"fake serialized model bytes";
        let model = EmbeddedModel::new(CodecId::AeSz, payload);
        assert_eq!(model.id, ModelId::of(payload));
        assert_eq!(model.codec(), CodecId::AeSz);
        assert_eq!(model.payload(), payload);
        let (codec, body) = read_model_frame(&model.frame).unwrap();
        assert_eq!(codec, CodecId::AeSz);
        assert_eq!(body, payload);
        let (reparsed, codec) = EmbeddedModel::from_frame(&model.frame).unwrap();
        assert_eq!(reparsed, model);
        assert_eq!(codec, CodecId::AeSz);

        for len in 0..model.frame.len() {
            assert!(read_model_frame(&model.frame[..len]).is_err());
        }
        let mut evil = model.frame.clone();
        evil.push(0);
        assert!(matches!(
            read_model_frame(&evil),
            Err(DecompressError::Inconsistent(_))
        ));
        let mut evil = model.frame.clone();
        evil[0] = b'X';
        assert_eq!(read_model_frame(&evil), Err(DecompressError::BadMagic));
        let mut evil = model.frame.clone();
        evil[4] = 9;
        assert_eq!(
            read_model_frame(&evil),
            Err(DecompressError::UnsupportedVersion(9))
        );
        let mut evil = model.frame.clone();
        evil[5] = 200;
        assert_eq!(
            read_model_frame(&evil),
            Err(DecompressError::UnknownCodec(200))
        );
    }

    /// Build a synthetic v2 archive: header + one raw-frame chunk + a model
    /// section holding `models`.
    fn v2_archive(models: &[EmbeddedModel]) -> Vec<u8> {
        let chunk_frame = write_frame(CodecId::Zfp, b"chunkpayload");
        let mut model_section = Vec::new();
        for m in models {
            model_section.extend_from_slice(m.id.as_bytes());
            model_section.extend_from_slice(&(m.frame.len() as u64).to_le_bytes());
            model_section.extend_from_slice(&m.frame);
        }
        let header = ArchiveHeader {
            dims: Dims::d1(4),
            chunk: 4,
            version: ARCHIVE_VERSION_MODELS,
            model_len: model_section.len(),
            index_cap: 0,
        };
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        write_chunk_entry(
            &mut bytes,
            &ChunkEntry {
                codec: CodecId::Zfp,
                offset: header.data_start() as u64,
                len: chunk_frame.len() as u64,
            },
        );
        bytes.extend_from_slice(&chunk_frame);
        bytes.extend_from_slice(&model_section);
        bytes
    }

    #[test]
    fn v2_archives_carry_a_validated_model_section() {
        let models = [
            EmbeddedModel::new(CodecId::AeSz, b"model one"),
            EmbeddedModel::new(CodecId::AeA, b"model two"),
        ];
        let bytes = v2_archive(&models);
        let reader = ArchiveReader::open(&bytes).unwrap();
        assert_eq!(reader.header().version, ARCHIVE_VERSION_MODELS);
        assert!(reader.header().model_len > 0);
        assert_eq!(reader.entries().len(), 1);
        let parsed = reader.models();
        assert_eq!(parsed.len(), 2);
        for (m, (id, frame)) in models.iter().zip(parsed) {
            assert_eq!(*id, m.id);
            assert_eq!(*frame, m.frame.as_slice());
        }

        // v2 with an empty model section is valid.
        let empty = v2_archive(&[]);
        let reader = ArchiveReader::open(&empty).unwrap();
        assert_eq!(reader.header().model_len, 0);
        assert!(reader.models().is_empty());

        // Every truncation of the archive is rejected by header, index or
        // model-section validation.
        for len in 0..bytes.len() {
            assert!(
                ArchiveReader::open(&bytes[..len]).is_err(),
                "truncated v2 archive of {len} bytes parsed"
            );
        }
    }

    #[test]
    fn corrupted_model_sections_are_rejected() {
        let model = EmbeddedModel::new(CodecId::AeSz, b"model bytes");
        let bytes = v2_archive(std::slice::from_ref(&model));
        let header = ArchiveHeader::read(&bytes).unwrap();
        let section_start = bytes.len() - header.model_len;

        // A flipped bit in the model payload breaks the stored hash.
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 1;
        assert!(matches!(
            ArchiveReader::open(&evil),
            Err(DecompressError::Inconsistent(_))
        ));

        // A flipped bit in the stored id breaks the hash check too.
        let mut evil = bytes.clone();
        evil[section_start] ^= 1;
        assert!(ArchiveReader::open(&evil).is_err());

        // The same model embedded twice is rejected.
        let twice = v2_archive(&[model.clone(), model.clone()]);
        assert_eq!(
            ArchiveReader::open(&twice).err(),
            Some(DecompressError::Inconsistent(
                "model embedded more than once"
            ))
        );

        // A lying frame length inside the section is truncation.
        let mut evil = bytes.clone();
        evil[section_start + MODEL_ID_LEN] = 0xff;
        assert!(ArchiveReader::open(&evil).is_err());
    }

    #[test]
    fn bad_magic_version_codec_and_trailing_bytes_are_rejected() {
        let mut framed = write_frame(CodecId::Zfp, b"abc");
        framed.push(0);
        assert_eq!(
            read_frame(&framed),
            Err(DecompressError::Inconsistent(
                "trailing bytes after container payload"
            ))
        );
        let mut framed = write_frame(CodecId::Zfp, b"abc");
        framed[0] = b'X';
        assert_eq!(read_frame(&framed), Err(DecompressError::BadMagic));
        let mut framed = write_frame(CodecId::Zfp, b"abc");
        framed[4] = 99;
        assert_eq!(
            read_frame(&framed),
            Err(DecompressError::UnsupportedVersion(99))
        );
        let mut framed = write_frame(CodecId::Zfp, b"abc");
        framed[5] = 0;
        assert_eq!(read_frame(&framed), Err(DecompressError::UnknownCodec(0)));
    }

    /// Build a synthetic v3 archive over `Dims::d1(8)` / chunk 4 (two
    /// chunks) with the given index capacity (0 = inline).
    fn v3_archive(index_cap: usize) -> (Vec<u8>, ArchiveHeader) {
        let frames = [
            write_frame(CodecId::Zfp, b"first chunk"),
            write_frame(CodecId::Sz2, b"second"),
        ];
        let header = ArchiveHeader {
            dims: Dims::d1(8),
            chunk: 4,
            version: ARCHIVE_VERSION_APPEND,
            model_len: 0,
            index_cap,
        };
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        if index_cap > 0 {
            let mut offset = header.data_start() as u64;
            for (f, codec) in frames.iter().zip([CodecId::Zfp, CodecId::Sz2]) {
                write_chunk_entry(
                    &mut bytes,
                    &ChunkEntry {
                        codec,
                        offset,
                        len: f.len() as u64,
                    },
                );
                offset += f.len() as u64;
            }
            bytes.resize(bytes.len() + (index_cap - 2) * CHUNK_ENTRY_LEN, 0);
        }
        for f in &frames {
            bytes.extend_from_slice(f);
        }
        (bytes, header)
    }

    #[test]
    fn v3_headers_roundtrip_in_both_regimes() {
        for cap in [0usize, 2, 7] {
            let (bytes, header) = v3_archive(cap);
            let reader = ArchiveReader::open(&bytes).unwrap();
            assert_eq!(reader.header(), header);
            assert_eq!(reader.header().index_slots(), cap);
            let entries = reader.entries();
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].codec, CodecId::Zfp);
            assert_eq!(entries[1].codec, CodecId::Sz2);
            assert_eq!(entries[0].offset as usize, header.data_start());
        }
        // Inline and indexed forms agree on the reconstructed entries.
        let codecs_and_lens = |bytes: &[u8]| {
            ArchiveReader::open(bytes)
                .unwrap()
                .entries()
                .iter()
                .map(|e| (e.codec, e.len))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            codecs_and_lens(&v3_archive(0).0),
            codecs_and_lens(&v3_archive(2).0)
        );
    }

    #[test]
    fn v3_capacity_and_reserved_slots_are_validated() {
        // A capacity smaller than the chunk count is rejected at the header.
        let (mut bytes, _) = v3_archive(2);
        bytes[32] = 1; // index_cap u64 at offset 24 + 8·rank = 32 for rank 1
        assert_eq!(
            ArchiveReader::open(&bytes).err(),
            Some(DecompressError::InvalidHeader(
                "archive index capacity smaller than the chunk count"
            ))
        );

        // A non-zero byte in a reserved slot is a dedicated index error.
        let (mut bytes, header) = v3_archive(4);
        let slot3 = header.encoded_len() + 3 * CHUNK_ENTRY_LEN;
        bytes[slot3 + 5] = 0xAA;
        assert_eq!(
            ArchiveReader::open(&bytes).err(),
            Some(DecompressError::BadChunkIndex {
                chunk: 3,
                reason: "reserved index slot is not zero-filled",
            })
        );

        // Every truncation of an inline archive is rejected.
        let (bytes, _) = v3_archive(0);
        for len in 0..bytes.len() {
            assert!(
                ArchiveReader::open(&bytes[..len]).is_err(),
                "truncated v3 inline archive of {len} bytes parsed"
            );
        }
    }

    #[test]
    fn overlapping_and_tail_crossing_index_entries_are_rejected() {
        let (bytes, header) = v3_archive(2);
        let e0 = header.encoded_len();
        assert!(ArchiveReader::open(&bytes).is_ok());

        // Shrink entry 0's offset: entry 1 then overlaps it... actually
        // entry 0 itself no longer starts at the data section (a gap or
        // overlap depending on direction). Both directions must fail.
        let mut evil = bytes.clone();
        evil[e0 + 1] = evil[e0 + 1].wrapping_sub(1);
        assert!(matches!(
            ArchiveReader::open(&evil),
            Err(DecompressError::BadChunkIndex { chunk: 0, .. })
        ));
        let mut evil = bytes.clone();
        evil[e0 + 1] = evil[e0 + 1].wrapping_add(1);
        assert!(matches!(
            ArchiveReader::open(&evil),
            Err(DecompressError::BadChunkIndex { chunk: 0, .. })
        ));

        // Inflate entry 0's length: entry 1 now overlaps it.
        let mut evil = bytes.clone();
        evil[e0 + 9] = evil[e0 + 9].wrapping_add(1);
        assert!(matches!(
            ArchiveReader::open(&evil),
            Err(DecompressError::BadChunkIndex { chunk: 1, .. })
        ));

        // An index entry reaching into the model tail is the dedicated
        // error when a model section exists.
        let model = EmbeddedModel::new(CodecId::AeSz, b"tail model");
        let mut section = Vec::new();
        section.extend_from_slice(model.id.as_bytes());
        section.extend_from_slice(&(model.frame.len() as u64).to_le_bytes());
        section.extend_from_slice(&model.frame);
        let mut tailed = v3_archive(2).0;
        let mlen_at = 40; // rank 1, v3: model_len u64 at offset 32 + 8·rank = 40
        tailed.extend_from_slice(&section);
        tailed[mlen_at..mlen_at + 8].copy_from_slice(&(section.len() as u64).to_le_bytes());
        let h = ArchiveHeader::read(&tailed).unwrap();
        assert_eq!(h.model_len, section.len());
        assert!(ArchiveReader::open(&tailed).is_ok());
        // Now inflate the *last* entry's length so it crosses into the tail.
        let last = h.encoded_len() + CHUNK_ENTRY_LEN;
        tailed[last + 9] = tailed[last + 9].wrapping_add(1);
        assert_eq!(
            ArchiveReader::open(&tailed).err(),
            Some(DecompressError::BadChunkIndex {
                chunk: 1,
                reason: "entry points past the data section into the model tail",
            })
        );
    }
}
