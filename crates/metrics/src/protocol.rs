//! `AESP` — the length-prefixed request/response protocol of `aesz serve`.
//!
//! The daemon speaks a binary protocol over plain TCP: every message is a
//! fixed 16-byte header followed by a typed body. Compressed payloads are
//! carried verbatim as the existing `AESC`/`AESA` container bytes, so the
//! wire format layers on (never re-encodes) the formats the rest of the
//! workspace already parses with hostile-input discipline.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "AESP"
//! 4       1     protocol version (1)
//! 5       1     message type
//! 6       2     reserved, must be zero
//! 8       8     body length, u64 LE
//! 16      ...   body (type-specific)
//! ```
//!
//! Parsing follows the same rules as the container/archive/stream formats
//! (rules R1–R4 of the repo-root `lint.toml`): the declared body length is
//! checked against a caller-supplied cap *before* any allocation, every
//! multi-byte read goes through `.get()`, sizes are `checked_mul`-guarded,
//! and truncation or bit flips surface as [`DecompressError`] values — never
//! panics. Raw fields travel as `[rank u8][3 zero bytes][extents u64 LE ×
//! rank][f32 LE × product]`, with the extent product capped by
//! [`MAX_FIELD_ELEMS`] and the caller's element limit.

use crate::bound::ErrorBound;
use crate::container::{CodecId, ModelId, MAX_FIELD_ELEMS, MODEL_ID_LEN};
use crate::error::DecompressError;
use aesz_tensor::{Dims, Field};

/// Magic bytes opening every `AESP` message.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"AESP";

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed message header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Longest error message the `Error` response will carry (bytes of UTF-8).
pub const MAX_ERROR_MSG: usize = 512;

/// Encoded size of one [`ModelEntry`] in a `ModelList` body.
pub const MODEL_ENTRY_LEN: usize = MODEL_ID_LEN + 1 + 1 + 6 + 8;

/// Number of `u64` counters in a [`ServerStats`] body.
const STATS_FIELDS: usize = 13 + CODEC_SLOTS + CODEC_SLOTS;

/// Exact body length of a `StatsOk` response.
pub const STATS_BODY_LEN: usize = 8 * STATS_FIELDS;

/// Per-codec counter slots (one per [`CodecId`] discriminant).
pub const CODEC_SLOTS: usize = 7;

/// Every message type of the protocol. Requests occupy `0x01..=0x06`,
/// responses `0x81..=0x86` plus the two failure responses `0xE0`/`0xE1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// Compress a raw field under an error bound; answered by `CompressOk`.
    Compress = 0x01,
    /// Decompress `AESC`/`AESA` bytes; answered by `DecompressOk`.
    Decompress = 0x02,
    /// Train a learned codec on a raw field; answered by `TrainOk`.
    Train = 0x03,
    /// Liveness probe; answered by `HealthOk`.
    Health = 0x04,
    /// Counter snapshot; answered by `StatsOk`.
    Stats = 0x05,
    /// Resident/sidecar model inventory; answered by `ModelList`.
    ListModels = 0x06,
    /// Successful compress: body is the `AESC` stream.
    CompressOk = 0x81,
    /// Successful decompress: body is the raw field encoding.
    DecompressOk = 0x82,
    /// Successful train: body is the model id plus its `AESM` frame.
    TrainOk = 0x83,
    /// Liveness answer: uptime and queue depth.
    HealthOk = 0x84,
    /// Counter snapshot answer ([`ServerStats`]).
    StatsOk = 0x85,
    /// Model inventory answer ([`ModelEntry`] list).
    ModelList = 0x86,
    /// Typed failure: an error code plus a short UTF-8 message.
    Error = 0xE0,
    /// Typed backpressure rejection: the server is at its connection cap;
    /// retry later. Carries the queue depth observed.
    Busy = 0xE1,
}

impl MsgType {
    /// Decode a message-type byte; `None` for bytes no message uses.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            0x01 => Some(MsgType::Compress),
            0x02 => Some(MsgType::Decompress),
            0x03 => Some(MsgType::Train),
            0x04 => Some(MsgType::Health),
            0x05 => Some(MsgType::Stats),
            0x06 => Some(MsgType::ListModels),
            0x81 => Some(MsgType::CompressOk),
            0x82 => Some(MsgType::DecompressOk),
            0x83 => Some(MsgType::TrainOk),
            0x84 => Some(MsgType::HealthOk),
            0x85 => Some(MsgType::StatsOk),
            0x86 => Some(MsgType::ModelList),
            0xE0 => Some(MsgType::Error),
            0xE1 => Some(MsgType::Busy),
            _ => None,
        }
    }

    /// The wire byte of this message type.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Whether this type travels client → server.
    pub fn is_request(self) -> bool {
        (self as u8) < 0x80
    }
}

/// A parsed message header: the type and the declared body length. The body
/// length is *declared*, not validated — callers must cap it against their
/// own limit before allocating or reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Message type.
    pub msg: MsgType,
    /// Declared body length in bytes (attacker-controlled; cap before use).
    pub body_len: u64,
}

impl MsgHeader {
    /// Parse the fixed 16-byte header at the front of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<MsgHeader, DecompressError> {
        if bytes.len() < HEADER_LEN {
            return Err(DecompressError::Truncated("message header"));
        }
        if bytes[..4] != PROTOCOL_MAGIC {
            return Err(DecompressError::BadMagic);
        }
        if bytes[4] != PROTOCOL_VERSION {
            return Err(DecompressError::UnsupportedVersion(bytes[4]));
        }
        let msg =
            MsgType::from_byte(bytes[5]).ok_or(DecompressError::InvalidHeader("message type"))?;
        if bytes[6] != 0 || bytes[7] != 0 {
            return Err(DecompressError::InvalidHeader(
                "reserved header bytes must be zero",
            ));
        }
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[8..16]);
        Ok(MsgHeader {
            msg,
            body_len: u64::from_le_bytes(len),
        })
    }
}

/// Serialize a message header.
pub fn header_bytes(msg: MsgType, body_len: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&PROTOCOL_MAGIC);
    h[4] = PROTOCOL_VERSION;
    h[5] = msg.byte();
    h[8..16].copy_from_slice(&body_len.to_le_bytes());
    h
}

/// Decode-side caps. Both are checked *before* any length-derived
/// allocation, so a hostile header cannot drive memory.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest declared body length accepted, in bytes.
    pub max_body: u64,
    /// Largest raw-field element count accepted.
    pub max_elems: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_body: 1 << 30,
            max_elems: MAX_FIELD_ELEMS,
        }
    }
}

/// Machine-readable reason of an `Error` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be parsed.
    Malformed = 1,
    /// The request exceeded a size limit.
    TooLarge = 2,
    /// The request names a codec or operation this server cannot serve.
    Unsupported = 3,
    /// The compression leg failed.
    CompressFailed = 4,
    /// The decompression leg failed.
    DecompressFailed = 5,
    /// The training leg failed.
    TrainFailed = 6,
    /// An internal server failure.
    Internal = 7,
}

impl ErrorCode {
    /// Decode an error-code byte; `None` for unknown codes.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::TooLarge),
            3 => Some(ErrorCode::Unsupported),
            4 => Some(ErrorCode::CompressFailed),
            5 => Some(ErrorCode::DecompressFailed),
            6 => Some(ErrorCode::TrainFailed),
            7 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// Training knobs carried by a `Train` request; `0` means "codec default"
/// for every field except `seed` (where 0 is itself a valid seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainKnobs {
    /// Training epochs (0 = default).
    pub epochs: u32,
    /// Block edge length (0 = default).
    pub block: u32,
    /// Latent dimension (0 = default).
    pub latent: u32,
    /// Training block budget (0 = default).
    pub max_blocks: u32,
    /// RNG seed.
    pub seed: u64,
}

/// A parsed client → server request.
#[derive(Debug)]
pub enum Request {
    /// Compress `field` with `codec` under `bound`.
    Compress {
        /// Codec to compress with.
        codec: CodecId,
        /// Error bound to compress under.
        bound: ErrorBound,
        /// The raw field.
        field: Field,
    },
    /// Decompress opaque `AESC`/`AESA` bytes.
    Decompress {
        /// The framed stream, carried verbatim.
        bytes: Vec<u8>,
    },
    /// Train `codec` on `field` and keep the model resident.
    Train {
        /// Learned codec to train.
        codec: CodecId,
        /// Training knobs (zeros mean defaults).
        knobs: TrainKnobs,
        /// The training field.
        field: Field,
    },
    /// Liveness probe.
    Health,
    /// Counter snapshot.
    Stats,
    /// Model inventory.
    ListModels,
}

/// A parsed server → client response.
#[derive(Debug)]
pub enum Response {
    /// The compressed `AESC` stream.
    CompressOk {
        /// Framed stream bytes.
        stream: Vec<u8>,
    },
    /// The reconstruction of a `Decompress` request.
    DecompressOk {
        /// Decoded field.
        field: Field,
    },
    /// A freshly trained, now-resident model.
    TrainOk {
        /// Content-addressed id of the trained model.
        id: ModelId,
        /// Its serialized `AESM` frame.
        frame: Vec<u8>,
    },
    /// Liveness answer.
    HealthOk {
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
        /// Jobs currently queued behind the workers.
        queue_depth: u64,
    },
    /// Counter snapshot.
    StatsOk(ServerStats),
    /// Model inventory.
    ModelList {
        /// One entry per resident or sidecar model.
        entries: Vec<ModelEntry>,
    },
    /// Typed failure.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Short human-readable message.
        message: String,
    },
    /// Typed backpressure rejection (connection cap reached).
    Busy {
        /// Jobs queued when the request was rejected.
        queue_depth: u64,
    },
}

/// One model in a `ModelList` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelEntry {
    /// Content-addressed model id (the claimed id for unverified sidecars).
    pub id: ModelId,
    /// Codec the model belongs to, when its frame parsed.
    pub codec: Option<CodecId>,
    /// Whether the frame parsed and its payload hashes to `id`.
    pub verified: bool,
    /// Serialized parameter bytes (the `AESM` payload length).
    pub param_bytes: u64,
}

/// The daemon's counter snapshot, serialized as [`STATS_BODY_LEN`] bytes of
/// little-endian `u64` values in declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Requests received (including rejected ones).
    pub requests: u64,
    /// Requests answered with a success response.
    pub ok: u64,
    /// Requests answered with an `Error` response.
    pub errors: u64,
    /// Requests rejected with `Busy`.
    pub busy_rejections: u64,
    /// Total request-body bytes received.
    pub bytes_in: u64,
    /// Total response bytes sent.
    pub bytes_out: u64,
    /// Jobs currently queued behind the workers.
    pub queue_depth: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Learned frames decoded by the already-registered trained model.
    pub model_cache_hits: u64,
    /// Trained models decodes built from the store or an archive's model
    /// tail (once per decode that names one).
    pub model_resolutions: u64,
    /// Models currently resident in the store.
    pub models_resident: u64,
    /// Compress requests per codec (slot = discriminant − 1).
    pub compress_by_codec: [u64; CODEC_SLOTS],
    /// Decompress requests per codec (slot = discriminant − 1).
    pub decompress_by_codec: [u64; CODEC_SLOTS],
}

impl ServerStats {
    /// The counter slot of `codec` in the per-codec arrays.
    pub fn codec_slot(codec: CodecId) -> usize {
        usize::from(codec as u8).saturating_sub(1)
    }

    /// Append the fixed binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let head = [
            self.uptime_ms,
            self.requests,
            self.ok,
            self.errors,
            self.busy_rejections,
            self.bytes_in,
            self.bytes_out,
            self.queue_depth,
            self.connections_active,
            self.connections_total,
            self.model_cache_hits,
            self.model_resolutions,
            self.models_resident,
        ];
        for v in head
            .iter()
            .chain(self.compress_by_codec.iter())
            .chain(self.decompress_by_codec.iter())
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Parse a `StatsOk` body (must be exactly [`STATS_BODY_LEN`] bytes).
    pub fn decode(body: &[u8]) -> Result<ServerStats, DecompressError> {
        if body.len() != STATS_BODY_LEN {
            return Err(DecompressError::Inconsistent("stats body length"));
        }
        let mut pos = 0usize;
        let mut stats = ServerStats::default();
        {
            let head: [&mut u64; 13] = [
                &mut stats.uptime_ms,
                &mut stats.requests,
                &mut stats.ok,
                &mut stats.errors,
                &mut stats.busy_rejections,
                &mut stats.bytes_in,
                &mut stats.bytes_out,
                &mut stats.queue_depth,
                &mut stats.connections_active,
                &mut stats.connections_total,
                &mut stats.model_cache_hits,
                &mut stats.model_resolutions,
                &mut stats.models_resident,
            ];
            for slot in head {
                *slot = take_u64(body, &mut pos)?;
            }
        }
        for slot in stats.compress_by_codec.iter_mut() {
            *slot = take_u64(body, &mut pos)?;
        }
        for slot in stats.decompress_by_codec.iter_mut() {
            *slot = take_u64(body, &mut pos)?;
        }
        Ok(stats)
    }
}

// ------------------------------------------------------------ body helpers

fn take_u64(body: &[u8], pos: &mut usize) -> Result<u64, DecompressError> {
    let end = pos
        .checked_add(8)
        .ok_or(DecompressError::Truncated("u64 field"))?;
    let chunk = body
        .get(*pos..end)
        .ok_or(DecompressError::Truncated("u64 field"))?;
    let mut b = [0u8; 8];
    b.copy_from_slice(chunk);
    *pos = end;
    Ok(u64::from_le_bytes(b))
}

fn take_u32(body: &[u8], pos: &mut usize) -> Result<u32, DecompressError> {
    let end = pos
        .checked_add(4)
        .ok_or(DecompressError::Truncated("u32 field"))?;
    let chunk = body
        .get(*pos..end)
        .ok_or(DecompressError::Truncated("u32 field"))?;
    let mut b = [0u8; 4];
    b.copy_from_slice(chunk);
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

/// Append the raw-field encoding (`[rank][0;3][extents u64][f32 data]`).
fn encode_field_into(out: &mut Vec<u8>, field: &Field) {
    let extents = field.dims().extents();
    out.push(extents.len() as u8);
    out.extend_from_slice(&[0u8; 3]);
    for &e in &extents {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    out.extend_from_slice(&field.to_le_bytes());
}

/// Parse a raw-field encoding at the front of `body`, returning the field
/// and how many bytes it consumed. The extent product is capped by
/// `max_elems` and [`MAX_FIELD_ELEMS`] *before* the data is touched.
fn decode_field(body: &[u8], max_elems: usize) -> Result<(Field, usize), DecompressError> {
    let rank = usize::from(
        *body
            .first()
            .ok_or(DecompressError::Truncated("field rank"))?,
    );
    if !(1..=3).contains(&rank) {
        return Err(DecompressError::InvalidHeader("field rank must be 1..=3"));
    }
    if body.get(1..4) != Some(&[0u8; 3][..]) {
        return Err(DecompressError::InvalidHeader(
            "reserved field bytes must be zero",
        ));
    }
    let mut pos = 4usize;
    let mut extents = [0usize; 3];
    let mut elems = 1usize;
    let cap = MAX_FIELD_ELEMS.min(max_elems);
    for slot in extents.iter_mut().take(rank) {
        let raw = take_u64(body, &mut pos)?;
        let e = usize::try_from(raw)
            .map_err(|_| DecompressError::InvalidHeader("field extent overflows"))?;
        if e == 0 {
            return Err(DecompressError::InvalidHeader("zero field extent"));
        }
        elems = elems
            .checked_mul(e)
            .ok_or(DecompressError::InvalidHeader("field element overflow"))?;
        if elems > cap {
            return Err(DecompressError::Unsupported(
                "field exceeds the element cap",
            ));
        }
        *slot = e;
    }
    let data_len = elems
        .checked_mul(4)
        .ok_or(DecompressError::InvalidHeader("field byte overflow"))?;
    let end = pos
        .checked_add(data_len)
        .ok_or(DecompressError::Truncated("field data"))?;
    let data = body
        .get(pos..end)
        .ok_or(DecompressError::Truncated("field data"))?;
    let values: Vec<f32> = data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let dims = match rank {
        1 => Dims::d1(extents[0]),
        2 => Dims::d2(extents[0], extents[1]),
        _ => Dims::d3(extents[0], extents[1], extents[2]),
    };
    let field = Field::from_vec(dims, values)
        .map_err(|_| DecompressError::Inconsistent("field data does not match its extents"))?;
    Ok((field, end))
}

fn require_consumed(body: &[u8], consumed: usize) -> Result<(), DecompressError> {
    if consumed == body.len() {
        Ok(())
    } else {
        Err(DecompressError::Inconsistent(
            "trailing bytes after message body",
        ))
    }
}

fn require_empty(body: &[u8]) -> Result<(), DecompressError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(DecompressError::Inconsistent(
            "unexpected body on a bodyless message",
        ))
    }
}

fn framed(msg: MsgType, body: Vec<u8>) -> Vec<u8> {
    // HEADER_LEN is a const and body is already in memory, so the capacity
    // is len-proportional.
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&header_bytes(msg, body.len() as u64));
    out.extend_from_slice(&body);
    out
}

// -------------------------------------------------------------- Request

impl Request {
    /// The message type this request serializes as.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Request::Compress { .. } => MsgType::Compress,
            Request::Decompress { .. } => MsgType::Decompress,
            Request::Train { .. } => MsgType::Train,
            Request::Health => MsgType::Health,
            Request::Stats => MsgType::Stats,
            Request::ListModels => MsgType::ListModels,
        }
    }

    /// Serialize into a complete message (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Request::Compress {
                codec,
                bound,
                field,
            } => {
                body.push(*codec as u8);
                let (mode, e) = match bound {
                    ErrorBound::Abs(e) => (1u8, *e),
                    ErrorBound::RangeRel(e) => (2u8, *e),
                };
                body.push(mode);
                body.extend_from_slice(&[0u8; 2]);
                body.extend_from_slice(&e.to_le_bytes());
                encode_field_into(&mut body, field);
            }
            Request::Decompress { bytes } => body.extend_from_slice(bytes),
            Request::Train {
                codec,
                knobs,
                field,
            } => {
                body.push(*codec as u8);
                body.extend_from_slice(&[0u8; 3]);
                body.extend_from_slice(&knobs.epochs.to_le_bytes());
                body.extend_from_slice(&knobs.block.to_le_bytes());
                body.extend_from_slice(&knobs.latent.to_le_bytes());
                body.extend_from_slice(&knobs.max_blocks.to_le_bytes());
                body.extend_from_slice(&knobs.seed.to_le_bytes());
                encode_field_into(&mut body, field);
            }
            Request::Health | Request::Stats | Request::ListModels => {}
        }
        framed(self.msg_type(), body)
    }

    /// Parse a request body of type `msg`. `max_elems` caps the raw-field
    /// element count (checked before the data is read).
    pub fn decode_body(
        msg: MsgType,
        body: &[u8],
        max_elems: usize,
    ) -> Result<Request, DecompressError> {
        match msg {
            MsgType::Compress => {
                let raw = *body
                    .first()
                    .ok_or(DecompressError::Truncated("compress codec"))?;
                let codec = CodecId::from_byte(raw).ok_or(DecompressError::UnknownCodec(raw))?;
                let mode = *body
                    .get(1)
                    .ok_or(DecompressError::Truncated("bound mode"))?;
                if body.get(2..4) != Some(&[0u8; 2][..]) {
                    return Err(DecompressError::InvalidHeader(
                        "reserved compress bytes must be zero",
                    ));
                }
                let mut eb = [0u8; 8];
                eb.copy_from_slice(
                    body.get(4..12)
                        .ok_or(DecompressError::Truncated("error bound"))?,
                );
                let e = f64::from_le_bytes(eb);
                let bound = match mode {
                    1 => ErrorBound::abs(e),
                    2 => ErrorBound::rel(e),
                    _ => return Err(DecompressError::InvalidHeader("unknown bound mode")),
                };
                bound
                    .validate()
                    .map_err(|_| DecompressError::InvalidHeader("unusable error bound"))?;
                let rest = body
                    .get(12..)
                    .ok_or(DecompressError::Truncated("compress field"))?;
                let (field, consumed) = decode_field(rest, max_elems)?;
                require_consumed(rest, consumed)?;
                Ok(Request::Compress {
                    codec,
                    bound,
                    field,
                })
            }
            MsgType::Decompress => Ok(Request::Decompress {
                bytes: body.to_vec(),
            }),
            MsgType::Train => {
                let raw = *body
                    .first()
                    .ok_or(DecompressError::Truncated("train codec"))?;
                let codec = CodecId::from_byte(raw).ok_or(DecompressError::UnknownCodec(raw))?;
                if body.get(1..4) != Some(&[0u8; 3][..]) {
                    return Err(DecompressError::InvalidHeader(
                        "reserved train bytes must be zero",
                    ));
                }
                let mut pos = 4usize;
                let knobs = TrainKnobs {
                    epochs: take_u32(body, &mut pos)?,
                    block: take_u32(body, &mut pos)?,
                    latent: take_u32(body, &mut pos)?,
                    max_blocks: take_u32(body, &mut pos)?,
                    seed: take_u64(body, &mut pos)?,
                };
                let rest = body
                    .get(pos..)
                    .ok_or(DecompressError::Truncated("train field"))?;
                let (field, consumed) = decode_field(rest, max_elems)?;
                require_consumed(rest, consumed)?;
                Ok(Request::Train {
                    codec,
                    knobs,
                    field,
                })
            }
            MsgType::Health => require_empty(body).map(|()| Request::Health),
            MsgType::Stats => require_empty(body).map(|()| Request::Stats),
            MsgType::ListModels => require_empty(body).map(|()| Request::ListModels),
            _ => Err(DecompressError::InvalidHeader(
                "response type where a request was expected",
            )),
        }
    }
}

// -------------------------------------------------------------- Response

impl Response {
    /// The message type this response serializes as.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Response::CompressOk { .. } => MsgType::CompressOk,
            Response::DecompressOk { .. } => MsgType::DecompressOk,
            Response::TrainOk { .. } => MsgType::TrainOk,
            Response::HealthOk { .. } => MsgType::HealthOk,
            Response::StatsOk(_) => MsgType::StatsOk,
            Response::ModelList { .. } => MsgType::ModelList,
            Response::Error { .. } => MsgType::Error,
            Response::Busy { .. } => MsgType::Busy,
        }
    }

    /// Serialize into a complete message (header + body). Error messages are
    /// truncated to [`MAX_ERROR_MSG`] bytes on a character boundary.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Response::CompressOk { stream } => body.extend_from_slice(stream),
            Response::DecompressOk { field } => encode_field_into(&mut body, field),
            Response::TrainOk { id, frame } => {
                body.extend_from_slice(id.as_bytes());
                body.extend_from_slice(frame);
            }
            Response::HealthOk {
                uptime_ms,
                queue_depth,
            } => {
                body.extend_from_slice(&uptime_ms.to_le_bytes());
                body.extend_from_slice(&queue_depth.to_le_bytes());
            }
            Response::StatsOk(stats) => stats.encode_into(&mut body),
            Response::ModelList { entries } => {
                body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for entry in entries {
                    body.extend_from_slice(entry.id.as_bytes());
                    body.push(entry.codec.map(|c| c as u8).unwrap_or(0));
                    body.push(u8::from(entry.verified));
                    body.extend_from_slice(&[0u8; 6]);
                    body.extend_from_slice(&entry.param_bytes.to_le_bytes());
                }
            }
            Response::Error { code, message } => {
                body.push(*code as u8);
                let mut cut = message.len().min(MAX_ERROR_MSG);
                while cut > 0 && !message.is_char_boundary(cut) {
                    cut -= 1;
                }
                let msg_bytes = message.as_bytes();
                body.extend_from_slice(msg_bytes.get(..cut).unwrap_or(msg_bytes));
            }
            Response::Busy { queue_depth } => {
                body.extend_from_slice(&queue_depth.to_le_bytes());
            }
        }
        framed(self.msg_type(), body)
    }

    /// Parse a response body of type `msg`. `max_elems` caps the raw-field
    /// element count of `DecompressOk` bodies.
    pub fn decode_body(
        msg: MsgType,
        body: &[u8],
        max_elems: usize,
    ) -> Result<Response, DecompressError> {
        match msg {
            MsgType::CompressOk => Ok(Response::CompressOk {
                stream: body.to_vec(),
            }),
            MsgType::DecompressOk => {
                let (field, consumed) = decode_field(body, max_elems)?;
                require_consumed(body, consumed)?;
                Ok(Response::DecompressOk { field })
            }
            MsgType::TrainOk => {
                let id = ModelId::from_prefix(body)
                    .ok_or(DecompressError::Truncated("trained model id"))?;
                let frame = body
                    .get(MODEL_ID_LEN..)
                    .ok_or(DecompressError::Truncated("trained model frame"))?;
                if frame.is_empty() {
                    return Err(DecompressError::Truncated("trained model frame"));
                }
                Ok(Response::TrainOk {
                    id,
                    frame: frame.to_vec(),
                })
            }
            MsgType::HealthOk => {
                let mut pos = 0usize;
                let uptime_ms = take_u64(body, &mut pos)?;
                let queue_depth = take_u64(body, &mut pos)?;
                require_consumed(body, pos)?;
                Ok(Response::HealthOk {
                    uptime_ms,
                    queue_depth,
                })
            }
            MsgType::StatsOk => Ok(Response::StatsOk(ServerStats::decode(body)?)),
            MsgType::ModelList => {
                let mut pos = 0usize;
                let count = take_u64(body, &mut pos)?;
                let declared = usize::try_from(count)
                    .map_err(|_| DecompressError::InvalidHeader("model count overflows"))?;
                let expect = declared
                    .checked_mul(MODEL_ENTRY_LEN)
                    .and_then(|n| n.checked_add(8))
                    .ok_or(DecompressError::InvalidHeader("model count overflows"))?;
                if expect != body.len() {
                    return Err(DecompressError::Inconsistent(
                        "model list length disagrees with its count",
                    ));
                }
                // Bounded by the body length just validated above.
                let mut entries = Vec::with_capacity(declared);
                for _ in 0..declared {
                    let id_end = pos
                        .checked_add(MODEL_ID_LEN)
                        .ok_or(DecompressError::Truncated("model id"))?;
                    let id = body
                        .get(pos..id_end)
                        .and_then(ModelId::from_prefix)
                        .ok_or(DecompressError::Truncated("model id"))?;
                    pos = id_end;
                    let codec_raw = *body
                        .get(pos)
                        .ok_or(DecompressError::Truncated("model codec"))?;
                    let codec = CodecId::from_byte(codec_raw);
                    if codec.is_none() && codec_raw != 0 {
                        return Err(DecompressError::UnknownCodec(codec_raw));
                    }
                    let verified_raw = *body
                        .get(pos + 1)
                        .ok_or(DecompressError::Truncated("model flags"))?;
                    let verified = match verified_raw {
                        0 => false,
                        1 => true,
                        _ => {
                            return Err(DecompressError::InvalidHeader(
                                "model verified flag must be 0 or 1",
                            ))
                        }
                    };
                    let zeros_end = pos
                        .checked_add(8)
                        .ok_or(DecompressError::Truncated("model entry"))?;
                    if body.get(pos + 2..zeros_end) != Some(&[0u8; 6][..]) {
                        return Err(DecompressError::InvalidHeader(
                            "reserved model bytes must be zero",
                        ));
                    }
                    pos = zeros_end;
                    let param_bytes = take_u64(body, &mut pos)?;
                    entries.push(ModelEntry {
                        id,
                        codec,
                        verified,
                        param_bytes,
                    });
                }
                require_consumed(body, pos)?;
                Ok(Response::ModelList { entries })
            }
            MsgType::Error => {
                let raw = *body
                    .first()
                    .ok_or(DecompressError::Truncated("error code"))?;
                let code = ErrorCode::from_byte(raw)
                    .ok_or(DecompressError::InvalidHeader("unknown error code"))?;
                let rest = body
                    .get(1..)
                    .ok_or(DecompressError::Truncated("error message"))?;
                Ok(Response::Error {
                    code,
                    message: String::from_utf8_lossy(rest).into_owned(),
                })
            }
            MsgType::Busy => {
                let mut pos = 0usize;
                let queue_depth = take_u64(body, &mut pos)?;
                require_consumed(body, pos)?;
                Ok(Response::Busy { queue_depth })
            }
            _ => Err(DecompressError::InvalidHeader(
                "request type where a response was expected",
            )),
        }
    }
}

// --------------------------------------------------- buffer conveniences

fn checked_body<'a>(
    header: &MsgHeader,
    bytes: &'a [u8],
    limits: &Limits,
) -> Result<(&'a [u8], usize), DecompressError> {
    if header.body_len > limits.max_body {
        return Err(DecompressError::Unsupported(
            "message body exceeds the size limit",
        ));
    }
    let body_len = usize::try_from(header.body_len)
        .map_err(|_| DecompressError::Unsupported("message body exceeds addressable size"))?;
    let end = HEADER_LEN
        .checked_add(body_len)
        .ok_or(DecompressError::Truncated("message body"))?;
    let body = bytes
        .get(HEADER_LEN..end)
        .ok_or(DecompressError::Truncated("message body"))?;
    Ok((body, end))
}

/// Parse one complete request message from the front of `bytes`, returning
/// it and the number of bytes consumed. Caps are enforced before any
/// allocation.
pub fn decode_request(bytes: &[u8], limits: &Limits) -> Result<(Request, usize), DecompressError> {
    let header = MsgHeader::parse(bytes)?;
    if !header.msg.is_request() {
        return Err(DecompressError::InvalidHeader(
            "response type where a request was expected",
        ));
    }
    let (body, end) = checked_body(&header, bytes, limits)?;
    Ok((
        Request::decode_body(header.msg, body, limits.max_elems)?,
        end,
    ))
}

/// Parse one complete response message from the front of `bytes`, returning
/// it and the number of bytes consumed. Caps are enforced before any
/// allocation.
pub fn decode_response(
    bytes: &[u8],
    limits: &Limits,
) -> Result<(Response, usize), DecompressError> {
    let header = MsgHeader::parse(bytes)?;
    if header.msg.is_request() {
        return Err(DecompressError::InvalidHeader(
            "request type where a response was expected",
        ));
    }
    let (body, end) = checked_body(&header, bytes, limits)?;
    Ok((
        Response::decode_body(header.msg, body, limits.max_elems)?,
        end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_field() -> Field {
        Field::from_fn(Dims::d2(4, 6), |c| (c[0] * 7 + c[1]) as f32)
    }

    #[test]
    fn requests_roundtrip() {
        let limits = Limits::default();
        let reqs = [
            Request::Compress {
                codec: CodecId::Zfp,
                bound: ErrorBound::abs(1e-3),
                field: small_field(),
            },
            Request::Decompress {
                bytes: vec![1, 2, 3, 4],
            },
            Request::Train {
                codec: CodecId::AeSz,
                knobs: TrainKnobs {
                    epochs: 2,
                    block: 8,
                    latent: 4,
                    max_blocks: 6,
                    seed: 42,
                },
                field: small_field(),
            },
            Request::Health,
            Request::Stats,
            Request::ListModels,
        ];
        for req in reqs {
            let bytes = req.encode();
            let (back, used) = decode_request(&bytes, &limits).expect("roundtrip");
            assert_eq!(used, bytes.len());
            assert_eq!(back.msg_type(), req.msg_type());
            if let (
                Request::Compress { field: a, .. },
                Request::Compress {
                    field: b,
                    bound,
                    codec,
                },
            ) = (&req, &back)
            {
                assert_eq!(a.as_slice(), b.as_slice());
                assert_eq!(*bound, ErrorBound::abs(1e-3));
                assert_eq!(*codec, CodecId::Zfp);
            }
        }
    }

    #[test]
    fn responses_roundtrip() {
        let limits = Limits::default();
        let mut stats = ServerStats {
            uptime_ms: 1234,
            requests: 10,
            ok: 8,
            errors: 1,
            busy_rejections: 1,
            bytes_in: 4096,
            bytes_out: 2048,
            queue_depth: 3,
            connections_active: 2,
            connections_total: 7,
            model_cache_hits: 5,
            model_resolutions: 2,
            models_resident: 1,
            ..ServerStats::default()
        };
        stats.compress_by_codec[ServerStats::codec_slot(CodecId::Zfp)] = 4;
        stats.decompress_by_codec[ServerStats::codec_slot(CodecId::AeSz)] = 6;
        let resps = [
            Response::CompressOk {
                stream: vec![9; 40],
            },
            Response::DecompressOk {
                field: small_field(),
            },
            Response::TrainOk {
                id: ModelId::of(b"weights"),
                frame: vec![1, 2, 3],
            },
            Response::HealthOk {
                uptime_ms: 99,
                queue_depth: 1,
            },
            Response::StatsOk(stats),
            Response::ModelList {
                entries: vec![ModelEntry {
                    id: ModelId::of(b"m"),
                    codec: Some(CodecId::AeA),
                    verified: true,
                    param_bytes: 512,
                }],
            },
            Response::Error {
                code: ErrorCode::TooLarge,
                message: "nope".into(),
            },
            Response::Busy { queue_depth: 12 },
        ];
        for resp in resps {
            let bytes = resp.encode();
            let (back, used) = decode_response(&bytes, &limits).expect("roundtrip");
            assert_eq!(used, bytes.len());
            assert_eq!(back.msg_type(), resp.msg_type());
            if let Response::StatsOk(s) = &back {
                assert_eq!(*s, stats);
            }
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        let limits = Limits::default();
        for len in [u64::MAX, u64::MAX - 15, (1u64 << 32) + 7, (1 << 30) + 1] {
            let mut msg = header_bytes(MsgType::Health, len).to_vec();
            msg.extend_from_slice(&[0u8; 32]);
            assert!(decode_request(&msg, &limits).is_err(), "len {len}");
        }
    }

    #[test]
    fn element_caps_bound_field_decode() {
        let req = Request::Compress {
            codec: CodecId::Zfp,
            bound: ErrorBound::abs(1e-3),
            field: small_field(),
        };
        let bytes = req.encode();
        let tight = Limits {
            max_body: 1 << 30,
            max_elems: 5,
        };
        assert!(matches!(
            decode_request(&bytes, &tight),
            Err(DecompressError::Unsupported(_))
        ));
    }

    #[test]
    fn error_messages_are_truncated_on_char_boundaries() {
        let long = "é".repeat(MAX_ERROR_MSG);
        let bytes = Response::Error {
            code: ErrorCode::Internal,
            message: long,
        }
        .encode();
        let (back, _) = decode_response(&bytes, &Limits::default()).expect("decodes");
        if let Response::Error { message, .. } = back {
            assert!(message.len() <= MAX_ERROR_MSG);
            assert!(message.chars().all(|c| c == 'é'));
        } else {
            panic!("expected Error");
        }
    }
}
