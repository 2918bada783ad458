//! # aesz-metrics
//!
//! Compression-quality metrics used throughout the evaluation: PSNR, MSE,
//! NRMSE, maximum pointwise error, bit rate, compression ratio, and simple
//! rate-distortion curve containers. Definitions follow Section III-B of the
//! AE-SZ paper:
//!
//! * `PSNR = 20·log10(vrange(D)) − 10·log10(mse(D, D'))`
//! * `bit rate = compressed bits / number of data points`
//! * `compression ratio = |D| / |D'|` in bytes.

#![forbid(unsafe_code)]

// Wire-parsing modules (the `aesz-lint` deny-set, see the repo-root
// lint.toml) must not panic on attacker-shaped bytes; the clippy headers
// below enforce the same contract (rule R1) at the compiler level. Tests
// are exempt via clippy.toml's allow-*-in-tests keys.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod archive;
pub mod bound;
pub mod compressor;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod container;
pub mod error;
pub mod error_stats;
#[cfg(any(test, feature = "legacy-layouts"))]
pub mod legacy;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod protocol;
pub mod rate_distortion;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod stream;

pub use archive::{
    write_archive_embedding, write_archive_stream, write_field_archive,
    write_field_archive_embedding, ArchiveAppender, ArchiveOptions, ArchiveReadError,
    ArchiveReader, ArchiveStats, ArchiveWriteError, ChunkSink, ChunkSource, FieldSink, FieldSource,
};
pub use bound::ErrorBound;
pub use compressor::{measure, Compressor, SweepPoint};
pub use container::{
    peek, read_frame, read_model_frame, write_frame, write_model_frame, ArchiveHeader, ChunkEntry,
    CodecId, EmbeddedModel, FrameInfo, ModelId,
};
pub use error::{CompressError, CompressorError, DecompressError};
pub use error_stats::{max_abs_error, mse, nrmse, psnr, verify_error_bound, ErrorStats};
pub use protocol::{
    decode_request, decode_response, ErrorCode, Limits, ModelEntry, MsgHeader, MsgType, Request,
    Response, ServerStats, TrainKnobs,
};
pub use rate_distortion::{bit_rate, compression_ratio, RdCurve, RdPoint};
pub use stream::{StreamDecoder, StreamEvent};
