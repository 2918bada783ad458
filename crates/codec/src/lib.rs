//! # aesz-codec
//!
//! Lossless coding substrate for the AE-SZ reproduction.
//!
//! The paper's pipeline finishes every compressor with *Huffman encoding of
//! the quantization codes followed by Zstd*. This crate provides that stage
//! built from scratch:
//!
//! * [`bitio`] — bit-granular writer/reader over byte buffers.
//! * [`varint`] — LEB128 variable-length integers and zigzag mapping.
//! * [`huffman`] — canonical Huffman coding over arbitrary `u32` alphabets
//!   (the quantization-bin alphabet has up to 65,536 symbols).
//! * [`lz`] — `zlite`, a greedy LZ77 match coder with hash-chain search that
//!   stands in for Zstd as the final byte-oriented squeeze.
//! * [`pipeline`] — the composed stages used by the compressors:
//!   `encode_codes` (Huffman + zlite over quantization codes) and
//!   `compress_bytes` (zlite over arbitrary byte payloads). Every decoder
//!   takes a cap on its output size.
//! * [`hash`] — a self-contained SHA-256 and the content-addressed
//!   [`ModelId`] that names trained models across streams and archives.

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
pub mod bitio;
pub mod hash;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod huffman;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod lz;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod pipeline;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use hash::{sha256, ModelId, MODEL_ID_LEN};
pub use huffman::{huffman_decode_capped, huffman_decode_capped_into, huffman_encode};
pub use lz::{zlite_compress, zlite_decompress_capped};
pub use pipeline::{
    compress_bytes, decode_codes_capped, decode_codes_capped_into, decompress_bytes_capped,
    encode_codes, CodecError,
};
