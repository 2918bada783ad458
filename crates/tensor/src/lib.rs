//! # aesz-tensor
//!
//! N-dimensional containers used throughout the AE-SZ reproduction.
//!
//! Two families of types live here:
//!
//! * [`Field`] — a scientific data field (1D/2D/3D, `f32`, row-major) with the
//!   blockwise access patterns the SZ/AE-SZ compressors need: fixed-size block
//!   extraction with edge clamping, block write-back, global min/max and
//!   normalization helpers.
//! * [`Tensor`] — a general N-dimensional tensor used by the `aesz-nn`
//!   mini deep-learning framework (batched activations, convolution kernels,
//!   latent vectors).
//!
//! Beside them sit the codecs' parallel block machinery: [`lanes`], the split
//! of a block loop into at most one contiguous lane per core, and
//! [`engine`], the block-row lane engine that runs AE-SZ's and SZ2.1's
//! select–quantize and reconstruct loops.
//!
//! The crate is dependency-light on purpose; everything else in the workspace
//! builds on top of it.

#![forbid(unsafe_code)]

pub mod dims;
// The block-row engine and its lane split run the SZ-style decoders on
// offsets derived from wire data, so they are in the `aesz-lint` deny-set
// (see the repo-root lint.toml) and must not panic on attacker-shaped
// bytes; the clippy headers enforce rule R1 at the compiler level. Tests
// are exempt via clippy.toml's allow-*-in-tests keys.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod engine;
pub mod field;
pub mod init;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod lanes;
pub mod ops;
pub mod tensor;

pub use dims::Dims;
pub use field::{Block, BlockIter, BlockSpec, Field};
pub use tensor::Tensor;

/// Convenience result alias used by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by shape/layout validation in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by the shape does not match the data length.
    ShapeMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements actually provided.
        got: usize,
    },
    /// An index was out of bounds for the given dimensions.
    OutOfBounds {
        /// The offending flattened index.
        index: usize,
        /// The number of valid elements.
        len: usize,
    },
    /// An operation received operands with incompatible shapes.
    IncompatibleShapes(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected} elements, got {got}")
            }
            TensorError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TensorError::IncompatibleShapes(msg) => write!(f, "incompatible shapes: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
