//! # aesz-core
//!
//! AE-SZ: the autoencoder-based error-bounded lossy compressor that is the
//! primary contribution of the paper (Section IV). The compressor follows
//! Algorithm 1:
//!
//! 1. split the input field into fixed-size blocks (32×32 in 2D, 8×8×8 in 3D),
//! 2. per block, predict with (a) the pre-trained SWAE decoder fed an
//!    error-bounded lossily compressed latent vector and (b) the classic /
//!    mean Lorenzo predictor, and keep whichever has the lower l1 loss,
//! 3. linear-scale-quantize the residuals against the user error bound
//!    (65,536 bins, unpredictable escape),
//! 4. entropy-code everything with Huffman + the zlite (Zstd stand-in) stage.
//!
//! The compressed stream holds a small header, the per-block predictor
//! choices, the lossily compressed latent vectors of AE-predicted blocks
//! ("custo." codec, Section IV-E), the block means of mean-predicted blocks,
//! the quantization codes, and the escaped (unpredictable) values.
//!
//! The trained network is stored *separately* from the compressed data (see
//! [`aesz_nn::serialize`]) because one model serves every snapshot of an
//! application — exactly the offline-training / online-compression split of
//! Fig. 2.

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
pub mod compressor;
pub mod config;
pub mod error;
pub mod latent;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod stream;
pub mod training;

pub use compressor::{AeSz, CompressionReport};
pub use config::{AeSzConfig, PredictorPolicy};
pub use error::DecompressError;
pub use latent::LatentCodec;
pub use training::{train_swae_for_field, training_blocks_from_field};
