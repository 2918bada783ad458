//! # aesz-nn
//!
//! A minimal, CPU-only deep-learning framework built from scratch for the
//! AE-SZ reproduction. The paper trains its autoencoders with PyTorch on
//! V100 GPUs; this crate provides the same building blocks in pure Rust so
//! the full compression pipeline (encode → compress latents → decode →
//! quantize residuals) can be exercised end to end:
//!
//! * [`layer`] — the `Layer` trait (manual forward/backward, plus the
//!   allocation-free `infer_into` inference path) and `Param`.
//! * [`dense`], [`conv`], [`upsample`], [`gdn`], [`activation`] — the layers
//!   used by the paper's architecture: strided convolutions, GDN/iGDN
//!   nonlinearities, fully-connected resize layers, Tanh output.
//! * [`gemm`], [`im2col`], [`infer`] — the inference engine: convolution and
//!   dense forward passes run on one register-blocked `MR×NR` GEMM
//!   micro-kernel with a pinned accumulation order (bit-identical to the
//!   direct loops it replaced, enforced by the differential harness).
//!   Convolution is an implicit GEMM reading its taps in place from a
//!   zero-padded, phase-split copy of each sample through a tap-offset
//!   table; all buffers are caller-owned [`infer::NnScratch`], so a
//!   resident compressor performs no per-call allocation once warm.
//! * [`lanes`] — the lane split the codecs' NN block loops share: at most
//!   one contiguous range of blocks per core, each with its own resident
//!   scratch and a disjoint slice of the outputs, bit-identical to one lane.
//! * [`sequential`] — ordered layer stacks with joint backward.
//! * [`loss`] — reconstruction losses (MSE, L1, log-cosh) and the
//!   distribution-matching regularizers that differentiate the autoencoder
//!   zoo: KL divergence (VAE / β-VAE), MMD (Info-VAE / WAE-MMD), covariance
//!   penalties (DIP-VAE) and the sliced-Wasserstein distance (SWAE).
//! * [`optim`] — Adam and SGD.
//! * [`models`] — the blockwise convolutional autoencoder of AE-SZ
//!   (Fig. 3/4 of the paper) and the eight-variant autoencoder zoo of
//!   Table I.
//! * [`train`] — mini-batch training loops over data blocks.
//! * [`serialize`] — flat binary save/load of model weights (every zoo
//!   variant round-trips through the stable `AESZMDL1` format) plus the
//!   content-addressed [`serialize::model_id`] that streams and archives use
//!   to name the exact network that encoded them, so a trained predictor can
//!   be stored next to the compressed data like the paper's network files.
//!
//! Everything is deterministic given a seed. Layers and training run on the
//! calling thread; the only parallelism is the codecs' block-level fan-out
//! through [`lanes`].

#![forbid(unsafe_code)]

pub mod activation;
pub mod conv;
pub mod dense;
pub mod gdn;
pub mod gemm;
pub mod im2col;
pub mod infer;
pub mod lanes;
pub mod layer;
pub mod loss;
pub mod models;
pub mod optim;
pub mod sequential;
// The model-format parser is in the `aesz-lint` deny-set (see the repo-root
// lint.toml): it must not panic on attacker-shaped bytes, which the clippy
// header below enforces at the compiler level (rule R1). Tests are exempt
// via clippy.toml's allow-*-in-tests keys.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod serialize;
pub mod train;
pub mod upsample;

pub use infer::{NnScratch, Shape};
pub use layer::{Layer, NnError, Param};
pub use models::conv_ae::{AeConfig, ConvAutoencoder};
pub use models::zoo::AeVariant;
pub use optim::Adam;
pub use sequential::Sequential;
pub use train::{TrainConfig, Trainer};
