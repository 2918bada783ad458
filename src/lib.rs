//! Umbrella crate for the AE-SZ reproduction workspace.
//!
//! Re-exports the public APIs of every member crate so that examples and
//! integration tests can `use aesz_repro::...` without naming each crate,
//! and hosts the [`registry`] module (the codec [`Registry`] over all seven
//! compressors and the [`decompress_any`] dispatch entry point), the
//! [`model_store`] module (content-addressed storage of trained models and
//! the one training dispatch — the train → ship → resolve lifecycle), the
//! [`resolve`] module (the one decode-time `(codec, ModelId)` → trained
//! decoder policy every decode path shares, single frames included, which
//! never changes the registry), and the [`archive`] module
//! (registry-driven chunked streaming archives with per-chunk codec choice,
//! random-access decode, and embedded-model resolution).

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
pub mod model_store;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod registry;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod resolve;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod stream;

pub use aesz_baselines as baselines;
pub use aesz_codec as codec;
pub use aesz_core as core;
pub use aesz_datagen as datagen;
pub use aesz_metrics as metrics;
pub use aesz_nn as nn;
pub use aesz_predictors as predictors;
pub use aesz_tensor as tensor;

// The handful of types almost every consumer needs, at the crate root: the
// compressor, its configuration, the unified error types, the error-bound
// modes, the codec registry, and the trait the benchmark harness drives
// everything through.
pub use aesz_core::{AeSz, AeSzConfig, CompressionReport, PredictorPolicy};
pub use aesz_metrics::{
    CodecId, CompressError, Compressor, CompressorError, DecompressError, EmbeddedModel,
    ErrorBound, ModelId,
};
pub use aesz_tensor::{Dims, Field};
pub use model_store::{ModelStore, ModelStoreError, SidecarEntry};
pub use registry::{decompress_any, Registry, RegistryAccess, SharedRegistry};
pub use stream::{decompress_reader, decompress_reader_limited, StreamFieldDecoder, StreamOutput};
