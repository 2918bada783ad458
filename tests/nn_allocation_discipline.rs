//! Allocation discipline of the NN inference path (see README
//! "Performance"): once a resident [`NnScratch`] and output buffer have
//! warmed up, `encode_blocks_into` / `decode_latents_into` must perform
//! **zero** heap allocations per call — the whole forward pass runs in the
//! caller-owned scratch. That is the contract the resident compressor forks
//! (`AeSz`, `AeA`, `AeB`, and the per-worker forks in `aesz serve`) rely on
//! for their amortized O(1)-allocations-per-block hot loops.
//!
//! The inference path also must not touch the training caches: `infer_into`
//! takes `&self`, so cache writes are ruled out at the type level — this
//! binary exercises encode/decode through a shared reference to make that
//! visible — and the bit-identity of the two paths is locked by
//! `kernel_differential.rs` and the per-layer tests in `crates/nn`.
//!
//! This binary holds exactly one `#[test]` so the measured regions never
//! interleave with another test's allocations; it checks a 2D geometry and
//! AE-B's 3D one in turn.

mod common;

use aesz_repro::nn::{AeConfig, ConvAutoencoder, NnScratch};

#[global_allocator]
static ALLOC: common::alloc::CountingAlloc = common::alloc::CountingAlloc::new();

/// Allocating calls made by `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.allocations();
    let result = f();
    (ALLOC.allocations() - before, result)
}

#[test]
fn warm_inference_path_performs_no_per_call_allocations() {
    // A 2D geometry (16×16 blocks through a strided conv stack) and AE-B's
    // (3D 16³ blocks, channels [8, 8], latent 64): between them they warm
    // every resident buffer — ping-pong activations, the convolution's
    // padded and phase-split sample, its tap-offset table, the packed
    // weights and the dense panels.
    let configs = [
        AeConfig {
            spatial_rank: 2,
            block_size: 16,
            latent_dim: 8,
            channels: vec![8, 16],
            variational: true,
            seed: 11,
        },
        AeConfig {
            spatial_rank: 3,
            block_size: 16,
            latent_dim: 64,
            channels: vec![8, 8],
            variational: false,
            seed: 13,
        },
    ];
    for config in configs {
        let rank = config.spatial_rank;
        assert_warm_rounds_allocate_nothing(ConvAutoencoder::new(config), rank);
    }
}

fn assert_warm_rounds_allocate_nothing(model: ConvAutoencoder, rank: usize) {
    // 16 blocks per call is the compressors' chunk size; the 3D round uses
    // 4 to keep the debug-build suite quick (the per-sample buffers are the
    // same size either way).
    let batch = if rank == 2 { 16usize } else { 4 };
    let block_len = model.config().block_len();
    let blocks: Vec<f32> = (0..batch * block_len)
        .map(|i| ((i as f32) * 0.37).sin())
        .collect();

    let mut scratch = NnScratch::new();
    let (mut latents, mut decoded) = (Vec::new(), Vec::new());

    // Warm-up: first calls size the scratch and output buffers.
    model
        .encode_blocks_into(&blocks, batch, &mut latents, &mut scratch)
        .expect("shaped batch");
    model
        .decode_latents_into(&latents, batch, &mut decoded, &mut scratch)
        .expect("shaped latents");

    // Steady state: every subsequent encode+decode round must run entirely
    // inside the warm buffers. A single per-block (or even per-call)
    // allocation would fail the == 0 below.
    let rounds = if rank == 2 { 32u64 } else { 3 };
    let (n_alloc, checksum) = count_allocations(|| {
        let mut acc = 0.0f64;
        for _ in 0..rounds {
            model
                .encode_blocks_into(&blocks, batch, &mut latents, &mut scratch)
                .expect("shaped batch");
            model
                .decode_latents_into(&latents, batch, &mut decoded, &mut scratch)
                .expect("shaped latents");
            acc += f64::from(decoded[0]);
        }
        acc
    });
    assert!(checksum.is_finite());
    assert_eq!(
        n_alloc, 0,
        "rank-{rank} warm inference allocated {n_alloc} times over {rounds} encode+decode rounds"
    );

    // And the outputs of the warm path are the same every round (the loop
    // above would have amplified any scratch-reuse corruption).
    let mut latents2 = Vec::new();
    let mut scratch2 = NnScratch::new();
    model
        .encode_blocks_into(&blocks, batch, &mut latents2, &mut scratch2)
        .expect("shaped batch");
    let a: Vec<u32> = latents.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = latents2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b, "rank-{rank}: fresh scratch and warm scratch disagree");
}
