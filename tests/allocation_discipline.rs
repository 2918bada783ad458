//! Allocation discipline of the per-block hot paths (see README
//! "Performance"): after the scratch buffers warm up, the block loops of
//! `Sz2`, the core AE-SZ compressor (with and without its AE stages) and
//! AE-B must perform no per-block heap allocation. The test installs a counting allocator and compares the
//! allocating-call count between a small and a much larger field — if any
//! block-loop path allocated per block, the count would grow by at least
//! one per extra block, while scratch reuse keeps the growth logarithmic
//! (output-vector doubling and the entropy-coder stages only).
//!
//! This binary holds exactly one `#[test]` so the measured regions never
//! interleave with another test's allocations.

mod common;

use aesz_repro::baselines::{AeB, Sz2};
use aesz_repro::core::training::{train_swae_for_field, TrainingOptions};
use aesz_repro::core::{AeSz, AeSzConfig, PredictorPolicy};
use aesz_repro::datagen::Application;
use aesz_repro::metrics::{Compressor, ErrorBound};
use aesz_repro::{Dims, Field};

#[global_allocator]
static ALLOC: common::alloc::CountingAlloc = common::alloc::CountingAlloc::new();

/// Allocating calls made by `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.allocations();
    let result = f();
    (ALLOC.allocations() - before, result)
}

fn field(side: usize) -> Field {
    Application::CesmCldhgh.generate(Dims::d2(side, side), 9)
}

const BOUND: ErrorBound = ErrorBound::Abs(1e-3);

#[test]
fn block_loops_allocate_o1_per_block() {
    // --- Sz2 (block size 8): 8×8 grid vs 32×32 grid of blocks. ---
    let small = field(64); // 64 blocks
    let large = field(256); // 1024 blocks
    let extra_blocks = 1024 - 64;

    let mut sz2 = Sz2::new();
    // Warm-up outputs are also the decode inputs below.
    let small_stream = sz2.compress(&small, BOUND).expect("compress");
    let (a_small, large_stream) = count_allocations(|| sz2.compress(&small, BOUND).ok());
    drop(large_stream);
    let (a_large, large_stream) = count_allocations(|| sz2.compress(&large, BOUND).ok());
    let large_stream = large_stream.expect("compress");
    assert!(
        a_large < a_small + extra_blocks / 4,
        "sz2 compress allocations scale with block count: \
         {a_small} for 64 blocks vs {a_large} for 1024"
    );

    let (d_small, _) = count_allocations(|| sz2.decompress(&small_stream).ok());
    let (d_large, _) = count_allocations(|| sz2.decompress(&large_stream).ok());
    assert!(
        d_large < d_small + extra_blocks / 4,
        "sz2 decompress allocations scale with block count: \
         {d_small} for 64 blocks vs {d_large} for 1024"
    );

    // --- Core AE-SZ (block size 16, Lorenzo-only so the measurement sees
    // exactly the chunked block loop, not the model's forward pass). ---
    let train = Application::CesmCldhgh.generate(Dims::d2(32, 48), 0);
    let opts = TrainingOptions {
        block_size: 16,
        latent_dim: 4,
        channels: vec![4],
        epochs: 1,
        max_blocks: 4,
        seed: 3,
        ..TrainingOptions::default_for_rank(2)
    };
    let model = train_swae_for_field(std::slice::from_ref(&train), &opts);
    let mut aesz = AeSz::new(
        model,
        AeSzConfig {
            block_size: 16,
            ..AeSzConfig::default_2d()
        },
    );
    aesz.set_policy(PredictorPolicy::LorenzoOnly);

    let small = field(64); // 16 blocks
    let large = field(512); // 1024 blocks
    let extra_blocks = 1024 - 16;
    let small_stream = aesz.compress(&small, BOUND).expect("compress");
    let (c_small, _) = count_allocations(|| aesz.compress(&small, BOUND).ok());
    let (c_large, large_stream) = count_allocations(|| aesz.compress(&large, BOUND).ok());
    let large_stream = large_stream.expect("compress");
    assert!(
        c_large < c_small + extra_blocks / 4,
        "aesz compress allocations scale with block count: \
         {c_small} for 16 blocks vs {c_large} for 1024"
    );

    let (e_small, _) = count_allocations(|| aesz.decompress(&small_stream).ok());
    let (e_large, _) = count_allocations(|| aesz.decompress(&large_stream).ok());
    assert!(
        e_large < e_small + extra_blocks / 4,
        "aesz decompress allocations scale with block count: \
         {e_small} for 16 blocks vs {e_large} for 1024"
    );

    // --- The AE stages of AE-SZ on the same fields: Adaptive runs the
    // encoder, latent codec and decoder on every block; AeOnly makes every
    // block AE-predicted, so decompress runs the decoder on every block too.
    for policy in [PredictorPolicy::Adaptive, PredictorPolicy::AeOnly] {
        aesz.set_policy(policy);
        let small_stream = aesz.compress(&small, BOUND).expect("compress");
        // Warm every lane's scratch on the large field first.
        let large_stream = aesz.compress(&large, BOUND).expect("compress");
        aesz.decompress(&large_stream).expect("decompress");
        let (c_small, _) = count_allocations(|| aesz.compress(&small, BOUND).ok());
        let (c_large, _) = count_allocations(|| aesz.compress(&large, BOUND).ok());
        assert!(
            c_large < c_small + extra_blocks / 4,
            "aesz {policy:?} compress allocations scale with block count: \
             {c_small} for 16 blocks vs {c_large} for 1024"
        );
        let (e_small, _) = count_allocations(|| aesz.decompress(&small_stream).ok());
        let (e_large, _) = count_allocations(|| aesz.decompress(&large_stream).ok());
        assert!(
            e_large < e_small + extra_blocks / 4,
            "aesz {policy:?} decompress allocations scale with block count: \
             {e_small} for 16 blocks vs {e_large} for 1024"
        );
    }

    // --- AE-B (16³ blocks; untrained weights loaded as a model, since only
    // the inference path's allocations matter): 1 vs 16 blocks, one lane on
    // every machine, so the comparison sees per-block costs only (spawning
    // lanes costs O(cores) per call, which the AE-SZ rounds above absorb).
    // Compress only: the debug-build decoder is too slow to run here, and
    // its loop reuses its staging buffers by construction. ---
    let mut aeb = AeB::from_model_bytes(&AeB::new(7).to_model_bytes()).expect("AE-B model");
    let small = Application::Rtm.generate(Dims::d3(16, 16, 16), 9);
    let large = Application::Rtm.generate(Dims::d3(32, 32, 64), 9);
    let extra_blocks = 16 - 1;
    aeb.compress(&large, BOUND).expect("compress");
    aeb.compress(&small, BOUND).expect("compress");
    let (c_small, _) = count_allocations(|| aeb.compress(&small, BOUND).ok());
    let (c_large, _) = count_allocations(|| aeb.compress(&large, BOUND).ok());
    assert!(
        c_large < c_small + extra_blocks / 4,
        "aeb compress allocations scale with block count: \
         {c_small} for 1 block vs {c_large} for 16"
    );
}
