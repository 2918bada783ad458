//! Differential bit-identity harness for the optimized hot-path kernels.
//!
//! Every rewritten kernel in the workspace keeps a scalar `*_reference`
//! twin (see README "Performance"). This suite drives both sides over the
//! same randomized inputs — ranks 1–3, lengths covering every `len % 8`
//! residue, denormals, ±infinity and NaN-adjacent magnitudes — and demands
//! *bitwise* identical outputs: same quantizer codes, same escape lists,
//! same `f32` reconstruction bits, same `f64` loss bits, same encoded
//! bytes. A kernel that is merely "close" fails; the optimizations must be
//! reorderings the IEEE semantics cannot observe.
//!
//! The NN engine is held to the same contract: `gemm_into` and the
//! accumulate entry `gemm_acc_into` must match their scalar twins bitwise
//! across every tile shape and tail, and `ConvNd` must reproduce the direct
//! 7-deep loops it replaced bit for bit on hostile finite values, in both
//! directions — the implicit-GEMM forward against `conv_direct_reference`,
//! and the GEMM-lowered backward (`dX`, `dW` accumulated over two calls,
//! `db`) against `conv_backward_direct_reference` — across spatial ranks
//! 2–3, strides, pads and odd edges, and on every convolution of the three
//! production geometries (`ae_stream_golden.rs` extends the forward lock to
//! whole trained-autoencoder streams, `training_golden.rs` the backward to
//! multi-step training). The position-tiled GDN/iGDN and the
//! row-copy `Upsample` face their per-element twins the same way, across
//! every tile tail, up to 40 channels and factors 1–3, and on the layers of
//! the three production models. `PROPTEST_CASES=1024` runs the properties
//! deep; the default is 64 cases each.
//!
//! The second half locks whole streams: each of the seven codecs must emit
//! byte-identical output across repeated runs and across fork boundaries
//! (learned codecs included), and the traditional codecs must keep decoding
//! the committed golden fixtures from before the kernel rewrite byte-for-
//! byte (`golden_streams.rs` holds the encode-side lock).

mod common;

use aesz_repro::codec::bitio::{BitReader, BitWriter};
use aesz_repro::codec::huffman::{
    huffman_decode_capped, huffman_decode_capped_reference, huffman_encode,
    huffman_encode_reference,
};
use aesz_repro::codec::lz::{
    zlite_compress, zlite_decompress_capped, zlite_decompress_capped_reference,
};
use aesz_repro::metrics::{CodecId, ErrorBound};
use aesz_repro::nn::conv::ConvNd;
use aesz_repro::nn::gdn::{gdn_reference, Gdn};
use aesz_repro::nn::gemm::{
    gemm_acc_into, gemm_acc_reference, gemm_into, gemm_reference, GemmBias,
};
use aesz_repro::nn::upsample::{upsample_reference, Upsample};
use aesz_repro::nn::{AeConfig, ConvAutoencoder, Layer, NnScratch, Shape};
use aesz_repro::predictors::{lorenzo, mean, regression, Quantizer};
use aesz_repro::tensor::init::rng;
use aesz_repro::tensor::Tensor;
use proptest::prelude::*;

/// Finite-but-hostile values spliced into random blocks: denormals on both
/// sides of zero, signed zeros, both infinities, and NaN-adjacent
/// magnitudes (`f32::MAX`, near-overflow products).
const SPECIALS: [f32; 10] = [
    f32::MIN_POSITIVE / 2.0,  // positive denormal
    -f32::MIN_POSITIVE / 4.0, // negative denormal
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
    -f32::MAX,
    3.0e38,
    -3.0e38,
];

/// Deterministic extents for a case: rank 1–3, shaped so the total length
/// sweeps every `len % 8` residue class across the case budget.
fn make_extents(rank: usize, a: usize, b: usize, c: usize) -> Vec<usize> {
    match rank {
        1 => vec![a * b * c], // 1..=125: hits every residue mod 8
        2 => vec![a, b * c],
        _ => vec![a, b, c],
    }
}

/// Slice `values` to the extents' product and splice specials at `spots`.
fn make_block(values: &[f32], extents: &[usize], spots: &[usize], picks: &[usize]) -> Vec<f32> {
    let n: usize = extents.iter().product();
    let mut block: Vec<f32> = values.iter().copied().cycle().take(n).collect();
    for (&spot, &pick) in spots.iter().zip(picks.iter()) {
        block[spot % n] = SPECIALS[pick % SPECIALS.len()];
    }
    block
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Hostile values safe to splice into *weights* on the GEMM path: everything
/// in [`SPECIALS`] except the infinities. Padded taps reach the accumulator
/// as an explicit `+0.0·w` term, which is a bitwise no-op only for finite
/// `w` (`0·∞ = NaN`); trained networks are always finite, so the harness
/// matches the contract the kernel documents rather than demanding identity
/// on inputs no model can produce (see `crates/nn/src/gemm.rs`).
const FINITE_SPECIALS: [f32; 8] = [
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 4.0,
    0.0,
    -0.0,
    f32::MAX,
    -f32::MAX,
    3.0e38,
    -3.0e38,
];

/// The pre-GEMM `ConvNd` forward pass: the direct 7-deep loop with
/// skip-out-of-bounds padding, accumulating taps in `(ci, dk, hk, wk)`
/// order from the bias. The implicit-GEMM path must match this bitwise on
/// finite weights.
#[allow(clippy::too_many_arguments)]
fn conv_direct_reference(
    x: &[f32],
    n: usize,
    in_c: usize,
    out_c: usize,
    in_dhw: [usize; 3],
    kernel_dhw: [usize; 3],
    stride_dhw: [usize; 3],
    pad_dhw: [usize; 3],
    w: &[f32],
    b: &[f32],
) -> Vec<f32> {
    let [id_e, ih_e, iw_e] = in_dhw;
    let [kd, kh, kw] = kernel_dhw;
    let [sd, sh, sw] = stride_dhw;
    let [pd, ph, pw] = pad_dhw;
    let od_e = (id_e + 2 * pd - kd) / sd + 1;
    let oh_e = (ih_e + 2 * ph - kh) / sh + 1;
    let ow_e = (iw_e + 2 * pw - kw) / sw + 1;
    let k_elems = kd * kh * kw;
    let in_spatial = id_e * ih_e * iw_e;
    let out_spatial = od_e * oh_e * ow_e;
    let mut out = vec![0.0f32; n * out_c * out_spatial];
    for ni in 0..n {
        let x_n = &x[ni * in_c * in_spatial..(ni + 1) * in_c * in_spatial];
        let out_n = &mut out[ni * out_c * out_spatial..(ni + 1) * out_c * out_spatial];
        for co in 0..out_c {
            let w_co = &w[co * in_c * k_elems..(co + 1) * in_c * k_elems];
            for od in 0..od_e {
                for oh in 0..oh_e {
                    for ow in 0..ow_e {
                        let mut acc = b[co];
                        for ci in 0..in_c {
                            for dk in 0..kd {
                                let id = (od * sd + dk) as isize - pd as isize;
                                if id < 0 || id >= id_e as isize {
                                    continue;
                                }
                                for hk in 0..kh {
                                    let ih = (oh * sh + hk) as isize - ph as isize;
                                    if ih < 0 || ih >= ih_e as isize {
                                        continue;
                                    }
                                    for wk in 0..kw {
                                        let iw = (ow * sw + wk) as isize - pw as isize;
                                        if iw < 0 || iw >= iw_e as isize {
                                            continue;
                                        }
                                        let xi = ci * in_spatial
                                            + (id as usize * ih_e + ih as usize) * iw_e
                                            + iw as usize;
                                        let wi = ci * k_elems + (dk * kh + hk) * kw + wk;
                                        acc += x_n[xi] * w_co[wi];
                                    }
                                }
                            }
                        }
                        out_n[(co * od_e + od) * oh_e * ow_e + oh * ow_e + ow] = acc;
                    }
                }
            }
        }
    }
    out
}

/// The pre-GEMM `ConvNd::backward`: the direct 7-deep loop, skipping exact
/// zero output gradients and out-of-bounds taps. For each position with a
/// gradient `g` it adds `g` to the bias gradient and, per in-bounds tap,
/// `g·x` to the weight gradient and `g·w` to the input gradient, so every
/// sum runs in ascending `(n, co, position)` order. `gw` and `gb` accumulate
/// onto what they hold; the returned input gradient starts from zero. The
/// GEMM-lowered backward must match this bitwise on finite values.
#[allow(clippy::too_many_arguments)]
fn conv_backward_direct_reference(
    x: &[f32],
    go: &[f32],
    n: usize,
    in_c: usize,
    out_c: usize,
    in_dhw: [usize; 3],
    kernel_dhw: [usize; 3],
    stride_dhw: [usize; 3],
    pad_dhw: [usize; 3],
    w: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
) -> Vec<f32> {
    let [id_e, ih_e, iw_e] = in_dhw;
    let [kd, kh, kw] = kernel_dhw;
    let [pd, ph, pw] = pad_dhw.map(|p| p as isize);
    let [sd, sh, sw] = stride_dhw;
    let od_e = (id_e + 2 * pad_dhw[0] - kd) / sd + 1;
    let oh_e = (ih_e + 2 * pad_dhw[1] - kh) / sh + 1;
    let ow_e = (iw_e + 2 * pad_dhw[2] - kw) / sw + 1;
    let k_elems = kd * kh * kw;
    let mut gx = vec![0.0f32; x.len()];

    let in_sample = in_c * id_e * ih_e * iw_e;
    let out_sample = out_c * od_e * oh_e * ow_e;
    for n in 0..n {
        let x_n = &x[n * in_sample..(n + 1) * in_sample];
        let go_n = &go[n * out_sample..(n + 1) * out_sample];
        let gx_n = &mut gx[n * in_sample..(n + 1) * in_sample];
        for co in 0..out_c {
            let w_co = &w[co * in_c * k_elems..(co + 1) * in_c * k_elems];
            let gw_co = &mut gw[co * in_c * k_elems..(co + 1) * in_c * k_elems];
            for od in 0..od_e {
                for oh in 0..oh_e {
                    for ow in 0..ow_e {
                        let g = go_n[(co * od_e + od) * oh_e * ow_e + oh * ow_e + ow];
                        if g == 0.0 {
                            continue;
                        }
                        gb[co] += g;
                        for ci in 0..in_c {
                            let base_x = ci * id_e * ih_e * iw_e;
                            let base_w = ci * k_elems;
                            for dk in 0..kd {
                                let id = od as isize * sd as isize - pd + dk as isize;
                                if id < 0 || id >= id_e as isize {
                                    continue;
                                }
                                for hk in 0..kh {
                                    let ih = oh as isize * sh as isize - ph + hk as isize;
                                    if ih < 0 || ih >= ih_e as isize {
                                        continue;
                                    }
                                    for wk in 0..kw {
                                        let iw = ow as isize * sw as isize - pw + wk as isize;
                                        if iw < 0 || iw >= iw_e as isize {
                                            continue;
                                        }
                                        let xi = base_x
                                            + (id as usize * ih_e + ih as usize) * iw_e
                                            + iw as usize;
                                        let wi = base_w + (dk * kh + hk) * kw + wk;
                                        gw_co[wi] += g * x_n[xi];
                                        gx_n[xi] += g * w_co[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    gx
}

/// Overwrite `buf[spot % len]` with the finite hostile value `picks` names.
fn splice_finite(buf: &mut [f32], spots: &[usize], picks: &[usize]) {
    let len = buf.len();
    for (&spot, &pick) in spots.iter().zip(picks.iter()) {
        buf[spot % len] = FINITE_SPECIALS[pick % FINITE_SPECIALS.len()];
    }
}

proptest! {
    #[test]
    fn lorenzo_kernels_match_their_references(
        rank in 1usize..=3,
        a in 1usize..=5,
        b in 1usize..=5,
        c in 1usize..=5,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1024, 0..5),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..5),
        eb_exp in -6i32..0,
    ) {
        let extents = make_extents(rank, a, b, c);
        let data = make_block(&values, &extents, &spots, &picks);
        let quantizer = Quantizer::new(10f64.powi(eb_exp), 1 << 16);

        // Ideal predictions: fused scan vs. per-point coordinate walk.
        let mut preds = Vec::new();
        lorenzo::ideal_predictions_into(&data, &extents, &mut preds);
        let preds_ref = lorenzo::ideal_predictions_reference(&data, &extents);
        prop_assert_eq!(bits32(&preds), bits32(&preds_ref));

        // Fused l1 loss vs. the same f64 fold over the reference buffer.
        let loss = lorenzo::l1_loss(&data, &extents);
        let loss_ref: f64 = data
            .iter()
            .zip(preds_ref.iter())
            .map(|(&d, &p)| (d as f64 - p as f64).abs())
            .sum();
        prop_assert_eq!(loss.to_bits(), loss_ref.to_bits());

        // Compress: same codes, same escapes, same reconstruction bits.
        let (mut codes, mut unpred, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        lorenzo::compress_into(&data, &extents, &quantizer, &mut codes, &mut unpred, &mut recon);
        let (blk_ref, recon_ref) = lorenzo::compress_reference(&data, &extents, &quantizer);
        prop_assert_eq!(&codes, &blk_ref.codes);
        prop_assert_eq!(bits32(&unpred), bits32(&blk_ref.unpredictable));
        prop_assert_eq!(bits32(&recon), bits32(&recon_ref));

        // Decompress the block both ways.
        let mut out = Vec::new();
        lorenzo::decompress_into(&codes, &unpred, &extents, &quantizer, &mut out);
        let out_ref = lorenzo::decompress_reference(&blk_ref, &extents, &quantizer);
        prop_assert_eq!(bits32(&out), bits32(&out_ref));
    }

    #[test]
    fn mean_kernels_match_their_references(
        n in 1usize..=64,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1024, 0..5),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..5),
        eb_exp in -6i32..0,
    ) {
        let extents = [n];
        let data = make_block(&values, &extents, &spots, &picks);
        let quantizer = Quantizer::new(10f64.powi(eb_exp), 1 << 16);
        let mv = mean::block_mean(&data);

        let (mut codes, mut unpred, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        mean::compress_into(&data, mv, &quantizer, &mut codes, &mut unpred, &mut recon);
        let (blk_ref, recon_ref) = mean::compress_reference(&data, mv, &quantizer);
        prop_assert_eq!(&codes, &blk_ref.codes);
        prop_assert_eq!(bits32(&unpred), bits32(&blk_ref.unpredictable));
        prop_assert_eq!(bits32(&recon), bits32(&recon_ref));

        let mut out = Vec::new();
        mean::decompress_into(&codes, &unpred, mv, &quantizer, &mut out);
        let out_ref = mean::decompress_reference(&blk_ref, mv, &quantizer);
        prop_assert_eq!(bits32(&out), bits32(&out_ref));
    }

    #[test]
    fn regression_kernels_match_their_references(
        rank in 1usize..=3,
        a in 1usize..=5,
        b in 1usize..=5,
        c in 1usize..=5,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1024, 0..3),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..3),
        eb_exp in -6i32..0,
    ) {
        let extents = make_extents(rank, a, b, c);
        let data = make_block(&values, &extents, &spots, &picks);
        let quantizer = Quantizer::new(10f64.powi(eb_exp), 1 << 16);

        // Stack-array normal equations vs. dense design matrix.
        let fit = regression::fit(&data, &extents);
        let fit_ref = regression::fit_reference(&data, &extents);
        prop_assert_eq!(bits32(&fit.slopes), bits32(&fit_ref.slopes));
        prop_assert_eq!(fit.intercept.to_bits(), fit_ref.intercept.to_bits());

        // Fused fit-and-sum loss vs. the materialised-predictions fold.
        let loss = regression::l1_loss(&data, &extents);
        let loss_ref = regression::l1_loss_reference(&data, &extents);
        prop_assert_eq!(loss.to_bits(), loss_ref.to_bits());

        let (mut codes, mut unpred, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        let coeffs =
            regression::compress_into(&data, &extents, &quantizer, &mut codes, &mut unpred, &mut recon);
        let (coeffs_ref, blk_ref, recon_ref) =
            regression::compress_reference(&data, &extents, &quantizer);
        prop_assert_eq!(bits32(&coeffs.slopes), bits32(&coeffs_ref.slopes));
        prop_assert_eq!(coeffs.intercept.to_bits(), coeffs_ref.intercept.to_bits());
        prop_assert_eq!(&codes, &blk_ref.codes);
        prop_assert_eq!(bits32(&unpred), bits32(&blk_ref.unpredictable));
        prop_assert_eq!(bits32(&recon), bits32(&recon_ref));

        let mut out = Vec::new();
        regression::decompress_into(&coeffs, &codes, &unpred, &extents, &quantizer, &mut out);
        let out_ref = regression::decompress_reference(&coeffs_ref, &blk_ref, &extents, &quantizer);
        prop_assert_eq!(bits32(&out), bits32(&out_ref));
    }

    #[test]
    fn bitio_batched_and_scalar_paths_agree(
        words in proptest::collection::vec(0u64..u64::MAX, 1..48),
        widths in proptest::collection::vec(1usize..=57, 1..48),
    ) {
        // Pair each value with a width and mask it down so both writers see
        // identical in-range inputs.
        let items: Vec<(u64, u8)> = words
            .iter()
            .zip(widths.iter())
            .map(|(&w, &n)| (w & (u64::MAX >> (64 - n)), n as u8))
            .collect();

        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new();
        for &(v, n) in &items {
            fast.write_bits(v, n);
            slow.write_bits_reference(v, n);
        }
        prop_assert_eq!(fast.bit_len(), slow.bit_len());
        let bytes = fast.into_bytes();
        prop_assert_eq!(&bytes, &slow.into_bytes());

        // Read the stream back three ways: batched, scalar, peek+consume.
        let mut fast_r = BitReader::new(&bytes);
        let mut slow_r = BitReader::new(&bytes);
        let mut peek_r = BitReader::new(&bytes);
        for &(v, n) in &items {
            prop_assert_eq!(fast_r.read_bits(n), Some(v));
            prop_assert_eq!(slow_r.read_bits_reference(n), Some(v));
            let peeked = peek_r.peek_bits(n) & (u64::MAX >> (64 - n as u32));
            prop_assert_eq!(peeked, v);
            peek_r.consume(n);
        }
    }

    #[test]
    fn huffman_lut_decode_matches_the_walker(
        symbols in proptest::collection::vec(0u32..600, 0..512),
        skew in proptest::collection::vec(0u32..4, 0..512),
    ) {
        // Skew the alphabet: most streams are dominated by a few hot codes
        // (quantizer output is), which is what makes the LUT path fire.
        let symbols: Vec<u32> = symbols
            .iter()
            .zip(skew.iter().chain(std::iter::repeat(&0)))
            .map(|(&s, &k)| if k > 0 { s % 7 } else { s })
            .collect();

        let fast = huffman_encode(&symbols);
        let slow = huffman_encode_reference(&symbols);
        prop_assert_eq!(&fast, &slow);

        let dec = huffman_decode_capped(&fast, symbols.len());
        let dec_ref = huffman_decode_capped_reference(&fast, symbols.len());
        prop_assert_eq!(&dec, &dec_ref);
        prop_assert_eq!(dec, Some(symbols));
    }

    #[test]
    fn huffman_decoders_agree_on_hostile_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        cap in 0usize..512,
    ) {
        // On arbitrary (mostly invalid) bytes the two decoders must agree
        // exactly: same acceptance, same symbols, same rejection.
        prop_assert_eq!(
            huffman_decode_capped(&bytes, cap),
            huffman_decode_capped_reference(&bytes, cap)
        );
    }

    #[test]
    fn zlite_decoders_agree_on_round_trips_and_hostile_bytes(
        data in proptest::collection::vec(0u8..=255, 0..512),
        stutter in proptest::collection::vec(0usize..64, 0..8),
        flips in proptest::collection::vec(0usize..4096, 0..4),
    ) {
        // Make the input compressible (repeats at varying distances) so the
        // copy paths — overlapping and disjoint — actually run.
        let mut input = data.clone();
        for &s in &stutter {
            if !input.is_empty() {
                let from = s % input.len();
                let take = (s / 7 + 1).min(input.len() - from);
                let chunk: Vec<u8> = input[from..from + take].to_vec();
                input.extend_from_slice(&chunk);
            }
        }
        let packed = zlite_compress(&input);
        let out = zlite_decompress_capped(&packed, input.len());
        let out_ref = zlite_decompress_capped_reference(&packed, input.len());
        prop_assert_eq!(&out, &out_ref);
        prop_assert_eq!(out, Some(input));

        // Corrupt the stream; both decoders must still agree byte-for-byte.
        let mut bad = packed;
        for &f in &flips {
            if !bad.is_empty() {
                let at = f % bad.len();
                bad[at] ^= (f / 251 + 1) as u8;
            }
        }
        for cap in [0usize, 16, 4096] {
            prop_assert_eq!(
                zlite_decompress_capped(&bad, cap),
                zlite_decompress_capped_reference(&bad, cap)
            );
        }
    }

    #[test]
    fn gemm_kernels_match_their_references(
        m in 1usize..=9,
        k in 1usize..=9,
        p in 1usize..=40,
        slack in 0usize..=2,
        bias_kind in 0usize..=2,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1024, 0..6),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..6),
    ) {
        // A, B and the bias all get the full hostile set (±∞ included): both
        // kernels run identical per-element op sequences, so even NaN
        // payloads must agree bit for bit.
        let a = make_block(&values, &[m, k], &spots, &picks);
        let b = make_block(&values, &[k, p], &spots, &picks);
        let bias_buf = make_block(&values, &[m.max(p)], &spots, &picks);
        let bias = match bias_kind {
            0 => GemmBias::Zero,
            1 => GemmBias::Row(&bias_buf),
            _ => GemmBias::Col(&bias_buf),
        };
        // Sentinel-filled C with strided rows: the inter-row gaps must
        // survive both kernels untouched.
        let ldc = p + slack;
        let mut fast = vec![9.25f32; (m - 1) * ldc + p];
        let mut slow = fast.clone();
        gemm_into(&a, &b, bias, m, k, p, &mut fast, ldc, &mut Vec::new());
        gemm_reference(&a, &b, bias, m, k, p, &mut slow, ldc);
        prop_assert_eq!(bits32(&fast), bits32(&slow));
        // The accumulate entry on top of that product: every element is
        // seeded from what C holds, and A's rows sit at a stride of their
        // own, as the convolution backward hands it a run of dY.
        let lda = k + slack;
        let a_rows = make_block(&values, &[(m - 1) * lda + k], &spots, &picks);
        gemm_acc_into(&a_rows, lda, &b, m, k, p, &mut fast, ldc, &mut Vec::new());
        gemm_acc_reference(&a_rows, lda, &b, m, k, p, &mut slow, ldc);
        prop_assert_eq!(bits32(&fast), bits32(&slow));
        for (i, &v) in fast.iter().enumerate() {
            if i % ldc >= p {
                prop_assert_eq!(v.to_bits(), 9.25f32.to_bits());
            }
        }
    }

    #[test]
    fn conv_gemm_lowering_matches_the_direct_loop(
        rank in 2usize..=3,
        n in 1usize..=2,
        in_c in 1usize..=4,
        out_c in 1usize..=9,
        kernel_pick in 0usize..=1,
        stride in 1usize..=2,
        d in 1usize..=4,
        h in 1usize..=20,
        w in 1usize..=20,
        seed in 0u64..1024,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1024, 0..5),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..5),
        wspots in proptest::collection::vec(0usize..1024, 0..4),
        wpicks in proptest::collection::vec(0usize..FINITE_SPECIALS.len(), 0..4),
    ) {
        // End-to-end: ConvNd's implicit-GEMM inference path against the
        // pre-rewrite direct loop, on Kaiming weights spliced with finite
        // hostile values (the kernel's documented bit-identity domain —
        // inputs still carry the full set, infinities included). out_c up
        // to 9 and w up to 20 reach every row tile (8, 4, 2, 1) and every
        // column tile (up to 32 wide for single-channel layers) plus their
        // tails.
        let kernel = [1usize, 3][kernel_pick];
        let mut r = rng(seed);
        let mut conv = ConvNd::new(rank, in_c, out_c, kernel, stride, &mut r);
        {
            let mut params = conv.params_mut();
            splice_finite(params[0].value.as_mut_slice(), &wspots, &wpicks);
            let bv = params[1].value.as_mut_slice();
            for (i, bo) in bv.iter_mut().enumerate() {
                let v = values[i % values.len()];
                // Never −0.0: a padded tap's +0.0 term would flip it.
                *bo = if v == 0.0 { 0.25 } else { v };
            }
        }
        let weights: Vec<f32> = conv.params()[0].value.as_slice().to_vec();
        let biases: Vec<f32> = conv.params()[1].value.as_slice().to_vec();

        let (dd, kd, psd) = if rank == 2 { (1, 1, 1) } else { (d, kernel, stride) };
        let x = make_block(&values, &[n, in_c, dd, h, w], &spots, &picks);
        let shape = if rank == 2 {
            Shape::new(&[n, in_c, h, w])
        } else {
            Shape::new(&[n, in_c, dd, h, w])
        };
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let out_shape = conv.infer_into(&x, shape, &mut out, &mut scratch).expect("valid shape");

        let direct = conv_direct_reference(
            &x,
            n,
            in_c,
            out_c,
            [dd, h, w],
            [kd, kernel, kernel],
            [psd, stride, stride],
            [kd / 2, kernel / 2, kernel / 2],
            &weights,
            &biases,
        );
        prop_assert_eq!(out.len(), out_shape.len());
        prop_assert_eq!(bits32(&out), bits32(&direct));
    }

    #[test]
    fn conv_backward_matches_the_direct_loop(
        rank in 2usize..=3,
        n in 1usize..=3,
        in_c in 1usize..=9,
        out_c in 1usize..=9,
        kernel_pick in 0usize..=1,
        stride in 1usize..=2,
        d in 1usize..=5,
        h in 1usize..=20,
        w in 1usize..=20,
        seed in 0u64..1024,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1 << 16, 0..6),
        picks in proptest::collection::vec(0usize..FINITE_SPECIALS.len(), 0..6),
        zeros in proptest::collection::vec(0usize..1 << 16, 0..12),
    ) {
        // The GEMM-lowered backward against the direct loop it replaced:
        // Kaiming weights, inputs and output gradients all spliced with
        // finite hostile values (the documented bit-identity domain: a
        // skipped term the GEMM adds is a ±0 product only while both
        // factors are finite), plus exact +0/−0 output gradients, the
        // positions the loop skips. Two calls: the second accumulates dW
        // and db onto the first call's nonzero gradients. out_c and in_c up
        // to 9 cross the 8/4/2/1 row tiles of dW and dX; w up to 20 with
        // stride 2 crosses the column tails and the stuffed zeros.
        let kernel = [1usize, 3][kernel_pick];
        let (dd, kd, sd) = if rank == 2 { (1, 1, 1) } else { (d, kernel, stride) };
        let mut conv = ConvNd::new(rank, in_c, out_c, kernel, stride, &mut rng(seed));
        splice_finite(conv.params_mut()[0].value.as_mut_slice(), &spots, &picks);
        let weights = conv.params()[0].value.as_slice().to_vec();

        let dims = if rank == 2 { vec![n, in_c, h, w] } else { vec![n, in_c, dd, h, w] };
        let mut x = make_block(&values, &dims, &[], &[]);
        splice_finite(&mut x, &spots, &picks);
        let x = Tensor::from_vec(&dims, x).expect("input shape");
        let out_shape = conv.try_forward(&x).expect("valid shape").shape().to_vec();
        let out_len: usize = out_shape.iter().product();
        let grad = |phase: usize| {
            let mut g: Vec<f32> = (0..out_len)
                .map(|i| values[(i * 7 + phase) % values.len()] * 0.5)
                .collect();
            let shifted: Vec<usize> = spots.iter().map(|&s| s + 31 * phase).collect();
            splice_finite(&mut g, &shifted, &picks);
            for (j, &z) in zeros.iter().enumerate() {
                g[(z + phase) % out_len] = if j % 2 == 0 { 0.0 } else { -0.0 };
            }
            g
        };

        let (mut gw, mut gb) = (vec![0.0f32; weights.len()], vec![0.0f32; out_c]);
        for phase in 0..2 {
            let dy = grad(phase);
            let gx = conv.backward(&Tensor::from_vec(&out_shape, dy.clone()).expect("shape"));
            let gx_ref = conv_backward_direct_reference(
                x.as_slice(),
                &dy,
                n,
                in_c,
                out_c,
                [dd, h, w],
                [kd, kernel, kernel],
                [sd, stride, stride],
                [kd / 2, kernel / 2, kernel / 2],
                &weights,
                &mut gw,
                &mut gb,
            );
            let params = conv.params();
            prop_assert_eq!(bits32(gx.as_slice()), bits32(&gx_ref));
            prop_assert_eq!(bits32(params[0].grad.as_slice()), bits32(&gw));
            prop_assert_eq!(bits32(params[1].grad.as_slice()), bits32(&gb));
        }
    }
}

proptest! {
    #[test]
    fn gdn_kernels_match_their_references(
        rank in 2usize..=3,
        n in 1usize..=2,
        channels in 1usize..=40,
        inverse_pick in 0usize..=1,
        d in 1usize..=3,
        h in 1usize..=3,
        w in 1usize..=70,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1 << 16, 0..6),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..6),
        pspots in proptest::collection::vec(0usize..1 << 12, 0..6),
        ppicks in proptest::collection::vec(0usize..FINITE_SPECIALS.len(), 0..6),
    ) {
        // Spatial lengths d·h·w up to 630 cross every `len % 64` tail of the
        // position tiles (w alone sweeps 1–70), and 40 channels make a
        // squares tile far wider than any register file. Raw β/γ come from
        // the random values scaled to ±1 and spliced with finite hostile
        // values, whose squares overflow to +∞ or flush to zero; inputs
        // carry the full hostile set, infinities included.
        let inverse = inverse_pick == 1;
        let dd = if rank == 2 { 1 } else { d };
        let mut gdn = Gdn::new(rank, channels, inverse);
        for (p, param) in gdn.params_mut().into_iter().enumerate() {
            let raw = param.value.as_mut_slice();
            for (i, r) in raw.iter_mut().enumerate() {
                *r = values[(i + p) % values.len()] * 0.01;
            }
            splice_finite(raw, &pspots, &ppicks);
        }
        let x = make_block(&values, &[n, channels, dd, h, w], &spots, &picks);
        let shape = if rank == 2 {
            Shape::new(&[n, channels, h, w])
        } else {
            Shape::new(&[n, channels, dd, h, w])
        };
        // Sentinel-filled output: a lane the tiles never store shows up.
        let mut out = vec![9.25f32; x.len()];
        gdn.infer_into(&x, shape, &mut out, &mut NnScratch::new()).expect("valid shape");
        let params = gdn.params();
        let expect = gdn_reference(
            &x,
            (n, channels, dd * h * w),
            params[0].value.as_slice(),
            params[1].value.as_slice(),
            inverse,
        );
        prop_assert_eq!(bits32(&out), bits32(&expect));
    }

    #[test]
    fn upsample_kernels_match_their_references(
        rank in 2usize..=3,
        n in 1usize..=2,
        channels in 1usize..=40,
        factor in 1usize..=3,
        d in 1usize..=3,
        h in 1usize..=5,
        w in 1usize..=9,
        values in proptest::collection::vec(-100.0f32..100.0, 16..64),
        spots in proptest::collection::vec(0usize..1 << 16, 0..6),
        picks in proptest::collection::vec(0usize..SPECIALS.len(), 0..6),
    ) {
        // Pure data movement, so the hostile values only have to arrive
        // with their bits intact; odd edges and factors 1–3 exercise every
        // row expansion, row copy and (3D) plane copy.
        let dims = if rank == 2 {
            vec![n, channels, h, w]
        } else {
            vec![n, channels, d, h, w]
        };
        let x = make_block(&values, &dims, &spots, &picks);
        let expect = upsample_reference(&x, &dims, rank, factor);
        let mut out = vec![9.25f32; expect.len()];
        let out_shape = Upsample::new(rank, factor)
            .infer_into(&x, Shape::new(&dims), &mut out, &mut NnScratch::new())
            .expect("valid shape");
        prop_assert_eq!(out_shape.len(), out.len());
        prop_assert_eq!(bits32(&out), bits32(&expect));
    }
}

/// The convolutions of one production autoencoder, exactly as
/// `ConvAutoencoder::new` stacks them: `(in_c, out_c, edge, stride)`.
fn production_convs(block: usize, channels: &[usize]) -> Vec<(usize, usize, usize, usize)> {
    let mut convs = Vec::new();
    let (mut edge, mut in_c) = (block, 1usize);
    for &c in channels {
        convs.push((in_c, c, edge, 1));
        convs.push((c, c, edge, 2));
        edge /= 2;
        in_c = c;
    }
    for &c in channels.iter().rev() {
        edge *= 2; // after the decoder's Upsample
        convs.push((in_c, c, edge, 1));
        in_c = c;
    }
    convs.push((in_c, 1, edge, 1));
    convs
}

/// Deterministic lock on the geometries that run in production — AE-B
/// (3D 16³, channels [8, 8]), AE-SZ 2D (32², [8, 16]) and AE-SZ 3D (8³,
/// [8, 16]) — every encoder and decoder convolution against the direct loop
/// on a two-sample batch.
#[test]
fn production_conv_geometries_match_the_direct_loop() {
    for (rank, block, channels) in [
        (3usize, 16usize, [8usize, 8]),
        (2, 32, [8, 16]),
        (3, 8, [8, 16]),
    ] {
        for (i, (in_c, out_c, edge, stride)) in
            production_convs(block, &channels).into_iter().enumerate()
        {
            let mut r = rng(100 + i as u64);
            let mut conv = ConvNd::new(rank, in_c, out_c, 3, stride, &mut r);
            for (j, b) in conv.params_mut()[1]
                .value
                .as_mut_slice()
                .iter_mut()
                .enumerate()
            {
                *b = 0.125 * (j as f32 + 1.0);
            }
            let weights = conv.params()[0].value.as_slice().to_vec();
            let biases = conv.params()[1].value.as_slice().to_vec();
            let dd = if rank == 2 { 1 } else { edge };
            let x: Vec<f32> = (0..2 * in_c * dd * edge * edge)
                .map(|v| (v as f32 * 0.37).sin())
                .collect();
            let shape = if rank == 2 {
                Shape::new(&[2, in_c, edge, edge])
            } else {
                Shape::new(&[2, in_c, edge, edge, edge])
            };
            let mut out = Vec::new();
            conv.infer_into(&x, shape, &mut out, &mut NnScratch::new())
                .expect("valid shape");
            let (kd, sd) = if rank == 2 { (1, 1) } else { (3, stride) };
            let direct = conv_direct_reference(
                &x,
                2,
                in_c,
                out_c,
                [dd, edge, edge],
                [kd, 3, 3],
                [sd, stride, stride],
                [kd / 2, 1, 1],
                &weights,
                &biases,
            );
            assert_eq!(
                bits32(&out),
                bits32(&direct),
                "rank {rank} block {block} conv {i}: {in_c}->{out_c} at {edge}, stride {stride}"
            );
        }
    }
}

/// The backward of every production convolution (same three models as
/// above) against the direct loop: a two-sample batch, an output gradient
/// with exact zeros, and two calls so the second accumulates.
#[test]
fn production_conv_backward_matches_the_direct_loop() {
    for (rank, block, channels) in [
        (3usize, 16usize, [8usize, 8]),
        (2, 32, [8, 16]),
        (3, 8, [8, 16]),
    ] {
        for (i, (in_c, out_c, edge, stride)) in
            production_convs(block, &channels).into_iter().enumerate()
        {
            let mut conv = ConvNd::new(rank, in_c, out_c, 3, stride, &mut rng(200 + i as u64));
            let weights = conv.params()[0].value.as_slice().to_vec();
            let dd = if rank == 2 { 1 } else { edge };
            let dims = if rank == 2 {
                vec![2, in_c, edge, edge]
            } else {
                vec![2, in_c, edge, edge, edge]
            };
            let x: Vec<f32> = (0..dims.iter().product::<usize>())
                .map(|v| (v as f32 * 0.37).sin())
                .collect();
            let x = Tensor::from_vec(&dims, x).expect("input shape");
            let out_shape = conv.forward(&x).shape().to_vec();
            let (kd, sd) = if rank == 2 { (1, 1) } else { (3, stride) };
            let (mut gw, mut gb) = (vec![0.0f32; weights.len()], vec![0.0f32; out_c]);
            for call in 0..2 {
                let dy: Vec<f32> = (0..out_shape.iter().product::<usize>())
                    .map(|v| match (v + call) % 13 {
                        0 => 0.0,
                        _ => (v as f32 * 0.61 + call as f32).cos(),
                    })
                    .collect();
                let gx = conv.backward(&Tensor::from_vec(&out_shape, dy.clone()).expect("shape"));
                let gx_ref = conv_backward_direct_reference(
                    x.as_slice(),
                    &dy,
                    2,
                    in_c,
                    out_c,
                    [dd, edge, edge],
                    [kd, 3, 3],
                    [sd, stride, stride],
                    [kd / 2, 1, 1],
                    &weights,
                    &mut gw,
                    &mut gb,
                );
                let what = format!(
                    "rank {rank} block {block} conv {i}: {in_c}->{out_c} at {edge}, stride {stride}, call {call}"
                );
                let params = conv.params();
                assert_eq!(bits32(gx.as_slice()), bits32(&gx_ref), "dX of {what}");
                assert_eq!(
                    bits32(params[0].grad.as_slice()),
                    bits32(&gw),
                    "dW of {what}"
                );
                assert_eq!(
                    bits32(params[1].grad.as_slice()),
                    bits32(&gb),
                    "db of {what}"
                );
            }
        }
    }
}

/// Deterministic lock on the GDN/iGDN and Upsample layers as they run in
/// production — AE-B (3D 16³, channels [8, 8]), AE-SZ 2D (32², [8, 16]) and
/// AE-SZ 3D (8³, [8, 16]): a two-sample batch walks each model's encoder and
/// decoder, and every GDN, iGDN and Upsample output is checked against its
/// reference twin on the very input the stack hands it.
#[test]
fn production_gdn_and_upsample_layers_match_their_references() {
    for (rank, block, channels) in [
        (3usize, 16usize, [8usize, 8]),
        (2, 32, [8, 16]),
        (3, 8, [8, 16]),
    ] {
        let latent_dim = 16;
        let mut model = ConvAutoencoder::new(AeConfig {
            spatial_rank: rank,
            block_size: block,
            latent_dim,
            channels: channels.to_vec(),
            variational: false,
            seed: 11,
        });
        // Fresh γ is one value off the diagonal; spread every parameter so
        // each γ_{c,j}·x_j² term differs.
        for param in model.params_mut() {
            for (k, v) in param.value.as_mut_slice().iter_mut().enumerate() {
                *v *= 1.0 + 0.03 * (k % 11) as f32;
            }
        }
        let batch = 2;
        let blocks: Vec<f32> = (0..batch * model.config().block_len())
            .map(|v| (v as f32 * 0.37).sin())
            .collect();
        let latents: Vec<f32> = (0..batch * latent_dim)
            .map(|v| 3.0 * (v as f32 * 0.61).cos())
            .collect();
        let stacks = [
            (
                model.encoder_layers(),
                blocks,
                Shape::new(&model.input_shape(batch)),
            ),
            (
                model.decoder_layers(),
                latents,
                Shape::new(&[batch, latent_dim]),
            ),
        ];
        let mut scratch = NnScratch::new();
        let mut checked = 0;
        for (stack, mut cur, mut shape) in stacks {
            for (i, layer) in stack.layers().iter().enumerate() {
                let mut out = Vec::new();
                let out_shape = layer
                    .infer_into(&cur, shape, &mut out, &mut scratch)
                    .expect("valid shape");
                let dims = shape.dims();
                let expect = match layer.name() {
                    name @ ("GDN" | "iGDN") => {
                        let params = layer.params();
                        Some(gdn_reference(
                            &cur,
                            (dims[0], dims[1], dims[2..].iter().product()),
                            params[0].value.as_slice(),
                            params[1].value.as_slice(),
                            name == "iGDN",
                        ))
                    }
                    "Upsample" => Some(upsample_reference(&cur, dims, rank, 2)),
                    _ => None,
                };
                if let Some(expect) = expect {
                    assert_eq!(
                        bits32(&out),
                        bits32(&expect),
                        "rank {rank} block {block} layer {i}:{} on {dims:?}",
                        layer.name()
                    );
                    checked += 1;
                }
                cur = out;
                shape = out_shape;
            }
        }
        // One GDN per encoder stage, one Upsample and one iGDN per decoder
        // stage.
        assert_eq!(checked, 3 * channels.len(), "rank {rank} block {block}");
    }
}

/// Whole-stream lock: every codec (learned ones included) must be
/// deterministic — two independent forks compressing the same field under
/// the same bound emit byte-identical streams, under both `ErrorBound`
/// modes. Combined with `golden_streams.rs` (which pins the traditional
/// codecs' bytes to committed pre-rewrite fixtures), this extends the
/// bit-identity contract from kernels to full streams for all seven codecs.
#[test]
fn all_seven_codecs_emit_bit_identical_streams_across_forks() {
    let registry = common::trained_registry();
    for codec in CodecId::all() {
        let field = common::test_field(codec);
        for bound in [ErrorBound::Abs(1e-3), ErrorBound::RangeRel(1e-3)] {
            let one = registry
                .fork(codec)
                .expect("codec registered")
                .compress(&field, bound)
                .expect("compress");
            let two = registry
                .fork(codec)
                .expect("codec registered")
                .compress(&field, bound)
                .expect("compress");
            assert_eq!(
                one, two,
                "{codec:?} under {bound:?} is not run-to-run deterministic"
            );
            // And the stream its own fork emitted must decode.
            let (recon, id) = registry.decompress_any(&one).expect("stream decodes");
            assert_eq!(id, codec);
            assert_eq!(recon.dims(), field.dims());
        }
    }
}
