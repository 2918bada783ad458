//! Register-blocked f32 GEMM micro-kernel with a pinned accumulation order —
//! the single matrix engine behind every inference-path layer and the
//! convolution backward.
//!
//! `C[i][j] = seed ⊕ Σ_k A[i][k]·B_k[j]`: the seed is a per-row bias
//! (convolution), a per-column bias (dense), zero (the convolution's input
//! gradient) or, through the accumulate entry [`gemm_acc_into`], what `C`
//! already holds (the convolution's weight gradient), and row `k` of `B` is
//! any contiguous run the caller names by a tap offset — `k·p` for a dense
//! multiply ([`gemm_into`]), a tap table into a zero-padded, phase-split
//! sample for the implicit-GEMM convolution ([`crate::im2col`]). `A` is
//! packed MR-interleaved (`pack_a`); `MR×NR` tiles of `C` (up to 8 output
//! channels by 8 positions, widening to 32 positions as `MR` shrinks) stay
//! in registers across the whole `k` loop, and tails reuse the same generic
//! kernel at the next power-of-two size.
//!
//! **Bit-identity by construction**: every element starts from its seed and
//! adds `A[i][k]·B_k[j]` in ascending `k`, the order of the direct loops
//! this engine replaced. Tiling only changes which independent elements
//! share a pass; Rust never contracts `a*b + c` into an FMA nor reassociates
//! float sums, so the kernel equals its scalar twin [`gemm_reference`]
//! bitwise on every input (`tests/kernel_differential.rs`).
//!
//! One caveat for callers that lower padding (or the backward's skipped
//! terms) to explicit zero terms: a `±0·w` term is a bitwise no-op only
//! while `w` is finite and the accumulator is not exactly `-0.0`. Trained
//! and initialised networks satisfy both (biases and gradients are born
//! `+0.0`; round-to-nearest sums cannot produce `-0.0` from them); a
//! hand-crafted hostile model file may not, and gets a well-defined — just
//! different — reconstruction.

/// How each output element's accumulator is seeded before the `k` loop.
#[derive(Clone, Copy, Debug)]
pub enum GemmBias<'a> {
    /// Row `m` of `C` starts at `bias[m]` — one bias per output channel, the
    /// convolution layout.
    Row(&'a [f32]),
    /// Every row of `C` starts as a copy of `bias[..p]` — one bias per output
    /// feature, the dense layout.
    Col(&'a [f32]),
    /// Accumulate from `0.0`.
    Zero,
}

/// Largest power of two `<= min(rest, max)`: the tile edge covering the
/// next `rest >= 1` rows or columns.
fn tile_edge(rest: usize, max: usize) -> usize {
    1 << rest.min(max).ilog2()
}

/// Row-tile height: 8 rows of 8 lanes are eight AVX2 accumulators, half the
/// register file.
const MR_MAX: usize = 8;

/// Column-tile width for an `mr`-row tile: wide enough for four 8-lane
/// accumulators, the independent add chains that hide the add latency.
fn nr_max(mr: usize) -> usize {
    (32 / mr).max(8)
}

/// Pack `A: (m, k)`, rows at stride `lda`, MR-interleaved: the row block
/// `i0..i0+mr` of each tile height starts at `i0·k` and holds
/// `A[i0..i0+mr][kk]` for each `kk` in turn, one `mr`-wide chunk per kernel
/// step.
pub(crate) fn pack_a(a: &[f32], m: usize, k: usize, lda: usize, packed: &mut Vec<f32>) {
    assert!(lda >= k, "row stride {lda} shorter than row length {k}");
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "A too small");
    }
    packed.clear();
    let mut i0 = 0usize;
    while i0 < m {
        let mr = tile_edge(m - i0, MR_MAX);
        for kk in 0..k {
            packed.extend((i0..i0 + mr).map(|i| a[i * lda + kk]));
        }
        i0 += mr;
    }
}

/// The `NR`-wide seed of one `MR`-row tile at `(i0, j0)`.
fn seed<const MR: usize, const NR: usize>(
    bias: GemmBias,
    (i0, j0): (usize, usize),
) -> [[f32; NR]; MR] {
    std::array::from_fn(|r| match bias {
        GemmBias::Row(bs) => [bs[i0 + r]; NR],
        GemmBias::Col(bs) => std::array::from_fn(|j| bs[j0 + j]),
        GemmBias::Zero => [0.0; NR],
    })
}

/// The micro-kernel for one row-tile height `$mr`: accumulate
/// `seed + Σ_kk a[kk][r]·b[tap(kk) + j]` in ascending `kk`, then store row
/// `r` at `c[r·ldc..][..NR]`. Rows are unrolled in the source and each
/// instance is out of line so the accumulators stay in registers; a rolled
/// `0..MR` loop runs from the stack under LTO at a tenth of the speed.
macro_rules! tile_fn {
    ($name:ident, $mr:literal, [$($r:literal),*]) => {
        #[inline(never)]
        fn $name<const NR: usize>(
            a: &[f32],
            b: &[f32],
            tap: impl Fn(usize) -> usize,
            seed: [[f32; NR]; $mr],
            c: &mut [f32],
            ldc: usize,
        ) {
            let mut acc = seed; // a private local, so it is promoted to registers
            for (kk, av) in a.chunks_exact($mr).enumerate() {
                let s = tap(kk);
                let bv: [f32; NR] = b[s..s + NR].try_into().expect("NR-wide run");
                $(
                    let ar = av[$r];
                    for j in 0..NR {
                        acc[$r][j] += ar * bv[j];
                    }
                )*
            }
            $(c[$r * ldc..][..NR].copy_from_slice(&acc[$r]);)*
        }
    };
}
tile_fn!(tile8, 8, [0, 1, 2, 3, 4, 5, 6, 7]);
tile_fn!(tile4, 4, [0, 1, 2, 3]);
tile_fn!(tile2, 2, [0, 1]);
tile_fn!(tile1, 1, [0]);

/// The engine: `C[i][j] = bias ⊕ Σ_kk A[i][kk]·b[tap(kk) + j]` for `i < m`,
/// `j < p`, with `A` [`pack_a`]-packed and `C` rows at stride `ldc`; every
/// run `b[tap(kk)..][..p]` must be in bounds.
#[allow(clippy::too_many_arguments)] // the BLAS sgemm-style signature
pub(crate) fn gemm_packed(
    a_packed: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    tap: impl Fn(usize) -> usize + Copy,
    p: usize,
    bias: GemmBias,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(ldc >= p, "row stride {ldc} shorter than row length {p}");
    assert!(a_packed.len() >= m * k, "packed A too small");
    if m > 0 {
        assert!(c.len() >= (m - 1) * ldc + p, "C too small");
    }
    let mut i0 = 0usize;
    while i0 < m {
        let mr = tile_edge(m - i0, MR_MAX);
        let a = &a_packed[i0 * k..(i0 + mr) * k];
        let mut j0 = 0usize;
        while j0 < p {
            let nr = tile_edge(p - j0, nr_max(mr));
            let (at, b, c) = ((i0, j0), &b[j0..], &mut c[i0 * ldc + j0..]);
            macro_rules! cols {
                ($tile:ident, $mr:literal, [$($nr:literal),*]) => {
                    match nr {
                        $($nr => $tile::<$nr>(a, b, tap, seed::<$mr, $nr>(bias, at), c, ldc),)*
                        _ => $tile::<1>(a, b, tap, seed::<$mr, 1>(bias, at), c, ldc),
                    }
                };
            }
            match mr {
                8 => cols!(tile8, 8, [8, 4, 2]),
                4 => cols!(tile4, 4, [8, 4, 2]),
                2 => cols!(tile2, 2, [16, 8, 4, 2]),
                _ => cols!(tile1, 1, [32, 16, 8, 4, 2]),
            }
            j0 += nr;
        }
        i0 += mr;
    }
}

/// `C = bias ⊕ A·B` with `A: (m, k)` and `B: (k, p)` row-major and `C` rows
/// at stride `ldc`: `pack_a` into the caller-owned `pack`, then the engine
/// with tap offsets `kk·p`. Element `(im, ip)` computes
/// `bias ⊕ A[im][0]·B[0][ip] ⊕ A[im][1]·B[1][ip] ⊕ …` in exactly that order.
#[allow(clippy::too_many_arguments)] // the BLAS sgemm-style signature
pub fn gemm_into(
    a: &[f32],
    b: &[f32],
    bias: GemmBias,
    m: usize,
    k: usize,
    p: usize,
    c: &mut [f32],
    ldc: usize,
    pack: &mut Vec<f32>,
) {
    assert!(b.len() >= k * p, "B too small");
    pack_a(a, m, k, k, pack);
    gemm_packed(pack, m, k, b, |kk| kk * p, p, bias, c, ldc);
}

/// The tile's running sums as `C` holds them: the seed of the accumulate
/// entry.
fn loaded<const MR: usize, const NR: usize>(c: &[f32], ldc: usize) -> [[f32; NR]; MR] {
    std::array::from_fn(|r| c[r * ldc..][..NR].try_into().expect("NR-wide run"))
}

/// The accumulate entry, `C += A·B`: `A: (m, k)` with rows at stride `lda`,
/// `B: (k, p)` row-major and `C` rows at stride `ldc`. Element `(im, ip)`
/// computes `C[im][ip] ⊕ A[im][0]·B[0][ip] ⊕ A[im][1]·B[1][ip] ⊕ …` in
/// exactly that order, so splitting `k` into consecutive calls adds the
/// same terms in the same order as one call. It walks the same tiles and
/// micro-kernels as the inference entries, seeding each tile from `C`
/// itself; it is a sibling entry rather than a fourth [`GemmBias`] so the
/// inference path's instances stay exactly as they are.
#[allow(clippy::too_many_arguments)] // the BLAS sgemm-style signature
pub fn gemm_acc_into(
    a: &[f32],
    lda: usize,
    b: &[f32],
    m: usize,
    k: usize,
    p: usize,
    c: &mut [f32],
    ldc: usize,
    pack: &mut Vec<f32>,
) {
    assert!(b.len() >= k * p, "B too small");
    assert!(ldc >= p, "row stride {ldc} shorter than row length {p}");
    if m > 0 {
        assert!(c.len() >= (m - 1) * ldc + p, "C too small");
    }
    pack_a(a, m, k, lda, pack);
    let tap = |kk: usize| kk * p;
    let mut i0 = 0usize;
    while i0 < m {
        let mr = tile_edge(m - i0, MR_MAX);
        let a = &pack[i0 * k..(i0 + mr) * k];
        let mut j0 = 0usize;
        while j0 < p {
            let nr = tile_edge(p - j0, nr_max(mr));
            let (b, c) = (&b[j0..], &mut c[i0 * ldc + j0..]);
            macro_rules! cols {
                ($tile:ident, $mr:literal, [$($nr:literal),*]) => {
                    match nr {
                        $($nr => $tile::<$nr>(a, b, tap, loaded::<$mr, $nr>(c, ldc), c, ldc),)*
                        _ => $tile::<1>(a, b, tap, loaded::<$mr, 1>(c, ldc), c, ldc),
                    }
                };
            }
            match mr {
                8 => cols!(tile8, 8, [8, 4, 2]),
                4 => cols!(tile4, 4, [8, 4, 2]),
                2 => cols!(tile2, 2, [16, 8, 4, 2]),
                _ => cols!(tile1, 1, [32, 16, 8, 4, 2]),
            }
            j0 += nr;
        }
        i0 += mr;
    }
}

/// Scalar reference twin of [`gemm_into`]: the naive per-element triple loop
/// in the pinned order. The differential harness demands bitwise equality
/// between the two on every input.
#[allow(clippy::too_many_arguments)] // mirrors `gemm_into`
pub fn gemm_reference(
    a: &[f32],
    b: &[f32],
    bias: GemmBias,
    m: usize,
    k: usize,
    p: usize,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(ldc >= p, "row stride {ldc} shorter than row length {p}");
    for im in 0..m {
        for ip in 0..p {
            let mut acc = match bias {
                GemmBias::Row(bs) => bs[im],
                GemmBias::Col(bs) => bs[ip],
                GemmBias::Zero => 0.0,
            };
            for ik in 0..k {
                acc += a[im * k + ik] * b[ik * p + ip];
            }
            c[im * ldc + ip] = acc;
        }
    }
}

/// Scalar reference twin of [`gemm_acc_into`]: the same triple loop, each
/// element seeded from `C`.
#[allow(clippy::too_many_arguments)] // mirrors `gemm_acc_into`
pub fn gemm_acc_reference(
    a: &[f32],
    lda: usize,
    b: &[f32],
    m: usize,
    k: usize,
    p: usize,
    c: &mut [f32],
    ldc: usize,
) {
    for im in 0..m {
        for ip in 0..p {
            let mut acc = c[im * ldc + ip];
            for ik in 0..k {
                acc += a[im * lda + ik] * b[ik * p + ip];
            }
            c[im * ldc + ip] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_reference_on_a_small_case() {
        let a = [1.0f32, 2.0, 3.0, -4.0, 0.5, 0.25];
        let b = [1.0f32, -1.0, 2.0, 0.5, 3.0, -0.5];
        let bias = [0.125f32, -0.5];
        let mut fast = [0.0f32; 4];
        let mut slow = [0.0f32; 4];
        gemm_into(
            &a,
            &b,
            GemmBias::Row(&bias),
            2,
            3,
            2,
            &mut fast,
            2,
            &mut Vec::new(),
        );
        gemm_reference(&a, &b, GemmBias::Row(&bias), 2, 3, 2, &mut slow, 2);
        assert_eq!(bits(&fast), bits(&slow));
        // m=0: first row = 0.125 + 1·1 + 2·2 + 3·3 = 14.125
        assert_eq!(fast[0], 14.125);
    }

    #[test]
    fn col_bias_seeds_every_row() {
        let a = [0.0f32; 6]; // 2x3 of zeros
        let b = [0.0f32; 6]; // 3x2 of zeros
        let bias = [7.0f32, -3.0];
        let mut c = [0.0f32; 4];
        gemm_into(
            &a,
            &b,
            GemmBias::Col(&bias),
            2,
            3,
            2,
            &mut c,
            2,
            &mut Vec::new(),
        );
        assert_eq!(c, [7.0, -3.0, 7.0, -3.0]);
    }

    #[test]
    fn strided_c_rows_leave_the_gap_untouched() {
        let a = [1.0f32, 1.5];
        let b = [2.0f32];
        let mut c = [9.0f32; 6]; // 2 rows of p=1 at stride 3
        gemm_into(&a, &b, GemmBias::Zero, 2, 1, 1, &mut c, 3, &mut Vec::new());
        assert_eq!(c, [2.0, 9.0, 9.0, 3.0, 9.0, 9.0]);
    }

    #[test]
    fn k_remainder_paths_agree_with_reference() {
        // Every tile edge on both axes (m, p up to 9 cross the 8/4/2/1
        // tails), against a spread of k.
        for k in 1..9usize {
            for (m, p) in [(2usize, 3usize), (9, 9), (5, 13), (8, 16), (1, 7)] {
                let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..k * p).map(|i| (i as f32 * 0.71).cos()).collect();
                let bias: Vec<f32> = (0..m).map(|i| 0.1 * i as f32 + 0.1).collect();
                let mut fast = vec![0.0f32; m * p];
                let mut slow = vec![0.0f32; m * p];
                gemm_into(
                    &a,
                    &b,
                    GemmBias::Row(&bias),
                    m,
                    k,
                    p,
                    &mut fast,
                    p,
                    &mut Vec::new(),
                );
                gemm_reference(&a, &b, GemmBias::Row(&bias), m, k, p, &mut slow, p);
                assert_eq!(bits(&fast), bits(&slow), "m={m} k={k} p={p}");
            }
        }
    }
}
