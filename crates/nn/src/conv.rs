//! N-dimensional convolution layers (2D and 3D spatial).
//!
//! The AE-SZ encoder stacks `Conv(stride 1) → Conv(stride 2) → GDN` blocks;
//! the decoder mirrors them with upsampling + convolution (see
//! [`crate::upsample`]). Kernels are 3×3 (2D) or 3×3×3 (3D) as in the paper.
//! Internally every input is treated as 5-D `(N, C, D, H, W)` with `D = 1`
//! for 2D data, so a single implementation covers both ranks.
//!
//! Padding is always `k/2` ("same"), so stride-1 convolutions preserve the
//! spatial size and stride-2 convolutions halve it (for even sizes).
//!
//! Forward and backward both run on the [`crate::gemm`] engine, each in the
//! order of the direct 7-deep loop it replaced, so every output and every
//! gradient is bit-identical to that loop (`tests/kernel_differential.rs`
//! holds both directions against their scalar twins):
//!
//! * forward: per output element, the bias, then the taps in ascending
//!   `(ci, dk, hk, wk)`;
//! * `dW[co][k]`: the gradient already accumulated, then one term per
//!   sample and output position, in ascending `(n, position)`;
//! * `dX[n][ci][i]`: from `0.0`, one term per `(co, position)` ascending,
//!   which in a stride-1 convolution of the stride-stuffed `dY` with the
//!   flipped kernel is ascending `(co, flipped tap)`;
//! * `db[co]`: its own loop over `(n, position)`, skipping exact zeros.
//!
//! The GEMM forms add terms the direct loops skip — padded taps, the zeros
//! stuffed between strided positions, positions whose gradient is `0` —
//! and each such term is a `±0` product. Adding `±0` changes no finite
//! accumulator unless it is exactly `-0.0`, and none is: forward sums start
//! from a `+0.0`-born bias, gradient sums from `+0.0`, and round-to-nearest
//! addition yields `-0.0` only from two `-0.0` operands. So the identity
//! holds while weights, inputs and output gradients are finite (`0·∞` is
//! NaN); training never leaves that domain.

use crate::gemm::{gemm_acc_into, gemm_packed, pack_a, GemmBias};
use crate::im2col::{
    pad_sample_into, stuff_sample_into, tap_offsets_into, unfold_rows_into, ConvGeom,
};
use crate::infer::{NnScratch, Shape};
use crate::layer::{infer_tensor, Layer, NnError, Param};
use aesz_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// Convolution over 2 or 3 spatial dimensions with cubic kernels.
#[derive(Clone)]
pub struct ConvNd {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    spatial_rank: usize,
    cached_input: Option<Tensor>,
}

/// Shape of an activation viewed as (N, C, D, H, W) with D=1 for 2D data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Act5 {
    pub n: usize,
    pub c: usize,
    pub d: usize,
    pub h: usize,
    pub w: usize,
}

impl Act5 {
    pub(crate) fn from_shape(shape: &[usize], spatial_rank: usize) -> Act5 {
        Self::try_from_shape(shape, spatial_rank, "Act5").unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible parse for the error-returning layer entry points.
    pub(crate) fn try_from_shape(
        shape: &[usize],
        spatial_rank: usize,
        layer: &'static str,
    ) -> Result<Act5, NnError> {
        match (shape.len(), spatial_rank) {
            (4, 2) => Ok(Act5 {
                n: shape[0],
                c: shape[1],
                d: 1,
                h: shape[2],
                w: shape[3],
            }),
            (5, 3) => Ok(Act5 {
                n: shape[0],
                c: shape[1],
                d: shape[2],
                h: shape[3],
                w: shape[4],
            }),
            _ => Err(NnError {
                layer,
                problem: "activation rank incompatible with spatial rank",
                expected: spatial_rank + 2,
                got: shape.len(),
            }),
        }
    }

    /// The activation's shape, built without touching the heap.
    pub(crate) fn to_shape(self, spatial_rank: usize) -> Shape {
        match spatial_rank {
            2 => Shape::new(&[self.n, self.c, self.h, self.w]),
            3 => Shape::new(&[self.n, self.c, self.d, self.h, self.w]),
            r => panic!("unsupported spatial rank {r}"),
        }
    }

    pub(crate) fn spatial_len(&self) -> usize {
        self.d * self.h * self.w
    }

    pub(crate) fn sample_len(&self) -> usize {
        self.c * self.spatial_len()
    }
}

impl ConvNd {
    /// New convolution layer. `spatial_rank` must be 2 or 3; `kernel` is the
    /// cubic kernel edge (3 in the paper); `stride` 1 or 2.
    pub fn new(
        spatial_rank: usize,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            spatial_rank == 2 || spatial_rank == 3,
            "spatial rank must be 2 or 3"
        );
        assert!(kernel % 2 == 1, "kernel edge must be odd for same-padding");
        let k_elems = kernel.pow(spatial_rank as u32);
        let fan_in = in_channels * k_elems;
        let weight = init::kaiming(&[out_channels, in_channels * k_elems], fan_in, rng);
        ConvNd {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            spatial_rank,
            cached_input: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution geometry for one input sample: 2D data rides in the
    /// depth-1 plane with a 1×k×k kernel, unit depth stride and no depth pad.
    fn geom(&self, ia: Act5) -> ConvGeom {
        let (k, s, p) = (self.kernel, self.stride, self.kernel / 2);
        let (kd, sd, pd) = if self.spatial_rank == 2 {
            (1, 1, 0)
        } else {
            (k, s, p)
        };
        ConvGeom::new(
            self.in_channels,
            [ia.d, ia.h, ia.w],
            [kd, k, k],
            [sd, s, s],
            [pd, p, p],
        )
    }

    fn output_act(&self, ia: Act5) -> Act5 {
        let [d, h, w] = self.geom(ia).out_dhw;
        Act5 {
            n: ia.n,
            c: self.out_channels,
            d,
            h,
            w,
        }
    }

    /// Shape checks shared by both forward entry points.
    fn validate(&self, shape: &[usize]) -> Result<Act5, NnError> {
        let ia = Act5::try_from_shape(shape, self.spatial_rank, "ConvNd")?;
        if ia.c != self.in_channels {
            return Err(NnError {
                layer: "ConvNd",
                problem: "channel count mismatch",
                expected: self.in_channels,
                got: ia.c,
            });
        }
        Ok(ia)
    }

    /// The one forward implementation, an implicit GEMM: pack the weights
    /// and build the tap table once per call, copy each sample once into the
    /// padded `scratch.pad`, then run one [`gemm_packed`] call per output row
    /// reading `B` row `k` in place at `row_base + taps[k]`. The taps follow
    /// the weight layout's `(ci, dk, hk, wk)` order and the engine adds them
    /// ascending from the bias: bit-identical to the direct 7-deep loop
    /// (padded taps add an explicit `+0.0`; see [`crate::gemm`]).
    fn run(&self, x: &[f32], ia: Act5, oa: Act5, out: &mut [f32], scratch: &mut NnScratch) {
        let g = self.geom(ia);
        let b = self.bias.value.as_slice();
        let k = g.k_rows();
        let (in_sample, out_sample) = (ia.sample_len(), oa.sample_len());
        pack_a(
            self.weight.value.as_slice(),
            oa.c,
            k,
            k,
            &mut scratch.a_pack,
        );
        tap_offsets_into(&g, &mut scratch.taps);
        let taps = &scratch.taps[..k];
        scratch.pad.clear(); // zeroed once: samples rewrite only data positions
        scratch.pad.resize(g.padded_len(), 0.0);
        for n in 0..ia.n {
            pad_sample_into(&x[n * in_sample..][..in_sample], &g, &mut scratch.pad);
            let out_n = &mut out[n * out_sample..][..out_sample];
            for r in 0..g.out_rows() {
                gemm_packed(
                    &scratch.a_pack,
                    oa.c,
                    k,
                    &scratch.pad[g.row_base(r)..],
                    |kk| taps[kk],
                    oa.w,
                    GemmBias::Row(b),
                    &mut out_n[r * oa.w..],
                    oa.spatial_len(),
                );
            }
        }
    }
}

/// `dW += Σ_n dY_n·Xcol_nᵀ` for the geometry `g` of one sample. Each sample
/// is padded as the forward pads it; each run of output rows then unfolds
/// into a `(positions × K)` panel, and [`gemm_acc_into`] contracts it with
/// `dY` over positions, seeding from the accumulated gradient. `C` is `dW`
/// itself, `c_out` rows of `K` taps, so its column tiles stay wide for any
/// `c_out`.
fn weight_grad(g: &ConvGeom, x: &[f32], dy: &[f32], oa: Act5, gw: &mut [f32]) {
    let (k, rows) = (g.k_rows(), g.out_rows());
    let chunk = (PANEL_LEN / (oa.w * k).max(1)).clamp(1, rows.max(1));
    let (in_sample, out_sample) = (g.channels * g.in_spatial(), oa.sample_len());
    let (mut pad, mut taps) = (vec![0.0; g.padded_len()], Vec::new());
    let (mut panel, mut pack) = (Vec::new(), Vec::new());
    tap_offsets_into(g, &mut taps);
    for n in 0..oa.n {
        pad_sample_into(&x[n * in_sample..][..in_sample], g, &mut pad);
        let dy_n = &dy[n * out_sample..][..out_sample];
        for r0 in (0..rows).step_by(chunk) {
            let r1 = (r0 + chunk).min(rows);
            unfold_rows_into(&pad, g, &taps, r0..r1, &mut panel);
            gemm_acc_into(
                &dy_n[r0 * oa.w..],
                oa.spatial_len(),
                &panel,
                oa.c,
                (r1 - r0) * oa.w,
                k,
                gw,
                k,
                &mut pack,
            );
        }
    }
}

/// `dX` for the geometry `g` of one sample: a stride-1 implicit GEMM over
/// `dY` stuffed by the stride and padded `kernel − 1 − pad` (the forward's
/// pad again, for odd kernels), with the flipped, channel-transposed kernel
/// `Wᵀ[ci][co·ke + t] = W[co][ci·ke + ke − 1 − t]` and a `0.0` seed.
fn input_grad(g: &ConvGeom, w: &[f32], dy: &[f32], oa: Act5) -> Vec<f32> {
    let (in_c, ke) = (g.channels, g.kernel_dhw.iter().product::<usize>());
    let pad = std::array::from_fn(|i| g.kernel_dhw[i] - 1 - g.pad_dhw[i]);
    let gt = ConvGeom::new(oa.c, g.in_dhw, g.kernel_dhw, [1; 3], pad);
    assert_eq!(gt.out_dhw, g.in_dhw, "dX keeps the input extents");
    let flipped: Vec<f32> = (0..in_c)
        .flat_map(|ci| {
            (0..oa.c).flat_map(move |co| (0..ke).rev().map(move |t| w[(co * in_c + ci) * ke + t]))
        })
        .collect();
    let k = gt.k_rows();
    let (mut pack, mut taps) = (Vec::new(), Vec::new());
    pack_a(&flipped, in_c, k, k, &mut pack);
    tap_offsets_into(&gt, &mut taps);
    let mut stuffed = vec![0.0; gt.padded_len()];
    let (in_sample, out_sample) = (in_c * g.in_spatial(), oa.sample_len());
    let iw = g.in_dhw[2];
    let mut gx = vec![0.0f32; oa.n * in_sample];
    for n in 0..oa.n {
        let dy_n = &dy[n * out_sample..][..out_sample];
        stuff_sample_into(dy_n, [oa.d, oa.h, oa.w], g.stride_dhw, &gt, &mut stuffed);
        let gx_n = &mut gx[n * in_sample..][..in_sample];
        for r in 0..gt.out_rows() {
            gemm_packed(
                &pack,
                in_c,
                k,
                &stuffed[gt.row_base(r)..],
                |kk| taps[kk],
                iw,
                GemmBias::Zero,
                &mut gx_n[r * iw..],
                g.in_spatial(),
            );
        }
    }
    gx
}

/// Target length of one `dW` panel (16 KB of `f32`): a run of output rows
/// that stays in L1 between its unfold and the GEMM's passes over it, one
/// per column tile. On the decoder's 8→1 convolutions a 64 KB panel ran
/// about 30% slower.
const PANEL_LEN: usize = 1 << 12;

impl Layer for ConvNd {
    fn name(&self) -> &'static str {
        "ConvNd"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = infer_tensor(self, input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        let ia = self.validate(shape.dims())?;
        NnError::check_len("ConvNd", input, shape)?;
        let oa = self.output_act(ia);
        out.resize(oa.n * oa.sample_len(), 0.0);
        self.run(input, ia, oa, out, scratch);
        Ok(oa.to_shape(self.spatial_rank))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let ia = Act5::from_shape(input.shape(), self.spatial_rank);
        let oa = self.output_act(ia);
        assert_eq!(grad_output.shape(), oa.to_shape(self.spatial_rank).dims());
        let g = self.geom(ia);
        let dy = grad_output.as_slice();
        let (gb, sp) = (self.bias.grad.as_mut_slice(), oa.spatial_len());
        for n in 0..oa.n {
            for (co, gb_c) in gb.iter_mut().enumerate() {
                for &v in &dy[(n * oa.c + co) * sp..][..sp] {
                    if v != 0.0 {
                        *gb_c += v;
                    }
                }
            }
        }
        weight_grad(
            &g,
            input.as_slice(),
            dy,
            oa,
            self.weight.grad.as_mut_slice(),
        );
        let gx = input_grad(&g, self.weight.value.as_slice(), dy, oa);
        Tensor::from_vec(input.shape(), gx).expect("consistent shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

/// Reshape layer: maps `(N, …)` activations to `(N, per_sample_shape…)`.
/// Used to flatten convolutional feature maps before the dense latent layer
/// and to unflatten them again in the decoder.
#[derive(Clone)]
pub struct Reshape {
    per_sample_shape: Vec<usize>,
    cached_in_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Reshape every sample to `per_sample_shape` (product must match).
    pub fn new(per_sample_shape: Vec<usize>) -> Self {
        Reshape {
            per_sample_shape,
            cached_in_shape: None,
        }
    }
}

impl Layer for Reshape {
    fn name(&self) -> &'static str {
        "Reshape"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = infer_tensor(self, input)?;
        self.cached_in_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        let dims = shape.dims();
        let n = dims.first().copied().unwrap_or(0);
        let per_sample: usize = dims.iter().skip(1).product();
        let target: usize = self.per_sample_shape.iter().product();
        if per_sample != target {
            return Err(NnError {
                layer: "Reshape",
                problem: "per-sample element count mismatch",
                expected: target,
                got: per_sample,
            });
        }
        out.clear();
        out.extend_from_slice(input);
        let mut out_dims = [0usize; Shape::MAX_RANK];
        out_dims[0] = n;
        out_dims[1..=self.per_sample_shape.len()].copy_from_slice(&self.per_sample_shape);
        Ok(Shape::new(&out_dims[..self.per_sample_shape.len() + 1]))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("backward called before forward");
        grad_output.reshape(in_shape).expect("same element count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::rng;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut r = rng(1);
        let mut conv = ConvNd::new(2, 1, 1, 3, 1, &mut r);
        // Set the kernel to a centred delta.
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        conv.weight.value = Tensor::from_vec(&[1, 9], w).unwrap();
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn stride_two_halves_spatial_size() {
        let mut r = rng(2);
        let mut conv2 = ConvNd::new(2, 3, 8, 3, 2, &mut r);
        let x = init::normal(&[2, 3, 16, 16], 0.0, 1.0, &mut r);
        assert_eq!(conv2.forward(&x).shape(), &[2, 8, 8, 8]);

        let mut conv3 = ConvNd::new(3, 2, 4, 3, 2, &mut r);
        let x3 = init::normal(&[1, 2, 8, 8, 8], 0.0, 1.0, &mut r);
        assert_eq!(conv3.forward(&x3).shape(), &[1, 4, 4, 4, 4]);
    }

    #[test]
    fn averaging_kernel_computes_local_means() {
        let mut r = rng(3);
        let mut conv = ConvNd::new(2, 1, 1, 3, 1, &mut r);
        conv.weight.value = Tensor::full(&[1, 9], 1.0 / 9.0);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 5, 5]);
        let y = conv.forward(&x);
        // Interior of an all-ones image stays 1 under a mean filter.
        assert!((y.at(&[0, 0, 2, 2]) - 1.0).abs() < 1e-6);
        // Corner sees only 4 of 9 taps.
        assert!((y.at(&[0, 0, 0, 0]) - 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_check_2d() {
        let mut r = rng(4);
        let mut conv = ConvNd::new(2, 2, 3, 3, 1, &mut r);
        let x = init::normal(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 2e-2, "relative gradient error {err}");
    }

    #[test]
    fn gradient_check_3d_strided() {
        let mut r = rng(5);
        let mut conv = ConvNd::new(3, 2, 2, 3, 2, &mut r);
        let x = init::normal(&[1, 2, 4, 4, 4], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 2e-2, "relative gradient error {err}");
    }

    #[test]
    fn reshape_roundtrip() {
        let mut flat = Reshape::new(vec![12]);
        let x = Tensor::from_vec(&[2, 3, 2, 2], (0..24).map(|v| v as f32).collect()).unwrap();
        let y = flat.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let g = flat.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut r = rng(6);
        let mut conv = ConvNd::new(2, 3, 4, 3, 1, &mut r);
        let err = conv
            .try_forward(&Tensor::zeros(&[1, 2, 8, 8]))
            .expect_err("mismatched channels must be rejected");
        assert_eq!(err.layer, "ConvNd");
        assert_eq!(err.problem, "channel count mismatch");
        assert_eq!((err.expected, err.got), (3, 2));
        // The inference path rejects the same shape without panicking.
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let x = vec![0.0f32; 2 * 64];
        let err = conv
            .infer_into(&x, Shape::new(&[1, 2, 8, 8]), &mut out, &mut scratch)
            .expect_err("mismatched channels must be rejected");
        assert_eq!(err.problem, "channel count mismatch");
    }

    #[test]
    fn infer_into_matches_forward_bitwise() {
        let mut r = rng(7);
        let mut conv = ConvNd::new(2, 3, 5, 3, 2, &mut r);
        let x = init::normal(&[2, 3, 9, 7], 0.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let shape = conv
            .infer_into(x.as_slice(), Shape::new(x.shape()), &mut out, &mut scratch)
            .expect("valid shape");
        assert_eq!(shape.dims(), y.shape());
        let fwd: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        let inf: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fwd, inf);
    }
}
