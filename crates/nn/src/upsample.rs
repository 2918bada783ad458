//! Nearest-neighbour upsampling (the decoder's resolution-doubling step).
//!
//! The paper's decoder uses strided *deconvolutions*; this implementation uses
//! nearest-neighbour upsampling followed by a stride-1 convolution instead —
//! the standard "resize-convolution" alternative that avoids checkerboard
//! artefacts and needs no extra parameters. DESIGN.md records this
//! substitution; the representational role (doubling the spatial size while
//! mixing channels) is identical.
//!
//! **Row replication.** The forward pass is pure data movement, done as
//! copies of whole runs: each input row is expanded once (every value
//! written `f` times), that output row is copied `f − 1` times below
//! itself, and each finished 3D output plane is copied `f − 1` times behind
//! itself, so most of the output is written by `memcpy`. It equals the
//! per-element index loop kept as [`upsample_reference`] bit for bit
//! (`tests/kernel_differential.rs`).

use crate::conv::Act5;
use crate::infer::{NnScratch, Shape};
use crate::layer::{infer_tensor, Layer, NnError};
use aesz_tensor::Tensor;

/// Repeat each spatial cell `factor` times along every spatial axis.
#[derive(Clone)]
pub struct Upsample {
    factor: usize,
    spatial_rank: usize,
    cached_in_shape: Option<Vec<usize>>,
}

impl Upsample {
    /// New upsampling layer for 2D or 3D activations.
    pub fn new(spatial_rank: usize, factor: usize) -> Self {
        assert!(spatial_rank == 2 || spatial_rank == 3);
        assert!(factor >= 1);
        Upsample {
            factor,
            spatial_rank,
            cached_in_shape: None,
        }
    }

    fn output_act(&self, ia: Act5) -> Act5 {
        let f = self.factor;
        let fd = if self.spatial_rank == 2 { 1 } else { f };
        Act5 {
            n: ia.n,
            c: ia.c,
            d: ia.d * fd,
            h: ia.h * f,
            w: ia.w * f,
        }
    }

    /// Replication core of the one forward implementation (module doc).
    fn run(&self, x: &[f32], ia: Act5, oa: Act5, out: &mut [f32]) {
        if out.is_empty() {
            return; // some extent is zero, so every run below is empty too
        }
        let f = self.factor;
        let fd = if self.spatial_rank == 2 { 1 } else { f };
        let plane = oa.h * oa.w;
        // Input plane `(n, c, id)` becomes output planes `id·fd .. id·fd + fd`.
        let planes = x
            .chunks_exact(ia.h * ia.w)
            .zip(out.chunks_exact_mut(fd * plane));
        for (src_plane, dst_planes) in planes {
            let (first, plane_copies) = dst_planes.split_at_mut(plane);
            let rows = src_plane
                .chunks_exact(ia.w)
                .zip(first.chunks_exact_mut(f * oa.w));
            for (src_row, dst_rows) in rows {
                let (row, row_copies) = dst_rows.split_at_mut(oa.w);
                if f == 2 {
                    // The production factor, as fixed-width pair stores.
                    for (o, &v) in row.chunks_exact_mut(2).zip(src_row) {
                        o.copy_from_slice(&[v, v]);
                    }
                } else {
                    for (o, &v) in row.chunks_exact_mut(f).zip(src_row) {
                        o.fill(v);
                    }
                }
                for copy in row_copies.chunks_exact_mut(oa.w) {
                    copy.copy_from_slice(row);
                }
            }
            for copy in plane_copies.chunks_exact_mut(plane) {
                copy.copy_from_slice(first);
            }
        }
    }
}

/// Scalar reference twin of [`Upsample`]'s forward pass: the per-element
/// 5-deep index loop the row replication replaced, for an `(N, C, H, W)`
/// (`spatial_rank` 2) or `(N, C, D, H, W)` (3) input repeated `factor` times
/// along every spatial axis. The differential harness demands bitwise
/// equality between this and `infer_into` on every input.
pub fn upsample_reference(
    x: &[f32],
    shape: &[usize],
    spatial_rank: usize,
    factor: usize,
) -> Vec<f32> {
    let ia = Act5::from_shape(shape, spatial_rank);
    let f = factor;
    let fd = if spatial_rank == 2 { 1 } else { f };
    let oa = Act5 {
        d: ia.d * fd,
        h: ia.h * f,
        w: ia.w * f,
        ..ia
    };
    let mut out = vec![0.0f32; oa.n * oa.sample_len()];
    for n in 0..oa.n {
        for c in 0..oa.c {
            for od in 0..oa.d {
                for oh in 0..oa.h {
                    for ow in 0..oa.w {
                        let (id, ih, iw) = (od / fd, oh / f, ow / f);
                        let src = ((n * ia.c + c) * ia.d + id) * ia.h * ia.w + ih * ia.w + iw;
                        let dst = ((n * oa.c + c) * oa.d + od) * oa.h * oa.w + oh * oa.w + ow;
                        out[dst] = x[src];
                    }
                }
            }
        }
    }
    out
}

impl Layer for Upsample {
    fn name(&self) -> &'static str {
        "Upsample"
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
        let ia = Act5::try_from_shape(shape.dims(), self.spatial_rank, "Upsample")?;
        NnError::check_len("Upsample", input, shape)?;
        let oa = self.output_act(ia);
        out.resize(oa.n * oa.sample_len(), 0.0);
        self.run(input, ia, oa, out);
        Ok(oa.to_shape(self.spatial_rank))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("backward called before forward");
        let ia = Act5::from_shape(in_shape, self.spatial_rank);
        let oa = Act5::from_shape(grad_output.shape(), self.spatial_rank);
        let f = self.factor;
        let fd = if self.spatial_rank == 2 { 1 } else { f };
        let go = grad_output.as_slice();
        let mut gx = vec![0.0f32; ia.n * ia.sample_len()];
        for n in 0..oa.n {
            for c in 0..oa.c {
                for od in 0..oa.d {
                    for oh in 0..oa.h {
                        for ow in 0..oa.w {
                            let (id, ih, iw) = (od / fd, oh / f, ow / f);
                            let src = ((n * ia.c + c) * ia.d + id) * ia.h * ia.w + ih * ia.w + iw;
                            let dst = ((n * oa.c + c) * oa.d + od) * oa.h * oa.w + oh * oa.w + ow;
                            gx[src] += go[dst];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(in_shape, gx).expect("consistent shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::{normal, rng};

    #[test]
    fn upsample_2x_repeats_values() {
        let mut up = Upsample::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = up.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_3d_doubles_every_axis() {
        let mut up = Upsample::new(3, 2);
        let x = Tensor::ones(&[2, 3, 2, 2, 2]);
        assert_eq!(up.forward(&x).shape(), &[2, 3, 4, 4, 4]);
    }

    #[test]
    fn backward_sums_gradient_of_copies() {
        let mut up = Upsample::new(2, 2);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let _ = up.forward(&x);
        let g = Tensor::ones(&[1, 1, 4, 4]);
        let gx = up.backward(&g);
        // Each input cell fed 4 output cells.
        assert_eq!(gx.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn gradient_check() {
        let mut r = rng(7);
        let mut up = Upsample::new(3, 2);
        let x = normal(&[1, 2, 3, 3, 3], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut up, &x, 1e-3);
        assert!(err < 1e-2, "relative gradient error {err}");
    }

    #[test]
    fn factor_one_is_identity() {
        let mut up = Upsample::new(2, 1);
        let mut r = rng(8);
        let x = normal(&[1, 2, 3, 3], 0.0, 1.0, &mut r);
        assert_eq!(up.forward(&x), x);
    }
}
