//! Fully-connected (dense) layer.
//!
//! The AE-SZ encoder ends with a fully-connected layer that resizes the
//! flattened convolutional feature map to the latent vector, and the decoder
//! starts with the mirror layer (latent → feature map). Input is `(N, in)`,
//! output `(N, out)`.
//!
//! Both forward paths are a single [`gemm_into`] call against a packed `Wᵀ`
//! panel: element `(i, o)` seeds from `b[o]` and accumulates
//! `x[i][j]·w[o][j]` in ascending `j`, exactly the original dot-product
//! order, so the GEMM lowering is bit-identical to the loop it replaced.

use crate::gemm::{gemm_into, GemmBias};
use crate::infer::{NnScratch, Shape};
use crate::layer::{infer_tensor, Layer, NnError, Param};
use aesz_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// `y = x·Wᵀ + b` with `W: (out, in)`, `b: (out)`.
#[derive(Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// New dense layer with Kaiming-initialised weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = init::kaiming(&[out_features, in_features], in_features, rng);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Shape checks shared by both forward entry points.
    fn validate(&self, shape: &[usize]) -> Result<usize, NnError> {
        if shape.len() != 2 {
            return Err(NnError {
                layer: "Dense",
                problem: "expects rank-2 (N, features) input",
                expected: 2,
                got: shape.len(),
            });
        }
        if shape[1] != self.in_features {
            return Err(NnError {
                layer: "Dense",
                problem: "feature size mismatch",
                expected: self.in_features,
                got: shape[1],
            });
        }
        Ok(shape[0])
    }

    /// GEMM core shared by `try_forward` and `infer_into`: pack `Wᵀ` into
    /// `scratch.packed`, then one `x·Wᵀ ⊕ b` multiply (which packs `x`
    /// MR-interleaved into `scratch.a_pack`). The transpose pack makes each
    /// `Wᵀ` row a contiguous run of output features, so the register tiles
    /// sweep them without changing any element's accumulation order.
    fn run(&self, x: &[f32], n: usize, out: &mut [f32], scratch: &mut NnScratch) {
        let w = self.weight.value.as_slice();
        let b = self.bias.value.as_slice();
        let (fin, fout) = (self.in_features, self.out_features);
        scratch.packed.clear();
        scratch.packed.resize(fin * fout, 0.0);
        for (o, wrow) in w.chunks_exact(fin).enumerate() {
            for (j, &wv) in wrow.iter().enumerate() {
                scratch.packed[j * fout + o] = wv;
            }
        }
        gemm_into(
            x,
            &scratch.packed,
            GemmBias::Col(b),
            n,
            fin,
            fout,
            out,
            fout,
            &mut scratch.a_pack,
        );
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "Dense"
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
        let n = self.validate(shape.dims())?;
        NnError::check_len("Dense", input, shape)?;
        out.resize(n * self.out_features, 0.0);
        self.run(input, n, out, scratch);
        Ok(Shape::new(&[n, self.out_features]))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let n = input.shape()[0];
        assert_eq!(grad_output.shape(), &[n, self.out_features]);
        let x = input.as_slice();
        let go = grad_output.as_slice();
        let w = self.weight.value.as_slice();
        let gw = self.weight.grad.as_mut_slice();
        let gb = self.bias.grad.as_mut_slice();
        let mut gx = vec![0.0f32; n * self.in_features];
        for i in 0..n {
            let xi = &x[i * self.in_features..(i + 1) * self.in_features];
            let goi = &go[i * self.out_features..(i + 1) * self.out_features];
            let gxi = &mut gx[i * self.in_features..(i + 1) * self.in_features];
            for (o, &g) in goi.iter().enumerate() {
                gb[o] += g;
                let wrow = &w[o * self.in_features..(o + 1) * self.in_features];
                let gwrow = &mut gw[o * self.in_features..(o + 1) * self.in_features];
                for j in 0..self.in_features {
                    gwrow[j] += g * xi[j];
                    gxi[j] += g * wrow[j];
                }
            }
        }
        Tensor::from_vec(&[n, self.in_features], gx).expect("consistent shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::rng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut r = rng(1);
        let mut layer = Dense::new(3, 2, &mut r);
        // Overwrite with known weights.
        layer.weight.value =
            Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0]).unwrap();
        layer.bias.value = Tensor::from_vec(&[2], vec![0.1, -0.2]).unwrap();
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 2.0]).unwrap();
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[1, 2]);
        assert!((y.as_slice()[0] - (1.0 + 2.0 + 6.0 + 0.1)).abs() < 1e-6);
        assert!((y.as_slice()[1] - (-1.0 + 0.5 + 0.0 - 0.2)).abs() < 1e-6);
    }

    #[test]
    fn gradient_check() {
        let mut r = rng(2);
        let mut layer = Dense::new(5, 4, &mut r);
        let input = init::normal(&[3, 5], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut layer, &input, 1e-3);
        assert!(err < 1e-2, "relative gradient error {err}");
    }

    #[test]
    fn weight_gradients_accumulate() {
        let mut r = rng(3);
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]).unwrap();
        let _ = layer.forward(&x);
        let g = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]).unwrap();
        let _ = layer.backward(&g);
        // dL/dW[0][j] = g[0] * x[j]
        assert_eq!(layer.weight.grad.at(&[0, 0]), 1.0);
        assert_eq!(layer.weight.grad.at(&[0, 1]), 2.0);
        assert_eq!(layer.weight.grad.at(&[1, 0]), 0.0);
        assert_eq!(layer.bias.grad.as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut r = rng(4);
        let mut layer = Dense::new(3, 2, &mut r);
        let err = layer
            .try_forward(&Tensor::zeros(&[1, 4]))
            .expect_err("mismatched width must be rejected");
        assert_eq!(err.problem, "feature size mismatch");
        assert_eq!((err.expected, err.got), (3, 4));
    }

    #[test]
    fn infer_into_matches_forward_bitwise() {
        let mut r = rng(5);
        let mut layer = Dense::new(7, 4, &mut r);
        let x = init::normal(&[3, 7], 0.0, 1.0, &mut r);
        let y = layer.forward(&x);
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let shape = layer
            .infer_into(x.as_slice(), Shape::new(x.shape()), &mut out, &mut scratch)
            .expect("valid shape");
        assert_eq!(shape.dims(), y.shape());
        let fwd: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        let inf: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fwd, inf);
    }
}
