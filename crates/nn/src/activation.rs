//! Pointwise activation layers: Tanh (the decoder output nonlinearity of the
//! paper's network), ReLU and LeakyReLU (used as ablation alternatives to GDN
//! in the Table I experiments).

use crate::infer::{NnScratch, Shape};
use crate::layer::{infer_tensor, Layer, NnError};
use aesz_tensor::Tensor;

/// Pointwise inference core shared by the activation layers: stream `f` over
/// the input into the caller's buffer (same scalar function as the training
/// path, so bit-identity is immediate).
fn pointwise_into(
    input: &[f32],
    shape: Shape,
    out: &mut Vec<f32>,
    layer: &'static str,
    f: impl Fn(f32) -> f32,
) -> Result<Shape, NnError> {
    NnError::check_len(layer, input, shape)?;
    out.clear();
    out.extend(input.iter().map(|&v| f(v)));
    Ok(shape)
}

/// Hyperbolic tangent activation.
#[derive(Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// New Tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = infer_tensor(self, input)?;
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        pointwise_into(input, shape, out, "Tanh", |v| v.tanh())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        grad_output
            .zip(out, |g, y| g * (1.0 - y * y))
            .expect("matching shapes")
    }
}

/// Rectified linear unit.
#[derive(Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(input.clone());
        infer_tensor(self, input)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        pointwise_into(input, shape, out, "ReLU", |v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        grad_output
            .zip(x, |g, v| if v > 0.0 { g } else { 0.0 })
            .expect("matching shapes")
    }
}

/// Leaky rectified linear unit with fixed negative slope.
#[derive(Clone)]
pub struct LeakyRelu {
    slope: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// New LeakyReLU with the given negative-side slope (0.2 in most AE papers).
    pub fn new(slope: f32) -> Self {
        LeakyRelu {
            slope,
            cached_input: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn name(&self) -> &'static str {
        "LeakyReLU"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(input.clone());
        infer_tensor(self, input)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        let s = self.slope;
        pointwise_into(input, shape, out, "LeakyReLU", |v| {
            if v > 0.0 {
                v
            } else {
                s * v
            }
        })
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let s = self.slope;
        grad_output
            .zip(x, |g, v| if v > 0.0 { g } else { s * g })
            .expect("matching shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::{normal, rng};

    #[test]
    fn tanh_bounds_output() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(&[4], vec![-100.0, -1.0, 1.0, 100.0]).unwrap();
        let y = t.forward(&x);
        assert!(y.as_slice().iter().all(|v| v.abs() <= 1.0));
        assert!((y.as_slice()[1] + 0.7616).abs() < 1e-3);
    }

    #[test]
    fn relu_zeroes_negative_values_and_gradients() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[3], vec![-1.0, 0.5, 2.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.5, 2.0]);
        let g = relu.backward(&Tensor::ones(&[3]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_slope() {
        let mut l = LeakyRelu::new(0.2);
        let x = Tensor::from_vec(&[2], vec![-2.0, 3.0]).unwrap();
        let y = l.forward(&x);
        assert!((y.as_slice()[0] + 0.4).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 3.0);
    }

    #[test]
    fn gradient_checks() {
        let mut r = rng(1);
        let x = normal(&[2, 7], 0.0, 1.0, &mut r);
        assert!(grad_check_input(&mut Tanh::new(), &x, 1e-3) < 1e-2);
        assert!(grad_check_input(&mut LeakyRelu::new(0.2), &x, 1e-3) < 1e-2);
    }
}
