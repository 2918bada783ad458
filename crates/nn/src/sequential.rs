//! Ordered stacks of layers with joint forward/backward passes.

use crate::infer::{NnScratch, Shape};
use crate::layer::{Layer, NnError, Param};
use aesz_tensor::Tensor;

/// A simple feed-forward container: `forward` runs every layer in order,
/// `backward` runs them in reverse. The encoder and decoder of the AE-SZ
/// network are each one `Sequential`.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Append a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order (for summaries and serialization sanity checks).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// The layers in order (read-only; used by the per-layer benchmarks).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.try_forward(&x)?;
        }
        Ok(x)
    }

    /// Thread the activation through the stack with ping-pong buffers: layer
    /// `i` reads from one scratch buffer and writes into the other (the last
    /// layer writes straight into `out`), so a whole forward pass performs no
    /// allocation once the two buffers have warmed to the widest activation.
    ///
    /// Note: the ping-pong buffers are taken out of `scratch` for the
    /// duration of the pass, so a `Sequential` nested *inside* another
    /// `Sequential` would see empty buffers and re-warm its own — the AE-SZ
    /// architecture never nests stacks, so this costs nothing in practice.
    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        let last = match self.layers.len().checked_sub(1) {
            Some(last) => last,
            None => {
                out.clear();
                out.extend_from_slice(input);
                return Ok(shape);
            }
        };
        let mut cur = std::mem::take(&mut scratch.ping);
        let mut next = std::mem::take(&mut scratch.pong);
        let mut run = || -> Result<Shape, NnError> {
            let mut s = shape;
            for (i, layer) in self.layers.iter().enumerate() {
                let src: &[f32] = if i == 0 { input } else { &cur };
                if i == last {
                    s = layer.infer_into(src, s, out, scratch)?;
                } else {
                    s = layer.infer_into(src, s, &mut next, scratch)?;
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            Ok(s)
        };
        let result = run();
        scratch.ping = cur;
        scratch.pong = next;
        result
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Tanh;
    use crate::dense::Dense;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::{normal, rng};

    #[test]
    fn composes_layers_in_order() {
        let mut r = rng(1);
        let mut seq = Sequential::new()
            .push(Box::new(Dense::new(4, 8, &mut r)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(8, 2, &mut r)));
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.layer_names(), vec!["Dense", "Tanh", "Dense"]);
        let x = normal(&[5, 4], 0.0, 1.0, &mut r);
        let y = seq.forward(&x);
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn gradient_check_through_the_stack() {
        let mut r = rng(2);
        let mut seq = Sequential::new()
            .push(Box::new(Dense::new(6, 5, &mut r)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(5, 3, &mut r)));
        let x = normal(&[2, 6], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut seq, &x, 1e-3);
        assert!(err < 1e-2, "relative gradient error {err}");
    }

    #[test]
    fn infer_into_matches_forward_bitwise() {
        let mut r = rng(4);
        let mut seq = Sequential::new()
            .push(Box::new(Dense::new(4, 8, &mut r)))
            .push(Box::new(Tanh::new()))
            .push(Box::new(Dense::new(8, 2, &mut r)));
        let x = normal(&[5, 4], 0.0, 1.0, &mut r);
        let y = seq.forward(&x);
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let shape = seq
            .infer_into(x.as_slice(), Shape::new(x.shape()), &mut out, &mut scratch)
            .expect("valid shape");
        assert_eq!(shape.dims(), y.shape());
        let fwd: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        let inf: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fwd, inf);
    }

    #[test]
    fn empty_stack_copies_input() {
        let seq = Sequential::new();
        let mut out = Vec::new();
        let mut scratch = NnScratch::new();
        let shape = seq
            .infer_into(&[1.0, 2.0], Shape::new(&[1, 2]), &mut out, &mut scratch)
            .expect("identity");
        assert_eq!(shape.dims(), &[1, 2]);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn collects_all_parameters() {
        let mut r = rng(3);
        let mut seq = Sequential::new()
            .push(Box::new(Dense::new(3, 4, &mut r)))
            .push(Box::new(Dense::new(4, 2, &mut r)));
        assert_eq!(seq.params().len(), 4); // two weights + two biases
        assert_eq!(seq.num_params(), 3 * 4 + 4 + 4 * 2 + 2);
        assert_eq!(seq.params_mut().len(), 4);
    }
}
