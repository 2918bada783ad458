//! The `Layer` trait and trainable parameters.
//!
//! Layers own their parameters and cache whatever they need from the forward
//! pass to compute gradients in the backward pass (classic define-by-layer
//! backprop; no tape/autograd). The optimizer walks the parameter list each
//! step, so `Param` keeps the gradient accumulator alongside the value.

use crate::infer::{NnScratch, Shape};
use aesz_tensor::Tensor;

/// Shaped-input error of the layer API: the input tensor is incompatible
/// with the layer's geometry. Returned (never panicked) by
/// [`Layer::try_forward`] and [`Layer::infer_into`], consistent with the
/// repo's no-panic posture on data paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnError {
    /// Layer that rejected the input.
    pub layer: &'static str,
    /// What was wrong (e.g. "channel count mismatch").
    pub problem: &'static str,
    /// The extent the layer requires.
    pub expected: usize,
    /// The extent the input carried.
    pub got: usize,
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (expected {}, got {})",
            self.layer, self.problem, self.expected, self.got
        )
    }
}

impl std::error::Error for NnError {}

impl NnError {
    /// Reject an activation slice whose length disagrees with its shape.
    pub(crate) fn check_len(layer: &'static str, input: &[f32], shape: Shape) -> Result<(), Self> {
        if input.len() == shape.len() {
            return Ok(());
        }
        Err(NnError {
            layer,
            problem: "input length does not match shape",
            expected: shape.len(),
            got: input.len(),
        })
    }
}

/// A trainable parameter: value plus gradient accumulator of identical shape.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value of the parameter.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Param {
    /// Parameter initialised to `value` with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Reset the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }

    /// Number of scalar weights in this parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True for parameters with no elements (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with explicit forward/backward passes.
///
/// `Send + Sync` so compressors holding a network can be shared across
/// server worker threads (layers only mutate through `&mut self`).
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in summaries and serialization).
    fn name(&self) -> &'static str;

    /// Run the layer on `input`, caching activations needed by `backward`.
    /// Rejects incompatible input shapes with an [`NnError`].
    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Training-loop convenience wrapper around [`Layer::try_forward`]:
    /// panics on shaped-input errors (the training data pipeline controls
    /// its shapes; data paths use the fallible entry points).
    fn forward(&mut self, input: &Tensor) -> Tensor {
        match self.try_forward(input) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Allocation-free inference: compute the layer's output from a flat
    /// activation slice into the caller-owned `out`, using `scratch` for any
    /// intermediate buffers, and return the output shape.
    ///
    /// Contract (enforced by the allocation-discipline tests):
    /// * `&self` — training-only state (`cached_input`, gradients) is never
    ///   touched, so inference never pays the training path's input clone;
    /// * no per-call heap allocation once `out` and `scratch` have warmed to
    ///   the batch's high-water mark;
    /// * bit-identical to [`Layer::try_forward`] for finite weights (the
    ///   GEMM lowering pins the accumulation order; see [`crate::gemm`]).
    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut NnScratch,
    ) -> Result<Shape, NnError>;

    /// Propagate `grad_output` (∂loss/∂output) back through the layer,
    /// accumulating parameter gradients and returning ∂loss/∂input.
    ///
    /// Must be called after `forward` with the matching input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to the trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// An owned deep copy of this layer behind the trait object.
    ///
    /// This is what makes whole layer stacks (and therefore the models and
    /// compressors built from them) cloneable, so independent copies can run
    /// on different threads — the archive layer forks one compressor per
    /// in-flight chunk. Implementors that derive [`Clone`] just return
    /// `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Immutable access to the trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Total number of scalar weights.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// The training forward of a layer as its inference core: `infer_into` on a
/// fresh scratch, wrapped as a tensor. Each layer's `try_forward` is this
/// plus the cache its `backward` needs, so every layer has exactly one
/// forward implementation.
pub(crate) fn infer_tensor(layer: &dyn Layer, input: &Tensor) -> Result<Tensor, NnError> {
    if input.rank() > Shape::MAX_RANK {
        return Err(NnError {
            layer: layer.name(),
            problem: "activation rank above 5",
            expected: Shape::MAX_RANK,
            got: input.rank(),
        });
    }
    let mut out = Vec::new();
    let shape = Shape::new(input.shape());
    let shape = layer.infer_into(input.as_slice(), shape, &mut out, &mut NnScratch::new())?;
    Ok(Tensor::from_vec(shape.dims(), out).expect("infer_into output matches its shape"))
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Finite-difference gradient checking helper used by layer unit tests.
///
/// Returns the maximum relative error between the analytic input gradient of
/// `layer` and a central-difference estimate on the scalar loss
/// `L = Σ out·coeffs` (a fixed random linear functional of the output).
#[cfg(test)]
pub fn grad_check_input(layer: &mut dyn Layer, input: &Tensor, eps: f32) -> f32 {
    let out = layer.forward(input);
    // Fixed pseudo-random coefficients.
    let coeffs: Vec<f32> = (0..out.len())
        .map(|i| ((i as f32 * 12.9898).sin() * 43_758.547).fract() - 0.5)
        .collect();
    let grad_out = Tensor::from_vec(out.shape(), coeffs.clone()).expect("shape matches");
    let analytic = layer.backward(&grad_out);

    let loss = |layer: &mut dyn Layer, x: &Tensor| -> f64 {
        let o = layer.forward(x);
        o.as_slice()
            .iter()
            .zip(coeffs.iter())
            .map(|(&a, &c)| a as f64 * c as f64)
            .sum()
    };

    // Probe a subset of the input elements (all of them for small inputs) and
    // combine two error measures, returning the larger:
    //
    // * aggregate ‖numeric − analytic‖ / (‖numeric‖ + ‖analytic‖) — catches
    //   broadly wrong gradients;
    // * per-element max |numericᵢ − analyticᵢ| / ‖gradient‖∞ — catches bugs
    //   confined to a few elements (e.g. a skipped boundary contribution)
    //   that the norm ratio would dilute.
    //
    // Both denominators are global magnitudes: a per-element *relative*
    // metric is too brittle in f32, since a probe whose true gradient is
    // near zero turns central-difference noise into a large ratio.
    let stride = (input.len() / 64).max(1);
    let mut diff_sq = 0.0f64;
    let mut numeric_sq = 0.0f64;
    let mut analytic_sq = 0.0f64;
    let mut max_abs_diff = 0.0f64;
    let mut grad_inf = 0.0f64;
    for i in (0..input.len()).step_by(stride) {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        let numeric = (loss(layer, &plus) - loss(layer, &minus)) / (2.0 * eps as f64);
        let a = analytic.as_slice()[i] as f64;
        diff_sq += (numeric - a).powi(2);
        numeric_sq += numeric.powi(2);
        analytic_sq += a.powi(2);
        max_abs_diff = max_abs_diff.max((numeric - a).abs());
        grad_inf = grad_inf.max(numeric.abs()).max(a.abs());
    }
    let l2_ratio = diff_sq.sqrt() / (numeric_sq.sqrt() + analytic_sq.sqrt()).max(1e-8);
    let elem_ratio = max_abs_diff / grad_inf.max(1e-8);
    l2_ratio.max(elem_ratio) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tracks_grad_shape() {
        let p = Param::new(Tensor::ones(&[3, 4]));
        assert_eq!(p.grad.shape(), &[3, 4]);
        assert_eq!(p.len(), 12);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad = Tensor::full(&[4], 2.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
