//! General N-dimensional tensor used by the `aesz-nn` framework.
//!
//! Activations in the convolutional autoencoders are stored as `(N, C, H, W)`
//! (2D) or `(N, C, D, H, W)` (3D) tensors; dense layers use `(N, F)`.
//! Everything is `f32` and row-major, mirroring the layout of [`crate::Field`]
//! so that data blocks can flow into the network without copies beyond the
//! batch assembly.

use crate::{Result, TensorError};

/// Row-major N-dimensional `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![1.0; shape.iter().product()],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Build a tensor from an existing buffer.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                got: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Flattened row-major offset for an N-dimensional index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (i, (&x, &dim)) in idx.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(x < dim, "index {x} out of bounds for axis {i} (dim {dim})");
            off = off * dim + x;
        }
        off
    }

    /// Read one element by N-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Write one element by N-dimensional index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition (shapes must match).
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction (shapes must match).
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication (shapes must match).
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise binary op (shapes must match).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes(format!(
                "{:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiply every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Square of the L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Fill with zeros in place (used to reset gradient accumulators).
    pub fn zero_(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rank(), 3);
        assert!(Tensor::from_vec(&[2, 3], vec![0.0; 5]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 1], 9.0);
        assert_eq!(t.at(&[1, 1]), 9.0);
        assert_eq!(t.sum(), 9.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        let c = Tensor::zeros(&[4]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![1.0, -1.0, 2.0, 2.0]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.sq_norm(), 10.0);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn zero_resets() {
        let mut t = Tensor::ones(&[5]);
        t.zero_();
        assert_eq!(t.sum(), 0.0);
    }
}
