//! Linear-algebra kernels shared by the NN framework and the regression
//! predictor: dense matrix multiplication, transpose, and small least-squares
//! solves (normal equations with Gaussian elimination).
//!
//! These are deliberately straightforward scalar implementations; the
//! performance-sensitive outer loops (over blocks / batch elements) run in
//! parallel at the call sites, on the lanes of [`crate::lanes`].

use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Dense matrix multiply: `a` is `(m, k)`, `b` is `(k, n)`, result is `(m, n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::IncompatibleShapes(
            "matmul expects rank-2 tensors".into(),
        ));
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::IncompatibleShapes(format!(
            "matmul inner dims differ: {k} vs {k2}"
        )));
    }
    let mut out = vec![0.0f32; m * n];
    let ad = a.as_slice();
    let bd = b.as_slice();
    for i in 0..m {
        for p in 0..k {
            let aval = ad[i * k + p];
            if aval == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += aval * bv;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// Transpose of a rank-2 tensor.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::IncompatibleShapes(
            "transpose expects a rank-2 tensor".into(),
        ));
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_vec(&[n, m], out)
}

/// Matrix-vector product: `a` is `(m, n)`, `x` has `n` entries.
pub fn matvec(a: &Tensor, x: &[f32]) -> Result<Vec<f32>> {
    if a.rank() != 2 || a.shape()[1] != x.len() {
        return Err(TensorError::IncompatibleShapes(format!(
            "matvec: {:?} vs {}",
            a.shape(),
            x.len()
        )));
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let ad = a.as_slice();
    let mut out = vec![0.0f32; m];
    for i in 0..m {
        let mut acc = 0.0;
        for j in 0..n {
            acc += ad[i * n + j] * x[j];
        }
        out[i] = acc;
    }
    Ok(out)
}

/// Solve the square linear system `A x = b` in place with partial-pivoting
/// Gaussian elimination. `a` is `n*n` row-major. Returns `None` when the
/// system is (numerically) singular.
pub fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    if solve_linear_in_place(a, b, n) {
        Some(b.to_vec())
    } else {
        None
    }
}

/// [`solve_linear`] without the output allocation: on success the solution
/// replaces `b`. Bit-identical to the allocating form — the back
/// substitution reads the already-solved entries of `b` exactly where the
/// reference read its freshly-written `x`.
pub fn solve_linear_in_place(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        // Pivot: largest magnitude in this column at or below the diagonal.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return false;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution, solving into `b` itself: entries below `row` are
    // still right-hand side, entries above are already solution values —
    // exactly the `x[j]` the allocating form read.
    for row in (0..n).rev() {
        let mut acc = b[row];
        for j in (row + 1)..n {
            acc -= a[row * n + j] * b[j];
        }
        b[row] = acc / a[row * n + row];
    }
    true
}

/// Ordinary least squares: find `beta` minimising `||X beta − y||²` via the
/// normal equations. `x` is `(rows, cols)` row-major. Returns `None` when the
/// normal matrix is singular.
pub fn least_squares(x: &[f32], rows: usize, cols: usize, y: &[f32]) -> Option<Vec<f32>> {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(y.len(), rows);
    let mut xtx = vec![0.0f64; cols * cols];
    let mut xty = vec![0.0f64; cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            xty[i] += row[i] as f64 * y[r] as f64;
            for j in i..cols {
                xtx[i * cols + j] += row[i] as f64 * row[j] as f64;
            }
        }
    }
    for i in 0..cols {
        for j in 0..i {
            xtx[i * cols + j] = xtx[j * cols + i];
        }
    }
    let beta = solve_linear(&mut xtx, &mut xty, cols)?;
    Some(beta.into_iter().map(|v| v as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(transpose(&t).unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = matvec(&a, &[5.0, 6.0]).unwrap();
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn solve_linear_identity_and_singular() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![3.0, 4.0];
        assert_eq!(solve_linear(&mut a, &mut b, 2).unwrap(), vec![3.0, 4.0]);

        let mut s = vec![1.0, 2.0, 2.0, 4.0];
        let mut b2 = vec![1.0, 2.0];
        assert!(solve_linear(&mut s, &mut b2, 2).is_none());
    }

    #[test]
    fn solve_linear_requires_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![2.0, 3.0];
        let x = solve_linear(&mut a, &mut b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_plane() {
        // y = 2*a + 3*b + 1 over a small grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                x.extend_from_slice(&[a as f32, b as f32, 1.0]);
                y.push(2.0 * a as f32 + 3.0 * b as f32 + 1.0);
            }
        }
        let beta = least_squares(&x, 16, 3, &y).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-4);
        assert!((beta[1] - 3.0).abs() < 1e-4);
        assert!((beta[2] - 1.0).abs() < 1e-4);
    }
}
