//! Dimension descriptors for scientific data fields.
//!
//! AE-SZ (like SZ2.1) treats 1D, 2D and 3D fields differently: the Lorenzo
//! predictor, the blocking scheme and the convolutional network dimensionality
//! all depend on the rank. [`Dims`] captures the rank and extents in a small
//! copyable value and provides the row-major index arithmetic every other
//! crate relies on.

/// Extents of a scientific data field.
///
/// Row-major (C) layout is assumed everywhere: for `D3 { nz, ny, nx }` the
/// fastest-varying coordinate is `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dims {
    /// One-dimensional field of length `n`.
    D1 {
        /// Number of elements.
        n: usize,
    },
    /// Two-dimensional field with `ny` rows and `nx` columns.
    D2 {
        /// Number of rows (slow axis).
        ny: usize,
        /// Number of columns (fast axis).
        nx: usize,
    },
    /// Three-dimensional field with extents `nz × ny × nx`.
    D3 {
        /// Slowest axis.
        nz: usize,
        /// Middle axis.
        ny: usize,
        /// Fastest axis.
        nx: usize,
    },
}

impl Dims {
    /// Construct a 1D descriptor.
    pub fn d1(n: usize) -> Self {
        Dims::D1 { n }
    }

    /// Construct a 2D descriptor (`ny` rows × `nx` columns).
    pub fn d2(ny: usize, nx: usize) -> Self {
        Dims::D2 { ny, nx }
    }

    /// Construct a 3D descriptor (`nz × ny × nx`).
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        Dims::D3 { nz, ny, nx }
    }

    /// Rank of the field (1, 2 or 3).
    pub fn rank(&self) -> usize {
        match self {
            Dims::D1 { .. } => 1,
            Dims::D2 { .. } => 2,
            Dims::D3 { .. } => 3,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        match *self {
            Dims::D1 { n } => n,
            Dims::D2 { ny, nx } => ny * nx,
            Dims::D3 { nz, ny, nx } => nz * ny * nx,
        }
    }

    /// True when the field holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extents as a `[nz, ny, nx]`-style vector (leading dims dropped for lower rank).
    pub fn extents(&self) -> Vec<usize> {
        match *self {
            Dims::D1 { n } => vec![n],
            Dims::D2 { ny, nx } => vec![ny, nx],
            Dims::D3 { nz, ny, nx } => vec![nz, ny, nx],
        }
    }

    /// Row-major flattened index for a 2D coordinate.
    #[inline]
    pub fn idx2(&self, y: usize, x: usize) -> usize {
        match *self {
            Dims::D2 { nx, .. } => y * nx + x,
            _ => panic!("idx2 on non-2D dims"),
        }
    }

    /// Row-major flattened index for a 3D coordinate.
    #[inline]
    pub fn idx3(&self, z: usize, y: usize, x: usize) -> usize {
        match *self {
            Dims::D3 { ny, nx, .. } => (z * ny + y) * nx + x,
            _ => panic!("idx3 on non-3D dims"),
        }
    }

    /// Number of blocks of edge `block` needed to tile the field along every
    /// axis (ceiling division per axis).
    pub fn block_grid(&self, block: usize) -> Vec<usize> {
        self.extents()
            .iter()
            .map(|&e| e.div_ceil(block.max(1)))
            .collect()
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Dims::D1 { n } => write!(f, "{n}"),
            Dims::D2 { ny, nx } => write!(f, "{ny}x{nx}"),
            Dims::D3 { nz, ny, nx } => write!(f, "{nz}x{ny}x{nx}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_len() {
        assert_eq!(Dims::d1(10).rank(), 1);
        assert_eq!(Dims::d2(3, 4).rank(), 2);
        assert_eq!(Dims::d3(2, 3, 4).rank(), 3);
        assert_eq!(Dims::d1(10).len(), 10);
        assert_eq!(Dims::d2(3, 4).len(), 12);
        assert_eq!(Dims::d3(2, 3, 4).len(), 24);
    }

    #[test]
    fn row_major_indexing() {
        let d2 = Dims::d2(3, 4);
        assert_eq!(d2.idx2(0, 0), 0);
        assert_eq!(d2.idx2(0, 3), 3);
        assert_eq!(d2.idx2(1, 0), 4);
        assert_eq!(d2.idx2(2, 3), 11);

        let d3 = Dims::d3(2, 3, 4);
        assert_eq!(d3.idx3(0, 0, 0), 0);
        assert_eq!(d3.idx3(0, 1, 0), 4);
        assert_eq!(d3.idx3(1, 0, 0), 12);
        assert_eq!(d3.idx3(1, 2, 3), 23);
    }

    #[test]
    fn block_grid_ceils() {
        assert_eq!(Dims::d2(100, 64).block_grid(32), vec![4, 2]);
        assert_eq!(Dims::d3(9, 8, 7).block_grid(8), vec![2, 1, 1]);
        assert_eq!(Dims::d1(5).block_grid(8), vec![1]);
    }

    #[test]
    fn empty_detection() {
        assert!(Dims::d2(0, 5).is_empty());
        assert!(!Dims::d3(1, 1, 1).is_empty());
    }

    #[test]
    fn display_format() {
        assert_eq!(Dims::d3(2, 3, 4).to_string(), "2x3x4");
        assert_eq!(Dims::d2(1800, 3600).to_string(), "1800x3600");
        assert_eq!(Dims::d1(7).to_string(), "7");
    }
}
