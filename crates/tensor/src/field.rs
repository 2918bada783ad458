//! Scientific data field container and blockwise access.
//!
//! AE-SZ splits every input field into small fixed-size blocks (e.g. 32×32 in
//! 2D, 8×8×8 in 3D), predicts and quantizes each block independently, and
//! writes reconstructed values back block by block. [`Field`] owns the flat
//! `f32` buffer and [`BlockIter`] walks the block grid in row-major order,
//! producing [`BlockSpec`]s describing origin and valid extent (edge blocks
//! are smaller than the nominal block size).

use crate::dims::Dims;
use crate::{Result, TensorError};

/// A scientific data field: a flat row-major `f32` buffer plus its extents.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    dims: Dims,
    data: Vec<f32>,
}

/// Up to three coordinates stored inline (rank is at most 3 everywhere in
/// the workspace), so building a [`BlockSpec`] never touches the heap —
/// block iteration is a hot path and spec construction used to dominate its
/// allocation profile (see `tests/allocation_discipline.rs`).
///
/// Derefs to `[usize]`, so call sites that read `&spec.size` as a slice,
/// index it, or iterate it are unaffected. Unused trailing slots are always
/// zero, which keeps the derived `Eq`/`Hash`-free comparisons honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coords {
    buf: [usize; 3],
    len: u8,
}

impl Coords {
    /// Inline copy of `s`. Panics when `s` has more than three entries —
    /// rank > 3 does not exist in this workspace.
    pub fn from_slice(s: &[usize]) -> Coords {
        assert!(s.len() <= 3, "rank above 3 is unsupported");
        let mut buf = [0usize; 3];
        buf[..s.len()].copy_from_slice(s);
        Coords {
            buf,
            len: s.len() as u8,
        }
    }

    /// The coordinates as a slice (slow-to-fast axis order).
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for Coords {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl PartialEq<Vec<usize>> for Coords {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Coords> for Vec<usize> {
    fn eq(&self, other: &Coords) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[usize]> for Coords {
    fn eq(&self, other: &[usize]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[usize; N]> for Coords {
    fn eq(&self, other: &[usize; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Location and valid extent of one block inside a field.
///
/// `origin` and `size` always have exactly `dims.rank()` entries, ordered
/// slow-to-fast (`[z, y, x]` for 3D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    /// Linear index of the block in the block grid (row-major over the grid).
    pub index: usize,
    /// Origin of the block in field coordinates.
    pub origin: Coords,
    /// Valid extent of the block along each axis (≤ nominal block size at edges).
    pub size: Coords,
    /// Nominal (requested) block edge length.
    pub nominal: usize,
}

impl BlockSpec {
    /// Build the spec of the `i`-th block (row-major over the block grid) of
    /// a field with extents `dims`, without needing the field itself — the
    /// random-access entry point the archive layer uses to map a chunk index
    /// back to its region. Allocation-free: everything lives in fixed
    /// rank-≤-3 arrays.
    pub fn of(dims: Dims, block: usize, i: usize) -> BlockSpec {
        let block = block.max(1);
        let (rank, ext) = match dims {
            Dims::D1 { n } => (1usize, [n, 1, 1]),
            Dims::D2 { ny, nx } => (2, [ny, nx, 1]),
            Dims::D3 { nz, ny, nx } => (3, [nz, ny, nx]),
        };
        let mut grid = [1usize; 3];
        for ax in 0..rank {
            grid[ax] = ext[ax].div_ceil(block);
        }
        let mut origin = [0usize; 3];
        let mut rem = i;
        for ax in (0..rank).rev() {
            origin[ax] = (rem % grid[ax]) * block;
            rem /= grid[ax];
        }
        let mut size = [0usize; 3];
        for ax in 0..rank {
            size[ax] = block.min(ext[ax] - origin[ax]);
        }
        BlockSpec {
            index: i,
            origin: Coords::from_slice(&origin[..rank]),
            size: Coords::from_slice(&size[..rank]),
            nominal: block,
        }
    }

    /// Number of valid (in-field) elements covered by this block.
    pub fn valid_len(&self) -> usize {
        self.size.iter().product()
    }

    /// Number of elements of the padded, nominal-size cube/square/segment.
    pub fn padded_len(&self, rank: usize) -> usize {
        self.nominal.pow(rank as u32)
    }

    /// True when the block is full-size along every axis (no edge truncation).
    pub fn is_full(&self) -> bool {
        self.size.iter().all(|&s| s == self.nominal)
    }
}

/// A block extracted from a field: the spec plus a padded copy of the values.
///
/// The padded buffer always has `nominal^rank` elements; positions outside the
/// valid extent are filled by edge replication so that the convolutional
/// autoencoder always sees a full-size input, matching the treatment of
/// boundary blocks in the paper.
#[derive(Debug, Clone)]
pub struct Block {
    /// Placement of this block in the parent field.
    pub spec: BlockSpec,
    /// Padded values, row-major over the nominal block shape.
    pub data: Vec<f32>,
}

impl Field {
    /// Create a field filled with zeros.
    pub fn zeros(dims: Dims) -> Self {
        Field {
            dims,
            data: vec![0.0; dims.len()],
        }
    }

    /// Create a field from an existing buffer; the length must match the dims.
    pub fn from_vec(dims: Dims, data: Vec<f32>) -> Result<Self> {
        if data.len() != dims.len() {
            return Err(TensorError::ShapeMismatch {
                expected: dims.len(),
                got: data.len(),
            });
        }
        Ok(Field { dims, data })
    }

    /// Create a field by evaluating `f` at every coordinate (slow-to-fast order).
    pub fn from_fn(dims: Dims, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        match dims {
            Dims::D1 { n } => {
                for x in 0..n {
                    data.push(f(&[x]));
                }
            }
            Dims::D2 { ny, nx } => {
                for y in 0..ny {
                    for x in 0..nx {
                        data.push(f(&[y, x]));
                    }
                }
            }
            Dims::D3 { nz, ny, nx } => {
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            data.push(f(&[z, y, x]));
                        }
                    }
                }
            }
        }
        Field { dims, data }
    }

    /// Extents of the field.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the field, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Minimum and maximum value (ignoring NaNs). Returns `(0, 0)` for empty fields.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Value range `max − min` of the field (0 for constant or empty fields).
    pub fn value_range(&self) -> f32 {
        let (lo, hi) = self.min_max();
        hi - lo
    }

    /// Linearly map the field into `[-1, 1]` based on its global min/max,
    /// returning the normalized copy together with `(min, max)` needed to undo
    /// the mapping. Constant fields map to all-zero.
    pub fn normalize_pm1(&self) -> (Field, f32, f32) {
        let (lo, hi) = self.min_max();
        let range = hi - lo;
        let data = if range == 0.0 {
            vec![0.0; self.data.len()]
        } else {
            self.data
                .iter()
                .map(|&v| 2.0 * (v - lo) / range - 1.0)
                .collect()
        };
        (
            Field {
                dims: self.dims,
                data,
            },
            lo,
            hi,
        )
    }

    /// Undo [`Field::normalize_pm1`] on a slice of normalized values.
    pub fn denormalize_pm1(values: &mut [f32], lo: f32, hi: f32) {
        let range = hi - lo;
        if range == 0.0 {
            for v in values.iter_mut() {
                *v = lo;
            }
        } else {
            for v in values.iter_mut() {
                *v = (*v + 1.0) * 0.5 * range + lo;
            }
        }
    }

    /// Iterate over the block grid with nominal edge length `block`.
    pub fn blocks(&self, block: usize) -> BlockIter<'_> {
        BlockIter::new(self, block)
    }

    /// Number of blocks produced by [`Field::blocks`] for the given edge length.
    pub fn block_count(&self, block: usize) -> usize {
        self.dims.block_grid(block).iter().product()
    }

    /// Extract one block (padded to nominal size by edge replication).
    pub fn extract_block(&self, spec: &BlockSpec) -> Block {
        let mut data = Vec::new();
        self.extract_block_into(spec, &mut data);
        Block {
            spec: spec.clone(),
            data,
        }
    }

    /// [`Field::extract_block`] into a caller-owned buffer (cleared first, then
    /// `nominal^rank` values), so per-block paths reuse one allocation. Each
    /// padded row is the block's valid run along the fastest axis followed by
    /// its last value; rows past the valid extent repeat the last valid row.
    pub fn extract_block_into(&self, spec: &BlockSpec, out: &mut Vec<f32>) {
        let b = spec.nominal;
        out.clear();
        out.resize(spec.padded_len(self.dims.rank()), 0.0);
        // Source coordinate of padded index `i` along axis `ax`.
        let src = |ax: usize, i: usize| spec.origin[ax] + i.min(spec.size[ax].saturating_sub(1));
        let pad_row = |dst: &mut [f32], start: usize, len: usize| {
            let run = &self.data[start..start + len];
            let (valid, tail) = dst.split_at_mut(len);
            valid.copy_from_slice(run);
            if let Some(&v) = run.last() {
                tail.fill(v);
            }
        };
        match self.dims {
            Dims::D1 { .. } => pad_row(out, spec.origin[0], spec.size[0]),
            Dims::D2 { nx, .. } => {
                for (by, row) in out.chunks_exact_mut(b).enumerate() {
                    pad_row(row, src(0, by) * nx + spec.origin[1], spec.size[1]);
                }
            }
            Dims::D3 { ny, nx, .. } => {
                for (i, row) in out.chunks_exact_mut(b).enumerate() {
                    let (sz, sy) = (src(0, i / b), src(1, i % b));
                    pad_row(row, (sz * ny + sy) * nx + spec.origin[2], spec.size[2]);
                }
            }
        }
    }

    /// Write the valid region of a (padded) block buffer back into the field.
    pub fn write_block(&mut self, spec: &BlockSpec, padded: &[f32]) {
        let b = spec.nominal;
        match self.dims {
            Dims::D1 { .. } => {
                let dst = spec.origin[0]..spec.origin[0] + spec.size[0];
                self.data[dst].copy_from_slice(&padded[..spec.size[0]]);
            }
            Dims::D2 { nx, .. } => {
                for by in 0..spec.size[0] {
                    let dy = spec.origin[0] + by;
                    for bx in 0..spec.size[1] {
                        self.data[dy * nx + spec.origin[1] + bx] = padded[by * b + bx];
                    }
                }
            }
            Dims::D3 { ny, nx, .. } => {
                for bz in 0..spec.size[0] {
                    let dz = spec.origin[0] + bz;
                    for by in 0..spec.size[1] {
                        let dy = spec.origin[1] + by;
                        for bx in 0..spec.size[2] {
                            self.data[(dz * ny + dy) * nx + spec.origin[2] + bx] =
                                padded[(bz * b + by) * b + bx];
                        }
                    }
                }
            }
        }
    }

    /// Write a block's valid region back from an *unpadded* buffer (the
    /// inverse of [`Field::read_block_valid`]), row-major over `spec.size`.
    ///
    /// # Panics
    /// Panics when `values` is shorter than `spec.valid_len()` or the spec
    /// lies outside the field.
    pub fn write_block_valid(&mut self, spec: &BlockSpec, values: &[f32]) {
        assert!(
            values.len() >= spec.valid_len(),
            "need {} values for the block, got {}",
            spec.valid_len(),
            values.len()
        );
        let mut src = values.iter();
        match self.dims {
            Dims::D1 { .. } => {
                for i in 0..spec.size[0] {
                    self.data[spec.origin[0] + i] = *src.next().expect("length checked");
                }
            }
            Dims::D2 { nx, .. } => {
                for by in 0..spec.size[0] {
                    let dy = spec.origin[0] + by;
                    for bx in 0..spec.size[1] {
                        self.data[dy * nx + spec.origin[1] + bx] =
                            *src.next().expect("length checked");
                    }
                }
            }
            Dims::D3 { ny, nx, .. } => {
                for bz in 0..spec.size[0] {
                    let dz = spec.origin[0] + bz;
                    for by in 0..spec.size[1] {
                        let dy = spec.origin[1] + by;
                        for bx in 0..spec.size[2] {
                            self.data[(dz * ny + dy) * nx + spec.origin[2] + bx] =
                                *src.next().expect("length checked");
                        }
                    }
                }
            }
        }
    }

    /// Read the valid region of a block (no padding), row-major over `spec.size`.
    pub fn read_block_valid(&self, spec: &BlockSpec) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_block_valid_into(spec, &mut out);
        out
    }

    /// [`Field::read_block_valid`] into a caller-owned buffer (cleared
    /// first), copying whole contiguous rows along the fastest axis so
    /// per-block paths reuse one allocation and skip per-element pushes.
    pub fn read_block_valid_into(&self, spec: &BlockSpec, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(spec.valid_len());
        match self.dims {
            Dims::D1 { .. } => {
                let start = spec.origin[0];
                out.extend_from_slice(&self.data[start..start + spec.size[0]]);
            }
            Dims::D2 { nx, .. } => {
                for by in 0..spec.size[0] {
                    let row = (spec.origin[0] + by) * nx + spec.origin[1];
                    out.extend_from_slice(&self.data[row..row + spec.size[1]]);
                }
            }
            Dims::D3 { ny, nx, .. } => {
                for bz in 0..spec.size[0] {
                    let dz = spec.origin[0] + bz;
                    for by in 0..spec.size[1] {
                        let dy = spec.origin[1] + by;
                        let row = (dz * ny + dy) * nx + spec.origin[2];
                        out.extend_from_slice(&self.data[row..row + spec.size[2]]);
                    }
                }
            }
        }
    }

    /// Serialize the raw values to little-endian bytes (the on-disk format of
    /// SDRBench single-precision fields).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 4);
        for &v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parse a field from little-endian `f32` bytes.
    pub fn from_le_bytes(dims: Dims, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != dims.len() * 4 {
            return Err(TensorError::ShapeMismatch {
                expected: dims.len() * 4,
                got: bytes.len(),
            });
        }
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Field { dims, data })
    }
}

impl std::ops::Index<usize> for Field {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Field {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

/// Iterator over the block grid of a field, yielding [`BlockSpec`]s in
/// row-major order over the grid.
pub struct BlockIter<'a> {
    field: &'a Field,
    block: usize,
    next: usize,
    total: usize,
}

impl<'a> BlockIter<'a> {
    fn new(field: &'a Field, block: usize) -> Self {
        let total = field.dims.block_grid(block).iter().product();
        BlockIter {
            field,
            block: block.max(1),
            next: 0,
            total,
        }
    }

    /// Build the spec for the `i`-th block of the grid without iterating.
    pub fn spec_at(field: &Field, block: usize, i: usize) -> BlockSpec {
        BlockSpec::of(field.dims, block, i)
    }
}

impl Iterator for BlockIter<'_> {
    type Item = BlockSpec;

    fn next(&mut self) -> Option<BlockSpec> {
        if self.next >= self.total {
            return None;
        }
        let spec = BlockIter::spec_at(self.field, self.block, self.next);
        self.next += 1;
        Some(spec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp2d(ny: usize, nx: usize) -> Field {
        Field::from_fn(Dims::d2(ny, nx), |c| (c[0] * nx + c[1]) as f32)
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Field::from_vec(Dims::d2(2, 2), vec![1.0; 4]).is_ok());
        assert!(Field::from_vec(Dims::d2(2, 2), vec![1.0; 5]).is_err());
    }

    #[test]
    fn min_max_and_range() {
        let f = Field::from_vec(Dims::d1(4), vec![-3.0, 1.0, 2.5, 0.0]).unwrap();
        assert_eq!(f.min_max(), (-3.0, 2.5));
        assert_eq!(f.value_range(), 5.5);
    }

    #[test]
    fn min_max_ignores_nan_and_handles_empty() {
        let f = Field::from_vec(Dims::d1(3), vec![f32::NAN, 1.0, -2.0]).unwrap();
        assert_eq!(f.min_max(), (-2.0, 1.0));
        let e = Field::zeros(Dims::d1(0));
        assert_eq!(e.min_max(), (0.0, 0.0));
    }

    #[test]
    fn normalize_roundtrip() {
        let f = Field::from_vec(Dims::d1(5), vec![-2.0, -1.0, 0.0, 1.0, 2.0]).unwrap();
        let (n, lo, hi) = f.normalize_pm1();
        assert!((n[0] + 1.0).abs() < 1e-6);
        assert!((n[4] - 1.0).abs() < 1e-6);
        let mut back = n.as_slice().to_vec();
        Field::denormalize_pm1(&mut back, lo, hi);
        for (a, b) in back.iter().zip(f.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalize_constant_field() {
        let f = Field::from_vec(Dims::d1(3), vec![7.0; 3]).unwrap();
        let (n, lo, hi) = f.normalize_pm1();
        assert_eq!(n.as_slice(), &[0.0, 0.0, 0.0]);
        let mut back = n.as_slice().to_vec();
        Field::denormalize_pm1(&mut back, lo, hi);
        assert_eq!(back, vec![7.0; 3]);
    }

    #[test]
    fn block_grid_counts() {
        let f = ramp2d(70, 64);
        assert_eq!(f.block_count(32), 3 * 2);
        let specs: Vec<_> = f.blocks(32).collect();
        assert_eq!(specs.len(), 6);
        // Last block row is truncated to 6 rows.
        assert_eq!(specs[4].size, vec![6, 32]);
        assert!(specs[0].is_full());
        assert!(!specs[4].is_full());
    }

    #[test]
    fn extract_and_write_roundtrip_2d() {
        let f = ramp2d(40, 40);
        let mut g = Field::zeros(Dims::d2(40, 40));
        for spec in f.blocks(16) {
            let blk = f.extract_block(&spec);
            g.write_block(&spec, &blk.data);
        }
        assert_eq!(f.as_slice(), g.as_slice());
    }

    #[test]
    fn extract_and_write_roundtrip_3d() {
        let f = Field::from_fn(Dims::d3(9, 10, 11), |c| {
            (c[0] * 110 + c[1] * 11 + c[2]) as f32
        });
        let mut g = Field::zeros(Dims::d3(9, 10, 11));
        for spec in f.blocks(8) {
            let blk = f.extract_block(&spec);
            g.write_block(&spec, &blk.data);
        }
        assert_eq!(f.as_slice(), g.as_slice());
    }

    #[test]
    fn edge_padding_replicates() {
        // 3-wide 1D field, block size 4: the padded tail must repeat the last value.
        let f = Field::from_vec(Dims::d1(3), vec![1.0, 2.0, 3.0]).unwrap();
        let spec = f.blocks(4).next().unwrap();
        let blk = f.extract_block(&spec);
        assert_eq!(blk.data, vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn extract_into_a_reused_buffer_replicates_every_edge() {
        let f = Field::from_fn(Dims::d3(5, 6, 7), |c| (c[0] * 42 + c[1] * 7 + c[2]) as f32);
        let mut buf = vec![f32::NAN; 3];
        for spec in f.blocks(4) {
            f.extract_block_into(&spec, &mut buf);
            assert_eq!(buf.len(), 64);
            for (i, &v) in buf.iter().enumerate() {
                let at = |ax: usize, p: usize| spec.origin[ax] + p.min(spec.size[ax] - 1);
                let (z, y, x) = (at(0, i / 16), at(1, i / 4 % 4), at(2, i % 4));
                assert_eq!(v, f.as_slice()[(z * 6 + y) * 7 + x]);
            }
        }
    }

    #[test]
    fn spec_of_matches_iteration_without_a_field() {
        let f = Field::from_fn(Dims::d3(9, 10, 11), |c| c[2] as f32);
        for spec in f.blocks(4) {
            assert_eq!(BlockSpec::of(f.dims(), 4, spec.index), spec);
        }
    }

    #[test]
    fn write_block_valid_roundtrips_read_block_valid() {
        let f = Field::from_fn(Dims::d3(7, 9, 5), |c| (c[0] * 45 + c[1] * 5 + c[2]) as f32);
        let mut g = Field::zeros(f.dims());
        for spec in f.blocks(4) {
            g.write_block_valid(&spec, &f.read_block_valid(&spec));
        }
        assert_eq!(f.as_slice(), g.as_slice());
        let mut h = Field::zeros(Dims::d2(5, 7));
        let f2 = Field::from_fn(Dims::d2(5, 7), |c| (c[0] * 7 + c[1]) as f32);
        for spec in f2.blocks(3) {
            h.write_block_valid(&spec, &f2.read_block_valid(&spec));
        }
        assert_eq!(f2.as_slice(), h.as_slice());
    }

    #[test]
    fn read_block_valid_matches_extract_for_full_blocks() {
        let f = ramp2d(32, 32);
        let spec = f.blocks(32).next().unwrap();
        assert_eq!(f.read_block_valid(&spec), f.extract_block(&spec).data);
    }

    #[test]
    fn le_bytes_roundtrip() {
        let f = ramp2d(3, 5);
        let bytes = f.to_le_bytes();
        let g = Field::from_le_bytes(Dims::d2(3, 5), &bytes).unwrap();
        assert_eq!(f, g);
        assert!(Field::from_le_bytes(Dims::d2(3, 5), &bytes[..8]).is_err());
    }

    #[test]
    fn from_fn_order_is_row_major() {
        let f = Field::from_fn(Dims::d3(2, 2, 2), |c| (c[0] * 4 + c[1] * 2 + c[2]) as f32);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }
}
