//! Shared state of the allocation-free inference path.
//!
//! [`Layer::infer_into`](crate::layer::Layer::infer_into) threads two pieces
//! of caller-owned state through the network so a resident compressor fork
//! performs no per-call heap allocation once warm:
//!
//! * [`Shape`] — a fixed-capacity copy type describing the activation layout,
//!   so shape flow itself never touches the heap (a `Vec<usize>` per layer
//!   per call would).
//! * [`NnScratch`] — the ping-pong activations, the convolution's padded
//!   sample and tap table (see [`crate::im2col`]), the packed GEMM operands
//!   and the GDN coefficients and squares tile. All grow to their
//!   high-water mark on the first batch and are reused verbatim afterwards.
//!
//! `NnScratch` deliberately clones as *empty*: compressors keep one scratch
//! per fork (`AeSz`/`AeA`/`AeB` each own one), and a fork must not drag a
//! sibling's multi-megabyte buffers along — it warms its own on first use,
//! which is exactly the per-worker residency model of `aesz serve`.

/// Activation shape with fixed capacity (rank ≤ 5: `(N, C, D, H, W)` covers
/// every layer in the AE-SZ architecture). `Copy`, so passing shapes around
/// the inference path allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    dims: [usize; 5],
    rank: usize,
}

impl Shape {
    /// Maximum representable rank.
    pub const MAX_RANK: usize = 5;

    /// Shape from a dims slice. Panics above rank 5 — the architecture never
    /// produces one, so this is a programming error, not a data error.
    pub fn new(dims: &[usize]) -> Shape {
        assert!(dims.len() <= Self::MAX_RANK, "rank {} > 5", dims.len());
        let mut d = [0usize; Self::MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: d,
            rank: dims.len(),
        }
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// True when the shape holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resident scratch of the inference path: every buffer a forward pass needs,
/// owned by the caller so repeated calls are allocation-free once warm.
#[derive(Default, Debug)]
pub struct NnScratch {
    /// Ping-pong activation buffers of [`Sequential::infer_into`]
    /// (crate::sequential::Sequential::infer_into).
    pub(crate) ping: Vec<f32>,
    pub(crate) pong: Vec<f32>,
    /// Padded, phase-split sample and tap-offset table of the convolutions.
    pub(crate) pad: Vec<f32>,
    pub(crate) taps: Vec<usize>,
    /// MR-interleaved `A` operand of [`crate::gemm`] (conv weights, dense
    /// inputs).
    pub(crate) a_pack: Vec<f32>,
    /// Packed `Wᵀ` panel of the dense layers.
    pub(crate) packed: Vec<f32>,
    /// GDN effective coefficients and the squares of one position tile,
    /// partitioned `[β c | γ c² | x² c·T]` for `c` channels and `T = 64`
    /// positions (see [`crate::gdn`]).
    pub(crate) coeff: Vec<f32>,
}

impl NnScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total resident capacity in elements (for diagnostics).
    pub fn resident_elems(&self) -> usize {
        self.ping.capacity()
            + self.pong.capacity()
            + self.pad.capacity()
            + self.taps.capacity()
            + self.a_pack.capacity()
            + self.packed.capacity()
            + self.coeff.capacity()
    }
}

/// Forks start cold: cloning a compressor must not duplicate megabytes of
/// scratch, and every fork re-warms its own buffers on first use.
impl Clone for NnScratch {
    fn clone(&self) -> Self {
        NnScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_roundtrips_dims() {
        let s = Shape::new(&[2, 1, 8, 8]);
        assert_eq!(s.dims(), &[2, 1, 8, 8]);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.len(), 128);
        assert!(!s.is_empty());
        assert!(Shape::new(&[3, 0, 2]).is_empty());
    }

    #[test]
    fn scratch_clones_empty() {
        let mut s = NnScratch::new();
        s.ping.resize(1024, 0.0);
        s.pad.resize(4096, 0.0);
        assert!(s.resident_elems() >= 5120);
        let c = s.clone();
        assert_eq!(c.resident_elems(), 0);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn shape_rejects_rank_above_five() {
        Shape::new(&[1, 2, 3, 4, 5, 6]);
    }
}
