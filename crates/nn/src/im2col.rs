//! Lowering N-dimensional convolution onto the [`gemm`](crate::gemm) engine
//! as an *implicit* GEMM, plus the `col2im` fold.
//!
//! `K` ranges over the kernel taps in the weight layout's `(ci, dk, hk, wk)`
//! order and `P` over one output row (`od`, `oh` fixed). Instead of
//! unfolding a `(K, P)` column panel, `pad_sample_into` copies a sample
//! once into a zero-padded buffer whose rows are phase-split by the w
//! stride, and `tap_offsets_into` tabulates where each tap's contiguous
//! input run starts relative to a row's `ConvGeom::row_base`. Padded taps
//! read explicit `0.0` entries, so each output element sums its taps in the
//! direct loop's order with `+0.0` for the pads — bit-identical for finite
//! weights (see [`gemm`](crate::gemm) for the one caveat).
//!
//! `col2im` is the adjoint scatter-add of a column panel, the pairing a
//! GEMM-lowered backward pass (`dX = col2im(Wᵀ·dY)`) would use; it keeps a
//! scalar reference twin held bitwise by the differential harness.

/// Geometry of one convolution lowering: a single sample's input extents,
/// kernel, stride and padding, with the output extents derived. 2D data uses
/// depth extent 1 with a 1×k×k kernel, exactly like
/// [`ConvNd`](crate::conv::ConvNd).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Input spatial extents `(d, h, w)`.
    pub in_dhw: [usize; 3],
    /// Kernel extents `(kd, kh, kw)`.
    pub kernel_dhw: [usize; 3],
    /// Strides `(sd, sh, sw)`.
    pub stride_dhw: [usize; 3],
    /// Leading pads `(pd, ph, pw)` (same-padding uses `k/2`).
    pub pad_dhw: [usize; 3],
    /// Output spatial extents `(d, h, w)`.
    pub out_dhw: [usize; 3],
}

fn out_extent(extent: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    (extent + 2 * pad - kernel) / stride + 1
}

impl ConvGeom {
    /// Geometry with output extents derived from input/kernel/stride/pad.
    pub fn new(
        channels: usize,
        in_dhw: [usize; 3],
        kernel_dhw: [usize; 3],
        stride_dhw: [usize; 3],
        pad_dhw: [usize; 3],
    ) -> ConvGeom {
        let out = |i: usize| out_extent(in_dhw[i], kernel_dhw[i], pad_dhw[i], stride_dhw[i]);
        ConvGeom {
            channels,
            in_dhw,
            kernel_dhw,
            stride_dhw,
            pad_dhw,
            out_dhw: [out(0), out(1), out(2)],
        }
    }

    /// Taps per output element, `channels · kd·kh·kw`: the GEMM `K`.
    pub fn k_rows(&self) -> usize {
        self.channels * self.kernel_dhw.iter().product::<usize>()
    }

    /// Input spatial length per channel.
    pub fn in_spatial(&self) -> usize {
        self.in_dhw.iter().product()
    }

    /// Output spatial length per channel, the full GEMM `P`.
    pub fn out_spatial(&self) -> usize {
        self.out_dhw.iter().product()
    }

    /// Output "rows" (one per `(od, oh)` pair): each is a contiguous run of
    /// `out_dhw[2]` positions of the output, the `P` of one GEMM call.
    pub fn out_rows(&self) -> usize {
        self.out_dhw[0] * self.out_dhw[1]
    }

    /// Padded spatial extents `(d+2pd, h+2ph, w+2pw)` of the
    /// [`pad_sample_into`] buffer.
    pub(crate) fn padded_dhw(&self) -> [usize; 3] {
        std::array::from_fn(|i| self.in_dhw[i] + 2 * self.pad_dhw[i])
    }

    /// Length of the [`pad_sample_into`] buffer: every channel's padded
    /// volume.
    pub(crate) fn padded_len(&self) -> usize {
        self.channels * self.padded_dhw().iter().product::<usize>()
    }

    /// Offset of phase `q` within a padded row split by the w stride: the
    /// number of padded columns whose residue mod the stride is below `q`.
    fn phase_start(&self, q: usize) -> usize {
        let (wp, sw) = (self.padded_dhw()[2], self.stride_dhw[2]);
        (0..q).map(|r| wp.saturating_sub(r).div_ceil(sw)).sum()
    }

    /// Where output row `r` (`od = r / oh_e`, `oh = r % oh_e`) starts
    /// reading the [`pad_sample_into`] buffer; tap `k` of that row reads
    /// `row_base(r) + taps[k]`.
    pub(crate) fn row_base(&self, r: usize) -> usize {
        let [_, hp, wp] = self.padded_dhw();
        let (od, oh) = (r / self.out_dhw[1], r % self.out_dhw[1]);
        (od * self.stride_dhw[0] * hp + oh * self.stride_dhw[1]) * wp
    }
}

/// Copy one sample `x` into `dst` ([`ConvGeom::padded_len`] values): each
/// channel becomes a padded `(d+2pd)×(h+2ph)×(w+2pw)` volume whose rows,
/// for a w stride `s > 1`, are split into `s` phases (padded columns
/// `q, q+s, …` stored contiguously). Tap `wk` of output column `ow` then
/// reads `phase(wk % s) + wk / s + ow` within its row — a contiguous run.
/// Only data positions are written; the pads must already be `0.0`, as a
/// buffer zeroed once per geometry stays across samples.
pub(crate) fn pad_sample_into(x: &[f32], g: &ConvGeom, dst: &mut [f32]) {
    let [id_e, ih_e, iw_e] = g.in_dhw;
    let [pd, ph, pw] = g.pad_dhw;
    let [_, hp, wp] = g.padded_dhw();
    let sw = g.stride_dhw[2];
    let chan = g.padded_len() / g.channels.max(1);
    assert!(x.len() >= g.channels * g.in_spatial(), "sample too small");
    assert!(dst.len() >= g.padded_len(), "padded buffer too small");
    // Phase q holds padded columns q, q+sw, …: `n` data columns starting at
    // padded column c0 (the first one at or past the left pad), stored from
    // `to` within the padded row.
    for q in 0..sw {
        let c0 = pw + (q + sw - pw % sw) % sw;
        if c0 >= pw + iw_e {
            continue;
        }
        let (n, from, to) = (
            (pw + iw_e - c0).div_ceil(sw),
            c0 - pw,
            g.phase_start(q) + c0 / sw,
        );
        let planes = x.chunks_exact(ih_e * iw_e).take(g.channels * id_e);
        for (p, plane) in planes.enumerate() {
            let (ci, id) = (p / id_e, p % id_e);
            let base = ci * chan + ((id + pd) * hp + ph) * wp + to;
            for (ih, src) in plane.chunks_exact(iw_e).enumerate() {
                let row = &mut dst[base + ih * wp..][..n];
                if sw == 1 {
                    row.copy_from_slice(&src[from..from + n]);
                } else {
                    for (i, d) in row.iter_mut().enumerate() {
                        *d = src[from + i * sw];
                    }
                }
            }
        }
    }
}

/// Tap-offset table of the implicit GEMM, one entry per `k` in the weight
/// layout's `(ci, dk, hk, wk)` order: where tap `k`'s contiguous input run
/// starts in the [`pad_sample_into`] buffer, relative to an output row's
/// [`ConvGeom::row_base`].
pub(crate) fn tap_offsets_into(g: &ConvGeom, taps: &mut Vec<usize>) {
    let [kd, kh, kw] = g.kernel_dhw;
    let [dp, hp, wp] = g.padded_dhw();
    let sw = g.stride_dhw[2];
    taps.clear();
    for ci in 0..g.channels {
        for dk in 0..kd {
            for hk in 0..kh {
                for wk in 0..kw {
                    let row = ((ci * dp + dk) * hp + hk) * wp;
                    taps.push(row + g.phase_start(wk % sw) + wk / sw);
                }
            }
        }
    }
}

/// Fold a column panel back onto one input sample, accumulating (`x +=`).
/// `col` is a `(k_rows, (or1-or0)·out_w)` column panel, the layout an im2col
/// unfold would produce; entries whose tap fell in the padding are dropped.
/// Accumulation order is row-major over the panel (ascending `k`,
/// then ascending position), pinned for the reference twin.
pub fn col2im_into(col: &[f32], g: &ConvGeom, or0: usize, or1: usize, x: &mut [f32]) {
    let [id_e, ih_e, iw_e] = g.in_dhw;
    let [kd, kh, kw] = g.kernel_dhw;
    let [sd, sh, sw] = g.stride_dhw;
    let [pd, ph, pw] = g.pad_dhw;
    let [_, oh_e, ow_e] = g.out_dhw;
    let in_spatial = g.in_spatial();
    let np = (or1 - or0) * ow_e;
    assert!(col.len() >= g.k_rows() * np, "panel too small");
    assert!(x.len() >= g.channels * in_spatial, "sample too small");
    let mut row = 0usize;
    for ci in 0..g.channels {
        for dk in 0..kd {
            for hk in 0..kh {
                for wk in 0..kw {
                    let src_row = &col[row * np..(row + 1) * np];
                    for (ri, r) in (or0..or1).enumerate() {
                        let (od, oh) = (r / oh_e, r % oh_e);
                        let id = (od * sd + dk) as isize - pd as isize;
                        let ih = (oh * sh + hk) as isize - ph as isize;
                        if id < 0 || id >= id_e as isize || ih < 0 || ih >= ih_e as isize {
                            continue;
                        }
                        let base = ci * in_spatial + (id as usize * ih_e + ih as usize) * iw_e;
                        for ow in 0..ow_e {
                            let iw = (ow * sw + wk) as isize - pw as isize;
                            if iw < 0 || iw >= iw_e as isize {
                                continue;
                            }
                            x[base + iw as usize] += src_row[ri * ow_e + ow];
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

/// Scalar reference twin of [`col2im_into`], same pinned accumulation order
/// with one bounds check per entry.
pub fn col2im_reference(col: &[f32], g: &ConvGeom, or0: usize, or1: usize, x: &mut [f32]) {
    let [id_e, ih_e, iw_e] = g.in_dhw;
    let [kd, kh, kw] = g.kernel_dhw;
    let [sd, sh, sw] = g.stride_dhw;
    let [pd, ph, pw] = g.pad_dhw;
    let [_, oh_e, ow_e] = g.out_dhw;
    let in_spatial = g.in_spatial();
    let np = (or1 - or0) * ow_e;
    let mut row = 0usize;
    for ci in 0..g.channels {
        for dk in 0..kd {
            for hk in 0..kh {
                for wk in 0..kw {
                    for (ri, r) in (or0..or1).enumerate() {
                        let (od, oh) = (r / oh_e, r % oh_e);
                        for ow in 0..ow_e {
                            let id = (od * sd + dk) as isize - pd as isize;
                            let ih = (oh * sh + hk) as isize - ph as isize;
                            let iw = (ow * sw + wk) as isize - pw as isize;
                            let inside = id >= 0
                                && id < id_e as isize
                                && ih >= 0
                                && ih < ih_e as isize
                                && iw >= 0
                                && iw < iw_e as isize;
                            if inside {
                                let xi = ci * in_spatial
                                    + (id as usize * ih_e + ih as usize) * iw_e
                                    + iw as usize;
                                x[xi] += col[row * np + ri * ow_e + ow];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn geometry_matches_same_padding_arithmetic() {
        // 3x3 kernel, pad 1: stride 1 preserves, stride 2 halves even sizes.
        let g = ConvGeom::new(2, [1, 8, 8], [1, 3, 3], [1, 1, 1], [0, 1, 1]);
        assert_eq!(g.out_dhw, [1, 8, 8]);
        assert_eq!(g.k_rows(), 2 * 9);
        let g2 = ConvGeom::new(1, [8, 8, 8], [3, 3, 3], [2, 2, 2], [1, 1, 1]);
        assert_eq!(g2.out_dhw, [4, 4, 4]);
    }

    #[test]
    fn padded_taps_read_exactly_the_direct_loop_inputs() {
        // Every (row, tap, column) of the implicit GEMM must read the value
        // the direct loop would, or an explicit 0.0 where it skips a pad.
        for &(stride, [d, h, w]) in &[
            (1usize, [1usize, 5usize, 5usize]),
            (2, [1, 6, 7]),
            (3, [1, 7, 7]),
            (2, [3, 4, 5]),
        ] {
            let kd = if d == 1 { 1 } else { 3 };
            let g = ConvGeom::new(
                2,
                [d, h, w],
                [kd, 3, 3],
                [if d == 1 { 1 } else { stride }, stride, stride],
                [kd / 2, 1, 1],
            );
            let x: Vec<f32> = (0..2 * g.in_spatial())
                .map(|i| (i as f32 * 0.31).sin() + 2.0)
                .collect();
            let (mut pad, mut taps) = (vec![0.0; g.padded_len()], Vec::new());
            pad_sample_into(&x, &g, &mut pad);
            tap_offsets_into(&g, &mut taps);
            assert_eq!(taps.len(), g.k_rows());
            let [sd, sh, sw] = g.stride_dhw;
            for r in 0..g.out_rows() {
                let (od, oh) = (r / g.out_dhw[1], r % g.out_dhw[1]);
                for (k, &tap) in taps.iter().enumerate() {
                    let (ci, t) = (k / (kd * 9), k % (kd * 9));
                    let (dk, hk, wk) = (t / 9, t % 9 / 3, t % 3);
                    for ow in 0..g.out_dhw[2] {
                        let id = (od * sd + dk) as isize - (kd / 2) as isize;
                        let ih = (oh * sh + hk) as isize - 1;
                        let iw = (ow * sw + wk) as isize - 1;
                        let inside = (0..d as isize).contains(&id)
                            && (0..h as isize).contains(&ih)
                            && (0..w as isize).contains(&iw);
                        let want = if inside {
                            x[ci * g.in_spatial()
                                + (id as usize * h + ih as usize) * w
                                + iw as usize]
                        } else {
                            0.0
                        };
                        let got = pad[g.row_base(r) + tap + ow];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "stride {stride} r {r} k {k} ow {ow}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_then_unfold_matches_reference_3d() {
        let g = ConvGeom::new(2, [4, 4, 4], [3, 3, 3], [2, 2, 2], [1, 1, 1]);
        let np = g.out_spatial();
        let col: Vec<f32> = (0..g.k_rows() * np)
            .map(|i| (i as f32 * 0.17).cos())
            .collect();
        let mut fast = vec![0.0f32; 2 * g.in_spatial()];
        let mut slow = fast.clone();
        col2im_into(&col, &g, 0, g.out_rows(), &mut fast);
        col2im_reference(&col, &g, 0, g.out_rows(), &mut slow);
        assert_eq!(bits(&fast), bits(&slow));
        assert!(fast.iter().any(|&v| v != 0.0));
    }
}
