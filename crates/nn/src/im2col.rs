//! Lowering N-dimensional convolution onto the [`gemm`](crate::gemm) engine
//! as an *implicit* GEMM, forward and backward.
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
//! The training backward reuses both. `unfold_rows_into` gathers, from the
//! same padded copy and tap table, the `(positions × K)` panel of the taps
//! each output position of a run of rows read — the `B` of `dW += dY·Xcolᵀ`.
//! `stuff_sample_into` spreads an output gradient by the stride into a
//! zero-padded buffer, so `dX` is a stride-1 implicit GEMM over it.

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

/// The `(positions × K)` panel of output rows `rows`: position
/// `(r − rows.start)·ow + o` holds, for each tap `k`, the value the forward
/// read at `pad[row_base(r) + taps[k] + o]` (an explicit `0.0` for a padded
/// tap). `pad` is a [`pad_sample_into`] buffer and `taps` its
/// [`tap_offsets_into`] table. Taps go in blocks of eight: a block reads
/// eight contiguous runs of the row in step and stores eight adjacent panel
/// entries per position, about three times faster than one strided store
/// per value.
pub(crate) fn unfold_rows_into(
    pad: &[f32],
    g: &ConvGeom,
    taps: &[usize],
    rows: std::ops::Range<usize>,
    panel: &mut Vec<f32>,
) {
    let (k, ow) = (taps.len(), g.out_dhw[2]);
    panel.clear();
    panel.resize(rows.len() * ow * k, 0.0);
    for (r, dst) in rows.zip(panel.chunks_exact_mut(ow * k)) {
        let row = &pad[g.row_base(r)..];
        let mut k0 = 0;
        for blk in taps.chunks(8) {
            if let Ok(blk) = <&[usize; 8]>::try_from(blk) {
                let runs: [&[f32]; 8] = blk.map(|t| &row[t..t + ow]);
                for (o, d) in dst.chunks_exact_mut(k).enumerate() {
                    let v: [f32; 8] = std::array::from_fn(|j| runs[j][o]);
                    d[k0..k0 + 8].copy_from_slice(&v);
                }
            } else {
                for (o, d) in dst.chunks_exact_mut(k).enumerate() {
                    for (j, &t) in blk.iter().enumerate() {
                        d[k0 + j] = row[t + o];
                    }
                }
            }
            k0 += blk.len();
        }
    }
}

/// Scatter one sample `y` (`channels` × `y_dhw`) into the zero-padded
/// buffer of the stride-1 geometry `g`, spread by `stride`: `y[c][d][h][w]`
/// lands at padded `(c, d·sd + pd, h·sh + ph, w·sw + pw)`, and the
/// `stride − 1` slots between neighbours keep their `0.0`. Like
/// [`pad_sample_into`], only data positions are written, so a buffer zeroed
/// once per geometry stays valid across samples.
pub(crate) fn stuff_sample_into(
    y: &[f32],
    y_dhw: [usize; 3],
    stride: [usize; 3],
    g: &ConvGeom,
    dst: &mut [f32],
) {
    let [yd, yh, yw] = y_dhw;
    let [sd, sh, sw] = stride;
    let [pd, ph, pw] = g.pad_dhw;
    let [dp, hp, wp] = g.padded_dhw();
    assert!(
        (yd - 1) * sd + pd < dp && (yh - 1) * sh + ph < hp && (yw - 1) * sw + pw < wp,
        "stuffed sample overruns the padded volume"
    );
    assert!(y.len() >= g.channels * yd * yh * yw, "sample too small");
    assert!(dst.len() >= g.padded_len(), "padded buffer too small");
    for (i, src) in y.chunks_exact(yw).take(g.channels * yd * yh).enumerate() {
        let (cd, h) = (i / yh, i % yh);
        let (c, d) = (cd / yd, cd % yd);
        let base = ((c * dp + d * sd + pd) * hp + h * sh + ph) * wp + pw;
        if sw == 1 {
            dst[base..][..yw].copy_from_slice(src);
        } else {
            for (w, &v) in src.iter().enumerate() {
                dst[base + w * sw] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // the direct loop would, or an explicit 0.0 where it skips a pad;
        // the backward's unfolded panel holds the same values by position.
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
            let mut panel = Vec::new();
            unfold_rows_into(&pad, &g, &taps, 0..g.out_rows(), &mut panel);
            assert_eq!(panel.len(), g.out_spatial() * g.k_rows());
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
                        let unfolded = panel[(r * g.out_dhw[2] + ow) * taps.len() + k];
                        assert_eq!(unfolded.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }
}
