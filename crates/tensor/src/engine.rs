//! The block-row lane engine of the SZ-style codecs (AE-SZ and SZ2.1).
//!
//! Both codecs walk a field's blocks in row-major order over the block grid
//! ([`BlockSpec::of`]). Each block picks a predictor, quantizes its residuals
//! against 2·eb, and contributes its codes, its escaped values and its side
//! values (AE-SZ's block means, SZ2.1's regression coefficients) in block
//! order. The blocks of one slowest-axis *block row* are contiguous in that
//! order, and so are their codes: block row `r` owns the field values
//! `[r·row_values, (r + 1)·row_values)`, where `row_values` is the block edge
//! times the product of the faster extents. Those values are also the row's
//! *slab*: the whole field planes (rows in 2D) its blocks cover.
//!
//! [`BlockRows`] splits the block rows into lanes ([`crate::lanes`]), one per
//! [`LANE_VALUES`] values and at most one per core, so small fields (archive
//! chunks, served fields) run on the calling thread. A codec
//! supplies only its per-block step:
//!
//! * [`BlockRows::encode`] gives each lane its block range, its `&mut` slices
//!   of the caller's field-sized code buffer and per-block choice buffer, and
//!   escape and side vectors reserved on the calling thread. The codec's
//!   select-and-quantize step runs once per block; escapes and side values
//!   are concatenated in lane order.
//! * [`BlockRows::decode`] walks the decoded codes and choices once, giving
//!   each lane its first escape offset and, for every choice, how many
//!   earlier blocks made it (the *ordinal* that indexes a codec's side
//!   values). Each lane then rebuilds its blocks through the codec's
//!   reconstruct step straight into its slab of the output field
//!   ([`write_to_slab`]), with no staging buffer.
//!
//! A block's choice, codes and reconstruction depend only on its own values
//! and on the sections, so any lane split yields the bytes and the field of
//! one lane. Every offset the decoder derives from wire data is read through
//! `get`, so inconsistent sections come back as `None`, never a panic.

use crate::dims::Dims;
use crate::field::{BlockSpec, Field};
use crate::lanes::{self, Lanes};

/// Values per lane: one lane per `LANE_VALUES` values, at most one per core.
pub const LANE_VALUES: usize = 1 << 18;

/// Distinct per-block choices the decoder counts ordinals for (a choice is at
/// most two bits on the wire).
const CHOICES: usize = 4;

/// One lane's per-block buffers, reserved on the calling thread for the
/// largest block: an allocation on a worker thread lands in that thread's
/// malloc arena, which stays resident after the thread exits. `valid` holds
/// the block's values (read by the engine before an encode step, written by
/// a decode step). An encode step leaves the block's codes in `codes` and
/// its escaped values in `escapes`; `recon` and `extra` are the codec's own.
pub struct Scratch<S> {
    /// The block's valid-region values, row-major over `spec.size`.
    pub valid: Vec<f32>,
    /// The block's quantization codes (encode).
    pub codes: Vec<u32>,
    /// The block's escaped values (encode).
    pub escapes: Vec<f32>,
    /// The predictors' reconstruction buffer (encode).
    pub recon: Vec<f32>,
    /// Codec-specific scratch.
    pub extra: S,
}

/// What a decode step gets for one block.
pub struct Block<'a, C> {
    /// The block's predictor choice.
    pub choice: C,
    /// How many earlier blocks made the same choice.
    pub ordinal: usize,
    /// The block's codes.
    pub codes: &'a [u32],
    /// The block's escaped values.
    pub escapes: &'a [f32],
}

/// A field's block rows, split into lanes.
#[derive(Debug, Clone, Copy)]
pub struct BlockRows {
    dims: Dims,
    block: usize,
    blocks: usize,
    row_blocks: usize,
    row_values: usize,
    /// The most values a block of this edge holds.
    block_len: usize,
    plan: Lanes,
}

impl BlockRows {
    /// The block rows of a field with extents `dims` and block edge `block`,
    /// on at most `lanes` lanes (`None`: one per [`LANE_VALUES`] values, at
    /// most one per core).
    pub fn new(dims: Dims, block: usize, lanes: Option<usize>) -> BlockRows {
        let lanes = lanes.unwrap_or_else(|| Lanes::for_batches(dims.len(), LANE_VALUES).count());
        let block = block.max(1);
        let (grid, extents) = (dims.block_grid(block), dims.extents());
        let rank = u32::try_from(extents.len()).unwrap_or(u32::MAX);
        BlockRows {
            dims,
            block,
            blocks: grid.iter().product(),
            row_blocks: grid.iter().skip(1).product(),
            row_values: block.saturating_mul(extents.iter().skip(1).product()),
            block_len: block.saturating_pow(rank),
            plan: Lanes::over(grid.first().copied().unwrap_or(0), lanes),
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// One reserved [`Scratch`] per lane.
    fn scratch<S>(&self, mut extra: impl FnMut() -> S) -> Vec<Scratch<S>> {
        let len = self.block_len.min(self.dims.len());
        (0..self.plan.count())
            .map(|_| Scratch {
                valid: Vec::with_capacity(len),
                codes: Vec::with_capacity(len),
                escapes: Vec::with_capacity(len),
                recon: Vec::with_capacity(len),
                extra: extra(),
            })
            .collect()
    }

    /// Run `step` once per block of `field`, in lanes. The step selects and
    /// quantizes one block, leaving its codes and escapes in the scratch,
    /// appends its side values (at most `side_per_block`, which sizes the
    /// reservation) to the lane's side vector, and returns its choice. The
    /// codes fill `codes` (one per value) and the choices fill `choices` (one
    /// per block). Returns the escapes and the side values in block order, or
    /// `None` when a buffer does not match the field or a step's codes
    /// overrun their block row.
    pub fn encode<C, S, F>(
        &self,
        field: &Field,
        side_per_block: usize,
        codes: &mut [u32],
        choices: &mut [C],
        extra: impl FnMut() -> S,
        step: F,
    ) -> Option<(Vec<f32>, Vec<f32>)>
    where
        C: Send,
        S: Send,
        F: Fn(&BlockSpec, &mut Scratch<S>, &mut Vec<f32>) -> C + Sync,
    {
        if field.dims() != self.dims || codes.len() != field.len() || choices.len() != self.blocks {
            return None;
        }
        let (plan, row_blocks) = (self.plan, self.row_blocks);
        let mut outs: Vec<(Vec<f32>, Vec<f32>)> = plan
            .ranges()
            .map(|rows| {
                let side = (rows.len() * row_blocks).saturating_mul(side_per_block);
                (
                    Vec::with_capacity(self.block_len.min(field.len())),
                    Vec::with_capacity(side.min(field.len())),
                )
            })
            .collect();
        let mut scratch = self.scratch(extra);
        let work = plan
            .ranges()
            .zip(plan.split_mut(codes, self.row_values))
            .zip(plan.split_mut(choices, row_blocks))
            .zip(outs.iter_mut().zip(&mut scratch));
        lanes::run(work, |(((rows, codes), choices), ((escapes, side), sc))| {
            let mut at = 0usize;
            for (i, choice) in (rows.start * row_blocks..).zip(choices) {
                let spec = BlockSpec::of(self.dims, self.block, i);
                field.read_block_valid_into(&spec, &mut sc.valid);
                *choice = step(&spec, sc, side);
                let end = at + sc.codes.len();
                codes.get_mut(at..end).ok_or(())?.copy_from_slice(&sc.codes);
                at = end;
                escapes.extend_from_slice(&sc.escapes);
            }
            (at == codes.len()).then_some(()).ok_or(())
        })
        .ok()?;
        let mut outs = outs.into_iter();
        let (mut escapes, mut side) = outs.next().unwrap_or_default();
        for (e, s) in outs {
            escapes.extend_from_slice(&e);
            side.extend_from_slice(&s);
        }
        Some((escapes, side))
    }

    /// Rebuild every block into `out` (the field's flat values), in lanes:
    /// `step` reconstructs one block's valid region into its scratch's
    /// `valid` from the block's choice, ordinal, codes and escapes. `choices`
    /// holds one choice per block, `codes` one code per value and `escapes`
    /// the escaped values in block order. `None` when a buffer does not
    /// match the grid, a section runs short, a choice is out of range, or a
    /// step fails.
    pub fn decode<C, S, F>(
        &self,
        choices: &[C],
        codes: &[u32],
        escapes: &[f32],
        out: &mut [f32],
        extra: impl FnMut() -> S,
        step: F,
    ) -> Option<()>
    where
        C: Copy + Into<usize> + Sync,
        S: Send,
        F: Fn(&BlockSpec, Block<'_, C>, &mut Scratch<S>) -> Option<()> + Sync,
    {
        let len = self.dims.len();
        if codes.len() != len || out.len() != len || choices.len() != self.blocks {
            return None;
        }
        let (plan, row_blocks, row_values) = (self.plan, self.row_blocks, self.row_values);
        // Each lane's first escape offset and, per choice, the number of
        // blocks before it that made that choice.
        let mut starts = Vec::new();
        let (mut esc, mut ordinals) = (0usize, [0usize; CHOICES]);
        for (codes, choices) in plan
            .split(codes, row_values)
            .zip(plan.split(choices, row_blocks))
        {
            starts.push((esc, ordinals));
            esc += codes.iter().filter(|&&c| c == 0).count();
            for &choice in choices {
                *ordinals.get_mut(choice.into())? += 1;
            }
        }
        let mut scratch = self.scratch(extra);
        let work = plan
            .ranges()
            .zip(plan.split(codes, row_values))
            .zip(plan.split(choices, row_blocks))
            .zip(plan.split_mut(out, row_values))
            .zip(starts.into_iter().zip(&mut scratch));
        lanes::run(work, |((((rows, codes), choices), slab), (start, sc))| {
            let ((mut esc, mut ordinals), first) = (start, rows.start * row_values);
            let mut at = 0usize;
            for (i, &choice) in (rows.start * row_blocks..).zip(choices) {
                let spec = BlockSpec::of(self.dims, self.block, i);
                let block_codes = codes.get(at..at + spec.valid_len()).ok_or(())?;
                at += block_codes.len();
                let n_esc = block_codes.iter().filter(|&&c| c == 0).count();
                let ordinal = ordinals.get_mut(choice.into()).ok_or(())?;
                let block = Block {
                    choice,
                    ordinal: *ordinal,
                    codes: block_codes,
                    escapes: escapes.get(esc..esc + n_esc).ok_or(())?,
                };
                step(&spec, block, sc).ok_or(())?;
                *ordinal += 1;
                esc += n_esc;
                let width = spec.size.last().copied().unwrap_or(1).max(1);
                write_to_slab(slab, first, self.dims, &spec, sc.valid.chunks(width), |v| v)
                    .ok_or(())?;
            }
            (at == codes.len()).then_some(()).ok_or(())
        })
        .ok()
    }
}

/// Write the valid region of block `spec` into `slab`, the run of whole
/// planes (rows in 2D) of a field with extents `dims` that starts at the
/// field's flat index `start`. `rows` yields the block's rows along the
/// fastest axis in row-major order over the valid region, each holding at
/// least `spec.size`'s last extent of values, and `map` turns each value
/// into the stored one. `None` when the block does not lie inside the slab
/// or the rows run short.
pub fn write_to_slab<'a>(
    slab: &mut [f32],
    start: usize,
    dims: Dims,
    spec: &BlockSpec,
    rows: impl IntoIterator<Item = &'a [f32]>,
    map: impl Fn(f32) -> f32,
) -> Option<()> {
    let [ny, nx] = match dims {
        Dims::D1 { n } => [1, n],
        Dims::D2 { nx, .. } => [1, nx],
        Dims::D3 { ny, nx, .. } => [ny, nx],
    };
    let zyx = |c: &[usize], fill: usize| match *c {
        [x] => [fill, fill, x],
        [y, x] => [fill, y, x],
        [z, y, x] => [z, y, x],
        _ => [fill; 3],
    };
    let ([z0, y0, x0], [sz, sy, sx]) = (zyx(&spec.origin, 0), zyx(&spec.size, 1));
    let mut rows = rows.into_iter();
    for z in z0..z0 + sz {
        for y in y0..y0 + sy {
            let at = ((z * ny + y) * nx + x0).checked_sub(start)?;
            let dst = slab.get_mut(at..at + sx)?;
            for (d, &v) in dst.iter_mut().zip(rows.next()?.get(..sx)?) {
                *d = map(v);
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy codec over integer fields: a value's code is the value itself,
    /// zero escapes, the choice cycles over three predictors, and every
    /// choice-2 block stores its index as a side value.
    fn encode(field: &Field, lanes: usize) -> (Vec<u32>, Vec<u8>, Vec<f32>, Vec<f32>) {
        let rows = BlockRows::new(field.dims(), 4, Some(lanes));
        let (mut codes, mut choices) = (vec![0; field.len()], vec![0u8; rows.blocks()]);
        let (escapes, side) = rows
            .encode(
                field,
                1,
                &mut codes,
                &mut choices,
                || (),
                |spec, sc, side| {
                    sc.codes.clear();
                    sc.escapes.clear();
                    for &v in &sc.valid {
                        sc.codes.push(v as u32);
                        if v == 0.0 {
                            sc.escapes.push(v);
                        }
                    }
                    let choice = (spec.index % 3) as u8;
                    if choice == 2 {
                        side.push(spec.index as f32);
                    }
                    choice
                },
            )
            .unwrap();
        (codes, choices, escapes, side)
    }

    fn decode(
        field: &Field,
        parts: &(Vec<u32>, Vec<u8>, Vec<f32>, Vec<f32>),
        lanes: usize,
    ) -> Option<Field> {
        let (codes, choices, escapes, side) = parts;
        let mut out = Field::zeros(field.dims());
        let rows = BlockRows::new(field.dims(), 4, Some(lanes));
        rows.decode(
            choices,
            codes,
            escapes,
            out.as_mut_slice(),
            || (),
            |spec, b, sc| {
                if b.choice == 2 && side.get(b.ordinal) != Some(&(spec.index as f32)) {
                    return None;
                }
                let mut escapes = b.escapes.iter();
                sc.valid.clear();
                for &c in b.codes {
                    sc.valid
                        .push(if c == 0 { *escapes.next()? } else { c as f32 });
                }
                Some(())
            },
        )?;
        Some(out)
    }

    #[test]
    fn any_lane_split_matches_one_lane_and_rebuilds_the_field() {
        for dims in [
            Dims::d1(37),
            Dims::d2(13, 9),
            Dims::d3(9, 6, 5),
            Dims::d2(3, 11),
        ] {
            let field = Field::from_fn(dims, |c| c.iter().fold(0, |a, &x| a * 7 + x) as f32 % 50.0);
            let one = encode(&field, 1);
            assert!(!one.2.is_empty() && !one.3.is_empty());
            for lanes in 1..=4 {
                assert_eq!(encode(&field, lanes), one, "{dims} on {lanes} lanes");
                assert_eq!(decode(&field, &one, lanes).as_ref(), Some(&field));
            }
        }
    }

    #[test]
    fn inconsistent_sections_are_refused_not_panicking() {
        let field = Field::from_fn(Dims::d2(13, 9), |c| (c[0] * 9 + c[1]) as f32 % 50.0);
        let good = encode(&field, 1);
        for lanes in 1..=3 {
            let mut short_escapes = good.clone();
            short_escapes.2.pop();
            let mut bad_choice = good.clone();
            bad_choice.1[5] = CHOICES as u8;
            let mut short_codes = good.clone();
            short_codes.0.pop();
            for parts in [short_escapes, bad_choice, short_codes] {
                assert_eq!(decode(&field, &parts, lanes), None);
            }
        }
    }
}
