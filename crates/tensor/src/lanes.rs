//! Lane-parallel block loops.
//!
//! A codec's block loop splits its work units (blocks, block rows, or slabs
//! of blocks) into at most one contiguous *lane* per core. Each lane owns a
//! disjoint `&mut` slice of every output ([`Lanes::split_mut`]) and, for the
//! AE stages of AE-SZ and AE-B, its resident [`LaneScratch`] slot, which it
//! walks in the codec's batch size. A unit's result never depends on which
//! lane computes it (inference of one sample does not depend on which other
//! samples share its batch), so any lane split produces the same bits as a
//! single lane, which is what the serial reference paths run
//! ([`Lanes::over`] with one lane). [`crate::engine`] runs AE-SZ's and
//! SZ2.1's select–quantize and reconstruct loops on lanes of block rows.
//! [`run`] is the one fan-out: the lanes above, and the chunk windows of
//! the archive writer, reader and push decoder, one job per chunk. It deals
//! its items to scoped threads started for the call and joined before it
//! returns.

use std::ops::Range;

/// A split of `units` work units into contiguous lanes of `span` units
/// each (the last lane may be shorter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    count: usize,
    span: usize,
    units: usize,
}

impl Lanes {
    /// `min(available_parallelism(), ⌈blocks / batch⌉)` lanes over `blocks`
    /// blocks: every lane gets at least one full batch, so small inputs get
    /// one lane and spawn no thread.
    pub fn for_batches(blocks: usize, batch: usize) -> Lanes {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Lanes::over(blocks, cores.min(blocks.div_ceil(batch.max(1))))
    }

    /// At most `lanes` lanes of equal span over `units` units. No lane is
    /// empty: zero units make one lane with an empty range list.
    pub fn over(units: usize, lanes: usize) -> Lanes {
        let span = units.div_ceil(lanes.clamp(1, units.max(1))).max(1);
        Lanes {
            count: units.div_ceil(span).max(1),
            span,
            units,
        }
    }

    /// Number of lanes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The unit range of each lane, in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> {
        let (span, units) = (self.span, self.units);
        (0..units)
            .step_by(span)
            .map(move |start| start..units.min(start + span))
    }

    /// Split a buffer holding `stride` elements per unit into one disjoint
    /// slice per lane.
    pub fn split_mut<'a, T>(
        &self,
        buf: &'a mut [T],
        stride: usize,
    ) -> std::slice::ChunksMut<'a, T> {
        buf.chunks_mut(self.span.saturating_mul(stride).max(1))
    }

    /// Read-only twin of [`Lanes::split_mut`].
    pub fn split<'a, T>(&self, buf: &'a [T], stride: usize) -> std::slice::Chunks<'a, T> {
        buf.chunks(self.span.saturating_mul(stride).max(1))
    }
}

/// Run `lane` once per work item and return the first error in item order;
/// every item runs, also after an error. Items are dealt round-robin to
/// `min(cores, items)` scoped threads, so they may outnumber the cores (the
/// archive layer runs one item per chunk of a window); a single item, or a
/// single core, runs everything on the calling thread. A panicking item
/// re-panics in the caller once every thread has finished.
pub fn run<W, E, F>(work: impl IntoIterator<Item = W>, lane: F) -> Result<(), E>
where
    W: Send,
    E: Send,
    F: Fn(W) -> Result<(), E> + Sync,
{
    let items: Vec<W> = work.into_iter().collect();
    let threads = match items.len() {
        0 | 1 => 1,
        n => std::thread::available_parallelism().map_or(1, |c| c.get().min(n)),
    };
    if threads == 1 {
        return items.into_iter().map(&lane).fold(Ok(()), Result::and);
    }
    // Item `i` goes to deck `i % threads`; each deck keeps item order.
    let mut decks: Vec<Vec<(usize, W)>> = Vec::with_capacity(threads);
    for (i, item) in items.into_iter().enumerate() {
        match decks.get_mut(i % threads) {
            Some(deck) => deck.push((i, item)),
            None => decks.push(vec![(i, item)]),
        }
    }
    // A deck's first error is its lowest-numbered one.
    let mut firsts: Vec<Option<(usize, E)>> = decks.iter().map(|_| None).collect();
    let lane = &lane;
    std::thread::scope(|scope| {
        for (deck, first) in decks.into_iter().zip(firsts.iter_mut()) {
            scope.spawn(move || {
                for (i, item) in deck {
                    if let Err(e) = lane(item) {
                        first.get_or_insert((i, e));
                    }
                }
            });
        }
    });
    firsts
        .into_iter()
        .flatten()
        .min_by_key(|&(i, _)| i)
        .map_or(Ok(()), |(_, e)| Err(e))
}

/// Resident per-lane state (network scratch plus a codec's staging
/// buffers): grows to the lane count on first use and stays warm across
/// calls. Clones are cold — a compressor fork must not drag a sibling's
/// megabytes along; each fork warms its own lanes, the per-worker residency
/// model of `aesz serve`.
#[derive(Debug)]
pub struct LaneScratch<S>(Vec<S>);

impl<S> Default for LaneScratch<S> {
    fn default() -> Self {
        LaneScratch(Vec::new())
    }
}

impl<S> Clone for LaneScratch<S> {
    fn clone(&self) -> Self {
        LaneScratch::default()
    }
}

impl<S: Default> LaneScratch<S> {
    /// The first `count` lane slots, creating any that do not exist yet.
    pub fn lanes(&mut self, count: usize) -> std::iter::Take<std::slice::IterMut<'_, S>> {
        if self.0.len() < count {
            self.0.resize_with(count, S::default);
        }
        self.0.iter_mut().take(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_cover_every_unit_once_in_order() {
        for units in 0..40 {
            for max in 1..6 {
                let lanes = Lanes::over(units, max);
                assert!(lanes.count() >= 1 && lanes.count() <= max.max(1));
                let ranges: Vec<_> = lanes.ranges().collect();
                assert_eq!(ranges.len(), if units == 0 { 0 } else { lanes.count() });
                let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(flat, (0..units).collect::<Vec<_>>());
                assert!(ranges.iter().all(|r| !r.is_empty()));
                // Buffer splits line up with the unit ranges.
                let mut buf = vec![0u8; units * 3];
                let lens: Vec<usize> = lanes.split_mut(&mut buf, 3).map(|c| c.len()).collect();
                let want: Vec<usize> = ranges.iter().map(|r| r.len() * 3).collect();
                assert_eq!(lens, want);
            }
        }
    }

    #[test]
    fn batch_lanes_never_exceed_cores_or_batches() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Lanes::for_batches(0, 16).count(), 1);
        assert_eq!(Lanes::for_batches(16, 16).count(), 1);
        assert_eq!(Lanes::for_batches(17, 16).count(), cores.min(2));
        assert_eq!(Lanes::for_batches(4096, 16).count(), cores.min(256));
    }

    #[test]
    fn run_writes_disjoint_slices_and_returns_the_first_error() {
        let lanes = Lanes::over(10, 3);
        let mut out = vec![0usize; 10];
        let mut scratch: LaneScratch<Vec<usize>> = LaneScratch::default();
        let work = lanes
            .ranges()
            .zip(lanes.split_mut(&mut out, 1))
            .zip(scratch.lanes(lanes.count()));
        run(work, |((range, dst), sc)| {
            sc.push(range.start);
            for (d, i) in dst.iter_mut().zip(range) {
                *d = i * i;
            }
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        // Each lane kept its own resident slot; clones start cold.
        assert_eq!(scratch.0, vec![vec![0], vec![4], vec![8]]);
        assert!(scratch.clone().0.is_empty());

        let failed = run(0..4, |i| if i >= 2 { Err(i) } else { Ok(()) });
        assert_eq!(failed, Err(2));
    }

    #[test]
    fn run_deals_more_items_than_cores_and_runs_each_once() {
        let mut hits = vec![0usize; 37];
        let failed = run(hits.iter_mut().enumerate(), |(i, hit)| {
            *hit += 1;
            if i % 10 == 9 {
                Err(i)
            } else {
                Ok(())
            }
        });
        // Items after a failure still ran; the first failure is reported.
        assert_eq!(failed, Err(9));
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    #[should_panic]
    fn lane_panics_reach_the_caller() {
        let _ = run(0..2, |i| {
            if i == 1 {
                panic!("lane {i} failed");
            }
            Ok::<(), ()>(())
        });
    }
}
