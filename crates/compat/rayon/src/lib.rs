//! Offline, dependency-free stand-in for the `rayon` crate.
//!
//! Implements the one parallel-iterator shape the workspace uses —
//! `slice.par_chunks_mut(n).enumerate().for_each(f)` — with real
//! parallelism via `std::thread::scope`: chunks are dealt round-robin to
//! one scoped thread per available core. No work stealing, but chunk work
//! in this workspace (codec block chunks, one NN lane per core) is uniform,
//! so static distribution is close to optimal.

pub mod pool;

pub mod prelude {
    pub use crate::slice::ParallelSliceMut;
}

pub mod slice {
    /// Mirror of `rayon::slice::ParallelSliceMut`.
    pub trait ParallelSliceMut<T: Send> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParChunksMut {
                slice: self,
                chunk_size,
            }
        }
    }

    pub struct ParChunksMut<'a, T> {
        slice: &'a mut [T],
        chunk_size: usize,
    }

    pub struct ParChunksMutEnumerate<'a, T> {
        inner: ParChunksMut<'a, T>,
    }

    fn run_parallel<T, F>(slice: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn((usize, &mut [T])) + Sync,
    {
        let n_chunks = slice.len().div_ceil(chunk_size);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(n_chunks.max(1));
        if threads <= 1 || n_chunks <= 1 {
            for pair in slice.chunks_mut(chunk_size).enumerate() {
                f(pair);
            }
            return;
        }
        let mut lanes: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, chunk) in slice.chunks_mut(chunk_size).enumerate() {
            lanes[i % threads].push((i, chunk));
        }
        let f = &f;
        std::thread::scope(|scope| {
            for lane in lanes {
                scope.spawn(move || {
                    for pair in lane {
                        f(pair);
                    }
                });
            }
        });
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
            ParChunksMutEnumerate { inner: self }
        }

        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut [T]) + Sync,
        {
            run_parallel(self.slice, self.chunk_size, |(_, chunk)| f(chunk));
        }
    }

    impl<T: Send> ParChunksMutEnumerate<'_, T> {
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            run_parallel(self.inner.slice, self.inner.chunk_size, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn enumerated_chunks_see_correct_indices_and_data() {
        let mut data = vec![0u64; 1003];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u64;
            }
        });
        for (j, v) in data.iter().enumerate() {
            assert_eq!(*v, (j / 10) as u64);
        }
    }

    #[test]
    fn plain_for_each_touches_every_element() {
        let mut data = vec![1i32; 257];
        data.par_chunks_mut(16).for_each(|chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }
}
