//! Offline stand-in for `rayon`.
//!
//! Implements the slice of rayon this workspace actually uses — an indexed
//! source (`Range<usize>`, `&[T]`, `&Vec<T>`) followed by `.map(f).collect()`
//! — with real parallelism: the index space is split into one contiguous
//! chunk per available core and mapped on `std::thread::scope` threads,
//! preserving element order.  There is no work stealing; for the regular,
//! evenly-sized loops in this workspace (pencil sweeps, z-slabs, scanlines,
//! octree blocks) static chunking is within noise of rayon.
//!
//! Anything fancier (`reduce`, `fold`, adaptive splitting) is intentionally
//! absent — add it here if a caller needs it, keeping call sites compatible
//! with the real rayon so the shim can be swapped out later.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::ops::Range;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

fn worker_count(len: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(len).max(1)
}

/// Run `f` over `0..len` on scoped threads, one contiguous chunk per worker,
/// and return the results in index order.
fn parallel_map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(workers);
    let f = &f;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(len);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("parallel map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Mirror of `rayon::iter::IntoParallelIterator` for the sources used here.
pub trait IntoParallelIterator {
    type Item;
    type Iter;

    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// A parallel view of `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }
}

/// A mapped parallel range, ready to collect.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FromIterator<T>,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = self.f;
        parallel_map_indexed(len, |i| f(start + i))
            .into_iter()
            .collect()
    }
}

/// Mirror of rayon's `par_iter` on slices (and `Vec` via deref).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParSlice<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { items: self }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { items: self }
    }
}

/// A parallel view of a slice.
pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParSliceMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel slice, ready to collect.
pub struct ParSliceMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
        C: FromIterator<U>,
    {
        let items = self.items;
        let f = self.f;
        parallel_map_indexed(items.len(), |i| f(&items[i]))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_collects_empty() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn slice_par_iter_matches_sequential() {
        let data: Vec<i64> = (0..997).collect();
        let par: Vec<i64> = data.par_iter().map(|x| x * x).collect();
        let seq: Vec<i64> = data.iter().map(|x| x * x).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn closures_capture_shared_state() {
        let weights = vec![1.0f64; 64];
        let view = &weights;
        let sums: Vec<f64> = (0..64)
            .into_par_iter()
            .map(|i| view[..=i].iter().sum())
            .collect();
        assert_eq!(sums[63], 64.0);
    }
}
