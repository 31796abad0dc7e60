//! Offline stand-in for `rayon`.
//!
//! It covers the calls the library crates make: `into_par_iter` on a
//! `Vec`, `par_iter` / `par_iter_mut` / `par_chunks` / `par_chunks_mut` on
//! slices, adapted by `map` and `zip`, and consumed by
//! `for_each` or `collect`. Every source has a known length, so a call
//! splits its input into at most [`current_num_threads`] contiguous parts,
//! runs the first on the calling thread and the others on worker threads,
//! and joins them in order: `collect` keeps the input order, and a panic
//! in any part resumes on the caller once all parts have ended.
//!
//! The workers are a pool that lives as long as the process, one thread
//! fewer than [`current_num_threads`]. That matters beyond the cost of a
//! spawn: `telemetry::RingRecorder` keeps one ring per recording thread,
//! so a shim that started threads per call would grow a traced study by
//! one ring per scheduling wave. A call made from inside a parallel part
//! does not queue behind the pool's current jobs — a nested matmul would
//! wait for a whole trial — but runs on scoped threads of its own.

mod pool;

use std::sync::Arc;

/// Upper bound on the threads one parallel call uses.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A splittable iterator of known length.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    /// The sequential iterator one part is drained with.
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The first `mid` items and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f: Arc::new(f) }
    }

    fn zip<Z: IntoParallelIterator>(self, other: Z) -> Zip<Self, Z::Iter> {
        Zip { a: self, b: other.into_par_iter() }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_parts(self, |seq| seq.for_each(&f));
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Split `iter` into contiguous parts, drain each with `work` on its own
/// thread (the first on the caller's), and return the results in order.
fn run_parts<I, R, W>(iter: I, work: W) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    W: Fn(I::Seq) -> R + Sync,
{
    let len = iter.len();
    let parts = current_num_threads().min(len).max(1);
    if parts == 1 {
        return vec![work(iter.into_seq())];
    }
    let mut pieces = Vec::with_capacity(parts);
    let mut rest = iter;
    let mut remaining = len;
    for left in (1..=parts).rev() {
        // Ceiling division spreads the remainder over the leading parts.
        let take = remaining.div_ceil(left);
        let (head, tail) = rest.split_at(take);
        pieces.push(head);
        rest = tail;
        remaining -= take;
    }
    pool::run(pieces, |piece: I| work(piece.into_seq()))
}

/// Collections `collect` can build.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let len = iter.len();
        let mut out = Vec::with_capacity(len);
        for part in run_parts(iter, |seq| seq.collect::<Vec<T>>()) {
            out.extend(part);
        }
        out
    }
}

// ---------------------------------------------------------------- adaptors

pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

pub struct MapSeq<S, F> {
    base: S,
    f: Arc<F>,
}

impl<S: Iterator, R, F: Fn(S::Item) -> R> Iterator for MapSeq<S, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;
    type Seq = MapSeq<I::Seq, F>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (Map { base: a, f: self.f.clone() }, Map { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::Seq {
        MapSeq { base: self.base.into_seq(), f: self.f }
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.a.split_at(mid);
        let (b0, b1) = self.b.split_at(mid);
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

// ----------------------------------------------------------------- sources

pub struct VecIter<T>(Vec<T>);

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.0.split_off(mid);
        (self, VecIter(tail))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.into_iter()
    }
}

pub struct SliceIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(mid);
        (SliceIter(a), SliceIter(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter()
    }
}

pub struct SliceIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at_mut(mid);
        (SliceIterMut(a), SliceIterMut(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter_mut()
    }
}

pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (Chunks { slice: a, size: self.size }, Chunks { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (ChunksMut { slice: a, size: self.size }, ChunksMut { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

// ------------------------------------------------------------- conversions

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}

pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, size: usize) -> Chunks<'_, T> {
        assert!(size != 0, "chunk size must not be zero");
        Chunks { slice: self.as_parallel_slice(), size }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size != 0, "chunk size must not be zero");
        ChunksMut { slice: self.as_parallel_slice_mut(), size }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}
