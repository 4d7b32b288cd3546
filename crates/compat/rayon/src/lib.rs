//! Offline stand-in for the parts of `rayon` GVEX uses.
//!
//! The build environment has no crates.io access, so this crate provides a
//! source-compatible subset: `prelude::*` parallel iterators
//! (`par_iter`/`into_par_iter`/`par_chunks_mut` with `map`, `filter`,
//! `filter_map`, `enumerate`, `for_each`, `sum`, `collect`),
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`], [`join`], and
//! [`current_num_threads`].
//!
//! Execution model: adapters are lazy; terminal operations materialize the
//! items and fan each stage out over `std::thread::scope` in contiguous
//! chunks, **always preserving input order**, so results are deterministic
//! and independent of the worker count. That is a stronger guarantee than
//! real rayon's `for_each` side-effect ordering, and exactly what the
//! determinism tests in this workspace rely on.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Thread count forced by an enclosing [`ThreadPool::install`]; `None`
    /// falls back to `GVEX_THREADS` or the machine's available parallelism.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel calls on this thread will use.
/// `GVEX_THREADS` parsing (and the malformed-value fallback) lives in
/// [`gvex_obs::env::threads`] so every crate agrees on its meaning.
pub fn current_num_threads() -> usize {
    if let Some(n) = POOL_THREADS.with(|c| c.get()) {
        return n.max(1);
    }
    gvex_obs::env::threads()
}

/// Estimated scalar operations below which [`should_fan_out`] keeps a
/// region on the calling thread: roughly where spawning scoped worker
/// threads starts to cost more than it saves, measured on the explain
/// pipeline's fan-outs (the `explain_database` sections of
/// `BENCH_hotpaths.json`).
pub const PAR_THRESHOLD: usize = 1 << 18;

/// True when a fan-out estimated at `estimated_ops` scalar operations
/// should actually go parallel: more than one worker is requested, the
/// machine has more than one hardware thread to run them on (a pool count
/// forced above the available parallelism only adds spawn and timeslicing
/// overhead — CPU-bound workers cannot beat sequential on one core), and
/// the workload clears [`PAR_THRESHOLD`]. Gated call sites keep a
/// sequential twin of their parallel loop and dispatch on this; both twins
/// preserve input order, so the choice never changes results — only
/// whether spawn/join overhead is paid.
///
/// Not part of real rayon's API; it lives here because the effective worker
/// count (including [`ThreadPool::install`] overrides) does too.
pub fn should_fan_out(estimated_ops: usize) -> bool {
    current_num_threads() > 1
        && gvex_obs::env::default_parallelism() > 1
        && estimated_ops >= PAR_THRESHOLD
}

/// Builder mirroring `rayon::ThreadPoolBuilder` (only `num_threads`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`]; construction cannot fail
/// here, the type exists for signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A builder with the default thread count (0 = automatic).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; 0 keeps the automatic default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// A scoped thread-count override (no persistent workers; threads are
/// spawned per parallel call).
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing nested parallel
    /// iterator calls.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.get());
        let forced = if self.num_threads == 0 { None } else { Some(self.num_threads) };
        POOL_THREADS.with(|c| c.set(forced));
        let result = op();
        POOL_THREADS.with(|c| c.set(prev));
        result
    }

    /// This pool's effective worker count.
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        }
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        (ra, rb)
    } else {
        let base_path = gvex_obs::span::current_path();
        let req_tag = gvex_obs::context::current();
        std::thread::scope(|s| {
            let hb = s.spawn(move || {
                let _adopted = gvex_obs::span::adopt(&base_path);
                let _req = gvex_obs::context::adopt(req_tag);
                b()
            });
            let ra = a();
            (ra, hb.join().expect("rayon stand-in: joined task panicked"))
        })
    }
}

/// Applies `f` to every item across the current thread budget, preserving
/// input order in the output.
fn run_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let chunk = len.div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(len);
    results.resize_with(len, || None);
    let mut items = items;
    // Workers adopt the launching thread's span path so spans opened inside
    // parallel closures nest under the phase that launched them, and the
    // launching thread's request tag so per-request attribution survives the
    // fan-out; per-worker item counts expose chunking imbalance. All of it is
    // inert unless observation is on — the fan-out itself is unchanged
    // either way.
    let base_path = gvex_obs::span::current_path();
    let req_tag = gvex_obs::context::current();
    gvex_obs::counter!("rayon.parallel_calls");
    std::thread::scope(|s| {
        let f = &f;
        let base_path = &base_path;
        let mut out_chunks: Vec<&mut [Option<R>]> = results.chunks_mut(chunk).collect();
        let mut worker = out_chunks.len();
        // hand out chunks back-to-front so `drain` pops matching tails; the
        // front chunk comes off last and runs on the calling thread, so a
        // W-way fan-out spawns W−1 threads and the caller does worker 0's
        // share instead of idling until scope teardown
        while let Some(out) = out_chunks.pop() {
            worker -= 1;
            let tail_start = items.len() - out.len();
            let part: Vec<T> = items.drain(tail_start..).collect();
            if gvex_obs::enabled() {
                gvex_obs::counter!(&format!("rayon.worker.{worker}.items"), part.len() as u64);
                gvex_obs::histogram!("rayon.chunk_items", part.len() as u64);
            }
            if worker == 0 {
                for (slot, item) in out.iter_mut().zip(part) {
                    *slot = Some(f(item));
                }
            } else {
                s.spawn(move || {
                    let _adopted = gvex_obs::span::adopt(base_path);
                    let _req = gvex_obs::context::adopt(req_tag);
                    for (slot, item) in out.iter_mut().zip(part) {
                        *slot = Some(f(item));
                    }
                });
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("rayon stand-in: worker left a slot unfilled"))
        .collect()
}

/// Lazy parallel iterator over `Send` items. Terminal operations evaluate
/// stages in order-preserving parallel passes.
pub trait ParallelIterator: Sized + Send {
    /// Item type produced.
    type Item: Send;

    /// Evaluates the chain, returning all items in input order.
    fn run(self) -> Vec<Self::Item>;

    /// Parallel map.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Parallel filter-map.
    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        FilterMap { base: self, f }
    }

    /// Parallel filter.
    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, f }
    }

    /// Pairs each item with its input-order index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Runs `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let _ = self.map(f).run();
    }

    /// Sums all items (deterministically, in input order).
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.run().into_iter().sum()
    }

    /// Number of items produced.
    fn count(self) -> usize {
        self.run().len()
    }

    /// Collects into any `FromIterator` container, in input order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.run().into_iter().collect()
    }
}

/// Map adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        run_parallel(self.base.run(), self.f)
    }
}

/// Filter-map adapter.
pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> Option<R> + Sync + Send,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        run_parallel(self.base.run(), self.f).into_iter().flatten().collect()
    }
}

/// Filter adapter.
pub struct Filter<B, F> {
    base: B,
    f: F,
}

impl<B, F> ParallelIterator for Filter<B, F>
where
    B: ParallelIterator,
    F: Fn(&B::Item) -> bool + Sync + Send,
{
    type Item = B::Item;

    fn run(self) -> Vec<B::Item> {
        let f = self.f;
        run_parallel(self.base.run(), |item| if f(&item) { Some(item) } else { None })
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Enumerate adapter.
pub struct Enumerate<B> {
    base: B,
}

impl<B> ParallelIterator for Enumerate<B>
where
    B: ParallelIterator,
{
    type Item = (usize, B::Item);

    fn run(self) -> Vec<(usize, B::Item)> {
        self.base.run().into_iter().enumerate().collect()
    }
}

/// Borrowed-slice source (`.par_iter()`).
pub struct ParSlice<'data, T: Sync> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for ParSlice<'data, T> {
    type Item = &'data T;

    fn run(self) -> Vec<&'data T> {
        self.slice.iter().collect()
    }
}

/// Owned source (`.into_par_iter()` on `Vec` or ranges).
pub struct ParVec<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
    }
}

/// Mutable chunk source (`.par_chunks_mut(n)`).
pub struct ParChunksMut<'data, T: Send> {
    chunks: Vec<&'data mut [T]>,
}

impl<'data, T: Send> ParallelIterator for ParChunksMut<'data, T> {
    type Item = &'data mut [T];

    fn run(self) -> Vec<&'data mut [T]> {
        self.chunks
    }
}

/// Conversion into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    type Item = T;

    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParVec<usize>;
    type Item = usize;

    fn into_par_iter(self) -> ParVec<usize> {
        ParVec { items: self.collect() }
    }
}

/// Borrowing entry point providing `.par_iter()`.
pub trait IntoParallelRefIterator<'data> {
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = ParSlice<'data, T>;
    type Item = &'data T;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = ParSlice<'data, T>;
    type Item = &'data T;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

/// Parallel mutable-chunk access on slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits into chunks of `size` (last may be shorter), processed in
    /// parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { chunks: self.chunks_mut(size).collect() }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use super::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_matches_sequential() {
        let v: Vec<usize> = (0..500).collect();
        let par: Vec<usize> = v.par_iter().filter_map(|&x| (x % 3 == 0).then(|| x + 1)).collect();
        let seq: Vec<usize> = v.iter().filter_map(|&x| (x % 3 == 0).then(|| x + 1)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn install_controls_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
    }

    #[test]
    fn single_thread_equals_many_threads() {
        let v: Vec<u64> = (0..200).collect();
        let run = |threads| {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| v.par_iter().map(|&x| x * x).sum::<u64>())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn par_chunks_mut_writes_all() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 10 + j) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn into_par_iter_on_range_and_vec() {
        let s: usize = (0..100usize).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 4950);
        let v = vec![1usize, 2, 3];
        let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }
}
