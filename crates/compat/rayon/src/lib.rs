//! Offline stand-in for the parts of `rayon` GVEX uses.
//!
//! The build environment has no crates.io access, so this crate provides a
//! source-compatible subset, exactly what the workspace calls:
//! `prelude::*` parallel iterators (`par_iter` on slices and `Vec`,
//! `into_par_iter` on `Vec`, with `map`, `for_each` and `collect`),
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`], and
//! [`current_num_threads`]. Deciding *whether* to fan out is not this
//! crate's job: `gvex_core::parallel` is the one module that fans out, and
//! it calls into this crate only once it has decided to.
//!
//! Execution model: adapters are lazy; terminal operations materialize the
//! items and fan each stage out over `std::thread::scope` in contiguous
//! chunks, **always preserving input order**, so results are deterministic
//! and independent of the worker count. That is a stronger guarantee than
//! real rayon's `for_each` side-effect ordering, and exactly what the
//! determinism tests in this workspace rely on. A parallel call made
//! inside a fan-out runs on the worker that makes it: real rayon shares
//! one pool between nested calls, and spawning fresh threads for them here
//! would only oversubscribe the cores the fan-out already occupies.

use std::cell::Cell;

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
}

/// Runs `op` as one worker of a fan-out: parallel calls nested inside it
/// stay on this thread. Every worker of the fan-out is already busy, and
/// this stand-in spawns threads per call rather than sharing one pool as
/// real rayon does, so a nested fan-out would only oversubscribe the cores.
fn as_worker<R>(op: impl FnOnce() -> R) -> R {
    let prev = POOL_THREADS.with(|c| c.replace(Some(1)));
    let result = op();
    POOL_THREADS.with(|c| c.set(prev));
    result
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
                as_worker(|| {
                    for (slot, item) in out.iter_mut().zip(part) {
                        *slot = Some(f(item));
                    }
                });
            } else {
                s.spawn(move || {
                    let _adopted = gvex_obs::span::adopt(base_path);
                    let _req = gvex_obs::context::adopt(req_tag);
                    as_worker(|| {
                        for (slot, item) in out.iter_mut().zip(part) {
                            *slot = Some(f(item));
                        }
                    });
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

    /// Runs `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let _ = self.map(f).run();
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

/// Owned source (`.into_par_iter()` on `Vec`).
pub struct ParVec<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
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

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
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
            pool.install(|| v.par_iter().map(|&x| x * x).collect::<Vec<u64>>())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn into_par_iter_on_vec() {
        let v = vec![1usize, 2, 3];
        let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn nested_calls_stay_on_their_worker() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let (inner, after) = pool.install(|| {
            let inner: Vec<usize> =
                vec![(); 8].into_par_iter().map(|()| current_num_threads()).collect();
            (inner, current_num_threads())
        });
        assert_eq!(inner, vec![1; 8], "a call nested in a fan-out runs on its worker");
        assert_eq!(after, 4, "the caller's budget returns after the fan-out");
    }
}
