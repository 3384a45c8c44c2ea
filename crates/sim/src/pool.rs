//! Bounded fan-out for the sweep engines.
//!
//! The experiment harness fans a benchmark × scheme matrix out across
//! worker threads. Spawning one OS thread per job (the seed behaviour)
//! oversubscribes the host as soon as a sweep has more points than the
//! machine has cores — a 14-benchmark × 4-scheme matrix spawned 56
//! threads at once. [`scoped_map`] is the one std-only primitive both
//! the harness and `deact-sim compare` use instead: a bounded parallel
//! map over `0..n` for borrowed data, built on `std::thread::scope`,
//! returning results in index order regardless of completion order
//! (determinism is preserved by construction).
//!
//! Worker-count policy lives in [`default_jobs`]: the `DEACT_JOBS`
//! environment variable wins, otherwise `available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `DEACT_JOBS` if set and positive, otherwise the host's
/// available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("DEACT_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `f(0..n)` across at most `threads` scoped workers and returns
/// the results in index order.
///
/// `f` may borrow from the caller's stack: the workers live inside a
/// `std::thread::scope`. Work is handed out by an atomic cursor, so the
/// mapping of items to threads is dynamic but the returned vector is always `[f(0), f(1), …, f(n-1)]` — parallelism
/// never changes the output.
///
/// # Panics
///
/// Propagates the first worker panic.
///
/// # Examples
///
/// ```
/// use fam_sim::scoped_map;
///
/// let inputs = vec![1u64, 2, 3, 4];
/// let doubled = scoped_map(2, inputs.len(), |i| inputs[i] * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn scoped_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *results[i].lock().expect("result slot poisoned") = Some(value);
                }
                // scope() unblocks on closure return, before TLS
                // destructors run — flush profiler spans explicitly so
                // the caller's take_report sees this worker's data.
                if crate::profile::is_enabled() {
                    crate::profile::flush_thread();
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was produced")
        })
        .collect()
}

/// A bounded free list recycling heap-backed scratch values (walk-plan
/// buffers, packet frames) across uses, so steady-state simulation
/// performs no per-operation allocation.
///
/// `get` hands out a recycled value or a fresh [`Default`] one; `put`
/// returns a value for reuse. The list is deliberately dumb: values are
/// returned as-is (callers reset them — e.g. `Vec::clear` — at the use
/// site, where the invariant is visible), and a value not `put` back is
/// simply dropped, so early returns and error paths need no cleanup.
///
/// # Examples
///
/// ```
/// use fam_sim::FreeList;
///
/// let mut pool: FreeList<Vec<u64>> = FreeList::new();
/// let mut buf = pool.get();
/// buf.extend([1, 2, 3]);
/// let cap = buf.capacity();
/// pool.put(buf);
/// let reused = pool.get();
/// assert_eq!(reused.capacity(), cap); // allocation recycled
/// ```
#[derive(Debug)]
pub struct FreeList<T> {
    items: Vec<T>,
}

/// Retention cap: beyond this the list drops returned values instead
/// of hoarding them (a burst of concurrent scratch buffers should not
/// pin memory forever).
const FREE_LIST_CAP: usize = 64;

impl<T: Default> FreeList<T> {
    /// Creates an empty free list.
    pub fn new() -> FreeList<T> {
        FreeList { items: Vec::new() }
    }

    /// A recycled value, or `T::default()` when the list is empty.
    pub fn get(&mut self) -> T {
        self.items.pop().unwrap_or_default()
    }

    /// Returns a value to the list for reuse (dropped if the list is
    /// at capacity).
    pub fn put(&mut self, item: T) {
        if self.items.len() < FREE_LIST_CAP {
            self.items.push(item);
        }
    }

    /// Values currently held for reuse.
    pub fn held(&self) -> usize {
        self.items.len()
    }
}

impl<T: Default> Default for FreeList<T> {
    fn default() -> FreeList<T> {
        FreeList::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_list_recycles_capacity() {
        let mut pool: FreeList<Vec<u8>> = FreeList::new();
        let mut v = pool.get();
        v.reserve(1024);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.held(), 1);
        assert!(pool.get().capacity() >= cap);
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn free_list_bounds_retention() {
        let mut pool: FreeList<Vec<u8>> = FreeList::new();
        for _ in 0..(FREE_LIST_CAP + 10) {
            pool.put(Vec::new());
        }
        assert_eq!(pool.held(), FREE_LIST_CAP);
    }

    #[test]
    fn scoped_map_orders_results_by_index() {
        for threads in [1, 2, 8, 64] {
            let out = scoped_map(threads, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scoped_map_empty_input() {
        let out: Vec<u64> = scoped_map(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_map_borrows_caller_data() {
        let data = [String::from("a"), String::from("bb")];
        let lens = scoped_map(2, data.len(), |i| data[i].len());
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
