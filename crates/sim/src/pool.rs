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
//! environment variable wins, otherwise `available_parallelism`. A
//! `DEACT_JOBS` that does not parse is an error ([`jobs_override`]),
//! never a silent fallback.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `DEACT_JOBS` value, a worker count; `0` reads as unset.
///
/// # Errors
///
/// The value is not a whole number; the message names it.
pub(crate) fn parse_jobs(value: &str) -> Result<Option<usize>, String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("DEACT_JOBS={value:?} is not a whole number of worker threads"))?;
    Ok((n > 0).then_some(n))
}

/// The `DEACT_JOBS` override: `None` when it is unset or `0`.
///
/// # Errors
///
/// The value is set but does not parse (`parse_jobs`).
pub fn jobs_override() -> Result<Option<usize>, String> {
    std::env::var_os("DEACT_JOBS").map_or(Ok(None), |v| parse_jobs(&v.to_string_lossy()))
}

/// Worker count: the `DEACT_JOBS` override, otherwise the host's
/// available parallelism.
///
/// # Panics
///
/// Panics if `DEACT_JOBS` does not parse; front ends reject that value
/// with [`jobs_override`] before any run.
pub fn default_jobs() -> usize {
    jobs_override()
        .unwrap_or_else(|e| panic!("{e}"))
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
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *results[i].lock().expect("result slot poisoned") = Some(value);
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn jobs_env_parsing() {
        assert_eq!(parse_jobs("3"), Ok(Some(3)));
        assert_eq!(parse_jobs("0"), Ok(None), "0 jobs must read as unset");
        for bad in ["abc", "", "-1", "2.5"] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.starts_with(&format!("DEACT_JOBS={bad:?} ")), "{err}");
        }
    }
}
