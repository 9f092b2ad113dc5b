//! `ThreadPool`-lite: shared thread-count resolution and scoped fan-out.
//!
//! Several subsystems need the same three things — resolve a user-facing
//! thread count (`0` = one worker per hardware thread), split work into
//! deterministic contiguous chunks, and fan a closure out over scoped
//! threads with a serial fast path. Before this module each of them
//! (`ParCsr`, `CompiledMdMatrix`, now the lumping engine) reimplemented
//! the plumbing; they all route through here instead.
//!
//! The workspace forbids `unsafe`, so there is no persistent pool of
//! parked workers: a "pool" is just a resolved worker count, and each
//! [`ThreadPool::run`] is one [`std::thread::scope`] region (which is
//! what lets the closures borrow from the caller's stack). Spawning a
//! thread costs tens of microseconds — negligible against the
//! region-sized work units this is used for.
//!
//! Determinism contract: `run(jobs, f)` returns `f(0), …, f(jobs-1)` in
//! job order, and each job index is evaluated exactly once, so for a pure
//! `f` the result is identical for every worker count. Callers that fold
//! floating-point sums must additionally make each *job* own its output
//! rows (see DESIGN.md §12) — the pool never splits a job.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker per available hardware thread
/// ([`std::thread::available_parallelism`]), falling back to `1` when it
/// cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..len` into at most `parts` contiguous, near-equal ranges
/// (the leftovers go to the earlier ranges). Deterministic: depends only
/// on `len` and `parts`. Empty ranges are never produced.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// A resolved worker count plus the scoped fan-out primitive.
///
/// # Example
///
/// ```
/// use mdl_obs::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let squares = pool.run(4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers; `0` resolves to [`default_threads`].
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }

    /// The single-worker pool: every [`run`](Self::run) degenerates to a
    /// plain serial loop without spawning.
    pub fn serial() -> Self {
        ThreadPool { threads: 1 }
    }

    /// The resolved worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), …, f(jobs-1)` across the pool's workers and returns
    /// the results in job order. Jobs are claimed dynamically (an atomic
    /// cursor), so uneven job costs balance; each index is evaluated
    /// exactly once.
    ///
    /// With one worker (or at most one job) this is a serial loop on the
    /// calling thread — no spawn, bit-for-bit the obvious `for` loop.
    ///
    /// When observability is enabled, records the per-worker task counts
    /// into the `pool.worker.tasks` histogram (the "did work actually
    /// spread across threads?" signal) and counts jobs in `pool.tasks`.
    ///
    /// Span context crosses the fan-out: each worker re-enters the
    /// caller's current span (see [`crate::profile::enter_context`]), so
    /// spans opened inside jobs attribute to the stage that launched
    /// them, and when profiling is on each worker wraps its run in a
    /// `pool.worker` span so the timeline shows the parallel region.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(f).collect();
        }
        let parent = crate::profile::current_span();
        let cursor = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _ctx = crate::profile::enter_context(parent);
                        let _worker_span =
                            crate::profile::profiling().then(|| crate::span("pool.worker"));
                        let mut local = Vec::new();
                        loop {
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            if j >= jobs {
                                break;
                            }
                            local.push((j, f(j)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => per_worker.push(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        if crate::enabled() {
            let tasks = crate::histogram("pool.worker.tasks");
            for local in &per_worker {
                tasks.record(local.len() as u64);
            }
            crate::counter("pool.tasks").add(jobs as u64);
        }
        let mut results: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        for (j, v) in per_worker.into_iter().flatten() {
            results[j] = Some(v);
        }
        results
            .into_iter()
            .map(|r| r.expect("pool evaluated every job"))
            .collect()
    }
}

impl Default for ThreadPool {
    /// The serial pool — parallelism is opt-in everywhere.
    fn default() -> Self {
        ThreadPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_hardware_threads() {
        assert_eq!(ThreadPool::new(0).threads(), default_threads());
        assert!(ThreadPool::new(0).threads() >= 1);
        assert_eq!(ThreadPool::new(3).threads(), 3);
        assert_eq!(ThreadPool::serial().threads(), 1);
        assert_eq!(ThreadPool::default(), ThreadPool::serial());
    }

    #[test]
    fn run_returns_results_in_job_order() {
        // Serialized: a fan-out opens `pool.worker` spans whenever another
        // test has profiling on, and they would land in its trace ring.
        let _guard = crate::testing::guard();
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let got = pool.run(23, |i| i * 10);
            let want: Vec<usize> = (0..23).map(|i| i * 10).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn run_borrows_from_caller() {
        // Serialized: a fan-out opens `pool.worker` spans whenever another
        // test has profiling on, and they would land in its trace ring.
        let _guard = crate::testing::guard();
        let data: Vec<u64> = (0..100).collect();
        let pool = ThreadPool::new(4);
        let sums = pool.run(4, |c| {
            let chunk = 25;
            data[c * chunk..(c + 1) * chunk].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn run_with_no_jobs_is_empty() {
        // Serialized: a fan-out opens `pool.worker` spans whenever another
        // test has profiling on, and they would land in its trace ring.
        let _guard = crate::testing::guard();
        assert!(ThreadPool::new(4).run(0, |_| 0).is_empty());
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, parts) in [(10, 3), (10, 1), (3, 10), (1024, 4), (7, 7), (0, 4), (5, 0)] {
            let ranges = chunk_ranges(len, parts);
            if len == 0 || parts == 0 {
                assert!(ranges.is_empty(), "degenerate ({len}, {parts})");
                continue;
            }
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous ({len}, {parts})");
                assert!(!r.is_empty(), "no empty ranges ({len}, {parts})");
                next = r.end;
            }
            assert_eq!(next, len, "covers 0..len ({len}, {parts})");
            {
                assert_eq!(ranges.len(), parts.min(len));
                let max = ranges.iter().map(ExactSizeIterator::len).max().unwrap();
                let min = ranges.iter().map(ExactSizeIterator::len).min().unwrap();
                assert!(max - min <= 1, "near-equal ({len}, {parts})");
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        // Serialized: a fan-out opens `pool.worker` spans whenever another
        // test has profiling on, and they would land in its trace ring.
        let _guard = crate::testing::guard();
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(|| {
            pool.run(8, |j| {
                if j == 5 {
                    panic!("job 5 fails");
                }
                j
            })
        });
        assert!(r.is_err());
    }
}
