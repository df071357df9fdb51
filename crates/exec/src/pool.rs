//! The scoped worker pool.
//!
//! [`ThreadPool`] is a *parallelism budget*, not a set of persistent
//! threads: each `parallel_map` call spawns scoped workers
//! (`std::thread::scope`) that pull work items off a shared atomic
//! cursor and are joined before the call returns. Scoped spawning keeps
//! the crate std-only and `unsafe`-free (borrowed closures need no
//! `'static` laundering). The price is a spawn and a join per call —
//! ≈ 50–100 µs for two workers, more on a busy box — which is *not*
//! negligible against every item the workspace has: PR 17 measured it
//! against 0.2–0.4 ms contingency counts (65 count fan-outs were 13 of
//! a cold adult analyze's 40 ms), so callers size their fan-outs to
//! give each worker about a millisecond (dense counts fan out only over
//! ≥ 2²⁰ positions) and keep millisecond-scale items — permutation
//! chunks, CD's per-candidate searches, per-context pipeline runs — on
//! the pool.
//!
//! Guarantees:
//!
//! * **Determinism** — results are returned in item order regardless of
//!   which worker computed what. Combined with per-chunk seeding
//!   ([`crate::seed`]) this makes every caller's output independent of
//!   the thread count.
//! * **Panic propagation** — a panicking work item aborts the whole
//!   call and re-raises the payload on the caller's thread.
//! * **No nested oversubscription** — a `parallel_map` issued from
//!   inside a pool worker runs inline (depth-1 parallelism): the outer
//!   fan-out already owns the budget, so e.g. per-context pipeline
//!   workers run their MIT permutation chunks sequentially instead of
//!   spawning `threads²` threads.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime override of the global thread count (0 = no override).
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily computed default: `HYPDB_THREADS` or `available_parallelism`.
static GLOBAL_DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True on threads spawned by a pool (see "No nested
    /// oversubscription" above).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn env_threads() -> Option<usize> {
    std::env::var("HYPDB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide worker count: the `HYPDB_THREADS` environment
/// variable if set, otherwise `std::thread::available_parallelism`,
/// unless overridden by [`set_global_threads`]. Always ≥ 1.
pub fn global_threads() -> usize {
    let over = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *GLOBAL_DEFAULT.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Overrides the process-wide worker count at runtime (benchmarks use
/// this to measure 1-thread vs N-thread wall clock in one process; the
/// determinism tests use it to pin thread counts). `0` removes the
/// override, restoring the `HYPDB_THREADS`/`available_parallelism`
/// default. Changing the count never changes any result — only how
/// fast it arrives.
pub fn set_global_threads(threads: usize) {
    GLOBAL_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Runs `f` with the current thread marked as a pool worker, so any
/// [`ThreadPool`] fan-out issued inside `f` runs inline (depth-1
/// parallelism), exactly as if `f` were a work item of an outer
/// `parallel_map`. The previous mark is restored on exit (panics
/// included — the mark lives in a thread-local that the next guarded
/// call resets), so nesting guards is harmless.
///
/// This is the admission-control lever for long-lived request workers
/// (e.g. `hypdb-serve`): a server that runs each in-flight request
/// under the guard owns its parallelism budget at the *request* level —
/// concurrent requests spread across worker threads while each
/// request's internal fan-outs (per-context analysis, MIT permutation
/// chunks, shard scans) stay sequential instead of multiplying into
/// `workers × threads` threads. Results never change: the guard only
/// collapses *where* work runs, and every fan-out in the workspace is
/// deterministic at any thread count, including 1.
pub fn with_fanout_guard<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// A parallelism budget for deterministic fork-join maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool that uses up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The pool sized by the current global setting
    /// ([`global_threads`]).
    pub fn current() -> Self {
        ThreadPool::new(global_threads())
    }

    /// A single-threaded pool (always runs inline).
    pub fn sequential() -> Self {
        ThreadPool::new(1)
    }

    /// Maximum number of workers this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to `0..n` and returns the results in index order.
    ///
    /// Work is distributed dynamically (an atomic cursor), so
    /// heterogeneous item costs balance across workers; the output
    /// order is by index regardless of scheduling. Runs inline when the
    /// pool has one thread, `n ≤ 1`, or the caller is itself a pool
    /// worker. If any `f` panics, one panic payload is re-raised on the
    /// caller's thread after all workers have stopped.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 || IN_WORKER.with(Cell::get) {
            return (0..n).map(|i| hypdb_obs::item(i, || f(i))).collect();
        }

        // Tracing context propagation: workers inherit the submitting
        // thread's span path, and every item runs under a `#index`
        // frame — index-based, so span paths are identical at any
        // worker count (inline path included).
        let ctx = hypdb_obs::capture();
        let cursor = AtomicUsize::new(0);
        let f = &f;
        let ctx = &ctx;
        let cursor = &cursor;
        let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        hypdb_obs::install(ctx, || {
                            let mut local: Vec<(usize, R)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, hypdb_obs::item(i, || f(i))));
                            }
                            local
                        })
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => buckets.push(local),
                    Err(payload) => panic_payload = Some(payload),
                }
            }
        });
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }

        // Debug-only determinism audit (`HYPDB_AUDIT=1`): the cursor
        // must have handed out exactly `0..n`, once each, and the
        // XOR-combined per-worker trace fingerprints must match the
        // full range — proving the merge below is independent of which
        // worker completed which chunk (see [`crate::audit`]).
        if crate::audit::enabled() {
            let mut cover = crate::audit::CoverAudit::new(n);
            for bucket in &buckets {
                cover.record_chunk(bucket.iter().map(|(i, _)| *i));
            }
            cover.finish();
        }

        // Reassemble in index order (scheduling-independent).
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in buckets.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }

    /// Applies `f` to every element of `items` (with its index) and
    /// returns the results in item order. See [`ThreadPool::map_indices`]
    /// for the scheduling and panic contract.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// Splits `0..n` into fixed-size chunks (`chunk` items each, last
    /// one short) and maps each *chunk range* through `f`, returning the
    /// partial results in chunk order for the caller to reduce.
    ///
    /// This is the chunked-reduce building block: the chunk layout is a
    /// pure function of `(n, chunk)` — never of the thread count — so a
    /// caller that folds the returned partials in order (or merges them
    /// with exact, commutative operations such as `u64` sums) is
    /// deterministic at any parallelism level.
    pub fn map_chunks<A, F>(&self, n: usize, chunk: usize, f: F) -> Vec<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let chunks = n.div_ceil(chunk);
        self.map_indices(chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            f(lo..hi)
        })
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> [ThreadPool; 4] {
        [
            ThreadPool::sequential(),
            ThreadPool::new(2),
            ThreadPool::new(3),
            ThreadPool::new(8),
        ]
    }

    #[test]
    fn map_indices_preserves_order() {
        for pool in pools() {
            let out = pool.map_indices(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for pool in pools() {
            assert_eq!(pool.parallel_map(&items, |_, &x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn map_chunks_layout_is_thread_independent() {
        for pool in pools() {
            let ranges = pool.map_chunks(10, 4, |r| (r.start, r.end));
            assert_eq!(ranges, vec![(0, 4), (4, 8), (8, 10)]);
        }
    }

    #[test]
    fn chunked_sum_is_exact() {
        let n = 100_000usize;
        let expect: u64 = (0..n as u64).sum();
        for pool in pools() {
            let partials = pool.map_chunks(n, 4096, |r| r.map(|i| i as u64).sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), expect);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indices(1, |i| i + 7), vec![7]);
        assert!(pool.map_chunks(0, 8, |r| r.len()).is_empty());
    }

    #[test]
    fn panics_propagate() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.map_indices(64, |i| {
                if i == 33 {
                    panic!("worker panic at {i}");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn nested_calls_run_inline() {
        let pool = ThreadPool::new(4);
        let out = pool.map_indices(8, |i| {
            // The inner map must not deadlock or oversubscribe; it runs
            // inline on the worker and still returns ordered results.
            let inner = ThreadPool::new(4).map_indices(5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fanout_guard_forces_inline_runs() {
        let pool = ThreadPool::new(4);
        let out = with_fanout_guard(|| pool.map_indices(6, |i| i * 2));
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        // The mark is restored after the guard: this fan-out may spawn.
        assert_eq!(pool.map_indices(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn fanout_guard_restores_on_panic() {
        let caught = std::panic::catch_unwind(|| with_fanout_guard(|| panic!("boom")));
        assert!(caught.is_err());
        // A subsequent unguarded fan-out still parallelises correctly.
        let out = ThreadPool::new(4).map_indices(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn global_threads_override_roundtrip() {
        let before = global_threads();
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(ThreadPool::current().threads(), 3);
        set_global_threads(0);
        assert_eq!(global_threads(), before);
    }

    #[test]
    fn pool_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn load_imbalance_still_ordered() {
        // Front-loaded costs exercise the dynamic cursor.
        let pool = ThreadPool::new(4);
        let out = pool.map_indices(32, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }
}
