//! The scoped worker pool.
//!
//! [`ThreadPool`] is a *parallelism budget*, not a set of persistent
//! threads: each fan-out spawns `threads − 1` scoped workers
//! (`std::thread::scope`) and **the calling thread is the first
//! worker** — it pulls items off the same shared cursor until the work
//! runs out, then joins the others. Scoped spawning keeps the crate
//! std-only and `unsafe`-free (borrowed closures need no `'static`
//! laundering). The price is a spawn and a join per call — ≈ 50–100 µs
//! for two workers, more on a busy box — which is *not* negligible
//! against every item the workspace has: measured against 0.2–0.4 ms
//! contingency counts, 65 count fan-outs were 13 of a cold adult
//! analyze's 40 ms, so callers size their fan-outs to give each
//! worker about a millisecond (dense counts fan out only over ≥ 2²⁰
//! positions) and keep millisecond-scale items — permutation chunks,
//! CD's blankets and witness searches, per-context pipeline runs — on
//! the pool.
//!
//! Why the caller works instead of waiting: glibc gives each thread
//! that allocates its own malloc arena, and the tables a fan-out
//! builds stay resident in the arena of whichever thread built them.
//! A caller that only waits leaves every table to spawned threads,
//! whose arenas outlive them; on the ledger's `flight_wide` (≈ 1 200
//! cached tables, 2 vCPU) that read 93–99 MB peak RSS against 86–87 MB
//! with the caller working. A 2-thread fan-out also spawns one thread,
//! not two.
//!
//! Three fan-out shapes:
//!
//! * [`ThreadPool::map_indices`] (and `parallel_map`, `map_chunks`) —
//!   a flat list of items.
//! * [`ThreadPool::map_two_level`] — first-level items (roots) that
//!   each yield second-level items (children); a root's children become
//!   runnable as soon as that root finishes, so one root's children run
//!   beside another root that is still working. CD schedules all of a
//!   discovery's targets this way (`hypdb_causal::cd`).
//! * [`ThreadPool::map_stream`] — a stream of items that only the
//!   caller may produce and consume (it reads them, and it folds the
//!   results in stream order into state it owns), mapped by every
//!   worker. The caller produces while the workers map and maps itself
//!   when it has nothing else to do, so producing and consuming overlap
//!   the mapping. The CSV reader (`hypdb_table::csv`) ingests this way.
//!
//! Guarantees:
//!
//! * **Determinism** — results are returned in item order (two-level:
//!   root order, then each root's yield order) regardless of which
//!   worker computed what, and every item runs under an
//!   `hypdb_obs::item` frame keyed by its position (`#i`, two-level
//!   `#r` and `#r/#j`), never by the worker. Combined with per-chunk
//!   seeding ([`crate::seed`]) this makes every caller's output
//!   independent of the thread count.
//! * **Panic propagation** — a panicking work item aborts the whole
//!   call and re-raises the payload on the caller's thread after every
//!   spawned worker has been joined.
//! * **No nested oversubscription** — a fan-out issued from inside a
//!   pool worker runs inline (depth-1 parallelism): the outer fan-out
//!   already owns the budget, so e.g. per-context pipeline workers run
//!   their MIT permutation chunks sequentially instead of spawning
//!   `threads²` threads. The caller is marked a worker while it works
//!   and gets its previous mark back afterwards (panics included).

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
/// chunks, WHERE scans) stay sequential instead of multiplying into
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

        let cursor = AtomicUsize::new(0);
        let buckets = fork_join(workers, || {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, hypdb_obs::item(i, || f(i))));
            }
            local
        });

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

    /// A deterministic two-level fan-out: `root(r)` for every
    /// `r ∈ 0..roots` yields a list of second-level items, and
    /// `child(r, &yielded, j)` runs once for each of them. Returns, per
    /// root in root order, its yield and its children's results in
    /// yield order — whatever the schedule.
    ///
    /// Scheduling is dynamic: workers take unstarted roots first (the
    /// long sequential items start as early as possible), then any
    /// runnable child; a root's children become runnable the moment
    /// that root finishes, so they run beside roots still working.
    /// Root `r` runs under an `hypdb_obs::item` frame `#r`, child
    /// `(r, j)` under `#r/#j`. Runs inline (each root, then its
    /// children) on a one-thread pool or inside a pool worker. A panic
    /// in any item stops the others from taking new work and is
    /// re-raised on the caller's thread after every worker has joined.
    pub fn map_two_level<C, R, FR, FC>(
        &self,
        roots: usize,
        root: FR,
        child: FC,
    ) -> Vec<(Vec<C>, Vec<R>)>
    where
        C: Send + Sync,
        R: Send,
        FR: Fn(usize) -> Vec<C> + Sync,
        FC: Fn(usize, &[C], usize) -> R + Sync,
    {
        let run_child = |r: usize, yielded: &[C], j: usize| {
            hypdb_obs::item(r, || hypdb_obs::item(j, || child(r, yielded, j)))
        };
        if self.threads <= 1 || roots == 0 || IN_WORKER.with(Cell::get) {
            return (0..roots)
                .map(|r| {
                    let yielded = hypdb_obs::item(r, || root(r));
                    let results = (0..yielded.len())
                        .map(|j| run_child(r, &yielded, j))
                        .collect();
                    (yielded, results)
                })
                .collect();
        }

        let tree = Tree::default();
        let yields: Vec<OnceLock<Vec<C>>> = (0..roots).map(|_| OnceLock::new()).collect();
        let buckets = fork_join(self.threads, || {
            let _abort = AbortOnUnwind(&tree);
            let mut local: Vec<(usize, usize, R)> = Vec::new();
            while let Some(task) = tree.next_task(roots) {
                match task {
                    Task::Root(r) => {
                        let yielded = hypdb_obs::item(r, || root(r));
                        let count = yielded.len();
                        assert!(yields[r].set(yielded).is_ok(), "root {r} ran twice");
                        tree.root_done(r, count);
                    }
                    Task::Child(r, j) => {
                        let yielded = yields[r].get().expect("a child runs after its root");
                        local.push((r, j, run_child(r, yielded, j)));
                    }
                }
            }
            local
        });

        let mut results: Vec<Vec<Option<R>>> = yields
            .iter()
            .map(|y| y.get().map_or(0, Vec::len))
            .map(|n| (0..n).map(|_| None).collect())
            .collect();
        for (r, j, out) in buckets.into_iter().flatten() {
            results[r][j] = Some(out);
        }
        yields
            .into_iter()
            .zip(results)
            .map(|(y, rs)| {
                let y = y.into_inner().expect("every root ran");
                let rs = rs.into_iter().map(|o| o.expect("every child ran once"));
                (y, rs.collect())
            })
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

    /// An ordered map over a stream: `source` produces items, every
    /// worker maps them with `map`, and `sink` consumes the results in
    /// the order `source` produced them, until `source` ends or `sink`
    /// breaks. `source` and `sink` run on the calling thread only, so
    /// they may own state (a reader, a growing table) that is neither
    /// `Send` nor `Sync`, and what they allocate stays in the caller's
    /// malloc arena.
    ///
    /// `source` bounds what is in flight (produced and not yet sunk):
    /// it returns [`Feed::Full`] to be asked again only after the next
    /// result is sunk. The caller's priorities are: sink the next
    /// result if it is ready, else produce, else map an item itself,
    /// else wait for a worker. Item `i` (in production order) runs
    /// under an `hypdb_obs::item` frame `#i`. Runs inline (produce, map,
    /// sink, one item at a time) on a one-thread pool or inside a pool
    /// worker. A panic anywhere stops the stream and is re-raised on
    /// the caller's thread after every worker has joined.
    ///
    /// # Panics
    ///
    /// When `source` is full with nothing in flight: no sink could ever
    /// make room.
    pub fn map_stream<T, U, S, M, K>(&self, mut source: S, map: M, mut sink: K)
    where
        T: Send,
        U: Send,
        S: FnMut() -> Feed<T>,
        M: Fn(T) -> U + Sync,
        K: FnMut(U) -> ControlFlow<()>,
    {
        const STUCK: &str = "map_stream: the source is full with nothing in flight";
        if self.threads <= 1 || IN_WORKER.with(Cell::get) {
            for i in 0.. {
                let item = match source() {
                    Feed::Item(item) => item,
                    Feed::Full => panic!("{STUCK}"),
                    Feed::End => break,
                };
                if sink(hypdb_obs::item(i, || map(item))).is_break() {
                    break;
                }
            }
            return;
        }

        let stream = Stream::default();
        let run = |i: usize, item: T| hypdb_obs::item(i, || map(item));
        let caller = || {
            let _close = CloseOnExit(&stream);
            let (mut full, mut ended) = (false, false);
            let mut state = stream.lock();
            loop {
                if state.aborted {
                    return;
                }
                if let Some(done) = state.results.front_mut().and_then(Option::take) {
                    state.results.pop_front();
                    state.sunk += 1;
                    drop(state);
                    full = false;
                    if sink(done).is_break() {
                        return;
                    }
                } else if !(full || ended) {
                    drop(state);
                    let fed = source();
                    state = stream.lock();
                    match fed {
                        Feed::Item(item) => {
                            let i = state.sunk + state.results.len();
                            state.results.push_back(None);
                            state.queue.push_back((i, item));
                            stream.work.notify_one();
                        }
                        Feed::Full => {
                            assert!(!state.results.is_empty(), "{STUCK}");
                            full = true;
                        }
                        Feed::End => ended = true,
                    }
                    continue;
                } else if state.results.is_empty() {
                    return;
                } else if let Some((i, item)) = state.queue.pop_front() {
                    drop(state);
                    let done = run(i, item);
                    stream.deliver(i, done);
                } else {
                    state = stream.wait(&stream.results, state);
                    continue;
                }
                state = stream.lock();
            }
        };
        let worker = || {
            let _abort = AbortStreamOnUnwind(&stream);
            let mut state = stream.lock();
            loop {
                if state.closed || state.aborted {
                    return;
                }
                match state.queue.pop_front() {
                    Some((i, item)) => {
                        drop(state);
                        let done = run(i, item);
                        stream.deliver(i, done);
                        state = stream.lock();
                    }
                    None => state = stream.wait(&stream.work, state),
                }
            }
        };
        fork_join_beside(self.threads, caller, worker);
    }
}

/// What a [`ThreadPool::map_stream`] source hands the stream.
#[derive(Debug)]
pub enum Feed<T> {
    /// The next item.
    Item(T),
    /// Nothing more until the next result is sunk.
    Full,
    /// The stream has ended.
    End,
}

/// The shared schedule of one [`ThreadPool::map_stream`] call.
struct Stream<T, U> {
    state: Mutex<StreamState<T, U>>,
    /// Signalled when an item is queued, and when the stream closes.
    work: Condvar,
    /// Signalled when a result is delivered, and when a worker aborts.
    results: Condvar,
}

struct StreamState<T, U> {
    /// Produced items no worker has taken, with their stream positions.
    queue: VecDeque<(usize, T)>,
    /// One slot per item in flight, from position `sunk` on: `Some`
    /// once its result is delivered.
    results: VecDeque<Option<U>>,
    /// Items sunk so far.
    sunk: usize,
    /// Set when the caller leaves: no item will be queued again.
    closed: bool,
    /// Set when a worker panicked: nobody takes new work.
    aborted: bool,
}

impl<T, U> Default for Stream<T, U> {
    fn default() -> Self {
        Stream {
            state: Mutex::new(StreamState {
                queue: VecDeque::new(),
                results: VecDeque::new(),
                sunk: 0,
                closed: false,
                aborted: false,
            }),
            work: Condvar::new(),
            results: Condvar::new(),
        }
    }
}

impl<T, U> Stream<T, U> {
    fn lock(&self) -> MutexGuard<'_, StreamState<T, U>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(
        &self,
        on: &Condvar,
        state: MutexGuard<'a, StreamState<T, U>>,
    ) -> MutexGuard<'a, StreamState<T, U>> {
        on.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Files the result of the item at stream position `i`.
    fn deliver(&self, i: usize, done: U) {
        let mut state = self.lock();
        let slot = i - state.sunk;
        state.results[slot] = Some(done);
        drop(state);
        self.results.notify_one();
    }
}

/// Closes the stream when the caller leaves it (panics included), so
/// the workers stop waiting for items that will never come.
struct CloseOnExit<'a, T, U>(&'a Stream<T, U>);

impl<T, U> Drop for CloseOnExit<'_, T, U> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.work.notify_all();
    }
}

/// Aborts the stream when a worker unwinds out of an item, so the
/// caller stops waiting for a result that will never be delivered.
struct AbortStreamOnUnwind<'a, T, U>(&'a Stream<T, U>);

impl<T, U> Drop for AbortStreamOnUnwind<'_, T, U> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.lock();
            state.aborted = true;
            drop(state);
            self.0.results.notify_all();
            self.0.work.notify_all();
        }
    }
}

/// Runs `body` on `workers` threads — the caller plus `workers − 1`
/// scoped spawns — and returns what each returned, the caller's first.
fn fork_join<T, F>(workers: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    let (first, rest) = fork_join_beside(workers, &body, &body);
    let mut out = Vec::with_capacity(workers);
    out.push(first);
    out.extend(rest);
    out
}

/// Runs `caller` on the calling thread beside `workers − 1` scoped
/// spawns of `body`, and returns what the caller returned and what
/// each spawn returned. Spawned workers inherit the caller's tracing
/// context; every worker, the caller included, is marked a pool worker
/// while it runs (the caller gets its previous mark back afterwards).
/// A panic in any of them is re-raised here once all spawned workers
/// have joined — `std::thread::scope` joins them before re-raising the
/// caller's own.
fn fork_join_beside<C, T, FC, F>(workers: usize, caller: FC, body: F) -> (C, Vec<T>)
where
    T: Send,
    FC: FnOnce() -> C,
    F: Fn() -> T + Sync,
{
    let ctx = hypdb_obs::capture();
    let (body, ctx) = (&body, &ctx);
    let mut out = Vec::with_capacity(workers.saturating_sub(1));
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    let first = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    hypdb_obs::install(ctx, body)
                })
            })
            .collect();
        let first = with_fanout_guard(caller);
        for h in handles {
            match h.join() {
                Ok(local) => out.push(local),
                Err(payload) => panic_payload = Some(payload),
            }
        }
        first
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    (first, out)
}

/// The shared schedule of one [`ThreadPool::map_two_level`] call.
#[derive(Default)]
struct Tree {
    state: Mutex<TreeState>,
    /// Signalled when a root finishes (its children became runnable,
    /// or the last root is done) and when the fan-out aborts.
    wake: Condvar,
}

#[derive(Default)]
struct TreeState {
    /// The next root no worker has taken.
    next_root: usize,
    /// Roots taken and not finished: while any runs, more children may
    /// still appear, so an idle worker waits instead of leaving.
    running: usize,
    /// Runnable children `(root, j)`, in the order their roots finished.
    ready: VecDeque<(usize, usize)>,
    /// Set when an item panicked: no worker takes new work.
    aborted: bool,
}

enum Task {
    Root(usize),
    Child(usize, usize),
}

impl Tree {
    fn lock(&self) -> MutexGuard<'_, TreeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next item for a worker, waiting while none is runnable but a
    /// running root may still yield some; `None` when the work is done
    /// (or aborted).
    fn next_task(&self, roots: usize) -> Option<Task> {
        let mut state = self.lock();
        loop {
            if state.aborted {
                return None;
            }
            if state.next_root < roots {
                let r = state.next_root;
                state.next_root += 1;
                state.running += 1;
                return Some(Task::Root(r));
            }
            if let Some((r, j)) = state.ready.pop_front() {
                return Some(Task::Child(r, j));
            }
            if state.running == 0 {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Root `r` finished with `count` children: make them runnable.
    fn root_done(&self, r: usize, count: usize) {
        let mut state = self.lock();
        state.running -= 1;
        state.ready.extend((0..count).map(|j| (r, j)));
        drop(state);
        self.wake.notify_all();
    }
}

/// Aborts the tree when a worker unwinds out of an item, so the other
/// workers stop waiting for children a panicked root will never yield.
struct AbortOnUnwind<'a>(&'a Tree);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.wake.notify_all();
        }
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
    fn the_caller_works_and_gets_its_mark_back() {
        let caller = std::thread::current().id();
        for pool in [ThreadPool::new(2), ThreadPool::new(4)] {
            let seen = pool.map_indices(64, |i| {
                // Every item, the caller's included, runs marked.
                assert!(IN_WORKER.with(Cell::get), "item {i} ran unmarked");
                std::thread::sleep(std::time::Duration::from_micros(200));
                std::thread::current().id() == caller
            });
            assert!(seen.contains(&true), "the caller ran no item");
            assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");
            pool.map_two_level(
                3,
                |r| vec![r; 4],
                |_, _, _| {
                    assert!(IN_WORKER.with(Cell::get));
                },
            );
            assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");
        }
        // A marked caller stays marked.
        with_fanout_guard(|| {
            ThreadPool::new(4).map_indices(8, |i| i);
            assert!(IN_WORKER.with(Cell::get));
        });
        assert!(!IN_WORKER.with(Cell::get));
    }

    #[test]
    fn a_panic_on_the_caller_is_raised_after_the_workers_join() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let panicked = AtomicBool::new(false);
        let item = || {
            if std::thread::current().id() == caller && !panicked.swap(true, Ordering::SeqCst) {
                panic!("caller item panic");
            }
            started.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            finished.fetch_add(1, Ordering::SeqCst);
        };
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload.downcast_ref::<&str>().map(|s| s.to_string())
        };

        let flat = std::panic::catch_unwind(|| ThreadPool::new(4).map_indices(32, |_| item()));
        assert_eq!(
            message(flat.unwrap_err()).as_deref(),
            Some("caller item panic")
        );
        // Spawned workers ran every other item to the end before the
        // panic reached us.
        assert_eq!(finished.load(Ordering::SeqCst), 31);
        assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");

        panicked.store(false, Ordering::SeqCst);
        let tree = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map_two_level(
                8,
                |_| {
                    item();
                    vec![(); 3]
                },
                |_, _, _| item(),
            )
        });
        assert_eq!(
            message(tree.unwrap_err()).as_deref(),
            Some("caller item panic")
        );
        assert_eq!(
            started.load(Ordering::SeqCst),
            finished.load(Ordering::SeqCst),
            "an item was still running when the panic was re-raised"
        );
        assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");
    }

    #[test]
    fn two_level_results_are_in_root_then_yield_order() {
        // Pseudo-random delays (a pure function of the item) shuffle
        // completion order differently at each thread count.
        let delay = |key: u64| {
            let us = crate::seed::mix(0x7EE, key) % 400;
            std::thread::sleep(std::time::Duration::from_micros(us));
        };
        let children = |r: usize| (r * 7 + 3) % 5; // 3, 0, 2, 4, 1, 3, …
        let expect: Vec<_> = (0..9)
            .map(|r| {
                let yielded: Vec<usize> = (0..children(r)).map(|j| 10 * r + j).collect();
                let results: Vec<(usize, usize)> = yielded.iter().map(|&y| (r, y)).collect();
                (yielded, results)
            })
            .collect();
        let mut paths = Vec::new();
        for threads in [1, 2, 8] {
            let tracer = hypdb_obs::Tracer::new();
            let out = hypdb_obs::with_request(&tracer, || {
                ThreadPool::new(threads).map_two_level(
                    9,
                    |r| {
                        delay(r as u64);
                        hypdb_obs::span("root", || (0..children(r)).map(|j| 10 * r + j).collect())
                    },
                    |r, yielded: &[usize], j| {
                        delay(1_000 + yielded[j] as u64);
                        hypdb_obs::span("child", || (r, yielded[j]))
                    },
                )
            });
            assert_eq!(out, expect, "threads={threads}");
            let mut seen: Vec<String> = tracer.finish().spans.into_iter().map(|s| s.path).collect();
            seen.sort();
            paths.push(seen);
        }
        // Frames are keyed by position, never by worker.
        assert!(
            paths[0].contains(&"request/#3/#3/child".to_string()),
            "{:?}",
            paths[0]
        );
        assert!(paths.iter().all(|p| p == &paths[0]));
        assert!(ThreadPool::new(4)
            .map_two_level(0, |_| vec![0u8], |_, _, _| ())
            .is_empty());
    }

    /// Streams `n` items through `pool` with at most `window` in
    /// flight, mapping with pseudo-random delays; returns what the sink
    /// saw and the most items ever in flight.
    fn stream_through(pool: ThreadPool, n: usize, window: usize) -> (Vec<usize>, usize) {
        let caller = std::thread::current().id();
        let in_flight = Cell::new(0);
        let (mut produced, mut most) = (0, 0);
        let mut seen = Vec::new();
        pool.map_stream(
            || {
                assert_eq!(std::thread::current().id(), caller, "source off the caller");
                if produced == n {
                    return Feed::End;
                }
                if in_flight.get() == window {
                    return Feed::Full;
                }
                in_flight.set(in_flight.get() + 1);
                most = most.max(in_flight.get());
                produced += 1;
                Feed::Item(produced - 1)
            },
            |i: usize| {
                let marked = IN_WORKER.with(Cell::get);
                assert!(marked || pool.threads() == 1, "item {i} ran unmarked");
                let us = crate::seed::mix(0x57E, i as u64) % 300;
                std::thread::sleep(std::time::Duration::from_micros(us));
                i * 3
            },
            |x| {
                assert_eq!(std::thread::current().id(), caller, "sink off the caller");
                in_flight.set(in_flight.get() - 1);
                seen.push(x);
                ControlFlow::Continue(())
            },
        );
        (seen, most)
    }

    #[test]
    fn a_stream_sinks_in_order_on_the_caller_within_its_window() {
        for pool in pools() {
            for window in [1, 2, 5] {
                let (seen, most) = stream_through(pool, 40, window);
                assert_eq!(seen, (0..40).map(|i| i * 3).collect::<Vec<_>>());
                assert!(most <= window, "threads={} window={window}", pool.threads());
                if pool.threads() > 1 && window > 1 {
                    assert!(most > 1, "threads={}: nothing overlapped", pool.threads());
                }
            }
            assert_eq!(stream_through(pool, 0, 3).0, Vec::<usize>::new());
            assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");
        }
        // Inside a worker the stream runs inline and still in order.
        let inner = ThreadPool::new(2).map_indices(2, |_| stream_through(ThreadPool::new(4), 9, 2));
        assert!(inner
            .iter()
            .all(|(seen, most)| seen.len() == 9 && *most == 1));
    }

    #[test]
    fn a_breaking_sink_ends_the_stream() {
        for pool in pools() {
            let (produced, sunk) = (Cell::new(0), Cell::new(0));
            pool.map_stream(
                || match produced.get() {
                    1_000 => Feed::End,
                    n if n == sunk.get() + 4 => Feed::Full,
                    n => {
                        produced.set(n + 1);
                        Feed::Item(n + 1)
                    }
                },
                |i: usize| i,
                |i| {
                    sunk.set(sunk.get() + 1);
                    assert_eq!(i, sunk.get(), "out of order");
                    if i == 7 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(sunk.get(), 7);
            assert!(
                produced.get() <= 7 + 4,
                "threads={}: produced {}",
                pool.threads(),
                produced.get()
            );
        }
    }

    #[test]
    fn a_stream_panic_is_raised_after_the_workers_join() {
        let caller = std::thread::current().id();
        for on_caller in [false, true] {
            for pool in [ThreadPool::new(2), ThreadPool::new(4)] {
                let (produced, sunk) = (Cell::new(0), Cell::new(0));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.map_stream(
                        || {
                            if produced.get() - sunk.get() == 3 {
                                return Feed::Full;
                            }
                            produced.set(produced.get() + 1);
                            Feed::Item(produced.get())
                        },
                        |i: usize| {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                            let here = std::thread::current().id() == caller;
                            assert!(!(i >= 20 && here == on_caller), "item panic");
                            i
                        },
                        |_| {
                            sunk.set(sunk.get() + 1);
                            ControlFlow::Continue(())
                        },
                    )
                }));
                assert!(result.is_err(), "on_caller={on_caller}: no panic");
                assert!(!IN_WORKER.with(Cell::get), "the caller's mark leaked");
            }
        }
    }

    #[test]
    #[should_panic(expected = "full with nothing in flight")]
    fn a_source_full_with_nothing_in_flight_is_a_bug() {
        ThreadPool::new(2).map_stream(|| Feed::<u8>::Full, |x| x, |_| ControlFlow::Continue(()));
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
