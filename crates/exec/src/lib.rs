//! Deterministic parallel execution for the HypDB workspace.
//!
//! The paper's bottleneck is conditional-independence testing: MIT/HyMIT
//! runs thousands of Patefield permutations per test and CD Phase I runs
//! one test per candidate covariate (§5–§6, Table 1). This crate is the
//! std-only lever that lets every layer above spread that work across
//! cores **without changing a single output bit**:
//!
//! * [`pool`] — a scoped worker pool ([`ThreadPool`]) with flat
//!   (`map_indices`), two-level and stream fan-outs on one job queue,
//!   panic propagation, and a global thread count sized from
//!   `std::thread::available_parallelism` and overridable via the
//!   `HYPDB_THREADS` environment variable or [`set_global_threads`].
//! * [`seed`] — SplitMix64-based derivation of independent per-chunk RNG
//!   seeds from a master seed, so Monte-Carlo loops can be split into
//!   fixed chunks whose layout depends only on the problem size — never
//!   on the thread count.
//!
//! **The determinism contract.** Callers must make the work
//! decomposition a function of the *problem* (item count, fixed chunk
//! sizes, per-chunk seeds) and combine partial results in chunk order
//! (or with exact, order-insensitive operations such as integer sums).
//! The pool then guarantees the same results at any thread count,
//! including 1 — the scheduling only decides *who* computes each chunk,
//! never *what* is computed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod seed;

pub use pool::{global_threads, set_global_threads, with_fanout_guard, Feed, ThreadPool};
