//! `hypdb-serve`: the concurrent bias-analysis server.
//!
//! The paper pitches bias detection as an *interactive* aid — "think
//! twice about your group-by query" — and the workspace's north star is
//! serving that check at production scale. This crate is the serving
//! front-end over everything the lower layers guarantee: the pipeline
//! is `Sync` end to end, every RNG seed derives from configuration, and
//! a [`Table`](hypdb_table::Table) is cheap to share immutably by `Arc`
//! — so concurrent
//! `analyze()` calls against one shared table are safe *and*
//! reproducible, byte for byte, at any worker count.
//!
//! A hand-rolled HTTP/1.1 server (std `TcpListener`; the workspace
//! vendors no network dependencies) exposes:
//!
//! | Endpoint         | Meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `POST /analyze`  | full bias report for a submitted group-by query    |
//! | `POST /detect`   | detection-only cheap path (no explain/resolve)     |
//! | `GET /datasets`  | registered datasets (name, rows, attrs)            |
//! | `GET /healthz`   | liveness                                           |
//! | `GET /metrics`   | Prometheus text: request/cache/queue counters,     |
//! |                  | latency histograms, rolling 1m/5m window summaries |
//! | `GET /debug/traces`   | retained span trees (last N + K slowest)      |
//! | `GET /debug/requests` | the most recent journal records               |
//! | `GET /debug/config`   | the server's effective configuration          |
//!
//! The **flight recorder** threads through every request:
//! `HYPDB_JOURNAL=path` (or `hypdb serve --journal`) appends one
//! structural-first `hypdb-journal/v1` record per request ([`journal`])
//! through `hypdb-obs`'s bounded, never-blocking writer;
//! `HYPDB_DEBUG_TRACES=N` sizes the retained-trace ring behind
//! `/debug/traces`; and [`replay`] re-issues a captured journal and
//! verifies byte-identical response bodies — the `hypdb replay`
//! subcommand.
//!
//! Request/response bodies are the `hypdb-core` [`wire`] schema
//! ([`AnalyzeRequest`](hypdb_core::AnalyzeRequest) in, a timing-zeroed
//! [`AnalysisReport`](hypdb_core::AnalysisReport) or
//! [`DetectReport`](hypdb_core::DetectReport) out), shared verbatim
//! with the CLI and the test suite. Admission control is a bounded
//! connection queue (overflow → clean `503`) plus `hypdb-exec`'s
//! nested-fan-out guard around each request's pipeline run; responses
//! for identical requests come from a fingerprint-keyed,
//! **byte-bounded LRU** report cache ([`cache::ByteLruCache`]) with
//! hit/miss/eviction/resident-bytes counters surfaced in `/metrics`.
//!
//! Cross-request sharing: every report request resolves its
//! `(dataset, WHERE selection)` to a shared
//! [`OracleCache`](hypdb_core::OracleCache) slot in the [`Registry`],
//! so analyses over one selection serve one another's contingency
//! tables and entropies. The aggregated
//! [`OracleStats`](hypdb_core::OracleStats) — tests, scans, cache hits,
//! marginalisations, entropies and the `hypdb_mit_*` permutation
//! counters — are exported in `/metrics`.
//!
//! Environment knobs: `HYPDB_SERVE_ADDR`, `HYPDB_SERVE_WORKERS`,
//! `HYPDB_SERVE_QUEUE`, `HYPDB_SERVE_MAX_BODY`,
//! `HYPDB_SERVE_TIMEOUT_MS`, `HYPDB_SERVE_CACHE_BYTES`,
//! `HYPDB_JOURNAL`, `HYPDB_DEBUG_TRACES` (see
//! [`ServeConfig::from_env`]), alongside the workspace-wide
//! `HYPDB_THREADS`.
//!
//! [`wire`]: hypdb_core::wire

#![deny(unsafe_code)] // one documented FFI exception lives in `sig`
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod registry;
pub mod replay;
pub mod server;
pub mod sig;

pub use cache::{ByteLruCache, CacheStats};
pub use metrics::{MetricsSnapshot, OracleSnapshot};
pub use registry::{DatasetInfo, Registry};
pub use replay::{Pace, ParsedJournal, ReplayOutcome};
pub use server::{ServeConfig, Server, ServerHandle};
