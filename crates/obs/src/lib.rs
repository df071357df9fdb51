//! `hypdb-obs` — std-only observability primitives for the workspace.
//!
//! Every other crate funnels its timing and tracing needs through
//! here, which keeps the workspace's byte-identity invariant
//! auditable in one place:
//!
//! * [`clock`] — [`Tick`] and [`Deadline`], the **only** place the
//!   workspace constructs `std::time::Instant` (enforced by
//!   `hypdb-lint`'s `raw-instant-outside-obs` rule). Anything a `Tick`
//!   measures may reach logs, histograms, and trace dumps — never a
//!   report body.
//! * [`ctx`] — the per-thread tracing context: hierarchical span paths
//!   (`request/discovery/#2/planner_round`), lock-cheap aggregation
//!   keyed by path, and explicit capture/install so `hypdb-exec`'s
//!   scoped pool propagates the context into its workers. The
//!   *structural* side (paths, counts) is strictly separated from the
//!   *timing* side (nanoseconds), so deterministic surfaces consume
//!   structure only.
//! * [`hist`] — fixed-bucket latency histograms with atomic counters,
//!   rendered in Prometheus exposition format. The process-wide
//!   [`MIT_SETTLE`] and [`CONTINGENCY_BUILD`] histograms live here so
//!   the stats and causal layers can observe without a serve
//!   dependency.
//! * [`trace`] — the `HYPDB_TRACE` slow-request dump: a JSON span tree
//!   (with timings) written to **stderr only**, never into a response
//!   body.
//! * [`journal`] — the flight recorder's durability layer: a bounded
//!   channel in front of a dedicated writer thread that appends one
//!   JSONL record per request ([`journal::SCHEMA`] =
//!   `hypdb-journal/v1`), dropping (and counting) rather than ever
//!   blocking the request path.
//! * [`ring`] — in-memory retention of finished span trees (last N +
//!   K slowest) behind `HYPDB_DEBUG_TRACES`, serialized through
//!   [`TraceEntry`] — the **single** trace renderer, shared with the
//!   stderr dump.
//! * [`window`] — rolling 1m/5m per-second request summaries
//!   (count/errors/latency) for `/metrics`, all-atomic, no sweeper.
//!
//! The crate depends on nothing and is `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod ctx;
pub mod hist;
pub mod journal;
pub mod ring;
pub mod trace;
pub mod window;

pub use clock::{Deadline, Tick};
pub use ctx::{
    capture, frame, install, item, span, with_request, CtxHandle, SpanReport, TraceReport, Tracer,
};
pub use hist::{Histogram, HistogramSnapshot, CONTINGENCY_BUILD, MIT_SETTLE};
pub use journal::Journal;
pub use ring::{TraceEntry, TraceRing};
pub use trace::{maybe_dump, trace_threshold};
pub use window::{RollingWindow, WindowSummary};
