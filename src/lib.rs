//! # HypDB-rs
//!
//! A from-scratch Rust reproduction of *"Bias in OLAP Queries: Detection,
//! Explanation, and Removal"* (Salimi, Gehrke, Suciu — SIGMOD 2018).
//!
//! HypDB takes a group-by-average OLAP query over observational data and
//!
//! 1. **detects** whether the query is *biased* — whether its answer is a
//!    confounded estimate of the causal effect the analyst intended,
//! 2. **explains** the bias by ranking covariates and mediators by
//!    *responsibility* and ground-level value triples by *contribution*,
//! 3. **resolves** the bias by rewriting the query into an unbiased
//!    estimator of the average treatment effect (ATE) or the natural
//!    direct effect (NDE).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`exec`] — the deterministic parallel execution layer: scoped
//!   worker pool, per-chunk seed derivation, sharded caches,
//! * [`table`] — columnar categorical storage: the one relation type
//!   every kernel reads, CSV ingest, selection images and contingency
//!   tables,
//! * [`stats`] — entropy estimators, χ²/G tests, the MIT permutation test,
//! * [`graph`] — causal DAGs, d-separation, Bayesian-network sampling,
//! * [`causal`] — Markov-boundary discovery (Grow–Shrink, IAMB), the CD
//!   covariate-discovery algorithm, the CI oracle and preprocessing,
//! * [`sql`] — the mini OLAP SQL dialect of the paper,
//! * [`core`] — the HypDB pipeline: detect / explain / resolve,
//! * [`serve`] — the concurrent HTTP serving front-end: shared
//!   `Arc<Table>` registry, bounded admission queue, report
//!   cache, and byte-reproducible `/analyze`–`/detect` endpoints,
//! * [`datasets`] — the paper's five datasets (real or faithfully
//!   simulated) plus the RandomData ground-truth generator.
//!
//! ## Quickstart
//!
//! ```
//! use hypdb::prelude::*;
//!
//! // A tiny observational dataset with a confounder Z -> {T, Y}.
//! let mut b = TableBuilder::new(["T", "Y", "Z"]);
//! for (t, y, z, copies) in [
//!     ("t1", "1", "a", 30u32), ("t1", "0", "a", 10),
//!     ("t0", "1", "a", 5),     ("t0", "0", "a", 5),
//!     ("t1", "1", "b", 5),     ("t1", "0", "b", 10),
//!     ("t0", "1", "b", 10),    ("t0", "0", "b", 40),
//! ] {
//!     for _ in 0..copies { b.push_row([t, y, z]).unwrap(); }
//! }
//! let table = b.finish();
//!
//! let query = QueryBuilder::new("T")
//!     .outcome("Y")
//!     .build(&table)
//!     .unwrap();
//! let report = HypDb::new(&table)
//!     .with_covariates(["Z"])
//!     .unwrap()
//!     .analyze(&query)
//!     .unwrap();
//! println!("{report}");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hypdb_causal as causal;
pub use hypdb_core as core;
pub use hypdb_datasets as datasets;
pub use hypdb_exec as exec;
pub use hypdb_graph as graph;
pub use hypdb_serve as serve;
pub use hypdb_sql as sql;
pub use hypdb_stats as stats;
pub use hypdb_table as table;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use hypdb_causal::{
        CdConfig, CiConfig, CiOracle, CovariateDiscovery, IndependenceTestKind,
    };
    pub use hypdb_core::{
        AnalysisReport, AnalyzeRequest, BiasReport, DetectReport, EffectKind, HypDb, Query,
        QueryBuilder, RewriteResult,
    };
    pub use hypdb_datasets as datasets;
    pub use hypdb_serve::{Registry, ServeConfig, Server};
    pub use hypdb_sql::{parse_query, Statement};
    pub use hypdb_stats::TestOutcome;
    pub use hypdb_table::{AttrId, Predicate, Table, TableBuilder};
}
