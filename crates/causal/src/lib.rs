//! Causal discovery for HypDB (§4): the CD covariate-discovery
//! algorithm and everything it sits on. (The structure learners §7.4
//! compares it against — FGS, hill climbing — live in `hypdb-bench`.)
//!
//! * [`oracle`] — conditional-independence oracles: a data-backed oracle
//!   with entropy caching and contingency-table materialisation (§6) and
//!   toggleable test procedures (χ² / MIT / HyMIT), an exact
//!   d-separation oracle for ground-truth testing, and per-oracle test
//!   counters (Fig 6(a)), its caches each a once-per-key memo,
//! * [`blanket`] — Markov-boundary discovery: Grow–Shrink and IAMB,
//! * [`cd`] — the CD algorithm (Alg 1): two-phase parent discovery
//!   without learning the whole DAG,
//! * [`preprocess`] — dropping logical dependencies: approximate FDs and
//!   key-like high-entropy attributes (§4),
//! * [`eval`] — precision/recall/F1 of recovered parent sets against a
//!   ground-truth DAG (§7.4's quality metric),
//! * [`subsets`] — the ascending-size subset enumeration CD's
//!   conditioning-set searches walk.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blanket;
pub mod cd;
pub mod eval;
mod memo;
pub mod oracle;
pub mod preprocess;
pub mod subsets;

pub use blanket::{grow_shrink, iamb};
pub use cd::{CdConfig, CovariateDiscovery};
pub use eval::{parent_f1, ParentScore};
pub use oracle::{
    CiConfig, CiOracle, DataOracle, GraphOracle, IndependenceTestKind, OracleCache, OracleStats,
};
pub use preprocess::{
    drop_logical_dependencies, drop_logical_dependencies_in, PreprocessConfig, PreprocessReport,
};
