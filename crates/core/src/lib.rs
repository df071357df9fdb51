//! HypDB core (§3): given a group-by-average OLAP query over
//! observational data,
//!
//! 1. **detect** whether the query is biased — whether the treatment
//!    groups are balanced w.r.t. the covariates (Def 3.1, Prop 3.2),
//! 2. **explain** the bias — rank covariates/mediators by
//!    *responsibility* (Def 3.3) and ground-level value triples by
//!    *contribution* (Def 3.4, Alg 3),
//! 3. **resolve** the bias — rewrite the query into an unbiased
//!    estimator of the average treatment effect (adjustment formula,
//!    Eq 2, with exact matching) or the natural direct effect (mediator
//!    formula, Eq 3).
//!
//! The façade is [`HypDb`]; a full run produces an [`AnalysisReport`]
//! (the Fig 3/4-style output). Covariates are discovered automatically
//! with the CD algorithm (§4) or supplied by the caller.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod detect;
pub mod effect;
mod error;
pub mod explain;
pub mod pipeline;
pub mod query;
#[cfg(test)]
mod reference;
pub mod report;
pub mod rewrite;
pub mod wire;

pub use context::Selection;
pub use detect::{detect_bias, BiasReport};
pub use effect::{adjusted_averages, natural_direct_effect, EffectEstimate, EffectKind};
pub use error::{Error, Result};
pub use explain::{coarse_explanations, fine_explanations, Explanations, FineExplanation};
pub use hypdb_causal::oracle::{OracleCache, OracleStats};
pub use pipeline::{AnalysisReport, ContextReport, HypDb, HypDbConfig, Timings};
pub use query::{Query, QueryBuilder};
pub use rewrite::{rewrite_spec, RewriteResult};
pub use wire::{AnalyzeRequest, DetectContext, DetectReport};
