//! Statistical machinery for HypDB (§2, §5, §6 of the paper).
//!
//! Everything here is implemented from scratch on top of `std` + `rand`:
//!
//! * [`math`] — ln-gamma, regularised incomplete gamma, χ² survival
//!   function, error function / normal distribution,
//! * [`entropy`] — plug-in and Miller–Madow entropy estimators (§2),
//! * [`crosstab`] — two-way contingency tables with G/χ² statistics,
//! * [`patefield`] — random r×c tables with fixed marginals (AS 159),
//! * [`independence`] — the MIT Monte-Carlo permutation test (Alg 2), its
//!   weighted-group-sampling variant, the χ² test, the HyMIT hybrid (§6),
//!   and the naive row-shuffling baseline,
//! * [`random`] — gamma/Dirichlet/hypergeometric variates and weighted
//!   sampling (substituting for `rand_distr`, which is outside the
//!   offline dependency set),
//! * [`borda`] — Borda rank aggregation used by fine-grained explanations
//!   (Alg 3).
//!
//! Conventions: all entropies and mutual informations are in **nats**
//! (natural logarithm); estimators follow Miller (1955) for the
//! Miller–Madow correction `H_plugin + (m−1)/(2n)`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod borda;
pub mod crosstab;
pub mod entropy;
pub mod independence;
pub mod math;
pub mod patefield;
pub mod random;
#[cfg(test)]
mod reference;

pub use crosstab::CrossTab;
pub use entropy::{entropy_miller_madow, entropy_plugin, EntropyEstimator};
pub use independence::{
    chi2_test, hymit, mit, mit_sampled, mit_settle_one, shuffle_test, MitConfig, MitJob, Strata,
    TestMethod, TestOutcome,
};
