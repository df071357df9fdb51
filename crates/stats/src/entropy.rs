//! Entropy estimation from count data (§2 and Appendix 10.1).
//!
//! The population distribution `Pr` is unknown; HypDB estimates entropies
//! from the sample `D`. Two estimators are provided:
//!
//! * **plug-in**: `Ĥ = −Σ F(x) ln F(x)` with empirical frequencies `F`,
//! * **Miller–Madow**: plug-in plus the first-order bias correction
//!   `(m−1)/(2n)` where `m` is the number of observed (non-zero)
//!   categories — the estimator the paper uses throughout.

use crate::math::xlnx;
use serde::{Deserialize, Serialize};

/// Which entropy estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EntropyEstimator {
    /// Maximum-likelihood (plug-in) estimator.
    PlugIn,
    /// Miller–Madow bias-corrected estimator (the paper's choice).
    #[default]
    MillerMadow,
}

impl EntropyEstimator {
    /// Estimates entropy (in nats) from an iterator of category counts.
    pub fn entropy<I>(self, counts: I) -> f64
    where
        I: IntoIterator<Item = u64>,
    {
        match self {
            EntropyEstimator::PlugIn => entropy_plugin(counts),
            EntropyEstimator::MillerMadow => entropy_miller_madow(counts),
        }
    }
}

/// Plug-in entropy (nats) of a histogram given as category counts.
/// Zero counts contribute nothing; an all-zero histogram has entropy 0.
pub fn entropy_plugin<I>(counts: I) -> f64
where
    I: IntoIterator<Item = u64>,
{
    let mut total = 0u64;
    let mut sum_xlnx = 0.0f64;
    for c in counts {
        if c > 0 {
            total += c;
            sum_xlnx += xlnx(c as f64);
        }
    }
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    // H = -Σ (c/n) ln(c/n) = ln n − (1/n) Σ c ln c
    (n.ln() - sum_xlnx / n).max(0.0)
}

/// Miller–Madow entropy (nats): plug-in + `(m−1)/(2n)` where `m` is the
/// number of non-zero categories.
pub fn entropy_miller_madow<I>(counts: I) -> f64
where
    I: IntoIterator<Item = u64>,
{
    let mut total = 0u64;
    let mut support = 0u64;
    let mut sum_xlnx = 0.0f64;
    for c in counts {
        if c > 0 {
            total += c;
            support += 1;
            sum_xlnx += xlnx(c as f64);
        }
    }
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let plugin = (n.ln() - sum_xlnx / n).max(0.0);
    plugin + (support.saturating_sub(1)) as f64 / (2.0 * n)
}

/// One cell's term `v·ln(v·n / (rᵢ·cⱼ))` of `n·Î(X;Y)`, with
/// `denom = rᵢ·cⱼ` — the one statement of the plug-in MI summand, shared
/// by [`mi_from_matrix`] (observed tables) and the permutation kernel's
/// cell walk (`patefield`), so observed and permuted statistics are
/// computed by the identical float operations wherever that walk draws
/// the tables.
#[inline]
pub(crate) fn mi_term(vf: f64, nf: f64, denom: f64) -> f64 {
    vf * ((vf * nf) / denom).ln()
}

/// Plug-in mutual information (nats) from a dense `r×c` count matrix in
/// row-major order: `I(X;Y) = Σ p_ij ln(p_ij / (p_i· p_·j))`.
pub fn mi_from_matrix(counts: &[u64], r: usize, c: usize) -> f64 {
    debug_assert_eq!(counts.len(), r * c);
    let mut row = vec![0u64; r];
    let mut col = vec![0u64; c];
    let mut n = 0u64;
    for i in 0..r {
        for j in 0..c {
            let v = counts[i * c + j];
            row[i] += v;
            col[j] += v;
            n += v;
        }
    }
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for i in 0..r {
        if row[i] == 0 {
            continue;
        }
        for j in 0..c {
            let v = counts[i * c + j];
            if v == 0 {
                continue;
            }
            mi += mi_term(v as f64, nf, row[i] as f64 * col[j] as f64);
        }
    }
    (mi / nf).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn uniform_entropy_is_ln_k() {
        close(entropy_plugin([10, 10, 10, 10]), 4.0f64.ln(), 1e-12);
        close(entropy_plugin([7, 7]), 2.0f64.ln(), 1e-12);
    }

    #[test]
    fn deterministic_entropy_is_zero() {
        assert_eq!(entropy_plugin([42]), 0.0);
        assert_eq!(entropy_plugin([0, 42, 0]), 0.0);
        assert_eq!(entropy_plugin(std::iter::empty()), 0.0);
    }

    #[test]
    fn miller_madow_correction() {
        // Two observed categories, n = 20 => correction = 1/40.
        let plugin = entropy_plugin([10, 10]);
        let mm = entropy_miller_madow([10, 10]);
        close(mm - plugin, 1.0 / 40.0, 1e-12);
        // Single category: no correction.
        assert_eq!(entropy_miller_madow([5]), entropy_plugin([5]));
    }

    #[test]
    fn zero_counts_do_not_affect_support() {
        let a = entropy_miller_madow([10, 10, 0, 0]);
        let b = entropy_miller_madow([10, 10]);
        close(a, b, 1e-15);
    }

    #[test]
    fn estimator_enum_dispatch() {
        let c = [3u64, 9, 1];
        close(
            EntropyEstimator::PlugIn.entropy(c),
            entropy_plugin(c),
            1e-15,
        );
        close(
            EntropyEstimator::MillerMadow.entropy(c),
            entropy_miller_madow(c),
            1e-15,
        );
    }

    #[test]
    fn mi_independent_is_zero() {
        // Product distribution: rows (1/2,1/2) x cols (1/4,3/4), n=80.
        let counts = [10u64, 30, 10, 30];
        close(mi_from_matrix(&counts, 2, 2), 0.0, 1e-12);
    }

    #[test]
    fn mi_perfect_dependence_is_ln2() {
        let counts = [40u64, 0, 0, 40];
        close(mi_from_matrix(&counts, 2, 2), 2.0f64.ln(), 1e-12);
    }

    #[test]
    fn mi_matches_entropy_identity() {
        // I(X;Y) = H(X) + H(Y) - H(XY) on an arbitrary table.
        let counts = [5u64, 9, 2, 7, 1, 6];
        let (r, c) = (2, 3);
        let mi = mi_from_matrix(&counts, r, c);
        let h_xy = entropy_plugin(counts.iter().copied());
        let rows: Vec<u64> = (0..r)
            .map(|i| counts[i * c..(i + 1) * c].iter().sum())
            .collect();
        let cols: Vec<u64> = (0..c)
            .map(|j| (0..r).map(|i| counts[i * c + j]).sum())
            .collect();
        let h_x = entropy_plugin(rows);
        let h_y = entropy_plugin(cols);
        close(mi, h_x + h_y - h_xy, 1e-12);
    }
}
