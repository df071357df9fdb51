//! Explanations for bias (§3.2).
//!
//! * **Coarse-grained** (Def 3.3): rank each `Z ∈ V` by its degree of
//!   responsibility `ρ_Z = (I(T;V|Γ) − I(T;V|Z,Γ)) / Σ_V (…)`. By the
//!   paper's footnote 1, for `Z ∈ V` the numerator telescopes to
//!   `I(T;Z|Γ)` — the responsibility ranking is the normalised marginal
//!   mutual information of the treatment with each covariate.
//! * **Fine-grained** (Def 3.4, Alg 3 "FGE"): for a covariate `Z`, rank
//!   the value triples `(t, y, z)` by their contribution
//!   `κ_{(t,z)} = Pr(t,z)·ln(Pr(t,z)/(Pr(t)Pr(z)))` to `I(T;Z)` and
//!   `κ_{(y,z)}` to `I(Y;Z)`, then merge the two rankings with Borda's
//!   method and report the top-k.

use crate::context::marginal;
use hypdb_stats::borda::borda_aggregate;
use hypdb_stats::EntropyEstimator;
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::{AttrId, Table};
use serde::{Deserialize, Serialize};

/// One coarse-grained explanation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Responsibility {
    /// The covariate / mediator.
    pub attr: AttrId,
    /// Attribute name (for rendering).
    pub name: String,
    /// Degree of responsibility `ρ` (the rows sum to 1 when any bias
    /// exists).
    pub responsibility: f64,
    /// The unnormalised numerator `I(T;Z|Γ)`.
    pub mutual_information: f64,
}

/// One fine-grained explanation row: a ground-level triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineExplanation {
    /// Treatment value.
    pub t_value: String,
    /// Outcome value.
    pub y_value: String,
    /// Covariate value.
    pub z_value: String,
    /// Contribution of `(t, z)` to `I(T;Z)`.
    pub kappa_tz: f64,
    /// Contribution of `(y, z)` to `I(Y;Z)`.
    pub kappa_yz: f64,
}

/// Bundled explanations for one context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Explanations {
    /// Covariates/mediators ranked by responsibility (descending).
    pub coarse: Vec<Responsibility>,
    /// Top-k triples for the most responsible attribute.
    pub fine: Vec<FineExplanation>,
}

/// Computes the coarse-grained ranking over `v` in the context whose
/// table of counts is `counts` (covering `t` and `v`): every entropy
/// is that of a marginal of it.
pub fn coarse_explanations(
    table: &Table,
    counts: &ContingencyTable,
    t: AttrId,
    v: &[AttrId],
) -> Vec<Responsibility> {
    let est = EntropyEstimator::MillerMadow;
    let h = |attrs: &[AttrId]| marginal(counts, attrs).entropy(est);
    let h_t = h(&[t]);
    let mut rows_out: Vec<Responsibility> = v
        .iter()
        .map(|&z| {
            let mi = (h_t + h(&[z]) - h(&[t, z])).max(0.0);
            Responsibility {
                attr: z,
                name: table.schema().name(z).to_string(),
                responsibility: 0.0,
                mutual_information: mi,
            }
        })
        .collect();
    let total: f64 = rows_out.iter().map(|r| r.mutual_information).sum();
    if total > 0.0 {
        for r in &mut rows_out {
            r.responsibility = r.mutual_information / total;
        }
    }
    rows_out.sort_by(|a, b| {
        b.responsibility
            .partial_cmp(&a.responsibility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows_out
}

/// Degree of contribution of each pair `(a, b)` to `I(A;B)` (Def 3.4),
/// returned as a map keyed by the pair's codes.
pub(crate) fn pair_contributions(
    ct: &ContingencyTable,
) -> hypdb_table::hash::FxHashMap<(u32, u32), f64> {
    let n = ct.total() as f64;
    let a_marg = ct.marginal(&[0]);
    let b_marg = ct.marginal(&[1]);
    let mut out = hypdb_table::hash::FxHashMap::default();
    ct.for_each(|key, count| {
        let p_ab = count as f64 / n;
        let p_a = a_marg.get(&[key[0]]) as f64 / n;
        let p_b = b_marg.get(&[key[1]]) as f64 / n;
        let kappa = p_ab * (p_ab / (p_a * p_b)).ln();
        out.insert((key[0], key[1]), kappa);
    });
    out
}

/// Runs FGE (Alg 3) for covariate `z`: ranks the observed triples
/// `(t, y, z)` by their contributions to `I(T;Z)` and `I(Y;Z)` and
/// Borda-aggregates the two rankings. Returns the top-`k`. `counts` is
/// the context's table of counts, covering `t`, `y` and `z`.
pub fn fine_explanations(
    table: &Table,
    counts: &ContingencyTable,
    t: AttrId,
    y: AttrId,
    z: AttrId,
    k: usize,
) -> Vec<FineExplanation> {
    let tz = pair_contributions(&marginal(counts, &[t, z]));
    let yz = pair_contributions(&marginal(counts, &[y, z]));
    let triples = marginal(counts, &[t, y, z]);
    let mut keys: Vec<(u32, u32, u32)> = Vec::new();
    triples.for_each(|key, _| keys.push((key[0], key[1], key[2])));
    if keys.is_empty() {
        return Vec::new();
    }
    let kappa_t: Vec<f64> = keys
        .iter()
        .map(|&(tc, _, zc)| tz.get(&(tc, zc)).copied().unwrap_or(0.0))
        .collect();
    let kappa_y: Vec<f64> = keys
        .iter()
        .map(|&(_, yc, zc)| yz.get(&(yc, zc)).copied().unwrap_or(0.0))
        .collect();
    let order = borda_aggregate(&[kappa_t.clone(), kappa_y.clone()]);
    order
        .into_iter()
        .take(k)
        .map(|i| {
            let (tc, yc, zc) = keys[i];
            FineExplanation {
                t_value: table.dict(t).value(tc).to_string(),
                y_value: table.dict(y).value(yc).to_string(),
                z_value: table.dict(z).value(zc).to_string(),
                kappa_tz: kappa_t[i],
                kappa_yz: kappa_y[i],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::all_counts;
    use hypdb_table::{Table, TableBuilder};

    /// Two covariates: Z strongly confounds T, W is pure noise.
    fn data() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z", "W"]);
        let rows = [
            ("t1", "1", "a", "u", 28u32),
            ("t1", "1", "a", "v", 28),
            ("t1", "0", "b", "u", 7),
            ("t1", "0", "b", "v", 7),
            ("t0", "1", "a", "u", 7),
            ("t0", "1", "a", "v", 7),
            ("t0", "0", "b", "u", 28),
            ("t0", "0", "b", "v", 28),
        ];
        for (t, y, z, w, n) in rows {
            for _ in 0..n {
                b.push_row([t, y, z, w]).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn responsibility_ranks_confounder_first() {
        let tab = data();
        let (t, z, w) = (
            tab.attr("T").unwrap(),
            tab.attr("Z").unwrap(),
            tab.attr("W").unwrap(),
        );
        let coarse = coarse_explanations(&tab, &all_counts(&tab), t, &[w, z]);
        assert_eq!(coarse[0].name, "Z");
        assert!(coarse[0].responsibility > 0.9);
        assert!(coarse[1].responsibility < 0.1);
        let sum: f64 = coarse.iter().map(|r| r.responsibility).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn responsibility_zero_when_balanced() {
        // T assigned independently of Z.
        let mut b = TableBuilder::new(["T", "Z"]);
        for (t, z, n) in [
            ("t0", "a", 25u32),
            ("t0", "b", 25),
            ("t1", "a", 25),
            ("t1", "b", 25),
        ] {
            for _ in 0..n {
                b.push_row([t, z]).unwrap();
            }
        }
        let tab = b.finish();
        let t = tab.attr("T").unwrap();
        let z = tab.attr("Z").unwrap();
        let coarse = coarse_explanations(&tab, &all_counts(&tab), t, &[z]);
        // Plug-in MI is 0; Miller–Madow adds only a tiny correction.
        assert!(coarse[0].mutual_information < 0.02);
    }

    #[test]
    fn fine_explanations_surface_dominant_triple() {
        let tab = data();
        let (t, y, z) = (
            tab.attr("T").unwrap(),
            tab.attr("Y").unwrap(),
            tab.attr("Z").unwrap(),
        );
        let fine = fine_explanations(&tab, &all_counts(&tab), t, y, z, 2);
        assert_eq!(fine.len(), 2);
        // The dominant pattern: (t1, 1, a) — t1 flights concentrate in
        // z=a which concentrates y=1 — and its mirror (t0, 0, b).
        let top: Vec<(&str, &str, &str)> = fine
            .iter()
            .map(|f| (f.t_value.as_str(), f.y_value.as_str(), f.z_value.as_str()))
            .collect();
        assert!(top.contains(&("t1", "1", "a")), "{top:?}");
        assert!(top.contains(&("t0", "0", "b")), "{top:?}");
        for f in &fine {
            assert!(f.kappa_tz > 0.0);
            assert!(f.kappa_yz > 0.0);
        }
    }

    #[test]
    fn fine_explanations_k_bounds() {
        let tab = data();
        let (t, y, z) = (
            tab.attr("T").unwrap(),
            tab.attr("Y").unwrap(),
            tab.attr("Z").unwrap(),
        );
        assert!(fine_explanations(&tab, &all_counts(&tab), t, y, z, 0).is_empty());
        let all = fine_explanations(&tab, &all_counts(&tab), t, y, z, 100);
        // Observed triples only: 4 distinct (t,y,z) combos exist.
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn contribution_signs() {
        // Negative association (t0,a): appears less than independence
        // predicts => negative kappa.
        let tab = data();
        let t = tab.attr("T").unwrap();
        let z = tab.attr("Z").unwrap();
        let ct = ContingencyTable::from_table(&tab, &tab.all_rows(), &[t, z]);
        let contrib = pair_contributions(&ct);
        // (t1=0, a=0) over-represented: positive.
        assert!(contrib[&(0, 0)] > 0.0);
        // (t1=0, b=1) under-represented: negative.
        assert!(contrib[&(0, 1)] < 0.0);
        // Sum over pairs = I(T;Z) > 0.
        let mi: f64 = contrib.values().sum();
        assert!(mi > 0.1);
    }

    #[test]
    fn empty_rows_yield_empty_explanations() {
        let tab = data();
        let (t, y, z) = (
            tab.attr("T").unwrap(),
            tab.attr("Y").unwrap(),
            tab.attr("Z").unwrap(),
        );
        let empty =
            ContingencyTable::from_table(&tab, &hypdb_table::RowSet::Ids(vec![]), &[t, y, z]);
        assert!(fine_explanations(&tab, &empty, t, y, z, 3).is_empty());
        let coarse = coarse_explanations(&tab, &empty, t, &[z]);
        assert_eq!(coarse[0].mutual_information, 0.0);
    }
}
