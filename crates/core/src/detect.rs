//! Bias detection (Def 3.1, Prop 3.2): a query is *balanced* w.r.t. a
//! variable set `V` in a context `Γ_i` iff `(T ⊥⊥ V | Γ_i)` — the
//! treatment groups then have the same distribution of covariates, and
//! the naive group-by difference is an unbiased effect estimate.
//!
//! The check is an independence test between `T` and the *joint*
//! variable `V` on the context: `I(T; V | Γ_i) = 0`, read off the
//! context's table of counts ([`crate::context::Context::counts`]).

use crate::context::marginal;
use hypdb_stats::crosstab::CrossTab;
use hypdb_stats::independence::{chi2_test, hymit, MitConfig, Strata, TestOutcome};
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::{AttrId, ColRef, RowSet, Scan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of a bias check in one context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasReport {
    /// The independence-test outcome for `I(T; V | Γ)`.
    pub test: TestOutcome,
    /// Significance level used for the verdict.
    pub alpha: f64,
    /// True when the null `I(T;V|Γ) = 0` was rejected: the query is
    /// biased w.r.t. `V` in this context.
    pub biased: bool,
    /// Number of distinct observed value combinations of `V`.
    pub v_support: usize,
}

/// Numbers the observed combinations of `v` — the cells of `combos`,
/// the `v` marginal of the context counts — in the order their first
/// rows appear in `rows`; the result maps a combination to its number.
///
/// The column order of the `T × joint(V)` cross tab is what the χ² sum
/// and the permutation stream run over, so it stays the first-seen
/// order the reports are pinned to. This is the one thing counts cannot
/// say; the pass reads only the `v` columns and stops at the row that
/// completes the numbering, which the counts do say.
fn first_seen<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    v: &[AttrId],
    combos: &ContingencyTable,
) -> impl Fn(&[u32]) -> usize {
    let keys = combos.cells();
    let find = move |key: &[u32]| {
        keys.binary_search_by(|(cell, _)| (**cell).cmp(key))
            .expect("every row's combination is a cell of the context counts")
    };
    const UNSEEN: usize = usize::MAX;
    let mut number = vec![UNSEEN; combos.support() as usize];
    let cols: Vec<ColRef<'_>> = v.iter().map(|&a| table.col(a)).collect();
    let mut key = vec![0u32; v.len()];
    let mut seen = 0;
    for row in rows.iter() {
        if seen == number.len() {
            break;
        }
        for (code, col) in key.iter_mut().zip(&cols) {
            *code = col.at(row);
        }
        let n = &mut number[find(&key)];
        if *n == UNSEEN {
            *n = seen;
            seen += 1;
        }
    }
    move |key| number[find(key)]
}

/// Builds the `T × joint(V)` cross tab of a context from its `counts`
/// (which must cover `t` and `v`). The joint domain of `V` is compacted
/// to its observed combinations, numbered in first-seen order over
/// `rows` — the rows `counts` was counted from.
pub fn joint_crosstab<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    counts: &ContingencyTable,
    t: AttrId,
    v: &[AttrId],
) -> CrossTab {
    let combos = marginal(counts, v);
    let column = first_seen(table, rows, v, &combos);
    let cells = marginal(counts, &[&[t], v].concat());
    let mut tab = CrossTab::zeros(cells.dims()[0] as usize, (combos.support() as usize).max(1));
    cells.for_each(|key, n| tab.add(key[0] as usize, column(&key[1..]), n));
    tab
}

/// Tests whether the query is balanced w.r.t. `v` in the context whose
/// `rows` gave `counts`. Uses HyMIT: χ² when the sample is large
/// relative to the joint support, the MIT permutation test otherwise.
#[allow(clippy::too_many_arguments)]
pub fn detect_bias<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    counts: &ContingencyTable,
    t: AttrId,
    v: &[AttrId],
    alpha: f64,
    mit_cfg: &MitConfig,
    seed: u64,
) -> BiasReport {
    if v.is_empty() || counts.total() == 0 {
        // Nothing to be imbalanced against.
        let strata = Strata::new(vec![]);
        let test = chi2_test(&strata);
        return BiasReport {
            biased: false,
            alpha,
            v_support: 0,
            test,
        };
    }
    let tab = joint_crosstab(table, rows, counts, t, v);
    let v_support = tab.ncols();
    let strata = Strata::single(tab);
    let mut rng = StdRng::seed_from_u64(seed);
    let test = hymit(&strata, mit_cfg, &mut rng);
    BiasReport {
        biased: test.dependent(alpha),
        alpha,
        v_support,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::all_counts;
    use hypdb_table::{Table, TableBuilder};

    /// Confounded data: Z skews both T and Y.
    fn confounded() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            ("t1", "1", "a", 30u32),
            ("t1", "0", "a", 10),
            ("t0", "1", "a", 5),
            ("t0", "0", "a", 5),
            ("t1", "1", "b", 5),
            ("t1", "0", "b", 10),
            ("t0", "1", "b", 10),
            ("t0", "0", "b", 40),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    /// Balanced data: T assigned 50/50 within each Z group.
    fn balanced() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            ("t1", "1", "a", 20u32),
            ("t1", "0", "a", 10),
            ("t0", "1", "a", 20),
            ("t0", "0", "a", 10),
            ("t1", "1", "b", 5),
            ("t1", "0", "b", 25),
            ("t0", "1", "b", 5),
            ("t0", "0", "b", 25),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    fn check(table: &Table, v_names: &[&str]) -> BiasReport {
        let t = table.attr("T").unwrap();
        let v: Vec<AttrId> = v_names.iter().map(|n| table.attr(n).unwrap()).collect();
        detect_bias(
            table,
            &table.all_rows(),
            &all_counts(table),
            t,
            &v,
            0.01,
            &MitConfig::default(),
            7,
        )
    }

    #[test]
    fn detects_confounding() {
        let rep = check(&confounded(), &["Z"]);
        assert!(rep.biased, "p={}", rep.test.p_value);
        assert_eq!(rep.v_support, 2);
    }

    #[test]
    fn accepts_balanced_assignment() {
        let rep = check(&balanced(), &["Z"]);
        assert!(!rep.biased, "p={}", rep.test.p_value);
    }

    #[test]
    fn empty_covariates_never_biased() {
        let rep = check(&confounded(), &[]);
        assert!(!rep.biased);
        assert_eq!(rep.v_support, 0);
    }

    #[test]
    fn joint_crosstab_combines_attrs() {
        let t = confounded();
        let tid = t.attr("T").unwrap();
        let z = t.attr("Z").unwrap();
        let y = t.attr("Y").unwrap();
        let tab = joint_crosstab(&t, &t.all_rows(), &all_counts(&t), tid, &[z, y]);
        // Joint support of (Z, Y) is 4; T has 2 levels.
        assert_eq!(tab.ncols(), 4);
        assert_eq!(tab.nrows(), 2);
        assert_eq!(tab.total(), 115);
    }

    #[test]
    fn bias_wrt_joint_detected_even_if_each_balanced() {
        // T balanced w.r.t. Z1 alone and Z2 alone, but not jointly:
        // T=1 iff Z1==Z2 (within noise).
        let mut b = TableBuilder::new(["T", "Z1", "Z2"]);
        for (t, z1, z2, n) in [
            ("1", "a", "a", 25u32),
            ("1", "b", "b", 25),
            ("0", "a", "b", 25),
            ("0", "b", "a", 25),
        ] {
            for _ in 0..n {
                b.push_row([t, z1, z2]).unwrap();
            }
        }
        let t = b.finish();
        let tid = t.attr("T").unwrap();
        let z1 = t.attr("Z1").unwrap();
        let z2 = t.attr("Z2").unwrap();
        let single1 = detect_bias(
            &t,
            &t.all_rows(),
            &all_counts(&t),
            tid,
            &[z1],
            0.01,
            &MitConfig::default(),
            7,
        );
        let joint = detect_bias(
            &t,
            &t.all_rows(),
            &all_counts(&t),
            tid,
            &[z1, z2],
            0.01,
            &MitConfig::default(),
            7,
        );
        assert!(!single1.biased, "marginal Z1 is balanced");
        assert!(joint.biased, "joint (Z1,Z2) must reveal the imbalance");
    }
}
