//! Figs 5(b,c,d) and 6(a): parent-recovery quality of the CD algorithm
//! against the baseline CDD methods, plus the number of independence
//! tests each conducts.

use crate::fgs::{BlanketAlgorithm, FgsConfig, FgsLearner};
use crate::hc::{HcConfig, HillClimb, Score};
use crate::report::{f3, MdTable};
use crate::Scale;
use hypdb_causal::cd::{discover_parents, CdConfig};
use hypdb_causal::eval::{parent_f1, ParentScore};
use hypdb_causal::oracle::{CiConfig, CiOracle, DataOracle, IndependenceTestKind};
use hypdb_datasets::random_data::{random_data, RandomDataConfig, RandomDataset};
use hypdb_table::AttrId;

/// The eight discovery methods of Fig 5(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// CD with the HyMIT hybrid test.
    CdHyMit,
    /// CD with the MIT permutation test.
    CdMit,
    /// CD with the asymptotic χ² test.
    CdChi2,
    /// Full Grow–Shrink structure learning (χ²).
    Fgs,
    /// IAMB-based structure learning (χ²).
    Iamb,
    /// Hill climbing, BIC score.
    HcBic,
    /// Hill climbing, AIC score.
    HcAic,
    /// Hill climbing, BDeu score.
    HcBdeu,
}

impl Method {
    /// All methods in Fig 5(b)'s legend order.
    pub fn all() -> [Method; 8] {
        [
            Method::CdHyMit,
            Method::CdMit,
            Method::CdChi2,
            Method::Iamb,
            Method::Fgs,
            Method::HcBdeu,
            Method::HcAic,
            Method::HcBic,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::CdHyMit => "CD(HyMIT)",
            Method::CdMit => "CD(MIT)",
            Method::CdChi2 => "CD(chi2)",
            Method::Fgs => "FGS(chi2)",
            Method::Iamb => "IAMB(chi2)",
            Method::HcBic => "HC(BIC)",
            Method::HcAic => "HC(AIC)",
            Method::HcBdeu => "HC(BDe)",
        }
    }
}

/// A fresh oracle over the whole dataset with the given test.
fn fresh_oracle(d: &RandomDataset, kind: IndependenceTestKind) -> DataOracle<'_> {
    let cfg = CiConfig {
        kind,
        ..CiConfig::default()
    };
    DataOracle::over_all_attrs(&d.table, d.table.all_rows(), cfg)
}

/// Runs one method on one dataset; returns per-node predicted parents
/// and the number of independence tests asked (0 for score-based) —
/// `OracleStats::tests`, which counts a statement the oracle answers
/// from its verdict memo like any other.
pub fn predict_parents(method: Method, d: &RandomDataset) -> (Vec<(usize, Vec<usize>)>, u64) {
    let table = &d.table;
    let n = table.nattrs();
    match method {
        Method::CdHyMit | Method::CdMit | Method::CdChi2 => {
            let kind = match method {
                Method::CdHyMit => IndependenceTestKind::HyMit,
                Method::CdMit => IndependenceTestKind::MitSampled { max_groups: 64 },
                _ => IndependenceTestKind::ChiSquared,
            };
            let oracle = fresh_oracle(d, kind);
            let preds: Vec<(usize, Vec<usize>)> = (0..n)
                .map(|t| (t, discover_parents(&oracle, t, CdConfig::default()).parents))
                .collect();
            (preds, oracle.stats().tests)
        }
        Method::Fgs | Method::Iamb => {
            let oracle = fresh_oracle(d, IndependenceTestKind::ChiSquared);
            let blanket = if method == Method::Fgs {
                BlanketAlgorithm::GrowShrink
            } else {
                BlanketAlgorithm::Iamb
            };
            let pdag = FgsLearner::new(FgsConfig {
                blanket,
                ..FgsConfig::default()
            })
            .learn(&oracle);
            let preds = (0..n).map(|v| (v, pdag.parents(v))).collect();
            (preds, oracle.stats().tests)
        }
        Method::HcBic | Method::HcAic | Method::HcBdeu => {
            let score = match method {
                Method::HcBic => Score::Bic,
                Method::HcAic => Score::Aic,
                _ => Score::BDeu { ess: 5.0 },
            };
            let vars: Vec<AttrId> = table.schema().attr_ids().collect();
            let mut hc = HillClimb::new(
                table,
                table.all_rows(),
                vars,
                HcConfig {
                    score,
                    ..HcConfig::default()
                },
            );
            let dag = hc.learn();
            let preds = (0..n).map(|v| (v, dag.parent_set(v))).collect();
            (preds, 0)
        }
    }
}

/// Scores one method across several dataset seeds (micro-averaged F1).
pub fn score_method(
    method: Method,
    base: &RandomDataConfig,
    seeds: &[u64],
    min_parents: usize,
) -> (ParentScore, f64) {
    let mut total = ParentScore::default();
    let mut tests_per_node = 0.0;
    for &seed in seeds {
        let d = random_data(&RandomDataConfig { seed, ..*base });
        let (preds, tests) = predict_parents(method, &d);
        let filter = |v: usize| d.dag.parent_set(v).len() >= min_parents;
        let score = if min_parents > 0 {
            parent_f1(&d.dag, &preds, Some(&filter))
        } else {
            parent_f1(&d.dag, &preds, None)
        };
        total.merge(score);
        tests_per_node += tests as f64 / d.dag.len() as f64;
    }
    (total, tests_per_node / seeds.len() as f64)
}

/// Fig 5(b): F1 vs sample size, all methods, all nodes.
pub fn run_fig5b(scale: Scale) {
    crate::report::section("Fig 5(b) — parent-recovery F1 vs sample size (all nodes)");
    run_quality_sweep(scale, 0);
    println!(
        "\n(paper, for shape: CD variants lead; score-based HC trails on \
         categorical data; all methods improve with sample size)"
    );
}

/// Fig 5(c): restricted to nodes with ≥ 2 parents.
pub fn run_fig5c(scale: Scale) {
    crate::report::section(
        "Fig 5(c) — parent-recovery F1 vs sample size (nodes with >= 2 parents)",
    );
    run_quality_sweep(scale, 2);
    println!(
        "\n(paper, for shape: the CD gap widens on multi-parent nodes — \
         exactly the nodes its collider search is designed for)"
    );
}

/// The RandomData shape of Figs 5(b,c) at `rows` rows. The paper's
/// DAGs are sparse: "the expected number of edges was in the range
/// 3-5" (§7.1) — sparse graphs are where the non-adjacent-parents
/// assumption usually holds.
fn sweep_config(scale: Scale, rows: usize) -> RandomDataConfig {
    RandomDataConfig {
        nodes: scale.pick(8, 16),
        expected_edges: scale.pick(5.0, 9.0),
        rows,
        min_categories: 2,
        max_categories: 6,
        ..RandomDataConfig::default()
    }
}

fn run_quality_sweep(scale: Scale, min_parents: usize) {
    let sizes: Vec<usize> = scale.pick(
        vec![10_000, 30_000, 100_000],
        vec![10_000, 30_000, 100_000, 300_000, 1_000_000],
    );
    let seeds: Vec<u64> = scale.pick(vec![11, 22, 33, 44], vec![11, 22, 33, 44, 55, 66, 77]);
    let mut headers = vec!["rows".to_string()];
    headers.extend(Method::all().iter().map(|m| m.label().to_string()));
    let mut t = MdTable::new(headers);
    for &rows in &sizes {
        let base = sweep_config(scale, rows);
        let mut cells = vec![rows.to_string()];
        for m in Method::all() {
            let (score, _) = score_method(m, &base, &seeds, min_parents);
            cells.push(f3(score.f1()));
        }
        t.row(cells);
    }
    t.print();
}

/// The RandomData shape of Fig 5(d): every attribute has `lo..=hi`
/// categories.
fn band_config(rows: usize, lo: usize, hi: usize) -> RandomDataConfig {
    RandomDataConfig {
        nodes: 8,
        expected_edges: 5.0,
        rows,
        min_categories: lo,
        max_categories: hi,
        ..RandomDataConfig::default()
    }
}

/// Fig 5(d): F1 vs number of categories (fixed sample size).
pub fn run_fig5d(scale: Scale) {
    crate::report::section("Fig 5(d) — parent-recovery F1 vs number of categories");
    let seeds: Vec<u64> = scale.pick(vec![11, 22, 33], vec![11, 22, 33, 44, 55]);
    let rows = scale.pick(30_000, 50_000);
    let bands: Vec<(usize, usize)> = vec![(2, 4), (5, 8), (9, 12), (13, 16), (17, 20)];
    let mut headers = vec!["categories".to_string()];
    headers.extend(Method::all().iter().map(|m| m.label().to_string()));
    let mut t = MdTable::new(headers);
    for (lo, hi) in bands {
        let base = band_config(rows, lo, hi);
        let mut cells = vec![format!("{lo}-{hi}")];
        for m in Method::all() {
            let (score, _) = score_method(m, &base, &seeds, 2);
            cells.push(f3(score.f1()));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "\n(paper, for shape: more categories = sparser contingency tables; \
         permutation-based CD degrades most gracefully, χ²/score methods fall off)"
    );
}

/// Fig 6(a)'s two counts, averaged: the χ² tests of ONE query-time CD
/// discovery (over targets and seeds, a fresh oracle each time — the
/// OLAP setting), and of one FGS structure-learning run, which covers
/// all nodes.
fn test_counts(base: &RandomDataConfig, seeds: &[u64]) -> (f64, f64) {
    let (mut cd_single, mut cd_runs, mut fgs_total) = (0.0, 0u32, 0.0);
    for &seed in seeds {
        let d = random_data(&RandomDataConfig { seed, ..*base });
        for target in 0..d.dag.len() {
            let oracle = fresh_oracle(&d, IndependenceTestKind::ChiSquared);
            discover_parents(&oracle, target, CdConfig::default());
            cd_single += oracle.stats().tests as f64;
            cd_runs += 1;
        }
        let oracle = fresh_oracle(&d, IndependenceTestKind::ChiSquared);
        FgsLearner::default().learn(&oracle);
        fgs_total += oracle.stats().tests as f64;
    }
    (cd_single / cd_runs as f64, fgs_total / seeds.len() as f64)
}

/// Fig 6(a): number of independence tests, one CD query vs learning the
/// whole DAG with FGS.
pub fn run_fig6a(scale: Scale) {
    crate::report::section("Fig 6(a) — independence tests: one CD target vs the whole DAG (FGS)");
    let sizes: Vec<usize> = scale.pick(
        vec![10_000, 30_000, 100_000],
        vec![10_000, 30_000, 50_000, 100_000, 500_000],
    );
    let seeds: Vec<u64> = scale.pick(vec![11, 22], vec![11, 22, 33, 44]);
    let mut t = MdTable::new(["rows", "CD single target", "FGS total", "FGS per node"]);
    for &rows in &sizes {
        let base = band_config(rows, 2, 4);
        let (cd_single, fgs_total) = test_counts(&base, &seeds);
        t.row([
            rows.to_string(),
            format!("{cd_single:.0}"),
            format!("{fgs_total:.0}"),
            format!("{:.0}", fgs_total / base.nodes as f64),
        ]);
    }
    t.print();
    println!(
        "\n(paper, for shape: answering one query (one CD run) costs far fewer \
         tests than learning the entire DAG — and is in the same band as FGS's \
         *amortised* per-node cost, without needing the other n−1 nodes)"
    );
}

/// Ground truth on sampled data (the exact-oracle half is
/// `tests/properties.rs::discovery_on_an_exact_oracle_recovers_the_dag`):
/// floors under the numbers `fig5c` / `fig5d` / `fig6a` print, at the
/// report's quick-scale shapes and seeds with the sweeps cut to one
/// point each so a debug run stays in seconds. Observed values are
/// written beside each floor.
#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 5(c): on nodes with ≥ 2 parents — the ones the collider
    /// search exists for — both permutation-based CD variants recover
    /// the parents (observed F1 1.000 at 10k, 30k and 100k rows).
    #[test]
    fn cd_recovers_multi_parent_nodes_from_data() {
        let base = sweep_config(Scale::Quick, 10_000);
        for method in [Method::CdHyMit, Method::CdMit] {
            let (score, _) = score_method(method, &base, &[11, 22, 33, 44], 2);
            assert!(score.f1() >= 0.9, "{}: {score:?}", method.label());
        }
    }

    /// Fig 5(d): at 17–20 categories per attribute the contingency
    /// tables are sparse; the permutation test degrades most
    /// gracefully (observed CD(HyMIT) 1.000 against CD(χ²) 0.000).
    #[test]
    fn permutation_cd_survives_sparse_tables_that_defeat_chi2() {
        let base = band_config(30_000, 17, 20);
        let seeds = [11, 22, 33];
        let (hymit, _) = score_method(Method::CdHyMit, &base, &seeds, 2);
        let (chi2, _) = score_method(Method::CdChi2, &base, &seeds, 2);
        assert!(hymit.f1() >= 0.9, "{hymit:?}");
        assert!(hymit.f1() >= chi2.f1(), "{hymit:?} vs {chi2:?}");
    }

    /// Fig 6(a): answering one query costs fewer tests than learning
    /// the whole DAG (observed 31 against 104).
    #[test]
    fn one_cd_target_costs_fewer_tests_than_fgs() {
        let (cd_single, fgs_total) = test_counts(&band_config(10_000, 2, 4), &[11, 22]);
        assert!(cd_single < fgs_total, "{cd_single} vs {fgs_total}");
    }
}
