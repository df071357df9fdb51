//! Score-based greedy hill climbing (§7.4's HC baselines) with AIC, BIC
//! and BDeu family scores.
//!
//! Standard decomposable-score search: starting from the empty graph,
//! repeatedly apply the single-edge operation (add / delete / reverse)
//! with the best positive score delta until none improves. Family scores
//! are cached, so each step costs one or two family re-scores per
//! candidate operation.

use hypdb_graph::dag::Dag;
use hypdb_stats::math::ln_gamma;
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::hash::FxHashMap;
use hypdb_table::{AttrId, RowSet, Table};

/// Network scoring function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Score {
    /// Akaike information criterion: `loglik − k`.
    Aic,
    /// Bayesian information criterion: `loglik − (ln n / 2)·k`.
    Bic,
    /// Bayesian Dirichlet equivalent uniform with the given equivalent
    /// sample size.
    BDeu {
        /// Equivalent sample size (commonly 1–10).
        ess: f64,
    },
}

/// Hill-climbing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HcConfig {
    /// Scoring function.
    pub score: Score,
    /// In-degree cap.
    pub max_parents: usize,
    /// Iteration cap (one edge operation per iteration).
    pub max_iters: usize,
}

impl Default for HcConfig {
    fn default() -> Self {
        HcConfig {
            score: Score::Bic,
            max_parents: 6,
            max_iters: 500,
        }
    }
}

/// Greedy structure learner over a table selection.
pub struct HillClimb<'a> {
    table: &'a Table,
    rows: RowSet,
    vars: Vec<AttrId>,
    cfg: HcConfig,
    cache: FxHashMap<(usize, Vec<usize>), f64>,
}

impl<'a> HillClimb<'a> {
    /// Creates a learner over `vars` of `table` restricted to `rows`.
    pub fn new(table: &'a Table, rows: RowSet, vars: Vec<AttrId>, cfg: HcConfig) -> Self {
        HillClimb {
            table,
            rows,
            vars,
            cfg,
            cache: FxHashMap::default(),
        }
    }

    /// Family score of node `v` with parent set `parents` (both indices
    /// into `vars`), cached.
    fn family_score(&mut self, v: usize, parents: &[usize]) -> f64 {
        let mut key_parents = parents.to_vec();
        key_parents.sort_unstable();
        if let Some(&s) = self.cache.get(&(v, key_parents.clone())) {
            return s;
        }
        let s = self.compute_family_score(v, &key_parents);
        self.cache.insert((v, key_parents), s);
        s
    }

    fn compute_family_score(&self, v: usize, parents: &[usize]) -> f64 {
        // Counts over (parents…, v); parent configuration is the prefix.
        let mut attrs: Vec<AttrId> = parents.iter().map(|&p| self.vars[p]).collect();
        attrs.push(self.vars[v]);
        let ct = ContingencyTable::from_table(self.table, &self.rows, &attrs);
        let k = self.table.cardinality(self.vars[v]).max(1) as f64;
        let q: f64 = parents
            .iter()
            .map(|&p| self.table.cardinality(self.vars[p]).max(1) as f64)
            .product();
        let n = ct.total() as f64;
        if n == 0.0 {
            return 0.0;
        }

        // Aggregate per parent configuration. A BTreeMap keeps the
        // BDeu per-configuration gamma sum in canonical key order —
        // with a hash map the float accumulation order would follow
        // bucket order and the score could drift across builds.
        let np = parents.len();
        let mut cfg_counts: std::collections::BTreeMap<Box<[u32]>, u64> =
            std::collections::BTreeMap::new();
        let mut cell_counts: Vec<(Box<[u32]>, u64, u64)> = Vec::new(); // (config, value, n)
        ct.for_each(|cell, count| {
            let config: Box<[u32]> = cell[..np].to_vec().into_boxed_slice();
            *cfg_counts.entry(config.clone()).or_insert(0) += count;
            cell_counts.push((config, cell[np] as u64, count));
        });

        match self.cfg.score {
            Score::Aic | Score::Bic => {
                let mut loglik = 0.0;
                for (config, _, nv) in &cell_counts {
                    let ncfg = cfg_counts[config] as f64;
                    loglik += *nv as f64 * ((*nv as f64) / ncfg).ln();
                }
                let params = (k - 1.0) * q;
                match self.cfg.score {
                    Score::Aic => loglik - params,
                    Score::Bic => loglik - 0.5 * n.ln() * params,
                    Score::BDeu { .. } => unreachable!(),
                }
            }
            Score::BDeu { ess } => {
                let a_cfg = ess / q;
                let a_cell = ess / (q * k);
                let mut score = 0.0;
                for ncfg in cfg_counts.values() {
                    score += ln_gamma(a_cfg) - ln_gamma(a_cfg + *ncfg as f64);
                }
                for (_, _, nv) in &cell_counts {
                    score += ln_gamma(a_cell + *nv as f64) - ln_gamma(a_cell);
                }
                score
            }
        }
    }

    /// Runs greedy search and returns the learned DAG (nodes indexed as
    /// `vars`).
    pub fn learn(&mut self) -> Dag {
        let n = self.vars.len();
        let mut dag = Dag::new(n);
        for _ in 0..self.cfg.max_iters {
            let mut best: Option<(f64, Op)> = None;
            // Candidate operations.
            for u in 0..n {
                for v in 0..n {
                    if u == v {
                        continue;
                    }
                    if !dag.has_edge(u, v) && !dag.has_edge(v, u) {
                        // Add u -> v.
                        if dag.in_degree(v) < self.cfg.max_parents && !dag.reaches(v, u) {
                            let old = self.family_score(v, &dag.parent_set(v));
                            let mut np = dag.parent_set(v);
                            np.push(u);
                            let new = self.family_score(v, &np);
                            let delta = new - old;
                            if best.as_ref().is_none_or(|(d, _)| delta > *d) {
                                best = Some((delta, Op::Add(u, v)));
                            }
                        }
                    } else if dag.has_edge(u, v) {
                        // Delete u -> v.
                        let old = self.family_score(v, &dag.parent_set(v));
                        let np: Vec<usize> =
                            dag.parent_set(v).into_iter().filter(|&p| p != u).collect();
                        let new = self.family_score(v, &np);
                        let delta = new - old;
                        if best.as_ref().is_none_or(|(d, _)| delta > *d) {
                            best = Some((delta, Op::Delete(u, v)));
                        }
                        // Reverse u -> v (delete + add v -> u).
                        if dag.in_degree(u) < self.cfg.max_parents {
                            let mut trial = dag.clone();
                            trial.remove_edge(u, v);
                            if trial.add_edge(v, u) {
                                let old_u = self.family_score(u, &dag.parent_set(u));
                                let mut pu = dag.parent_set(u);
                                pu.push(v);
                                let new_u = self.family_score(u, &pu);
                                let delta_rev = delta + (new_u - old_u);
                                if best.as_ref().is_none_or(|(d, _)| delta_rev > *d) {
                                    best = Some((delta_rev, Op::Reverse(u, v)));
                                }
                            }
                        }
                    }
                }
            }
            match best {
                Some((delta, op)) if delta > 1e-9 => match op {
                    Op::Add(u, v) => {
                        dag.add_edge(u, v);
                    }
                    Op::Delete(u, v) => dag.remove_edge(u, v),
                    Op::Reverse(u, v) => {
                        dag.remove_edge(u, v);
                        dag.add_edge(v, u);
                    }
                },
                _ => break,
            }
        }
        dag
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(usize, usize),
    Delete(usize, usize),
    Reverse(usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_graph::bayes::BayesNet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collider_table(n: usize) -> Table {
        // 0 -> 2 <- 1 with additive (non-XOR) effects: greedy search
        // cannot climb towards a pure-XOR collider because each parent
        // is marginally independent of the child there.
        let mut dag = Dag::new(3);
        dag.add_edge(0, 2);
        dag.add_edge(1, 2);
        let mut net = BayesNet::uniform(dag, vec![2, 2, 2]);
        net.set_cpt(0, vec![0.5, 0.5]);
        net.set_cpt(1, vec![0.5, 0.5]);
        net.set_cpt(2, vec![0.95, 0.05, 0.55, 0.45, 0.30, 0.70, 0.05, 0.95]);
        let mut rng = StdRng::seed_from_u64(5);
        net.sample_table(&mut rng, n)
    }

    fn learn(table: &Table, score: Score) -> Dag {
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
        hc.learn()
    }

    #[test]
    fn bic_recovers_collider() {
        let t = collider_table(8_000);
        let g = learn(&t, Score::Bic);
        // The collider is the unique member of its equivalence class:
        // XOR structure forces both edges into node 2.
        assert!(g.has_edge(0, 2), "missing 0 -> 2:\n{g}");
        assert!(g.has_edge(1, 2), "missing 1 -> 2:\n{g}");
        assert!(!g.adjacent(0, 1), "spurious 0 - 1 edge");
    }

    #[test]
    fn all_scores_find_dependence_skeleton() {
        let t = collider_table(4_000);
        for score in [Score::Aic, Score::Bic, Score::BDeu { ess: 5.0 }] {
            let g = learn(&t, score);
            assert!(
                g.adjacent(0, 2) && g.adjacent(1, 2),
                "{score:?} missed skeleton:\n{g}"
            );
        }
    }

    #[test]
    fn independent_data_yields_sparse_graph() {
        // Three independent coins: BIC should learn no edges.
        let dag = Dag::new(3);
        let net = BayesNet::uniform(dag, vec![2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(17);
        let t = net.sample_table(&mut rng, 5_000);
        let g = learn(&t, Score::Bic);
        assert_eq!(g.num_edges(), 0, "{g}");
    }

    #[test]
    fn max_parents_cap_respected() {
        let t = collider_table(2_000);
        let vars: Vec<AttrId> = t.schema().attr_ids().collect();
        let mut hc = HillClimb::new(
            &t,
            t.all_rows(),
            vars,
            HcConfig {
                score: Score::Bic,
                max_parents: 1,
                max_iters: 100,
            },
        );
        let g = hc.learn();
        for v in 0..3 {
            assert!(g.in_degree(v) <= 1);
        }
    }

    #[test]
    fn family_score_cache_stable() {
        let t = collider_table(1_000);
        let vars: Vec<AttrId> = t.schema().attr_ids().collect();
        let mut hc = HillClimb::new(&t, t.all_rows(), vars, HcConfig::default());
        let a = hc.family_score(2, &[0, 1]);
        let b = hc.family_score(2, &[1, 0]); // order-insensitive key
        assert_eq!(a, b);
    }
}
