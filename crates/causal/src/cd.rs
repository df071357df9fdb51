//! The CD (Covariate Detection) algorithm — Alg 1 / Prop 4.1, the
//! paper's method for learning `PA_T` directly from data without
//! learning the entire causal DAG.
//!
//! Phase I collects candidates: every `Z ∈ MB(T)` such that `T` is a
//! collider on a path between `Z` and some `W ∈ MB(T)` — detected by the
//! signature `(Z ⊥⊥ W | S) ∧ (Z ̸⊥⊥ W | S ∪ {T})` for some
//! `S ⊆ MB(Z) − {T}`. This finds all parents, plus possibly parents of
//! children that happen to be ancestors of `T`. Phase II removes every
//! candidate that can be separated from `T` by some
//! `S' ⊆ MB(T) − {C}` — non-neighbours of `T` cannot be parents.
//!
//! HypDB runs CD for the treatment and, for direct effects, for each
//! outcome, over one oracle. [`CovariateDiscovery::discover_all`] runs
//! every target's CD as one scheduled fan-out
//! ([`ThreadPool::map_two_level`]): a target's Markov boundary is a
//! first-level item, and its phase-I witness searches `(T, Z)` are the
//! second-level items it yields, runnable the moment that boundary is
//! known — so one target's searches run beside another target's
//! Grow–Shrink, which is strictly sequential and the longest item of a
//! discovery. Phase II then checks every target's candidates in a plain
//! loop on the calling thread: it takes well under a millisecond of
//! memoised verdicts, and ran slower fanned out than inline.

use crate::blanket::grow_shrink;
use crate::oracle::{CiOracle, Var};
use crate::subsets::subsets_ascending;
use hypdb_exec::ThreadPool;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Configuration for the CD algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdConfig {
    /// Cap on the size of conditioning sets enumerated in both phases.
    /// The worst case is exponential in the largest Markov boundary
    /// (§4); boundaries are small in practice (≤ 8 in the paper's
    /// experiments), but a cap keeps adversarial inputs bounded.
    pub max_sepset: usize,
}

impl Default for CdConfig {
    fn default() -> Self {
        CdConfig {
            // The largest conditioning set HypDB used in the paper's
            // experiments had 6 attributes (§7.3); 5 keeps interactive
            // latency with plenty of headroom and is configurable.
            max_sepset: 5,
        }
    }
}

/// Output of covariate discovery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdOutcome {
    /// The discovered parent set `PA_T` (the covariates `Z`).
    pub parents: Vec<Var>,
    /// The Markov boundary `MB(T)` the search ran over.
    pub markov_boundary: Vec<Var>,
    /// Phase-I candidates before the phase-II neighbour filter.
    pub candidates: Vec<Var>,
}

/// The CD algorithm bound to an oracle.
///
/// Phase I fans out over the global worker pool
/// ([`hypdb_exec::global_threads`]; see the module docs for the
/// schedule). Within a search, statements are issued one at a time and
/// stop at the first witness. Because each verdict is a pure function
/// of the oracle (oracles seed their permutation tests per statement)
/// and each boundary is computed once, the discovered sets — and the
/// statements asked — are identical at any thread count.
pub struct CovariateDiscovery<'o, O: CiOracle + Sync + ?Sized> {
    oracle: &'o O,
    cfg: CdConfig,
    /// Markov boundaries (Grow–Shrink, the paper's choice, §4), one
    /// cell per variable, shared by every target: phase I reads `MB(Z)`
    /// for every `Z ∈ MB(T)`, and targets share variables, so each
    /// boundary is learned by its first asker while racing askers wait.
    blankets: Vec<OnceLock<Vec<Var>>>,
}

impl<'o, O: CiOracle + Sync + ?Sized> CovariateDiscovery<'o, O> {
    /// Binds the algorithm to an oracle.
    pub fn new(oracle: &'o O, cfg: CdConfig) -> Self {
        CovariateDiscovery {
            oracle,
            cfg,
            blankets: (0..oracle.num_vars()).map(|_| OnceLock::new()).collect(),
        }
    }

    fn blanket(&self, v: Var) -> &[Var] {
        self.blankets[v].get_or_init(|| grow_shrink(self.oracle, v))
    }

    /// Phase-I search for one `z`: the first `(w, S)` witnessing the
    /// collider signature `(Z ⊥⊥ W | S) ∧ (Z ̸⊥⊥ W | S ∪ {T})`, if any.
    /// Subsets are enumerated ascending, so "first" is well defined and
    /// scheduling-independent. A candidate's two tests must be trusted
    /// before either is run: the independence half needs power (an
    /// acceptance from an underpowered test means nothing); the
    /// dependence half needs calibration only.
    fn collider_witness(&self, t: Var, z: Var, mb_t: &[Var]) -> Option<(Var, Var)> {
        let pool: Vec<Var> = self
            .blanket(z)
            .iter()
            .copied()
            .filter(|&v| v != t)
            .collect();
        for s in subsets_ascending(&pool, self.cfg.max_sepset) {
            for &w in mb_t {
                if w == z || s.contains(&w) {
                    continue;
                }
                let mut s_t = s.clone();
                s_t.push(t);
                if !self.oracle.reliable(z, w, &s) || !self.oracle.reliable_dependence(z, w, &s_t) {
                    continue;
                }
                if self.oracle.independent(z, w, &s) && self.oracle.dependent(z, w, &s_t) {
                    return Some((z, w));
                }
            }
        }
        None
    }

    /// Phase-II check: can candidate `c` be separated from `t` by some
    /// subset of `MB(T) − {c}`? Separation needs a *reliable* acceptance
    /// of independence; the scan stops at the first separator.
    fn separable(&self, t: Var, c: Var, mb_t: &[Var]) -> bool {
        let others: Vec<Var> = mb_t.iter().copied().filter(|&v| v != c).collect();
        subsets_ascending(&others, self.cfg.max_sepset)
            .iter()
            .any(|s| self.oracle.reliable(t, c, s) && self.oracle.independent(t, c, s))
    }

    /// Runs Alg 1 for every target, in one schedule; the outcomes come
    /// back in `targets` order, each what a run for that target alone
    /// would give.
    pub fn discover_all(&self, targets: &[Var]) -> Vec<CdOutcome> {
        // Phase I: each target's boundary, then a search of every
        // Z ∈ MB(T) for the collider signature. Each search is
        // independent (no skip of already-found candidates — that
        // sequential shortcut would make the result depend on the visit
        // order); MB(Z) lookups warm the shared memo as a side effect.
        // The union of witnesses over a BTreeSet is order-insensitive.
        let searched = ThreadPool::current().map_two_level(
            targets.len(),
            |i| self.blanket(targets[i]).to_vec(),
            |i, mb_t, j| self.collider_witness(targets[i], mb_t[j], mb_t),
        );
        searched
            .into_iter()
            .zip(targets)
            .map(|((markov_boundary, witnesses), &t)| {
                let candidates: BTreeSet<Var> = witnesses
                    .into_iter()
                    .flatten()
                    .flat_map(|(z, w)| [z, w])
                    .collect();
                let candidates: Vec<Var> = candidates.into_iter().collect();
                // Phase II: discard candidates separable from their
                // target — non-neighbours of T cannot be parents.
                let parents = candidates
                    .iter()
                    .copied()
                    .filter(|&c| !self.separable(t, c, &markov_boundary))
                    .collect();
                CdOutcome {
                    parents,
                    markov_boundary,
                    candidates,
                }
            })
            .collect()
    }
}

/// Convenience wrapper: runs CD for one target with a config in one
/// call.
pub fn discover_parents<O: CiOracle + Sync + ?Sized>(
    oracle: &O,
    t: Var,
    cfg: CdConfig,
) -> CdOutcome {
    let mut out = CovariateDiscovery::new(oracle, cfg).discover_all(&[t]);
    out.pop().expect("one outcome per target")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GraphOracle;
    use hypdb_graph::dag::Dag;

    fn cd(oracle: &GraphOracle, t: Var) -> CdOutcome {
        discover_parents(oracle, t, CdConfig::default())
    }

    #[test]
    fn recovers_two_nonadjacent_parents() {
        // Z -> T <- W, T -> C <- D, T -> Y (§4's running structure).
        let mut g = Dag::with_names(["Z", "W", "T", "C", "D", "Y"]);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(4, 3);
        g.add_edge(2, 5);
        let o = GraphOracle::new(g);
        let out = cd(&o, 2);
        assert_eq!(out.parents, vec![0, 1]);
        assert_eq!(out.markov_boundary, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn phase_two_removes_ancestor_spouse() {
        // Z -> T, W -> T, D -> Z, D -> C, T -> C:
        // D is both a spouse (via C) and a grandparent (via Z); it
        // satisfies the phase-I signature through the collider at T but
        // is separated from T by {Z}, so phase II must drop it.
        let mut g = Dag::with_names(["Z", "W", "T", "C", "D"]);
        g.add_edge(0, 2); // Z -> T
        g.add_edge(1, 2); // W -> T
        g.add_edge(4, 0); // D -> Z
        g.add_edge(4, 3); // D -> C
        g.add_edge(2, 3); // T -> C
        let o = GraphOracle::new(g);
        let out = cd(&o, 2);
        assert!(
            out.candidates.contains(&4),
            "phase I should flag D, got {:?}",
            out.candidates
        );
        assert_eq!(out.parents, vec![0, 1], "phase II must drop D");
    }

    #[test]
    fn three_mutually_nonadjacent_parents() {
        let mut g = Dag::new(5);
        g.add_edge(0, 3);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let o = GraphOracle::new(g);
        let out = cd(&o, 3);
        assert_eq!(out.parents, vec![0, 1, 2]);
    }

    #[test]
    fn root_node_has_no_parents() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let o = GraphOracle::new(g);
        let out = cd(&o, 0);
        assert!(out.parents.is_empty());
    }

    #[test]
    fn single_parent_undetectable() {
        // Chain 0 -> 1 -> 2: node 1's single parent cannot be oriented
        // from data (Markov-equivalence); the assumption of §4 fails and
        // CD correctly returns no parents (HypDB then falls back to
        // MB(T) − {Y}).
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let o = GraphOracle::new(g);
        let out = cd(&o, 1);
        assert!(out.parents.is_empty());
        assert_eq!(out.markov_boundary, vec![0, 2]);
    }

    #[test]
    fn collider_child_not_a_parent() {
        // T -> C <- D: C and D must not be reported as parents of T.
        let mut g = Dag::new(4);
        g.add_edge(0, 1); // T=0 -> C=1
        g.add_edge(2, 1); // D=2 -> C=1
        g.add_edge(3, 0); // P=3 -> T
        let o = GraphOracle::new(g);
        let out = cd(&o, 0);
        assert!(!out.parents.contains(&1));
        assert!(!out.parents.contains(&2));
    }

    #[test]
    fn diamond_parents() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: parents of 3 are {1, 2}
        // (non-adjacent, shared ancestor 0).
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let o = GraphOracle::new(g);
        let out = cd(&o, 3);
        assert_eq!(out.parents, vec![1, 2]);
    }

    #[test]
    fn sepset_cap_limits_search() {
        let mut g = Dag::new(4);
        g.add_edge(0, 3);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let o = GraphOracle::new(g);
        let out = discover_parents(&o, 3, CdConfig { max_sepset: 0 });
        // With S limited to ∅ the parents are still found here (S = ∅
        // suffices for marginally independent parents).
        assert_eq!(out.parents, vec![0, 1, 2]);
    }
}
