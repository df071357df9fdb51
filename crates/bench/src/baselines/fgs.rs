//! FGS — the Full Grow-Shrink structure-learning baseline (§7.4).
//!
//! "The FGS utilizes Markov boundary for learning the structure of a
//! causal DAG. It first discovers the Markov boundary of all nodes …
//! Then, it determines the underlying undirected graph … For edge
//! orientation, it uses similar principles as used in the CD algorithm."
//!
//! Our implementation: (1) Grow–Shrink blankets for every node,
//! (2) skeleton via separating-set search within the smaller blanket,
//! (3) collider orientation from recorded separating sets,
//! (4) Meek rules R1–R3 to propagate orientations. The result is a
//! partially-directed graph; for parent-recovery scoring, a node's
//! parents are its incoming directed edges.

use hypdb_causal::blanket::{grow_shrink, iamb};
use hypdb_causal::oracle::{CiOracle, Var};
use hypdb_causal::subsets::subsets_ascending;
use hypdb_table::hash::FxHashMap;

/// Edge state in a partially directed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMark {
    /// No edge.
    None,
    /// Undirected edge.
    Undirected,
    /// Directed `row → col`.
    Out,
    /// Directed `col → row`.
    In,
}

/// A partially directed acyclic graph over `n` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdag {
    n: usize,
    marks: Vec<EdgeMark>, // n*n, marks[u*n+v]
}

impl Pdag {
    /// Edgeless PDAG.
    pub fn new(n: usize) -> Self {
        Pdag {
            n,
            marks: vec![EdgeMark::None; n * n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn idx(&self, u: Var, v: Var) -> usize {
        u * self.n + v
    }

    /// Adds an undirected edge.
    pub fn add_undirected(&mut self, u: Var, v: Var) {
        let (i, j) = (self.idx(u, v), self.idx(v, u));
        self.marks[i] = EdgeMark::Undirected;
        self.marks[j] = EdgeMark::Undirected;
    }

    /// Orients `u → v` (the edge must exist or is created).
    pub fn orient(&mut self, u: Var, v: Var) {
        let (i, j) = (self.idx(u, v), self.idx(v, u));
        self.marks[i] = EdgeMark::Out;
        self.marks[j] = EdgeMark::In;
    }

    /// True when any edge joins `u` and `v`.
    pub fn adjacent(&self, u: Var, v: Var) -> bool {
        self.marks[self.idx(u, v)] != EdgeMark::None
    }

    /// True for a directed edge `u → v`.
    pub fn directed(&self, u: Var, v: Var) -> bool {
        self.marks[self.idx(u, v)] == EdgeMark::Out
    }

    /// True for an undirected edge between `u` and `v`.
    pub fn undirected(&self, u: Var, v: Var) -> bool {
        self.marks[self.idx(u, v)] == EdgeMark::Undirected
    }

    /// Parents of `v` (incoming directed edges).
    pub fn parents(&self, v: Var) -> Vec<Var> {
        (0..self.n).filter(|&u| self.directed(u, v)).collect()
    }

    /// All neighbours of `v` regardless of orientation.
    pub fn neighbors(&self, v: Var) -> Vec<Var> {
        (0..self.n).filter(|&u| self.adjacent(u, v)).collect()
    }

    /// Number of edges (of any kind).
    pub fn num_edges(&self) -> usize {
        let mut c = 0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if self.adjacent(u, v) {
                    c += 1;
                }
            }
        }
        c
    }
}

/// Which Markov-boundary learner [`FgsLearner`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlanketAlgorithm {
    /// Grow–Shrink (the paper's choice, §4).
    #[default]
    GrowShrink,
    /// IAMB.
    Iamb,
}

/// Configuration for the FGS learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FgsConfig {
    /// Cap on separating-set size during skeleton pruning.
    pub max_sepset: usize,
    /// Markov-boundary learner: Grow–Shrink gives the paper's "FGS"
    /// baseline, IAMB gives its "IAMB" baseline (§7.4: "The IAMB is
    /// similar to FGS except that it uses an improved version of the
    /// Grow-Shrink algorithm to learn Markov boundaries").
    pub blanket: BlanketAlgorithm,
}

impl Default for FgsConfig {
    fn default() -> Self {
        FgsConfig {
            max_sepset: 8,
            blanket: BlanketAlgorithm::GrowShrink,
        }
    }
}

/// The FGS structure learner.
pub struct FgsLearner {
    cfg: FgsConfig,
}

impl Default for FgsLearner {
    fn default() -> Self {
        FgsLearner::new(FgsConfig::default())
    }
}

impl FgsLearner {
    /// Creates a learner.
    pub fn new(cfg: FgsConfig) -> Self {
        FgsLearner { cfg }
    }

    /// Learns a PDAG from the oracle.
    pub fn learn<O: CiOracle + ?Sized>(&self, oracle: &O) -> Pdag {
        let n = oracle.num_vars();
        let blankets: Vec<Vec<Var>> = (0..n)
            .map(|v| match self.cfg.blanket {
                BlanketAlgorithm::GrowShrink => grow_shrink(oracle, v),
                BlanketAlgorithm::Iamb => iamb(oracle, v),
            })
            .collect();

        // Skeleton + separating sets.
        let mut pdag = Pdag::new(n);
        let mut sepsets: FxHashMap<(Var, Var), Vec<Var>> = FxHashMap::default();
        for x in 0..n {
            for y in (x + 1)..n {
                let in_bx = blankets[x].contains(&y);
                let in_by = blankets[y].contains(&x);
                if !in_bx && !in_by {
                    // Not in each other's boundary: separated by the
                    // (smaller) boundary itself — X ⊥ Y | MB(X) for any
                    // Y outside MB(X) ∪ {X}. Recording the true
                    // separator matters for collider orientation.
                    let sep = if blankets[x].len() <= blankets[y].len() {
                        blankets[x].clone()
                    } else {
                        blankets[y].clone()
                    };
                    sepsets.insert((x, y), sep);
                    continue;
                }
                // Search the smaller boundary for a separator.
                let bx: Vec<Var> = blankets[x].iter().copied().filter(|&v| v != y).collect();
                let by: Vec<Var> = blankets[y].iter().copied().filter(|&v| v != x).collect();
                let pool = if bx.len() <= by.len() { &bx } else { &by };
                let mut separated = false;
                for s in subsets_ascending(pool, self.cfg.max_sepset) {
                    if oracle.reliable(x, y, &s) && oracle.independent(x, y, &s) {
                        sepsets.insert((x, y), s);
                        separated = true;
                        break;
                    }
                }
                if !separated {
                    pdag.add_undirected(x, y);
                }
            }
        }

        // Collider orientation: for x - z - y with x,y non-adjacent,
        // orient x -> z <- y iff z is NOT in sepset(x, y).
        for z in 0..n {
            for x in 0..n {
                if x == z || !pdag.adjacent(x, z) {
                    continue;
                }
                for y in (x + 1)..n {
                    if y == z || !pdag.adjacent(y, z) || pdag.adjacent(x, y) {
                        continue;
                    }
                    let key = (x.min(y), x.max(y));
                    if let Some(s) = sepsets.get(&key) {
                        if !s.contains(&z) && pdag.undirected(x, z) && pdag.undirected(y, z) {
                            pdag.orient(x, z);
                            pdag.orient(y, z);
                        }
                    }
                }
            }
        }

        meek_rules(&mut pdag);
        pdag
    }
}

/// Meek rules R1–R3, applied to a fixpoint.
fn meek_rules(pdag: &mut Pdag) {
    let n = pdag.len();
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            for b in 0..n {
                if a == b || !pdag.undirected(a, b) {
                    continue;
                }
                // R1: c -> a, a - b, c and b non-adjacent  =>  a -> b.
                let r1 = (0..n).any(|c| c != b && pdag.directed(c, a) && !pdag.adjacent(c, b));
                if r1 {
                    pdag.orient(a, b);
                    changed = true;
                    continue;
                }
                // R2: a -> c -> b and a - b  =>  a -> b.
                let r2 =
                    (0..n).any(|c| c != a && c != b && pdag.directed(a, c) && pdag.directed(c, b));
                if r2 {
                    pdag.orient(a, b);
                    changed = true;
                    continue;
                }
                // R3: a - c, a - d, c -> b, d -> b, c/d non-adjacent =>
                // a -> b.
                let mut r3 = false;
                for c in 0..n {
                    if c == a || c == b || !pdag.undirected(a, c) || !pdag.directed(c, b) {
                        continue;
                    }
                    for d in (c + 1)..n {
                        if d == a
                            || d == b
                            || !pdag.undirected(a, d)
                            || !pdag.directed(d, b)
                            || pdag.adjacent(c, d)
                        {
                            continue;
                        }
                        r3 = true;
                        break;
                    }
                    if r3 {
                        break;
                    }
                }
                if r3 {
                    pdag.orient(a, b);
                    changed = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_causal::oracle::GraphOracle;
    use hypdb_graph::dag::Dag;

    fn learn(g: Dag) -> Pdag {
        let o = GraphOracle::new(g);
        FgsLearner::default().learn(&o)
    }

    #[test]
    fn recovers_collider_orientation() {
        // 0 -> 2 <- 1: fully identifiable.
        let mut g = Dag::new(3);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        let p = learn(g);
        assert!(p.directed(0, 2));
        assert!(p.directed(1, 2));
        assert!(!p.adjacent(0, 1));
        assert_eq!(p.parents(2), vec![0, 1]);
    }

    #[test]
    fn chain_stays_undirected() {
        // 0 -> 1 -> 2 is Markov-equivalent to its reversals: skeleton
        // recovered, no orientation possible.
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let p = learn(g);
        assert!(p.undirected(0, 1));
        assert!(p.undirected(1, 2));
        assert!(!p.adjacent(0, 2));
    }

    #[test]
    fn meek_r1_propagates() {
        // 0 -> 2 <- 1 collider plus 2 - 3: R1 orients 2 -> 3 (else a
        // new collider at 2 would have been detected).
        let mut g = Dag::new(4);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let p = learn(g);
        assert!(p.directed(0, 2));
        assert!(p.directed(1, 2));
        assert!(p.directed(2, 3), "Meek R1 must orient 2 -> 3");
    }

    #[test]
    fn fig2_structure_parents_of_t() {
        // Z -> T <- W, T -> C <- D, T -> Y.
        let mut g = Dag::with_names(["Z", "W", "T", "C", "D", "Y"]);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(4, 3);
        g.add_edge(2, 5);
        let p = learn(g);
        assert_eq!(p.parents(2), vec![0, 1]);
        assert_eq!(p.parents(3), vec![2, 4]);
        // Y's single edge is oriented away from T by Meek R1.
        assert!(p.directed(2, 5));
    }

    #[test]
    fn empty_graph_learns_empty() {
        let g = Dag::new(4);
        let p = learn(g);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn pdag_accessors() {
        let mut p = Pdag::new(3);
        p.add_undirected(0, 1);
        p.orient(1, 2);
        assert!(p.adjacent(0, 1));
        assert!(p.undirected(0, 1));
        assert!(p.directed(1, 2));
        assert!(!p.directed(2, 1));
        assert_eq!(p.neighbors(1), vec![0, 2]);
        assert_eq!(p.parents(2), vec![1]);
        assert_eq!(p.num_edges(), 2);
    }
}
