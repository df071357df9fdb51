//! Markov-boundary discovery: Grow–Shrink (Margaritis & Thrun 2000) and
//! IAMB (Tsamardinos et al. 2003) — the building block of both the CD
//! algorithm (§4) and the FGS baseline (§7.4).
//!
//! Both learners issue their independence statements one at a time, in
//! a fixed order, and act on each verdict before asking the next
//! question: within a Grow–Shrink pass the boundary mutates as soon as
//! a candidate is admitted, so the statements that follow condition on
//! the grown boundary.

use crate::oracle::{CiOracle, Var};

/// Grow–Shrink Markov-boundary discovery for `target`.
///
/// Grow phase: repeatedly add any variable dependent on the target given
/// the current boundary, until a fixpoint. Shrink phase: remove any
/// member that is independent of the target given the rest. Returns the
/// boundary sorted ascending.
pub fn grow_shrink<O: CiOracle + ?Sized>(oracle: &O, target: Var) -> Vec<Var> {
    let n = oracle.num_vars();
    let mut boundary: Vec<Var> = Vec::new();
    // Grow. Additions require a dependence verdict that is *calibrated*
    // on the current conditioning (always true for permutation tests;
    // the df·β ≤ n power gate for χ²) — once the boundary conditions
    // the data into groups too small to test, no further variable can
    // be admitted on evidence.
    let mut changed = true;
    while changed {
        changed = false;
        for x in 0..n {
            if x == target || boundary.contains(&x) {
                continue;
            }
            if oracle.reliable_dependence(target, x, &boundary)
                && oracle.dependent(target, x, &boundary)
            {
                boundary.push(x);
                changed = true;
            }
        }
    }
    shrink(oracle, target, &mut boundary);
    boundary.sort_unstable();
    boundary
}

/// IAMB: like Grow–Shrink, but the grow phase admits the *strongest*
/// associated candidate first, which keeps the boundary (and hence the
/// conditioning sets) small and the tests reliable.
pub fn iamb<O: CiOracle + ?Sized>(oracle: &O, target: Var) -> Vec<Var> {
    let n = oracle.num_vars();
    let mut boundary: Vec<Var> = Vec::new();
    loop {
        let mut best: Option<(Var, f64)> = None;
        for x in 0..n {
            if x == target || boundary.contains(&x) {
                continue;
            }
            if oracle.reliable_dependence(target, x, &boundary)
                && oracle.dependent(target, x, &boundary)
            {
                let a = oracle.assoc(target, x, &boundary);
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((x, a));
                }
            }
        }
        match best {
            Some((x, _)) => boundary.push(x),
            None => break,
        }
    }
    shrink(oracle, target, &mut boundary);
    boundary.sort_unstable();
    boundary
}

/// Shrink phase shared by both algorithms: drop members independent of
/// the target given the remaining boundary, to a fixpoint. A member is
/// only removed on a *reliable* independence — an underpowered test
/// accepting the null is not evidence (§4's sparse-subpopulation
/// failure mode).
fn shrink<O: CiOracle + ?Sized>(oracle: &O, target: Var, boundary: &mut Vec<Var>) {
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < boundary.len() {
            let x = boundary[i];
            let rest: Vec<Var> = boundary.iter().copied().filter(|&v| v != x).collect();
            if oracle.reliable(target, x, &rest) && oracle.independent(target, x, &rest) {
                boundary.remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GraphOracle;
    use hypdb_graph::dag::Dag;

    /// Z -> T <- W, T -> C <- D, T -> Y (the §4 running example).
    fn fig2_oracle() -> GraphOracle {
        let mut g = Dag::with_names(["Z", "W", "T", "C", "D", "Y"]);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(4, 3);
        g.add_edge(2, 5);
        GraphOracle::new(g)
    }

    #[test]
    fn gs_recovers_exact_boundary() {
        let o = fig2_oracle();
        // MB(T) = {Z, W, C, D, Y}.
        assert_eq!(grow_shrink(&o, 2), vec![0, 1, 3, 4, 5]);
        // MB(Z) = {W, T} (child T, spouse W).
        assert_eq!(grow_shrink(&o, 0), vec![1, 2]);
        // MB(D) = {T, C}.
        assert_eq!(grow_shrink(&o, 4), vec![2, 3]);
        // MB(Y) = {T}.
        assert_eq!(grow_shrink(&o, 5), vec![2]);
    }

    #[test]
    fn iamb_matches_gs_on_exact_oracle() {
        let o = fig2_oracle();
        for v in 0..6 {
            assert_eq!(
                iamb(&o, v),
                grow_shrink(&o, v),
                "boundary mismatch at node {v}"
            );
        }
    }

    #[test]
    fn isolated_node_has_empty_boundary() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        let o = GraphOracle::new(g);
        assert!(grow_shrink(&o, 2).is_empty());
        assert!(iamb(&o, 2).is_empty());
    }

    #[test]
    fn chain_boundaries() {
        // 0 -> 1 -> 2 -> 3.
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let o = GraphOracle::new(g);
        assert_eq!(grow_shrink(&o, 0), vec![1]);
        assert_eq!(grow_shrink(&o, 1), vec![0, 2]);
        assert_eq!(grow_shrink(&o, 2), vec![1, 3]);
    }

    #[test]
    fn dense_collider_boundary() {
        // 0,1,2 all parents of 3; 3 -> 4.
        let mut g = Dag::new(5);
        g.add_edge(0, 3);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let o = GraphOracle::new(g);
        assert_eq!(grow_shrink(&o, 3), vec![0, 1, 2, 4]);
        // Parents see each other through the collider: MB(0) = {1,2,3}.
        assert_eq!(grow_shrink(&o, 0), vec![1, 2, 3]);
    }
}
