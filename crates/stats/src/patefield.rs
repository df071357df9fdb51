//! Random two-way contingency tables with fixed marginals — Patefield's
//! algorithm (AS 159, Applied Statistics 30(1), 1981).
//!
//! Randomly shuffling a data column only changes the cell counts of the
//! corresponding contingency table while leaving all marginals fixed
//! (§5). So instead of shuffling `n` rows, the MIT test draws tables
//! directly from the distribution induced by shuffling: the multivariate
//! hypergeometric over tables with the observed marginals. We generate a
//! table cell by cell; given the remaining row quota and remaining column
//! totals, each cell is exactly hypergeometric — the same conditional
//! decomposition AS 159 uses (it adds a clever sequential-search
//! optimisation; our `random::HyperLaw` scans the pmf ratios
//! outwards from the mode once, recording the weights, and inverts the
//! CDF over the record — exact and fast at OLAP cardinalities).
//!
//! There is one cell loop, `walk_cells`. It hands every non-zero cell
//! to a sink in row-major order and stores no table: [`sample_table`]
//! collects the cells into a [`CrossTab`]; the permutation kernel
//! (`PermPlans`) folds them straight into the plug-in mutual
//! information, reading everything a group's permuted tables share —
//! marginals, the `rᵢ·cⱼ` denominators, the law of cell (0,0) — from a
//! plan built once.

use crate::crosstab::CrossTab;
use crate::entropy::mi_term;
use crate::random::HyperLaw;
use rand::Rng;

/// Buffers one run of tables reuses: the columns' remaining demands
/// and the weights of the cell law being drawn.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    jwork: Vec<u64>,
    weights: Vec<f64>,
}

/// Patefield's cell loop over an `r×c` table (`r, c ≥ 1`) whose
/// marginals both sum to `n`: calls `emit(i·c + j, count)` for every
/// non-zero cell, in row-major order. `first` is the prebuilt law of
/// cell (0,0) with its weights, when the caller has one; every other
/// cell's law depends on the cells before it and is built in `scratch`.
fn walk_cells(
    rng: &mut impl Rng,
    rows: &[u64],
    cols: &[u64],
    n: u64,
    first: Option<(HyperLaw, &[f64])>,
    scratch: &mut Scratch,
    mut emit: impl FnMut(usize, u64),
) {
    let (r, c) = (rows.len(), cols.len());
    let Scratch { jwork, weights } = scratch;
    // jwork[j]: count still to be placed in column j.
    jwork.clear();
    jwork.extend_from_slice(cols);
    // Total still to be placed (over rows i..).
    let mut remaining = n;
    for (i, &quota) in rows[..r - 1].iter().enumerate() {
        // ia: quota left for this row; ic: units left in columns j.. of
        // rows i.. (i.e., all unplaced units).
        let mut ia = quota;
        let mut ic = remaining;
        let (free, last) = jwork.split_at_mut(c - 1);
        for (j, demand) in free.iter_mut().enumerate() {
            if ia == 0 {
                break;
            }
            let id = *demand; // remaining demand of column j

            // Hypergeometric draw: among `ic` unplaced units of which
            // `id` belong to column j, how many of row i's `ia` land in
            // column j?
            let x = match first {
                Some((law, w)) if i == 0 && j == 0 => law.draw(rng, w),
                _ => {
                    weights.clear();
                    HyperLaw::build(id, ic - id, ia, weights).draw(rng, weights)
                }
            };
            if x > 0 {
                emit(i * c + j, x);
                *demand -= x;
                ia -= x;
            }
            ic -= id;
        }
        // Row remainder goes to the last column.
        if ia > 0 {
            emit(i * c + c - 1, ia);
            last[0] -= ia;
        }
        remaining -= quota;
    }
    // Last row: whatever each column still demands.
    for (j, &w) in jwork.iter().enumerate() {
        if w > 0 {
            emit((r - 1) * c + j, w);
        }
    }
}

/// Draws one random `r×c` table with the given row and column sums,
/// distributed as if produced by uniformly shuffling the underlying
/// column pairing.
///
/// Panics if the marginals disagree in total.
pub fn sample_table(rng: &mut impl Rng, rows: &[u64], cols: &[u64]) -> CrossTab {
    let n_row: u64 = rows.iter().sum();
    let n_col: u64 = cols.iter().sum();
    assert_eq!(n_row, n_col, "marginal totals must agree");
    let (r, c) = (rows.len(), cols.len());
    let mut counts = vec![0u64; r * c];
    if r > 0 && c > 0 && n_row > 0 {
        let mut scratch = Scratch::default();
        walk_cells(rng, rows, cols, n_row, None, &mut scratch, |k, v| {
            counts[k] = v
        });
    }
    CrossTab::new(r, c, counts)
}

/// What every permuted table of one conditioning group shares.
#[derive(Debug)]
struct Plan {
    r: usize,
    c: usize,
    /// `counts[counts_at..]`: the `r` row sums, then the `c` column sums.
    counts_at: usize,
    /// `floats[floats_at..floats_end]`: the `r·c` denominators
    /// `rows[i]·cols[j]`, then the weights of `law00`.
    floats_at: usize,
    floats_end: usize,
    n: u64,
    /// `Pr(z)`: the group's weight in the conditional statistic.
    pz: f64,
    /// Law of cell (0,0), `(cols[0], n − cols[0], rows[0])`: the only
    /// cell whose parameters no earlier cell of the table moves.
    law00: HyperLaw,
}

/// The per-group plans of one permutation test, in one arena: three
/// vectors however many groups there are, so a test parked between its
/// screening stage and its escalation holds a few allocations, not a
/// few per group.
#[derive(Debug, Default)]
pub(crate) struct PermPlans {
    plans: Vec<Plan>,
    counts: Vec<u64>,
    floats: Vec<f64>,
}

impl PermPlans {
    /// Adds a group with the given (strictly positive) marginals, at
    /// least two of each, and weight `pz`.
    pub(crate) fn push(&mut self, rows: &[u64], cols: &[u64], pz: f64) {
        debug_assert!(rows.len() >= 2 && cols.len() >= 2);
        debug_assert!(rows.iter().chain(cols).all(|&v| v > 0));
        let n: u64 = rows.iter().sum();
        let counts_at = self.counts.len();
        self.counts.extend_from_slice(rows);
        self.counts.extend_from_slice(cols);
        let floats_at = self.floats.len();
        for &ri in rows {
            self.floats
                .extend(cols.iter().map(|&cj| ri as f64 * cj as f64));
        }
        let law00 = HyperLaw::build(cols[0], n - cols[0], rows[0], &mut self.floats);
        self.plans.push(Plan {
            r: rows.len(),
            c: cols.len(),
            counts_at,
            floats_at,
            floats_end: self.floats.len(),
            n,
            pz,
            law00,
        });
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    /// Draws one permuted table of group `g` and returns its term of
    /// the conditional statistic, `Pr(z)·Î_z(X;Y)`. The plug-in MI is
    /// summed over the non-zero cells in row-major order as they are
    /// drawn — the table itself is never stored, and its marginals are
    /// the plan's by construction.
    pub(crate) fn permuted_term(&self, g: usize, rng: &mut impl Rng, scratch: &mut Scratch) -> f64 {
        let p = &self.plans[g];
        let (rows, cols) = self.counts[p.counts_at..p.counts_at + p.r + p.c].split_at(p.r);
        let (denom, w00) = self.floats[p.floats_at..p.floats_end].split_at(p.r * p.c);
        let nf = p.n as f64;
        let mut mi = 0.0;
        let first = Some((p.law00, w00));
        walk_cells(rng, rows, cols, p.n, first, scratch, |k, v| {
            mi += mi_term(v as f64, nf, denom[k])
        });
        p.pz * (mi / nf).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xAB5_159)
    }

    #[test]
    fn marginals_preserved() {
        let mut r = rng();
        let rows = [7u64, 13, 5];
        let cols = [10u64, 9, 4, 2];
        for _ in 0..200 {
            let t = sample_table(&mut r, &rows, &cols);
            assert_eq!(t.row_sums(), rows.to_vec());
            assert_eq!(t.col_sums(), cols.to_vec());
        }
    }

    #[test]
    fn degenerate_single_row() {
        let mut r = rng();
        let t = sample_table(&mut r, &[9], &[4, 5]);
        assert_eq!(t.counts(), &[4, 5]);
    }

    #[test]
    fn degenerate_single_col() {
        let mut r = rng();
        let t = sample_table(&mut r, &[4, 5], &[9]);
        assert_eq!(t.counts(), &[4, 5]);
    }

    #[test]
    fn empty_table() {
        let mut r = rng();
        let t = sample_table(&mut r, &[0, 0], &[0]);
        assert_eq!(t.total(), 0);
    }

    #[test]
    #[should_panic(expected = "marginal totals must agree")]
    fn mismatched_totals_panic() {
        let mut r = rng();
        sample_table(&mut r, &[3], &[2]);
    }

    #[test]
    fn cell_mean_matches_expectation() {
        // Under the fixed-marginal null, E[n_ij] = r_i * c_j / n.
        let mut r = rng();
        let rows = [30u64, 70];
        let cols = [40u64, 60];
        let trials = 4_000;
        let mut sum00 = 0.0;
        for _ in 0..trials {
            sum00 += sample_table(&mut r, &rows, &cols).get(0, 0) as f64;
        }
        let mean = sum00 / trials as f64;
        let expect = 30.0 * 40.0 / 100.0;
        assert!((mean - expect).abs() < 0.15, "mean {mean} vs {expect}");
    }

    #[test]
    fn two_by_two_matches_fisher_distribution() {
        // For a 2x2 with rows (2,2), cols (2,2), n=4 the permutation
        // distribution of n00 is hypergeometric: P(0)=1/6, P(1)=4/6,
        // P(2)=1/6.
        let mut r = rng();
        let mut hist = [0usize; 3];
        let trials = 30_000;
        for _ in 0..trials {
            let t = sample_table(&mut r, &[2, 2], &[2, 2]);
            hist[t.get(0, 0) as usize] += 1;
        }
        let p0 = hist[0] as f64 / trials as f64;
        let p1 = hist[1] as f64 / trials as f64;
        let p2 = hist[2] as f64 / trials as f64;
        assert!((p0 - 1.0 / 6.0).abs() < 0.02, "p0={p0}");
        assert!((p1 - 4.0 / 6.0).abs() < 0.02, "p1={p1}");
        assert!((p2 - 1.0 / 6.0).abs() < 0.02, "p2={p2}");
    }
}
