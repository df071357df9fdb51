//! Two-way contingency tables ("cross tabs") — the tabular summaries the
//! MIT permutation test samples from (§5).

use crate::entropy::mi_from_matrix;
use serde::{Deserialize, Serialize};

/// A dense `r×c` contingency table of counts, row-major.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossTab {
    r: usize,
    c: usize,
    counts: Vec<u64>,
}

impl CrossTab {
    /// Builds from a row-major count matrix. Panics if the vector length
    /// is not `r*c`.
    pub fn new(r: usize, c: usize, counts: Vec<u64>) -> Self {
        assert_eq!(counts.len(), r * c, "count matrix must be r*c");
        CrossTab { r, c, counts }
    }

    /// All-zero table.
    pub fn zeros(r: usize, c: usize) -> Self {
        CrossTab {
            r,
            c,
            counts: vec![0; r * c],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.r
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.c
    }

    /// Immutable view of the counts (row-major).
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cell accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.c + j]
    }

    /// Increments a cell.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, delta: u64) {
        self.counts[i * self.c + j] += delta;
    }

    /// Row sums.
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.r)
            .map(|i| self.counts[i * self.c..(i + 1) * self.c].iter().sum())
            .collect()
    }

    /// Column sums.
    pub fn col_sums(&self) -> Vec<u64> {
        (0..self.c)
            .map(|j| (0..self.r).map(|i| self.counts[i * self.c + j]).sum())
            .collect()
    }

    /// Grand total.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Plug-in mutual information (nats) between the row and column
    /// variables.
    pub fn mutual_information(&self) -> f64 {
        mi_from_matrix(&self.counts, self.r, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tab() -> CrossTab {
        CrossTab::new(2, 3, vec![10, 0, 5, 0, 20, 5])
    }

    #[test]
    fn sums_and_total() {
        let t = tab();
        assert_eq!(t.row_sums(), vec![15, 25]);
        assert_eq!(t.col_sums(), vec![10, 20, 10]);
        assert_eq!(t.total(), 40);
        assert_eq!(t.get(1, 1), 20);
    }

    #[test]
    #[should_panic(expected = "count matrix must be r*c")]
    fn bad_shape_panics() {
        CrossTab::new(2, 2, vec![1, 2, 3]);
    }
}
