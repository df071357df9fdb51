//! Row selections: the result of evaluating a WHERE predicate.

use crate::error::{Error, Result};
use std::borrow::Cow;

/// The most rows a relation holds. Row ids are `u32`, and so are
/// [`RowSet::All`]'s count and every cell of a dense contingency table
/// — each bounded by the number of rows.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// Refuses to grow a relation of `rows` rows by `more` past
/// [`MAX_ROWS`]: every builder and reader asks before it appends.
pub fn check_capacity(rows: usize, more: usize) -> Result<()> {
    match rows.checked_add(more) {
        Some(total) if total <= MAX_ROWS => Ok(()),
        _ => Err(Error::TooManyRows {
            row: MAX_ROWS as u64 + 1,
        }),
    }
}

/// A set of selected row indices.
///
/// `All` avoids materialising `0..n` for whole-table scans; `Ids` holds
/// an ascending list of row indices for sub-populations (the *contexts*
/// of §2 select sub-populations through the WHERE condition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowSet {
    /// Every row of a table with the given row count.
    All(u32),
    /// An explicit ascending list of row ids.
    Ids(Vec<u32>),
}

impl RowSet {
    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RowSet::All(n) => *n as usize,
            RowSet::Ids(ids) => ids.len(),
        }
    }

    /// True when the selection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the selected row indices in ascending order.
    pub fn iter(&self) -> RowIter<'_> {
        match self {
            RowSet::All(n) => RowIter::Range(0..*n),
            RowSet::Ids(ids) => RowIter::Slice(ids.iter()),
        }
    }

    /// Iterates positions `range` of the selection (the sub-sequence of
    /// [`RowSet::iter`] between those positions) — the chunk view used
    /// by parallel scans. `range` must lie within `0..len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RowIter<'_> {
        match self {
            RowSet::All(_) => RowIter::Range(range.start as u32..range.end as u32),
            RowSet::Ids(ids) => RowIter::Slice(ids[range].iter()),
        }
    }

    /// Intersects with another selection over the same table.
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        match (self, other) {
            (RowSet::All(_), _) => other.clone(),
            (_, RowSet::All(_)) => self.clone(),
            (RowSet::Ids(a), RowSet::Ids(b)) => {
                let mut out = Vec::with_capacity(a.len().min(b.len()));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                RowSet::Ids(out)
            }
        }
    }

    /// Unions with another selection over the same table.
    pub fn union(&self, other: &RowSet) -> RowSet {
        match (self, other) {
            (RowSet::All(n), _) | (_, RowSet::All(n)) => RowSet::All(*n),
            (RowSet::Ids(a), RowSet::Ids(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                RowSet::Ids(out)
            }
        }
    }

    /// Complements the selection relative to a table of `n` rows.
    pub fn complement(&self, n: u32) -> RowSet {
        match self {
            RowSet::All(_) => RowSet::Ids(Vec::new()),
            RowSet::Ids(ids) => {
                let mut out = Vec::with_capacity(n as usize - ids.len());
                let mut next = ids.iter().copied().peekable();
                for row in 0..n {
                    if next.peek() == Some(&row) {
                        next.next();
                    } else {
                        out.push(row);
                    }
                }
                RowSet::Ids(out)
            }
        }
    }
}

impl From<RowSet> for Cow<'_, RowSet> {
    fn from(rows: RowSet) -> Self {
        Cow::Owned(rows)
    }
}

impl<'a> From<&'a RowSet> for Cow<'a, RowSet> {
    fn from(rows: &'a RowSet) -> Self {
        Cow::Borrowed(rows)
    }
}

/// Iterator over selected rows.
pub enum RowIter<'a> {
    /// Contiguous range (whole table).
    Range(std::ops::Range<u32>),
    /// Explicit id list.
    Slice(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            RowIter::Range(r) => r.next(),
            RowIter::Slice(s) => s.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Range(r) => r.size_hint(),
            RowIter::Slice(s) => s.size_hint(),
        }
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = u32;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> RowSet {
        RowSet::Ids(v.to_vec())
    }

    #[test]
    fn capacity_ends_at_the_last_u32_row_id() {
        assert_eq!(check_capacity(0, 0), Ok(()));
        assert_eq!(check_capacity(MAX_ROWS - 1, 1), Ok(()));
        assert_eq!(check_capacity(0, MAX_ROWS), Ok(()));
        let full = Err(Error::TooManyRows { row: 1 << 32 });
        assert_eq!(check_capacity(MAX_ROWS, 1), full);
        assert_eq!(check_capacity(MAX_ROWS - 5, 6), full);
        assert_eq!(check_capacity(1, MAX_ROWS), full);
        assert_eq!(check_capacity(usize::MAX, 1), full, "no wrap-around");
        assert_eq!(check_capacity(MAX_ROWS, 0), Ok(()));
        // What the guard protects: the count of a whole-table selection.
        assert_eq!(RowSet::All(MAX_ROWS as u32).len(), MAX_ROWS);
    }

    #[test]
    fn all_iterates_range() {
        let r = RowSet::All(3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn slice_is_iter_subrange() {
        for rows in [RowSet::All(10), ids(&[2, 3, 5, 7, 11, 13, 17, 19, 23, 29])] {
            let all: Vec<u32> = rows.iter().collect();
            assert_eq!(rows.slice(0..10).collect::<Vec<_>>(), all);
            assert_eq!(rows.slice(3..7).collect::<Vec<_>>(), all[3..7].to_vec());
            assert_eq!(rows.slice(4..4).count(), 0);
        }
    }

    #[test]
    fn intersect_merges_sorted() {
        let a = ids(&[0, 2, 4, 6]);
        let b = ids(&[2, 3, 4]);
        assert_eq!(a.intersect(&b), ids(&[2, 4]));
        assert_eq!(RowSet::All(10).intersect(&b), b);
        assert_eq!(b.intersect(&RowSet::All(10)), b);
    }

    #[test]
    fn union_merges_sorted() {
        let a = ids(&[0, 2]);
        let b = ids(&[1, 2, 5]);
        assert_eq!(a.union(&b), ids(&[0, 1, 2, 5]));
        assert_eq!(a.union(&RowSet::All(9)), RowSet::All(9));
    }

    #[test]
    fn complement_inverts() {
        let a = ids(&[1, 3]);
        assert_eq!(a.complement(5), ids(&[0, 2, 4]));
        assert_eq!(RowSet::All(4).complement(4), ids(&[]));
        assert_eq!(ids(&[]).complement(2), ids(&[0, 1]));
    }
}
