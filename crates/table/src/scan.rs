//! The storage-access abstraction every counting kernel is written
//! against.
//!
//! [`Scan`] models a dictionary-encoded categorical relation as an
//! ordered sequence of **shards**: fixed-size row ranges, each exposing
//! one contiguous `u32` code slice per attribute. A monolithic
//! [`Table`](crate::Table) is the degenerate single-shard case; a
//! partitioned store (`hypdb-store`'s `ShardedTable`) has many. The
//! codes are always in the **global** dictionary space — shard
//! boundaries are an artefact of storage, never of meaning — so every
//! kernel produces byte-identical results for any shard layout.
//!
//! Two access styles:
//!
//! * **Segmented** ([`for_each_segment`]) — a walk of maximal per-shard
//!   runs with direct slice indexing (no per-row shard arithmetic; on a
//!   monolithic table one contiguous run). The selection image
//!   ([`crate::image`]) gathers whole-table columns this way, and walks
//!   id lists in per-shard runs of its own; counting reads the image,
//!   not storage.
//! * **Random** ([`ColRef`]) — loops that visit a few rows or carry
//!   per-row state of their own (`group_average`, the SQL executor)
//!   resolve an arbitrary global row id to its shard in O(1) because
//!   shards are fixed-size.

use crate::column::Dictionary;
use crate::error::{Error, Result};
use crate::rows::RowSet;
use crate::schema::{AttrId, Schema};
use crate::table::Table;

/// Read access to a dictionary-encoded relation stored as fixed-size
/// row shards.
///
/// Required methods describe the storage layout; everything else —
/// name resolution, O(1) row access, numeric decoding — is provided.
/// Implementations must uphold two invariants:
///
/// 1. every shard except the last holds exactly [`Scan::shard_rows`]
///    rows (the last may be shorter, never longer),
/// 2. codes are in the global dictionary space of [`Scan::dict`] —
///    identical to what a monolithic [`Table`] built from the same row
///    stream would assign.
pub trait Scan: Sync {
    /// The schema.
    fn schema(&self) -> &Schema;

    /// Total number of rows across all shards.
    fn nrows(&self) -> usize;

    /// The merged (global) dictionary of an attribute.
    fn dict(&self, attr: AttrId) -> &Dictionary;

    /// Rows per shard: every shard except the last has exactly this
    /// many. Always ≥ 1 (a monolithic table reports its row count).
    fn shard_rows(&self) -> usize;

    /// The global-code slice of `attr` within shard `shard`.
    fn shard_codes(&self, shard: usize, attr: AttrId) -> &[u32];

    /// Number of shards (0 for an empty relation).
    fn n_shards(&self) -> usize {
        self.nrows().div_ceil(self.shard_rows().max(1))
    }

    /// Number of attributes.
    fn nattrs(&self) -> usize {
        self.schema().len()
    }

    /// Resolves an attribute name.
    fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema().attr(name)
    }

    /// Resolves several attribute names at once.
    fn attrs<'n, I>(&self, names: I) -> Result<Vec<AttrId>>
    where
        I: IntoIterator<Item = &'n str>,
        Self: Sized,
    {
        names.into_iter().map(|n| self.schema().attr(n)).collect()
    }

    /// Observed cardinality of an attribute (global dictionary size).
    fn cardinality(&self, attr: AttrId) -> u32 {
        self.dict(attr).len() as u32
    }

    /// The code of `attr` at global row `row`.
    #[inline]
    fn code(&self, attr: AttrId, row: u32) -> u32 {
        let sr = self.shard_rows().max(1);
        let (shard, local) = (row as usize / sr, row as usize % sr);
        self.shard_codes(shard, attr)[local]
    }

    /// The string value of `attr` at global row `row`.
    fn value(&self, attr: AttrId, row: u32) -> &str {
        self.dict(attr).value(self.code(attr, row))
    }

    /// Looks up the dictionary code of `value` in `attr`.
    fn code_of(&self, attr: AttrId, value: &str) -> Result<u32> {
        self.dict(attr)
            .code(value)
            .ok_or_else(|| Error::UnknownValue {
                attr: self.schema().name(attr).to_string(),
                value: value.to_string(),
            })
    }

    /// Per-code numeric interpretation of an attribute (parses each
    /// dictionary entry as `f64`), used for `avg(Y)` aggregation.
    fn numeric_codes(&self, attr: AttrId) -> Result<Vec<f64>> {
        let name = self.schema().name(attr);
        self.dict(attr)
            .values()
            .iter()
            .map(|v| {
                v.trim().parse::<f64>().map_err(|_| Error::NonNumericValue {
                    attr: name.to_string(),
                    value: v.clone(),
                })
            })
            .collect()
    }

    /// All rows as a [`RowSet`].
    fn all_rows(&self) -> RowSet {
        let rows = u32::try_from(self.nrows());
        RowSet::All(rows.expect("builders refuse a table of more than MAX_ROWS rows"))
    }

    /// An O(1) random-access view of one attribute's codes.
    fn col(&self, attr: AttrId) -> ColRef<'_> {
        match self.n_shards() {
            0 => ColRef::Single(&[]),
            1 => ColRef::Single(self.shard_codes(0, attr)),
            n => ColRef::Sharded {
                shards: (0..n).map(|s| self.shard_codes(s, attr)).collect(),
                shard_rows: self.shard_rows().max(1) as u32,
            },
        }
    }
}

impl Scan for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }

    fn nrows(&self) -> usize {
        Table::nrows(self)
    }

    fn dict(&self, attr: AttrId) -> &Dictionary {
        self.column(attr).dict()
    }

    fn shard_rows(&self) -> usize {
        Table::nrows(self).max(1)
    }

    fn shard_codes(&self, shard: usize, attr: AttrId) -> &[u32] {
        debug_assert_eq!(shard, 0, "a monolithic table is a single shard");
        self.column(attr).codes()
    }
}

/// Random-access view of one attribute's codes across shards.
///
/// Single-shard access is a direct slice index; multi-shard access
/// resolves the shard by division (shards are fixed-size).
#[derive(Debug, Clone)]
pub enum ColRef<'a> {
    /// One contiguous slice (monolithic tables, single-shard stores).
    Single(&'a [u32]),
    /// Fixed-size shard slices.
    Sharded {
        /// Per-shard code slices, in shard order.
        shards: Vec<&'a [u32]>,
        /// Rows per shard (every shard except the last).
        shard_rows: u32,
    },
}

impl ColRef<'_> {
    /// The code at global row `row`.
    #[inline]
    pub fn at(&self, row: u32) -> u32 {
        match self {
            ColRef::Single(codes) => codes[row as usize],
            ColRef::Sharded { shards, shard_rows } => {
                shards[(row / shard_rows) as usize][(row % shard_rows) as usize]
            }
        }
    }

    /// Total number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColRef::Single(codes) => codes.len(),
            ColRef::Sharded { shards, .. } => shards.iter().map(|s| s.len()).sum(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Walks the global row range `range` as maximal per-shard runs,
/// calling `f(slices, local_range)` once per run with the per-attribute
/// code slices of that shard and the *local* row range within it.
///
/// This is the whole-table scan primitive: callers index the slices
/// directly (no per-row shard arithmetic), and on a monolithic table
/// there is a single call. Runs are visited in ascending row order.
pub fn for_each_segment<S, F>(scan: &S, attrs: &[AttrId], range: std::ops::Range<usize>, mut f: F)
where
    S: Scan + ?Sized,
    F: FnMut(&[&[u32]], std::ops::Range<usize>),
{
    let sr = scan.shard_rows().max(1);
    let mut slices: Vec<&[u32]> = Vec::with_capacity(attrs.len());
    let mut pos = range.start;
    while pos < range.end {
        let shard = pos / sr;
        let shard_start = shard * sr;
        let seg_end = range.end.min(shard_start + sr);
        slices.clear();
        slices.extend(attrs.iter().map(|&a| scan.shard_codes(shard, a)));
        f(&slices, (pos - shard_start)..(seg_end - shard_start));
        pos = seg_end;
    }
}

/// A [`Table`] seen as shards of `shard_rows` rows.
#[cfg(test)]
pub(crate) struct Resharded<'a> {
    pub(crate) table: &'a Table,
    pub(crate) shard_rows: usize,
}

#[cfg(test)]
impl Scan for Resharded<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn nrows(&self) -> usize {
        self.table.nrows()
    }

    fn dict(&self, attr: AttrId) -> &Dictionary {
        self.table.column(attr).dict()
    }

    fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    fn shard_codes(&self, shard: usize, attr: AttrId) -> &[u32] {
        let codes = self.table.column(attr).codes();
        let start = shard * self.shard_rows;
        &codes[start..codes.len().min(start + self.shard_rows)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn sample() -> Table {
        let mut b = TableBuilder::new(["a", "b"]);
        for i in 0..10u32 {
            b.push_row([i.to_string().as_str(), (i % 3).to_string().as_str()])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn table_is_a_single_shard() {
        let t = sample();
        assert_eq!(Scan::n_shards(&t), 1);
        assert_eq!(Scan::shard_rows(&t), 10);
        let a = Scan::attr(&t, "a").unwrap();
        assert_eq!(t.shard_codes(0, a), t.column(a).codes());
        assert_eq!(Scan::code(&t, a, 7), t.code(a, 7));
        assert_eq!(Scan::value(&t, a, 7), "7");
    }

    #[test]
    fn colref_single_matches_direct() {
        let t = sample();
        let b = Scan::attr(&t, "b").unwrap();
        let col = t.col(b);
        assert_eq!(col.len(), 10);
        for row in 0..10u32 {
            assert_eq!(col.at(row), t.code(b, row));
        }
    }

    #[test]
    fn colref_sharded_resolves_rows() {
        let t = sample();
        let b = Scan::attr(&t, "b").unwrap();
        let codes = t.column(b).codes();
        // Hand-build a 3-rows-per-shard view of the same column.
        let col = ColRef::Sharded {
            shards: codes.chunks(3).collect(),
            shard_rows: 3,
        };
        assert_eq!(col.len(), 10);
        for row in 0..10u32 {
            assert_eq!(col.at(row), codes[row as usize]);
        }
    }

    #[test]
    fn segments_cover_range_in_order() {
        let t = sample();
        let ids: Vec<AttrId> = t.schema().attr_ids().collect();
        let mut seen: Vec<u32> = Vec::new();
        for_each_segment(&t, &ids, 2..9, |slices, local| {
            assert_eq!(slices.len(), 2);
            for r in local {
                seen.push(slices[0][r]);
            }
        });
        let expect: Vec<u32> = (2..9).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn empty_table_has_no_shards() {
        let t = TableBuilder::new(["x"]).finish();
        assert_eq!(Scan::n_shards(&t), 0);
        let x = Scan::attr(&t, "x").unwrap();
        assert!(t.col(x).is_empty());
    }
}
