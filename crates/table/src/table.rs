//! The in-memory relational instance `D` of §2.

use crate::column::{Column, Dictionary};
use crate::error::{Error, Result};
use crate::rows::{check_capacity, RowSet};
use crate::schema::{AttrId, Schema};

/// An immutable, dictionary-encoded, column-oriented relation.
///
/// The database instance of the paper: a bag of tuples over categorical
/// attributes, assumed to be a uniform sample of an unknown population
/// distribution `Pr(A)`. Each attribute is one contiguous `u32` code
/// column against its dictionary; every kernel — WHERE selection, the
/// selection image, counting, group-by — reads those columns directly.
#[derive(Debug, Clone, Default)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Builds a table from a schema and matching columns.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::ArityMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let nrows = columns.first().map_or(0, Column::len);
        check_capacity(0, nrows)?;
        for c in &columns {
            if c.len() != nrows {
                return Err(Error::Incompatible(format!(
                    "column length {} != {}",
                    c.len(),
                    nrows
                )));
            }
        }
        Ok(Table {
            schema,
            columns,
            nrows,
        })
    }

    /// A copy of `table`; `shard_rows` is ignored, since a table is
    /// stored one way. This is `hypdb_store::ShardedTable::from_table`,
    /// the spelling the benchmark harness under `ledger/` still calls.
    #[doc(hidden)]
    pub fn from_table(table: &Table, _shard_rows: usize) -> Table {
        table.clone()
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`n` in the paper).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of attributes.
    #[inline]
    pub fn nattrs(&self) -> usize {
        self.schema.len()
    }

    /// Resolves an attribute name.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema.attr(name)
    }

    /// Resolves several attribute names at once.
    pub fn attrs<'a, I>(&self, names: I) -> Result<Vec<AttrId>>
    where
        I: IntoIterator<Item = &'a str>,
    {
        names.into_iter().map(|n| self.schema.attr(n)).collect()
    }

    /// The column of an attribute.
    pub fn column(&self, id: AttrId) -> &Column {
        &self.columns[id.index()]
    }

    /// The code column of an attribute: one code per row.
    #[inline]
    pub fn codes(&self, attr: AttrId) -> &[u32] {
        self.columns[attr.index()].codes()
    }

    /// The dictionary of an attribute.
    #[inline]
    pub fn dict(&self, attr: AttrId) -> &Dictionary {
        self.columns[attr.index()].dict()
    }

    /// Observed cardinality of an attribute.
    pub fn cardinality(&self, id: AttrId) -> u32 {
        self.columns[id.index()].cardinality()
    }

    /// The code of `attr` at `row`.
    #[inline]
    pub fn code(&self, attr: AttrId, row: u32) -> u32 {
        self.columns[attr.index()].code_at(row as usize)
    }

    /// The string value of `attr` at `row`.
    pub fn value(&self, attr: AttrId, row: u32) -> &str {
        self.columns[attr.index()].value_at(row as usize)
    }

    /// All rows of the table as a [`RowSet`].
    pub fn all_rows(&self) -> RowSet {
        let rows = u32::try_from(self.nrows);
        RowSet::All(rows.expect("builders refuse a table of more than MAX_ROWS rows"))
    }

    /// Per-code numeric interpretation of an attribute (parses each
    /// dictionary entry as `f64`), used for `avg(Y)` aggregation.
    pub fn numeric_codes(&self, attr: AttrId) -> Result<Vec<f64>> {
        self.column(attr).numeric_codes(self.schema.name(attr))
    }
}

/// Builder for [`Table`]: a row at a time ([`TableBuilder::push_row`])
/// or a run of rows at a time (`append_columns`, the CSV block reader's
/// merge). Both intern in stream order, so codes are assigned in
/// first-appearance order over the whole row stream however it was cut
/// into runs.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// New builder over the given attribute names.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let schema = Schema::new(names);
        let columns = (0..schema.len()).map(|_| Column::new()).collect();
        TableBuilder { schema, columns }
    }

    /// Appends one row of string values. The row is validated for arity
    /// before anything is interned, so a failed push leaves the builder
    /// untouched.
    pub fn push_row<'a, I>(&mut self, values: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let vals: Vec<&str> = values.into_iter().collect();
        if vals.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                got: vals.len(),
            });
        }
        check_capacity(self.nrows(), 1)?;
        for (c, v) in self.columns.iter_mut().zip(vals) {
            c.push(v);
        }
        Ok(())
    }

    /// Appends a run of rows given as one equally long column per
    /// attribute, each encoded against its own dictionary (see
    /// [`Column::append`]). Equivalent to pushing the run's rows one by
    /// one; a misshapen run is refused before anything is appended.
    pub(crate) fn append_columns(&mut self, columns: Vec<Column>) -> Result<()> {
        if columns.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                got: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        if let Some(odd) = columns.iter().find(|c| c.len() != rows) {
            return Err(Error::Incompatible(format!(
                "column length {} != {rows}",
                odd.len()
            )));
        }
        check_capacity(self.nrows(), rows)?;
        for (column, run) in self.columns.iter_mut().zip(columns) {
            column.append(run);
        }
        Ok(())
    }

    /// Number of complete rows pushed so far.
    pub fn nrows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// The schema being built.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Finishes the table.
    pub fn finish(self) -> Table {
        let nrows = self.nrows();
        Table {
            schema: self.schema,
            columns: self.columns,
            nrows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        b.push_row(["t0", "0", "a"]).unwrap();
        b.push_row(["t1", "1", "a"]).unwrap();
        b.push_row(["t1", "0", "b"]).unwrap();
        b.finish()
    }

    #[test]
    fn build_and_read() {
        let t = sample();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.nattrs(), 3);
        let tid = t.attr("T").unwrap();
        assert_eq!(t.value(tid, 0), "t0");
        assert_eq!(t.value(tid, 1), "t1");
        assert_eq!(t.cardinality(tid), 2);
        assert_eq!(t.codes(tid), [0, 1, 1]);
        assert_eq!(t.dict(tid).values(), ["t0", "t1"]);
        assert_eq!(t.all_rows(), RowSet::All(3));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = TableBuilder::new(["a", "b"]);
        assert!(b.push_row(["1"]).is_err());
        assert!(b.push_row(["1", "2", "3"]).is_err());
        // The builder must still be usable and consistent.
        b.push_row(["1", "2"]).unwrap();
        assert_eq!(b.nrows(), 1);
        let t = b.finish();
        assert_eq!(t.nrows(), 1);
    }

    #[test]
    fn a_failed_push_leaves_dictionaries_and_rows_untouched() {
        let mut b = TableBuilder::new(["a", "b"]);
        b.push_row(["x", "y"]).unwrap();
        // Too short and too long, both with values not seen before.
        assert!(b.push_row(["new"]).is_err());
        assert!(b.push_row(["x", "new", "extra"]).is_err());
        b.push_row(["z", "y"]).unwrap();
        let t = b.finish();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.dict(AttrId(0)).values(), ["x", "z"]);
        assert_eq!(t.dict(AttrId(1)).values(), ["y"]);
        assert_eq!(t.dict(AttrId(0)).code("new"), None);
        assert_eq!(t.codes(AttrId(0)), [0, 1]);
    }

    #[test]
    fn appended_runs_equal_pushed_rows() {
        let rows: Vec<[String; 2]> = (0..23u32)
            .map(|i| [format!("v{}", i % 7), format!("w{}", i % 3)])
            .collect();
        let mut pushed = TableBuilder::new(["a", "b"]);
        for r in &rows {
            pushed.push_row(r.iter().map(String::as_str)).unwrap();
        }
        let want = pushed.finish();
        let mut b = TableBuilder::new(["a", "b"]);
        // Runs of 1, 9 and 12 rows, with a row pushed in between.
        for (lo, hi) in [(0, 1), (1, 10), (11, 23)] {
            let mut run = vec![Column::new(), Column::new()];
            for r in &rows[lo..hi] {
                run[0].push(&r[0]);
                run[1].push(&r[1]);
            }
            b.append_columns(run).unwrap();
            if hi == 10 {
                b.push_row(rows[10].iter().map(String::as_str)).unwrap();
            }
        }
        let got = b.finish();
        assert_eq!(got.nrows(), 23);
        for a in [AttrId(0), AttrId(1)] {
            assert_eq!(got.dict(a).values(), want.dict(a).values());
            assert_eq!(got.codes(a), want.codes(a));
        }
    }

    #[test]
    fn misshapen_runs_are_rejected() {
        let mut b = TableBuilder::new(["a", "b"]);
        assert!(b.append_columns(vec![Column::new()]).is_err());
        let mut long = Column::new();
        long.push("x");
        assert!(b.append_columns(vec![long, Column::new()]).is_err());
        assert_eq!(b.nrows(), 0);
        assert_eq!(b.finish().dict(AttrId(0)).len(), 0);
    }

    #[test]
    fn empty_builder_finishes_empty() {
        let t = TableBuilder::new(["a"]).finish();
        assert_eq!(t.nrows(), 0);
        assert_eq!(t.all_rows(), RowSet::All(0));
        assert!(t.codes(AttrId(0)).is_empty());
    }

    #[test]
    fn numeric_codes() {
        let t = sample();
        let y = t.attr("Y").unwrap();
        assert_eq!(t.numeric_codes(y).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn from_columns_validates_lengths() {
        let schema = Schema::new(["a", "b"]);
        let mut c1 = Column::new();
        c1.push("x");
        let c2 = Column::new();
        assert!(Table::from_columns(schema, vec![c1, c2]).is_err());
    }
}
