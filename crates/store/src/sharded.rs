//! The partitioned columnar relation and its builder.

use hypdb_table::column::{Column, Dictionary};
use hypdb_table::rows::check_capacity;
use hypdb_table::scan::Scan;
use hypdb_table::{AttrId, Error, Result, RowSet, Schema, Table};

/// One shard: a fixed-size row range stored as one global-code column
/// per attribute.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Per-attribute codes (global dictionary space), all equal length.
    columns: Vec<Vec<u32>>,
}

impl Shard {
    /// Number of rows in the shard.
    pub fn nrows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// The global-code slice of one attribute.
    pub fn codes(&self, attr: AttrId) -> &[u32] {
        &self.columns[attr.index()]
    }
}

/// A partitioned, dictionary-encoded, column-oriented relation.
///
/// Shards are fixed-size row ranges (`shard_rows` each, last one
/// short); codes live in the **merged global dictionary**, which is
/// byte-identical to the dictionary a monolithic [`Table`] would build
/// from the same row stream (first-appearance order over the stream).
/// Every `hypdb-table` kernel therefore produces identical
/// output on either representation, while scans fan out shard by shard
/// on the worker pool and ingest streams without materialising the
/// whole input.
#[derive(Debug, Clone, Default)]
pub struct ShardedTable {
    schema: Schema,
    dicts: Vec<Dictionary>,
    shards: Vec<Shard>,
    shard_rows: usize,
    nrows: usize,
}

impl ShardedTable {
    /// Re-partitions a monolithic table into `shard_rows`-sized shards.
    /// Dictionaries are shared (cloned), so codes are identical by
    /// construction.
    pub fn from_table(table: &Table, shard_rows: usize) -> ShardedTable {
        let shard_rows = shard_rows.max(1);
        let n = table.nrows();
        let nattrs = table.nattrs();
        let mut shards = Vec::with_capacity(n.div_ceil(shard_rows));
        let mut start = 0usize;
        while start < n {
            let end = (start + shard_rows).min(n);
            let columns = (0..nattrs as u32)
                .map(|a| table.column(AttrId(a)).codes()[start..end].to_vec())
                .collect();
            shards.push(Shard { columns });
            start = end;
        }
        ShardedTable {
            schema: table.schema().clone(),
            dicts: (0..nattrs as u32)
                .map(|a| table.column(AttrId(a)).dict().clone())
                .collect(),
            shards,
            shard_rows,
            nrows: n,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of attributes.
    pub fn nattrs(&self) -> usize {
        self.schema.len()
    }

    /// Rows per shard (every shard except the last).
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Resolves an attribute name.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema.attr(name)
    }

    /// The merged global dictionary of an attribute.
    pub fn dict(&self, attr: AttrId) -> &Dictionary {
        &self.dicts[attr.index()]
    }

    /// Observed cardinality of an attribute.
    pub fn cardinality(&self, attr: AttrId) -> u32 {
        self.dicts[attr.index()].len() as u32
    }

    /// The string value of `attr` at global row `row`.
    pub fn value(&self, attr: AttrId, row: u32) -> &str {
        self.dicts[attr.index()].value(Scan::code(self, attr, row))
    }

    /// All rows as a [`RowSet`].
    pub fn all_rows(&self) -> RowSet {
        Scan::all_rows(self)
    }
}

impl Scan for ShardedTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn nrows(&self) -> usize {
        self.nrows
    }

    fn dict(&self, attr: AttrId) -> &Dictionary {
        &self.dicts[attr.index()]
    }

    fn shard_rows(&self) -> usize {
        self.shard_rows.max(1)
    }

    fn shard_codes(&self, shard: usize, attr: AttrId) -> &[u32] {
        &self.shards[shard].columns[attr.index()]
    }
}

/// Builder for [`ShardedTable`]: a row at a time ([`push_row`]) or a
/// run of rows at a time ([`append_columns`], the CSV block reader's
/// merge).
///
/// Both intern straight into the **global dictionaries** and append
/// global codes to the one open shard, which is sealed — moved to the
/// finished shards as it is — when it reaches `shard_rows` rows. Rows
/// arrive in stream order, so codes are assigned in first-appearance
/// order over the whole row stream — exactly what a monolithic
/// `hypdb_table::TableBuilder` assigns — whatever the shard size and
/// however the stream was cut into runs. Only one unsealed shard is
/// ever buffered, so memory beyond the sealed shards is `O(shard_rows)`.
///
/// [`push_row`]: ShardedTableBuilder::push_row
/// [`append_columns`]: ShardedTableBuilder::append_columns
#[derive(Debug, Clone)]
pub struct ShardedTableBuilder {
    schema: Schema,
    shard_rows: usize,
    dicts: Vec<Dictionary>,
    sealed: Vec<Shard>,
    /// The unsealed shard: per-attribute global codes, fewer than
    /// `shard_rows` rows.
    open: Vec<Vec<u32>>,
    /// Attributes whose dictionary gained a value from the row being
    /// pushed; kept only to undo a row of the wrong arity.
    fresh: Vec<usize>,
    nrows: usize,
}

impl ShardedTableBuilder {
    /// New builder over the given attribute names, sealing a shard
    /// every `shard_rows` rows (clamped to ≥ 1).
    pub fn new<I, S>(names: I, shard_rows: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let schema = Schema::new(names);
        let nattrs = schema.len();
        ShardedTableBuilder {
            schema,
            shard_rows: shard_rows.max(1),
            dicts: vec![Dictionary::new(); nattrs],
            sealed: Vec::new(),
            open: vec![Vec::new(); nattrs],
            fresh: Vec::new(),
            nrows: 0,
        }
    }

    /// Rows in the open shard.
    fn open_rows(&self) -> usize {
        self.open.first().map_or(0, Vec::len)
    }

    /// Appends one row of string values. A row of the wrong arity is
    /// undone before the error is returned, so a failed push leaves the
    /// builder untouched.
    pub fn push_row<'a, I>(&mut self, values: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a str>,
    {
        check_capacity(self.nrows, 1)?;
        let expected = self.dicts.len();
        let rows = self.open_rows();
        self.fresh.clear();
        let mut got = 0;
        for value in values {
            if let (Some(dict), Some(codes)) = (self.dicts.get_mut(got), self.open.get_mut(got)) {
                let before = dict.len();
                codes.push(dict.intern(value));
                if dict.len() > before {
                    self.fresh.push(got);
                }
            }
            got += 1;
        }
        if got != expected {
            // The fresh values are the last interned of their
            // dictionaries: one pop each removes them.
            for &attr in &self.fresh {
                self.dicts[attr].pop();
            }
            for codes in &mut self.open {
                codes.truncate(rows);
            }
            return Err(Error::ArityMismatch { expected, got });
        }
        self.nrows += 1;
        if rows + 1 >= self.shard_rows {
            self.seal();
        }
        Ok(())
    }

    /// Appends a run of rows given as one column per attribute, each
    /// encoded against its own dictionary: the values are moved into
    /// the global dictionaries in the run's first-appearance order, the
    /// codes are remapped and appended to the open shard, which seals
    /// every `shard_rows` rows. Equivalent to pushing the run's rows
    /// one by one.
    pub fn append_columns(&mut self, columns: Vec<Column>) -> Result<()> {
        if columns.len() != self.dicts.len() {
            return Err(Error::ArityMismatch {
                expected: self.dicts.len(),
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
        check_capacity(self.nrows, rows)?;
        let global: Vec<Vec<u32>> = columns
            .into_iter()
            .zip(&mut self.dicts)
            .map(|(column, dict)| column.recode(dict))
            .collect();
        let mut done = 0;
        while done < rows {
            let take = (self.shard_rows - self.open_rows()).min(rows - done);
            for (open, codes) in self.open.iter_mut().zip(&global) {
                open.extend_from_slice(&codes[done..done + take]);
            }
            done += take;
            if self.open_rows() >= self.shard_rows {
                self.seal();
            }
        }
        self.nrows += rows;
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The schema being built.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Seals the open shard: its codes are global already, so it moves
    /// to the finished shards as it is.
    fn seal(&mut self) {
        let columns = self.open.iter_mut().map(std::mem::take).collect();
        self.sealed.push(Shard { columns });
    }

    /// Finishes the table, sealing any trailing partial shard.
    pub fn finish(mut self) -> ShardedTable {
        if self.open_rows() > 0 {
            self.seal();
        }
        ShardedTable {
            schema: self.schema,
            dicts: self.dicts,
            shards: self.sealed,
            shard_rows: self.shard_rows,
            nrows: self.nrows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::TableBuilder;

    fn rows() -> Vec<[String; 2]> {
        (0..23u32)
            .map(|i| [format!("v{}", i % 7), format!("w{}", i % 3)])
            .collect()
    }

    fn monolithic() -> Table {
        let mut b = TableBuilder::new(["a", "b"]);
        for r in rows() {
            b.push_row(r.iter().map(String::as_str)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builder_codes_match_monolithic_encoding() {
        let mono = monolithic();
        for shard_rows in [1usize, 4, 5, 23, 100] {
            let mut b = ShardedTableBuilder::new(["a", "b"], shard_rows);
            for r in rows() {
                b.push_row(r.iter().map(String::as_str)).unwrap();
            }
            let sharded = b.finish();
            assert_eq!(sharded.nrows(), 23);
            for a in [AttrId(0), AttrId(1)] {
                assert_eq!(
                    sharded.dict(a).values(),
                    mono.column(a).dict().values(),
                    "shard_rows={shard_rows}"
                );
                for row in 0..23u32 {
                    assert_eq!(Scan::code(&sharded, a, row), mono.code(a, row));
                }
            }
        }
    }

    #[test]
    fn from_table_roundtrips() {
        let mono = monolithic();
        let sharded = ShardedTable::from_table(&mono, 6);
        assert_eq!(sharded.n_shards(), 4);
        assert_eq!(sharded.shard(3).nrows(), 5);
        assert_eq!(sharded.nrows(), mono.nrows());
        for a in [AttrId(0), AttrId(1)] {
            let codes: Vec<u32> = (0..mono.nrows() as u32)
                .map(|row| Scan::code(&sharded, a, row))
                .collect();
            assert_eq!(codes, mono.column(a).codes());
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ShardedTableBuilder::new(["a", "b"], 4);
        assert!(b.push_row(["1"]).is_err());
        b.push_row(["1", "2"]).unwrap();
        assert_eq!(b.nrows(), 1);
    }

    #[test]
    fn a_failed_push_leaves_dictionaries_and_rows_untouched() {
        let mut b = ShardedTableBuilder::new(["a", "b"], 3);
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
        assert_eq!(t.shard(0).codes(AttrId(0)), [0, 1]);
    }

    #[test]
    fn a_full_builder_refuses_the_next_row_and_stays_as_it_was() {
        let mut b = ShardedTableBuilder::new(["a", "b"], 4);
        b.push_row(["x", "y"]).unwrap();
        // Stand in for 2³² − 1 pushed rows.
        b.nrows = hypdb_table::MAX_ROWS;
        let full = Err(Error::TooManyRows { row: 1 << 32 });
        assert_eq!(b.push_row(["new", "y"]), full);
        let mut run = vec![Column::new(), Column::new()];
        run[0].push("new");
        run[1].push("y");
        assert_eq!(b.append_columns(run), full);
        assert_eq!(b.append_columns(vec![Column::new(), Column::new()]), Ok(()));
        assert_eq!(b.nrows(), hypdb_table::MAX_ROWS);
        assert_eq!(b.open_rows(), 1);
        assert_eq!(b.dicts[0].code("new"), None);
        // One row short of full, the last row still fits.
        b.nrows -= 1;
        assert_eq!(b.push_row(["z", "y"]), Ok(()));
        assert_eq!(b.push_row(["z", "y"]), full);
    }

    #[test]
    fn appended_runs_equal_pushed_rows() {
        let mono = monolithic();
        for shard_rows in [1usize, 4, 5, 23, 100] {
            let mut b = ShardedTableBuilder::new(["a", "b"], shard_rows);
            // Runs of 1, 9 and 13 rows, with a row pushed in between:
            // runs end inside, at and across shard boundaries.
            let all = rows();
            for (lo, hi) in [(0, 1), (1, 10), (11, 23)] {
                let mut run = vec![Column::new(), Column::new()];
                for r in &all[lo..hi] {
                    run[0].push(&r[0]);
                    run[1].push(&r[1]);
                }
                b.append_columns(run).unwrap();
                if hi == 10 {
                    b.push_row(all[10].iter().map(String::as_str)).unwrap();
                }
            }
            let want = ShardedTable::from_table(&mono, shard_rows);
            let got = b.finish();
            assert_eq!(got.nrows(), 23);
            assert_eq!(got.n_shards(), want.n_shards());
            for a in [AttrId(0), AttrId(1)] {
                assert_eq!(got.dict(a).values(), want.dict(a).values());
                for i in 0..want.n_shards() {
                    assert_eq!(got.shard(i).codes(a), want.shard(i).codes(a));
                }
            }
        }
    }

    #[test]
    fn misshapen_runs_are_rejected() {
        let mut b = ShardedTableBuilder::new(["a", "b"], 4);
        assert!(b.append_columns(vec![Column::new()]).is_err());
        let mut long = Column::new();
        long.push("x");
        assert!(b.append_columns(vec![long, Column::new()]).is_err());
        assert_eq!(b.nrows(), 0);
    }

    #[test]
    fn empty_builder_finishes_empty() {
        let t = ShardedTableBuilder::new(["a"], 8).finish();
        assert_eq!(t.nrows(), 0);
        assert_eq!(t.n_shards(), 0);
        assert_eq!(Scan::n_shards(&t), 0);
    }

    #[test]
    fn values_resolve_across_shards() {
        let mut b = ShardedTableBuilder::new(["a", "b"], 3);
        for r in rows() {
            b.push_row(r.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let a = t.attr("a").unwrap();
        for (i, r) in rows().iter().enumerate() {
            assert_eq!(t.value(a, i as u32), r[0]);
        }
    }
}
