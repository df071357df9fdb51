//! The in-memory relational instance `D` of §2.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::rows::{check_capacity, RowSet};
use crate::scan::Scan;
use crate::schema::{AttrId, Schema};

/// An immutable, dictionary-encoded, column-oriented relation.
///
/// The database instance of the paper: a bag of tuples over categorical
/// attributes, assumed to be a uniform sample of an unknown population
/// distribution `Pr(A)`.
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

    /// Looks up the dictionary code of `value` in `attr`.
    pub fn code_of(&self, attr: AttrId, value: &str) -> Result<u32> {
        self.column(attr)
            .dict()
            .code(value)
            .ok_or_else(|| Error::UnknownValue {
                attr: self.schema.name(attr).to_string(),
                value: value.to_string(),
            })
    }

    /// All rows of the table as a [`RowSet`].
    pub fn all_rows(&self) -> RowSet {
        Scan::all_rows(self)
    }

    /// Per-code numeric interpretation of an attribute (parses each
    /// dictionary entry as `f64`), used for `avg(Y)` aggregation.
    pub fn numeric_codes(&self, attr: AttrId) -> Result<Vec<f64>> {
        self.column(attr).numeric_codes(self.schema.name(attr))
    }

    /// Projects onto a subset of attributes (new table shares dictionaries).
    pub fn project(&self, attrs: &[AttrId]) -> Result<Table> {
        let mut schema = Schema::default();
        let mut columns = Vec::with_capacity(attrs.len());
        for &a in attrs {
            self.schema.check(a)?;
            schema.push(self.schema.name(a).to_string());
            columns.push(self.columns[a.index()].clone());
        }
        Ok(Table {
            schema,
            columns,
            nrows: self.nrows,
        })
    }
}

/// Row-at-a-time builder for [`Table`].
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

    /// Appends a run of rows given as one column per attribute, each
    /// encoded against its own dictionary (see [`Column::append`]).
    pub(crate) fn append_columns(&mut self, columns: Vec<Column>) -> Result<()> {
        if columns.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                got: columns.len(),
            });
        }
        check_capacity(self.nrows(), columns.first().map_or(0, Column::len))?;
        for (column, rows) in self.columns.iter_mut().zip(columns) {
            column.append(rows);
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
        let nrows = self.columns.first().map_or(0, Column::len);
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
        assert_eq!(t.code_of(tid, "t1").unwrap(), 1);
        assert!(t.code_of(tid, "t9").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = TableBuilder::new(["a", "b"]);
        assert!(b.push_row(["1"]).is_err());
        assert!(b.push_row(["1", "2", "3"]).is_err());
        // The builder must still be usable and consistent.
        b.push_row(["1", "2"]).unwrap();
        let t = b.finish();
        assert_eq!(t.nrows(), 1);
    }

    #[test]
    fn project_subset() {
        let t = sample();
        let z = t.attr("Z").unwrap();
        let p = t.project(&[z]).unwrap();
        assert_eq!(p.nattrs(), 1);
        assert_eq!(p.nrows(), 3);
        assert_eq!(p.value(AttrId(0), 2), "b");
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
