//! Column-oriented dataset construction: faster than row-at-a-time
//! string interning for the wide (101-attribute) generators.

use hypdb_table::{Column, Schema, Table};

/// Accumulates dictionary-coded columns and assembles a [`Table`].
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl Default for DatasetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        DatasetBuilder {
            schema: Schema::default(),
            columns: Vec::new(),
        }
    }

    /// Adds a column with a pre-interned categorical domain; returns its
    /// index for use with [`DatasetBuilder::push`].
    pub fn add_column<I, S>(&mut self, name: &str, domain: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.schema.push(name.to_string());
        let mut col = Column::new();
        for v in domain {
            col.dict_mut().intern(v.as_ref());
        }
        self.columns.push(col);
        self.columns.len() - 1
    }

    /// Appends a code to column `idx` (must be within the pre-interned
    /// domain).
    #[inline]
    pub fn push(&mut self, idx: usize, code: u32) {
        self.columns[idx].push_code(code);
    }

    /// Appends a raw string value (interning on the fly) — used for
    /// key-like columns whose domain grows with the data.
    #[inline]
    pub fn push_value(&mut self, idx: usize, value: &str) {
        self.columns[idx].push(value);
    }

    /// Finishes the table; all columns must have equal length.
    pub fn finish(self) -> Table {
        Table::from_columns(self.schema, self.columns).expect("builder kept columns aligned")
    }
}

/// Bernoulli helper used by the generators.
#[inline]
pub fn coin(rng: &mut impl rand::Rng, p: f64) -> u32 {
    u32::from(rng.gen::<f64>() < p)
}

/// Draws an index from unnormalised weights.
#[inline]
pub fn pick(rng: &mut impl rand::Rng, weights: &[f64]) -> u32 {
    hypdb_stats::random::categorical(rng, weights) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builds_aligned_table() {
        let mut b = DatasetBuilder::new();
        let a = b.add_column("a", ["x", "y"]);
        let k = b.add_column("id", std::iter::empty::<&str>());
        for i in 0..5 {
            b.push(a, i % 2);
            b.push_value(k, &i.to_string());
        }
        let t = b.finish();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.cardinality(t.attr("a").unwrap()), 2);
        assert_eq!(t.cardinality(t.attr("id").unwrap()), 5);
        assert_eq!(t.value(t.attr("a").unwrap(), 1), "y");
    }

    #[test]
    fn coin_respects_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let heads: u32 = (0..n).map(|_| coin(&mut rng, 0.3)).sum();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
    }
}
