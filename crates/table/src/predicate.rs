//! WHERE-clause predicates over categorical tables.
//!
//! The paper's queries (Listing 1) filter with conjunctions of
//! `attr = 'v'` and `attr IN (...)`; we additionally support disjunction
//! and negation so arbitrary contexts `Γ_i = C ∧ (X = x_i)` compose.

use crate::rows::RowSet;
use crate::schema::AttrId;
use crate::table::Table;
use crate::Result;

/// Rows [`Predicate::select`] masks at a time, so its mask buffer
/// stays 64 KiB whatever the table's size.
const SELECT_CHUNK_ROWS: usize = 1 << 16;

/// A boolean predicate over rows, with attribute values resolved to
/// dictionary codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Matches no row (e.g. equality with a value absent from the data).
    False,
    /// `attr = code`.
    Eq(AttrId, u32),
    /// `attr IN (codes)`.
    In(AttrId, Vec<u32>),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

/// A [`Predicate`] compiled for one [`Predicate::select`].
enum Compiled {
    Const(bool),
    /// `mask[code]` of the code in the `slot`-th slice.
    Mask {
        slot: usize,
        mask: Vec<bool>,
    },
    And(Vec<Compiled>),
    Or(Vec<Compiled>),
    Not(Box<Compiled>),
}

impl Compiled {
    /// Sets `keep[r]` to whether local row `r` of a chunk, given as the
    /// code slices of the referenced attributes, satisfies the
    /// predicate — a column at a time, so a leaf is one pass over one
    /// slice.
    fn eval(&self, slices: &[&[u32]], keep: &mut [bool]) {
        match self {
            Compiled::Const(verdict) => keep.fill(*verdict),
            Compiled::Mask { slot, mask } => {
                for (k, &code) in keep.iter_mut().zip(slices[*slot]) {
                    *k = mask[code as usize];
                }
            }
            Compiled::And(ps) | Compiled::Or(ps) => {
                let all = matches!(self, Compiled::And(_));
                keep.fill(all);
                let mut term = vec![false; keep.len()];
                for p in ps {
                    p.eval(slices, &mut term);
                    for (k, &t) in keep.iter_mut().zip(&term) {
                        *k = if all { *k & t } else { *k | t };
                    }
                }
            }
            Compiled::Not(p) => {
                p.eval(slices, keep);
                for k in keep {
                    *k = !*k;
                }
            }
        }
    }
}

impl Predicate {
    /// `attr = value`, resolving names and values against `table`. A
    /// value that never occurs yields [`Predicate::False`].
    pub fn eq(table: &Table, attr: &str, value: &str) -> Result<Predicate> {
        let a = table.attr(attr)?;
        Ok(match table.dict(a).code(value) {
            Some(code) => Predicate::Eq(a, code),
            None => Predicate::False,
        })
    }

    /// `attr IN (values)`; unknown values are dropped from the list.
    pub fn is_in<'a, I>(table: &Table, attr: &str, values: I) -> Result<Predicate>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let a = table.attr(attr)?;
        let mut codes: Vec<u32> = values
            .into_iter()
            .filter_map(|v| table.dict(a).code(v))
            .collect();
        codes.sort_unstable();
        codes.dedup();
        Ok(if codes.is_empty() {
            Predicate::False
        } else {
            Predicate::In(a, codes)
        })
    }

    /// Conjunction of predicates (flattens nested `And`s).
    pub fn and(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Predicate::True => {}
                Predicate::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Predicate::True,
            1 => out.pop().expect("len checked"),
            _ => Predicate::And(out),
        }
    }

    /// Whether global row `row` of `table` satisfies the predicate.
    pub fn matches(&self, table: &Table, row: u32) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Eq(a, code) => table.code(*a, row) == *code,
            Predicate::In(a, codes) => codes.binary_search(&table.code(*a, row)).is_ok(),
            Predicate::And(ps) => ps.iter().all(|p| p.matches(table, row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(table, row)),
            Predicate::Not(p) => !p.matches(table, row),
        }
    }

    /// Compiles the predicate for a scan of `table`: every `Eq`/`In`
    /// leaf becomes a mask over its attribute's levels, read from the
    /// `slot`-th of the code slices a chunk hands over; `used[slot]` is
    /// that attribute.
    fn compile(&self, table: &Table, used: &mut Vec<AttrId>) -> Compiled {
        let mut leaf = |attr: AttrId, codes: &[u32]| {
            let slot = used.iter().position(|&a| a == attr).unwrap_or_else(|| {
                used.push(attr);
                used.len() - 1
            });
            let mut mask = vec![false; table.cardinality(attr) as usize];
            for &code in codes {
                // A code beyond the dictionary matches no row.
                if let Some(level) = mask.get_mut(code as usize) {
                    *level = true;
                }
            }
            Compiled::Mask { slot, mask }
        };
        match self {
            Predicate::True => Compiled::Const(true),
            Predicate::False => Compiled::Const(false),
            Predicate::Eq(a, code) => leaf(*a, &[*code]),
            Predicate::In(a, codes) => leaf(*a, codes),
            Predicate::And(ps) => {
                Compiled::And(ps.iter().map(|p| p.compile(table, used)).collect())
            }
            Predicate::Or(ps) => Compiled::Or(ps.iter().map(|p| p.compile(table, used)).collect()),
            Predicate::Not(p) => Compiled::Not(Box::new(p.compile(table, used))),
        }
    }

    /// Evaluates the predicate over the whole relation: the ascending
    /// id list of the rows that match. The predicate is compiled once
    /// (`Eq` and `In` test one level mask per row); the rows are then
    /// masked in chunks of 65 536, reading only the attributes the
    /// predicate references, on the calling thread.
    pub fn select(&self, table: &Table) -> RowSet {
        self.select_in_chunks(table, SELECT_CHUNK_ROWS)
    }

    /// [`Predicate::select`] in chunks of `chunk_rows` rows.
    fn select_in_chunks(&self, table: &Table, chunk_rows: usize) -> RowSet {
        match self {
            Predicate::True => table.all_rows(),
            Predicate::False => RowSet::Ids(Vec::new()),
            _ => {
                let mut used: Vec<AttrId> = Vec::new();
                let compiled = self.compile(table, &mut used);
                let columns: Vec<&[u32]> = used.iter().map(|&a| table.codes(a)).collect();
                let n = table.nrows();
                let mut keep = vec![false; chunk_rows.min(n)];
                let mut ids = vec![0u32; n];
                let mut kept = 0;
                for start in (0..n).step_by(chunk_rows) {
                    let chunk = start..n.min(start + chunk_rows);
                    let slices: Vec<&[u32]> = columns.iter().map(|c| &c[chunk.clone()]).collect();
                    // Chunk length from the range, so attr-less
                    // predicates (e.g. an empty conjunction) still
                    // visit every row.
                    let keep = &mut keep[..chunk.len()];
                    compiled.eval(&slices, keep);
                    // Every row writes its id; a kept one also moves
                    // the cursor. (A branch on `keep[r]` would be the
                    // whole cost of a half-selective WHERE.)
                    for (r, &k) in chunk.zip(keep.iter()) {
                        ids[kept] = r as u32;
                        kept += usize::from(k);
                    }
                }
                ids.truncate(kept);
                ids.shrink_to_fit();
                RowSet::Ids(ids)
            }
        }
    }

    /// Evaluates the predicate within an existing selection.
    pub fn select_within(&self, table: &Table, rows: &RowSet) -> RowSet {
        match self {
            Predicate::True => rows.clone(),
            Predicate::False => RowSet::Ids(Vec::new()),
            _ => {
                let mut ids = Vec::new();
                for row in rows.iter() {
                    if self.matches(table, row) {
                        ids.push(row);
                    }
                }
                RowSet::Ids(ids)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableBuilder};

    fn sample() -> Table {
        let mut b = TableBuilder::new(["carrier", "airport"]);
        for (c, a) in [
            ("AA", "COS"),
            ("UA", "ROC"),
            ("AA", "ROC"),
            ("DL", "COS"),
            ("UA", "MFE"),
        ] {
            b.push_row([c, a]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn eq_selects_matching_rows() {
        let t = sample();
        let p = Predicate::eq(&t, "carrier", "AA").unwrap();
        assert_eq!(p.select(&t), RowSet::Ids(vec![0, 2]));
    }

    #[test]
    fn eq_unknown_value_is_false() {
        let t = sample();
        let p = Predicate::eq(&t, "carrier", "ZZ").unwrap();
        assert_eq!(p, Predicate::False);
        assert!(p.select(&t).is_empty());
    }

    #[test]
    fn in_filters_and_dedups() {
        let t = sample();
        let p = Predicate::is_in(&t, "carrier", ["AA", "UA", "AA", "ZZ"]).unwrap();
        assert_eq!(p.select(&t), RowSet::Ids(vec![0, 1, 2, 4]));
    }

    #[test]
    fn in_all_unknown_is_false() {
        let t = sample();
        let p = Predicate::is_in(&t, "carrier", ["Q1", "Q2"]).unwrap();
        assert_eq!(p, Predicate::False);
    }

    #[test]
    fn and_combines() {
        let t = sample();
        let p = Predicate::and([
            Predicate::is_in(&t, "carrier", ["AA", "UA"]).unwrap(),
            Predicate::eq(&t, "airport", "ROC").unwrap(),
        ]);
        assert_eq!(p.select(&t), RowSet::Ids(vec![1, 2]));
    }

    #[test]
    fn and_simplifies() {
        assert_eq!(Predicate::and([]), Predicate::True);
        assert_eq!(
            Predicate::and([Predicate::True, Predicate::True]),
            Predicate::True
        );
        let inner = Predicate::And(vec![Predicate::False]);
        assert_eq!(Predicate::and([inner]), Predicate::False);
    }

    #[test]
    fn or_and_not() {
        let t = sample();
        let p = Predicate::Or(vec![
            Predicate::eq(&t, "carrier", "DL").unwrap(),
            Predicate::eq(&t, "airport", "MFE").unwrap(),
        ]);
        assert_eq!(p.select(&t), RowSet::Ids(vec![3, 4]));
        let np = Predicate::Not(Box::new(p));
        assert_eq!(np.select(&t), RowSet::Ids(vec![0, 1, 2]));
    }

    #[test]
    fn select_handles_attrless_predicates() {
        // Raw empty conjunctions/disjunctions (not simplified by
        // `Predicate::and`) reach the generic scan path, which must
        // still visit every row despite referencing no attribute.
        let t = sample();
        let all: Vec<u32> = (0..5).collect();
        assert_eq!(Predicate::And(vec![]).select(&t), RowSet::Ids(all.clone()));
        assert!(Predicate::Or(vec![]).select(&t).is_empty());
        assert_eq!(
            Predicate::Not(Box::new(Predicate::False)).select(&t),
            RowSet::Ids(all)
        );
    }

    /// A seeded random predicate over `t`: every node kind, values that
    /// occur and values that do not, codes beyond the dictionary.
    fn random_predicate(t: &Table, state: &mut u64, depth: u32) -> Predicate {
        let mut draw = |n: u64| {
            *state = hypdb_exec::seed::mix(*state, 0x5E1);
            *state % n
        };
        let attr = AttrId(draw(t.nattrs() as u64) as u32);
        let levels = u64::from(t.cardinality(attr));
        let name = t.schema().name(attr).to_string();
        let leaves = if depth == 0 { 6 } else { 9 };
        match draw(leaves) {
            0 => Predicate::True,
            1 => Predicate::False,
            // A code two past the dictionary matches nothing.
            2 => Predicate::Eq(attr, draw(levels + 2) as u32),
            3 => {
                let value = draw(levels + 1).to_string();
                Predicate::eq(t, &name, &value).unwrap()
            }
            4 => {
                let mut codes: Vec<u32> = (0..draw(5)).map(|_| draw(levels + 2) as u32).collect();
                codes.sort_unstable();
                codes.dedup();
                Predicate::In(attr, codes)
            }
            5 => {
                let values: Vec<String> =
                    (0..draw(4)).map(|_| draw(levels + 3).to_string()).collect();
                Predicate::is_in(t, &name, values.iter().map(String::as_str)).unwrap()
            }
            6 => Predicate::Not(Box::new(random_predicate(t, state, depth - 1))),
            kind => {
                let terms = (0..draw(4))
                    .map(|_| random_predicate(t, state, depth - 1))
                    .collect();
                if kind == 7 {
                    Predicate::And(terms)
                } else {
                    Predicate::Or(terms)
                }
            }
        }
    }

    #[test]
    fn select_is_the_rows_that_match_at_every_chunk_size_and_thread_count() {
        // Levels 0..k of column c are the strings "0".."k-1".
        let mut b = TableBuilder::new(["a", "b", "c"]);
        for i in 0..1_000u64 {
            let level = |c: u64, k: u64| (hypdb_exec::seed::mix(c, i) % k).to_string();
            let row = [level(1, 2), level(2, 7), level(3, 300)];
            b.push_row(row.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let mut state = 0x5EED;
        let mut kinds = std::collections::HashSet::new();
        for case in 0..300 {
            let p = random_predicate(&t, &mut state, 3);
            kinds.insert(std::mem::discriminant(&p));
            let want: Vec<u32> = (0..1_000).filter(|&r| p.matches(&t, r)).collect();
            let want = match p {
                Predicate::True => t.all_rows(),
                _ => RowSet::Ids(want),
            };
            assert_eq!(p.select(&t), want, "case {case}: {p:?}");
            for (chunk_rows, threads) in [(1, 1), (7, 2), (64, 4), (999, 7), (4_096, 2)] {
                hypdb_exec::set_global_threads(threads);
                let got = p.select_in_chunks(&t, chunk_rows);
                hypdb_exec::set_global_threads(0);
                assert_eq!(got, want, "case {case} in chunks of {chunk_rows}: {p:?}");
            }
        }
        assert_eq!(kinds.len(), 7, "every node kind was a root");
    }

    #[test]
    fn select_within_respects_subset() {
        let t = sample();
        let base = RowSet::Ids(vec![1, 2, 3]);
        let p = Predicate::is_in(&t, "carrier", ["AA", "UA"]).unwrap();
        assert_eq!(p.select_within(&t, &base), RowSet::Ids(vec![1, 2]));
        assert_eq!(Predicate::True.select_within(&t, &base), base);
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = sample();
        assert!(Predicate::eq(&t, "nope", "AA").is_err());
    }
}
