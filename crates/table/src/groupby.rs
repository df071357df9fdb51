//! Group-by average aggregation: the execution engine behind the
//! paper's `SELECT avg(Y) … GROUP BY …` queries (Listing 1) and the
//! rewritten block/weight queries (Listing 2).

use crate::contingency::ContingencyTable;
use crate::hash::FxHashMap;
use crate::rows::RowSet;
use crate::schema::AttrId;
use crate::table::Table;
use crate::Result;

/// One output row of a group-by aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Group key: one dictionary code per grouping attribute.
    pub key: Box<[u32]>,
    /// `count(*)` of the group.
    pub count: u64,
    /// `avg(Y_i)` per outcome attribute (empty for pure counting).
    pub averages: Vec<f64>,
}

/// `count(*) GROUP BY attrs` over the selected rows of `table`, output
/// sorted by key for determinism.
pub fn group_counts(table: &Table, rows: &RowSet, attrs: &[AttrId]) -> Vec<GroupRow> {
    let ct = ContingencyTable::from_table(table, rows, attrs);
    let mut out: Vec<GroupRow> = ct
        .cells()
        .into_iter()
        .map(|(key, count)| GroupRow {
            key,
            count,
            averages: Vec::new(),
        })
        .collect();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

/// `avg(Y_1), …, avg(Y_e) GROUP BY attrs` over the selected rows.
///
/// Outcome attributes must have numeric dictionary values (e.g. a 0/1
/// `Delayed` column). Output sorted by key.
pub fn group_average(
    table: &Table,
    rows: &RowSet,
    group_attrs: &[AttrId],
    outcomes: &[AttrId],
) -> Result<Vec<GroupRow>> {
    // Per-outcome, per-code numeric value.
    let numeric: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|&y| table.numeric_codes(y))
        .collect::<Result<_>>()?;
    let out_cols: Vec<&[u32]> = outcomes.iter().map(|&y| table.codes(y)).collect();
    let grp_cols: Vec<&[u32]> = group_attrs.iter().map(|&a| table.codes(a)).collect();

    struct Acc {
        count: u64,
        sums: Vec<f64>,
    }
    let mut groups: FxHashMap<Box<[u32]>, Acc> = FxHashMap::default();
    let mut key = vec![0u32; group_attrs.len()];
    for row in rows.iter() {
        for (slot, col) in key.iter_mut().zip(&grp_cols) {
            *slot = col[row as usize];
        }
        let acc = groups
            .entry(key.clone().into_boxed_slice())
            .or_insert_with(|| Acc {
                count: 0,
                sums: vec![0.0; outcomes.len()],
            });
        acc.count += 1;
        for (s, (vals, col)) in acc.sums.iter_mut().zip(numeric.iter().zip(&out_cols)) {
            *s += vals[col[row as usize] as usize];
        }
    }
    let mut out: Vec<GroupRow> = groups
        .into_iter()
        .map(|(key, acc)| GroupRow {
            key,
            count: acc.count,
            averages: acc.sums.iter().map(|s| s / acc.count as f64).collect(),
        })
        .collect();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::table::{Table, TableBuilder};

    fn flights() -> Table {
        let mut b = TableBuilder::new(["carrier", "airport", "delayed"]);
        for (c, a, d, n) in [
            ("AA", "COS", "0", 8u32),
            ("AA", "COS", "1", 2),
            ("AA", "ROC", "0", 1),
            ("AA", "ROC", "1", 4),
            ("UA", "COS", "0", 3),
            ("UA", "COS", "1", 1),
            ("UA", "ROC", "0", 4),
            ("UA", "ROC", "1", 6),
        ] {
            for _ in 0..n {
                b.push_row([c, a, d]).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn group_counts_by_carrier() {
        let t = flights();
        let carrier = t.attr("carrier").unwrap();
        let rows = t.all_rows();
        let g = group_counts(&t, &rows, &[carrier]);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].count, 15); // AA
        assert_eq!(g[1].count, 14); // UA
    }

    #[test]
    fn group_average_delay() {
        let t = flights();
        let carrier = t.attr("carrier").unwrap();
        let delayed = t.attr("delayed").unwrap();
        let g = group_average(&t, &t.all_rows(), &[carrier], &[delayed]).unwrap();
        // AA: 6 delayed of 15; UA: 7 of 14.
        assert!((g[0].averages[0] - 6.0 / 15.0).abs() < 1e-12);
        assert!((g[1].averages[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn group_average_with_where() {
        let t = flights();
        let carrier = t.attr("carrier").unwrap();
        let delayed = t.attr("delayed").unwrap();
        let rows = Predicate::eq(&t, "airport", "ROC").unwrap().select(&t);
        let g = group_average(&t, &rows, &[carrier], &[delayed]).unwrap();
        assert!((g[0].averages[0] - 0.8).abs() < 1e-12); // AA at ROC: 4/5
        assert!((g[1].averages[0] - 0.6).abs() < 1e-12); // UA at ROC: 6/10
    }

    #[test]
    fn multi_attribute_grouping() {
        let t = flights();
        let ids = t.attrs(["carrier", "airport"]).unwrap();
        let delayed = t.attr("delayed").unwrap();
        let g = group_average(&t, &t.all_rows(), &ids, &[delayed]).unwrap();
        assert_eq!(g.len(), 4);
        let first: Vec<&str> = ids
            .iter()
            .zip(&g[0].key)
            .map(|(&a, &code)| t.dict(a).value(code))
            .collect();
        assert_eq!(first, ["AA", "COS"]);
        assert!((g[0].averages[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn non_numeric_outcome_errors() {
        let t = flights();
        let carrier = t.attr("carrier").unwrap();
        let airport = t.attr("airport").unwrap();
        assert!(group_average(&t, &t.all_rows(), &[carrier], &[airport]).is_err());
    }

    #[test]
    fn empty_selection_yields_no_groups() {
        let t = flights();
        let carrier = t.attr("carrier").unwrap();
        let delayed = t.attr("delayed").unwrap();
        let g = group_average(&t, &RowSet::Ids(vec![]), &[carrier], &[delayed]).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn multiple_outcomes() {
        let mut b = TableBuilder::new(["g", "y1", "y2"]);
        for (g, y1, y2) in [("a", "1", "10"), ("a", "0", "20"), ("b", "1", "30")] {
            b.push_row([g, y1, y2]).unwrap();
        }
        let t = b.finish();
        let g = t.attr("g").unwrap();
        let ys = t.attrs(["y1", "y2"]).unwrap();
        let rows = group_average(&t, &t.all_rows(), &[g], &ys).unwrap();
        assert_eq!(rows[0].averages, vec![0.5, 15.0]);
        assert_eq!(rows[1].averages, vec![1.0, 30.0]);
    }
}
