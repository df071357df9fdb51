//! Executor: runs parsed statements against any [`Scan`] storage —
//! monolithic [`Table`](hypdb_table::Table) or sharded store alike.
//! WHERE evaluation and GROUP BY counting run on the shared
//! shard-parallel kernels of `hypdb-table`.

use crate::ast::{Expr, SelectItem, Statement};
use hypdb_table::groupby::group_average;
use hypdb_table::{AttrId, ColRef, Predicate, Scan};
use std::collections::BTreeSet;
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Column not found / non-numeric aggregate input, etc.
    Table(hypdb_table::Error),
    /// A selected bare column is not in GROUP BY.
    NotGrouped(String),
    /// Unsupported construct for this executor.
    Unsupported(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Table(e) => write!(f, "{e}"),
            ExecError::NotGrouped(c) => {
                write!(f, "column `{c}` must appear in GROUP BY")
            }
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<hypdb_table::Error> for ExecError {
    fn from(e: hypdb_table::Error) -> Self {
        ExecError::Table(e)
    }
}

/// A materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column headers.
    pub columns: Vec<String>,
    /// Row values, stringified (averages with full precision).
    pub rows: Vec<Vec<String>>,
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(" | "))?;
        }
        Ok(())
    }
}

/// Compiles a WHERE expression to a table predicate. Values absent from
/// a column's dictionary simply never match.
pub fn compile_expr<S: Scan + ?Sized>(table: &S, expr: &Expr) -> Result<Predicate, ExecError> {
    Ok(match expr {
        Expr::Eq(col, lit) => Predicate::eq(table, col, &lit.0)?,
        Expr::NotEq(col, lit) => Predicate::Not(Box::new(Predicate::eq(table, col, &lit.0)?)),
        Expr::In(col, lits) => Predicate::is_in(table, col, lits.iter().map(|l| l.0.as_str()))?,
        Expr::And(a, b) => Predicate::and([compile_expr(table, a)?, compile_expr(table, b)?]),
        Expr::Or(a, b) => Predicate::Or(vec![compile_expr(table, a)?, compile_expr(table, b)?]),
        Expr::Not(e) => Predicate::Not(Box::new(compile_expr(table, e)?)),
    })
}

/// Executes a statement. The `FROM` name is not checked — the caller
/// supplies the table it refers to.
pub fn execute<S: Scan + ?Sized>(stmt: &Statement, table: &S) -> Result<ResultSet, ExecError> {
    // Validate select list against GROUP BY.
    let grouped: BTreeSet<&str> = stmt.group_by.iter().map(String::as_str).collect();
    for item in &stmt.items {
        if let SelectItem::Column(c) = item {
            if !grouped.contains(c.as_str()) {
                return Err(ExecError::NotGrouped(c.clone()));
            }
        }
    }

    let rows = match &stmt.where_clause {
        Some(e) => compile_expr(table, e)?.select(table),
        None => table.all_rows(),
    };

    let group_attrs: Vec<AttrId> = stmt
        .group_by
        .iter()
        .map(|c| table.attr(c))
        .collect::<Result<_, _>>()?;

    // Aggregates in select order.
    let mut avg_attrs: Vec<AttrId> = Vec::new();
    let mut distinct_attrs: Vec<AttrId> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Avg(c) => avg_attrs.push(table.attr(c)?),
            SelectItem::CountDistinct(c) => distinct_attrs.push(table.attr(c)?),
            _ => {}
        }
    }

    let agg = group_average(table, &rows, &group_attrs, &avg_attrs)?;

    // count(DISTINCT c) needs per-group distinct sets; computed in a
    // second pass only when requested.
    let distinct_counts: Vec<Vec<u64>> = if distinct_attrs.is_empty() {
        Vec::new()
    } else {
        use hypdb_table::hash::FxHashMap;
        let mut per_group: FxHashMap<Box<[u32]>, Vec<BTreeSet<u32>>> = FxHashMap::default();
        let gcols: Vec<ColRef<'_>> = group_attrs.iter().map(|&a| table.col(a)).collect();
        let dcols: Vec<ColRef<'_>> = distinct_attrs.iter().map(|&a| table.col(a)).collect();
        let mut key = vec![0u32; group_attrs.len()];
        for row in rows.iter() {
            for (slot, col) in key.iter_mut().zip(&gcols) {
                *slot = col.at(row);
            }
            let sets = per_group
                .entry(key.clone().into_boxed_slice())
                .or_insert_with(|| vec![BTreeSet::new(); distinct_attrs.len()]);
            for (set, col) in sets.iter_mut().zip(&dcols) {
                set.insert(col.at(row));
            }
        }
        agg.iter()
            .map(|g| {
                per_group
                    .get(&g.key)
                    .map(|sets| sets.iter().map(|s| s.len() as u64).collect())
                    .unwrap_or_else(|| vec![0; distinct_attrs.len()])
            })
            .collect()
    };

    // Assemble output rows in select order.
    let columns: Vec<String> = stmt.items.iter().map(|i| i.to_string()).collect();
    let mut out_rows = Vec::with_capacity(agg.len());
    for (gi, g) in agg.iter().enumerate() {
        let mut row = Vec::with_capacity(stmt.items.len());
        let mut avg_i = 0;
        let mut dist_i = 0;
        for item in &stmt.items {
            match item {
                SelectItem::Column(c) => {
                    let pos = stmt
                        .group_by
                        .iter()
                        .position(|g| g == c)
                        .ok_or_else(|| ExecError::NotGrouped(c.clone()))?;
                    let attr = group_attrs[pos];
                    row.push(table.dict(attr).value(g.key[pos]).to_string());
                }
                SelectItem::Avg(_) => {
                    row.push(format!("{}", g.averages[avg_i]));
                    avg_i += 1;
                }
                SelectItem::CountStar => row.push(g.count.to_string()),
                SelectItem::CountDistinct(_) => {
                    row.push(distinct_counts[gi][dist_i].to_string());
                    dist_i += 1;
                }
            }
        }
        out_rows.push(row);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use hypdb_table::{Table, TableBuilder};

    fn flights() -> Table {
        let mut b = TableBuilder::new(["Carrier", "Airport", "Delayed"]);
        for (c, a, d, n) in [
            ("AA", "COS", "0", 8u32),
            ("AA", "COS", "1", 2),
            ("AA", "ROC", "1", 4),
            ("AA", "ROC", "0", 1),
            ("UA", "COS", "1", 1),
            ("UA", "COS", "0", 3),
            ("UA", "ROC", "1", 6),
            ("UA", "ROC", "0", 4),
            ("DL", "COS", "0", 5),
        ] {
            for _ in 0..n {
                b.push_row([c, a, d]).unwrap();
            }
        }
        b.finish()
    }

    fn run(sql: &str) -> ResultSet {
        let t = flights();
        execute(&parse_query(sql).unwrap(), &t).unwrap()
    }

    #[test]
    fn group_by_average() {
        let rs = run("SELECT Carrier, avg(Delayed) FROM F GROUP BY Carrier");
        assert_eq!(rs.columns, vec!["Carrier", "avg(Delayed)"]);
        assert_eq!(rs.rows.len(), 3);
        // AA: 6/15 = 0.4
        assert_eq!(rs.rows[0][0], "AA");
        assert_eq!(rs.rows[0][1], "0.4");
    }

    #[test]
    fn where_in_filters() {
        let rs = run("SELECT Carrier, avg(Delayed) FROM F \
             WHERE Carrier IN ('AA','UA') AND Airport = 'ROC' GROUP BY Carrier");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], "0.8"); // AA at ROC: 4/5
        assert_eq!(rs.rows[1][1], "0.6"); // UA at ROC: 6/10
    }

    #[test]
    fn count_star_and_distinct() {
        let rs = run("SELECT Airport, count(*), count(DISTINCT Carrier) FROM F GROUP BY Airport");
        // COS: 19 rows, 3 carriers; ROC: 15 rows, 2 carriers.
        assert_eq!(rs.rows[0], vec!["COS", "19", "3"]);
        assert_eq!(rs.rows[1], vec!["ROC", "15", "2"]);
    }

    #[test]
    fn global_aggregate_without_group() {
        let rs = run("SELECT count(*) FROM F");
        assert_eq!(rs.rows, vec![vec!["34".to_string()]]);
    }

    #[test]
    fn ungrouped_column_rejected() {
        let t = flights();
        let stmt = parse_query("SELECT Carrier FROM F").unwrap();
        assert!(matches!(execute(&stmt, &t), Err(ExecError::NotGrouped(_))));
    }

    #[test]
    fn unknown_column_errors() {
        let t = flights();
        let stmt = parse_query("SELECT avg(Nope) FROM F").unwrap();
        assert!(matches!(execute(&stmt, &t), Err(ExecError::Table(_))));
    }

    #[test]
    fn unknown_value_matches_nothing() {
        let rs = run("SELECT Carrier, avg(Delayed) FROM F WHERE Carrier = 'ZZ' GROUP BY Carrier");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn not_and_or() {
        let rs = run("SELECT Carrier, count(*) FROM F \
             WHERE NOT (Carrier = 'AA' OR Carrier = 'UA') GROUP BY Carrier");
        assert_eq!(rs.rows, vec![vec!["DL".to_string(), "5".to_string()]]);
    }

    #[test]
    fn noteq_predicate() {
        let rs = run("SELECT Carrier, count(*) FROM F WHERE Airport <> 'COS' GROUP BY Carrier");
        assert_eq!(rs.rows.len(), 2); // only AA, UA fly ROC
    }
}
