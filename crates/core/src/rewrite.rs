//! Query rewriting glue (§3.3): turning a biased query plus an
//! adjustment set into (a) the rewritten SQL text of Listing 2/3 and
//! (b) the evaluated, de-biased answers.

use crate::query::Query;
use hypdb_sql::RewriteSpec;
use hypdb_table::Scan;
use serde::{Deserialize, Serialize};

/// The rewrite outputs for one query (SQL text plus evaluated effects
/// live in the per-context reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteResult {
    /// The rewritten query (total effect) as SQL text.
    pub total_sql: String,
    /// The rewritten query for the direct effect (adjusting for
    /// covariates ∪ mediators), when mediators are known.
    pub direct_sql: Option<String>,
}

/// Builds the [`RewriteSpec`] for a query and an adjustment set.
pub fn rewrite_spec<S: Scan + ?Sized>(
    table: &S,
    query: &Query,
    adjustment: &[hypdb_table::AttrId],
) -> RewriteSpec {
    let name = |a: &hypdb_table::AttrId| table.schema().name(*a).to_string();
    RewriteSpec {
        from: query.from.clone(),
        treatment: name(&query.treatment),
        outcomes: query.outcomes.iter().map(&name).collect(),
        grouping: query.grouping.iter().map(&name).collect(),
        adjustment: adjustment.iter().map(name).collect(),
        where_sql: query.where_sql.clone(),
        distinct_treatments: 2,
    }
}

/// Renders both rewritten queries.
pub fn render_rewrites<S: Scan + ?Sized>(
    table: &S,
    query: &Query,
    covariates: &[hypdb_table::AttrId],
    mediators: &[hypdb_table::AttrId],
) -> RewriteResult {
    let total_sql = hypdb_sql::render_rewritten(&rewrite_spec(table, query, covariates));
    let direct_sql = if mediators.is_empty() {
        None
    } else {
        let mut adj: Vec<hypdb_table::AttrId> = covariates.to_vec();
        adj.extend_from_slice(mediators);
        Some(hypdb_sql::render_rewritten(&rewrite_spec(
            table, query, &adj,
        )))
    };
    RewriteResult {
        total_sql,
        direct_sql,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use hypdb_table::{Table, TableBuilder};

    fn table() -> Table {
        let mut b = TableBuilder::new(["Carrier", "Airport", "Delayed", "Dest"]);
        for (c, a, d, e) in [
            ("AA", "COS", "0", "X"),
            ("UA", "ROC", "1", "Y"),
            ("AA", "ROC", "1", "X"),
            ("UA", "COS", "0", "Y"),
        ] {
            b.push_row([c, a, d, e]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn spec_carries_query_parts() {
        let t = table();
        let q = QueryBuilder::new("Carrier")
            .outcome("Delayed")
            .filter_in("Airport", ["COS", "ROC"])
            .from_name("FlightData")
            .build(&t)
            .unwrap();
        let airport = t.attr("Airport").unwrap();
        let spec = rewrite_spec(&t, &q, &[airport]);
        assert_eq!(spec.treatment, "Carrier");
        assert_eq!(spec.adjustment, vec!["Airport"]);
        assert_eq!(spec.from, "FlightData");
        assert!(spec.where_sql.unwrap().contains("Airport IN"));
    }

    #[test]
    fn direct_sql_only_with_mediators() {
        let t = table();
        let q = QueryBuilder::new("Carrier")
            .outcome("Delayed")
            .build(&t)
            .unwrap();
        let airport = t.attr("Airport").unwrap();
        let dest = t.attr("Dest").unwrap();
        let r = render_rewrites(&t, &q, &[airport], &[]);
        assert!(r.direct_sql.is_none());
        let r2 = render_rewrites(&t, &q, &[airport], &[dest]);
        let direct = r2.direct_sql.unwrap();
        assert!(direct.contains("Dest"));
        assert!(r2.total_sql.contains("HAVING count(DISTINCT Carrier) = 2"));
    }
}
