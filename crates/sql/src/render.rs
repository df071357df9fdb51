//! SQL generation for the rewritten (de-biased) query of Listing 2/3.
//!
//! HypDB's resolution step evaluates the adjustment formula internally,
//! but the paper's interface also *shows* the analyst the rewritten SQL
//! so it can be run on any engine. This module renders that text.

use crate::ast::{Ident, Statement};
use serde::{Deserialize, Serialize};

/// Everything needed to render `Q^rw` (Listing 2). Names are raw; the
/// renderer quotes the ones that need it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteSpec {
    /// Source relation.
    pub from: String,
    /// Treatment attribute `T`.
    pub treatment: String,
    /// Outcome attributes `Y_1…Y_e`.
    pub outcomes: Vec<String>,
    /// Extra grouping attributes `X` (the query's non-treatment
    /// group-by columns).
    pub grouping: Vec<String>,
    /// Adjustment set `Z` (covariates, plus mediators for direct
    /// effects).
    pub adjustment: Vec<String>,
    /// WHERE clause text (already rendered), if any.
    pub where_sql: Option<String>,
    /// Number of distinct treatment values required per block by the
    /// overlap / exact-matching guard (2 for a binary comparison).
    pub distinct_treatments: usize,
}

fn comma(items: &[String]) -> String {
    items.join(", ")
}

/// Renders the rewritten query of Listing 2: block averages weighted by
/// block probabilities, with blocks lacking overlap pruned by the
/// `HAVING count(DISTINCT T) = k` guard.
pub fn render_rewritten(spec: &RewriteSpec) -> String {
    let quoted =
        |names: &[String]| -> Vec<String> { names.iter().map(|n| Ident(n).to_string()).collect() };
    let t = Ident(&spec.treatment).to_string();
    let grouping = quoted(&spec.grouping);
    let adjustment = quoted(&spec.adjustment);
    let mut block_group = vec![t.clone()];
    block_group.extend(adjustment.iter().cloned());
    block_group.extend(grouping.iter().cloned());

    let mut weight_group: Vec<String> = adjustment;
    weight_group.extend(grouping.iter().cloned());

    let avg_list = quoted(&spec.outcomes)
        .iter()
        .enumerate()
        .map(|(i, y)| format!("avg({y}) AS Avg{}", i + 1))
        .collect::<Vec<_>>()
        .join(", ");
    let sum_list = spec
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, _)| format!("sum(Avg{} * W) AS AdjAvg{}", i + 1, i + 1))
        .collect::<Vec<_>>()
        .join(", ");
    let where_line = spec
        .where_sql
        .as_ref()
        .map(|w| format!("  WHERE {w}\n"))
        .unwrap_or_default();
    let join_cond = weight_group
        .iter()
        .map(|c| format!("Blocks.{c} = Weights.{c}"))
        .collect::<Vec<_>>()
        .join(" AND\n        ");
    let select_group = {
        let mut g = vec![format!("Blocks.{t}")];
        g.extend(grouping.iter().map(|c| format!("Blocks.{c}")));
        g.join(", ")
    };

    format!(
        "WITH Blocks AS (\n\
         \x20 SELECT {bg}, {avg_list}\n\
         \x20 FROM {from}\n\
         {where_line}\
         \x20 GROUP BY {bg}\n\
         ),\n\
         Weights AS (\n\
         \x20 SELECT {wg}, count(*) * 1.0 / sum(count(*)) OVER () AS W\n\
         \x20 FROM {from}\n\
         {where_line}\
         \x20 GROUP BY {wg}\n\
         \x20 HAVING count(DISTINCT {t}) = {k}\n\
         )\n\
         SELECT {select_group}, {sum_list}\n\
         FROM Blocks, Weights\n\
         WHERE {join_cond}\n\
         GROUP BY {select_group}",
        bg = comma(&block_group),
        wg = comma(&weight_group),
        from = Ident(&spec.from),
        k = spec.distinct_treatments,
    )
}

/// Renders a [`Statement`] back to SQL (delegates to its `Display`).
pub fn render_query(stmt: &Statement) -> String {
    stmt.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn flight_spec() -> RewriteSpec {
        RewriteSpec {
            from: "FlightData".into(),
            treatment: "Carrier".into(),
            outcomes: vec!["Delayed".into()],
            grouping: vec![],
            adjustment: vec![
                "Airport".into(),
                "Year".into(),
                "Day".into(),
                "Month".into(),
            ],
            where_sql: Some(
                "Carrier IN ('AA', 'UA') AND Airport IN ('COS', 'MFE', 'MTJ', 'ROC')".into(),
            ),
            distinct_treatments: 2,
        }
    }

    #[test]
    fn renders_listing3_shape() {
        let sql = render_rewritten(&flight_spec());
        // Structure of Listing 3: Blocks CTE, Weights CTE with the exact
        // matching guard, weighted-average outer query.
        assert!(sql.contains("WITH Blocks AS ("), "{sql}");
        assert!(sql.contains("GROUP BY Carrier, Airport, Year, Day, Month"));
        assert!(sql.contains("HAVING count(DISTINCT Carrier) = 2"));
        assert!(sql.contains("sum(Avg1 * W)"));
        assert!(sql.contains("Blocks.Airport = Weights.Airport"));
        assert!(sql.contains("GROUP BY Blocks.Carrier"));
        assert!(sql.contains("WHERE Carrier IN ('AA', 'UA')"));
    }

    #[test]
    fn multiple_outcomes_render_numbered_sums() {
        let mut spec = flight_spec();
        spec.outcomes = vec!["Delayed".into(), "Cancelled".into()];
        let sql = render_rewritten(&spec);
        assert!(sql.contains("avg(Delayed) AS Avg1"));
        assert!(sql.contains("avg(Cancelled) AS Avg2"));
        assert!(sql.contains("sum(Avg2 * W) AS AdjAvg2"));
    }

    #[test]
    fn grouping_attributes_join_blocks_and_weights() {
        let mut spec = flight_spec();
        spec.grouping = vec!["Quarter".into()];
        let sql = render_rewritten(&spec);
        assert!(sql.contains("Blocks.Quarter = Weights.Quarter"));
        assert!(sql.contains("GROUP BY Blocks.Carrier, Blocks.Quarter"));
    }

    #[test]
    fn no_where_clause_renders_clean() {
        let mut spec = flight_spec();
        spec.where_sql = None;
        let sql = render_rewritten(&spec);
        assert!(!sql.contains("WHERE Carrier IN"));
        assert!(sql.contains("FROM FlightData"));
    }

    #[test]
    fn names_that_need_quotes_are_quoted() {
        let mut spec = flight_spec();
        spec.from = "Flight Data".into();
        spec.treatment = "Carrier".into();
        spec.adjustment = vec!["Departure Time".into(), "Città".into()];
        spec.outcomes = vec!["Group".into()];
        let sql = render_rewritten(&spec);
        assert!(
            sql.contains("GROUP BY Carrier, \"Departure Time\", \"Città\""),
            "{sql}"
        );
        assert!(
            sql.contains("Blocks.\"Città\" = Weights.\"Città\""),
            "{sql}"
        );
        assert!(sql.contains("avg(\"Group\") AS Avg1"), "{sql}");
        assert!(sql.contains("FROM \"Flight Data\""), "{sql}");
    }

    #[test]
    fn render_query_roundtrip() {
        let q = parse_query("SELECT g, avg(y) FROM t WHERE x = '1' GROUP BY g").unwrap();
        assert_eq!(render_query(&q), q.to_string());
        assert!(parse_query(&render_query(&q)).is_ok());
    }
}
