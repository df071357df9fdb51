//! The query model: Listing 1's
//! `SELECT T, X, avg(Y1), …, avg(Ye) FROM D WHERE C GROUP BY T, X`.

use crate::error::{Error, Result};
use hypdb_sql::{Expr, Literal, SelectItem, Statement};
use hypdb_table::{AttrId, Predicate, Scan};

/// A resolved group-by-average query with a designated treatment.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The treatment attribute `T` (always part of the grouping).
    pub treatment: AttrId,
    /// Outcome attributes `Y1…Ye` (numeric-coded).
    pub outcomes: Vec<AttrId>,
    /// Additional grouping attributes `X` (contexts iterate over their
    /// value combinations).
    pub grouping: Vec<AttrId>,
    /// The WHERE condition `C`, value-resolved.
    pub predicate: Predicate,
    /// The WHERE clause as SQL text (for report/rewrite rendering).
    pub where_sql: Option<String>,
    /// Source relation name (for rendering).
    pub from: String,
}

impl Query {
    /// Builds from a parsed SQL statement against any [`Scan`] storage.
    /// The treatment is the given group-by column; remaining group-by
    /// columns become `X`.
    pub fn from_statement<S: Scan + ?Sized>(
        stmt: &Statement,
        table: &S,
        treatment: &str,
    ) -> Result<Query> {
        if !stmt.group_by.iter().any(|g| g == treatment) {
            return Err(Error::Invalid(format!(
                "treatment `{treatment}` must appear in GROUP BY"
            )));
        }
        let t = table.attr(treatment)?;
        let outcomes: Vec<AttrId> = stmt
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Avg(c) => Some(table.attr(c)),
                _ => None,
            })
            .collect::<std::result::Result<_, _>>()?;
        if outcomes.is_empty() {
            return Err(Error::Invalid("query has no avg() outcome".into()));
        }
        let grouping: Vec<AttrId> = stmt
            .group_by
            .iter()
            .filter(|g| *g != treatment)
            .map(|g| table.attr(g))
            .collect::<std::result::Result<_, _>>()?;
        let predicate = match &stmt.where_clause {
            Some(e) => compile(table, e)?,
            None => Predicate::True,
        };
        Ok(Query {
            treatment: t,
            outcomes,
            grouping,
            predicate,
            where_sql: stmt.where_clause.as_ref().map(|e| e.to_string()),
            from: stmt.from.clone(),
        })
    }

    /// Builds from SQL text, treating the **first** group-by column as
    /// the treatment (the paper's Listing 1 convention).
    pub fn from_sql<S: Scan + ?Sized>(sql: &str, table: &S) -> Result<Query> {
        let stmt =
            hypdb_sql::parse_query(sql).map_err(|e| Error::Invalid(format!("parse error: {e}")))?;
        let treatment = stmt
            .group_by
            .first()
            .cloned()
            .ok_or_else(|| Error::Invalid("query has no GROUP BY".into()))?;
        Query::from_statement(&stmt, table, &treatment)
    }

    /// Attributes referenced by the query (treatment + outcomes +
    /// grouping).
    pub fn referenced(&self) -> Vec<AttrId> {
        let mut v = vec![self.treatment];
        v.extend(&self.outcomes);
        v.extend(&self.grouping);
        v
    }
}

fn compile<S: Scan + ?Sized>(table: &S, expr: &Expr) -> Result<Predicate> {
    hypdb_sql::exec::compile_expr(table, expr).map_err(|e| Error::Invalid(e.to_string()))
}

/// Fluent builder for [`Query`] without going through SQL.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    treatment: String,
    outcomes: Vec<String>,
    grouping: Vec<String>,
    filters: Vec<(String, Vec<String>)>,
    from: String,
}

impl QueryBuilder {
    /// Starts a query comparing groups of `treatment`.
    pub fn new(treatment: impl Into<String>) -> Self {
        QueryBuilder {
            treatment: treatment.into(),
            outcomes: Vec::new(),
            grouping: Vec::new(),
            filters: Vec::new(),
            from: "D".into(),
        }
    }

    /// Adds an `avg(outcome)` column.
    pub fn outcome(mut self, name: impl Into<String>) -> Self {
        self.outcomes.push(name.into());
        self
    }

    /// Adds a non-treatment grouping attribute.
    pub fn group_by(mut self, name: impl Into<String>) -> Self {
        self.grouping.push(name.into());
        self
    }

    /// Adds `attr IN (values)` to the WHERE conjunction.
    pub fn filter_in<I, S>(mut self, attr: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.filters
            .push((attr.into(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Adds `attr = value` to the WHERE conjunction.
    pub fn filter_eq(mut self, attr: impl Into<String>, value: impl Into<String>) -> Self {
        self.filters.push((attr.into(), vec![value.into()]));
        self
    }

    /// Sets the relation name used in rendered SQL.
    pub fn from_name(mut self, name: impl Into<String>) -> Self {
        self.from = name.into();
        self
    }

    /// Resolves against any [`Scan`] storage.
    pub fn build<S: Scan + ?Sized>(self, table: &S) -> Result<Query> {
        let treatment = table.attr(&self.treatment)?;
        if self.outcomes.is_empty() {
            return Err(Error::Invalid("query has no avg() outcome".into()));
        }
        let outcomes: Vec<AttrId> = self
            .outcomes
            .iter()
            .map(|o| table.attr(o))
            .collect::<std::result::Result<_, _>>()?;
        let grouping: Vec<AttrId> = self
            .grouping
            .iter()
            .map(|g| table.attr(g))
            .collect::<std::result::Result<_, _>>()?;
        let mut preds = Vec::new();
        let mut where_parts = Vec::new();
        for (attr, values) in &self.filters {
            let lit = |v: &String| Literal(v.clone());
            let (pred, expr) = if let [value] = values.as_slice() {
                let pred = Predicate::eq(table, attr, value)?;
                (pred, Expr::Eq(attr.clone(), lit(value)))
            } else {
                let pred = Predicate::is_in(table, attr, values.iter().map(String::as_str))?;
                (
                    pred,
                    Expr::In(attr.clone(), values.iter().map(lit).collect()),
                )
            };
            preds.push(pred);
            where_parts.push(expr.to_string());
        }
        Ok(Query {
            treatment,
            outcomes,
            grouping,
            predicate: Predicate::and(preds),
            where_sql: if where_parts.is_empty() {
                None
            } else {
                Some(where_parts.join(" AND "))
            },
            from: self.from,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::{Table, TableBuilder};

    fn table() -> Table {
        let mut b = TableBuilder::new(["Carrier", "Airport", "Delayed", "Quarter"]);
        for (c, a, d, q) in [
            ("AA", "COS", "0", "1"),
            ("UA", "ROC", "1", "2"),
            ("AA", "ROC", "1", "1"),
        ] {
            b.push_row([c, a, d, q]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn from_sql_first_group_is_treatment() {
        let t = table();
        let q = Query::from_sql(
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Airport IN ('COS','ROC') GROUP BY Carrier",
            &t,
        )
        .unwrap();
        assert_eq!(q.treatment, t.attr("Carrier").unwrap());
        assert_eq!(q.outcomes, vec![t.attr("Delayed").unwrap()]);
        assert!(q.grouping.is_empty());
        assert_eq!(q.from, "FlightData");
        assert!(q.where_sql.unwrap().contains("Airport IN"));
    }

    #[test]
    fn extra_grouping_attributes() {
        let t = table();
        let q = Query::from_sql(
            "SELECT Carrier, Quarter, avg(Delayed) FROM F GROUP BY Carrier, Quarter",
            &t,
        )
        .unwrap();
        assert_eq!(q.grouping, vec![t.attr("Quarter").unwrap()]);
    }

    #[test]
    fn treatment_must_be_grouped() {
        let t = table();
        let stmt =
            hypdb_sql::parse_query("SELECT Carrier, avg(Delayed) FROM F GROUP BY Carrier").unwrap();
        assert!(Query::from_statement(&stmt, &t, "Airport").is_err());
    }

    #[test]
    fn outcome_required() {
        let t = table();
        assert!(Query::from_sql("SELECT Carrier, count(*) FROM F GROUP BY Carrier", &t).is_err());
        assert!(QueryBuilder::new("Carrier").build(&t).is_err());
    }

    #[test]
    fn builder_equivalent_to_sql() {
        let t = table();
        let q1 = QueryBuilder::new("Carrier")
            .outcome("Delayed")
            .filter_in("Airport", ["COS", "ROC"])
            .from_name("FlightData")
            .build(&t)
            .unwrap();
        let q2 = Query::from_sql(
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Airport IN ('COS','ROC') GROUP BY Carrier",
            &t,
        )
        .unwrap();
        assert_eq!(q1.treatment, q2.treatment);
        assert_eq!(q1.outcomes, q2.outcomes);
        assert_eq!(q1.predicate, q2.predicate);
    }

    #[test]
    fn builder_eq_filter() {
        let t = table();
        let q = QueryBuilder::new("Carrier")
            .outcome("Delayed")
            .filter_eq("Airport", "ROC")
            .build(&t)
            .unwrap();
        let rows = q.predicate.select(&t);
        assert_eq!(rows.len(), 2);
        assert_eq!(q.where_sql.unwrap(), "Airport = 'ROC'");
    }

    #[test]
    fn referenced_attrs() {
        let t = table();
        let q = QueryBuilder::new("Carrier")
            .outcome("Delayed")
            .group_by("Quarter")
            .build(&t)
            .unwrap();
        assert_eq!(q.referenced().len(), 3);
    }
}
