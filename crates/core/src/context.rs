//! Context enumeration: `Γ_i = C ∧ (X = x_i)` for each combination
//! `x_i` of the query's non-treatment grouping attributes (§2).

use crate::query::Query;
use hypdb_stats::independence::Strata;
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::groupby::group_counts;
use hypdb_table::{AttrId, Predicate, RowSet, Scan};

/// One context of a query: a sub-population selected by the WHERE
/// clause plus one grouping-value combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// `(attribute, value)` pairs identifying the context (empty when
    /// the query has no grouping besides the treatment).
    pub values: Vec<(AttrId, String)>,
    /// The rows of the context.
    pub rows: RowSet,
}

impl Context {
    /// Human-readable label, e.g. `Quarter=1, Year=2017`.
    pub fn label<S: Scan + ?Sized>(&self, table: &S) -> String {
        if self.values.is_empty() {
            return "(all)".to_string();
        }
        self.values
            .iter()
            .map(|(a, v)| format!("{}={v}", table.schema().name(*a)))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Scans the context's rows once into the table of counts over
    /// `attrs` (repeats dropped). Detection, explanation and effect
    /// estimation all read this table — pass it every attribute they
    /// will name: `{T} ∪ Y ∪ Z ∪ ⋃M`.
    pub fn counts<S: Scan + ?Sized>(
        &self,
        table: &S,
        attrs: impl IntoIterator<Item = AttrId>,
    ) -> ContingencyTable {
        let attrs = distinct(attrs);
        hypdb_obs::span("context_counts", || {
            ContingencyTable::from_table(table, &self.rows, &attrs)
        })
    }
}

/// `attrs` without repeats, first occurrences in order.
pub(crate) fn distinct(attrs: impl IntoIterator<Item = AttrId>) -> Vec<AttrId> {
    let mut out: Vec<AttrId> = Vec::new();
    for a in attrs {
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

/// The marginal of `counts` over `attrs`, in that order. Panics when
/// the table was counted without one of them.
pub(crate) fn marginal(counts: &ContingencyTable, attrs: &[AttrId]) -> ContingencyTable {
    let keep: Vec<usize> = attrs
        .iter()
        .map(|a| {
            counts
                .attrs()
                .iter()
                .position(|c| c == a)
                .unwrap_or_else(|| panic!("attribute {a:?} is not in the context counts"))
        })
        .collect();
    counts.marginal(&keep)
}

/// The stratified summary of `(x, y)` within the groups of `z`,
/// marginalised from `counts`: cell for cell what
/// `hypdb_table::contingency::Stratified::build` counts from the rows.
pub(crate) fn strata(counts: &ContingencyTable, x: AttrId, y: AttrId, z: &[AttrId]) -> Strata {
    let zpos: Vec<usize> = (0..z.len()).collect();
    marginal(counts, &[z, &[x, y]].concat()).strata(z.len(), z.len() + 1, &zpos)
}

/// A query bound to its rows: the WHERE clause evaluated once per
/// request, then shared by slot routing, discovery and context
/// enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The resolved query.
    pub query: Query,
    /// The rows its WHERE clause selects, ascending.
    pub rows: RowSet,
}

impl Selection {
    /// Runs `query`'s WHERE scan (shard-parallel, span `select`): the
    /// one production call of [`Predicate::select`].
    pub fn new<S: Scan + ?Sized>(table: &S, query: Query) -> Selection {
        let rows = hypdb_obs::span("select", || query.predicate.select(table));
        Selection { query, rows }
    }

    /// Enumerates the contexts of the query, sorted by grouping key.
    /// Empty contexts are not produced (only observed combinations).
    pub fn contexts<S: Scan + ?Sized>(&self, table: &S) -> Vec<Context> {
        let grouping = &self.query.grouping;
        if grouping.is_empty() {
            return vec![Context {
                values: Vec::new(),
                rows: self.rows.clone(),
            }];
        }
        group_counts(table, &self.rows, grouping)
            .into_iter()
            .map(|g| {
                let pairs = grouping.iter().zip(g.key.iter());
                let preds = pairs.clone().map(|(&a, &code)| Predicate::Eq(a, code));
                Context {
                    rows: Predicate::and(preds).select_within(table, &self.rows),
                    values: pairs
                        .map(|(&a, &code)| (a, table.dict(a).value(code).to_string()))
                        .collect(),
                }
            })
            .collect()
    }
}

/// [`Selection::contexts`] of `query` over any [`Scan`] storage, running
/// the WHERE scan first.
pub fn contexts<S: Scan + ?Sized>(table: &S, query: &Query) -> Vec<Context> {
    Selection::new(table, query.clone()).contexts(table)
}

/// The counts of a whole table over all of its attributes.
#[cfg(test)]
pub(crate) fn all_counts(t: &hypdb_table::Table) -> ContingencyTable {
    let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
    ContingencyTable::from_table(t, &t.all_rows(), &attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use hypdb_table::{Table, TableBuilder};

    fn table() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "X"]);
        for (t, y, x) in [
            ("a", "1", "p"),
            ("b", "0", "p"),
            ("a", "0", "q"),
            ("b", "1", "q"),
            ("a", "1", "q"),
        ] {
            b.push_row([t, y, x]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn no_grouping_single_context() {
        let t = table();
        let q = QueryBuilder::new("T").outcome("Y").build(&t).unwrap();
        let cs = contexts(&t, &q);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].rows.len(), 5);
        assert_eq!(cs[0].label(&t), "(all)");
    }

    #[test]
    fn grouping_splits_contexts() {
        let t = table();
        let q = QueryBuilder::new("T")
            .outcome("Y")
            .group_by("X")
            .build(&t)
            .unwrap();
        let cs = contexts(&t, &q);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].label(&t), "X=p");
        assert_eq!(cs[0].rows.len(), 2);
        assert_eq!(cs[1].label(&t), "X=q");
        assert_eq!(cs[1].rows.len(), 3);
    }

    #[test]
    fn where_restricts_contexts() {
        let t = table();
        let q = QueryBuilder::new("T")
            .outcome("Y")
            .group_by("X")
            .filter_eq("X", "q")
            .build(&t)
            .unwrap();
        let cs = contexts(&t, &q);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].label(&t), "X=q");
    }
}
