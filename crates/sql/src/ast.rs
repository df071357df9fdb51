//! Abstract syntax for the OLAP dialect.

use crate::parser::is_reserved;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A column or relation name as the dialect reads it back: bare when it
/// is a plain identifier (`[A-Za-z_][A-Za-z0-9_]*`) and not reserved,
/// otherwise `"…"`-quoted with any embedded `"` doubled — so a rendered
/// statement parses to the one it came from.
pub(crate) struct Ident<'a>(pub(crate) &'a str);

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut chars = self.0.chars();
        let plain = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
        if plain && !is_reserved(self.0) {
            f.write_str(self.0)
        } else {
            write!(f, "\"{}\"", self.0.replace('"', "\"\""))
        }
    }
}

/// A literal value. Numbers are kept in their written form: HypDB data
/// is categorical, so `1` and `'1'` denote the same category.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Literal(pub String);

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as a quoted SQL string literal.
        write!(f, "'{}'", self.0.replace('\'', "''"))
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectItem {
    /// A bare grouping column.
    Column(String),
    /// `avg(col)`.
    Avg(String),
    /// `count(*)`.
    CountStar,
    /// `count(DISTINCT col)`.
    CountDistinct(String),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => write!(f, "{}", Ident(c)),
            SelectItem::Avg(c) => write!(f, "avg({})", Ident(c)),
            SelectItem::CountStar => write!(f, "count(*)"),
            SelectItem::CountDistinct(c) => write!(f, "count(DISTINCT {})", Ident(c)),
        }
    }
}

/// Boolean expressions of the WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expr {
    /// `col = lit`.
    Eq(String, Literal),
    /// `col <> lit`.
    NotEq(String, Literal),
    /// `col IN (lits…)`.
    In(String, Vec<Literal>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Eq(c, l) => write!(f, "{} = {l}", Ident(c)),
            Expr::NotEq(c, l) => write!(f, "{} <> {l}", Ident(c)),
            Expr::In(c, ls) => {
                write!(f, "{} IN (", Ident(c))?;
                for (i, l) in ls.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")
            }
            // AND parses left-associative: a right operand that is
            // itself an AND needs its parentheses to come back as one.
            Expr::And(a, b) if matches!(**b, Expr::And(..)) => write!(f, "{a} AND ({b})"),
            Expr::And(a, b) => write!(f, "{a} AND {b}"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

/// A parsed `SELECT … FROM … [WHERE …] [GROUP BY …]` statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Statement {
    /// SELECT list.
    pub items: Vec<SelectItem>,
    /// Source relation name.
    pub from: String,
    /// Optional WHERE clause.
    pub where_clause: Option<Expr>,
    /// GROUP BY columns (possibly empty).
    pub group_by: Vec<String>,
}

impl Statement {
    /// Columns aggregated with `avg`.
    pub fn avg_columns(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Avg(c) => Some(c.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", Ident(&self.from))?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        for (i, g) in self.group_by.iter().enumerate() {
            let sep = if i == 0 { " GROUP BY " } else { ", " };
            write!(f, "{sep}{}", Ident(g))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_structure() {
        let stmt = Statement {
            items: vec![
                SelectItem::Column("Carrier".into()),
                SelectItem::Avg("Delayed".into()),
            ],
            from: "FlightData".into(),
            where_clause: Some(Expr::And(
                Box::new(Expr::In(
                    "Carrier".into(),
                    vec![Literal("AA".into()), Literal("UA".into())],
                )),
                Box::new(Expr::Eq("Airport".into(), Literal("ROC".into()))),
            )),
            group_by: vec!["Carrier".into()],
        };
        let s = stmt.to_string();
        assert_eq!(
            s,
            "SELECT Carrier, avg(Delayed) FROM FlightData WHERE Carrier IN ('AA', 'UA') \
             AND Airport = 'ROC' GROUP BY Carrier"
        );
    }

    #[test]
    fn literal_escapes_quotes() {
        assert_eq!(Literal("O'Hare".into()).to_string(), "'O''Hare'");
    }

    #[test]
    fn names_are_quoted_iff_they_need_it() {
        for (name, shown) in [
            ("Carrier", "Carrier"),
            ("_x9", "_x9"),
            ("Departure Time", "\"Departure Time\""),
            ("Città", "\"Città\""),
            ("9lives", "\"9lives\""),
            ("group", "\"group\""),
            ("Count", "\"Count\""),
            ("say \"hi\"", "\"say \"\"hi\"\"\""),
            ("", "\"\""),
        ] {
            assert_eq!(Ident(name).to_string(), shown);
        }
    }

    #[test]
    fn avg_columns_extracted() {
        let stmt = Statement {
            items: vec![
                SelectItem::Column("g".into()),
                SelectItem::Avg("a".into()),
                SelectItem::Avg("b".into()),
                SelectItem::CountStar,
            ],
            from: "t".into(),
            where_clause: None,
            group_by: vec!["g".into()],
        };
        assert_eq!(stmt.avg_columns(), vec!["a", "b"]);
    }
}
