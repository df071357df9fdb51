//! Recursive-descent parser for the OLAP dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query     := SELECT items FROM ident [WHERE expr] [GROUP BY cols]
//! items     := item (',' item)*
//! item      := AVG '(' ident ')' | COUNT '(' '*' ')'
//!            | COUNT '(' DISTINCT ident ')' | ident
//! expr      := or_expr
//! or_expr   := and_expr (OR and_expr)*
//! and_expr  := unary (AND unary)*
//! unary     := NOT unary | '(' expr ')' | predicate
//! predicate := ident '=' literal | ident ('<>'|'!=') literal
//!            | ident IN '(' literal (',' literal)* ')'
//! literal   := string | number
//! ```

use crate::ast::{Expr, Literal, SelectItem, Statement};
use crate::lexer::{tokenize, LexError, Token};
use std::fmt;

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexical error.
    Lex(LexError),
    /// Unexpected token (or end of input) with an expectation message.
    Unexpected {
        /// What was found (`None` = end of input).
        found: Option<Token>,
        /// What was expected.
        expected: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected `{t}`, expected {expected}"),
                None => write!(f, "unexpected end of input, expected {expected}"),
            },
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// How many `(` / `NOT` may be open at once. Each is a frame of the
/// recursive descent, and the input's length is the client's to choose:
/// past the bound the statement is refused like any other syntax error
/// instead of overflowing the stack.
const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `(` / `NOT` currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            found: self.peek().cloned(),
            expected: expected.to_string(),
        })
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => self.error(&format!("keyword {kw}")),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw)) && {
            self.pos += 1;
            true
        }
    }

    fn require(&mut self, t: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(what)
        }
    }

    /// A bare identifier that is not one of the reserved clause
    /// keywords, or any quoted one.
    fn ident(&mut self) -> Result<String, ParseError> {
        let name = match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => s.clone(),
            Some(Token::QuotedIdent(s)) => s.clone(),
            _ => return self.error("identifier"),
        };
        self.pos += 1;
        Ok(name)
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Literal(s)),
            Some(Token::Num(s)) => Ok(Literal(s)),
            other => {
                self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                self.error("literal")
            }
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case("avg") {
                self.pos += 1;
                self.require(&Token::LParen, "(")?;
                let col = self.ident()?;
                self.require(&Token::RParen, ")")?;
                return Ok(SelectItem::Avg(col));
            }
            if s.eq_ignore_ascii_case("count") {
                self.pos += 1;
                self.require(&Token::LParen, "(")?;
                if self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    self.require(&Token::RParen, ")")?;
                    return Ok(SelectItem::CountStar);
                }
                self.keyword("DISTINCT")?;
                let col = self.ident()?;
                self.require(&Token::RParen, ")")?;
                return Ok(SelectItem::CountDistinct(col));
            }
        }
        Ok(SelectItem::Column(self.ident()?))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.try_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        while self.try_keyword("AND") {
            let right = self.unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let negated = self.try_keyword("NOT");
        if !negated && self.peek() != Some(&Token::LParen) {
            return self.predicate();
        }
        if self.depth == MAX_NESTING {
            return self.error(&format!("at most {MAX_NESTING} nested `(` / NOT"));
        }
        self.depth += 1;
        let e = if negated {
            Expr::Not(Box::new(self.unary()?))
        } else {
            self.pos += 1;
            let e = self.expr()?;
            self.require(&Token::RParen, ")")?;
            e
        };
        self.depth -= 1;
        Ok(e)
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let col = self.ident()?;
        match self.peek() {
            Some(Token::Eq) => {
                self.pos += 1;
                Ok(Expr::Eq(col, self.literal()?))
            }
            Some(Token::NotEq) => {
                self.pos += 1;
                Ok(Expr::NotEq(col, self.literal()?))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("IN") => {
                self.pos += 1;
                self.require(&Token::LParen, "(")?;
                let mut lits = vec![self.literal()?];
                while self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                    lits.push(self.literal()?);
                }
                self.require(&Token::RParen, ")")?;
                Ok(Expr::In(col, lits))
            }
            _ => self.error("=, <>, or IN"),
        }
    }
}

/// Whether a bare word is a keyword the grammar reserves (a name spelt
/// like one must be quoted).
pub(crate) fn is_reserved(s: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "NOT", "IN", "AVG", "COUNT",
        "DISTINCT", "HAVING",
    ];
    RESERVED.iter().any(|kw| s.eq_ignore_ascii_case(kw))
}

/// Parses one statement.
pub fn parse_query(input: &str) -> Result<Statement, ParseError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
        depth: 0,
    };
    p.keyword("SELECT")?;
    let mut items = vec![p.select_item()?];
    while p.peek() == Some(&Token::Comma) {
        p.pos += 1;
        items.push(p.select_item()?);
    }
    p.keyword("FROM")?;
    let from = p.ident()?;
    let where_clause = if p.try_keyword("WHERE") {
        Some(p.expr()?)
    } else {
        None
    };
    let mut group_by = Vec::new();
    if p.try_keyword("GROUP") {
        p.keyword("BY")?;
        group_by.push(p.ident()?);
        while p.peek() == Some(&Token::Comma) {
            p.pos += 1;
            group_by.push(p.ident()?);
        }
    }
    if p.peek().is_some() {
        return p.error("end of input");
    }
    Ok(Statement {
        items,
        from,
        where_clause,
        group_by,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        // The Fig 1 query (modulo clause ordering, which the paper's
        // listing typesets loosely).
        let q = parse_query(
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
             GROUP BY Carrier",
        )
        .unwrap();
        assert_eq!(q.from, "FlightData");
        assert_eq!(q.group_by, vec!["Carrier"]);
        assert_eq!(
            q.items,
            [
                SelectItem::Column("Carrier".into()),
                SelectItem::Avg("Delayed".into())
            ]
        );
        match &q.where_clause {
            Some(Expr::And(l, r)) => {
                assert!(matches!(**l, Expr::In(ref c, ref v) if c == "Carrier" && v.len() == 2));
                assert!(matches!(**r, Expr::In(ref c, ref v) if c == "Airport" && v.len() == 4));
            }
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select avg(y) from t group by g").unwrap();
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.group_by, vec!["g"]);
    }

    #[test]
    fn numeric_literals_allowed() {
        let q = parse_query("SELECT avg(y) FROM t WHERE x = 1 AND w IN (2, 3)").unwrap();
        match q.where_clause.unwrap() {
            Expr::And(l, r) => {
                assert_eq!(*l, Expr::Eq("x".into(), Literal("1".into())));
                assert_eq!(
                    *r,
                    Expr::In("w".into(), vec![Literal("2".into()), Literal("3".into())])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_not_parens() {
        let q = parse_query("SELECT g FROM t WHERE NOT (a = '1' OR b = '2')").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Not(_))));
        // Nesting is bounded: MAX_NESTING levels parse, one more — or
        // ten thousand — is a syntax error, not a stack overflow.
        let nested = |open: &str, close: &str, n: usize| {
            let sql = format!(
                "SELECT g FROM t WHERE {}a = '1'{}",
                open.repeat(n),
                close.repeat(n)
            );
            parse_query(&sql)
        };
        // (opening text, closing text, levels each repeat opens)
        for (open, close, levels) in [("(", ")", 1), ("NOT ", "", 1), ("NOT (", ")", 2)] {
            assert!(nested(open, close, MAX_NESTING / levels).is_ok(), "{open}");
            for n in [MAX_NESTING / levels + 1, 10_000] {
                let err = nested(open, close, n).unwrap_err().to_string();
                assert!(err.contains("at most 64 nested"), "{open} x {n}: {err}");
            }
        }
    }

    #[test]
    fn count_forms() {
        let q = parse_query("SELECT count(*), count(DISTINCT T) FROM t").unwrap();
        assert_eq!(
            q.items,
            vec![SelectItem::CountStar, SelectItem::CountDistinct("T".into())]
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT a FROM t extra").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        let err = parse_query("SELECT a WHERE x = 1").unwrap_err();
        assert!(err.to_string().contains("FROM"), "{err}");
    }

    #[test]
    fn reserved_words_not_identifiers() {
        assert!(parse_query("SELECT select FROM t").is_err());
    }

    #[test]
    fn quoted_names_are_never_keywords() {
        let q = parse_query("SELECT \"Group\", avg(Income) FROM t GROUP BY \"Group\"").unwrap();
        assert_eq!(q.group_by, vec!["Group"]);
        assert_eq!(q.items[0], SelectItem::Column("Group".into()));
        // A quoted `count` is a column, not the function.
        let q = parse_query("SELECT \"count\", \"avg\" FROM \"from\"").unwrap();
        assert_eq!(
            q.items,
            vec![
                SelectItem::Column("count".into()),
                SelectItem::Column("avg".into())
            ]
        );
        assert_eq!(q.from, "from");
        // ... and a quoted keyword does not open a clause.
        assert!(parse_query("\"SELECT\" a FROM t").is_err());
        assert!(parse_query("SELECT a \"FROM\" t").is_err());
        // Names that need quotes render with them and come back.
        let q = parse_query(
            "SELECT \"Departure Time\", avg(\"Città\") FROM \"my table\" \
             WHERE \"a \"\"b\"\"\" IN ('x') GROUP BY \"Departure Time\"",
        )
        .unwrap();
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let q = parse_query("SELECT g FROM t WHERE a = '1' OR b = '2' AND c = '3'").unwrap();
        // OR(a, AND(b, c))
        match q.where_clause.unwrap() {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Eq(..)));
                assert!(matches!(*r, Expr::And(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let q1 = parse_query(
            "SELECT Carrier, avg(Delayed) FROM F WHERE Airport IN ('A','B') GROUP BY Carrier",
        )
        .unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        assert_eq!(q1, q2);
    }
}
