//! A small SQL front end for the paper's OLAP dialect.
//!
//! HypDB's interface is SQL (Listing 1): group-by-average queries with
//! conjunctive WHERE clauses. This crate provides
//!
//! * [`lexer`] / [`parser`] — tokeniser and recursive-descent parser for
//!   `SELECT {col | avg(col) | count(*)} … FROM t [WHERE …]
//!   [GROUP BY …]`,
//! * [`ast`] — the statement/expression tree,
//! * [`exec`] — an executor that runs statements against a
//!   [`hypdb_table::Table`],
//! * [`render`] — SQL *generation*: given the covariates HypDB inferred,
//!   renders the rewritten query `Q^rw` of Listing 2/3 as SQL text, so
//!   analysts can run the de-biased query on their own engine.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod render;

pub use ast::{Expr, Literal, SelectItem, Statement};
pub use exec::{execute, ResultSet};
pub use parser::{parse_query, ParseError};
pub use render::{render_rewritten, RewriteSpec};
