//! Columnar storage for categorical (dictionary-encoded) relations, plus
//! the counting machinery HypDB is built on: group-by counting,
//! contingency tables and stratified cross-tabulations.
//!
//! The paper (§2) fixes a relational schema with discrete attribute
//! domains; every statistic HypDB computes (entropies, mutual
//! information, the MIT permutation test, the adjustment formula) is a
//! function of `count(*) GROUP BY` aggregates over some attribute subset.
//! This crate is that substrate.
//!
//! Layout:
//! * [`schema`] / [`column`] / [`table`] — dictionary-encoded columnar
//!   tables with builders and CSV I/O: a [`Table`] holds one contiguous
//!   code column per attribute, and it is the one relation type every
//!   kernel below reads,
//! * [`predicate`] — WHERE-clause predicates and row selection,
//! * [`image`] — a selection's codes gathered per attribute, lazily, at
//!   dictionary width: what the counting kernel reads,
//! * [`contingency`] — k-way contingency tables (dense or sparse), the
//!   one kernel that counts them, and stratified 2-way cross tabs,
//! * [`groupby`] — group-by average aggregation (the query engine for
//!   `SELECT avg(Y) .. GROUP BY ..`),
//! * [`csv`] — minimal CSV reader/writer for categorical data.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod contingency;
pub mod csv;
mod error;
pub mod groupby;
pub mod hash;
pub mod image;
pub mod predicate;
pub mod rows;
pub mod schema;
pub mod sync;
pub mod table;

pub use column::{Column, Dictionary};
pub use contingency::{ContingencyTable, Stratified};
pub use error::{Error, Result};
pub use groupby::{group_average, group_counts, GroupRow};
pub use image::SelectionImage;
pub use predicate::Predicate;
pub use rows::{RowSet, MAX_ROWS};
pub use schema::{AttrId, AttrMeta, Schema};
pub use table::{Table, TableBuilder};
