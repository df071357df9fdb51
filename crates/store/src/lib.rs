//! Sharded columnar storage for HypDB.
//!
//! The paper's detection/explanation pipeline (§4–§6) is dominated by
//! repeated scans of the base table: WHERE selection per context,
//! group-by for covariate strata, and contingency counting for every
//! independence statement. This crate is the
//! partitioned storage layout those scans run over:
//!
//! * [`ShardedTable`] — a partitioned columnar relation whose shards
//!   are **fixed-size row ranges** with per-shard code columns in a
//!   **merged global dictionary**, so attribute codes are identical to
//!   the monolithic `hypdb_table::Table` encoding and every kernel
//!   produces byte-identical results on either layout,
//! * [`ShardedTableBuilder`] — construction a row or a run of rows at a
//!   time: values are interned straight into the global dictionaries
//!   and global codes appended to the one open shard, which seals
//!   every `shard_rows` rows,
//! * [`ingest`] — CSV ingest ([`read_csv_shards`]): the sharded sink
//!   of `hypdb_table::csv`'s block reader, which reads fixed blocks,
//!   parses a wave of them in parallel and merges the fragments in
//!   file order; the file is never materialised.
//!
//! Scans, counts and WHERE selection over a `ShardedTable` are the
//! `Scan`-generic kernels of `hypdb-table` (`Predicate::select`,
//! `ContingencyTable::from_table`, `group_counts`), which fan out per
//! shard / chunk on the `hypdb-exec` pool and merge partials
//! deterministically; this crate adds no front of its own over them.
//!
//! **Determinism contract.** For any shard size and worker count, every
//! operation over a `ShardedTable` — and the whole analyze pipeline on
//! top — is byte-identical to the monolithic path. Codes agree because
//! both sinks intern in stream order (CSV fragments merge in block
//! order, which is file order); scans agree because a count is a
//! function of the selected codes alone and WHERE partials concatenate
//! in shard order; RNG streams agree because seeds derive from
//! configuration, never from storage. `tests/sharding.rs` pins this on
//! the cancer and adult pipelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod sharded;

pub use ingest::{read_csv_shards, read_csv_shards_path};
pub use sharded::{ShardedTable, ShardedTableBuilder};

/// Default rows per shard when none is specified: large enough that
/// per-shard fan-out overhead amortises, small enough that a shard is a
/// cache-friendly unit of parallel work.
pub const DEFAULT_SHARD_ROWS: usize = 1 << 16;

/// Reads the `HYPDB_SHARD_ROWS` environment variable: `Some(rows)` for
/// a positive integer, `None` when unset, unparsable or `0`. What
/// `None` means is the caller's choice: the `hypdb` binary and the
/// server registry fall back to [`DEFAULT_SHARD_ROWS`] (their datasets
/// are always sharded); `tests/sharding.rs` and the `csv_workflow`
/// example read it as "monolithic `Table`".
pub fn env_shard_rows() -> Option<usize> {
    std::env::var("HYPDB_SHARD_ROWS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}
