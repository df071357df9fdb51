//! Old names for the one relation type.
//!
//! Storage has one layout: a [`hypdb_table::Table`], one contiguous code
//! column per attribute, read by every kernel. The benchmark harness
//! under `ledger/` still spells that type `ShardedTable` and its CSV
//! reader `read_csv_shards_path`, with a shard size; this crate keeps
//! those names as the table and its reader, and ignores the size. It
//! goes when the harness stops naming it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hypdb_table::{Result, Table};
use std::path::Path;

/// [`Table`], under its old name.
pub type ShardedTable = Table;

/// The shard size callers still pass; nothing reads it.
pub const DEFAULT_SHARD_ROWS: usize = 1 << 16;

/// [`hypdb_table::csv::read_csv_path`]; `shard_rows` is ignored.
pub fn read_csv_shards_path<P: AsRef<Path>>(path: P, _shard_rows: usize) -> Result<ShardedTable> {
    hypdb_table::csv::read_csv_path(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_old_names_are_the_table_and_its_reader() {
        const DATA: &str = "carrier,airport\nAA,COS\nUA,ROC\nAA,ROC\n";
        let path = std::env::temp_dir().join(format!("hypdb_store_{}.csv", std::process::id()));
        std::fs::write(&path, DATA).unwrap();
        let read = read_csv_shards_path(&path, 1);
        std::fs::remove_file(&path).ok();
        let want = hypdb_table::csv::read_csv(DATA.as_bytes()).unwrap();
        let (read, copy) = (read.unwrap(), ShardedTable::from_table(&want, 1));
        for t in [&read, &copy] {
            assert_eq!(t.nrows(), want.nrows());
            for a in want.schema().attr_ids() {
                assert_eq!(t.dict(a).values(), want.dict(a).values());
                assert_eq!(t.codes(a), want.codes(a));
            }
        }
    }
}
