//! CSV ingest into sharded storage.
//!
//! [`read_csv_shards`] is the sharded sink of the one block reader
//! ([`hypdb_table::csv::ingest_blocks`]; the monolithic `read_csv` is
//! the other): the input is read in fixed blocks, the blocks of a wave
//! are parsed in parallel into block-local columns, and the fragments
//! are merged in block order into a [`ShardedTableBuilder`]. The file
//! is never materialised; memory beyond the sealed shards is one open
//! shard plus the reader's bounded window (`threads × block` input
//! bytes and their fragments).

use crate::sharded::{ShardedTable, ShardedTableBuilder};
use hypdb_table::csv::ingest_blocks;
use hypdb_table::Result;
use std::io::Read;
use std::path::Path;

/// Reads a sharded table from CSV text, sealing a shard every
/// `shard_rows` rows. Fragments merge in file order, so dictionaries
/// and codes are those of the monolithic `read_csv` — first-appearance
/// order over the whole stream — at any thread count and shard size.
pub fn read_csv_shards<R: Read>(reader: R, shard_rows: usize) -> Result<ShardedTable> {
    ingest_blocks(
        reader,
        |header| ShardedTableBuilder::new(header.iter().map(String::as_str), shard_rows),
        ShardedTableBuilder::append_columns,
    )
    .map(ShardedTableBuilder::finish)
}

/// Reads a sharded table from a CSV file (see [`read_csv_shards`]).
pub fn read_csv_shards_path<P: AsRef<Path>>(path: P, shard_rows: usize) -> Result<ShardedTable> {
    read_csv_shards(std::fs::File::open(path)?, shard_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::csv::read_csv;
    use hypdb_table::{AttrId, Scan};

    const DATA: &str = "carrier,airport\nAA,COS\nUA,ROC\nAA,ROC\nDL,COS\nUA,MFE\nAA,COS\n";

    #[test]
    fn streaming_matches_monolithic() {
        let mono = read_csv(DATA.as_bytes()).unwrap();
        for shard_rows in [1usize, 2, 3, 6, 64] {
            let sharded = read_csv_shards(DATA.as_bytes(), shard_rows).unwrap();
            assert_eq!(sharded.nrows(), mono.nrows());
            for a in [AttrId(0), AttrId(1)] {
                assert_eq!(sharded.dict(a).values(), mono.column(a).dict().values());
                for row in 0..mono.nrows() as u32 {
                    assert_eq!(Scan::code(&sharded, a, row), mono.code(a, row));
                }
            }
        }
    }

    /// A CSV of several reader blocks (> 2 MiB): a key column, two
    /// low-cardinality ones, and now and then a quoted two-line value.
    fn big_csv() -> Vec<u8> {
        let mut csv = b"key,mod,tag,note\n".to_vec();
        for i in 0..70_000u32 {
            let note = if i % 1000 == 999 {
                "\"two\nlines, one field\""
            } else {
                "a-constant-note-of-some-length"
            };
            csv.extend_from_slice(format!("{i},{},t{},{note}\n", i % 97, i % 13).as_bytes());
        }
        assert!(csv.len() > 2 << 20);
        csv
    }

    #[test]
    fn multi_block_ingest_equals_resharded_monolithic_read() {
        let csv = big_csv();
        let mono = read_csv(&csv[..]).unwrap();
        assert_eq!(mono.nrows(), 70_000);
        for shard_rows in [1usize, 1024, 65_536] {
            let want = ShardedTable::from_table(&mono, shard_rows);
            let got = read_csv_shards(&csv[..], shard_rows).unwrap();
            assert_eq!(got.nrows(), want.nrows());
            assert_eq!(got.n_shards(), want.n_shards(), "shard_rows={shard_rows}");
            for a in mono.schema().attr_ids() {
                assert_eq!(got.schema().name(a), want.schema().name(a));
                assert_eq!(got.dict(a).values(), want.dict(a).values());
                for i in 0..want.n_shards() {
                    assert_eq!(
                        got.shard(i).codes(a),
                        want.shard(i).codes(a),
                        "shard_rows={shard_rows} shard={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn quoted_multiline_records_stream() {
        let data = "a,b\n\"line1\nline2\",x\n\"y\",z\n";
        let t = read_csv_shards(data.as_bytes(), 1).unwrap();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.value(AttrId(0), 0), "line1\nline2");
        assert_eq!(t.value(AttrId(1), 1), "z");
    }

    #[test]
    fn arity_and_empty_rejected() {
        assert!(read_csv_shards("".as_bytes(), 4).is_err());
        assert!(read_csv_shards("a,b\n1\n".as_bytes(), 4).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hypdb_store_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, DATA).unwrap();
        let t = read_csv_shards_path(&path, 2).unwrap();
        assert_eq!(t.nrows(), 6);
        assert_eq!(t.n_shards(), 3);
        std::fs::remove_file(path).ok();
    }
}
