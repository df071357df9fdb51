//! Parallel scan primitives over any [`Scan`] storage.
//!
//! These are the named entry points of the storage subsystem. The
//! heavy lifting lives in the shared `Scan`-generic kernels of
//! `hypdb-table` (one kernel per operation, backing both the
//! monolithic and the sharded path); each primitive here documents the
//! decomposition/merge discipline that makes it deterministic:
//!
//! * [`scan_filter`] — per-shard predicate evaluation on the
//!   `hypdb-exec` pool, partial id lists concatenated in shard order,
//! * [`contingency`] / [`group_count`] — the selection is gathered out
//!   of the shards into a `SelectionImage` and counted by the one
//!   kernel; partial counts merge by exact integer sums,
//! * [`build_cube`] — materialises the joint over the same kernel and
//!   serves marginals from its cache.

use hypdb_table::cube::DataCube;
use hypdb_table::groupby::{group_counts, GroupRow};
use hypdb_table::{AttrId, ContingencyTable, Predicate, Result, RowSet, Scan};

/// Evaluates `predicate` over the whole relation: each shard is
/// filtered independently on the worker pool and the per-shard row-id
/// partials are concatenated in shard order, yielding the ascending id
/// list (or [`RowSet::All`] for the trivially-true predicate) — the
/// same result as a monolithic scan, at any shard size or thread count.
pub fn scan_filter<S: Scan + ?Sized>(scan: &S, predicate: &Predicate) -> RowSet {
    predicate.select(scan)
}

/// `count(*) GROUP BY attrs` over the selected rows, sorted by group
/// key.
pub fn group_count<S: Scan + ?Sized>(scan: &S, rows: &RowSet, attrs: &[AttrId]) -> Vec<GroupRow> {
    group_counts(scan, rows, attrs)
}

/// The k-way contingency table of `attrs` over the selected rows —
/// the counting kernel behind every HypDB statistic. Dimensions come
/// from the global dictionaries, so tables built from different shard
/// layouts are byte-identical.
pub fn contingency<S: Scan + ?Sized>(
    scan: &S,
    rows: &RowSet,
    attrs: &[AttrId],
) -> ContingencyTable {
    ContingencyTable::from_table(scan, rows, attrs)
}

/// Materialises a data cube (joint contingency table + cached
/// marginals) over the selected rows; the joint build scans shard-
/// parallel like [`contingency`].
pub fn build_cube<S: Scan + ?Sized>(
    scan: &S,
    rows: &RowSet,
    attrs: &[AttrId],
    max_attrs: usize,
) -> Result<DataCube> {
    DataCube::build(scan, rows, attrs, max_attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedTable;
    use hypdb_table::TableBuilder;

    fn table() -> hypdb_table::Table {
        let mut b = TableBuilder::new(["t", "z"]);
        for i in 0..50u32 {
            b.push_row([
                ((i * 3) % 4).to_string().as_str(),
                (i % 5).to_string().as_str(),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn scan_filter_matches_monolithic() {
        let mono = table();
        let pred = Predicate::eq(&mono, "t", "0").unwrap();
        let expect = scan_filter(&mono, &pred);
        for shard_rows in [1usize, 7, 16, 50, 64] {
            let sharded = ShardedTable::from_table(&mono, shard_rows);
            assert_eq!(
                scan_filter(&sharded, &pred),
                expect,
                "shard_rows={shard_rows}"
            );
        }
        // Trivial predicates keep their fast paths.
        assert_eq!(
            scan_filter(&ShardedTable::from_table(&mono, 8), &Predicate::True),
            RowSet::All(50)
        );
        assert!(scan_filter(&mono, &Predicate::False).is_empty());
    }

    #[test]
    fn group_count_and_contingency_match() {
        let mono = table();
        let attrs: Vec<AttrId> = mono.schema().attr_ids().collect();
        let rows = mono.all_rows();
        let base_groups = group_count(&mono, &rows, &attrs);
        let base_cells = contingency(&mono, &rows, &attrs).cells();
        for shard_rows in [3usize, 10, 50] {
            let sharded = ShardedTable::from_table(&mono, shard_rows);
            assert_eq!(
                group_count(&sharded, &sharded.all_rows(), &attrs),
                base_groups
            );
            assert_eq!(
                contingency(&sharded, &sharded.all_rows(), &attrs).cells(),
                base_cells
            );
        }
    }

    #[test]
    fn cube_serves_marginals_on_shards() {
        let mono = table();
        let attrs: Vec<AttrId> = mono.schema().attr_ids().collect();
        let sharded = ShardedTable::from_table(&mono, 9);
        let cube = build_cube(&sharded, &sharded.all_rows(), &attrs, 12).unwrap();
        let direct = contingency(&mono, &mono.all_rows(), &attrs[0..1]);
        let served = cube.counts_for(&attrs[0..1]).unwrap();
        let mut a = served.cells();
        let mut b = direct.cells();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
