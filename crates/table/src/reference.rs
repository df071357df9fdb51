//! The four counting loops `ContingencyTable::from_table` was before
//! the selection image (whole table / id list × dense / sparse, codes
//! read from storage through per-shard slices or `ColRef::at`), kept as
//! the reference the one kernel is checked against, cell for cell.

use super::{Cells, ContingencyTable, SortedCells};
use crate::hash::FxHashMap;
use crate::rows::RowSet;
use crate::scan::{for_each_segment, ColRef, Scan};
use crate::schema::AttrId;
use hypdb_exec::ThreadPool;

const DENSE_LIMIT: u128 = 1 << 20;
const PARALLEL_ROWS: usize = 1 << 15;
const SPARSE_ROW_CHUNK: usize = 1 << 14;

/// `ContingencyTable::from_table` as it was; only the finished dense
/// array is narrowed to today's `u32` cells.
pub(super) fn from_table<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    attrs: &[AttrId],
) -> ContingencyTable {
    let dims: Vec<u32> = attrs.iter().map(|&a| table.cardinality(a).max(1)).collect();
    let product: u128 = dims.iter().map(|&d| d as u128).product();
    let n = rows.len();
    let pool = ThreadPool::current();

    let cells = if product <= DENSE_LIMIT {
        let count = |range: std::ops::Range<usize>| -> Vec<u64> {
            let mut dense = vec![0u64; product as usize];
            match rows {
                RowSet::All(_) => for_each_segment(table, attrs, range, |slices, local| {
                    for r in local {
                        let mut idx = 0usize;
                        for (col, &d) in slices.iter().zip(&dims) {
                            idx = idx * d as usize + col[r] as usize;
                        }
                        dense[idx] += 1;
                    }
                }),
                RowSet::Ids(_) => {
                    let columns: Vec<ColRef<'_>> = attrs.iter().map(|&a| table.col(a)).collect();
                    for row in rows.slice(range) {
                        let mut idx = 0usize;
                        for (col, &d) in columns.iter().zip(&dims) {
                            idx = idx * d as usize + col.at(row) as usize;
                        }
                        dense[idx] += 1;
                    }
                }
            }
            dense
        };
        let dense = if n >= PARALLEL_ROWS && pool.threads() > 1 {
            let chunk = n.div_ceil(pool.threads());
            let partials = pool.map_chunks(n, chunk, count);
            let mut dense = vec![0u64; product as usize];
            for partial in partials {
                for (acc, v) in dense.iter_mut().zip(partial) {
                    *acc += v;
                }
            }
            dense
        } else {
            count(0..n)
        };
        Cells::Dense(dense.into_iter().map(|c| c as u32).collect())
    } else {
        let count = |range: std::ops::Range<usize>| -> FxHashMap<Box<[u32]>, u64> {
            let mut sparse: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();
            let mut key = vec![0u32; attrs.len()];
            let mut tally = |key: &[u32]| match sparse.get_mut(key) {
                Some(c) => *c += 1,
                None => {
                    sparse.insert(key.to_vec().into_boxed_slice(), 1);
                }
            };
            match rows {
                RowSet::All(_) => for_each_segment(table, attrs, range, |slices, local| {
                    for r in local {
                        for (slot, col) in key.iter_mut().zip(slices) {
                            *slot = col[r];
                        }
                        tally(&key);
                    }
                }),
                RowSet::Ids(_) => {
                    let columns: Vec<ColRef<'_>> = attrs.iter().map(|&a| table.col(a)).collect();
                    for row in rows.slice(range) {
                        for (slot, col) in key.iter_mut().zip(&columns) {
                            *slot = col.at(row);
                        }
                        tally(&key);
                    }
                }
            }
            sparse
        };
        let merged = if n >= PARALLEL_ROWS {
            let mut partials = pool.map_chunks(n, SPARSE_ROW_CHUNK, count).into_iter();
            let mut sparse = partials.next().unwrap_or_default();
            for partial in partials {
                for (key, c) in partial {
                    *sparse.entry(key).or_insert(0) += c;
                }
            }
            sparse
        } else {
            count(0..n)
        };
        Cells::Sorted(SortedCells::from_map(attrs.len(), merged))
    };
    ContingencyTable::from_cells(attrs.to_vec(), dims, cells)
}

mod tests {
    use super::*;
    use crate::image::SelectionImage;
    use crate::scan::Resharded;
    use crate::table::{Table, TableBuilder};
    use hypdb_exec::seed::mix;
    use std::sync::OnceLock;

    const ROWS: usize = 66_000;
    const SHARD_ROWS: [usize; 4] = [1, 7, 4_096, 65_536];

    /// Levels per column: every code width on both sides of its limit,
    /// then enough small columns for a dense table of twelve.
    const LEVELS: [u32; 17] = [
        1, 2, 255, 256, 257, 65_536, 65_537, 2, 3, 2, 3, 2, 2, 1, 2, 2, 1,
    ];

    /// `ROWS` rows over `LEVELS`: row `i` holds level `i` of a column
    /// while there is one (so every level occurs and is its own code),
    /// a seeded draw after that.
    fn table() -> &'static Table {
        static TABLE: OnceLock<Table> = OnceLock::new();
        TABLE.get_or_init(|| {
            let names: Vec<String> = (0..LEVELS.len()).map(|c| format!("c{c}")).collect();
            let mut b = TableBuilder::new(names);
            let mut row: Vec<String> = vec![String::new(); LEVELS.len()];
            for i in 0..ROWS as u64 {
                for (c, (value, &levels)) in row.iter_mut().zip(&LEVELS).enumerate() {
                    let level = if i < u64::from(levels) {
                        i
                    } else {
                        // Skewed: half of the draws land on the low eighth.
                        let draw = mix(mix(0x1A6E, c as u64), i);
                        let span = u64::from(if draw & 1 == 0 {
                            levels.div_ceil(8)
                        } else {
                            levels
                        });
                        (draw >> 1) % span
                    };
                    *value = level.to_string();
                }
                b.push_row(row.iter().map(String::as_str)).unwrap();
            }
            let t = b.finish();
            for (c, &levels) in LEVELS.iter().enumerate() {
                assert_eq!(t.cardinality(AttrId(c as u32)), levels);
            }
            t
        })
    }

    fn attrs(columns: &[u32]) -> Vec<AttrId> {
        columns.iter().map(|&c| AttrId(c)).collect()
    }

    /// Attribute lists of every arity 0..=12: each width alone, index
    /// widths on both sides of 2¹⁶ cells, dense and sparse, mixed widths.
    fn attr_sets() -> Vec<Vec<AttrId>> {
        let mut sets: Vec<Vec<AttrId>> = vec![vec![]];
        sets.extend((0..7).map(|c| vec![AttrId(c)]));
        for columns in [
            &[2, 3][..],   // 65 280 cells: the last u16 index
            &[3, 4],       // 65 792 cells: the first u32 index
            &[1, 6],       // a u32 column under a dense table
            &[6, 1],       // … and leading it
            &[5, 6],       // sparse, u16 × u32 columns
            &[3, 4, 2],    // sparse, three bytes wide and over
            &[4, 1, 8],    // u16 column between byte columns
            &[1, 7, 8, 9], // lanes
            &[2, 7, 8, 9, 10],
            &[0, 1, 7, 8, 9, 10],
            &[1, 7, 8, 9, 10, 11, 12],
            &[3, 7, 8, 9, 10, 11, 12, 14],
            &[0, 1, 7, 8, 9, 10, 11, 12, 13],
            &[1, 7, 8, 9, 10, 11, 12, 14, 15, 2],
            &[0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15],
            &[0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], // dense twelve
            &[0, 1, 7, 8, 9, 10, 11, 12, 2, 3, 4, 5],     // sparse twelve
        ] {
            sets.push(attrs(columns));
        }
        for arity in 0..=12 {
            assert!(sets.iter().any(|s| s.len() == arity), "arity {arity}");
        }
        sets
    }

    /// A seeded subset of `0..n` keeping about one row in `one_in`.
    fn random_ids(n: usize, one_in: u64, seed: u64) -> RowSet {
        RowSet::Ids(
            (0..n as u32)
                .filter(|&r| mix(seed, u64::from(r)) % one_in == 0)
                .collect(),
        )
    }

    /// First and last row of every shard.
    fn shard_edges(n: usize, shard_rows: usize) -> RowSet {
        let mut ids = Vec::new();
        for start in (0..n).step_by(shard_rows) {
            ids.push(start as u32);
            let last = (n.min(start + shard_rows) - 1) as u32;
            if last as usize != start {
                ids.push(last);
            }
        }
        RowSet::Ids(ids)
    }

    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        hypdb_exec::set_global_threads(threads);
        let out = f();
        hypdb_exec::set_global_threads(0);
        out
    }

    /// Everything a caller can see of a table, iteration order included.
    fn assert_same(new: &ContingencyTable, old: &ContingencyTable, what: &str) {
        assert_eq!(new.attrs(), old.attrs(), "{what}");
        assert_eq!(new.dims(), old.dims(), "{what}");
        assert_eq!(new.total(), old.total(), "{what}");
        assert_eq!(new.support(), old.support(), "{what}");
        assert_eq!(new.approx_bytes(), old.approx_bytes(), "{what}");
        assert_eq!(
            matches!(new.cells, Cells::Dense(_)),
            matches!(old.cells, Cells::Dense(_)),
            "{what}"
        );
        assert_eq!(new.cells(), old.cells(), "{what}");
        let arity = new.attrs().len();
        if arity >= 2 {
            let z: Vec<usize> = (0..arity - 2).collect();
            assert_eq!(
                new.strata(arity - 2, arity - 1, &z),
                old.strata(arity - 2, arity - 1, &z),
                "{what}"
            );
        }
    }

    /// The kernel: every attribute list, dense and sparse, on a large
    /// and a small selection, chunked (two workers) and not.
    #[test]
    fn the_kernel_counts_what_the_four_loops_counted() {
        let t = table();
        let sharded = Resharded {
            table: t,
            shard_rows: 4_096,
        };
        let selections = [t.all_rows(), random_ids(ROWS, 97, 0xB22)];
        for attrs in attr_sets() {
            for rows in &selections {
                let what = format!("{attrs:?} over {} rows", rows.len());
                let old = with_threads(1, || from_table(t, rows, &attrs));
                assert_eq!(old.total(), rows.len() as u64);
                let new = with_threads(1, || ContingencyTable::from_table(t, rows, &attrs));
                assert_same(&new, &old, &what);
                let new = with_threads(2, || ContingencyTable::from_table(&sharded, rows, &attrs));
                assert_same(&new, &old, &what);
            }
        }
    }

    /// The chunked merge: lanes, a `u32` index and sparse cells, each at
    /// every thread count and cut into as many chunks (a dense count of
    /// this size is one chunk when left to itself), on the whole table
    /// and on an id list.
    #[test]
    fn the_count_is_the_same_at_every_thread_count() {
        let t = table();
        let selections = [t.all_rows(), random_ids(ROWS, 2, 0xA11)];
        for attrs in [attrs(&[1, 7, 8, 9]), attrs(&[3, 4]), attrs(&[3, 4, 2])] {
            for rows in &selections {
                assert!(rows.len() >= PARALLEL_ROWS);
                let old = with_threads(1, || from_table(t, rows, &attrs));
                let image = SelectionImage::new(t, rows);
                let columns: Vec<_> = attrs.iter().map(|&a| image.column(a)).collect();
                for threads in [1, 2, 4, 7] {
                    let what = format!("{attrs:?} over {} rows at {threads}", rows.len());
                    let new =
                        with_threads(threads, || ContingencyTable::from_table(t, rows, &attrs));
                    assert_same(&new, &old, &what);
                    let new = with_threads(threads, || {
                        let (attrs, dims) = (attrs.clone(), old.dims().to_vec());
                        ContingencyTable::count_in(threads, attrs, dims, &columns, rows.len())
                    });
                    assert_same(&new, &old, &format!("{what}, as many chunks"));
                }
                // Nor did the old loops depend on it.
                let old = with_threads(4, || from_table(t, rows, &attrs));
                let new = with_threads(1, || ContingencyTable::from_table(t, rows, &attrs));
                assert_same(&new, &old, "reference at 4 threads");
            }
        }
    }

    /// The gather: every selection shape at every shard size, over
    /// columns of every width.
    #[test]
    fn the_image_gathers_what_storage_holds_at_every_shard_size() {
        let t = table();
        let lists = [attrs(&[4, 1]), attrs(&[6])]; // u16 and u8; u32
        let check = |scan: &dyn Scan, shard_rows: usize| {
            let n = ROWS as u32;
            let selections = [
                RowSet::All(n),
                RowSet::Ids(vec![]),
                RowSet::Ids(vec![n / 2]),
                RowSet::Ids(vec![n - 1]),
                RowSet::Ids((0..n).collect()),
                shard_edges(ROWS, shard_rows),
                random_ids(ROWS, 3, 0xC33),
                random_ids(ROWS, 1_009, 0xD44),
            ];
            for rows in &selections {
                for attrs in &lists {
                    let what =
                        format!("{attrs:?} over {} rows, shards of {shard_rows}", rows.len());
                    let old = from_table(t, rows, attrs);
                    let new = ContingencyTable::from_table(scan, rows, attrs);
                    assert_same(&new, &old, &what);
                }
            }
        };
        check(t, ROWS);
        for shard_rows in SHARD_ROWS {
            let sharded = Resharded {
                table: t,
                shard_rows,
            };
            check(&sharded, shard_rows);
        }
    }

    /// An image serves many counts from one gather per attribute, and a
    /// list that is not ascending only gathers in shorter runs.
    #[test]
    fn one_image_serves_every_count_over_its_selection() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static GATHERS: AtomicUsize = AtomicUsize::new(0);
        let t = table();
        let sharded = Resharded {
            table: t,
            shard_rows: 7,
        };
        let rows = random_ids(ROWS, 5, 0xE55);
        let image = SelectionImage::new(&sharded, &rows).with_gather_hook(|gather| {
            GATHERS.fetch_add(1, Ordering::Relaxed);
            gather()
        });
        let lists = [
            attrs(&[1, 7]),
            attrs(&[7, 2, 1]),
            attrs(&[2]),
            attrs(&[1, 2, 7, 8]),
        ];
        for attrs in &lists {
            assert_same(&image.count(attrs), &from_table(t, &rows, attrs), "shared");
        }
        assert_eq!(
            GATHERS.load(Ordering::Relaxed),
            4,
            "c1, c2, c7, c8: once each"
        );

        let RowSet::Ids(mut ids) = rows else {
            unreachable!()
        };
        ids.reverse();
        ids.extend_from_within(..100);
        let shuffled = RowSet::Ids(ids);
        for attrs in &lists {
            let old = from_table(t, &shuffled, attrs);
            let new = ContingencyTable::from_table(&sharded, &shuffled, attrs);
            assert_same(&new, &old, "descending with repeats");
        }
    }

    #[test]
    #[should_panic(expected = "is not in the table")]
    fn a_row_past_the_table_is_refused() {
        let t = table();
        let sharded = Resharded {
            table: t,
            shard_rows: 4_096,
        };
        // Inside the last shard's range, past its rows.
        let rows = RowSet::Ids(vec![0, ROWS as u32]);
        ContingencyTable::from_table(&sharded, &rows, &attrs(&[1]));
    }

    /// Domain products beyond `u128` (the old loops could not even size
    /// these) count sparse.
    #[test]
    fn a_domain_product_beyond_u128_counts_sparse() {
        let t = table();
        let wide = attrs(&[6, 5, 6, 5, 6, 5, 6, 5, 6]);
        let rows = random_ids(ROWS, 11, 0xF66);
        let ct = ContingencyTable::from_table(t, &rows, &wide);
        assert!(matches!(ct.cells, Cells::Sorted(_)));
        assert_eq!(ct.total(), rows.len() as u64);
        let pair = ct.marginal(&[0, 1]);
        assert_same(
            &pair,
            &from_table(t, &rows, &wide[..2]),
            "marginal of the wide table",
        );
    }
}
