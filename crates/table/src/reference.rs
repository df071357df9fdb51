//! Code `contingency.rs` has replaced, kept as the references the
//! rewritten kernels are checked against, cell for cell and bit for bit:
//!
//! * the four counting loops `ContingencyTable::from_table` was before
//!   the selection image (whole table / id list × dense / sparse, codes
//!   read straight from the table's code columns; sparse cells hashed,
//!   then sorted by [`from_map`]),
//! * the walks and sorts before the odometer and the radix key sort:
//!   [`for_each`] decodes each dense cell's index by division,
//!   [`marginal`] re-encodes every decoded key, [`project`] and
//!   [`strata`] sort keys by slice comparison.

use super::{Cells, ContingencyTable, SortedCells};
use crate::hash::FxHashMap;
use crate::rows::RowSet;
use crate::schema::AttrId;
use crate::table::Table;
use hypdb_exec::ThreadPool;
use hypdb_stats::entropy::{entropy_miller_madow, entropy_plugin};
use hypdb_stats::independence::{Strata, StrataBuilder};
use hypdb_stats::EntropyEstimator;

const DENSE_LIMIT: u128 = 1 << 20;
const PARALLEL_ROWS: usize = 1 << 15;
const SPARSE_ROW_CHUNK: usize = 1 << 14;

/// `ContingencyTable::from_table` as it was; only the finished dense
/// array is narrowed to today's `u32` cells.
pub(super) fn from_table(table: &Table, rows: &RowSet, attrs: &[AttrId]) -> ContingencyTable {
    let dims: Vec<u32> = attrs.iter().map(|&a| table.cardinality(a).max(1)).collect();
    let product: u128 = dims.iter().map(|&d| d as u128).product();
    let n = rows.len();
    let pool = ThreadPool::current();
    let columns: Vec<&[u32]> = attrs.iter().map(|&a| table.codes(a)).collect();

    let cells = if product <= DENSE_LIMIT {
        let count = |range: std::ops::Range<usize>| -> Vec<u64> {
            let mut dense = vec![0u64; product as usize];
            for row in rows.slice(range) {
                let mut idx = 0usize;
                for (col, &d) in columns.iter().zip(&dims) {
                    idx = idx * d as usize + col[row as usize] as usize;
                }
                dense[idx] += 1;
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
            for row in rows.slice(range) {
                for (slot, col) in key.iter_mut().zip(&columns) {
                    *slot = col[row as usize];
                }
                tally(&key);
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
        Cells::Sorted(from_map(attrs.len(), merged))
    };
    ContingencyTable::from_cells(attrs.to_vec(), dims, cells)
}

/// `SortedCells::from_map` as it was: a finished hash count, zero cells
/// dropped, sorted once by slice comparison, flattened.
fn from_map(width: usize, map: FxHashMap<Box<[u32]>, u64>) -> SortedCells {
    let mut entries: Vec<(Box<[u32]>, u64)> = map.into_iter().filter(|&(_, c)| c > 0).collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut keys = Vec::with_capacity(entries.len() * width);
    let mut counts = Vec::with_capacity(entries.len());
    for (k, c) in entries {
        keys.extend_from_slice(&k);
        counts.push(c);
    }
    SortedCells {
        width,
        keys,
        counts,
    }
}

/// `ContingencyTable::for_each` as it was: each non-zero dense cell's
/// mixed-radix index decoded by `%` and `/`.
fn for_each(ct: &ContingencyTable, mut f: impl FnMut(&[u32], u64)) {
    match &ct.cells {
        Cells::Dense(v) => {
            let dims = &ct.dims;
            let mut key = vec![0u32; dims.len()];
            for (flat, &count) in v.iter().enumerate() {
                if count > 0 {
                    let mut rem = flat;
                    for pos in (0..dims.len()).rev() {
                        let d = dims[pos] as usize;
                        key[pos] = (rem % d) as u32;
                        rem /= d;
                    }
                    f(&key, u64::from(count));
                }
            }
        }
        Cells::Sorted(s) => {
            for (i, &count) in s.counts.iter().enumerate() {
                f(s.key(i), count);
            }
        }
    }
}

/// `SortedCells::project` as it was: a prefix list merges runs, any
/// other list sorts an index permutation by slice comparison.
fn project(s: &SortedCells, keep: &[usize]) -> SortedCells {
    let w = keep.len();
    let m = s.counts.len();
    let mut out = SortedCells::empty(w);
    if keep.iter().enumerate().all(|(i, &p)| i == p) {
        for i in 0..m {
            out.push_or_merge(&s.key(i)[..w], s.counts[i]);
        }
        return out;
    }
    let mut proj: Vec<u32> = Vec::with_capacity(m * w);
    for i in 0..m {
        let row = s.key(i);
        proj.extend(keep.iter().map(|&p| row[p]));
    }
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        proj[a * w..(a + 1) * w].cmp(&proj[b * w..(b + 1) * w])
    });
    for &i in &order {
        let i = i as usize;
        out.push_or_merge(&proj[i * w..(i + 1) * w], s.counts[i]);
    }
    out
}

/// `ContingencyTable::marginal` as it was: every decoded key re-encoded
/// into a dense result, or a sparse parent projected. (Its dense parent
/// → sparse arm could not be reached and is left out.)
fn marginal(ct: &ContingencyTable, keep: &[usize]) -> ContingencyTable {
    let attrs: Vec<AttrId> = keep.iter().map(|&p| ct.attrs[p]).collect();
    let dims: Vec<u32> = keep.iter().map(|&p| ct.dims[p]).collect();
    let cells = if let Some(cells) = super::dense_cells(&dims) {
        let mut dense = vec![0u32; cells];
        for_each(ct, |key, count| {
            let mut idx = 0usize;
            for (&p, &d) in keep.iter().zip(&dims) {
                idx = idx * d as usize + key[p] as usize;
            }
            dense[idx] += count as u32;
        });
        Cells::Dense(dense)
    } else {
        match &ct.cells {
            Cells::Sorted(s) => Cells::Sorted(project(s, keep)),
            Cells::Dense(_) => unreachable!("a dense parent's marginal is dense"),
        }
    };
    ContingencyTable::from_cells(attrs, dims, cells)
}

/// `ContingencyTable::entropy` as it was: the counts of the decoding
/// walk, sorted, then summed.
fn entropy(ct: &ContingencyTable, estimator: EntropyEstimator) -> f64 {
    let mut counts = Vec::new();
    for_each(ct, |_, c| counts.push(c));
    counts.sort_unstable();
    match estimator {
        EntropyEstimator::PlugIn => entropy_plugin(counts),
        EntropyEstimator::MillerMadow => entropy_miller_madow(counts),
    }
}

/// `ContingencyTable::strata` as it was: the projections sorted by
/// slice comparison.
fn strata(ct: &ContingencyTable, x: usize, y: usize, z: &[usize]) -> Strata {
    let w = z.len();
    let mut keys: Vec<u32> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for_each(ct, |key, count| {
        keys.extend(z.iter().map(|&p| key[p]));
        keys.push(key[x]);
        keys.push(key[y]);
        counts.push(count);
    });
    let key = |i: u32| &keys[i as usize * (w + 2)..][..w + 2];
    let mut order: Vec<u32> = (0..counts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    let mut builder = StrataBuilder::default();
    let mut group: &[u32] = &[];
    for &i in &order {
        let k = key(i);
        if k[..w] != *group {
            builder.next_group();
            group = &k[..w];
        }
        builder.push(k[w], k[w + 1], counts[i as usize]);
    }
    builder.finish()
}

mod tests {
    use super::*;
    use crate::image::SelectionImage;
    use crate::table::{Table, TableBuilder};
    use hypdb_exec::seed::mix;
    use std::sync::OnceLock;

    const ROWS: usize = 66_000;

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
        let selections = [t.all_rows(), random_ids(ROWS, 97, 0xB22)];
        for attrs in attr_sets() {
            for rows in &selections {
                let what = format!("{attrs:?} over {} rows", rows.len());
                let old = with_threads(1, || from_table(t, rows, &attrs));
                assert_eq!(old.total(), rows.len() as u64);
                let new = with_threads(1, || ContingencyTable::from_table(t, rows, &attrs));
                assert_same(&new, &old, &what);
                let new = with_threads(2, || ContingencyTable::from_table(t, rows, &attrs));
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

    /// The gather: every selection shape over columns of every width.
    #[test]
    fn the_image_gathers_what_storage_holds() {
        let t = table();
        let lists = [attrs(&[4, 1]), attrs(&[6])]; // u16 and u8; u32
        let n = ROWS as u32;
        let selections = [
            RowSet::All(n),
            RowSet::Ids(vec![]),
            RowSet::Ids(vec![n / 2]),
            RowSet::Ids(vec![0, n - 1]),
            RowSet::Ids((0..n).collect()),
            RowSet::Ids((0..n).rev().step_by(7).collect()),
            random_ids(ROWS, 3, 0xC33),
            random_ids(ROWS, 1_009, 0xD44),
        ];
        for rows in &selections {
            for attrs in &lists {
                let what = format!("{attrs:?} over {} rows", rows.len());
                let old = from_table(t, rows, attrs);
                let new = ContingencyTable::from_table(t, rows, attrs);
                assert_same(&new, &old, &what);
            }
        }
    }

    /// An image serves many counts from one gather per attribute, and a
    /// list that is not ascending gathers the codes it names.
    #[test]
    fn one_image_serves_every_count_over_its_selection() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static GATHERS: AtomicUsize = AtomicUsize::new(0);
        let t = table();
        let rows = random_ids(ROWS, 5, 0xE55);
        let image = SelectionImage::new(t, &rows).with_gather_hook(|gather| {
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
            let new = ContingencyTable::from_table(t, &shuffled, attrs);
            assert_same(&new, &old, "descending with repeats");
        }
    }

    #[test]
    #[should_panic(expected = "is not in the table")]
    fn a_row_past_the_table_is_refused() {
        let t = table();
        let rows = RowSet::Ids(vec![0, ROWS as u32]);
        ContingencyTable::from_table(t, &rows, &attrs(&[1]));
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

    /// A seeded table over `dims`, stored dense or sorted as asked:
    /// `draws` random keys (half of each code's draws skewed onto its
    /// low eighth, so keys repeat and projections collide), a repeat
    /// merging into its cell, each draw counting 1 to 1 000.
    fn random_table(seed: u64, dims: &[u32], dense: bool, draws: u64) -> ContingencyTable {
        let mut drawn = std::collections::BTreeMap::<Vec<u32>, u64>::new();
        for i in 0..draws {
            let key = dims.iter().enumerate().map(|(p, &d)| {
                let draw = mix(mix(seed, i), p as u64);
                let span = if draw & 1 == 0 { d.div_ceil(8) } else { d };
                ((draw >> 1) % u64::from(span)) as u32
            });
            *drawn.entry(key.collect()).or_insert(0) += 1 + mix(!seed, i) % 1_000;
        }
        let cells = if dense {
            let mut v = vec![0u32; super::super::dense_cells(dims).expect("a dense shape")];
            for (key, &count) in &drawn {
                let idx = key
                    .iter()
                    .zip(dims)
                    .fold(0, |idx, (&k, &d)| idx * d as usize + k as usize);
                v[idx] = count as u32;
            }
            Cells::Dense(v)
        } else {
            let mut s = SortedCells::empty(dims.len());
            for (key, &count) in &drawn {
                s.push_or_merge(key, count);
            }
            Cells::Sorted(s)
        };
        let attrs = (0..dims.len() as u32).map(AttrId).collect();
        ContingencyTable::from_cells(attrs, dims.to_vec(), cells)
    }

    /// The cells of `ct` as the decoding walk sees them.
    fn walked(ct: &ContingencyTable) -> Vec<(Box<[u32]>, u64)> {
        let mut cells = Vec::new();
        for_each(ct, |key, count| cells.push((key.into(), count)));
        cells
    }

    /// Keep lists of every shape over `w` positions: identity, prefix,
    /// single (first and last), reordered, non-prefix.
    fn keep_lists(w: usize) -> Vec<Vec<usize>> {
        let mut lists = vec![(0..w).collect::<Vec<_>>()];
        if w >= 1 {
            lists.push((0..w - 1).collect());
            lists.push(vec![0]);
            lists.push(vec![w - 1]);
            lists.push((0..w).rev().collect());
        }
        if w >= 2 {
            lists.push((1..w).collect());
            lists.push(vec![w - 1, 0]);
        }
        if w >= 3 {
            lists.push((0..w).filter(|&p| p != 1).collect());
            lists.push([2, 0].into_iter().chain(3..w).collect());
        }
        lists
    }

    /// The odometer walk, the stride marginal, the radix key sort and
    /// the direct entropy against the decoding walk and the slice sorts
    /// they replaced: random dense and sorted tables — one-level
    /// dimensions (0-bit digits), dimensions of 2¹³, keys over 64 bits
    /// wide, empty and single-cell tables — under every keep-list shape
    /// and every `(x, y, z)` split.
    #[test]
    fn the_walks_and_sorts_match_the_decoding_walk_and_slice_sorts() {
        const D: u32 = 1 << 13;
        let shapes: [(&[u32], bool, u64); 18] = [
            (&[], true, 0),
            (&[], true, 1),
            (&[1], true, 3),
            (&[5], true, 0),
            (&[5], true, 1),
            (&[1, 1, 1], true, 4),
            (&[3, 1, 4], true, 9),
            (&[2, 3, 2, 5, 1, 2], true, 200),
            (&[D, 3, 1], true, 5_000),
            (&[1, D, 2, 1], true, 3_000),
            (&[7, 11, 13, 2], true, 900),
            (&[D, D, D, D, D, D], false, 3_000), // 78-bit keys
            (&[1, D, 1, 5_000, 3, 2], false, 3_000),
            (&[2, 3, 5, 7, 11, 13, 17, 19], false, 2_000),
            (&[D, 1, D, 2, 1], false, 2_000),
            (&[D, D, D], false, 0),
            (&[D, D, D], false, 1),
            (&[4, 4], false, 10), // a sorted table over a small domain
        ];
        for (seed, &(dims, dense, draws)) in shapes.iter().enumerate() {
            let t = random_table(0x5EED ^ seed as u64, dims, dense, draws);
            let what = format!("{dims:?} dense={dense} draws={draws}");
            let cells = walked(&t);
            assert_eq!(t.cells(), cells, "{what}");
            assert_eq!(t.total(), cells.iter().map(|c| c.1).sum::<u64>(), "{what}");
            assert_eq!(t.support(), cells.len() as u64, "{what}");
            if draws == 1 {
                assert_eq!(t.support(), 1, "{what}");
            }
            for estimator in [EntropyEstimator::PlugIn, EntropyEstimator::MillerMadow] {
                let (new, old) = (t.entropy(estimator), entropy(&t, estimator));
                assert_eq!(new.to_bits(), old.to_bits(), "{what} {estimator:?}");
            }

            for keep in keep_lists(dims.len()) {
                let what = format!("{what} keep={keep:?}");
                let (new, old) = (t.marginal(&keep), marginal(&t, &keep));
                assert_eq!(new.attrs(), old.attrs(), "{what}");
                assert_eq!(new.dims(), old.dims(), "{what}");
                assert_eq!(
                    matches!(new.cells, Cells::Dense(_)),
                    matches!(old.cells, Cells::Dense(_)),
                    "{what}"
                );
                assert_eq!(new.cells(), walked(&old), "{what}");
                assert_eq!((new.total(), new.support()), (old.total(), old.support()));

                // The sort itself, on keys that repeat: ascending, and
                // equal keys in row order.
                if keep.is_empty() {
                    continue;
                }
                let w = keep.len();
                let kept: Vec<u32> = keep.iter().map(|&p| dims[p]).collect();
                let mut keys = Vec::new();
                for_each(&t, |key, _| keys.extend(keep.iter().map(|&p| key[p])));
                let mut stable: Vec<u32> = (0..(keys.len() / w) as u32).collect();
                stable.sort_by(|&a, &b| {
                    let (a, b) = (a as usize * w, b as usize * w);
                    keys[a..a + w].cmp(&keys[b..b + w])
                });
                assert_eq!(super::super::key_order(&keys, &kept), stable, "{what}");
            }

            for x in 0..dims.len() {
                for y in (0..dims.len()).filter(|&y| y != x) {
                    let z: Vec<usize> = (0..dims.len()).filter(|&p| p != x && p != y).collect();
                    let reversed: Vec<usize> = z.iter().rev().copied().collect();
                    for z in [z, reversed] {
                        assert_eq!(
                            t.strata(x, y, &z),
                            strata(&t, x, y, &z),
                            "{what} x={x} y={y} z={z:?}"
                        );
                    }
                }
            }
        }
    }
}
