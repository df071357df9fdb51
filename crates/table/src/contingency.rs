//! k-way contingency tables (§5) — the tabular summaries every HypDB
//! statistic is computed from — and the one builder of the stratified
//! summaries the independence tests read: [`ContingencyTable::strata`]
//! projects a table's non-zero cells to `(z…, x, y)`, sorts them once
//! and run-splits them into a compact `Strata` arena. The oracle calls
//! it on its cached canonical tables, [`Stratified::build`] on a fresh
//! count; neither allocates anything per conditioning group.
//!
//! Storage is dense (a mixed-radix array) when the domain product is
//! small, and a **sorted cell array** otherwise: non-zero cells kept as
//! a flat, lexicographically sorted `(keys, counts)` pair. Marginal
//! walks over the sorted form are sequential and cache-friendly — a
//! prefix projection merges adjacent runs in one pass — which is what
//! makes deriving a table from a cached superset with fewer cells than
//! the selection has rows cheaper than a scan. Both forms expose the
//! same iteration interface.
//!
//! Tables are counted in one place, from the gathered columns of a
//! [`SelectionImage`]: a block of positions at a time, each position's
//! cell index (or key) built column by column, then tallied — see
//! `count_dense` and `count_sparse`.

use crate::hash::FxHashMap;
use crate::image::{with_codes, Codes, SelectionImage};
use crate::rows::RowSet;
use crate::schema::AttrId;
use crate::table::Table;
use hypdb_exec::ThreadPool;
use hypdb_stats::entropy::{entropy_miller_madow, entropy_plugin};
use hypdb_stats::independence::{Strata, StrataBuilder};
use hypdb_stats::EntropyEstimator;
use std::ops::Range;

/// Cells above this domain-product switch to sparse storage.
const DENSE_LIMIT: usize = 1 << 20;

/// Fewest positions a worker of a dense count is given — about a
/// millisecond of counting. Below twice this a selection is counted in
/// one pass on the calling thread: a fan-out spawns and joins its
/// workers, the kernel counts 150 000 rows in 0.2–0.4 ms, and splitting
/// that costs more than it saves, at a price set by the scheduler
/// rather than by the data.
const DENSE_CHUNK_ROWS: usize = 1 << 20;

/// Fewest positions a worker of a sparse count is given; each one
/// hashes a key, so this is a few milliseconds.
const SPARSE_CHUNK_ROWS: usize = 1 << 14;

/// Positions the kernel takes at a time: their cell indices (or keys)
/// are computed column by column into a buffer this long, then tallied.
const BLOCK: usize = 1 << 10;

/// A dense table of at most [`LANE_CELLS`] cells is tallied into this
/// many interleaved copies of itself, position `i` into copy `i %
/// LANES`: consecutive rows of a low-cardinality attribute land on the
/// same cell, and a single copy would make each increment wait for the
/// store of the one before.
const LANES: usize = 4;

/// Largest table tallied in lanes (its copies stay within L1).
const LANE_CELLS: usize = 1 << 11;

/// The cell count of a dense table over `dims`, or `None` when their
/// product is beyond [`DENSE_LIMIT`].
fn dense_cells(dims: &[u32]) -> Option<usize> {
    dims.iter().try_fold(1usize, |cells, &d| {
        cells
            .checked_mul(d as usize)
            .filter(|&cells| cells <= DENSE_LIMIT)
    })
}

/// How many chunks a count of `n` positions is cut into: one per
/// worker, as long as each gets `min_chunk` of them.
fn chunks_for(n: usize, min_chunk: usize, threads: usize) -> usize {
    (n / min_chunk).clamp(1, threads.max(1))
}

/// Maps `0..n`, cut into `chunks` equal ranges, through `count`, in
/// chunk order — on the calling thread when there is one range.
fn count_chunks<A: Send>(
    n: usize,
    chunks: usize,
    count: impl Fn(Range<usize>) -> A + Sync,
) -> Vec<A> {
    if chunks <= 1 || n < chunks {
        return vec![count(0..n)];
    }
    ThreadPool::current().map_chunks(n, n.div_ceil(chunks), count)
}

/// A row-major cell index under construction, digit by digit: `u16`
/// for a table of fewer than 2¹⁶ cells — the baseline instruction set
/// multiplies eight of them at a time, and four `u32`s with twice the
/// work — and `u32` up to [`DENSE_LIMIT`].
trait CellIndex: Copy + Default {
    /// `self * dim + code`; the caller keeps the result below the
    /// table's cell count.
    fn push<W: Into<u32>>(self, dim: u32, code: W) -> Self;
    fn cell(self) -> usize;
}

impl CellIndex for u16 {
    #[inline]
    fn push<W: Into<u32>>(self, dim: u32, code: W) -> u16 {
        self * dim as u16 + code.into() as u16
    }

    #[inline]
    fn cell(self) -> usize {
        usize::from(self)
    }
}

impl CellIndex for u32 {
    #[inline]
    fn push<W: Into<u32>>(self, dim: u32, code: W) -> u32 {
        self * dim + code.into()
    }

    #[inline]
    fn cell(self) -> usize {
        self as usize
    }
}

/// `idx[i] = idx[i] * dim + col[i]`: one more digit of each position's
/// cell index.
fn push_digit<I: CellIndex, W: Copy + Into<u32>>(idx: &mut [I], col: &[W], dim: u32) {
    for (i, &code) in idx.iter_mut().zip(col) {
        *i = i.push(dim, code);
    }
}

/// `keys[i * width] = col[i]`: one more code of each position's key.
fn spread_digit<W: Copy + Into<u32>>(keys: &mut [u32], width: usize, col: &[W]) {
    for (slot, &code) in keys.iter_mut().step_by(width).zip(col) {
        *slot = code.into();
    }
}

/// The dense counting kernel: the cells of `columns[..][range]` over
/// `dims`, row-major.
fn count_dense<I: CellIndex>(
    columns: &[&Codes],
    dims: &[u32],
    cells: usize,
    range: Range<usize>,
) -> Vec<u32> {
    let lanes = if cells <= LANE_CELLS { LANES } else { 1 };
    let mut tallies = vec![0u32; cells * lanes];
    let mut idx = [I::default(); BLOCK];
    for start in range.clone().step_by(BLOCK) {
        let block = start..range.end.min(start + BLOCK);
        let idx = &mut idx[..block.len()];
        idx.fill(I::default());
        for (codes, &dim) in columns.iter().zip(dims) {
            with_codes!(codes, col => push_digit(idx, &col[block.clone()], dim));
        }
        if lanes == 1 {
            for i in idx.iter() {
                tallies[i.cell()] += 1;
            }
        } else {
            let mut groups = idx.chunks_exact(LANES);
            for group in &mut groups {
                for (lane, i) in group.iter().enumerate() {
                    tallies[i.cell() * LANES + lane] += 1;
                }
            }
            for i in groups.remainder() {
                tallies[i.cell() * LANES] += 1;
            }
        }
    }
    if lanes == 1 {
        return tallies;
    }
    tallies
        .chunks_exact(LANES)
        .map(|copies| copies.iter().sum())
        .collect()
}

/// The sparse counting kernel: the non-zero cells of
/// `columns[..][range]`, keyed by their codes.
fn count_sparse(columns: &[&Codes], range: Range<usize>) -> FxHashMap<Box<[u32]>, u64> {
    let width = columns.len();
    let mut sparse: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();
    // One key buffer per chunk; a fresh box is allocated only when a
    // cell is first seen.
    let mut keys = vec![0u32; BLOCK * width];
    for start in range.clone().step_by(BLOCK) {
        let block = start..range.end.min(start + BLOCK);
        let keys = &mut keys[..block.len() * width];
        for (at, codes) in columns.iter().enumerate() {
            with_codes!(codes, col => spread_digit(&mut keys[at..], width, &col[block.clone()]));
        }
        for key in keys.chunks_exact(width) {
            match sparse.get_mut(key) {
                Some(count) => *count += 1,
                None => {
                    sparse.insert(key.into(), 1);
                }
            }
        }
    }
    sparse
}

/// Sparse cells as flat sorted arrays: `counts[i]` belongs to the key
/// `keys[i*width .. (i+1)*width]`, and the key rows are in ascending
/// lexicographic order with no duplicates and no zero counts.
#[derive(Debug, Clone)]
struct SortedCells {
    width: usize,
    keys: Vec<u32>,
    counts: Vec<u64>,
}

impl SortedCells {
    /// Converts a finished hash count into the sorted representation
    /// (drops zero-count cells, sorts once, flattens).
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

    #[inline]
    fn key(&self, i: usize) -> &[u32] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// Binary search over the sorted key rows.
    fn get(&self, key: &[u32]) -> u64 {
        let (mut lo, mut hi) = (0usize, self.counts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.counts.len() && self.key(lo) == key {
            self.counts[lo]
        } else {
            0
        }
    }

    /// Projects onto the attribute positions `keep`, merging cells that
    /// collapse together. Lexicographic order survives projection only
    /// for a *prefix* position list (`[0, 1, .., k-1]`): that path is a
    /// single sequential run-merging pass. Any other position list
    /// projects first, then sorts an index permutation, then merges.
    fn project(&self, keep: &[usize]) -> SortedCells {
        let w = keep.len();
        let m = self.counts.len();
        let mut keys: Vec<u32> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let push_or_merge = |keys: &mut Vec<u32>, counts: &mut Vec<u64>, row: &[u32], c: u64| {
            if counts.is_empty() || &keys[keys.len() - w..] != row {
                keys.extend_from_slice(row);
                counts.push(c);
            } else if let Some(last) = counts.last_mut() {
                *last += c;
            }
        };
        if keep.iter().enumerate().all(|(i, &p)| i == p) {
            for i in 0..m {
                push_or_merge(&mut keys, &mut counts, &self.key(i)[..w], self.counts[i]);
            }
        } else {
            let mut proj: Vec<u32> = Vec::with_capacity(m * w);
            for i in 0..m {
                let row = self.key(i);
                proj.extend(keep.iter().map(|&p| row[p]));
            }
            let mut order: Vec<u32> = (0..m as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                proj[a * w..(a + 1) * w].cmp(&proj[b * w..(b + 1) * w])
            });
            for &i in &order {
                let i = i as usize;
                push_or_merge(
                    &mut keys,
                    &mut counts,
                    &proj[i * w..(i + 1) * w],
                    self.counts[i],
                );
            }
        }
        SortedCells {
            width: w,
            keys,
            counts,
        }
    }
}

#[derive(Debug, Clone)]
enum Cells {
    /// Row-major over the dimensions. A count is at most the number of
    /// rows, and row ids are `u32`.
    Dense(Vec<u32>),
    Sorted(SortedCells),
}

/// A k-way table of counts over an ordered attribute list.
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    attrs: Vec<AttrId>,
    dims: Vec<u32>,
    total: u64,
    support: u64,
    cells: Cells,
}

impl ContingencyTable {
    /// Counts the selected rows of `table` grouped by
    /// `attrs`: a [`SelectionImage`] of the selection, made for this one
    /// count (a caller with several counts over one selection keeps the
    /// image and calls [`SelectionImage::count`]).
    ///
    /// Dimensions come from the dictionary cardinalities so that codes
    /// are comparable across sub-populations. The table is a function of
    /// `(rows, attrs)` and the codes alone — never of the thread count.
    pub fn from_table(table: &Table, rows: &RowSet, attrs: &[AttrId]) -> Self {
        SelectionImage::new(table, rows).count(attrs)
    }

    /// Counts positions `0..n` of `columns`, one per attribute: the one
    /// counting kernel (dense below [`DENSE_LIMIT`] cells, sparse above),
    /// over as many chunks as the selection is worth (see
    /// [`DENSE_CHUNK_ROWS`]).
    pub(crate) fn count(
        attrs: Vec<AttrId>,
        dims: Vec<u32>,
        columns: &[&Codes],
        n: usize,
    ) -> ContingencyTable {
        let min_chunk = match dense_cells(&dims) {
            Some(_) => DENSE_CHUNK_ROWS,
            None => SPARSE_CHUNK_ROWS,
        };
        let chunks = chunks_for(n, min_chunk, ThreadPool::current().threads());
        ContingencyTable::count_in(chunks, attrs, dims, columns, n)
    }

    /// [`ContingencyTable::count`] over `chunks` equal ranges of
    /// positions, each counted into a partial table. The partials are
    /// merged by exact integer sums — into a dense array or a key-sorted
    /// cell list — so the table is the same at any chunk layout.
    fn count_in(
        chunks: usize,
        attrs: Vec<AttrId>,
        dims: Vec<u32>,
        columns: &[&Codes],
        n: usize,
    ) -> ContingencyTable {
        let cells = match dense_cells(&dims) {
            Some(cells) => {
                let kernel = if cells <= usize::from(u16::MAX) {
                    count_dense::<u16>
                } else {
                    count_dense::<u32>
                };
                let mut partials =
                    count_chunks(n, chunks, |range| kernel(columns, &dims, cells, range))
                        .into_iter();
                let mut dense = partials.next().unwrap_or_default();
                for partial in partials {
                    for (acc, count) in dense.iter_mut().zip(partial) {
                        *acc += count;
                    }
                }
                Cells::Dense(dense)
            }
            None => {
                let mut partials =
                    count_chunks(n, chunks, |range| count_sparse(columns, range)).into_iter();
                let mut sparse = partials.next().unwrap_or_default();
                for partial in partials {
                    for (key, count) in partial {
                        *sparse.entry(key).or_insert(0) += count;
                    }
                }
                Cells::Sorted(SortedCells::from_map(attrs.len(), sparse))
            }
        };
        ContingencyTable::from_cells(attrs, dims, cells)
    }

    /// Builds from explicit cells, deriving the cached total and
    /// support (non-zero cell count) once.
    fn from_cells(attrs: Vec<AttrId>, dims: Vec<u32>, cells: Cells) -> Self {
        let (total, support) = match &cells {
            Cells::Dense(v) => (
                v.iter().map(|&c| u64::from(c)).sum(),
                v.iter().filter(|&&c| c > 0).count() as u64,
            ),
            Cells::Sorted(s) => (s.counts.iter().sum(), s.counts.len() as u64),
        };
        ContingencyTable {
            attrs,
            dims,
            total,
            support,
            cells,
        }
    }

    /// The attribute list, in storage order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Dimension (domain cardinality) per attribute.
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Total count (number of contributing rows).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of non-zero cells (the observed support `m`). Cached at
    /// construction: the data oracle reads it for every cached superset
    /// of a table it is about to build.
    #[inline]
    pub fn support(&self) -> u64 {
        self.support
    }

    /// Approximate resident bytes of the cell storage (`support × key
    /// width`), exported as the `hypdb_oracle_cache_bytes` gauge.
    pub fn approx_bytes(&self) -> u64 {
        match &self.cells {
            Cells::Dense(v) => 4 * v.len() as u64,
            Cells::Sorted(s) => 4 * s.keys.len() as u64 + 8 * s.counts.len() as u64,
        }
    }

    /// The count of one cell.
    pub fn get(&self, key: &[u32]) -> u64 {
        debug_assert_eq!(key.len(), self.attrs.len());
        match &self.cells {
            Cells::Dense(v) => {
                let mut idx = 0usize;
                for (&k, &d) in key.iter().zip(&self.dims) {
                    if k >= d {
                        return 0;
                    }
                    idx = idx * d as usize + k as usize;
                }
                u64::from(v[idx])
            }
            Cells::Sorted(s) => s.get(key),
        }
    }

    /// Visits every non-zero cell as `(key, count)`, in ascending key
    /// order for both storage forms (sparse cells are *stored* sorted,
    /// so this is a sequential walk with no per-call sort; downstream
    /// float reductions rely on the canonical order).
    pub fn for_each<F: FnMut(&[u32], u64)>(&self, mut f: F) {
        match &self.cells {
            Cells::Dense(v) => {
                let mut key = vec![0u32; self.dims.len()];
                for (flat, &count) in v.iter().enumerate() {
                    if count > 0 {
                        // Decode the mixed-radix index.
                        let mut rem = flat;
                        for pos in (0..self.dims.len()).rev() {
                            let d = self.dims[pos] as usize;
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

    /// All non-zero cells, materialised.
    pub fn cells(&self) -> Vec<(Box<[u32]>, u64)> {
        let mut out = Vec::new();
        self.for_each(|k, c| out.push((k.to_vec().into_boxed_slice(), c)));
        out
    }

    /// Marginalises onto the attribute *positions* `keep` (indices into
    /// [`Self::attrs`], in the order they should appear in the result).
    ///
    /// A sparse parent marginalises by a sequential walk of its sorted
    /// cells, `support × key width` key slots in all.
    pub fn marginal(&self, keep: &[usize]) -> ContingencyTable {
        let attrs: Vec<AttrId> = keep.iter().map(|&p| self.attrs[p]).collect();
        let dims: Vec<u32> = keep.iter().map(|&p| self.dims[p]).collect();
        let cells = if let Some(cells) = dense_cells(&dims) {
            let mut dense = vec![0u32; cells];
            self.for_each(|key, count| {
                let mut idx = 0usize;
                for (&p, &d) in keep.iter().zip(&dims) {
                    idx = idx * d as usize + key[p] as usize;
                }
                // A cell sums counts of this table: at most its total,
                // which is a number of rows.
                debug_assert!(count <= u64::from(u32::MAX));
                dense[idx] += count as u32;
            });
            Cells::Dense(dense)
        } else {
            match &self.cells {
                Cells::Sorted(s) => Cells::Sorted(s.project(keep)),
                // A dense parent's sub-products stay within DENSE_LIMIT,
                // so this arm is unreachable in practice; keep a correct
                // fallback rather than a panic.
                Cells::Dense(_) => {
                    let mut map: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();
                    self.for_each(|key, count| {
                        let small: Box<[u32]> = keep.iter().map(|&p| key[p]).collect();
                        *map.entry(small).or_insert(0) += count;
                    });
                    Cells::Sorted(SortedCells::from_map(keep.len(), map))
                }
            }
        };
        ContingencyTable::from_cells(attrs, dims, cells)
    }

    /// Entropy (nats) of the joint distribution of this table's
    /// attributes, under the chosen estimator.
    ///
    /// The counts are put in canonical (sorted) order before the
    /// floating-point sum: entropy must be a pure function of the count
    /// multiset, however the table was built (fresh scan vs marginalised
    /// from a cached superset — a timing-dependent choice under parallel
    /// discovery).
    pub fn entropy(&self, estimator: EntropyEstimator) -> f64 {
        let mut counts = Vec::with_capacity(self.support() as usize);
        self.for_each(|_, c| counts.push(c));
        counts.sort_unstable();
        match estimator {
            EntropyEstimator::PlugIn => entropy_plugin(counts),
            EntropyEstimator::MillerMadow => entropy_miller_madow(counts),
        }
    }

    /// The stratified summary of the attribute at position `x` against
    /// the one at `y`, one group per combination of the attributes at
    /// positions `z` — which must cover the rest of the table. Groups
    /// come out in ascending order of their `z` key (as listed), cells
    /// row-major inside a group: the order the floating-point sums and
    /// the permutation stream downstream are defined over, whichever
    /// way this table was built or its attributes are ordered.
    ///
    /// One pass projects every non-zero cell to `(z…, x, y)`, one sort
    /// puts the projections in order (already so, and linear, when the
    /// table is laid out that way), one pass run-splits them into
    /// [`StrataBuilder`]. Nothing is allocated per group and nothing is
    /// sized by a domain.
    pub fn strata(&self, x: usize, y: usize, z: &[usize]) -> Strata {
        assert_eq!(
            z.len() + 2,
            self.attrs.len(),
            "strata positions must cover the table"
        );
        let w = z.len();
        let support = self.support as usize;
        let mut keys: Vec<u32> = Vec::with_capacity(support * (w + 2));
        let mut counts: Vec<u64> = Vec::with_capacity(support);
        self.for_each(|key, count| {
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
}

/// A stratified cross-tabulation builder: `(X, Y)` cross tabs within each
/// group of `Z`, the input shape of every independence test.
#[derive(Debug, Clone)]
pub struct Stratified;

impl Stratified {
    /// Builds the [`Strata`] of `(x, y)` conditioned on `z` over the
    /// selected rows of `table`: one count over
    /// `(z…, x, y)`, then [`ContingencyTable::strata`].
    pub fn build(table: &Table, rows: &RowSet, x: AttrId, y: AttrId, z: &[AttrId]) -> Strata {
        let attrs: Vec<AttrId> = z.iter().copied().chain([x, y]).collect();
        let zpos: Vec<usize> = (0..z.len()).collect();
        ContingencyTable::from_table(table, rows, &attrs).strata(z.len(), z.len() + 1, &zpos)
    }
}

#[cfg(test)]
#[path = "reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableBuilder};

    fn sample() -> Table {
        let mut b = TableBuilder::new(["t", "y", "z"]);
        for (t, y, z, n) in [
            ("a", "0", "p", 3u32),
            ("a", "1", "p", 1),
            ("b", "0", "p", 2),
            ("b", "1", "q", 4),
            ("a", "1", "q", 2),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    fn attrs(t: &Table, names: &[&str]) -> Vec<AttrId> {
        names.iter().map(|n| t.attr(n).unwrap()).collect()
    }

    #[test]
    fn counts_match_data() {
        let t = sample();
        let a = attrs(&t, &["t", "y"]);
        let ct = ContingencyTable::from_table(&t, &t.all_rows(), &a);
        assert_eq!(ct.total(), 12);
        assert_eq!(ct.get(&[0, 0]), 3); // (a, 0)
        assert_eq!(ct.get(&[0, 1]), 3); // (a, 1)
        assert_eq!(ct.get(&[1, 0]), 2);
        assert_eq!(ct.get(&[1, 1]), 4);
        assert_eq!(ct.support(), 4);
    }

    #[test]
    fn marginal_sums_out() {
        let t = sample();
        let a = attrs(&t, &["t", "y", "z"]);
        let ct = ContingencyTable::from_table(&t, &t.all_rows(), &a);
        let m = ct.marginal(&[0]); // just "t"
        assert_eq!(m.total(), 12);
        assert_eq!(m.get(&[0]), 6);
        assert_eq!(m.get(&[1]), 6);
        // Reordered marginal (y, t).
        let yt = ct.marginal(&[1, 0]);
        assert_eq!(yt.attrs(), &[a[1], a[0]]);
        assert_eq!(yt.get(&[1, 1]), 4);
    }

    #[test]
    fn entropy_matches_direct_computation() {
        let t = sample();
        let a = attrs(&t, &["t"]);
        let ct = ContingencyTable::from_table(&t, &t.all_rows(), &a);
        let h = ct.entropy(EntropyEstimator::PlugIn);
        assert!((h - 2.0f64.ln()).abs() < 1e-12); // 6/6 split
    }

    #[test]
    fn selection_restricts_counts() {
        let t = sample();
        let a = attrs(&t, &["t"]);
        let p = crate::Predicate::eq(&t, "z", "q").unwrap();
        let rows = p.select(&t);
        let ct = ContingencyTable::from_table(&t, &rows, &a);
        assert_eq!(ct.total(), 6);
        assert_eq!(ct.get(&[0]), 2); // a
        assert_eq!(ct.get(&[1]), 4); // b
    }

    #[test]
    fn stratified_matches_contingency() {
        let t = sample();
        let x = t.attr("t").unwrap();
        let y = t.attr("y").unwrap();
        let z = t.attr("z").unwrap();
        let s = Stratified::build(&t, &t.all_rows(), x, y, &[z]);
        assert_eq!(s.num_groups(), 2);
        assert_eq!(s.total(), 12);
        // CMI from strata must equal CMI from entropies (plug-in).
        let h = |ids: &[AttrId]| {
            ContingencyTable::from_table(&t, &t.all_rows(), ids).entropy(EntropyEstimator::PlugIn)
        };
        let cmi_ent = h(&[x, z]) + h(&[y, z]) - h(&[x, y, z]) - h(&[z]);
        assert!((s.cmi_plugin() - cmi_ent).abs() < 1e-12);
    }

    #[test]
    fn stratified_empty_conditioning() {
        let t = sample();
        let x = t.attr("t").unwrap();
        let y = t.attr("y").unwrap();
        let s = Stratified::build(&t, &t.all_rows(), x, y, &[]);
        assert_eq!(s.num_groups(), 1);
        assert_eq!(s.total(), 12);
    }

    #[test]
    fn strata_bytes_follow_the_cells_not_the_domains() {
        // 2 × 5 000 levels in 1 000 groups over 20 000 rows: a dense
        // table per group is 1 000 × 10 000 counts (80 MB) for at most
        // 20 000 non-zero cells. The arena must stay within a small
        // multiple of the cells, whatever the domains.
        let mut b = TableBuilder::new(["x", "y", "z"]);
        let mut state = 0x9E37_79B9u64;
        let mut next = |k: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % k).to_string()
        };
        for _ in 0..20_000 {
            b.push_row(
                [next(2), next(5_000), next(1_000)]
                    .iter()
                    .map(String::as_str),
            )
            .unwrap();
        }
        let t = b.finish();
        let [x, y, z] = ["x", "y", "z"].map(|n| t.attr(n).unwrap());
        assert!(t.cardinality(y) > 4_500 && t.cardinality(z) == 1_000);
        let s = Stratified::build(&t, &t.all_rows(), x, y, &[z]);
        assert_eq!((s.num_groups(), s.total()), (1_000, 20_000));
        let cells = ContingencyTable::from_table(&t, &t.all_rows(), &[z, x, y]).support();
        assert!(cells > 19_000);
        let bytes = s.approx_bytes() as u64;
        assert!(bytes <= 64 * cells, "{bytes} bytes for {cells} cells");
    }

    #[test]
    fn parallel_count_is_thread_count_invariant() {
        // Dense and sparse attribute sets must both produce byte-identical
        // tables (cells *and* iteration order) at every thread count and,
        // below, at every chunk layout: 40 000 rows are two chunks of a
        // sparse count and, by themselves, one of a dense count.
        let names = ["a", "b", "c", "d"];
        let mut b = TableBuilder::new(names);
        for i in 0..40_000usize {
            let vals: Vec<String> = (0..4)
                .map(|j| ((i * 7 + j * 13) % 40).to_string())
                .collect();
            b.push_row(vals.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let ids: Vec<AttrId> = t.schema().attr_ids().collect();
        // 2 attrs: 40*40 cells -> dense. 4 attrs: 40^4 > 2^20 -> sparse.
        for attrs in [&ids[0..2], &ids[0..4]] {
            let count = |threads: usize| {
                hypdb_exec::set_global_threads(threads);
                let ct = ContingencyTable::from_table(&t, &t.all_rows(), attrs);
                hypdb_exec::set_global_threads(0);
                ct
            };
            let base = count(1);
            assert_eq!(base.total(), 40_000);
            for threads in [2, 4, 7] {
                let ct = count(threads);
                assert_eq!(ct.total(), base.total());
                assert_eq!(ct.cells(), base.cells(), "threads={threads}");
            }
            let image = SelectionImage::new(&t, t.all_rows());
            let columns: Vec<&Codes> = attrs.iter().map(|&a| image.column(a)).collect();
            for chunks in [2, 4, 7] {
                hypdb_exec::set_global_threads(chunks);
                let ct = ContingencyTable::count_in(
                    chunks,
                    attrs.to_vec(),
                    base.dims().to_vec(),
                    &columns,
                    40_000,
                );
                hypdb_exec::set_global_threads(0);
                assert_eq!(ct.cells(), base.cells(), "chunks={chunks}");
            }
        }
    }

    #[test]
    fn a_count_fans_out_only_over_chunks_worth_a_worker() {
        // adult 150k, dense: one pass on the calling thread at any count.
        for threads in [1, 2, 8] {
            assert_eq!(chunks_for(150_000, DENSE_CHUNK_ROWS, threads), 1);
        }
        assert_eq!(chunks_for(2 * DENSE_CHUNK_ROWS - 1, DENSE_CHUNK_ROWS, 4), 1);
        assert_eq!(chunks_for(2 * DENSE_CHUNK_ROWS, DENSE_CHUNK_ROWS, 4), 2);
        assert_eq!(chunks_for(2 * DENSE_CHUNK_ROWS, DENSE_CHUNK_ROWS, 1), 1);
        assert_eq!(chunks_for(9 * DENSE_CHUNK_ROWS, DENSE_CHUNK_ROWS, 4), 4);
        // Sparse: what the fixed 2^15 threshold was at two workers.
        assert_eq!(chunks_for((1 << 15) - 1, SPARSE_CHUNK_ROWS, 2), 1);
        assert_eq!(chunks_for(1 << 15, SPARSE_CHUNK_ROWS, 2), 2);
        assert_eq!(chunks_for(40_000, SPARSE_CHUNK_ROWS, 7), 2);
        assert_eq!(chunks_for(0, SPARSE_CHUNK_ROWS, 7), 1);
        // More chunks than positions is one pass, not an empty merge.
        let mut b = TableBuilder::new(["a"]);
        for value in ["x", "y", "x"] {
            b.push_row([value]).unwrap();
        }
        let t = b.finish();
        let image = SelectionImage::new(&t, t.all_rows());
        let column = [image.column(AttrId(0))];
        let ct = ContingencyTable::count_in(7, vec![AttrId(0)], vec![2], &column, 3);
        assert_eq!((ct.get(&[0]), ct.get(&[1]), ct.total()), (2, 1, 3));
    }

    #[test]
    fn dense_and_sparse_agree() {
        // Force sparse by a huge fake dimension product: build a table
        // with many attributes instead (7 attrs x 8 codes = 2^21 cells).
        let names: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
        let mut b = TableBuilder::new(names);
        for i in 0..64u32 {
            let vals: Vec<String> = (0..7).map(|j| ((i >> j) % 8).to_string()).collect();
            b.push_row(vals.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let ids: Vec<AttrId> = t.schema().attr_ids().collect();
        let full = ContingencyTable::from_table(&t, &t.all_rows(), &ids);
        assert_eq!(full.total(), 64);
        // Marginal over two attrs must agree with direct counting.
        let m = full.marginal(&[0, 1]);
        let direct = ContingencyTable::from_table(&t, &t.all_rows(), &ids[0..2]);
        let mut cells_a = m.cells();
        let mut cells_b = direct.cells();
        cells_a.sort();
        cells_b.sort();
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn sorted_cells_iterate_in_key_order_without_duplicates() {
        // Sparse storage keeps cells pre-sorted: iteration must visit
        // strictly ascending keys (no per-call sort, no merged-run
        // duplicates) and the cached support must match the walk.
        let names: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
        let mut b = TableBuilder::new(names);
        for i in 0..200u32 {
            let vals: Vec<String> = (0..7)
                .map(|j| ((i.wrapping_mul(31) >> j) % 8).to_string())
                .collect();
            b.push_row(vals.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let ids: Vec<AttrId> = t.schema().attr_ids().collect();
        let ct = ContingencyTable::from_table(&t, &t.all_rows(), &ids);
        let mut seen = 0u64;
        let mut prev: Option<Vec<u32>> = None;
        ct.for_each(|key, count| {
            assert!(count > 0);
            if let Some(p) = &prev {
                assert!(p.as_slice() < key, "cells out of order");
            }
            prev = Some(key.to_vec());
            // Binary-search lookup agrees with the walk.
            assert_eq!(ct.get(key), count);
            seen += 1;
        });
        assert_eq!(seen, ct.support());
        assert!(ct.approx_bytes() >= seen * (4 * 7 + 8));
    }

    #[test]
    fn sparse_marginals_agree_prefix_and_permuted() {
        // 8 attrs x 8 codes = 2^24 cells: the full table and its 7-attr
        // marginals all stay sparse, exercising both the prefix
        // fast path and the project+sort general path.
        let names: Vec<String> = (0..8).map(|i| format!("a{i}")).collect();
        let mut b = TableBuilder::new(names);
        for i in 0..300u32 {
            let vals: Vec<String> = (0..8)
                .map(|j| ((i.wrapping_mul(2654435761) >> (2 * j)) % 8).to_string())
                .collect();
            b.push_row(vals.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let ids: Vec<AttrId> = t.schema().attr_ids().collect();
        let full = ContingencyTable::from_table(&t, &t.all_rows(), &ids);
        // Prefix projection: [a0..a6] — sorted order survives, run merge.
        let prefix = full.marginal(&[0, 1, 2, 3, 4, 5, 6]);
        let direct_prefix = ContingencyTable::from_table(&t, &t.all_rows(), &ids[0..7]);
        assert_eq!(prefix.cells(), direct_prefix.cells());
        // Permuted projection: [a1, a0, a7, a2, a3, a4, a5] — needs the
        // sort path; compare against a direct count in the same order.
        let keep = [1usize, 0, 7, 2, 3, 4, 5];
        let perm_attrs: Vec<AttrId> = keep.iter().map(|&p| ids[p]).collect();
        let perm = full.marginal(&keep);
        let direct_perm = ContingencyTable::from_table(&t, &t.all_rows(), &perm_attrs);
        assert_eq!(perm.attrs(), perm_attrs.as_slice());
        assert_eq!(perm.cells(), direct_perm.cells());
    }
}
