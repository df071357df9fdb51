//! Conditional-independence testing (§5, §6): the χ²/G test, the MIT
//! Monte-Carlo permutation test over contingency tables (Alg 2), MIT
//! with weighted group sampling, the HyMIT hybrid, and the naive
//! row-shuffling baseline MIT replaces.
//!
//! All tests decide `(X ⊥⊥ Y | Z)` from a *stratified* summary of the
//! data: one `|X|×|Y|` cross tab per group `z ∈ Π_Z(D)`. The observed
//! statistic is the plug-in conditional mutual information
//! `Î(X;Y|Z) = Σ_z Pr(z)·Î_z(X;Y)`; plug-in (rather than Miller–Madow)
//! is used *inside* tests so that the observed and permuted statistics
//! are computed by the identical formula.
//!
//! The summary is a [`Strata`]: one compact arena of the non-zero cells
//! and the non-empty marginals of every group, so a test's cost follows
//! the size of the summary — not the data, and not the attribute
//! domains (a 5 000-level attribute over 1 000 groups is as many cells
//! as the data put there, not 1 000 × 5 000-wide tables). It is built
//! by [`StrataBuilder`] from cells sorted by `(z…, x, y)`.
//!
//! Each decision is stated once. [`MitConfig::regime`] is HyMIT's
//! χ²-or-MIT rule (`df·β ≤ n`); [`hymit`] and the data oracle both
//! dispatch on it. [`mit_settle_one`] is the one permutation engine and
//! holds the screening ladder: a [`MitJob`] only says whether to screen
//! and at which α. [`TestOutcome::chi2`] is the one χ² outcome.

use crate::crosstab::CrossTab;
use crate::entropy::{entropy_plugin, mi_term};
use crate::math::chi2_sf;
use crate::patefield::{PermPlans, Scratch};
use crate::random::{self, shuffle, weighted_indices_without_replacement};
use hypdb_exec::{seed, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which procedure produced a [`TestOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestMethod {
    /// Asymptotic G test against the χ² distribution.
    ChiSquared,
    /// Monte-Carlo permutation test on contingency tables (Alg 2).
    Mit,
    /// MIT restricted to a weighted sample of the conditioning groups.
    MitSampled,
    /// Naive permutation test that reshuffles the raw data column.
    Shuffle,
}

/// Result of an independence test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestOutcome {
    /// The estimated (conditional) mutual information `Î(X;Y|Z)` in nats.
    pub statistic: f64,
    /// p-value of the null hypothesis `I(X;Y|Z) = 0`.
    pub p_value: f64,
    /// 95 % binomial confidence interval around the Monte-Carlo p-value
    /// (permutation tests only).
    pub ci95: Option<(f64, f64)>,
    /// Degrees of freedom (χ² test only).
    pub df: Option<f64>,
    /// Procedure used.
    pub method: TestMethod,
    /// Number of Monte-Carlo permutations (permutation tests only).
    pub permutations: Option<usize>,
}

impl TestOutcome {
    /// The asymptotic χ² (G) outcome: the statistic `Î` over `n` rows
    /// has `2nÎ` χ²-distributed with `df` degrees of freedom under the
    /// null. No degrees of freedom, or no positive statistic, is
    /// `p = 1` ([`chi2_sf`]).
    pub fn chi2(statistic: f64, n: u64, df: f64) -> TestOutcome {
        TestOutcome {
            statistic,
            p_value: chi2_sf(2.0 * n as f64 * statistic.max(0.0), df),
            ci95: None,
            df: Some(df),
            method: TestMethod::ChiSquared,
            permutations: None,
        }
    }

    /// True when the null of independence is *not* rejected at level
    /// `alpha`.
    #[inline]
    pub fn independent(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }

    /// True when dependence is significant at level `alpha`.
    #[inline]
    pub fn dependent(&self, alpha: f64) -> bool {
        !self.independent(alpha)
    }
}

/// One non-zero cell of a conditioning group: its position among the
/// group's *non-empty* rows and columns, and its count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Cell {
    row: u32,
    col: u32,
    count: u64,
}

/// Where one conditioning group lives in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Group {
    /// Its cells are `cells[cells_at..]`, up to the next group's.
    cells_at: usize,
    /// `margins[margins_at..]`: its `rows` row sums, then its `cols`
    /// column sums; `codes` holds their dictionary codes in step.
    margins_at: usize,
    rows: usize,
    cols: usize,
    total: u64,
}

/// Stratified cross-tabulation of `(X, Y)` within each group of `Z`.
///
/// The group list is the support `Π_Z(D)`; an unconditional test is the
/// special case of a single stratum.
///
/// Stored as one arena — four vectors however many groups there are,
/// none sized by a dictionary cardinality: the non-zero cells,
/// group-major and row-major inside a group, and per group its total
/// and its non-empty row and column sums in code order. Every consumer
/// reads that form. The float results are those of a dense `r×c` table
/// per group, bit for bit: a dense walk adds nothing at a zero cell or
/// an empty margin, and meets the non-zero ones in this same order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Strata {
    cells: Vec<Cell>,
    groups: Vec<Group>,
    margins: Vec<u64>,
    /// Dictionary code of each `margins` entry ([`Strata::paper_dof`]
    /// measures supports across groups).
    codes: Vec<u32>,
    total: u64,
}

/// One group's slices of the arena.
struct GroupView<'a> {
    cells: &'a [Cell],
    rows: &'a [u64],
    cols: &'a [u64],
    total: u64,
}

impl GroupView<'_> {
    /// Plug-in `Î_z(X;Y)`: the cells, order and operations of
    /// `entropy::mi_from_matrix` on the dense table.
    fn mutual_information(&self) -> f64 {
        let nf = self.total as f64;
        let mut mi = 0.0;
        for cell in self.cells {
            let denom = self.rows[cell.row as usize] as f64 * self.cols[cell.col as usize] as f64;
            mi += mi_term(cell.count as f64, nf, denom);
        }
        (mi / nf).max(0.0)
    }
}

/// Builds a [`Strata`] from cells that arrive sorted: group after group
/// in the order the groups are to keep (ascending conditioning key),
/// and inside a group in ascending `(x, y)` code order.
///
/// Closing a group numbers its distinct column codes in ascending order
/// through a code-indexed map, one lookup per cell: no sort of the
/// group's cells and no search. The map grows to the largest column
/// code seen (4 bytes a code) and is reset through the group's own
/// codes, never cleared whole.
#[derive(Debug, Default)]
pub struct StrataBuilder {
    strata: Strata,
    /// Where the open group's cells start.
    open_at: usize,
    /// Scratch: the open group's distinct column codes.
    ys: Vec<u32>,
    /// Scratch: the open group's column position of each code,
    /// [`NO_COLUMN`] for a code the group has not met.
    col_of: Vec<u32>,
}

/// A code's slot in [`StrataBuilder`]'s column map while the open group
/// has no cell in that column.
const NO_COLUMN: u32 = u32::MAX;

impl StrataBuilder {
    /// Adds the cell `(x, y)` — dictionary codes — to the open group.
    /// Zero counts are dropped.
    pub fn push(&mut self, x: u32, y: u32, count: u64) {
        if count > 0 {
            // Codes for now; `next_group` turns them into positions.
            self.strata.cells.push(Cell {
                row: x,
                col: y,
                count,
            });
        }
    }

    /// Closes the open group; the next cell opens a new one. A group
    /// that received no cell leaves no trace.
    pub fn next_group(&mut self) {
        let Strata {
            cells,
            groups,
            margins,
            codes,
            total,
        } = &mut self.strata;
        let open = &mut cells[self.open_at..];
        if open.is_empty() {
            return;
        }
        assert!(
            open.windows(2)
                .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)),
            "a group's cells must arrive in ascending (x, y) order"
        );
        let margins_at = margins.len();
        let mut group_total = 0u64;
        // Cells are x-major: every run of one x code is one row. A
        // column code is collected the first time the group meets it.
        let (ys, col_of) = (&mut self.ys, &mut self.col_of);
        ys.clear();
        for cell in open.iter_mut() {
            if margins.len() == margins_at || codes.last() != Some(&cell.row) {
                margins.push(0);
                codes.push(cell.row);
            }
            let row = margins.len() - 1;
            margins[row] += cell.count;
            group_total += cell.count;
            cell.row = (row - margins_at) as u32;
            let y = cell.col as usize;
            if y >= col_of.len() {
                col_of.resize(y + 1, NO_COLUMN);
            }
            if col_of[y] == NO_COLUMN {
                col_of[y] = 0;
                ys.push(cell.col);
            }
        }
        let rows = margins.len() - margins_at;
        // Met row by row, the codes are already ascending unless a
        // later row has a column an earlier one lacks; then the
        // distinct codes (not the cells) are sorted.
        if !ys.is_sorted() {
            ys.sort_unstable();
        }
        for (col, &y) in ys.iter().enumerate() {
            col_of[y as usize] = col as u32;
        }
        let cols_at = margins.len();
        margins.resize(cols_at + ys.len(), 0);
        codes.extend_from_slice(ys);
        for cell in open.iter_mut() {
            let col = col_of[cell.col as usize];
            margins[cols_at + col as usize] += cell.count;
            cell.col = col;
        }
        for &y in ys.iter() {
            col_of[y as usize] = NO_COLUMN;
        }
        groups.push(Group {
            cells_at: self.open_at,
            margins_at,
            rows,
            cols: ys.len(),
            total: group_total,
        });
        *total += group_total;
        self.open_at = cells.len();
    }

    /// Closes the last group and returns the strata.
    pub fn finish(mut self) -> Strata {
        self.next_group();
        self.strata
    }
}

impl Strata {
    /// Builds from dense per-group cross tabs (empty groups are
    /// dropped).
    pub fn new(groups: Vec<CrossTab>) -> Self {
        let mut b = StrataBuilder::default();
        for tab in &groups {
            let c = tab.ncols();
            for (k, &count) in tab.counts().iter().enumerate() {
                b.push((k / c) as u32, (k % c) as u32, count);
            }
            b.next_group();
        }
        b.finish()
    }

    /// Unconditional case: one stratum.
    pub fn single(tab: CrossTab) -> Self {
        Strata::new(vec![tab])
    }

    fn group(&self, g: usize) -> GroupView<'_> {
        let at = &self.groups[g];
        let cells_end = self
            .groups
            .get(g + 1)
            .map_or(self.cells.len(), |next| next.cells_at);
        let (rows, cols) = self.margins[at.margins_at..][..at.rows + at.cols].split_at(at.rows);
        GroupView {
            cells: &self.cells[at.cells_at..cells_end],
            rows,
            cols,
            total: at.total,
        }
    }

    /// Total sample size `n`.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of conditioning groups `|Π_Z(D)|`.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Heap bytes held: a small multiple of the non-zero cell count,
    /// whatever the attribute domains.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<Cell>()
            + self.groups.capacity() * size_of::<Group>()
            + self.margins.capacity() * size_of::<u64>()
            + self.codes.capacity() * size_of::<u32>()
    }

    /// Plug-in conditional mutual information
    /// `Î(X;Y|Z) = Σ_z Pr(z)·Î_z(X;Y)`.
    pub fn cmi_plugin(&self) -> f64 {
        self.cmi_over(0..self.groups.len())
    }

    /// The plug-in CMI restricted to `groups`, in that order, with
    /// `Pr(z)` against the *whole* `n` — so a sampled statistic stays
    /// comparable with the full-data one (dropped groups have ≈0
    /// contribution).
    fn cmi_over(&self, groups: impl Iterator<Item = usize>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        groups
            .map(|g| {
                let g = self.group(g);
                g.total as f64 / n * g.mutual_information()
            })
            .sum()
    }

    /// Degrees of freedom for the asymptotic test, summed over groups on
    /// their non-empty rows/columns: `Σ_z (r'_z−1)(c'_z−1)`. This equals
    /// the paper's `(|Π_X|−1)(|Π_Y|−1)|Π_Z|` when every group is full,
    /// and is the correct count when sub-populations lose categories.
    pub fn dof(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| ((g.rows - 1) * (g.cols - 1)) as f64)
            .sum()
    }

    /// The paper's df formula `(|Π_X|−1)(|Π_Y|−1)·|Π_Z|`, with supports
    /// measured across the whole strata. Unlike [`Strata::dof`], singleton
    /// groups count fully — which is exactly what makes this the right
    /// *sparseness gauge* for HyMIT's χ²-vs-MIT switch: a conditioning
    /// set that shatters the data into singleton groups contributes no
    /// effective dof yet badly inflates the plug-in CMI.
    pub fn paper_dof(&self) -> f64 {
        let (mut xs, mut ys): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for g in &self.groups {
            let (x, y) = self.codes[g.margins_at..][..g.rows + g.cols].split_at(g.rows);
            xs.extend_from_slice(x);
            ys.extend_from_slice(y);
        }
        let support = |codes: &mut Vec<u32>| {
            codes.sort_unstable();
            codes.dedup();
            codes.len().max(1)
        };
        let (r, c) = (support(&mut xs), support(&mut ys));
        ((r - 1) * (c - 1) * self.groups.len().max(1)) as f64
    }

    /// The MIT group-sampling weights of §5:
    /// `w_z = Pr(z)·max(H(X|Z=z), H(Y|Z=z))` — a group whose weight is
    /// ≈0 cannot move the p-value.
    pub fn group_weights(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        let n = self.total as f64;
        (0..self.groups.len())
            .map(|g| {
                let g = self.group(g);
                let pz = g.total as f64 / n;
                let hx = entropy_plugin(g.rows.iter().copied());
                let hy = entropy_plugin(g.cols.iter().copied());
                pz * hx.max(hy)
            })
            .collect()
    }
}

/// How much a statement's data says, by its degrees of freedom `df`
/// against its rows `n` ([`MitConfig::regime`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `df = 0`: one of the variables does not vary.
    Degenerate,
    /// `df > 0` and `df·β ≤ n`: enough rows per degree of freedom for
    /// the χ² approximation.
    Asymptotic,
    /// `df·β > n`: too few rows for χ²; only a permutation test is
    /// calibrated.
    Sparse,
}

/// Configuration for the permutation-based tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MitConfig {
    /// Number of Monte-Carlo permutation samples `m`.
    pub permutations: usize,
    /// HyMIT switches to the χ² approximation when `df · beta ≤ n`
    /// (§6; β = 5 "is ideal"; see [`MitConfig::regime`]).
    pub beta: f64,
}

impl Default for MitConfig {
    fn default() -> Self {
        MitConfig {
            permutations: 100,
            beta: 5.0,
        }
    }
}

impl MitConfig {
    /// HyMIT's rule (§6): trust χ² when `df·β ≤ n`, otherwise run MIT.
    ///
    /// A degenerate statement (`df = 0`) is its own regime because two
    /// questions read it differently. *How to settle it:* it needs no
    /// permutations — its p-value is 1 under χ² and under MIT alike —
    /// so HyMIT settles it by χ², as every regime but [`Regime::Sparse`].
    /// *Whether an acceptance means anything:* never — a failure to
    /// reject with no degrees of freedom carries no evidence — so only
    /// [`Regime::Asymptotic`] supports a separation.
    pub fn regime(&self, df: f64, n: u64) -> Regime {
        if df <= 0.0 {
            Regime::Degenerate
        } else if df * self.beta <= n as f64 {
            Regime::Asymptotic
        } else {
            Regime::Sparse
        }
    }

    /// The paper's group-sampling rule of thumb: a sample of size
    /// proportional to `log |Π_Z(D)|` (§7.3). The constant is not given
    /// in the paper; `32·⌈ln g⌉` (floor 16) keeps the test powerful for
    /// the mid-size effects of Fig 5(a) while still sub-linear in the
    /// group count.
    pub fn auto_group_sample(num_groups: usize) -> usize {
        let g = num_groups.max(1) as f64;
        (32.0 * g.ln().ceil()).max(16.0) as usize
    }

    /// The automatic group-sampling rule: exact MIT (`None`) over up to
    /// 64 conditioning groups, a weighted sample of
    /// [`MitConfig::auto_group_sample`] of them beyond.
    pub fn auto_group_sampling(num_groups: usize) -> Option<usize> {
        (num_groups > 64).then(|| MitConfig::auto_group_sample(num_groups))
    }
}

fn binomial_ci(p: f64, m: usize) -> (f64, f64) {
    let half = 1.96 * (p * (1.0 - p) / m.max(1) as f64).sqrt();
    ((p - half).max(0.0), (p + half).min(1.0))
}

/// Asymptotic χ² (G) test of `I(X;Y|Z) = 0`: the statistic `2nÎ` is
/// χ²-distributed with [`Strata::dof`] degrees of freedom under the null.
pub fn chi2_test(strata: &Strata) -> TestOutcome {
    TestOutcome::chi2(strata.cmi_plugin(), strata.total(), strata.dof())
}

/// Number of permutations evaluated per work chunk. The chunk layout
/// (and hence every per-chunk RNG seed) is a pure function of `m`, so
/// the permutation ensemble is identical at any thread count. 16 is the
/// granularity of the screening checkpoints ([`mit_settle_one`]): a
/// checkpoint must sit on a whole chunk for the screened prefix to be
/// a bit-exact prefix of the single-stage stream (RNG consumption
/// inside a chunk is group-major, so prefixes only exist at chunk
/// boundaries).
pub const PERM_CHUNK: usize = 16;

/// The MIT permutation test (Alg 2): for each conditioning group, draw
/// `m` contingency tables with the observed marginals (Patefield's
/// algorithm, or unit placement on a large sparse group — see
/// [`crate::patefield`]), aggregate the per-group MIs with weights
/// `Pr(z)` into `m` permutation statistics, and report the fraction ≥
/// the observed CMI together with a 95 % binomial confidence interval.
///
/// The `m` permutations are evaluated in fixed-size chunks on the
/// global worker pool ([`hypdb_exec::global_threads`]); each chunk owns
/// an RNG seeded from one master draw off `rng` plus the chunk index,
/// so the outcome is bit-identical at any thread count.
pub fn mit(strata: &Strata, m: usize, rng: &mut impl Rng) -> TestOutcome {
    settle_full(strata, m, None, rng)
}

/// The chunked permutation-stream evaluator behind [`mit_settle_one`]:
/// owns the observed statistic, the one master seed, and the per-group
/// plans of the non-degenerate groups, and counts permutation hits over
/// any whole-chunk span of the stream. Because chunk `i` is always
/// seeded `mix(master, i)`, a span's hit count is a pure function of
/// `(strata, master, span)` — which is what lets a staged run stop at a
/// checkpoint and later *continue* the very same stream.
struct ChunkWalker {
    s0: f64,
    master: u64,
    plans: PermPlans,
    m: usize,
}

impl ChunkWalker {
    /// Consumes one master draw off `rng` (exactly as every
    /// permutation path always has) and plans every group once — all
    /// of them, or the `picked` sample in its order — from its stored
    /// marginals. Degenerate groups are dropped — their MI is
    /// identically 0 under any permutation.
    fn new(strata: &Strata, picked: Option<&[usize]>, m: usize, rng: &mut impl Rng) -> ChunkWalker {
        assert!(m > 0, "need at least one permutation");
        let every: Vec<usize>;
        let picked = match picked {
            Some(picked) => picked,
            None => {
                every = (0..strata.num_groups()).collect();
                &every
            }
        };
        let s0 = strata.cmi_over(picked.iter().copied());
        let n = strata.total() as f64;
        let master = rng.next_u64();
        let mut plans = PermPlans::default();
        for &g in picked {
            let g = strata.group(g);
            if g.rows.len() >= 2 && g.cols.len() >= 2 {
                plans.push(g.rows, g.cols, g.total as f64 / n);
            }
        }
        ChunkWalker {
            s0,
            master,
            plans,
            m,
        }
    }

    fn chunks(&self) -> usize {
        self.m.div_ceil(PERM_CHUNK)
    }

    fn run_chunk(&self, range: std::ops::Range<usize>) -> usize {
        let chunk_idx = (range.start / PERM_CHUNK) as u64;
        let mut rng = StdRng::seed_from_u64(seed::mix(self.master, chunk_idx));
        let mut stats = [0.0f64; PERM_CHUNK];
        let stats = &mut stats[..range.len()];
        // One scratch per chunk: the pool's threads are scoped to a
        // fan-out, so nothing longer-lived would be reused.
        let mut scratch = Scratch::default();
        random::LAWS.with_borrow_mut(|laws| {
            for g in 0..self.plans.len() {
                for s in stats.iter_mut() {
                    *s += self.plans.permuted_term(g, &mut rng, laws, &mut scratch);
                }
            }
        });
        // Strict "≥" with a small tolerance: the observed table is
        // itself a draw from the null ensemble, so ties count towards
        // the p-value.
        let tol = 1e-12;
        stats.iter().filter(|&&s| s >= self.s0 - tol).count()
    }

    /// Hits over chunks `[from, to)`, fanned out on the current pool.
    fn run_span(&self, from: usize, to: usize) -> usize {
        let pool = ThreadPool::current();
        let partials = pool.map_indices(to - from, |i| {
            let lo = (from + i) * PERM_CHUNK;
            self.run_chunk(lo..(lo + PERM_CHUNK).min(self.m))
        });
        partials.iter().sum()
    }

    fn outcome(&self, hits: usize, done: usize, method: TestMethod) -> TestOutcome {
        let p = hits as f64 / done as f64;
        TestOutcome {
            statistic: self.s0,
            p_value: p,
            ci95: Some(binomial_ci(p, done)),
            df: None,
            method,
            permutations: Some(done),
        }
    }
}

/// The weighted sample of at most `k` conditioning groups (weights from
/// [`Strata::group_weights`]), ascending; `None` — and no draw off `rng`
/// — when `k` covers every group.
fn sample_groups(strata: &Strata, k: usize, rng: &mut impl Rng) -> Option<Vec<usize>> {
    (k < strata.num_groups())
        .then(|| weighted_indices_without_replacement(rng, &strata.group_weights(), k))
}

/// One statement's permutation-test job ([`mit_settle_one`]): its
/// stratified summary, its budget, its group sample and whether to
/// screen.
#[derive(Debug, Clone)]
pub struct MitJob<'a> {
    /// Stratified cross tabs of `(X, Y)` given `Z`.
    pub strata: &'a Strata,
    /// Monte-Carlo budget `m`.
    pub permutations: usize,
    /// `Some(k)`: weighted sample of at most `k` conditioning groups
    /// (as [`mit_sampled`] does); `None`: exact MIT.
    pub group_sample: Option<usize>,
    /// `Some(alpha)`: screen, settling at the first whole chunk whose
    /// prefix already implies the full budget's verdict at `alpha`;
    /// `None`: run the whole budget, as a direct call does.
    pub screen: Option<f64>,
}

/// How a job's screening went ([`StageReport::screening`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screening {
    /// Not screened: the job ran its whole budget in one stage.
    Unscreened,
    /// A screening checkpoint settled the verdict below the budget.
    Settled,
    /// Screened, but every checkpoint was near alpha: the job ran its
    /// whole budget.
    Escalated,
}

/// Per-job settle facts reported by [`mit_settle_one`] alongside the
/// outcome — the feedstock of the `hypdb_mit_*` counters and nothing
/// else (never any report byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Permutations actually evaluated.
    pub permutations: usize,
    /// Whether the job was screened, and where it settled.
    pub screening: Screening,
}

/// Settles one job start to finish — the one engine behind every
/// permutation test.
///
/// Group sampling is resolved first (the weighted pick, then the master
/// draw off `rng`), so a screened prefix is bit for bit the prefix of
/// what a single-stage run evaluates.
///
/// **The screening ladder.** A job screens iff it asks to
/// (`screen: Some(alpha)`), its budget `m` exceeds two chunks
/// ([`PERM_CHUNK`]) and its strata have effective degrees of freedom
/// ([`Strata::dof`] > 0). Shattered strata (dof 0) have a degenerate
/// permutation ensemble, so a screening verdict there would rest on no
/// evidence. A screened job checks after every whole chunk below `m`:
/// under prefix coupling the dense ladder is optimal in permutation
/// work, since an escalated job costs exactly `m` whatever it passed.
/// It settles at a checkpoint only inside a band of confidence 1, which
/// makes verdict identity a theorem rather than a probability. With
/// `hits` hits after `done` of `m` permutations, the job is
///
/// * *decisively independent* iff `hits / m > alpha` — hits only grow,
///   so the full run has `p ≥ hits/m > alpha`;
/// * *decisively dependent* iff `(hits + m − done) / m ≤ alpha` — even
///   if every remaining permutation hit, the full run would have
///   `p ≤ alpha`;
/// * *near alpha* otherwise, and it goes on to the next checkpoint.
///
/// Both bounds are monotone under IEEE rounding (single divisions of
/// exact integers), so the implied verdict equals the single-stage
/// float comparison bit for bit. Escalation continues the remaining
/// chunks of the same stream, so its hit count and every byte of its
/// outcome are the single-stage run's. The ladder depends only on `m`,
/// the strata and `alpha` — never on the thread count or timing.
///
/// Direct calls ([`mit`], [`mit_sampled`], [`mit_auto`], [`hymit`]) do
/// not screen: their p-values are reported verbatim, so they always
/// earn the full budget's resolution.
pub fn mit_settle_one(job: &MitJob, rng: &mut impl Rng) -> (TestOutcome, StageReport) {
    let (picked, method) = match job.group_sample {
        Some(k) => (sample_groups(job.strata, k, rng), TestMethod::MitSampled),
        None => (None, TestMethod::Mit),
    };
    let m = job.permutations;
    let walker = ChunkWalker::new(job.strata, picked.as_deref(), m, rng);
    let screen = job
        .screen
        .filter(|_| m > 2 * PERM_CHUNK && job.strata.dof() > 0.0);
    let (mut hits, mut walked) = (0usize, 0usize);
    let mut screening = Screening::Unscreened;
    if let Some(alpha) = screen {
        screening = Screening::Escalated;
        for chunk in 1..walker.chunks() {
            hits += walker.run_span(walked, chunk);
            walked = chunk;
            let done = chunk * PERM_CHUNK;
            let independent = hits as f64 / m as f64 > alpha;
            let dependent = (hits + (m - done)) as f64 / m as f64 <= alpha;
            if independent || dependent {
                let report = StageReport {
                    permutations: done,
                    screening: Screening::Settled,
                };
                return (walker.outcome(hits, done, method), report);
            }
        }
    }
    hits += walker.run_span(walked, walker.chunks());
    let report = StageReport {
        permutations: m,
        screening,
    };
    (walker.outcome(hits, m, method), report)
}

/// A direct call's single-stage job over `strata`, settled on `rng`.
fn settle_full(
    strata: &Strata,
    m: usize,
    group_sample: Option<usize>,
    rng: &mut impl Rng,
) -> TestOutcome {
    let job = MitJob {
        strata,
        permutations: m,
        group_sample,
        screen: None,
    };
    mit_settle_one(&job, rng).0
}

/// MIT with automatic group sampling: exact over all conditioning
/// groups when their number is small, weighted-sampled otherwise. This
/// is the procedure §7.1 prescribes for testing the significance of
/// query-answer differences (1 000 permutations in the paper).
pub fn mit_auto(strata: &Strata, m: usize, rng: &mut impl Rng) -> TestOutcome {
    let k = MitConfig::auto_group_sampling(strata.num_groups());
    settle_full(strata, m, k, rng)
}

/// MIT restricted to a weighted sample of at most `k` conditioning
/// groups (weights from [`Strata::group_weights`]); both the observed
/// and permuted statistics are computed on the sampled groups so they
/// remain comparable.
pub fn mit_sampled(strata: &Strata, m: usize, k: usize, rng: &mut impl Rng) -> TestOutcome {
    settle_full(strata, m, Some(k), rng)
}

/// HyMIT (§6): χ² unless [`MitConfig::regime`] calls the statement
/// sparse (df measured by the paper's formula, so that singleton
/// conditioning groups register as sparseness), MIT otherwise — with
/// automatic group sampling when the conditioning support is large.
pub fn hymit(strata: &Strata, cfg: &MitConfig, rng: &mut impl Rng) -> TestOutcome {
    match cfg.regime(strata.paper_dof(), strata.total()) {
        Regime::Sparse => mit_auto(strata, cfg.permutations, rng),
        Regime::Degenerate | Regime::Asymptotic => chi2_test(strata),
    }
}

/// The naive permutation test MIT replaces: physically reshuffle the `X`
/// column within each `Z` group `m` times and recompute the CMI on the
/// raw rows. `x`/`y` are dictionary codes, `groups` assigns each row to
/// a conditioning group. Complexity `O(m·n)` — kept as the baseline for
/// the Fig 6(b) "orders of magnitude" comparison.
pub fn shuffle_test(
    x: &[u32],
    y: &[u32],
    groups: &[u32],
    m: usize,
    rng: &mut impl Rng,
) -> TestOutcome {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), groups.len());
    assert!(m > 0, "need at least one permutation");
    let n = x.len();
    let r = x.iter().copied().max().map_or(0, |v| v as usize + 1);
    let c = y.iter().copied().max().map_or(0, |v| v as usize + 1);
    let g = groups.iter().copied().max().map_or(0, |v| v as usize + 1);

    // Partition row indices by group.
    let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (row, &gr) in groups.iter().enumerate() {
        by_group[gr as usize].push(row);
    }

    let build = |xs: &[u32]| -> Strata {
        let mut tabs: Vec<CrossTab> = (0..g).map(|_| CrossTab::zeros(r, c)).collect();
        for row in 0..n {
            tabs[groups[row] as usize].add(xs[row] as usize, y[row] as usize, 1);
        }
        Strata::new(tabs)
    };

    let s0 = build(x).cmi_plugin();
    let mut xs: Vec<u32> = x.to_vec();
    let mut hits = 0usize;
    let tol = 1e-12;
    for _ in 0..m {
        // Shuffle X within each group (destroys X–Y coupling, preserves
        // all marginals).
        for rows in &by_group {
            // Fisher–Yates over the positions of this group.
            let mut vals: Vec<u32> = rows.iter().map(|&i| xs[i]).collect();
            shuffle(rng, &mut vals);
            for (&i, v) in rows.iter().zip(vals) {
                xs[i] = v;
            }
        }
        if build(&xs).cmi_plugin() >= s0 - tol {
            hits += 1;
        }
    }
    let p = hits as f64 / m as f64;
    TestOutcome {
        statistic: s0,
        p_value: p,
        ci95: Some(binomial_ci(p, m)),
        df: None,
        method: TestMethod::Shuffle,
        permutations: Some(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patefield::{deals_units, sample_table};
    use crate::reference::DenseStrata;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2018)
    }

    /// Strongly dependent 2x2: diagonal mass.
    fn dependent_tab() -> CrossTab {
        CrossTab::new(2, 2, vec![45, 5, 5, 45])
    }

    /// Independent 2x2: product of (1/2,1/2)x(1/2,1/2).
    fn independent_tab() -> CrossTab {
        CrossTab::new(2, 2, vec![25, 25, 25, 25])
    }

    #[test]
    fn chi2_detects_dependence() {
        let s = Strata::single(dependent_tab());
        let out = chi2_test(&s);
        assert!(out.p_value < 0.001, "p={}", out.p_value);
        assert!(out.dependent(0.01));
        assert_eq!(out.method, TestMethod::ChiSquared);
        assert_eq!(out.df, Some(1.0));
    }

    #[test]
    fn chi2_accepts_independence() {
        let s = Strata::single(independent_tab());
        let out = chi2_test(&s);
        assert!(out.p_value > 0.9, "p={}", out.p_value);
        assert!(out.independent(0.01));
    }

    #[test]
    fn mit_detects_dependence() {
        let s = Strata::single(dependent_tab());
        let out = mit(&s, 400, &mut rng());
        assert!(out.p_value < 0.01, "p={}", out.p_value);
        let (lo, hi) = out.ci95.unwrap();
        assert!(lo <= out.p_value && out.p_value <= hi);
    }

    #[test]
    fn mit_accepts_independence() {
        let s = Strata::single(independent_tab());
        let out = mit(&s, 400, &mut rng());
        assert!(out.p_value > 0.5, "p={}", out.p_value);
    }

    #[test]
    fn mit_conditional_simpson() {
        // Within each stratum X ⊥ Y (exact product tables); pooling the
        // strata induces a strong marginal dependence via the stratum
        // variable (a confounder).
        let g_a = CrossTab::new(2, 2, vec![81, 9, 9, 1]); // rows p=.9, cols p=.9
        let g_b = CrossTab::new(2, 2, vec![1, 9, 9, 81]);
        let cond = Strata::new(vec![g_a.clone(), g_b.clone()]);
        let out_cond = mit(&cond, 300, &mut rng());
        assert!(out_cond.p_value > 0.1, "conditional p={}", out_cond.p_value);

        // Pooled table is dependent.
        let mut pooled = CrossTab::zeros(2, 2);
        for t in [&g_a, &g_b] {
            for i in 0..2 {
                for j in 0..2 {
                    pooled.add(i, j, t.get(i, j));
                }
            }
        }
        let out_marg = chi2_test(&Strata::single(pooled));
        assert!(out_marg.p_value < 0.05, "marginal p={}", out_marg.p_value);
    }

    #[test]
    fn mit_and_chi2_agree_on_clear_cases() {
        let mut r = rng();
        for tab in [dependent_tab(), independent_tab()] {
            let s = Strata::single(tab);
            let a = chi2_test(&s).p_value < 0.01;
            let b = mit(&s, 500, &mut r).p_value < 0.01;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mit_sampled_matches_mit_when_k_large() {
        let s = Strata::new(vec![dependent_tab(), dependent_tab()]);
        let a = mit_sampled(&s, 300, 10, &mut rng());
        assert!(a.p_value < 0.01);
        assert_eq!(a.method, TestMethod::MitSampled);
    }

    #[test]
    fn mit_sampled_restricts_groups() {
        // 40 groups; only 2 carry signal, but they carry most weight.
        let mut groups = vec![CrossTab::new(2, 2, vec![2, 1, 1, 2]); 38];
        groups.push(CrossTab::new(2, 2, vec![200, 20, 20, 200]));
        groups.push(CrossTab::new(2, 2, vec![200, 20, 20, 200]));
        let s = Strata::new(groups);
        let out = mit_sampled(&s, 200, 6, &mut rng());
        assert!(out.p_value < 0.05, "p={}", out.p_value);
    }

    #[test]
    fn hymit_switches_method() {
        // Large n, tiny df: chooses chi2.
        let s = Strata::single(CrossTab::new(2, 2, vec![500, 480, 520, 500]));
        let out = hymit(&s, &MitConfig::default(), &mut rng());
        assert_eq!(out.method, TestMethod::ChiSquared);

        // Tiny n relative to df: chooses a permutation method.
        let sparse = Strata::new(vec![CrossTab::new(4, 4, {
            let mut v = vec![0u64; 16];
            v[0] = 2;
            v[5] = 1;
            v[10] = 2;
            v[15] = 1;
            v
        })]);
        let out = hymit(&sparse, &MitConfig::default(), &mut rng());
        assert!(matches!(
            out.method,
            TestMethod::Mit | TestMethod::MitSampled
        ));
    }

    #[test]
    fn shuffle_test_agrees_with_mit() {
        // Construct raw data matching a stratified table and compare.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        // group 0: dependent; group 1: independent-ish
        for (g, tab) in [(0u32, dependent_tab()), (1u32, independent_tab())] {
            for i in 0..2u32 {
                for j in 0..2u32 {
                    for _ in 0..tab.get(i as usize, j as usize) {
                        x.push(i);
                        y.push(j);
                        z.push(g);
                    }
                }
            }
        }
        let mut r = rng();
        let out = shuffle_test(&x, &y, &z, 200, &mut r);
        assert!(out.p_value < 0.01, "p={}", out.p_value);
        assert_eq!(out.method, TestMethod::Shuffle);

        // Statistic must equal the strata-based CMI exactly.
        let s = Strata::new(vec![dependent_tab(), independent_tab()]);
        assert!((out.statistic - s.cmi_plugin()).abs() < 1e-12);
    }

    #[test]
    fn strata_accessors() {
        let s = Strata::new(vec![dependent_tab(), CrossTab::zeros(2, 2)]);
        assert_eq!(s.num_groups(), 1); // empty group dropped
        assert_eq!(s.total(), 100);
        let w = s.group_weights();
        assert_eq!(w.len(), 1);
        assert!(w[0] > 0.0);
    }

    #[test]
    fn auto_group_sample_floor() {
        assert!(MitConfig::auto_group_sample(1) >= 16);
        assert!(MitConfig::auto_group_sample(100_000) >= 16);
        assert!(
            MitConfig::auto_group_sample(100_000) < 1_000,
            "log-scaled sample stays sub-linear"
        );
    }

    #[test]
    fn mit_auto_dispatch() {
        // Few groups: exact MIT. Many groups: sampled.
        let small = Strata::new(vec![dependent_tab(); 4]);
        let out = mit_auto(&small, 100, &mut rng());
        assert_eq!(out.method, TestMethod::Mit);
        assert!(out.p_value < 0.01);
        // Exact product tables in every group: the observed CMI is 0.
        let many = Strata::new(vec![CrossTab::new(2, 2, vec![4, 4, 4, 4]); 200]);
        let out = mit_auto(&many, 100, &mut rng());
        assert_eq!(out.method, TestMethod::MitSampled);
        assert!(out.p_value > 0.5, "null data, p={}", out.p_value);
    }

    #[test]
    fn paper_dof_counts_singleton_groups() {
        // 100 singleton groups: effective dof = 0, paper dof = 100.
        let mut groups = Vec::new();
        for i in 0..100u64 {
            let mut t = CrossTab::zeros(2, 2);
            t.add((i % 2) as usize, ((i / 2) % 2) as usize, 1);
            groups.push(t);
        }
        let s = Strata::new(groups);
        assert_eq!(s.dof(), 0.0);
        assert_eq!(s.paper_dof(), 100.0);
        // HyMIT must therefore refuse the χ² shortcut (df·β = 500 > 100).
        let out = hymit(&s, &MitConfig::default(), &mut rng());
        assert_ne!(out.method, TestMethod::ChiSquared);
    }

    #[test]
    fn mit_is_calibrated_under_the_null() {
        // Product tables: the p-value distribution should be roughly
        // uniform; check the rejection rate at alpha = 0.1.
        let mut r = rng();
        let mut rejections = 0;
        let trials = 200;
        for i in 0..trials {
            // Resample a null dataset each trial.
            let t = sample_table(&mut r, &[40, 60], &[55, 45]);
            let s = Strata::single(t);
            let out = mit(&s, 60, &mut StdRng::seed_from_u64(i));
            if out.p_value <= 0.1 {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(
            rate < 0.2,
            "null rejection rate at alpha=0.1 is {rate} (should be ~0.1)"
        );
    }

    #[test]
    fn mit_outcome_is_thread_count_invariant() {
        // The tentpole invariant: same seed, any worker count ->
        // byte-identical statistic, p-value, and CI bounds. Exercises
        // multiple chunks (m > PERM_CHUNK) and several groups — dense
        // ones on Patefield's cell walk, and a large sparse strata
        // (3×32 on 49 rows per group) whose groups deal units.
        let dense = Strata::new(vec![
            dependent_tab(),
            independent_tab(),
            CrossTab::new(2, 2, vec![30, 20, 25, 25]),
        ]);
        let mut r = rng();
        let near_key = Strata::new(
            (0..4)
                .map(|_| {
                    let mut cols = vec![1u64; 24];
                    cols.extend([2, 2, 2, 3, 3, 4, 4, 5]);
                    sample_table(&mut r, &[20, 16, 13], &cols)
                })
                .collect(),
        );
        assert!((0..4).all(|g| {
            let g = near_key.group(g);
            deals_units(g.rows.len(), g.cols.len(), g.total)
        }));
        for s in [&dense, &near_key] {
            let run = |threads: usize| {
                hypdb_exec::set_global_threads(threads);
                let out = mit(s, 333, &mut rng());
                hypdb_exec::set_global_threads(0);
                out
            };
            let base = run(1);
            for threads in [2, 3, 4, 8] {
                let out = run(threads);
                assert_eq!(out, base, "threads={threads}");
                assert_eq!(out.p_value.to_bits(), base.p_value.to_bits());
            }
        }
    }

    /// A job's outcome settled on a fresh generator seeded `seed`.
    fn settle(job: &MitJob, seed: u64) -> (TestOutcome, StageReport) {
        mit_settle_one(job, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn single_stage_jobs_match_the_direct_calls() {
        // The job route must reproduce every direct call byte for byte:
        // same per-job seed, same procedure — at any thread count.
        let mut r = rng();
        let cases: Vec<(Strata, usize, Option<usize>, u64)> = (0..7)
            .map(|i| {
                let groups: Vec<CrossTab> = (0..(2 + i % 3))
                    .map(|_| sample_table(&mut r, &[20, 30], &[25, 25]))
                    .collect();
                let k = (i % 2 == 0).then_some(2);
                (Strata::new(groups), 100 + 64 * i, k, 0xBA7C_4000 + i as u64)
            })
            .collect();
        let direct: Vec<TestOutcome> = cases
            .iter()
            .map(|(strata, m, k, seed)| {
                let mut rng = StdRng::seed_from_u64(*seed);
                match k {
                    None => mit(strata, *m, &mut rng),
                    Some(k) => mit_sampled(strata, *m, *k, &mut rng),
                }
            })
            .collect();
        for threads in [1, 4] {
            hypdb_exec::set_global_threads(threads);
            let settled: Vec<TestOutcome> = cases
                .iter()
                .map(|(strata, m, k, seed)| {
                    let job = MitJob {
                        strata,
                        permutations: *m,
                        group_sample: *k,
                        screen: None,
                    };
                    settle(&job, *seed).0
                })
                .collect();
            hypdb_exec::set_global_threads(0);
            assert_eq!(settled, direct, "threads={threads}");
        }
    }

    /// A job over `strata` with budget `m` that asks to screen at
    /// alpha = 0.01.
    fn staged_job(strata: &Strata, m: usize) -> MitJob<'_> {
        MitJob {
            strata,
            permutations: m,
            group_sample: None,
            screen: Some(0.01),
        }
    }

    #[test]
    fn screening_is_a_pure_function_of_seed_strata_budget() {
        // Null strata whose jobs settle at the first checkpoint that
        // implies independence: the ladder is every whole chunk below m.
        let strata = Strata::new(vec![independent_tab(), independent_tab()]);
        assert!(strata.dof() > 0.0);
        for m in [33, 48, 200, 1_000] {
            let (out, rep) = settle(&staged_job(&strata, m), 5);
            assert_eq!(settle(&staged_job(&strata, m), 5), (out.clone(), rep));
            assert_eq!(rep.screening, Screening::Settled, "m={m}");
            assert_eq!(out.permutations, Some(rep.permutations));
            assert!(rep.permutations % PERM_CHUNK == 0 && rep.permutations < m);
        }
        // m = 2·PERM_CHUNK never screens, whatever the job asks.
        let (out, rep) = settle(&staged_job(&strata, 2 * PERM_CHUNK), 5);
        assert_eq!(rep.screening, Screening::Unscreened);
        assert_eq!(out.permutations, Some(2 * PERM_CHUNK));
        // A job that does not ask never screens.
        let mut job = staged_job(&strata, 200);
        job.screen = None;
        let (out, rep) = settle(&job, 5);
        assert_eq!(rep.screening, Screening::Unscreened);
        assert_eq!(out.permutations, Some(200));
    }

    #[test]
    fn shattered_strata_refuse_to_screen() {
        // 100 singleton groups: effective dof 0, degenerate ensemble.
        // No checkpoint may settle anything, so the job runs its full
        // budget unscreened.
        let mut groups = Vec::new();
        for i in 0..100u64 {
            let mut t = CrossTab::zeros(2, 2);
            t.add((i % 2) as usize, ((i / 2) % 2) as usize, 1);
            groups.push(t);
        }
        let strata = Strata::new(groups);
        assert_eq!(strata.dof(), 0.0);
        let (out, rep) = settle(&staged_job(&strata, 400), 7);
        assert_eq!(rep.screening, Screening::Unscreened);
        assert_eq!(rep.permutations, 400);
        assert_eq!(out.permutations, Some(400));
    }

    #[test]
    fn regime_boundaries() {
        let cfg = MitConfig::default();
        assert_eq!(cfg.beta, 5.0);
        assert_eq!(cfg.regime(0.0, 0), Regime::Degenerate);
        assert_eq!(cfg.regime(0.0, 1_000_000), Regime::Degenerate);
        // df·β = n exactly trusts χ²; df·β = n + 1 does not.
        assert_eq!(cfg.regime(4.0, 20), Regime::Asymptotic);
        assert_eq!(cfg.regime(4.0, 19), Regime::Sparse);
        // β = 1e12: every statement with df > 0 is sparse on any real
        // table, and a degenerate one stays degenerate.
        let high = MitConfig { beta: 1e12, ..cfg };
        assert_eq!(high.regime(1.0, 999_999_999_999), Regime::Sparse);
        assert_eq!(high.regime(1.0, 1_000_000_000_000), Regime::Asymptotic);
        assert_eq!(high.regime(0.0, 10), Regime::Degenerate);
    }

    #[test]
    fn staged_verdicts_and_escalations_match_single_stage() {
        // The tentpole invariant, at the stats layer: for a mixed batch
        // of clearly-independent, clearly-dependent, and near-alpha
        // jobs, staging changes neither any verdict nor any escalated
        // outcome byte. Clear independents must actually settle early.
        let mut r = rng();
        // Null tables (independent, settles at a screening stage), then
        // strong dependence (0 hits: must escalate, never settle early).
        let mut strata: Vec<Strata> = (0..4)
            .map(|_| Strata::single(sample_table(&mut r, &[40, 60], &[55, 45])))
            .collect();
        strata.push(Strata::single(dependent_tab()));
        let jobs: Vec<(MitJob, u64)> = strata
            .iter()
            .zip([100, 101, 102, 103, 200])
            .map(|(s, seed)| (staged_job(s, 100), seed))
            .collect();
        let single: Vec<TestOutcome> = jobs
            .iter()
            .map(|(j, seed)| {
                let mut sj = j.clone();
                sj.screen = None;
                settle(&sj, *seed).0
            })
            .collect();
        for threads in [1usize, 4] {
            hypdb_exec::set_global_threads(threads);
            let staged: Vec<_> = jobs.iter().map(|(j, seed)| settle(j, *seed)).collect();
            hypdb_exec::set_global_threads(0);
            let mut early = 0;
            for ((out, rep), full) in staged.iter().zip(&single) {
                assert_eq!(
                    out.independent(0.01),
                    full.independent(0.01),
                    "staging flipped a verdict (threads={threads})"
                );
                if rep.screening == Screening::Escalated {
                    assert_eq!(out, full, "escalated outcome must be byte-identical");
                }
                if rep.screening == Screening::Settled {
                    early += 1;
                    assert!(out.permutations.unwrap() < full.permutations.unwrap());
                }
            }
            assert!(early >= 3, "clear independents must settle early ({early})");
            let dep = &staged[4];
            assert_eq!(
                dep.1.screening,
                Screening::Escalated,
                "0-hit dependence must escalate"
            );
            assert_eq!(dep.0, single[4]);
        }
    }

    #[test]
    fn staged_group_sampled_prefix_uses_the_same_groups() {
        // Group-sampled jobs draw their group pick before the master
        // seed; a screened prefix must therefore evaluate the same
        // sampled subset as the single-stage run. An escalated sampled
        // job proves it: the full outcome matches bit for bit.
        let mut groups = vec![CrossTab::new(2, 2, vec![6, 5, 5, 6]); 30];
        groups.push(CrossTab::new(2, 2, vec![60, 20, 20, 60]));
        let strata = Strata::new(groups);
        let mut job = staged_job(&strata, 100);
        job.group_sample = Some(6);
        let mut single = job.clone();
        single.screen = None;
        let (full, _) = settle(&single, 31);
        let (staged, rep) = settle(&job, 31);
        assert_eq!(staged.method, TestMethod::MitSampled);
        assert_eq!(
            staged.independent(0.01),
            full.independent(0.01),
            "sampled staging flipped a verdict"
        );
        if rep.screening == Screening::Escalated {
            assert_eq!(staged, full);
        }
    }

    /// `ChunkWalker::new` as it stood over dense tables: marginals
    /// re-summed from every table, empty lines retained away.
    fn dense_walker(d: &DenseStrata, m: usize, rng: &mut impl Rng) -> ChunkWalker {
        let s0 = d.cmi_plugin();
        let n = d.total() as f64;
        let master = rng.next_u64();
        let mut plans = PermPlans::default();
        for g in d.groups() {
            let (mut rows, mut cols) = (g.row_sums(), g.col_sums());
            rows.retain(|&v| v > 0);
            cols.retain(|&v| v > 0);
            if rows.len() >= 2 && cols.len() >= 2 {
                plans.push(&rows, &cols, g.total() as f64 / n);
            }
        }
        ChunkWalker {
            s0,
            master,
            plans,
            m,
        }
    }

    /// The head of the dense `mit_settle_one`: weights, weighted pick,
    /// a clone of the picked tables, then the walker.
    fn dense_sampled_walker(
        d: &DenseStrata,
        k: Option<usize>,
        m: usize,
        rng: &mut impl Rng,
    ) -> ChunkWalker {
        match k {
            Some(k) if k < d.groups().len() => {
                let picked = weighted_indices_without_replacement(rng, &d.group_weights(), k);
                dense_walker(&d.subset(&picked), m, rng)
            }
            _ => dense_walker(d, m, rng),
        }
    }

    /// `groups` random `r×c` tables with counts up to `scale`: about a
    /// third of the cells zero, a whole row and a whole column emptied
    /// in some groups, and a sprinkling of singleton and all-zero
    /// groups.
    fn random_tabs(
        gen: &mut StdRng,
        groups: usize,
        r: usize,
        c: usize,
        scale: u64,
    ) -> Vec<CrossTab> {
        (0..groups)
            .map(|_| {
                let mut t = CrossTab::zeros(r, c);
                match gen.gen_range(0..10) {
                    0 => {} // a zero-total group: dropped by both sides
                    1 => t.add(gen.gen_range(0..r), gen.gen_range(0..c), 1),
                    shape => {
                        let (dead_row, dead_col) = (gen.gen_range(0..r), gen.gen_range(0..c));
                        for i in 0..r {
                            for j in 0..c {
                                let dead =
                                    (shape < 5 && i == dead_row) || (shape < 4 && j == dead_col);
                                if !dead && gen.gen_range(0..3) > 0 {
                                    t.add(i, j, gen.gen_range(1..=scale));
                                }
                            }
                        }
                    }
                }
                t
            })
            .collect()
    }

    #[test]
    fn arena_equals_the_dense_reference() {
        // r, c ∈ 2..=9 with 1..=1 200 groups, plus one wide case
        // (c = 5 000): every statistic of the arena must carry the bits
        // of the dense walk, and every permutation path — unsampled,
        // sampled below and above the group count, single-stage and
        // screened — must pick the same groups, leave the generator in
        // the same state and count the same hits.
        let mut gen = StdRng::seed_from_u64(0xA7E7A);
        let mut shapes: Vec<(usize, usize, usize, u64)> = (0..24)
            .map(|i| {
                let groups = match i % 4 {
                    0 => gen.gen_range(1..=3),
                    1 => gen.gen_range(4..=80),
                    2 => gen.gen_range(81..=400),
                    _ => gen.gen_range(401..=1_200),
                };
                let scale = [1, 3, 40][i % 3];
                (groups, gen.gen_range(2..=9), gen.gen_range(2..=9), scale)
            })
            .collect();
        shapes.push((12, 2, 5_000, 2));
        let (mut sampled, mut screened) = (0, 0);
        for (groups, r, c, scale) in shapes {
            let tabs = random_tabs(&mut gen, groups, r, c, scale);
            let at = format!("{groups} groups of {r}x{c}, scale {scale}");
            let dense = DenseStrata::new(tabs.clone());
            let strata = Strata::new(tabs);
            assert_eq!(strata.num_groups(), dense.groups().len(), "{at}");
            assert_eq!(strata.total(), dense.total(), "{at}");
            assert_eq!(
                strata.cmi_plugin().to_bits(),
                dense.cmi_plugin().to_bits(),
                "cmi, {at}"
            );
            assert_eq!(strata.dof().to_bits(), dense.dof().to_bits(), "dof, {at}");
            assert_eq!(
                strata.paper_dof().to_bits(),
                dense.paper_dof().to_bits(),
                "paper dof, {at}"
            );
            let bits = |w: Vec<f64>| w.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(strata.group_weights()),
                bits(dense.group_weights()),
                "weights, {at}"
            );
            if dense.total() == 0 {
                continue;
            }

            let m = 3 * PERM_CHUNK;
            let g = strata.num_groups();
            for k in [None, Some(g.div_ceil(3)), Some(g)] {
                let at = format!("{at}, sample {k:?}");
                sampled += usize::from(k.is_some_and(|k| k < g));
                let seed = gen.gen::<u64>();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = match k {
                    Some(k) => mit_sampled(&strata, m, k, &mut a),
                    None => mit(&strata, m, &mut a),
                };
                let reference = dense_sampled_walker(&dense, k, m, &mut b);
                assert_eq!(a, b, "generator state, {at}");
                let method = got.method;
                let want = reference.outcome(reference.run_span(0, reference.chunks()), m, method);
                assert_eq!(got, want, "{at}");
                assert_eq!(got.statistic.to_bits(), want.statistic.to_bits(), "{at}");

                // The job route, single-stage and screened.
                for screen in [None, Some(0.01)] {
                    let job = MitJob {
                        strata: &strata,
                        permutations: m,
                        group_sample: k,
                        screen,
                    };
                    let (outcome, _) = settle(&job, seed);
                    let done = outcome.permutations.expect("permutation test");
                    screened += usize::from(done < m);
                    let hits = reference.run_span(0, done / PERM_CHUNK);
                    assert_eq!(outcome, reference.outcome(hits, done, method), "{at}");
                }
            }
        }
        assert!(
            sampled > 15 && screened > 15,
            "coverage: {sampled} sampled, {screened} screened"
        );
    }

    #[test]
    fn empty_strata_are_independent() {
        let s = Strata::new(vec![]);
        assert_eq!(s.cmi_plugin(), 0.0);
        let out = chi2_test(&s);
        assert_eq!(out.p_value, 1.0);
        let out = mit(&s, 10, &mut rng());
        assert_eq!(out.p_value, 1.0);
    }
}
