//! Random two-way contingency tables with fixed marginals — Patefield's
//! algorithm (AS 159, Applied Statistics 30(1), 1981) — and the two
//! samplers of the permutation kernel.
//!
//! Randomly shuffling a data column only changes the cell counts of the
//! corresponding contingency table while leaving all marginals fixed
//! (§5). So instead of shuffling `n` rows, the MIT test draws tables
//! directly from the distribution induced by shuffling: the multivariate
//! hypergeometric over tables with the observed marginals. We generate a
//! table cell by cell; given the remaining row quota and remaining column
//! totals, each cell is exactly hypergeometric — the same conditional
//! decomposition AS 159 uses (it adds a clever sequential-search
//! optimisation; our `random::HyperLaw` scans the pmf ratios
//! outwards from the mode once, recording the weights, and inverts the
//! CDF over the record — exact and fast at OLAP cardinalities).
//!
//! There is one cell loop, `walk_cells`. It hands every non-zero cell
//! to a sink in row-major order and stores no table: [`sample_table`]
//! collects the cells into a [`CrossTab`]; the permutation kernel
//! (`PermPlans`) folds them straight into the permuted statistic,
//! reading everything a group's permuted tables share — marginals, the
//! constant `K` below, the law of cell (0,0) — from a plan built once.
//! Every other cell's law depends on the cells drawn before it, yet the
//! same laws recur across a test's tables: the loop draws them through
//! the thread's `random::LawTable`, a fixed table of 32-byte law
//! summaries (key, mode, total weight, where the upward walk ends). A
//! hit recomputes the weights from the mode out to the drawn value
//! only; a miss scans the law as before. Either way the value and the
//! generator state are those of scanning and drawing.
//!
//! Both samplers fold a table into one statistic. Every permuted table
//! of a group has the observed marginals, so the marginal entropies in
//! the plug-in MI are the same in every draw — the fixed-marginal
//! identity `n·Î = K + Σ v ln v` over the non-zero cells, with
//! `K = n ln n − Σ rᵢ ln rᵢ − Σ cⱼ ln cⱼ` from the plan. The plan also
//! holds `v ln v` for every value a cell of the test can take, so a
//! drawn cell costs one table load: no logarithm and no division. The
//! result rounds ≈ 1e-14 away from the cell-by-cell `mi_term` sum, far
//! inside the kernel's 1e-12 tie tolerance; the observed statistic is
//! still the cell-by-cell one.
//!
//! The kernel has a second sampler for the groups where the cell loop
//! does not pay. Patefield costs one hypergeometric law per cell,
//! `O(r·c)` a table, and HyMIT sends a statement to MIT exactly when
//! `df·β > n` — so the groups MIT sees are often sparse, a near-key
//! column attribute putting one or two units in most columns. A group
//! of `r·c ≥ 64` cells over `n < r·c` units (`deals_units`; the floor
//! is the constant `UNIT_MIN_CELLS`) is planned for **unit placement**
//! instead: its row labels (row `i` repeated `rᵢ` times) are shuffled
//! by a partial Fisher–Yates over only the `Σ_{cⱼ≥2} cⱼ` positions
//! dealt to the columns of total at least 2 — one uniform per position
//! — and dealt to those columns in order; each column of total 1 takes
//! one of the units left and holds a cell of 1 whatever the draw. That
//! is the same law over tables (a uniform arrangement of the units),
//! and cells of 1 add `1·ln 1 = 0` to the statistic, so no r×c buffer.
//! The 64-cell floor is what keeps every small sparse group — all of
//! the permutation-heavy adult regime's — on Patefield's seeded
//! stream, bit for bit.
//!
//! Which test pins which stream: the cell loop, on every shape, by
//! `reference::tests::kernel_statistic_and_stream_equal_the_reference`
//! (generator state equal after every table vs the pre-rewrite loop,
//! statistic within 1e-12 of its cell-by-cell one and every tie
//! decision between two draws the same; it plans with
//! `PermPlans::push_cells`, which forces Patefield) and by
//! `tests/determinism.rs`'s fixtures, whose shapes all stay below the
//! floor (`routing_rule_pins_its_boundaries`). Unit placement by the
//! tests below: both marginals kept, the identity against the
//! `mi_term` sum, the statistic's mean and variance against
//! [`sample_table`]'s; and end to end by `tests/ground_truth.rs`'s
//! near-key null calibration and power check.

use crate::crosstab::CrossTab;
use crate::math::xlnx;
use crate::random::{self, HyperLaw, LawTable};
use rand::Rng;

/// Buffers one run of tables reuses: the columns' remaining demands
/// (cells); the shuffled units and one column's per-row tally (units).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    jwork: Vec<u64>,
    deck: Vec<u32>,
    tally: Vec<u32>,
}

/// Patefield's cell loop over an `r×c` table (`r, c ≥ 1`) whose
/// marginals both sum to `n`: calls `emit(i·c + j, count)` for every
/// non-zero cell, in row-major order. `first` is the prebuilt law of
/// cell (0,0) with its weights, when the caller has one; every other
/// cell's law depends on the cells before it and is drawn through
/// `laws`, the thread's table of law summaries.
#[allow(clippy::too_many_arguments)]
fn walk_cells(
    rng: &mut impl Rng,
    rows: &[u64],
    cols: &[u64],
    n: u64,
    first: Option<(HyperLaw, &[f64])>,
    laws: &mut LawTable,
    scratch: &mut Scratch,
    mut emit: impl FnMut(usize, u64),
) {
    let (r, c) = (rows.len(), cols.len());
    let jwork = &mut scratch.jwork;
    // jwork[j]: count still to be placed in column j.
    jwork.clear();
    jwork.extend_from_slice(cols);
    // Total still to be placed (over rows i..).
    let mut remaining = n;
    for (i, &quota) in rows[..r - 1].iter().enumerate() {
        // ia: quota left for this row; ic: units left in columns j.. of
        // rows i.. (i.e., all unplaced units).
        let mut ia = quota;
        let mut ic = remaining;
        let (free, last) = jwork.split_at_mut(c - 1);
        for (j, demand) in free.iter_mut().enumerate() {
            if ia == 0 {
                break;
            }
            let id = *demand; // remaining demand of column j

            // Hypergeometric draw: among `ic` unplaced units of which
            // `id` belong to column j, how many of row i's `ia` land in
            // column j?
            let x = match first {
                Some((law, w)) if i == 0 && j == 0 => law.draw(rng, w),
                _ => laws.draw(rng, id, ic - id, ia),
            };
            if x > 0 {
                emit(i * c + j, x);
                *demand -= x;
                ia -= x;
            }
            ic -= id;
        }
        // Row remainder goes to the last column.
        if ia > 0 {
            emit(i * c + c - 1, ia);
            last[0] -= ia;
        }
        remaining -= quota;
    }
    // Last row: whatever each column still demands.
    for (j, &w) in jwork.iter().enumerate() {
        if w > 0 {
            emit((r - 1) * c + j, w);
        }
    }
}

/// Draws one random `r×c` table with the given row and column sums,
/// distributed as if produced by uniformly shuffling the underlying
/// column pairing.
///
/// Panics if the marginals disagree in total.
pub fn sample_table(rng: &mut impl Rng, rows: &[u64], cols: &[u64]) -> CrossTab {
    let n_row: u64 = rows.iter().sum();
    let n_col: u64 = cols.iter().sum();
    assert_eq!(n_row, n_col, "marginal totals must agree");
    let (r, c) = (rows.len(), cols.len());
    let mut counts = vec![0u64; r * c];
    if r > 0 && c > 0 && n_row > 0 {
        let mut scratch = Scratch::default();
        random::LAWS.with_borrow_mut(|laws| {
            walk_cells(rng, rows, cols, n_row, None, laws, &mut scratch, |k, v| {
                counts[k] = v
            })
        });
    }
    CrossTab::new(r, c, counts)
}

/// Groups of fewer cells than this keep Patefield whatever their `n`:
/// the sparse shapes of the permutation-heavy adult regime are all
/// below it, so their seeded streams stay the ones the fixtures pin.
const UNIT_MIN_CELLS: usize = 64;

/// Whether a group of `r×c` cells over `n` units draws its permuted
/// tables by unit placement: large and sparse, `r·c ≥ 64 && n < r·c`.
/// Patefield pays one hypergeometric law per cell; placement pays one
/// uniform per unit outside the columns of total 1.
pub(crate) fn deals_units(r: usize, c: usize, n: u64) -> bool {
    let cells = r * c;
    cells >= UNIT_MIN_CELLS && n < cells as u64
}

/// How a group's permuted tables are drawn.
#[derive(Debug)]
enum Draw {
    /// Patefield's cell walk.
    Cells {
        c: usize,
        /// `weights[weights_at..weights_end]`: the weights of `law00`.
        weights_at: usize,
        weights_end: usize,
        /// Law of cell (0,0), `(cols[0], n − cols[0], rows[0])`: the
        /// only cell whose parameters no earlier cell of the table
        /// moves.
        law00: HyperLaw,
    },
    /// Unit placement: `labels[labels_at..labels_at + n]` holds row
    /// index `i` `rows[i]` times; `counts[counts_at + r..]` the `dealt`
    /// column totals of at least 2, in column order.
    Units { labels_at: usize, dealt: usize },
}

/// What every permuted table of one conditioning group shares.
#[derive(Debug)]
struct Plan {
    r: usize,
    /// `counts[counts_at..]`: the `r` row sums, then the column sums
    /// the draw reads (all `c` for cells, those ≥ 2 for units).
    counts_at: usize,
    n: u64,
    /// `Pr(z)`: the group's weight in the conditional statistic.
    pz: f64,
    /// `n ln n − Σ rᵢ ln rᵢ − Σ cⱼ ln cⱼ`: `n·Î` less the `Σ v ln v` of
    /// the cells, the same for every table with these marginals.
    k: f64,
    draw: Draw,
}

/// The per-group plans of one permutation test, in one arena: a few
/// vectors however many groups there are, so a test parked between its
/// screening stage and its escalation holds a few allocations, not a
/// few per group.
#[derive(Debug, Default)]
pub(crate) struct PermPlans {
    plans: Vec<Plan>,
    counts: Vec<u64>,
    weights: Vec<f64>,
    labels: Vec<u32>,
    /// `xlnx[v] = v ln v` up to the largest value a cell of any group
    /// can take: `min(max rᵢ, max cⱼ)` for cells, the widest dealt
    /// column for units.
    xlnx: Vec<f64>,
}

impl PermPlans {
    /// Adds a group with the given (strictly positive) marginals, at
    /// least two of each, and weight `pz`; [`deals_units`] picks its
    /// draw.
    pub(crate) fn push(&mut self, rows: &[u64], cols: &[u64], pz: f64) {
        self.push_drawn(rows, cols, pz, deals_units);
    }

    /// [`PermPlans::push`] with Patefield whatever the shape, so the
    /// reference sweep pins the cell walk's stream on every shape.
    #[cfg(test)]
    pub(crate) fn push_cells(&mut self, rows: &[u64], cols: &[u64], pz: f64) {
        self.push_drawn(rows, cols, pz, |_, _, _| false);
    }

    /// Plans the group with unit placement iff `units(r, c, n)`.
    fn push_drawn(
        &mut self,
        rows: &[u64],
        cols: &[u64],
        pz: f64,
        units: fn(usize, usize, u64) -> bool,
    ) {
        debug_assert!(rows.len() >= 2 && cols.len() >= 2);
        debug_assert!(rows.iter().chain(cols).all(|&v| v > 0));
        let n: u64 = rows.iter().sum();
        let counts_at = self.counts.len();
        self.counts.extend_from_slice(rows);
        let draw = if units(rows.len(), cols.len(), n) {
            self.unit_draw(rows, cols)
        } else {
            self.cell_draw(rows, cols, n)
        };
        let k = xlnx(n as f64)
            - rows.iter().map(|&v| xlnx(v as f64)).sum::<f64>()
            - cols.iter().map(|&v| xlnx(v as f64)).sum::<f64>();
        self.plans.push(Plan {
            r: rows.len(),
            counts_at,
            n,
            pz,
            k,
            draw,
        });
    }

    fn cell_draw(&mut self, rows: &[u64], cols: &[u64], n: u64) -> Draw {
        self.counts.extend_from_slice(cols);
        let max = |side: &[u64]| side.iter().copied().max().unwrap_or(0);
        self.cover(max(rows).min(max(cols)));
        let weights_at = self.weights.len();
        let law00 = HyperLaw::build(cols[0], n - cols[0], rows[0], &mut self.weights);
        Draw::Cells {
            c: cols.len(),
            weights_at,
            weights_end: self.weights.len(),
            law00,
        }
    }

    fn unit_draw(&mut self, rows: &[u64], cols: &[u64]) -> Draw {
        let labels_at = self.labels.len();
        for (i, &ri) in (0u32..).zip(rows) {
            self.labels.extend((0..ri).map(|_| i));
        }
        let before = self.counts.len();
        self.counts.extend(cols.iter().filter(|&&cj| cj >= 2));
        let widest = self.counts[before..].iter().copied().max().unwrap_or(0);
        self.cover(widest);
        Draw::Units {
            labels_at,
            dealt: self.counts.len() - before,
        }
    }

    /// Extends the `v ln v` table to cover every value up to `max`.
    fn cover(&mut self, max: u64) {
        for v in self.xlnx.len()..=max as usize {
            self.xlnx.push(xlnx(v as f64));
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    /// Draws one permuted table of group `g` and returns its term of
    /// the conditional statistic, `Pr(z)·max((K + Σ v ln v)/n, 0)`
    /// over the table's non-zero cells, with `v ln v` from the plan's
    /// table. Laws of the cell walk are drawn through `laws`, the
    /// thread's law table. The table itself is never stored, and its
    /// marginals are the plan's by construction.
    pub(crate) fn permuted_term(
        &self,
        g: usize,
        rng: &mut impl Rng,
        laws: &mut LawTable,
        scratch: &mut Scratch,
    ) -> f64 {
        let p = &self.plans[g];
        let (rows, rest) = self.counts[p.counts_at..].split_at(p.r);
        let mut sum = 0.0;
        match p.draw {
            Draw::Cells {
                c,
                weights_at,
                weights_end,
                law00,
            } => {
                let first = Some((law00, &self.weights[weights_at..weights_end]));
                walk_cells(rng, rows, &rest[..c], p.n, first, laws, scratch, |_, v| {
                    sum += self.xlnx[v as usize]
                });
            }
            Draw::Units { labels_at, dealt } => {
                let labels = &self.labels[labels_at..labels_at + p.n as usize];
                deal_units(rng, labels, &rest[..dealt], p.r, scratch, |_, _, v| {
                    sum += self.xlnx[v as usize]
                });
            }
        }
        p.pz * ((p.k + sum) / p.n as f64).max(0.0)
    }
}

/// Unit placement: shuffles the units of one group and deals them out
/// to its columns. A partial Fisher–Yates over `labels` (copied to
/// scratch) draws the first `Σ totals` positions — one uniform each,
/// so a uniform arrangement of those units — and deals them to the
/// columns of `totals` in order; the units left over are the columns of
/// total 1, whose one cell each is never visited. Calls `emit(j, i, v)`
/// for every non-zero cell of the dealt column `j`, the cells of a
/// column in the order their rows first appear in its hand.
fn deal_units(
    rng: &mut impl Rng,
    labels: &[u32],
    totals: &[u64],
    r: usize,
    scratch: &mut Scratch,
    mut emit: impl FnMut(usize, u32, u32),
) {
    let Scratch { deck, tally, .. } = scratch;
    deck.clear();
    deck.extend_from_slice(labels);
    let n = deck.len();
    let dealt: usize = totals.iter().map(|&t| t as usize).sum();
    for i in 0..dealt {
        deck.swap(i, rng.gen_range(i..n));
    }
    if tally.len() < r {
        tally.resize(r, 0);
    }
    let mut at = 0;
    for (j, &t) in totals.iter().enumerate() {
        let hand = &deck[at..at + t as usize];
        at += t as usize;
        for &i in hand {
            tally[i as usize] += 1;
        }
        for &i in hand {
            let v = std::mem::take(&mut tally[i as usize]);
            if v > 0 {
                emit(j, i, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::mi_term;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xAB5_159)
    }

    #[test]
    fn marginals_preserved() {
        let mut r = rng();
        let rows = [7u64, 13, 5];
        let cols = [10u64, 9, 4, 2];
        for _ in 0..200 {
            let t = sample_table(&mut r, &rows, &cols);
            assert_eq!(t.row_sums(), rows.to_vec());
            assert_eq!(t.col_sums(), cols.to_vec());
        }
    }

    #[test]
    fn degenerate_single_row() {
        let mut r = rng();
        let t = sample_table(&mut r, &[9], &[4, 5]);
        assert_eq!(t.counts(), &[4, 5]);
    }

    #[test]
    fn degenerate_single_col() {
        let mut r = rng();
        let t = sample_table(&mut r, &[4, 5], &[9]);
        assert_eq!(t.counts(), &[4, 5]);
    }

    #[test]
    fn empty_table() {
        let mut r = rng();
        let t = sample_table(&mut r, &[0, 0], &[0]);
        assert_eq!(t.total(), 0);
    }

    #[test]
    #[should_panic(expected = "marginal totals must agree")]
    fn mismatched_totals_panic() {
        let mut r = rng();
        sample_table(&mut r, &[3], &[2]);
    }

    #[test]
    fn cell_mean_matches_expectation() {
        // Under the fixed-marginal null, E[n_ij] = r_i * c_j / n.
        let mut r = rng();
        let rows = [30u64, 70];
        let cols = [40u64, 60];
        let trials = 4_000;
        let mut sum00 = 0.0;
        for _ in 0..trials {
            sum00 += sample_table(&mut r, &rows, &cols).get(0, 0) as f64;
        }
        let mean = sum00 / trials as f64;
        let expect = 30.0 * 40.0 / 100.0;
        assert!((mean - expect).abs() < 0.15, "mean {mean} vs {expect}");
    }

    #[test]
    fn two_by_two_matches_fisher_distribution() {
        // For a 2x2 with rows (2,2), cols (2,2), n=4 the permutation
        // distribution of n00 is hypergeometric: P(0)=1/6, P(1)=4/6,
        // P(2)=1/6.
        let mut r = rng();
        let mut hist = [0usize; 3];
        let trials = 30_000;
        for _ in 0..trials {
            let t = sample_table(&mut r, &[2, 2], &[2, 2]);
            hist[t.get(0, 0) as usize] += 1;
        }
        let p0 = hist[0] as f64 / trials as f64;
        let p1 = hist[1] as f64 / trials as f64;
        let p2 = hist[2] as f64 / trials as f64;
        assert!((p0 - 1.0 / 6.0).abs() < 0.02, "p0={p0}");
        assert!((p1 - 4.0 / 6.0).abs() < 0.02, "p1={p1}");
        assert!((p2 - 1.0 / 6.0).abs() < 0.02, "p2={p2}");
    }

    #[test]
    fn routing_rule_pins_its_boundaries() {
        // `deals_units` and what `push` plans agree.
        let routed = |r: usize, c: usize, n: u64| {
            let rows: Vec<u64> = (0..r as u64)
                .map(|i| n / r as u64 + u64::from(i < n % r as u64))
                .collect();
            let cols: Vec<u64> = (0..c as u64)
                .map(|j| n / c as u64 + u64::from(j < n % c as u64))
                .collect();
            let mut plans = PermPlans::default();
            plans.push(&rows, &cols, 1.0);
            let units = matches!(plans.plans[0].draw, Draw::Units { .. });
            assert_eq!(units, deals_units(r, c, n), "{r}x{c} n {n}");
            units
        };
        // 63 cells: Patefield however sparse; 64: units iff n < r·c.
        for (r, c) in [(7, 9), (9, 7), (3, 21)] {
            for n in [r.max(c) as u64, 62, 63, 64, 1_000] {
                assert!(!routed(r, c, n), "{r}x{c} n {n}");
            }
        }
        for (r, c) in [(8, 8), (2, 32), (4, 16)] {
            assert!(routed(r, c, 63), "{r}x{c} n 63 = r·c − 1");
            assert!(routed(r, c, 40), "{r}x{c} n 40");
            assert!(!routed(r, c, 64), "{r}x{c} n 64 = r·c");
            assert!(!routed(r, c, 10_000), "{r}x{c} n 10 000");
        }
        // Every hand-built job of `tests/determinism.rs` — the 3×3
        // groups of its thread-count tests and the 2×2 … 5×4 strata of
        // `mit_batch.txt` — stays on the pinned Patefield stream at any n.
        for r in 2..=5 {
            for c in 2..=4 {
                for n in [1, r as u64 * c as u64 - 1, (r * c) as u64, 36_000] {
                    assert!(!deals_units(r, c, n), "{r}x{c} n {n}");
                }
            }
        }
    }

    /// Row sums splitting `n` into `r` positive parts, and near-key
    /// column sums: `c` columns of total 1, then `n − c` more units put
    /// on random columns.
    fn near_key(gen: &mut StdRng, r: usize, c: usize, n: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rows = vec![1u64; r];
        for _ in r as u64..n {
            rows[gen.gen_range(0..r)] += 1;
        }
        let mut cols = vec![1u64; c];
        for _ in c as u64..n {
            cols[gen.gen_range(0..c)] += 1;
        }
        (rows, cols)
    }

    /// The whole `r×c` table (row-major) one unit placement deals, from
    /// the labels `PermPlans` builds: the dealt columns from `emit`, the
    /// columns of total 1 from the units left in the deck.
    fn dealt_table(
        rng: &mut StdRng,
        rows: &[u64],
        cols: &[u64],
        scratch: &mut Scratch,
    ) -> Vec<u64> {
        let (r, c) = (rows.len(), cols.len());
        let labels: Vec<u32> = (0u32..)
            .zip(rows)
            .flat_map(|(i, &ri)| (0..ri).map(move |_| i))
            .collect();
        let (dealt, ones): (Vec<usize>, Vec<usize>) = (0..c).partition(|&j| cols[j] >= 2);
        let totals: Vec<u64> = dealt.iter().map(|&j| cols[j]).collect();
        let mut t = vec![0u64; r * c];
        deal_units(rng, &labels, &totals, r, scratch, |j, i, v| {
            t[i as usize * c + dealt[j]] += u64::from(v)
        });
        let m: u64 = totals.iter().sum();
        for (&i, &j) in scratch.deck[m as usize..].iter().zip(&ones) {
            t[i as usize * c + j] += 1;
        }
        t
    }

    #[test]
    fn unit_placement_keeps_both_marginals_and_the_plug_in_mi() {
        // (a) every dealt table has the plan's marginals; (b) the
        // kernel's `K + Σ v ln v` is the `mi_term` sum over that same
        // table, and the kernel draws it off the generator exactly as
        // the full deal does.
        let mut gen = StdRng::seed_from_u64(0x0417);
        let mut scratch = Scratch::default();
        let mut laws = LawTable::default();
        let mut totals_seen = [0usize; 3];
        for shape in 0..60 {
            let r = gen.gen_range(2..=5);
            let c = gen.gen_range(64usize.div_ceil(r)..=90);
            let n = gen.gen_range(c as u64 + 1..=(c as u64 * 3).div_ceil(2));
            let (rows, cols) = near_key(&mut gen, r, c, n);
            assert!(deals_units(r, c, n), "shape {shape}");
            for &cj in &cols {
                totals_seen[(cj.min(3) - 1) as usize] += 1;
            }
            let mut plans = PermPlans::default();
            plans.push(&rows, &cols, 1.0);
            let seed = gen.gen::<u64>();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for draw in 0..20 {
                let at = format!("shape {shape} ({r}x{c}, n {n}) draw {draw}");
                let t = dealt_table(&mut b, &rows, &cols, &mut scratch);
                let got = plans.permuted_term(0, &mut a, &mut laws, &mut scratch);
                assert_eq!(a, b, "generator state, {at}");
                let tab = CrossTab::new(r, c, t.clone());
                assert_eq!(tab.row_sums(), rows, "{at}");
                assert_eq!(tab.col_sums(), cols, "{at}");
                let nf = n as f64;
                let mut mi = 0.0;
                for (k, &v) in t.iter().enumerate().filter(|(_, &v)| v > 0) {
                    mi += mi_term(v as f64, nf, rows[k / c] as f64 * cols[k % c] as f64);
                }
                let want = (mi / nf).max(0.0);
                assert!((got - want).abs() < 1e-12, "{got} vs {want}, {at}");
            }
        }
        assert!(totals_seen.iter().all(|&k| k > 100), "{totals_seen:?}");
    }

    /// Mean, variance and the standard errors of both over `draws`.
    fn moments(draws: &[f64]) -> [f64; 4] {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let central = |k: i32| draws.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let (var, m4) = (central(2), central(4));
        [mean, var, (var / n).sqrt(), ((m4 - var * var) / n).sqrt()]
    }

    #[test]
    fn unit_statistic_has_the_law_of_patefield_tables() {
        // (c) Over 20 000 draws a shape, the unit statistic's mean and
        // variance agree within 5σ with the plug-in MI of tables drawn
        // by `sample_table` on the same near-key marginals.
        let ones_twos_more = |ones: usize, twos: usize, more: &[u64]| -> Vec<u64> {
            let mut cols = vec![1u64; ones];
            cols.resize(ones + twos, 2);
            cols.extend_from_slice(more);
            cols
        };
        let shapes = [
            (vec![30u64, 20], ones_twos_more(32, 6, &[3, 3])),
            (vec![20, 15, 10], ones_twos_more(20, 9, &[3, 4])),
            (vec![9, 8, 7, 6, 5], ones_twos_more(18, 5, &[3, 4])),
        ];
        let draws = 20_000;
        let mut scratch = Scratch::default();
        let mut laws = LawTable::default();
        for (rows, cols) in shapes {
            assert!(deals_units(rows.len(), cols.len(), rows.iter().sum()));
            let mut plans = PermPlans::default();
            plans.push(&rows, &cols, 1.0);
            let (mut a, mut b) = (StdRng::seed_from_u64(0x5A), StdRng::seed_from_u64(0x5B));
            let units: Vec<f64> = (0..draws)
                .map(|_| plans.permuted_term(0, &mut a, &mut laws, &mut scratch))
                .collect();
            let cells: Vec<f64> = (0..draws)
                .map(|_| sample_table(&mut b, &rows, &cols).mutual_information())
                .collect();
            let ([mu, vu, se_mu, se_vu], [mp, vp, se_mp, se_vp]) =
                (moments(&units), moments(&cells));
            let at = format!("{}x{}", rows.len(), cols.len());
            assert!(
                (mu - mp).abs() <= 5.0 * se_mu.hypot(se_mp),
                "{at}: mean {mu} vs {mp}"
            );
            assert!(
                (vu - vp).abs() <= 5.0 * se_vu.hypot(se_vp),
                "{at}: variance {vu} vs {vp}"
            );
        }
    }
}
