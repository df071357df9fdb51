//! The permutation inner loop as it stood before the single-pass
//! kernel (PR 12's tree), kept verbatim as the reference of the
//! differential tests below: the two-pass inverse-CDF hypergeometric
//! (scan the support to normalise, scan it again to invert), the table
//! draw that allocates a [`CrossTab`] and a `jwork` per table, and the
//! permuted statistic by way of [`CrossTab::mutual_information`], which
//! re-sums the marginals of every table. The kernel must consume the RNG
//! exactly as this code does and produce the same bits.
//!
//! Below it, [`DenseStrata`]: the stratified summary as it stood before
//! the compact arena (PR 13's tree) — one dense `r×c` table per group
//! over the global cardinalities, every statistic a fresh walk of the
//! dense form — the reference of the arena's differential test in
//! `independence`.

use crate::crosstab::CrossTab;
use crate::entropy::entropy_plugin;
use rand::Rng;

/// Two-pass hypergeometric: pass 1 totals the pmf-ratio weights around
/// the mode, pass 2 recomputes them until the target mass is covered.
pub fn hypergeometric(rng: &mut impl Rng, ngood: u64, nbad: u64, ndraw: u64) -> u64 {
    let total = ngood + nbad;
    assert!(ndraw <= total, "cannot draw more than the population");
    if ndraw == 0 || ngood == 0 {
        return 0;
    }
    if nbad == 0 {
        return ndraw;
    }
    let x_min = ndraw.saturating_sub(nbad);
    let x_max = ngood.min(ndraw);
    if x_min == x_max {
        return x_min;
    }
    // Mode of the hypergeometric: floor((ndraw+1)(ngood+1)/(total+2)).
    let mode = (((ndraw + 1) as u128 * (ngood + 1) as u128) / (total + 2) as u128) as u64;
    let mode = mode.clamp(x_min, x_max);

    // P(x+1)/P(x) = (ngood−x)(ndraw−x) / ((x+1)(nbad−ndraw+x+1)).
    let ratio_up = |x: u64| -> f64 {
        ((ngood - x) as f64 * (ndraw - x) as f64) / ((x + 1) as f64 * (nbad + x + 1 - ndraw) as f64)
    };
    const TAIL_EPS: f64 = 1e-16;

    // Pass 1: total weight relative to w(mode) = 1.
    let mut total_w = 1.0f64;
    {
        let mut w = 1.0;
        let mut x = mode;
        while x < x_max {
            w *= ratio_up(x);
            total_w += w;
            x += 1;
            if w < TAIL_EPS * total_w {
                break;
            }
        }
        let mut w = 1.0;
        let mut x = mode;
        while x > x_min {
            w /= ratio_up(x - 1);
            total_w += w;
            x -= 1;
            if w < TAIL_EPS * total_w {
                break;
            }
        }
    }

    // Pass 2: walk the same order (mode, up…, down…) until the target
    // mass is covered.
    let target = rng.gen::<f64>() * total_w;
    let mut cum = 1.0f64;
    if cum >= target {
        return mode;
    }
    let mut w = 1.0;
    let mut x = mode;
    while x < x_max {
        w *= ratio_up(x);
        x += 1;
        cum += w;
        if cum >= target {
            return x;
        }
        if w < TAIL_EPS * total_w {
            break;
        }
    }
    let mut w = 1.0;
    let mut x = mode;
    while x > x_min {
        w /= ratio_up(x - 1);
        x -= 1;
        cum += w;
        if cum >= target {
            return x;
        }
        if w < TAIL_EPS * total_w {
            break;
        }
    }
    // Floating-point remainder: return the mode (center of mass).
    mode
}

/// One table per call, cells into a fresh [`CrossTab`].
#[allow(clippy::needless_range_loop)] // row/col quotas are indexed in lockstep
pub fn sample_table(rng: &mut impl Rng, rows: &[u64], cols: &[u64]) -> CrossTab {
    let n_row: u64 = rows.iter().sum();
    let n_col: u64 = cols.iter().sum();
    assert_eq!(n_row, n_col, "marginal totals must agree");
    let r = rows.len();
    let c = cols.len();
    let mut out = CrossTab::zeros(r, c);
    if r == 0 || c == 0 || n_row == 0 {
        return out;
    }
    // jwork[j]: count still to be placed in column j.
    let mut jwork: Vec<u64> = cols.to_vec();
    // Total still to be placed (over rows i..).
    let mut remaining = n_row;
    for i in 0..r.saturating_sub(1) {
        // ia: quota left for this row; ic: units left in columns j.. of
        // rows i.. (i.e., all unplaced units).
        let mut ia = rows[i];
        let mut ic = remaining;
        for j in 0..c - 1 {
            if ia == 0 {
                break;
            }
            let id = jwork[j]; // remaining demand of column j

            // Hypergeometric draw: among `ic` unplaced units of which
            // `id` belong to column j, how many of row i's `ia` land in
            // column j?
            let x = hypergeometric(rng, id, ic - id, ia);
            if x > 0 {
                out.add(i, j, x);
                jwork[j] -= x;
                ia -= x;
            }
            ic -= id;
        }
        // Row remainder goes to the last column.
        if ia > 0 {
            out.add(i, c - 1, ia);
            jwork[c - 1] -= ia;
        }
        remaining -= rows[i];
    }
    // Last row: whatever each column still demands.
    for (j, &w) in jwork.iter().enumerate() {
        if w > 0 {
            out.add(r - 1, j, w);
        }
    }
    out
}

/// The permuted-table statistic by the allocating route.
pub fn permuted_mi(rng: &mut impl Rng, rows: &[u64], cols: &[u64]) -> f64 {
    sample_table(rng, rows, cols).mutual_information()
}

/// One dense table per conditioning group.
pub struct DenseStrata {
    groups: Vec<CrossTab>,
    total: u64,
}

impl DenseStrata {
    /// Empty groups are dropped.
    pub fn new(groups: Vec<CrossTab>) -> Self {
        let groups: Vec<CrossTab> = groups.into_iter().filter(|g| g.total() > 0).collect();
        let total = groups.iter().map(CrossTab::total).sum();
        DenseStrata { groups, total }
    }

    pub fn groups(&self) -> &[CrossTab] {
        &self.groups
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn cmi_plugin(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        self.groups
            .iter()
            .map(|g| g.total() as f64 / n * g.mutual_information())
            .sum()
    }

    pub fn dof(&self) -> f64 {
        self.groups.iter().map(CrossTab::dof).sum()
    }

    pub fn paper_dof(&self) -> f64 {
        let mut row_seen: Vec<bool> = Vec::new();
        let mut col_seen: Vec<bool> = Vec::new();
        for g in &self.groups {
            let rs = g.row_sums();
            let cs = g.col_sums();
            if row_seen.len() < rs.len() {
                row_seen.resize(rs.len(), false);
            }
            if col_seen.len() < cs.len() {
                col_seen.resize(cs.len(), false);
            }
            for (i, &v) in rs.iter().enumerate() {
                if v > 0 {
                    row_seen[i] = true;
                }
            }
            for (j, &v) in cs.iter().enumerate() {
                if v > 0 {
                    col_seen[j] = true;
                }
            }
        }
        let r = row_seen.iter().filter(|&&b| b).count().max(1);
        let c = col_seen.iter().filter(|&&b| b).count().max(1);
        ((r - 1) * (c - 1) * self.groups.len().max(1)) as f64
    }

    pub fn group_weights(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        let n = self.total as f64;
        self.groups
            .iter()
            .map(|g| {
                let pz = g.total() as f64 / n;
                let hx = entropy_plugin(g.row_sums());
                let hy = entropy_plugin(g.col_sums());
                pz * hx.max(hy)
            })
            .collect()
    }

    /// Clones the picked tables; keeps the original `n`.
    pub fn subset(&self, indices: &[usize]) -> DenseStrata {
        let groups: Vec<CrossTab> = indices.iter().map(|&i| self.groups[i].clone()).collect();
        let mut s = DenseStrata::new(groups);
        s.total = self.total;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::{hypergeometric as ref_hypergeometric, permuted_mi, sample_table as ref_table};
    use crate::crosstab::CrossTab;
    use crate::patefield::{sample_table, PermPlans, Scratch};
    use crate::random::{hypergeometric, HyperLaw};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SCALES: [u64; 5] = [3, 30, 400, 5_000, 60_000];

    /// `len` sums in `lo..=scale`, the two sides levelled to one total
    /// by topping up the last entry of the lighter side.
    fn marginals(
        rng: &mut StdRng,
        r: usize,
        c: usize,
        scale: u64,
        lo: u64,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut side =
            |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(lo..=scale)).collect() };
        let (mut rows, mut cols) = (side(r), side(c));
        let (nr, nc): (u64, u64) = (rows.iter().sum(), cols.iter().sum());
        if nr < nc {
            rows[r - 1] += nc - nr;
        } else {
            cols[c - 1] += nr - nc;
        }
        (rows, cols)
    }

    /// Which of the cell loop's corners the drawing of `t` went through,
    /// replayed from the finished table: `[nbad == 0, point support with
    /// nbad > 0, row exhausted before its last free column]`.
    fn corners(t: &CrossTab, rows: &[u64], cols: &[u64]) -> [bool; 3] {
        let (r, c) = (rows.len(), cols.len());
        let mut seen = [false; 3];
        let mut jwork = cols.to_vec();
        for (i, &quota) in rows[..r - 1].iter().enumerate() {
            let mut ia = quota;
            let mut ic: u64 = jwork.iter().sum();
            for (j, demand) in jwork[..c - 1].iter_mut().enumerate() {
                if ia == 0 {
                    seen[2] = true;
                    break;
                }
                let (ngood, nbad) = (*demand, ic - *demand);
                if ngood > 0 && nbad == 0 {
                    seen[0] = true;
                } else if ngood > 0 && ia.saturating_sub(nbad) == ngood.min(ia) {
                    seen[1] = true;
                }
                ic -= *demand;
                *demand -= t.get(i, j);
                ia -= t.get(i, j);
            }
            jwork[c - 1] -= ia;
        }
        seen
    }

    #[test]
    fn kernel_statistic_and_stream_equal_the_reference() {
        // r, c ∈ 2..=9 × five count scales × 4 marginal sets × 20
        // tables: the fused statistic must equal the allocating route's
        // bit for bit, and the generator must sit in the same state
        // after every table. `push_cells` plans Patefield on every
        // shape, the large sparse ones `push` would deal units to
        // included.
        let mut gen = StdRng::seed_from_u64(0xD1FF);
        let mut seen = [0usize; 3];
        let mut scratch = Scratch::default();
        for r in 2..=9 {
            for c in 2..=9 {
                for scale in SCALES {
                    for set in 0..4u64 {
                        let (rows, cols) = marginals(&mut gen, r, c, scale, 1);
                        let mut plans = PermPlans::default();
                        plans.push_cells(&rows, &cols, 1.0);
                        let seed = gen.gen::<u64>();
                        let (mut a, mut b) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        for draw in 0..20 {
                            let mut peek = b.clone();
                            let want = permuted_mi(&mut b, &rows, &cols);
                            let got = plans.permuted_term(0, &mut a, &mut scratch);
                            let at = format!("{r}x{c} scale {scale} set {set} draw {draw}");
                            assert_eq!(got.to_bits(), want.to_bits(), "statistic, {at}");
                            assert_eq!(a, b, "generator state, {at}");
                            let t = ref_table(&mut peek, &rows, &cols);
                            for (n, hit) in seen.iter_mut().zip(corners(&t, &rows, &cols)) {
                                *n += hit as usize;
                            }
                        }
                    }
                }
            }
        }
        // The sweep must have gone through every corner of the loop.
        assert!(seen.iter().all(|&n| n > 100), "corner coverage {seen:?}");
    }

    #[test]
    fn sample_table_equals_the_reference() {
        // The public table draw, including what the kernel never sees:
        // single rows and columns, zero marginals, the empty table.
        let mut gen = StdRng::seed_from_u64(0x7AB1E);
        for r in 1..=9 {
            for c in 1..=9 {
                for scale in SCALES {
                    let (rows, cols) = marginals(&mut gen, r, c, scale, 0);
                    let seed = gen.gen::<u64>();
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    for _ in 0..10 {
                        let want = ref_table(&mut b, &rows, &cols);
                        assert_eq!(
                            sample_table(&mut a, &rows, &cols),
                            want,
                            "{rows:?} {cols:?}"
                        );
                        assert_eq!(a, b, "generator state, {rows:?} {cols:?}");
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_table(&mut rng, &[0, 0], &[0]), CrossTab::zeros(2, 1));
        assert_eq!(sample_table(&mut rng, &[], &[]), CrossTab::zeros(0, 0));
    }

    #[test]
    fn hypergeometric_equals_the_reference_on_random_triples() {
        let mut gen = StdRng::seed_from_u64(0x4159);
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let mut points = 0;
        for k in 0..100_000usize {
            let scale = SCALES[k % SCALES.len()];
            let ngood = gen.gen_range(0..=scale);
            let nbad = gen.gen_range(0..=scale);
            let ndraw = gen.gen_range(0..=ngood + nbad);
            let want = ref_hypergeometric(&mut b, ngood, nbad, ndraw);
            let got = hypergeometric(&mut a, ngood, nbad, ndraw);
            assert_eq!(got, want, "({ngood}, {nbad}, {ndraw})");
            assert_eq!(a, b, "generator state after ({ngood}, {nbad}, {ndraw})");
            let mut w = Vec::new();
            if let HyperLaw::Point(x) = HyperLaw::build(ngood, nbad, ndraw, &mut w) {
                assert!(w.is_empty() && x == want);
                points += 1;
            }
        }
        assert!(points > 1_000, "point supports drawn: {points}");
    }
}
