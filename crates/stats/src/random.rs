//! Random variates beyond what the offline `rand` crate offers:
//! gamma/Dirichlet (for random CPT generation), hypergeometric (the
//! per-cell conditional of Patefield's algorithm), categorical sampling,
//! and weighted index sampling without replacement (for MIT's group
//! sampling, §5).

use rand::Rng;
use std::cell::RefCell;

/// Samples `Gamma(shape, 1)` by Marsaglia–Tsang (2000); `shape > 0`.
pub fn gamma(rng: &mut impl Rng, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: X_{a} = X_{a+1} * U^(1/a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller (keeps us off rand_distr).
        let (u1, u2): (f64, f64) = (rng.gen_range(f64::MIN_POSITIVE..1.0), rng.gen());
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Samples a point of the simplex from `Dirichlet(alpha, …, alpha)` with
/// `k` components.
pub fn dirichlet_symmetric(rng: &mut impl Rng, alpha: f64, k: usize) -> Vec<f64> {
    assert!(k > 0, "dirichlet needs at least one component");
    let mut v: Vec<f64> = (0..k).map(|_| gamma(rng, alpha)).collect();
    let sum: f64 = v.iter().sum();
    if sum <= 0.0 {
        // Numerically degenerate draw; fall back to uniform.
        return vec![1.0 / k as f64; k];
    }
    for x in &mut v {
        *x /= sum;
    }
    v
}

/// Samples an index from an (unnormalised) weight vector by CDF
/// inversion. Panics if all weights are zero/negative.
pub fn categorical(rng: &mut impl Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    assert!(total > 0.0, "categorical needs a positive total weight");
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            if u < w {
                return i;
            }
            u -= w;
        }
    }
    // Floating-point tail: return the last positive-weight index.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive weight exists")
}

/// One hypergeometric law — the number of "good" items among `ndraw`
/// draws without replacement from `ngood` good and `nbad` bad items —
/// with its pmf weights recorded, so that drawing is a single walk.
///
/// The weights come from the pmf ratio recurrence anchored at the
/// distribution's **mode** (weight 1), scanning outwards in both
/// directions until a weight drops under `TAIL_EPS` of the running
/// total ([`Steps`]). Anchoring at the mode avoids the tail underflow a
/// scan from the support's lower bound suffers at OLAP-sized counts,
/// while staying exact: only relative weights matter.
/// [`HyperLaw::build`] runs that scan once and appends every weight to
/// a caller-owned buffer; [`HyperLaw::draw`] inverts the CDF over the
/// recorded weights in the same order (mode, upwards, downwards),
/// consuming one uniform. The law of cell (0,0) of every permuted table
/// of a group is built once and drawn from many times; every other
/// cell's law is drawn through this thread's [`LawTable`], which keeps
/// 32 bytes of it, not its weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HyperLaw {
    /// The support is a single point: drawing consumes no randomness.
    Point(u64),
    /// A proper distribution; its weights are the `n_up` upward ones
    /// followed by the downward ones, as appended by `build`.
    Spread {
        /// The mode, whose weight is 1 by construction.
        mode: u64,
        /// Sum of all recorded weights plus the mode's.
        total_w: f64,
        /// How many of the recorded weights lie above the mode.
        n_up: usize,
    },
}

/// A weight below this share of the total cannot be hit by a uniform
/// draw at f64 resolution; the scan stops there.
const TAIL_EPS: f64 = 1e-16;

/// The support `(x_min, x_max)` of a law with more than one point, or
/// `Err(x)` for the single point `x`. Panics if `ndraw > ngood + nbad`
/// or the population reaches 2⁵³.
fn support(ngood: u64, nbad: u64, ndraw: u64) -> Result<(u64, u64), u64> {
    let total = ngood + nbad;
    assert!(ndraw <= total, "cannot draw more than the population");
    // Counts are stepped as floats below; past 2⁵³ a step is lost.
    assert!(total < 1 << 53, "population beyond exact f64 integers");
    if ndraw == 0 || ngood == 0 {
        return Err(0);
    }
    if nbad == 0 {
        return Err(ndraw);
    }
    let x_min = ndraw.saturating_sub(nbad);
    let x_max = ngood.min(ndraw);
    if x_min == x_max {
        return Err(x_min);
    }
    Ok((x_min, x_max))
}

/// The pmf ratio recurrence, stepped outwards from the mode. Both the
/// scan that records a law's weights and [`LawSummary::draw`], which
/// recomputes them, step through it, so a recomputed weight is the
/// recorded one bit for bit.
struct Steps {
    /// P(x+1)/P(x) = (ngood−x)(ndraw−x) / ((x+1)(nbad−ndraw+x+1)): the
    /// four factors as floats at the next upward step, stepped by ±1 —
    /// exactly the values converting the integers at every step would
    /// give.
    up: [f64; 4],
    /// The same factors one step back, which the downward walk divides
    /// by.
    down: [f64; 4],
}

impl Steps {
    fn new(ngood: u64, nbad: u64, ndraw: u64, mode: u64) -> Steps {
        let up = [
            (ngood - mode) as f64,
            (ndraw - mode) as f64,
            (mode + 1) as f64,
            (nbad + mode + 1 - ndraw) as f64,
        ];
        let down = [up[0] + 1.0, up[1] + 1.0, up[2] - 1.0, up[3] - 1.0];
        Steps { up, down }
    }

    /// The weight one step above the one whose weight is `wt`.
    #[inline]
    fn up(&mut self, wt: f64) -> f64 {
        let [a, b, c, d] = self.up;
        self.up = [a - 1.0, b - 1.0, c + 1.0, d + 1.0];
        wt * ((a * b) / (c * d))
    }

    /// The weight one step below the one whose weight is `wt`.
    #[inline]
    fn down(&mut self, wt: f64) -> f64 {
        let [a, b, c, d] = self.down;
        self.down = [a + 1.0, b + 1.0, c - 1.0, d - 1.0];
        wt / ((a * b) / (c * d))
    }
}

impl HyperLaw {
    /// Scans the support once and appends the weights to `w` (which may
    /// already hold other laws' weights — the caller remembers where
    /// this law's start). Panics if `ndraw > ngood + nbad` or the
    /// population reaches 2⁵³.
    pub(crate) fn build(ngood: u64, nbad: u64, ndraw: u64, w: &mut Vec<f64>) -> HyperLaw {
        match support(ngood, nbad, ndraw) {
            Ok(bounds) => HyperLaw::scan(ngood, nbad, ndraw, bounds, w),
            Err(x) => HyperLaw::Point(x),
        }
    }

    /// [`HyperLaw::build`] of a law whose support `support` found.
    fn scan(
        ngood: u64,
        nbad: u64,
        ndraw: u64,
        (x_min, x_max): (u64, u64),
        w: &mut Vec<f64>,
    ) -> HyperLaw {
        // Mode of the hypergeometric: floor((ndraw+1)(ngood+1)/(total+2)),
        // in u64 whenever the product fits (exact either way).
        let total = ngood + nbad;
        let mode = match (ndraw + 1).checked_mul(ngood + 1) {
            Some(p) => p / (total + 2),
            None => (((ndraw + 1) as u128 * (ngood + 1) as u128) / (total + 2) as u128) as u64,
        };
        let mode = mode.clamp(x_min, x_max);
        let mut steps = Steps::new(ngood, nbad, ndraw, mode);
        let start = w.len();
        let mut total_w = 1.0f64;
        let mut wt = 1.0;
        for _ in mode..x_max {
            wt = steps.up(wt);
            total_w += wt;
            w.push(wt);
            if wt < TAIL_EPS * total_w {
                break;
            }
        }
        let n_up = w.len() - start;
        let mut wt = 1.0;
        for _ in x_min..mode {
            wt = steps.down(wt);
            total_w += wt;
            w.push(wt);
            if wt < TAIL_EPS * total_w {
                break;
            }
        }
        HyperLaw::Spread {
            mode,
            total_w,
            n_up,
        }
    }

    /// Draws from the law; `w` is exactly the slice `build` appended.
    /// The tail cut is re-applied against the *final* total (the scan
    /// could only test the running one), so a walk may end a step or
    /// two before the recorded weights do.
    #[inline]
    pub(crate) fn draw(&self, rng: &mut impl Rng, w: &[f64]) -> u64 {
        let (mode, total_w, n_up) = match *self {
            HyperLaw::Point(x) => return x,
            HyperLaw::Spread {
                mode,
                total_w,
                n_up,
            } => (mode, total_w, n_up),
        };
        let target = rng.gen::<f64>() * total_w;
        let mut cum = 1.0f64;
        if cum >= target {
            return mode;
        }
        let (up, down) = w.split_at(n_up);
        let mut x = mode;
        for &wt in up {
            x += 1;
            cum += wt;
            if cum >= target {
                return x;
            }
            if wt < TAIL_EPS * total_w {
                break;
            }
        }
        let mut x = mode;
        for &wt in down {
            x -= 1;
            cum += wt;
            if cum >= target {
                return x;
            }
            if wt < TAIL_EPS * total_w {
                break;
            }
        }
        // Floating-point remainder: return the mode (center of mass).
        mode
    }
}

/// What [`HyperLaw::draw`] needs of a spread law besides its weights,
/// in 32 bytes: its key, mode and total, and the cumulative weight at
/// which the draw's upward walk ends. The weights up to a drawn value
/// are recomputed from the mode by [`Steps`], so a draw from the
/// summary returns what `draw` over the recorded weights returns, off
/// the same one uniform. The recorded lengths need no keeping: a scan
/// stops a side at the support's end or at a weight under `TAIL_EPS` of
/// its running total, which the draw's cut against the final total
/// catches at that weight or before.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LawSummary {
    /// `(ngood, nbad, ndraw)`; `[0; 3]` marks an empty slot (a law with
    /// `ngood == 0` is a point, never summarised).
    key: [u32; 3],
    mode: u32,
    total_w: f64,
    /// The cumulative weight (the mode's 1 included) at which the
    /// draw's upward walk ends without returning: a target above it is
    /// drawn on the downward side, starting from it.
    up_cum: f64,
}

impl LawSummary {
    const EMPTY: LawSummary = LawSummary {
        key: [0; 3],
        mode: 0,
        total_w: 0.0,
        up_cum: 0.0,
    };

    /// Summarises the spread law `law` of key `key`, whose weights
    /// `build` appended as exactly `w`: `up_cum` is the sum the draw's
    /// upward walk adds before its tail cut.
    fn new(key: [u32; 3], law: HyperLaw, w: &[f64]) -> LawSummary {
        let HyperLaw::Spread {
            mode,
            total_w,
            n_up,
        } = law
        else {
            unreachable!("a point law has no summary");
        };
        let mut up_cum = 1.0f64;
        for &wt in &w[..n_up] {
            up_cum += wt;
            if wt < TAIL_EPS * total_w {
                break;
            }
        }
        LawSummary {
            key,
            // mode ≤ ndraw, a key entry
            mode: mode as u32,
            total_w,
            up_cum,
        }
    }

    /// [`HyperLaw::draw`] of the summarised law: the same target off
    /// one uniform, the same cumulative sums and tail cut, recomputing
    /// only the weights from the mode to the drawn value. A target at
    /// most `up_cum` lies on the upward side, any other below the mode.
    #[inline]
    fn draw(&self, rng: &mut impl Rng) -> u64 {
        let [ngood, nbad, ndraw] = self.key.map(u64::from);
        let (mode, total_w) = (u64::from(self.mode), self.total_w);
        let target = rng.gen::<f64>() * total_w;
        if 1.0 >= target {
            return mode;
        }
        let mut steps = Steps::new(ngood, nbad, ndraw, mode);
        let mut wt = 1.0;
        if target <= self.up_cum {
            let mut cum = 1.0f64;
            for x in mode + 1..=ngood.min(ndraw) {
                wt = steps.up(wt);
                cum += wt;
                if cum >= target {
                    return x;
                }
            }
        } else {
            let mut cum = self.up_cum;
            for x in (ndraw.saturating_sub(nbad)..mode).rev() {
                wt = steps.down(wt);
                cum += wt;
                if cum >= target {
                    return x;
                }
                if wt < TAIL_EPS * total_w {
                    break;
                }
            }
        }
        // Floating-point remainder: return the mode (center of mass).
        mode
    }
}

const _: () = assert!(std::mem::size_of::<LawSummary>() == 32);

/// Slots of a [`LawTable`]: 128 KiB of summaries. Unit tests run with
/// four, so every one of them draws through constant collisions and
/// evictions.
const LAW_SLOTS: usize = if cfg!(test) { 4 } else { 4096 };
const _: () = assert!(LAW_SLOTS.is_power_of_two());

/// A direct-mapped table of [`LawSummary`]s, one per thread: a drawn
/// law's slot is a hash of its key; a hit draws from the summary, a
/// miss builds the law's weights, draws from them as `HyperLaw::draw`
/// does and overwrites the slot. The slots are allocated on the first
/// spread law drawn and never grown. A point law is never looked up,
/// nor a law with a count of 2³² or more (it is built and drawn).
#[derive(Debug, Default)]
pub(crate) struct LawTable {
    slots: Vec<LawSummary>,
    /// The weights of the law a miss builds.
    weights: Vec<f64>,
}

thread_local! {
    /// This thread's law table.
    pub(crate) static LAWS: RefCell<LawTable> = const {
        RefCell::new(LawTable {
            slots: Vec::new(),
            weights: Vec::new(),
        })
    };
}

impl LawTable {
    /// A draw from the law `(ngood, nbad, ndraw)`, equal — value and
    /// generator state — to `HyperLaw::build` then `draw`.
    pub(crate) fn draw(&mut self, rng: &mut impl Rng, ngood: u64, nbad: u64, ndraw: u64) -> u64 {
        let bounds = match support(ngood, nbad, ndraw) {
            Ok(bounds) => bounds,
            Err(x) => return x,
        };
        self.weights.clear();
        let (Ok(g), Ok(b), Ok(d)) = (ngood.try_into(), nbad.try_into(), ndraw.try_into()) else {
            let law = HyperLaw::scan(ngood, nbad, ndraw, bounds, &mut self.weights);
            return law.draw(rng, &self.weights);
        };
        if self.slots.is_empty() {
            self.slots = vec![LawSummary::EMPTY; LAW_SLOTS];
        }
        let key = [g, b, d];
        let slot = &mut self.slots[slot_of(key)];
        if slot.key == key {
            return slot.draw(rng);
        }
        let law = HyperLaw::scan(ngood, nbad, ndraw, bounds, &mut self.weights);
        *slot = LawSummary::new(key, law, &self.weights);
        law.draw(rng, &self.weights)
    }
}

/// The slot of a key: the top bits of a multiplicative hash.
fn slot_of([ngood, nbad, ndraw]: [u32; 3]) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (u64::from(ngood) << 32 | u64::from(nbad)).wrapping_mul(K) ^ u64::from(ndraw);
    (h.wrapping_mul(K) >> (64 - LAW_SLOTS.trailing_zeros())) as usize
}

/// Hypergeometric sample: number of "good" items among `ndraw` draws
/// without replacement from `ngood` good and `nbad` bad items, through
/// this thread's [`LawTable`].
pub fn hypergeometric(rng: &mut impl Rng, ngood: u64, nbad: u64, ndraw: u64) -> u64 {
    LAWS.with_borrow_mut(|laws| laws.draw(rng, ngood, nbad, ndraw))
}

/// Weighted sampling of `k` distinct indices without replacement
/// (Efraimidis–Spirakis exponential-jump-free variant: key = U^(1/w)).
/// Zero-weight items are never selected; if fewer than `k` items have
/// positive weight, all of them are returned.
pub fn weighted_indices_without_replacement(
    rng: &mut impl Rng,
    weights: &[f64],
    k: usize,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0 && w.is_finite())
        .map(|(i, &w)| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (u.powf(1.0 / w), i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    keyed.truncate(k);
    let mut out: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
    out.sort_unstable();
    out
}

/// Fisher–Yates shuffle of a slice (used by the naive permutation-test
/// baseline).
pub fn shuffle<T>(rng: &mut impl Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn gamma_moments() {
        let mut r = rng();
        for &shape in &[0.5, 1.0, 3.0, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut r = rng();
        for &alpha in &[0.3, 1.0, 5.0] {
            let v = dirichlet_symmetric(&mut r, alpha, 7);
            assert_eq!(v.len(), 7);
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let w = [0.0, 1.0, 3.0];
        let mut hits = [0usize; 3];
        for _ in 0..12_000 {
            hits[categorical(&mut r, &w)] += 1;
        }
        assert_eq!(hits[0], 0);
        let ratio = hits[2] as f64 / hits[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn hypergeometric_bounds_and_mean() {
        let mut r = rng();
        let (ngood, nbad, ndraw) = (30u64, 70u64, 25u64);
        let expect = ndraw as f64 * ngood as f64 / (ngood + nbad) as f64;
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = hypergeometric(&mut r, ngood, nbad, ndraw);
            assert!(x <= ndraw.min(ngood));
            sum += x as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn hypergeometric_degenerate_cases() {
        let mut r = rng();
        assert_eq!(hypergeometric(&mut r, 0, 10, 5), 0);
        assert_eq!(hypergeometric(&mut r, 10, 0, 5), 5);
        assert_eq!(hypergeometric(&mut r, 10, 10, 0), 0);
        // Forced: draw 15 from 10 good + 5 bad => at least 10 good... but
        // x_min = 15-5 = 10 = x_max.
        assert_eq!(hypergeometric(&mut r, 10, 5, 15), 10);
    }

    /// The law `(ngood, nbad, ndraw)` and the weights `build` records.
    fn built(ngood: u64, nbad: u64, ndraw: u64) -> (HyperLaw, Vec<f64>) {
        let mut w = Vec::new();
        (HyperLaw::build(ngood, nbad, ndraw, &mut w), w)
    }

    /// A triple at one of five count scales; one draw count in four sits
    /// within 3 of an end of its range, where supports turn one-sided.
    fn triple(gen: &mut StdRng, k: usize) -> [u64; 3] {
        let scale = [3u64, 30, 400, 5_000, 60_000][k % 5];
        let (ngood, nbad) = (gen.gen_range(0..=scale), gen.gen_range(0..=scale));
        let total = ngood + nbad;
        let ndraw = match gen.gen_range(0..8u32) {
            0 => gen.gen_range(0..=total.min(3)),
            1 => total - gen.gen_range(0..=total.min(3)),
            _ => gen.gen_range(0..=total),
        };
        [ngood, nbad, ndraw]
    }

    fn key32(key: [u64; 3]) -> [u32; 3] {
        key.map(|v| u32::try_from(v).expect("a test key fits 32 bits"))
    }

    /// Where the draw's walk over the recorded weights of a spread law
    /// stops when it does not return, under the final-total cut: `(steps
    /// up, cumulative weight after both sides)`.
    fn walk_ends(law: HyperLaw, w: &[f64]) -> (usize, f64) {
        let HyperLaw::Spread { total_w, n_up, .. } = law else {
            unreachable!("a spread law")
        };
        let (up, down) = w.split_at(n_up);
        let len = |side: &[f64]| {
            side.iter()
                .position(|&wt| wt < TAIL_EPS * total_w)
                .map_or(side.len(), |k| k + 1)
        };
        let (up_len, down_len) = (len(up), len(down));
        let cum = up[..up_len]
            .iter()
            .chain(&down[..down_len])
            .fold(1.0f64, |cum, &wt| cum + wt);
        (up_len, cum)
    }

    #[test]
    fn summary_draws_equal_build_then_draw_on_seeded_triples() {
        // 10⁵ seeded triples: the summary's own draw, and the draw
        // through a (four-slot) table, return what `build` + `draw`
        // returns and leave the generator in the same state. One triple
        // in three repeats one of the last six, so the table both hits
        // and evicts.
        let mut gen = StdRng::seed_from_u64(0x5EED);
        let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut table = LawTable::default();
        let mut recent: Vec<[u64; 3]> = Vec::new();
        // point, ndraw == 0, nbad == 0, one-sided, up walk cut before
        // the recorded weights end, table hit, table eviction
        let mut seen = [0usize; 7];
        for k in 0..100_000usize {
            let key = match recent.len() {
                6 if k % 3 == 2 => recent[gen.gen_range(0..6usize)],
                _ => triple(&mut gen, k),
            };
            if recent.len() == 6 {
                recent.remove(0);
            }
            recent.push(key);
            let [ngood, nbad, ndraw] = key;
            let at = format!("({ngood}, {nbad}, {ndraw}), draw {k}");
            let (law, w) = built(ngood, nbad, ndraw);
            let mut before = b.clone();
            let want = law.draw(&mut b, &w);
            match law {
                HyperLaw::Point(_) => {
                    seen[0] += 1;
                    seen[1] += usize::from(ndraw == 0);
                    seen[2] += usize::from(nbad == 0 && ngood > 0 && ndraw > 0);
                }
                HyperLaw::Spread { mode, n_up, .. } => {
                    let summary = LawSummary::new(key32(key), law, &w);
                    assert_eq!(summary.draw(&mut before), want, "summary, {at}");
                    assert_eq!(before, b, "summary generator state, {at}");
                    let (x_min, x_max) = (ndraw.saturating_sub(nbad), ngood.min(ndraw));
                    seen[3] += usize::from(mode == x_min || mode == x_max);
                    seen[4] += usize::from(walk_ends(law, &w).0 < n_up);
                    if let Some(slots) = Some(&table.slots).filter(|s| !s.is_empty()) {
                        let held = slots[slot_of(key32(key))].key;
                        seen[5] += usize::from(held == key32(key));
                        seen[6] += usize::from(held != key32(key) && held != [0; 3]);
                    }
                }
            }
            assert_eq!(table.draw(&mut a, ngood, nbad, ndraw), want, "table, {at}");
            assert_eq!(a, b, "table generator state, {at}");
        }
        assert!(seen.iter().all(|&n| n > 1_000), "coverage {seen:?}");
        // Counts of 2³² or more are never looked up: drawn as built,
        // leaving the slots as they were.
        let slots = table.slots.clone();
        for key in [
            [(1 << 32) + 5, 3, 4],
            [6, 1 << 32, 5],
            [9, 8, (1 << 32) + 2],
        ] {
            let [ngood, nbad, ndraw] = key;
            if ndraw > ngood + nbad {
                continue;
            }
            let (law, w) = built(ngood, nbad, ndraw);
            let want = law.draw(&mut b, &w);
            assert_eq!(table.draw(&mut a, ngood, nbad, ndraw), want, "{key:?}");
            assert_eq!(a, b, "{key:?}");
        }
        assert_eq!(table.slots, slots);
    }

    /// A generator that replays scripted words.
    struct Script(std::vec::IntoIter<u64>);

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the script ran out")
        }
    }

    /// The word whose uniform is `k / 2⁵³`, and the target it draws.
    fn word(k: u64) -> u64 {
        k << 11
    }

    fn target(k: u64, total_w: f64) -> f64 {
        Script(vec![word(k)].into_iter()).gen::<f64>() * total_w
    }

    /// The largest `k` whose target is at most `c`: `k` and `k + 1`
    /// are the adjacent targets on each side of `c`.
    fn straddle(c: f64, total_w: f64) -> u64 {
        let top = (1u64 << 53) - 1;
        let mut k = ((c / total_w) * (1u64 << 53) as f64).min(top as f64) as u64;
        while k > 0 && target(k, total_w) > c {
            k -= 1;
        }
        while k < top && target(k + 1, total_w) <= c {
            k += 1;
        }
        k
    }

    #[test]
    fn summary_draws_take_the_same_side_of_every_boundary() {
        // Targets on each side of the mode's weight (1) and of the
        // up-end cumulative, and the largest target of all, which lies
        // above every cumulative of some laws (the mode fallback): the
        // summary must step exactly as the recorded weights do.
        let mut gen = StdRng::seed_from_u64(0xB0B);
        let mut fallbacks = 0;
        let mut laws = 0;
        for k in 0..4_000usize {
            let key = triple(&mut gen, k);
            let [ngood, nbad, ndraw] = key;
            let (law, w) = built(ngood, nbad, ndraw);
            let HyperLaw::Spread { mode, total_w, .. } = law else {
                continue;
            };
            laws += 1;
            let summary = LawSummary::new(key32(key), law, &w);
            let (_, last_cum) = walk_ends(law, &w);
            let top = (1u64 << 53) - 1;
            let mut probes = vec![top];
            for c in [1.0, summary.up_cum] {
                let k = straddle(c, total_w);
                assert!(target(k, total_w) <= c, "{key:?}");
                assert!(k == top || target(k + 1, total_w) > c, "{key:?}");
                probes.extend([k.saturating_sub(1), k, (k + 1).min(top), (k + 2).min(top)]);
            }
            for &p in &probes {
                let want = law.draw(&mut Script(vec![word(p)].into_iter()), &w);
                let got = summary.draw(&mut Script(vec![word(p)].into_iter()));
                assert_eq!(got, want, "{key:?}, uniform {p} / 2^53");
            }
            if target(top, total_w) > last_cum {
                fallbacks += 1;
                assert_eq!(law.draw(&mut Script(vec![word(top)].into_iter()), &w), mode);
            }
        }
        assert!(
            laws > 2_000 && fallbacks > 0,
            "{laws} laws, {fallbacks} fallbacks"
        );
    }

    #[test]
    fn weighted_wor_selects_positive_only() {
        let mut r = rng();
        let w = [0.0, 2.0, 0.0, 1.0, 4.0];
        let sel = weighted_indices_without_replacement(&mut r, &w, 10);
        assert_eq!(sel, vec![1, 3, 4]); // all positive-weight, sorted
        let sel2 = weighted_indices_without_replacement(&mut r, &w, 2);
        assert_eq!(sel2.len(), 2);
        assert!(sel2.iter().all(|&i| w[i] > 0.0));
    }

    #[test]
    fn weighted_wor_prefers_heavy() {
        let mut r = rng();
        let w = [1.0, 100.0, 1.0];
        let mut hits = 0;
        for _ in 0..500 {
            let sel = weighted_indices_without_replacement(&mut r, &w, 1);
            if sel == vec![1] {
                hits += 1;
            }
        }
        assert!(hits > 450, "heavy index selected {hits}/500");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut xs: Vec<u32> = (0..100).collect();
        shuffle(&mut r, &mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }
}
