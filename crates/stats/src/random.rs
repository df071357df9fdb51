//! Random variates beyond what the offline `rand` crate offers:
//! gamma/Dirichlet (for random CPT generation), hypergeometric (the
//! per-cell conditional of Patefield's algorithm), categorical sampling,
//! and weighted index sampling without replacement (for MIT's group
//! sampling, §5).

use rand::Rng;

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
/// total. Anchoring at the mode avoids the tail underflow a scan from
/// the support's lower bound suffers at OLAP-sized counts, while staying
/// exact: only relative weights matter. [`HyperLaw::build`] runs that
/// scan once and appends every weight to a caller-owned buffer;
/// [`HyperLaw::draw`] inverts the CDF over the recorded weights in the
/// same order (mode, upwards, downwards), consuming one uniform. A law
/// whose parameters repeat — cell (0,0) of every permuted table of a
/// group — is built once and drawn from many times.
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

impl HyperLaw {
    /// Scans the support once and appends the weights to `w` (which may
    /// already hold other laws' weights — the caller remembers where
    /// this law's start). Panics if `ndraw > ngood + nbad` or the
    /// population reaches 2⁵³.
    pub(crate) fn build(ngood: u64, nbad: u64, ndraw: u64, w: &mut Vec<f64>) -> HyperLaw {
        let total = ngood + nbad;
        assert!(ndraw <= total, "cannot draw more than the population");
        // Counts are stepped as floats below; past 2⁵³ a step is lost.
        assert!(total < 1 << 53, "population beyond exact f64 integers");
        if ndraw == 0 || ngood == 0 {
            return HyperLaw::Point(0);
        }
        if nbad == 0 {
            return HyperLaw::Point(ndraw);
        }
        let x_min = ndraw.saturating_sub(nbad);
        let x_max = ngood.min(ndraw);
        if x_min == x_max {
            return HyperLaw::Point(x_min);
        }
        // Mode of the hypergeometric: floor((ndraw+1)(ngood+1)/(total+2)).
        let mode = (((ndraw + 1) as u128 * (ngood + 1) as u128) / (total + 2) as u128) as u64;
        let mode = mode.clamp(x_min, x_max);

        // P(x+1)/P(x) = (ngood−x)(ndraw−x) / ((x+1)(nbad−ndraw+x+1)): the
        // four factors as floats, stepped by ±1 — exactly the values
        // converting the integers at every step would give.
        let mut up = [
            (ngood - mode) as f64,
            (ndraw - mode) as f64,
            (mode + 1) as f64,
            (nbad + mode + 1 - ndraw) as f64,
        ];
        // The downward walk divides by P(x)/P(x−1): one step back.
        let mut down = [up[0] + 1.0, up[1] + 1.0, up[2] - 1.0, up[3] - 1.0];
        let start = w.len();
        let mut total_w = 1.0f64;
        let mut wt = 1.0;
        for _ in mode..x_max {
            wt *= (up[0] * up[1]) / (up[2] * up[3]);
            total_w += wt;
            w.push(wt);
            if wt < TAIL_EPS * total_w {
                break;
            }
            up = [up[0] - 1.0, up[1] - 1.0, up[2] + 1.0, up[3] + 1.0];
        }
        let n_up = w.len() - start;
        let mut wt = 1.0;
        for _ in x_min..mode {
            wt /= (down[0] * down[1]) / (down[2] * down[3]);
            total_w += wt;
            w.push(wt);
            if wt < TAIL_EPS * total_w {
                break;
            }
            down = [down[0] + 1.0, down[1] + 1.0, down[2] - 1.0, down[3] - 1.0];
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

/// Hypergeometric sample: number of "good" items among `ndraw` draws
/// without replacement from `ngood` good and `nbad` bad items — one
/// `HyperLaw` built and drawn from once.
pub fn hypergeometric(rng: &mut impl Rng, ngood: u64, nbad: u64, ndraw: u64) -> u64 {
    let mut w = Vec::new();
    HyperLaw::build(ngood, nbad, ndraw, &mut w).draw(rng, &w)
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
