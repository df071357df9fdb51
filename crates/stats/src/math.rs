//! Special functions implemented from scratch: ln-gamma, regularised
//! incomplete gamma, the χ² survival function, and the normal
//! distribution. Accuracy targets (~1e-10 for gamma-family, ~1e-7 for
//! erf) are far below the Monte-Carlo noise floor of the permutation
//! tests they support; unit tests pin reference values from standard
//! tables.

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
///
/// Valid for `x > 0`; relative error below 1e-13 on that range.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0, "ln_gamma domain: x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula to stay in the stable region.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of `n!`, exact-table backed for small `n`.
pub fn ln_factorial(n: u64) -> f64 {
    // First values computed exactly; beyond that use ln_gamma(n+1).
    const TABLE_LEN: usize = 128;
    static TABLE: std::sync::OnceLock<[f64; TABLE_LEN]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0; TABLE_LEN];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate() {
            if i > 0 {
                acc += (i as f64).ln();
            }
            *slot = acc;
        }
        t
    });
    if (n as usize) < TABLE_LEN {
        table[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Regularised lower incomplete gamma function `P(a, x)`.
///
/// Series expansion for `x < a+1`, continued fraction otherwise
/// (Numerical Recipes `gammp`/`gammq` construction).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gamma_p domain: a>0, x>=0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_contfrac(a, x)
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gamma_q domain: a>0, x>=0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    (ln_pre + sum.ln()).exp()
}

fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    // Lentz's algorithm for the continued fraction.
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (ln_pre.exp()) * h
}

/// Survival function of the χ² distribution with `df` degrees of
/// freedom: `P[X ≥ x]`.
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    if df <= 0.0 {
        // Degenerate test (no degrees of freedom): any statistic is
        // "expected", report p = 1.
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0).clamp(0.0, 1.0)
}

/// Error function, Abramowitz & Stegun 7.1.26-style rational
/// approximation refined with one extra term (|err| < 1.2e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (Acklam's rational approximation,
/// |relative err| < 1.15e-9).
pub fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let q = p.min(1.0 - p);
    let x = if q < P_LOW {
        let u = (-2.0 * q.ln()).sqrt();
        (((((C[0] * u + C[1]) * u + C[2]) * u + C[3]) * u + C[4]) * u + C[5])
            / ((((D[0] * u + D[1]) * u + D[2]) * u + D[3]) * u + 1.0)
    } else {
        let u = q - 0.5;
        let r = u * u;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * u
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    };
    // `x` is the quantile of min(p, 1-p) — negative by construction.
    if p < 0.5 {
        x
    } else {
        -x
    }
}

/// `x * ln(x)` with the measure-theoretic convention `0 ln 0 = 0`.
#[inline]
pub fn xlnx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_reference_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24.0f64.ln(), 1e-11);
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-11);
        close(ln_gamma(10.5), 1_133_278.388_948_441_4_f64.ln(), 1e-9);
    }

    #[test]
    fn ln_factorial_matches_gamma() {
        for n in 0..200u64 {
            close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-8);
        }
        assert_eq!(ln_factorial(0), 0.0);
        close(ln_factorial(5), 120.0f64.ln(), 1e-12);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 9.0), (20.0, 15.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn chi2_reference_values() {
        // Classic table values: P[X >= x] for df degrees of freedom.
        close(chi2_sf(3.841, 1.0), 0.05, 2e-4);
        close(chi2_sf(5.991, 2.0), 0.05, 2e-4);
        close(chi2_sf(6.635, 1.0), 0.01, 2e-4);
        close(chi2_sf(18.307, 10.0), 0.05, 2e-4);
        // Exponential special case: df=2 => sf(x) = exp(-x/2).
        close(chi2_sf(4.0, 2.0), (-2.0f64).exp(), 1e-10);
    }

    #[test]
    fn chi2_edge_cases() {
        assert_eq!(chi2_sf(0.0, 5.0), 1.0);
        assert_eq!(chi2_sf(-1.0, 5.0), 1.0);
        assert_eq!(chi2_sf(10.0, 0.0), 1.0);
        assert!(chi2_sf(1e6, 1.0) < 1e-12);
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has |abs err| < 1.5e-7.
        close(erf(0.0), 0.0, 2e-7);
        close(erf(1.0), 0.842_700_79, 1e-6);
        close(erf(-1.0), -0.842_700_79, 1e-6);
        close(erf(2.0), 0.995_322_27, 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        close(normal_cdf(0.0), 0.5, 2e-7);
        close(normal_cdf(1.96), 0.975, 1e-4);
        close(normal_cdf(-1.96), 0.025, 1e-4);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            close(normal_cdf(normal_quantile(p)), p, 1e-6);
        }
        close(normal_quantile(0.975), 1.959_964, 1e-5);
    }

    #[test]
    fn xlnx_zero_convention() {
        assert_eq!(xlnx(0.0), 0.0);
        assert_eq!(xlnx(-1.0), 0.0);
        close(xlnx(1.0), 0.0, 1e-15);
        close(xlnx(std::f64::consts::E), std::f64::consts::E, 1e-12);
    }
}
