//! Special functions implemented from scratch: ln-gamma, regularised
//! incomplete gamma and the χ² survival function. Accuracy targets
//! (~1e-10) are far below the Monte-Carlo noise floor of the
//! permutation tests they support; unit tests pin reference values
//! from standard tables.

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
        // ln n! summed term by term against ln Γ(n + 1).
        let mut ln_fact = 0.0f64;
        for n in 0..200u64 {
            if n > 0 {
                ln_fact += (n as f64).ln();
            }
            close(ln_gamma(n as f64 + 1.0), ln_fact, 1e-8);
        }
        close(ln_gamma(6.0), 120.0f64.ln(), 1e-12);
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
    fn xlnx_zero_convention() {
        assert_eq!(xlnx(0.0), 0.0);
        assert_eq!(xlnx(-1.0), 0.0);
        close(xlnx(1.0), 0.0, 1e-15);
        close(xlnx(std::f64::consts::E), std::f64::consts::E, 1e-12);
    }
}
