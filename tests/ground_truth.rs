//! Answers checked against the truth, not against another run of the
//! same code. This file holds the *exactness* tier — the samplers under
//! the MIT test and the test's p-value, each compared with a law small
//! enough to enumerate, and every test's rejection rate on null data —
//! and the paper's *headline cases*: Berkeley 1973
//! and the flight-delay Simpson reversal, their detected bias, named
//! covariates and rewritten answers asserted as values worked out here
//! from the published counts and from the raw rows. Seeds are fixed, so
//! every test is deterministic; each tolerance is stated where it is
//! applied.

use hypdb::datasets as ds;
use hypdb::prelude::*;
use hypdb::stats::independence::{
    chi2_test, hymit, mit, mit_sampled, mit_settle_one, shuffle_test, MitConfig, MitJob, Strata,
};
use hypdb::stats::patefield::sample_table;
use hypdb::stats::random::hypergeometric;
use hypdb::stats::CrossTab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// `C(n, k)`, exact in `u128` for every `n` used here (`n ≤ 120`).
fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    (0..k.min(n - k) as u128).fold(1u128, |acc, i| acc * (n as u128 - i) / (i + 1))
}

/// Asserts an observed frequency is within five standard errors of the
/// exact probability `p` over `trials` draws (a two-sided miss
/// probability under 10⁻⁶ per comparison), plus one count of slack for
/// probabilities so small that the normal bound is under one draw.
fn assert_frequency(hits: usize, p: f64, trials: usize, what: &str) {
    let freq = hits as f64 / trials as f64;
    let tol = 5.0 * (p * (1.0 - p) / trials as f64).sqrt() + 1.0 / trials as f64;
    assert!(
        (freq - p).abs() <= tol,
        "{what}: frequency {freq} vs exact {p} (tolerance {tol})"
    );
}

#[test]
fn hypergeometric_frequencies_match_the_exact_pmf() {
    // P(x) = C(ngood, x)·C(nbad, ndraw − x) / C(ngood + nbad, ndraw).
    let trials = 40_000;
    let mut rng = StdRng::seed_from_u64(0x1981);
    for (ngood, nbad, ndraw) in [
        (5u64, 7u64, 4u64),
        (10, 10, 10),
        (30, 70, 25),
        (3, 40, 20),
        (50, 2, 30),
        (60, 60, 60),
    ] {
        let mut hist = vec![0usize; ndraw as usize + 1];
        for _ in 0..trials {
            hist[hypergeometric(&mut rng, ngood, nbad, ndraw) as usize] += 1;
        }
        let all = binomial(ngood + nbad, ndraw) as f64;
        for (x, &hits) in hist.iter().enumerate() {
            let x = x as u64;
            let p = (binomial(ngood, x) * binomial(nbad, ndraw - x)) as f64 / all;
            assert_frequency(
                hits,
                p,
                trials,
                &format!("hypergeometric({ngood}, {nbad}, {ndraw}) = {x}"),
            );
        }
    }
}

/// Every table with the given marginals and its probability under a
/// uniform shuffle, `Πrᵢ!·Πcⱼ! / (n!·Πaᵢⱼ!)`, by filling the cells in
/// row-major order and pruning on the remaining row and column sums.
fn enumerate_tables(rows: &[u64], cols: &[u64]) -> Vec<(Vec<u64>, f64)> {
    fn fill(
        k: usize,
        c: usize,
        cells: &mut Vec<u64>,
        row_left: &mut [u64],
        col_left: &mut [u64],
        out: &mut Vec<Vec<u64>>,
    ) {
        if k == row_left.len() * c {
            if row_left.iter().chain(col_left.iter()).all(|&v| v == 0) {
                out.push(cells.clone());
            }
            return;
        }
        let (i, j) = (k / c, k % c);
        // The last cell of a row takes what the row has left.
        let lo = if j == c - 1 { row_left[i] } else { 0 };
        for v in lo..=row_left[i].min(col_left[j]) {
            cells.push(v);
            row_left[i] -= v;
            col_left[j] -= v;
            fill(k + 1, c, cells, row_left, col_left, out);
            row_left[i] += v;
            col_left[j] += v;
            cells.pop();
        }
    }
    let factorial = |v: u64| (1..=v).map(|x| x as f64).product::<f64>(); // exact to 18!
    let mut tables = Vec::new();
    fill(
        0,
        cols.len(),
        &mut Vec::new(),
        &mut rows.to_vec(),
        &mut cols.to_vec(),
        &mut tables,
    );
    let n: u64 = rows.iter().sum();
    let numerator: f64 = rows.iter().chain(cols).map(|&v| factorial(v)).product();
    tables
        .into_iter()
        .map(|cells| {
            let denominator = factorial(n) * cells.iter().map(|&v| factorial(v)).product::<f64>();
            (cells, numerator / denominator)
        })
        .collect()
}

/// Marginals small enough to enumerate: 2×3 and 3×3, totals ≤ 12.
const ENUMERABLE: [(&[u64], &[u64]); 4] = [
    (&[5, 7], &[3, 4, 5]),
    (&[2, 6], &[1, 3, 4]),
    (&[3, 4, 5], &[4, 4, 4]),
    (&[2, 3, 4], &[3, 1, 5]),
];

#[test]
fn patefield_table_frequencies_match_brute_force_enumeration() {
    let trials = 60_000;
    let mut rng = StdRng::seed_from_u64(0xA5159);
    for (rows, cols) in ENUMERABLE {
        let exact = enumerate_tables(rows, cols);
        let mass: f64 = exact.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12, "enumeration mass {mass}");
        let mut hist: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for _ in 0..trials {
            *hist
                .entry(sample_table(&mut rng, rows, cols).counts().to_vec())
                .or_default() += 1;
        }
        for (cells, p) in &exact {
            let hits = hist.remove(cells).unwrap_or(0);
            assert_frequency(
                hits,
                *p,
                trials,
                &format!("{rows:?}x{cols:?} table {cells:?}"),
            );
        }
        assert!(hist.is_empty(), "sampled tables outside the enumeration");
    }
}

#[test]
fn mit_p_value_brackets_the_enumerated_exact_p_value() {
    // The exact permutation p-value of an observed table is the mass of
    // the tables (same marginals) whose MI is at least the observed one
    // — with the tie tolerance MIT itself uses. The Monte-Carlo p-value
    // must put it inside the 95 % interval it reports.
    let observed: [(usize, usize, &[u64]); 4] = [
        (2, 3, &[2, 1, 2, 1, 3, 3]),
        (2, 3, &[0, 2, 0, 1, 1, 4]),
        (3, 3, &[2, 1, 0, 1, 2, 1, 1, 1, 3]),
        (3, 3, &[1, 0, 1, 1, 1, 1, 1, 0, 3]),
    ];
    for (seed, (r, c, cells)) in observed.into_iter().enumerate() {
        let tab = CrossTab::new(r, c, cells.to_vec());
        let s0 = tab.mutual_information();
        let exact: f64 = enumerate_tables(&tab.row_sums(), &tab.col_sums())
            .into_iter()
            .filter(|(t, _)| CrossTab::new(r, c, t.clone()).mutual_information() >= s0 - 1e-12)
            .map(|(_, p)| p)
            .sum();
        let out = mit(
            &Strata::single(tab),
            4_000,
            &mut StdRng::seed_from_u64(seed as u64),
        );
        let (lo, hi) = out.ci95.expect("permutation test reports an interval");
        assert!(
            lo <= exact && exact <= hi,
            "{cells:?}: exact p {exact} outside the reported ci95 [{lo}, {hi}] (p̂ = {})",
            out.p_value
        );
    }
}

#[test]
fn every_test_holds_its_level_under_the_null() {
    // Null strata: every group drawn by `sample_table` from fixed
    // marginals, so X ⊥ Y | Z holds exactly. At alpha = 0.1 each test
    // may reject at most alpha plus `assert_frequency`'s tolerance —
    // one-sided, because exact permutation tests on discrete tables
    // are conservative. χ² is held to it only where its asymptotics
    // apply (n ≥ 5·df). A screened job must reach the single-stage
    // verdict on every trial. The last three shapes are near-keys —
    // `c` ≈ 0.67–0.8·n, `r·c ≥ 64` and `n < r·c` — whose groups the
    // permutation kernel deals units to instead of walking Patefield
    // cells.
    let (alpha, trials, m) = (0.1, 200, 100);
    let bound = alpha + 5.0 * (alpha * (1.0 - alpha) / trials as f64).sqrt() + 1.0 / trials as f64;
    let shapes: [(&[u64], Vec<u64>); 6] = [
        (&[30, 20], vec![25, 25]),
        (&[20, 25, 15], vec![15, 15, 15, 15]),
        (&[16, 14, 12, 10, 8], vec![12, 12, 12, 12, 12]),
        (&[25, 20], near_key_cols(28, 7, &[3])),
        (&[14, 12, 10], near_key_cols(14, 8, &[3, 3])),
        (&[8, 7, 6, 5, 4], near_key_cols(12, 6, &[3, 3])),
    ];
    let beta_high = MitConfig {
        permutations: m,
        beta: 1e12,
    };
    let mut chi2_cells = 0;
    for (rows, cols) in &shapes {
        let (cells, n) = (rows.len() * cols.len(), rows.iter().sum::<u64>());
        assert_eq!(n, cols.iter().sum::<u64>());
        if cols.len() > 5 {
            assert!(
                cells >= 64 && n < cells as u64,
                "{rows:?} is not large and sparse"
            );
        }
        for groups in [1usize, 4] {
            let at = format!("{}x{} x {groups} groups", rows.len(), cols.len());
            let mut gen = StdRng::seed_from_u64(0x4E11 + groups as u64 * 10 + rows.len() as u64);
            let mut rejects = [0usize; 5];
            let mut chi2_applies = true;
            for trial in 0..trials {
                let strata = Strata::new(
                    (0..groups)
                        .map(|g| {
                            let mut turned = rows.to_vec();
                            turned.rotate_left(g % rows.len());
                            sample_table(&mut gen, &turned, cols)
                        })
                        .collect(),
                );
                let seed = || StdRng::seed_from_u64(trial);
                let single = mit(&strata, m, &mut seed());
                let staged_job = MitJob {
                    strata: &strata,
                    permutations: m,
                    group_sample: None,
                    screen: Some(alpha),
                };
                let (staged, _) = mit_settle_one(&staged_job, &mut seed());
                assert_eq!(
                    staged.independent(alpha),
                    single.independent(alpha),
                    "{at}, trial {trial}: staging moved the verdict"
                );
                let chi2 = chi2_test(&strata);
                chi2_applies &= strata.total() as f64 >= 5.0 * strata.dof();
                let outcomes = [
                    single,
                    mit_sampled(&strata, m, groups.div_ceil(2), &mut seed()),
                    hymit(&strata, &beta_high, &mut seed()),
                    staged,
                    chi2,
                ];
                for (count, out) in rejects.iter_mut().zip(&outcomes) {
                    *count += usize::from(out.dependent(alpha));
                }
            }
            let names = ["mit", "mit_sampled", "hymit", "staged", "chi2"];
            let checked = if chi2_applies { 5 } else { 4 };
            chi2_cells += usize::from(chi2_applies);
            for (name, &count) in names.iter().zip(&rejects).take(checked) {
                let rate = count as f64 / trials as f64;
                assert!(
                    rate <= bound,
                    "{name}, {at}: null rejection rate {rate} above {bound}"
                );
            }
        }
    }
    assert!(chi2_cells >= 2, "χ² checked on {chi2_cells} cells");
}

/// Near-key column sums: `ones` columns of total 1, `twos` of total 2,
/// then `more`.
fn near_key_cols(ones: usize, twos: usize, more: &[u64]) -> Vec<u64> {
    let mut cols = vec![1; ones];
    cols.resize(ones + twos, 2);
    cols.extend_from_slice(more);
    cols
}

#[test]
fn unit_routed_mit_has_the_power_of_row_shuffling() {
    // Planted dependence on near-key strata: in each of 4 groups, every
    // row of column `j` takes X = j mod 3 with probability `q`, else a
    // uniform X. MIT on the stratified counts (large and sparse, so
    // dealt by unit placement) must reject as often as shuffling the
    // raw rows does, within five standard errors of the difference.
    let (alpha, trials, m, q) = (0.1, 200, 100, 0.35);
    let cols = near_key_cols(14, 8, &[3, 3]);
    let (r, c) = (3usize, cols.len());
    let mut gen = StdRng::seed_from_u64(0x9043);
    let mut rejects = [0usize; 2];
    for trial in 0..trials {
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        let mut tabs = Vec::new();
        for g in 0..4u32 {
            let mut tab = CrossTab::zeros(r, c);
            for (j, &cj) in cols.iter().enumerate() {
                for _ in 0..cj {
                    let xi = if gen.gen::<f64>() < q {
                        j % r
                    } else {
                        gen.gen_range(0..r)
                    };
                    tab.add(xi, j, 1);
                    x.push(xi as u32);
                    y.push(j as u32);
                    z.push(g);
                }
            }
            tabs.push(tab);
        }
        let strata = Strata::new(tabs);
        let seed = || StdRng::seed_from_u64(trial);
        let outcomes = [
            mit(&strata, m, &mut seed()),
            shuffle_test(&x, &y, &z, m, &mut seed()),
        ];
        assert_eq!(
            outcomes[0].statistic.to_bits(),
            outcomes[1].statistic.to_bits(),
            "trial {trial}: the observed statistics differ"
        );
        for (count, out) in rejects.iter_mut().zip(&outcomes) {
            *count += usize::from(out.dependent(alpha));
        }
    }
    let [units, shuffled] = rejects.map(|k| k as f64 / trials as f64);
    let pooled = (units + shuffled) / 2.0;
    let tol = 5.0 * (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt() + 1.0 / trials as f64;
    assert!(
        (0.2..=0.9).contains(&pooled),
        "power {pooled} too extreme to compare"
    );
    assert!(
        (units - shuffled).abs() <= tol,
        "power: unit-routed mit {units} vs shuffle_test {shuffled} (tolerance {tol})"
    );
}

/// The two compared groups of a one-context report: `(SQL answers,
/// rewritten answers)`, each `[level 0, level 1]` in the report's level
/// order, after checking that the query was flagged as biased.
fn headline(report: &AnalysisReport, levels: [&str; 2]) -> ([f64; 2], [f64; 2]) {
    assert_eq!(report.contexts.len(), 1);
    let ctx = &report.contexts[0];
    assert_eq!(ctx.levels, levels);
    assert!(ctx.bias_total.biased, "{:?}", ctx.bias_total);
    let total = ctx.total_effect.as_ref().expect("two levels compared");
    assert_eq!(total.matched_blocks, total.total_blocks);
    assert_eq!(total.matched_fraction, 1.0);
    (
        [ctx.sql_answers[0][0], ctx.sql_answers[1][0]],
        [total.adjusted[0][0], total.adjusted[1][0]],
    )
}

/// Absolute tolerance for a value recomputed here in a different
/// operation order: a few ulps of a number in [0, 1].
const RECOMPUTED: f64 = 1e-12;

#[test]
fn berkeley_1973_answers_match_the_published_counts() {
    // Bickel, Hammel & O'Connell (1975), Table 1: per department,
    // (male applicants, admitted, female applicants, admitted).
    type Dept = (f64, f64, f64, f64);
    let published: [Dept; 6] = [
        (825.0, 512.0, 108.0, 89.0),
        (560.0, 353.0, 25.0, 17.0),
        (325.0, 120.0, 593.0, 202.0),
        (417.0, 138.0, 375.0, 131.0),
        (191.0, 53.0, 393.0, 94.0),
        (373.0, 22.0, 341.0, 24.0),
    ];
    let table = ds::berkeley_data();
    let q = Query::from_sql(
        "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender",
        &table,
    )
    .expect("query");
    let report = HypDb::new(&table).analyze(&q).expect("analysis");
    assert_eq!(report.covariates, ["Department"]);
    let (sql, rewritten) = headline(&report, ["Male", "Female"]);

    // The naive answers are the pooled admission rates …
    let pooled = |apps: fn(&Dept) -> (f64, f64)| {
        let (a, d) = published
            .iter()
            .map(apps)
            .fold((0.0, 0.0), |(a, d), (x, y)| (a + x, d + y));
        d / a
    };
    assert_eq!(sql[0], pooled(|r| (r.0, r.1)), "1198 / 2691");
    assert_eq!(sql[1], pooled(|r| (r.2, r.3)), "557 / 1835");
    // … the rewritten ones weight each department's rate by its share
    // of all 4 526 applicants (every department has both genders).
    let everyone: f64 = published.iter().map(|r| r.0 + r.2).sum();
    let weighted = |rate: fn(&Dept) -> f64| -> f64 {
        published
            .iter()
            .map(|r| (r.0 + r.2) / everyone * rate(r))
            .sum()
    };
    let expect = [weighted(|r| r.1 / r.0), weighted(|r| r.3 / r.2)];
    for (got, want) in rewritten.iter().zip(expect) {
        assert!((got - want).abs() <= RECOMPUTED, "{got} vs {want}");
    }
    // The reversal, to the printed digits: men ahead by 14.2 points in
    // the naive answer, women ahead by 4.3 once departments are held.
    assert!(((sql[1] - sql[0]) - -0.1416).abs() < 5e-4);
    assert!(((rewritten[1] - rewritten[0]) - 0.0426).abs() < 5e-4);
}

#[test]
fn flight_simpson_reversal_matches_block_weighted_averages_of_the_rows() {
    let table = ds::flight_data(&ds::FlightConfig {
        total_attrs: 24,
        ..ds::FlightConfig::default()
    });
    let q = Query::from_sql(
        "SELECT Carrier, avg(Delayed) FROM FlightData \
         WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
         GROUP BY Carrier",
        &table,
    )
    .expect("query");
    let report = HypDb::new(&table).analyze(&q).expect("analysis");
    // The generator draws Carrier from Airport and Year and nothing
    // else; Airport carries the paradox.
    assert!(report.covariates.contains(&"Airport".to_string()));
    assert!(
        report
            .covariates
            .iter()
            .all(|z| z == "Airport" || z == "Year"),
        "{:?}",
        report.covariates
    );
    let (sql, rewritten) = headline(&report, ["AA", "UA"]);

    // The same answers from the raw rows, by value: per covariate block
    // and carrier, (flights, delayed flights).
    let attr = |name: &str| table.attr(name).expect("attr");
    let (carrier, airport, delayed) = (attr("Carrier"), attr("Airport"), attr("Delayed"));
    let covariates: Vec<AttrId> = report.covariates.iter().map(|z| attr(z)).collect();
    let mut blocks: BTreeMap<Vec<String>, [(f64, f64); 2]> = BTreeMap::new();
    for row in 0..table.nrows() as u32 {
        let level = match table.value(carrier, row) {
            "AA" => 0,
            "UA" => 1,
            _ => continue,
        };
        if !["COS", "MFE", "MTJ", "ROC"].contains(&table.value(airport, row)) {
            continue;
        }
        let key = covariates
            .iter()
            .map(|&z| table.value(z, row).to_string())
            .collect();
        let cell = &mut blocks.entry(key).or_default()[level];
        cell.0 += 1.0;
        cell.1 += table.value(delayed, row).parse::<f64>().expect("0/1");
    }
    assert!(blocks.values().all(|b| b[0].0 > 0.0 && b[1].0 > 0.0));
    let selected: f64 = blocks.values().map(|b| b[0].0 + b[1].0).sum();
    for level in 0..2 {
        let flights: f64 = blocks.values().map(|b| b[level].0).sum();
        let late: f64 = blocks.values().map(|b| b[level].1).sum();
        assert_eq!(sql[level], late / flights);
        let weighted: f64 = blocks
            .values()
            .map(|b| (b[0].0 + b[1].0) / selected * (b[level].1 / b[level].0))
            .sum();
        assert!(
            (rewritten[level] - weighted).abs() <= RECOMPUTED,
            "{} vs {weighted}",
            rewritten[level]
        );
    }
    // Simpson: AA looks better than UA overall and is worse once the
    // airport is held fixed.
    assert!(sql[0] < sql[1], "naive: AA {} vs UA {}", sql[0], sql[1]);
    assert!(
        rewritten[0] > rewritten[1],
        "rewritten: AA {} vs UA {}",
        rewritten[0],
        rewritten[1]
    );
}
