//! The §6 materialisation property: the oracle's caches — entropies,
//! contingency tables, and the rule that derives a table from the
//! cached superset with the fewest cells instead of scanning — decide
//! *how* a count is obtained, never what it is. With both caches off
//! (`materialize: false, cache_entropies: false`, the paper's Fig. 6
//! scan-everything baseline) every count is a row scan; outcomes and
//! report bodies must not move by a bit, at any worker count.

use hypdb::causal::{CiConfig, CiOracle, DataOracle};
use hypdb::core::{wire, AnalyzeRequest, HypDbConfig};
use hypdb::datasets as ds;
use hypdb::exec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    exec::set_global_threads(threads);
    let out = f();
    exec::set_global_threads(0);
    out
}

/// `cfg` with every count a row scan.
fn scan_everything(mut cfg: CiConfig) -> CiConfig {
    cfg.materialize = false;
    cfg.cache_entropies = false;
    cfg
}

#[test]
fn caches_never_change_an_outcome_or_a_report_byte() {
    for beta in [5.0, 1e12] {
        let mut ci = CiConfig::default();
        ci.mit.beta = beta;

        // Random statements (duplicates and shared conditioning sets
        // included) on generated datasets with known DAGs.
        for seed in [3u64, 17] {
            let data = ds::random_data(&ds::RandomDataConfig {
                nodes: 6,
                rows: 3_000,
                seed,
                ..ds::RandomDataConfig::default()
            });
            let table = &data.table;
            let n = table.schema().len();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
            let mut stmts = Vec::new();
            for _ in 0..24 {
                let x = rng.gen_range(0..n);
                let mut y = rng.gen_range(0..n - 1);
                if y >= x {
                    y += 1;
                }
                let mut z: Vec<usize> = (0..n).filter(|&v| v != x && v != y).collect();
                for k in (1..z.len()).rev() {
                    z.swap(k, rng.gen_range(0..=k));
                }
                z.truncate(rng.gen_range(0..=2));
                stmts.push((x, y, z));
            }
            let run = |cfg: CiConfig, threads: usize| {
                let o = DataOracle::over_all_attrs(table, table.all_rows(), cfg);
                let outs: Vec<_> = with_threads(threads, || {
                    stmts.iter().map(|(x, y, z)| o.test(*x, *y, z)).collect()
                });
                (outs, o.stats())
            };
            let (reference, stats) = run(ci, 1);
            assert!(stats.marginalizations > 0 && stats.entropy_hits > 0);
            for threads in [1usize, 4] {
                assert_eq!(run(ci, threads).0, reference, "seed={seed} beta={beta}");
                let (outs, stats) = run(scan_everything(ci), threads);
                assert_eq!(outs, reference, "seed={seed} beta={beta} threads={threads}");
                assert_eq!(stats.marginalizations + stats.entropy_hits, 0);
            }
        }

        // The full analyze pipeline: the wire body (canonical JSON,
        // timings zeroed) is the strongest equality we can assert.
        let cases = [
            (
                ds::cancer_data(2_000, 1),
                "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
                "cancer",
            ),
            (
                ds::adult_data(&ds::AdultConfig {
                    rows: 4_000,
                    seed: 1994,
                }),
                "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
                "adult",
            ),
        ];
        for (table, sql, name) in &cases {
            let req = AnalyzeRequest::new(*name, *sql);
            let body = |ci: CiConfig, threads: usize| {
                let cfg = HypDbConfig {
                    ci,
                    ..HypDbConfig::default()
                };
                with_threads(threads, || {
                    wire::report_body(&wire::analyze(table, &req, &cfg).expect("analysis"))
                })
            };
            let reference = body(ci, 1);
            for threads in [1usize, 4] {
                assert_eq!(body(ci, threads), reference, "{name} beta={beta}");
                assert_eq!(
                    body(scan_everything(ci), threads),
                    reference,
                    "{name} beta={beta} threads={threads}: scanning changed bytes"
                );
            }
        }
    }
}

#[test]
fn each_table_is_built_once_per_cache_at_4_threads() {
    // Askers racing on one table key wait for its first builder, so
    // every table in the cache was scanned or marginalised exactly once
    // — however many of four workers asked for it at once.
    use hypdb::core::OracleCache;
    use std::sync::Arc;

    let mut perm = HypDbConfig::default();
    perm.ci.mit.beta = 1e6;
    let cases = [
        (
            ds::flight_data(&ds::FlightConfig {
                total_attrs: 32,
                ..ds::FlightConfig::default()
            }),
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
             GROUP BY Carrier",
            "flight",
            HypDbConfig::default(),
        ),
        (
            ds::cancer_data(1_000, 1),
            "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
            "cancer",
            perm,
        ),
    ];
    for (table, sql, name, cfg) in &cases {
        let req = AnalyzeRequest::new(*name, *sql);
        for round in 0..3 {
            let cache = Arc::new(OracleCache::new());
            with_threads(4, || wire::analyze_cached(table, &req, cfg, Some(&cache)))
                .expect("analysis");
            let s = cache.stats();
            assert_eq!(
                s.table_scans + s.marginalizations,
                cache.num_tables() as u64,
                "{name}, round {round}: {s:?}"
            );
            assert!(s.marginalizations > 0, "{name}: {s:?}");
        }
    }
}

#[test]
fn each_entropy_is_computed_once_per_cache_at_any_thread_count() {
    // Askers racing on one entropy (or one table) wait for its first
    // computer, so the misses count the distinct entropies and the
    // builds the distinct tables: the same at 1, 2 and 4 workers. Which
    // builds scan and which marginalise is exact only at one worker (a
    // superset another worker is still building is skipped), so only
    // their sum is pinned here.
    use hypdb::core::OracleCache;
    use std::sync::Arc;

    let table = ds::flight_data(&ds::FlightConfig {
        total_attrs: 32,
        ..ds::FlightConfig::default()
    });
    let req = AnalyzeRequest::new(
        "flight",
        "SELECT Carrier, avg(Delayed) FROM FlightData \
         WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
         GROUP BY Carrier",
    );
    let cfg = HypDbConfig::default();
    let counts: Vec<(u64, usize, u64)> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let cache = Arc::new(OracleCache::new());
            with_threads(threads, || {
                wire::analyze_cached(&table, &req, &cfg, Some(&cache))
            })
            .expect("analysis");
            let stats = cache.stats();
            let built = stats.table_scans + stats.marginalizations;
            (stats.entropy_misses, cache.num_tables(), built)
        })
        .collect();
    let (misses, tables, built) = counts[0];
    assert!(misses > 0 && tables > 0, "{counts:?}");
    assert_eq!(built, tables as u64, "every cached table was built once");
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "(entropy misses, cached tables, scans + marginalisations) by thread count: {counts:?}"
    );
}
