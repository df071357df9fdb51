//! The determinism invariant of the parallel execution layer: for any
//! fixed seed, every pipeline and test output is **byte-identical** for
//! any worker count (`HYPDB_THREADS ∈ {1, 2, default}`, or any other
//! value). The thread count decides who computes each deterministic
//! chunk — never what is computed.
//!
//! These tests flip the global worker count at runtime
//! ([`hypdb::exec::set_global_threads`]) and compare full outputs with
//! `==`. They are safe to run concurrently with each other precisely
//! *because* of the invariant they check: a mid-run change of the
//! thread count must not change any result.

use hypdb::causal::cd::discover_parents;
use hypdb::datasets as ds;
use hypdb::exec;
use hypdb::prelude::*;
use hypdb::stats::independence::{mit, mit_settle_one, MitConfig, MitJob, Strata};
use hypdb::stats::patefield::sample_table;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    exec::set_global_threads(threads);
    let out = f();
    exec::set_global_threads(0);
    out
}

#[test]
fn mit_outcomes_identical_at_1_2_and_8_threads() {
    // Many conditioning groups and several permutation chunks.
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let groups: Vec<_> = (0..40)
        .map(|_| sample_table(&mut rng, &[25, 35, 15], &[30, 30, 15]))
        .collect();
    let strata = Strata::new(groups);
    let run = |threads: usize| {
        with_threads(threads, || {
            mit(&strata, 500, &mut StdRng::seed_from_u64(2018))
        })
    };
    let base = run(1);
    for threads in [2, 8] {
        let out = run(threads);
        assert_eq!(out, base, "threads={threads}");
        // Spell the byte-identity out for the three headline fields.
        assert_eq!(out.statistic.to_bits(), base.statistic.to_bits());
        assert_eq!(out.p_value.to_bits(), base.p_value.to_bits());
        assert_eq!(out.ci95, base.ci95);
    }
}

#[test]
fn hymit_identical_across_thread_counts() {
    // 30 groups of 7 rows: n = 210 against a paper df of 120, so HyMIT
    // takes its permutation arm.
    let mut rng = StdRng::seed_from_u64(7);
    let groups: Vec<_> = (0..30)
        .map(|_| sample_table(&mut rng, &[3, 2, 2], &[3, 2, 2]))
        .collect();
    let strata = Strata::new(groups);
    let cfg = MitConfig {
        permutations: 1_600,
        ..MitConfig::default()
    };
    let run = |threads: usize| {
        with_threads(threads, || {
            hypdb::stats::independence::hymit(&strata, &cfg, &mut StdRng::seed_from_u64(3))
        })
    };
    let base = run(1);
    assert_eq!(base.permutations, Some(1_600), "{base:?}");
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "threads={threads}");
    }
}

#[test]
fn cancer_pipeline_report_identical_across_thread_counts() {
    // Same data and seed as the ground-truth end-to-end test: the full
    // report (discovery, detection, effects, explanations) must agree
    // bit-for-bit at every worker count.
    let table = ds::cancer_data(2_000, 1);
    let q = Query::from_sql(
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
        &table,
    )
    .expect("query");
    let run = |threads: usize| {
        with_threads(threads, || {
            HypDb::new(&table).analyze(&q).expect("analysis")
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        let report = run(threads);
        assert_eq!(report.covariates, base.covariates, "threads={threads}");
        assert_eq!(report.mediators, base.mediators, "threads={threads}");
        assert_eq!(report.used_fallback, base.used_fallback);
        // Timings legitimately vary; every analytical field is in the
        // per-context reports, which must match exactly.
        assert_eq!(report.contexts, base.contexts, "threads={threads}");
    }
}

#[test]
fn tracing_never_changes_a_byte() {
    // Observability is pure observation: the wire body must be
    // byte-identical across tracing {off, on} × HYPDB_THREADS {1, 2, 4} —
    // the span collector may change what is recorded about the answer,
    // never the answer.
    use hypdb::core::{wire, HypDbConfig};

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
        // Fig. 1: a WHERE selection, a treatment and an outcome whose
        // discoveries run in one schedule, and a permutation-settled
        // statement or two.
        (
            ds::flight_data(&ds::FlightConfig {
                total_attrs: 24,
                ..ds::FlightConfig::default()
            }),
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
             GROUP BY Carrier",
            "flight",
        ),
    ];
    let cfg = HypDbConfig::default();
    for (table, sql, name) in &cases {
        let req = hypdb::core::AnalyzeRequest::new(*name, *sql);
        let mut base: Option<String> = None;
        for traced in [false, true] {
            for threads in [1usize, 2, 4] {
                let body = with_threads(threads, || {
                    let compute =
                        || wire::report_body(&wire::analyze(table, &req, &cfg).expect("analysis"));
                    if traced {
                        // The HYPDB_TRACE middleware's tracer, minus
                        // the stderr dump.
                        let tracer = hypdb_obs::Tracer::new();
                        let body = hypdb_obs::with_request(&tracer, compute);
                        assert!(
                            !tracer.finish().spans.is_empty(),
                            "{name}: tracer must have observed spans"
                        );
                        body
                    } else {
                        compute()
                    }
                });
                match &base {
                    None => base = Some(body),
                    Some(b) => assert_eq!(
                        &body, b,
                        "{name}: traced={traced} threads={threads} changed the wire body"
                    ),
                }
            }
        }
    }
}

#[test]
fn preprocess_memo_never_changes_a_body() {
    // A shared `OracleCache` remembers the selection's logical-dependency
    // report; requests that find it there (`preprocess/cached` in their
    // span tree) must answer with the bytes of a request that computed
    // it, and of one that ran with no shared cache at all.
    use hypdb::core::{wire, AnalyzeRequest, HypDbConfig, OracleCache};
    use std::sync::Arc;

    let table = ds::adult_data(&ds::AdultConfig {
        rows: 4_000,
        seed: 1994,
    });
    let sql = "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender";
    let base = HypDbConfig::default();
    let request = |seed: u64| {
        let mut req = AnalyzeRequest::new("adult", sql);
        req.seed = Some(seed);
        req
    };
    let was_cached = |tracer: &hypdb_obs::Tracer| {
        let spans = tracer.finish().spans;
        assert!(spans.iter().any(|s| s.path == "request/preprocess"));
        spans.iter().any(|s| s.path == "request/preprocess/cached")
    };
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let slot = Arc::new(OracleCache::new());
            for (i, seed) in [11u64, 12, 11].into_iter().enumerate() {
                let req = request(seed);
                let alone = wire::analyze(&table, &req, &base).expect("analysis");
                assert!(!alone.dropped_fd.is_empty() && !alone.dropped_keys.is_empty());
                let tracer = hypdb_obs::Tracer::new();
                let shared = hypdb_obs::with_request(&tracer, || {
                    wire::analyze_cached(&table, &req, &base, Some(&slot)).expect("analysis")
                });
                assert_eq!(was_cached(&tracer), i > 0, "request {i}");
                assert_eq!(wire::report_body(&shared), wire::report_body(&alone));

                let tracer = hypdb_obs::Tracer::new();
                let detected = hypdb_obs::with_request(&tracer, || {
                    wire::detect_cached(&table, &req, &base, Some(&slot)).expect("detect")
                });
                assert!(was_cached(&tracer), "the analyze before it filled the memo");
                let alone = wire::detect(&table, &req, &base).expect("detect");
                assert_eq!(wire::detect_body(&detected), wire::detect_body(&alone));
            }
            // Another preprocessing configuration on the same slot is
            // another entry: computed, not found.
            let mut loose = base;
            loose.preprocess = loose.preprocess.map(|mut p| {
                p.key_levels = 1;
                p
            });
            let req = request(11);
            let tracer = hypdb_obs::Tracer::new();
            let shared = hypdb_obs::with_request(&tracer, || {
                wire::analyze_cached(&table, &req, &loose, Some(&slot)).expect("analysis")
            });
            assert!(!was_cached(&tracer));
            assert!(
                shared.dropped_keys.is_empty(),
                "one sample size finds no key"
            );
            let alone = wire::analyze(&table, &req, &loose).expect("analysis");
            assert_eq!(wire::report_body(&shared), wire::report_body(&alone));
        });
    }
}

#[test]
fn adult_discovery_identical_across_thread_counts() {
    let table = ds::adult_data(&ds::AdultConfig {
        rows: 8_000,
        seed: 1994,
    });
    let q = Query::from_sql(
        "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
        &table,
    )
    .expect("query");
    let run = |threads: usize| {
        with_threads(threads, || {
            HypDb::new(&table).discover(&q).expect("discovery")
        })
    };
    let base = run(1);
    assert!(
        !base.covariates.is_empty() || !base.mediators.iter().all(Vec::is_empty),
        "discovery should find structure on adult data"
    );
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "threads={threads}");
    }
}

#[test]
fn discover_all_equals_each_targets_own_run_at_any_thread_count() {
    // One schedule for several targets over one oracle (a shared
    // blanket memo, one target's searches beside another's
    // Grow–Shrink) must find, for each target, what a run for that
    // target alone finds on a fresh oracle.
    use hypdb::causal::{
        drop_logical_dependencies, CdConfig, CovariateDiscovery, DataOracle, GraphOracle,
    };
    use hypdb::core::HypDbConfig;
    use hypdb::graph::random::random_dag;

    let mut rng = StdRng::seed_from_u64(36);
    for case in 0..12 {
        let nodes = 6 + case % 4;
        let dag = random_dag(&mut rng, nodes, 2.0 * nodes as f64);
        let cfg = CdConfig { max_sepset: nodes };
        // Every node, and a few repeated out of order.
        let mut targets: Vec<usize> = (0..nodes).rev().collect();
        targets.extend([0, nodes - 1, 2]);
        let alone: Vec<_> = targets
            .iter()
            .map(|&t| discover_parents(&GraphOracle::new(dag.clone()), t, cfg))
            .collect();
        for threads in [1usize, 2, 4] {
            let oracle = GraphOracle::new(dag.clone());
            let together = with_threads(threads, || {
                CovariateDiscovery::new(&oracle, cfg).discover_all(&targets)
            });
            assert_eq!(together, alone, "case {case}, threads={threads}: {dag:?}");
        }
    }

    // On data with every df > 0 statement settled by permutations:
    // treatment and outcome, as `discover_selected` asks them, and a
    // variable in both their boundaries.
    let table = ds::adult_data(&ds::AdultConfig {
        rows: 4_000,
        seed: 1994,
    });
    let q = Query::from_sql(
        "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
        &table,
    )
    .expect("query");
    let mut cfg = HypDbConfig::default();
    cfg.ci.mit.beta = 1e12;
    let rows = table.all_rows();
    let others: Vec<AttrId> = table
        .schema()
        .attr_ids()
        .filter(|a| !q.referenced().contains(a))
        .collect();
    let pcfg = cfg.preprocess.expect("default preprocessing");
    let mut vars = vec![q.treatment];
    vars.extend(&q.outcomes);
    vars.extend(drop_logical_dependencies(&table, &rows, &others, &pcfg).kept);
    let fresh = || DataOracle::new(&table, rows.clone(), vars.clone(), cfg.ci);
    let targets = [0, 1, 4];
    let alone: Vec<_> = with_threads(1, || {
        targets
            .iter()
            .map(|&t| discover_parents(&fresh(), t, cfg.cd))
            .collect()
    });
    assert!(
        alone[..2]
            .iter()
            .all(|out| out.markov_boundary.contains(&4)),
        "{alone:?}"
    );
    for threads in [1usize, 2, 4] {
        let oracle = fresh();
        let together = with_threads(threads, || {
            CovariateDiscovery::new(&oracle, cfg.cd).discover_all(&targets)
        });
        assert_eq!(together, alone, "adult, threads={threads}");
    }
}

/// Statements `(x, y, z)` in the order they were asked, with outcomes.
type Asked = Vec<(usize, usize, Vec<usize>, TestOutcome)>;

/// Passes every question through to `inner` and records each statement
/// asked with the outcome it got.
struct Recording<O> {
    inner: O,
    asked: std::sync::Mutex<Asked>,
}

impl<O: CiOracle> CiOracle for Recording<O> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }
    fn test(&self, x: usize, y: usize, z: &[usize]) -> TestOutcome {
        let out = self.inner.test(x, y, z);
        let record = (x, y, z.to_vec(), out.clone());
        self.asked.lock().expect("no panics").push(record);
        out
    }
    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }
    fn assoc(&self, x: usize, y: usize, z: &[usize]) -> f64 {
        self.inner.assoc(x, y, z)
    }
    fn reliable(&self, x: usize, y: usize, z: &[usize]) -> bool {
        self.inner.reliable(x, y, z)
    }
    fn reliable_dependence(&self, x: usize, y: usize, z: &[usize]) -> bool {
        self.inner.reliable_dependence(x, y, z)
    }
    fn stats(&self) -> hypdb::causal::OracleStats {
        self.inner.stats()
    }
}

#[test]
fn the_verdict_memo_answers_what_settling_would_at_any_thread_count() {
    // The adult 4k, β = 10¹² regime of the pinned bodies: every df > 0
    // statement is settled by permutations. One oracle serves the
    // treatment's and the outcome's CD run, as in `discover_selected`.
    use hypdb::causal::{drop_logical_dependencies, DataOracle, OracleCache};
    use hypdb::core::HypDbConfig;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let table = ds::adult_data(&ds::AdultConfig {
        rows: 4_000,
        seed: 1994,
    });
    let sql = "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender";
    let q = Query::from_sql(sql, &table).expect("query");
    let mut cfg = HypDbConfig::default();
    cfg.ci.mit.beta = 1e12;
    let rows = table.all_rows();
    let others: Vec<AttrId> = table
        .schema()
        .attr_ids()
        .filter(|a| !q.referenced().contains(a))
        .collect();
    let pcfg = cfg.preprocess.expect("default preprocessing");
    let mut vars = vec![q.treatment];
    vars.extend(&q.outcomes);
    vars.extend(drop_logical_dependencies(&table, &rows, &others, &pcfg).kept);

    let run = |threads: usize| {
        with_threads(threads, || {
            let cache = Arc::new(OracleCache::new());
            let oracle = Recording {
                inner: DataOracle::with_cache(
                    &table,
                    rows.clone(),
                    vars.clone(),
                    cfg.ci,
                    cache.clone(),
                ),
                asked: Default::default(),
            };
            let found = [0, 1].map(|target| discover_parents(&oracle, target, cfg.cd));
            let asked = oracle.asked.into_inner().expect("no panics");
            (found, asked, cache)
        })
    };
    let mut counts = Vec::new();
    let mut base = None;
    for threads in [1usize, 2, 4] {
        let (found, asked, cache) = run(threads);
        let s = cache.stats();
        assert_eq!(s.tests, asked.len() as u64);
        counts.push((
            s.mit_permutations,
            s.mit_stage1_settled,
            s.mit_escalated,
            s.verdict_hits,
        ));
        // Each distinct statement, once, with every outcome it got.
        let mut by_statement: BTreeMap<(usize, usize, Vec<usize>), Vec<TestOutcome>> =
            BTreeMap::new();
        for (x, y, mut z, out) in asked {
            z.sort_unstable();
            by_statement.entry((x, y, z)).or_default().push(out);
        }
        assert_eq!(s.verdict_hits, s.tests - by_statement.len() as u64);
        if threads != 2 {
            // A fresh oracle over the same cache asked once settles the
            // statement anew: the memo's answers are what settling gives.
            for ((x, y, z), outs) in &by_statement {
                let fresh = DataOracle::with_cache(
                    &table,
                    rows.clone(),
                    vars.clone(),
                    cfg.ci,
                    cache.clone(),
                );
                let want = fresh.test(*x, *y, z);
                for out in outs {
                    assert_eq!(out, &want, "threads={threads}: ({x}, {y} | {z:?})");
                }
            }
        }
        match &base {
            None => base = Some((found, by_statement)),
            Some((f, b)) => {
                assert_eq!(&found, f, "threads={threads}");
                assert_eq!(&by_statement, b, "threads={threads}");
            }
        }
    }
    // (mit_permutations, mit_stage1_settled, mit_escalated, verdict_hits)
    // at 1, 2 and 4 threads: the work is a function of the input, not of
    // the threads. Observed 5 680 / 139 / 32 / 169: 340 statements asked,
    // all settled by permutations, 171 distinct — settling every ask
    // would take 10 788 permutations.
    assert_eq!(counts, vec![(5_680, 139, 32, 169); 3]);
}

/// The permutation jobs of the `mit_batch.txt` fixture: shapes 2×2 to 5×4,
/// counts from single digits to tens of thousands, empty rows and
/// columns, singleton groups, group sampling, screened and unscreened
/// jobs — all from integer formulas, so the jobs do not depend on
/// any sampler. These are the strata; [`pinned_mit_job`] the rest.
fn pinned_mit_strata() -> Vec<Strata> {
    use hypdb::stats::CrossTab;
    (0..24u64)
        .map(|i| {
            let (r, c) = (2 + (i % 4) as usize, 2 + (i / 4 % 3) as usize);
            let scale = [1, 3, 40, 900][(i % 4) as usize];
            let groups: Vec<CrossTab> = (0..1 + i % 7 * 3)
                .map(|g| {
                    let counts = (0..r * c)
                        .map(|k| {
                            let (row, col) = ((k / c) as u64, (k % c) as u64);
                            // A product table (independent by
                            // construction) plus a small wobble, so
                            // hits land on both sides of alpha.
                            let product = (1 + (row * 3 + g) % 4) * (1 + (col * 5 + g * 2) % 3);
                            let wobble = (k as u64 * 7 + g * 13 + i * 5) % 4;
                            // Knock out a cell here and there in the
                            // small tables, and for some groups a whole
                            // row, so compaction has work to do.
                            if (scale == 1 && (k as u64 + g + i) % 9 == 0)
                                || (g % 4 == 3 && row == 0)
                            {
                                0
                            } else {
                                product * scale + wobble
                            }
                        })
                        .collect();
                    CrossTab::new(r, c, counts)
                })
                .collect();
            Strata::new(groups)
        })
        .collect()
}

/// Job `i` of the `mit_batch.txt` fixture over its strata, and its seed.
fn pinned_mit_job(i: u64, strata: &Strata) -> (MitJob<'_>, u64) {
    let permutations = [40, 100, 333, 1_000][(i / 2 % 4) as usize];
    let job = MitJob {
        strata,
        permutations,
        group_sample: (i % 6 == 4).then_some(5),
        screen: (i % 3 != 0).then_some(0.01),
    };
    (job, 0x5EED_0000 + i)
}

#[test]
fn permutation_stream_matches_the_bodies_and_counts_pinned_at_pr12() {
    // Every other test here checks self-consistency: two configurations
    // of *this* build agree. This one checks the build against bytes
    // captured from the commit before the permutation kernel was
    // rewritten (PR 12's tree): the wire bodies of cancer 1k and adult
    // 4k with β pinned high, so every df > 0 statement is settled by
    // permutations, and the (hits, permutations) of a list of
    // hand-built jobs. A kernel that draws a different stream — one
    // uniform more or less per cell, a weight rounded differently —
    // still passes the self-consistency tests and fails this one.
    use hypdb::core::{wire, HypDbConfig, OracleCache};
    use std::sync::Arc;

    let cases = [
        (
            ds::cancer_data(1_000, 1),
            "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
            "cancer",
            include_str!("fixtures/cancer_1k_beta_high.json"),
        ),
        (
            ds::adult_data(&ds::AdultConfig {
                rows: 4_000,
                seed: 1994,
            }),
            "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
            "adult",
            include_str!("fixtures/adult_4k_beta_high.json"),
        ),
    ];
    for (table, sql, name, pinned) in &cases {
        let req = hypdb::core::AnalyzeRequest::new(*name, *sql);
        for threads in [4usize, 1] {
            let mut cfg = HypDbConfig::default();
            cfg.ci.mit.beta = 1e12;
            let cache = Arc::new(OracleCache::new());
            let body = with_threads(threads, || {
                wire::report_body(
                    &wire::analyze_cached(table, &req, &cfg, Some(&cache)).expect("analysis"),
                )
            });
            let stats = cache.stats();
            assert!(
                stats.mit_permutations > 0 && stats.mit_stage1_settled > 0,
                "{name}: the pinned regime must run and screen permutations, got {stats:?}"
            );
            assert_eq!(
                body.trim_end(),
                pinned.trim_end(),
                "{name}: threads={threads} differs from the PR-12 body"
            );
        }
    }

    // Each job once as pinned and once single-stage: the fixture holds
    // the first, and screening must not have moved its verdict.
    let lines: Vec<String> = pinned_mit_strata()
        .iter()
        .zip(0u64..)
        .map(|(strata, i)| {
            let (job, seed) = pinned_mit_job(i, strata);
            let settle = |job: &MitJob| mit_settle_one(job, &mut StdRng::seed_from_u64(seed)).0;
            let out = settle(&job);
            let single = MitJob {
                screen: None,
                ..job
            };
            assert_eq!(
                out.independent(0.01),
                settle(&single).independent(0.01),
                "seed {seed:#x}: screening moved the verdict"
            );
            let done = out.permutations.expect("permutation test");
            let hits = (out.p_value * done as f64).round() as usize;
            format!("{hits} {done}")
        })
        .collect();
    let pinned: Vec<&str> = include_str!("fixtures/mit_batch.txt").lines().collect();
    assert_eq!(lines, pinned, "(hits, permutations) per job");
}
