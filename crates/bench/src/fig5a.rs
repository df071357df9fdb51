//! Fig 5(a): how often does a random SQL query mislead? 1 000 random
//! carrier-comparison queries on FlightData, rewritten w.r.t. the
//! potential covariates {Airport, Day, Month, DayOfWeek} (§7.2).
//!
//! Classification of each query whose naive answer is significant:
//! * **insignificant after rewrite** — the difference was pure bias,
//! * **trend reversed** — the rewritten difference is significant with
//!   the opposite sign (a Simpson reversal),
//! * **confirmed** — same sign, still significant.

use crate::report::{pct, MdTable};
use crate::Scale;
use hypdb_core::effect::adjusted_averages;
use hypdb_datasets::flight::{flight_data, FlightConfig, AIRPORTS, CARRIERS};
use hypdb_stats::independence::{hymit, MitConfig};
use hypdb_table::contingency::{ContingencyTable, Stratified};
use hypdb_table::{AttrId, Predicate, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::Serialize;

/// One random query's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct QueryOutcome {
    /// Compared carriers.
    pub carriers: (String, String),
    /// Airports in the WHERE clause.
    pub airports: Vec<String>,
    /// Naive difference and its significance.
    pub naive_diff: f64,
    /// p-value of the naive difference.
    pub naive_p: f64,
    /// Adjusted difference and its significance.
    pub adjusted_diff: f64,
    /// p-value of the adjusted difference.
    pub adjusted_p: f64,
}

/// Classification counts.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct Fig5aSummary {
    /// Queries attempted.
    pub total: usize,
    /// Naive answer significant.
    pub naive_significant: usize,
    /// …of which became insignificant after rewriting.
    pub became_insignificant: usize,
    /// …of which reversed sign (still significant).
    pub reversed: usize,
    /// …of which were confirmed.
    pub confirmed: usize,
}

/// Runs the sweep, returning per-query outcomes and the summary.
pub fn sweep(
    table: &Table,
    queries: usize,
    alpha: f64,
    seed: u64,
) -> (Vec<QueryOutcome>, Fig5aSummary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let carrier = table.attr("Carrier").expect("attr");
    let delayed = table.attr("Delayed").expect("attr");
    // The paper adjusts for {Airport, Day, Month, DayOfWeek} on 50M
    // rows; at laptop scale Day (28 values) shatters the blocks, so we
    // swap it for Year — the same kind of mild secondary covariate.
    let z: Vec<AttrId> = ["Airport", "Year", "Month", "DayOfWeek"]
        .iter()
        .map(|n| table.attr(n).expect("attr"))
        .collect();
    let mit = MitConfig::default();

    let mut outcomes = Vec::new();
    let mut summary = Fig5aSummary::default();
    while outcomes.len() < queries {
        // Random pair of carriers + random airport subset.
        let mut cs: Vec<&str> = CARRIERS.to_vec();
        cs.shuffle(&mut rng);
        let (c0, c1) = (cs[0], cs[1]);
        let k = rng.gen_range(2..=AIRPORTS.len());
        let mut aps: Vec<&str> = AIRPORTS.to_vec();
        aps.shuffle(&mut rng);
        let airports: Vec<&str> = aps[..k].to_vec();

        let pred = Predicate::and([
            Predicate::is_in(table, "Carrier", [c0, c1]).expect("attr"),
            Predicate::is_in(table, "Airport", airports.iter().copied()).expect("attr"),
        ]);
        let rows = pred.select(table);
        if rows.len() < 200 {
            continue;
        }
        let levels: Vec<u32> = {
            let g = hypdb_table::groupby::group_counts(table, &rows, &[carrier]);
            g.iter().map(|r| r.key[0]).collect()
        };
        if levels.len() != 2 {
            continue;
        }
        summary.total += 1;
        // One scan of the context; both estimates read its counts.
        let attrs: Vec<AttrId> = [carrier, delayed].iter().chain(&z).copied().collect();
        let counts = ContingencyTable::from_table(table, &rows, &attrs);

        // Naive difference + significance (I(T;Y) = 0 test).
        let naive = adjusted_averages(
            table,
            &counts,
            carrier,
            &levels,
            &[delayed],
            &[],
            &mit,
            seed,
        )
        .expect("naive");
        let naive_diff = naive.diff.as_ref().expect("two levels")[0];
        let mut r2 = StdRng::seed_from_u64(seed ^ outcomes.len() as u64);
        let naive_p = hymit(
            &Stratified::build(table, &rows, carrier, delayed, &[]),
            &mit,
            &mut r2,
        )
        .p_value;

        // Rewritten difference + significance (I(T;Y|Z) = 0 test).
        let adj = adjusted_averages(table, &counts, carrier, &levels, &[delayed], &z, &mit, seed)
            .expect("adjusted");
        let adjusted_diff = adj.diff.as_ref().expect("two levels")[0];
        let adjusted_p = adj.significance[0].p_value;

        if naive_p <= alpha {
            summary.naive_significant += 1;
            if adjusted_p > alpha {
                summary.became_insignificant += 1;
            } else if naive_diff.signum() != adjusted_diff.signum() {
                summary.reversed += 1;
            } else {
                summary.confirmed += 1;
            }
        }
        outcomes.push(QueryOutcome {
            carriers: (c0.to_string(), c1.to_string()),
            airports: airports.iter().map(|s| s.to_string()).collect(),
            naive_diff,
            naive_p,
            adjusted_diff,
            adjusted_p,
        });
    }
    (outcomes, summary)
}

/// Runs the experiment and prints the summary.
pub fn run(scale: Scale) {
    crate::report::section("Fig 5(a) — the effect of query rewriting on 1 000 random queries");
    let queries = scale.pick(300, 1_000);
    // The paper runs this on 50M rows; we use the largest table that
    // keeps the sweep interactive, so the adjustment blocks stay
    // populated.
    let table = flight_data(&FlightConfig {
        rows: scale.pick(150_000, 600_000),
        total_attrs: 20,
        ..FlightConfig::default()
    });
    let (outcomes, s) = sweep(&table, queries, 0.01, 0x5A);
    let mut t = MdTable::new(["metric", "count", "fraction of significant"]);
    let frac = |c: usize| {
        if s.naive_significant == 0 {
            "-".to_string()
        } else {
            pct(c as f64 / s.naive_significant as f64)
        }
    };
    t.row(["random queries".to_string(), s.total.to_string(), "".into()]);
    t.row([
        "naive answer significant".to_string(),
        s.naive_significant.to_string(),
        pct(s.naive_significant as f64 / s.total.max(1) as f64),
    ]);
    t.row([
        "became insignificant after rewrite".to_string(),
        s.became_insignificant.to_string(),
        frac(s.became_insignificant),
    ]);
    t.row([
        "trend reversed after rewrite".to_string(),
        s.reversed.to_string(),
        frac(s.reversed),
    ]);
    t.row([
        "confirmed by rewrite".to_string(),
        s.confirmed.to_string(),
        frac(s.confirmed),
    ]);
    t.print();
    println!(
        "\n(paper, for shape: >10% of significant queries became insignificant, \
         ~20% reversed; any off-diagonal point in the scatter = rewriting mattered)"
    );
    // A few example scatter points.
    println!("\nsample scatter rows (naive diff -> adjusted diff):");
    for o in outcomes.iter().take(8) {
        println!(
            "  {}-{} @ {:?}: {:+.3} (p={:.3}) -> {:+.3} (p={:.3})",
            o.carriers.0,
            o.carriers.1,
            o.airports,
            o.naive_diff,
            o.naive_p,
            o.adjusted_diff,
            o.adjusted_p
        );
    }
}
