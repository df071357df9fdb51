//! Inputs: every table, request and configuration the workloads use,
//! made from `--seed`. The program under test only ever sees these.
//!
//! What the seed varies depends on what the workload's cost is robust
//! to (README, "Seeds"). `adult_csv_cold` and `serve_mix` draw a fresh
//! 150k-row sample per seed: default-config discovery on it takes the
//! same path for every sample. `adult_perm` and `flight_wide` run the
//! regimes where permutation verdicts near alpha steer the search, so
//! one analyze costs +-15 % (adult 20k) or 10x (flight) from sample to
//! sample; there the sample and the request seed are part of the
//! workload's definition, and the seed permutes the row order instead.

use crate::spec;
use hypdb_core::{AnalyzeRequest, HypDbConfig};
use hypdb_datasets as ds;
use hypdb_exec::seed::mix;
use hypdb_table::{Column, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const ADULT_ROWS: usize = 150_000;
const ADULT_PERM_ROWS: usize = 20_000;
const FLIGHT_ROWS: usize = 43_853;
const FLIGHT_ATTRS: usize = 101;

/// The pinned samples: the generator's documented default for adult,
/// and for flight the sample whose Fig. 1 analysis stays in the cheap
/// mode (about 2 000 tests) for every request seed tried.
const ADULT_PERM_SAMPLE: u64 = 1994;
const FLIGHT_SAMPLE: u64 = 2;
const PINNED_REQUEST_SEED: u64 = 1;

/// The small-n regime of `adult_perm`: beta so high that HyMIT never
/// takes the chi-squared shortcut, 400 permutations per test.
const PERM_BETA: f64 = 1e12;
const PERM_PERMUTATIONS: usize = 400;

pub const ADULT_SQL: &str = "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender";
const FLIGHT_SQL: &str = "SELECT Carrier, avg(Delayed) FROM FlightData \
     WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier";

/// A fresh 150k-row adult sample for `seed`.
pub fn adult_sample(seed: u64) -> Table {
    ds::adult_data(&ds::AdultConfig {
        rows: ADULT_ROWS,
        seed: mix(seed, 0xAD),
    })
}

/// `table` with its rows in a seeded random order; dictionaries, and
/// so every count the pipeline takes, are unchanged.
fn shuffled(table: &Table, seed: u64) -> Table {
    let mut order: Vec<usize> = (0..table.nrows()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let columns = table
        .schema()
        .attr_ids()
        .map(|a| {
            let col = table.column(a);
            let codes = order.iter().map(|&r| col.code_at(r)).collect();
            Column::from_parts(codes, col.dict().clone())
        })
        .collect();
    Table::from_columns(table.schema().clone(), columns).expect("same shape as the source table")
}

/// One in-process workload's inputs.
pub struct Inputs {
    pub table: Table,
    pub request: AnalyzeRequest,
    pub base: HypDbConfig,
}

/// The table, request and base configuration of an in-process
/// workload (or of `serve_mix`'s popular request, for its replay).
pub fn inputs(workload: &str, seed: u64) -> Inputs {
    let mut base = HypDbConfig::default();
    // A pinned sample in a seeded row order, under the pinned request seed.
    let pinned = |sample: Table, dataset: &str, sql: &str, base: HypDbConfig| {
        let mut request = AnalyzeRequest::new(dataset, sql);
        request.seed = Some(PINNED_REQUEST_SEED);
        Inputs {
            table: shuffled(&sample, mix(seed, 0x5F)),
            request,
            base,
        }
    };
    match workload {
        spec::ADULT_PERM => {
            base.ci.mit.beta = PERM_BETA;
            base.ci.mit.permutations = PERM_PERMUTATIONS;
            let sample = ds::adult_data(&ds::AdultConfig {
                rows: ADULT_PERM_ROWS,
                seed: ADULT_PERM_SAMPLE,
            });
            pinned(sample, "adult", ADULT_SQL, base)
        }
        spec::FLIGHT_WIDE => {
            let sample = ds::flight_data(&ds::FlightConfig {
                rows: FLIGHT_ROWS,
                total_attrs: FLIGHT_ATTRS,
                seed: FLIGHT_SAMPLE,
            });
            pinned(sample, "flight", FLIGHT_SQL, base)
        }
        _ => Inputs {
            table: adult_sample(seed),
            request: AnalyzeRequest::new("adult", ADULT_SQL),
            base,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::groupby::group_counts;

    #[test]
    fn shuffle_is_seeded_and_keeps_every_count() {
        let t = ds::adult_data(&ds::AdultConfig { rows: 500, seed: 3 });
        let (a, b, c) = (shuffled(&t, 1), shuffled(&t, 1), shuffled(&t, 2));
        let gender = t.attr("Gender").unwrap();
        assert_eq!(a.column(gender).codes(), b.column(gender).codes());
        assert_ne!(a.column(gender).codes(), c.column(gender).codes());
        let attrs = [gender, t.attr("Income").unwrap()];
        let counts = |x: &Table| {
            group_counts(x, &x.all_rows(), &attrs)
                .into_iter()
                .map(|g| (g.key, g.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&t), counts(&c));
    }
}
