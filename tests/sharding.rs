//! The sharded-storage equivalence invariant: for **any shard size and
//! any worker count**, every pipeline output over a `ShardedTable` is
//! **byte-identical** to the monolithic path. Codes agree because the
//! global dictionary merges in first-appearance order; scans agree
//! because chunk layouts are pure functions of the selection and
//! partials merge in ascending row order; RNG streams agree because
//! seeds derive from configuration alone.
//!
//! Reports are compared as serialized JSON with the wall-clock timings
//! zeroed (timings are the one legitimately nondeterministic field).

use hypdb::datasets as ds;
use hypdb::exec;
use hypdb::prelude::*;
use hypdb::store::{env_shard_rows, read_csv_shards};
use hypdb::table::csv::read_csv;

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    exec::set_global_threads(threads);
    let out = f();
    exec::set_global_threads(0);
    out
}

/// Serializes a report with timings zeroed, for byte comparison.
fn report_json(report: &AnalysisReport) -> String {
    let mut stamped = report.clone();
    stamped.timings = hypdb::core::Timings::default();
    serde_json::to_string(&stamped).expect("serialize")
}

/// Shard sizes the suite always pins (regardless of environment).
fn shard_sizes() -> Vec<usize> {
    vec![1024, 4096]
}

#[test]
fn cancer_analyze_reports_byte_identical_across_shardings() {
    let table = ds::cancer_data(2_000, 1);
    let q = Query::from_sql(
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
        &table,
    )
    .expect("query");
    let base = report_json(&with_threads(1, || {
        HypDb::new(&table).analyze(&q).expect("analysis")
    }));
    for shard_rows in shard_sizes() {
        let sharded = ShardedTable::from_table(&table, shard_rows);
        for threads in [1, 4] {
            let report = with_threads(threads, || {
                HypDb::new(&sharded).analyze(&q).expect("analysis")
            });
            assert_eq!(
                report_json(&report),
                base,
                "shard_rows={shard_rows} threads={threads}"
            );
        }
    }
}

#[test]
fn adult_analyze_reports_byte_identical_across_shardings() {
    let table = ds::adult_data(&ds::AdultConfig {
        rows: 6_000,
        seed: 1994,
    });
    let q = Query::from_sql(
        "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
        &table,
    )
    .expect("query");
    let base = report_json(&with_threads(1, || {
        HypDb::new(&table).analyze(&q).expect("analysis")
    }));
    for shard_rows in shard_sizes() {
        let sharded = ShardedTable::from_table(&table, shard_rows);
        for threads in [1, 4] {
            let report = with_threads(threads, || {
                HypDb::new(&sharded).analyze(&q).expect("analysis")
            });
            assert_eq!(
                report_json(&report),
                base,
                "shard_rows={shard_rows} threads={threads}"
            );
        }
    }
}

#[test]
fn ambient_env_configuration_is_equivalent() {
    // The CI matrix leg: runs at the *ambient* `HYPDB_THREADS` ×
    // `HYPDB_SHARD_ROWS` combination without overriding either — the
    // pinned tests above force their own thread counts, so this is the
    // only place the two environment axes compose. The monolithic
    // baseline is computed at the same ambient thread count (threads
    // never change results), isolating the storage layout.
    let Some(shard_rows) = env_shard_rows() else {
        return; // monolithic leg: covered by the baselines above
    };
    let table = ds::cancer_data(2_000, 1);
    let q = Query::from_sql(
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
        &table,
    )
    .expect("query");
    let base = report_json(&HypDb::new(&table).analyze(&q).expect("analysis"));
    let sharded = ShardedTable::from_table(&table, shard_rows);
    let report = report_json(&HypDb::new(&sharded).analyze(&q).expect("analysis"));
    assert_eq!(report, base, "ambient shard_rows={shard_rows}");
}

#[test]
fn discovery_identical_on_streamed_shards() {
    // End-to-end through the *builder* path (local dictionaries merged
    // at seal time), not just the from_table re-partitioning: stream
    // the rows through a ShardedTableBuilder and re-run discovery.
    let table = ds::cancer_data(1_500, 7);
    let mut builder = ShardedTableBuilder::new(
        table.schema().attrs().iter().map(|a| a.name.clone()),
        257, // deliberately unaligned shard size
    );
    for row in 0..table.nrows() as u32 {
        let values: Vec<&str> = table
            .schema()
            .attr_ids()
            .map(|a| table.value(a, row))
            .collect();
        builder.push_row(values).expect("arity");
    }
    let sharded = builder.finish();
    let q = Query::from_sql(
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
        &table,
    )
    .expect("query");
    let mono = HypDb::new(&table).discover(&q).expect("discovery");
    let shrd = HypDb::new(&sharded).discover(&q).expect("discovery");
    assert_eq!(mono, shrd);
}

#[test]
fn streaming_csv_ingest_matches_monolithic_encoding() {
    let table = ds::cancer_data(500, 3);
    let mut csv = Vec::new();
    hypdb::table::csv::write_csv(&table, &mut csv).expect("write");
    let mono = read_csv(&csv[..]).expect("read");
    for shard_rows in [1usize, 64, 333, 10_000] {
        let sharded = read_csv_shards(&csv[..], shard_rows).expect("read sharded");
        assert_eq!(sharded.nrows(), mono.nrows());
        for a in mono.schema().attr_ids() {
            assert_eq!(
                sharded.dict(a).values(),
                mono.column(a).dict().values(),
                "shard_rows={shard_rows}"
            );
            for row in 0..mono.nrows() as u32 {
                assert_eq!(Scan::code(&sharded, a, row), mono.code(a, row));
            }
        }
    }
}

/// The same on a file of several reader blocks (> 1 MiB each), so
/// fragments merge across block and shard boundaries, at 1 and 4
/// threads.
#[test]
fn multi_block_csv_ingest_matches_monolithic_encoding() {
    let table = ds::adult_data(&ds::AdultConfig {
        rows: 30_000,
        seed: 5,
    });
    let mut csv = Vec::new();
    hypdb::table::csv::write_csv(&table, &mut csv).expect("write");
    assert!(
        csv.len() > 2 << 20,
        "{} bytes is under three blocks",
        csv.len()
    );
    let mono = with_threads(1, || read_csv(&csv[..]).expect("read"));
    assert_eq!(mono.nrows(), table.nrows());
    for threads in [1, 4] {
        for shard_rows in [1024usize, 7_001, 65_536] {
            let sharded = with_threads(threads, || {
                read_csv_shards(&csv[..], shard_rows).expect("read sharded")
            });
            assert_eq!(sharded.nrows(), mono.nrows());
            for a in mono.schema().attr_ids() {
                assert_eq!(
                    sharded.dict(a).values(),
                    mono.column(a).dict().values(),
                    "threads={threads} shard_rows={shard_rows}"
                );
                let codes = mono.column(a).codes();
                for (i, chunk) in codes.chunks(shard_rows).enumerate() {
                    assert_eq!(sharded.shard(i).codes(a), chunk);
                }
            }
        }
    }
}

#[test]
fn sql_execution_identical_on_shards() {
    let table = ds::flight_data(&ds::FlightConfig {
        rows: 5_000,
        ..ds::FlightConfig::default()
    });
    let stmt = parse_query(
        "SELECT Carrier, count(*), avg(Delayed), count(DISTINCT Airport) FROM F \
         WHERE Carrier IN ('AA','UA') GROUP BY Carrier",
    )
    .expect("parse");
    let base = hypdb::sql::exec::execute(&stmt, &table).expect("execute");
    for shard_rows in [512usize, 1024, 4096] {
        let sharded = ShardedTable::from_table(&table, shard_rows);
        let rs = hypdb::sql::exec::execute(&stmt, &sharded).expect("execute");
        assert_eq!(rs, base, "shard_rows={shard_rows}");
    }
}
