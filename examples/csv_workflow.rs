//! Bring-your-own-data workflow: load a CSV, audit a group-by query,
//! and export the de-biased SQL.
//!
//! ```sh
//! cargo run --release --example csv_workflow [path/to/data.csv]
//! HYPDB_SHARD_ROWS=4096 cargo run --release --example csv_workflow
//! ```
//!
//! Without an argument, the example writes a small demo CSV to a temp
//! directory first, so it is runnable out of the box. When
//! `HYPDB_SHARD_ROWS` is set (> 0), the CSV is ingested into a sharded
//! table (`hypdb-store`) instead of a monolithic one — the same block
//! reader, the other sink; the analysis report is byte-identical
//! either way.

use hypdb::prelude::*;
use hypdb::store::{env_shard_rows, read_csv_shards_path};
use hypdb::table::csv::{read_csv_path, write_csv_path};

fn demo_csv() -> std::path::PathBuf {
    // Same confounded population as `quickstart`, serialised to disk.
    let mut b = TableBuilder::new(["treatment", "outcome", "region"]);
    for (t, y, z, copies) in [
        ("new", "1", "north", 30u32),
        ("new", "0", "north", 10),
        ("old", "1", "north", 6),
        ("old", "0", "north", 2),
        ("new", "1", "south", 2),
        ("new", "0", "south", 8),
        ("old", "1", "south", 10),
        ("old", "0", "south", 40),
    ] {
        for _ in 0..copies {
            b.push_row([t, y, z]).expect("row arity");
        }
    }
    let table = b.finish();
    let dir = std::env::temp_dir().join("hypdb_csv_workflow");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("demo.csv");
    write_csv_path(&table, &path).expect("write csv");
    path
}

/// Audits the first-column-vs-second-column group-by on any storage
/// (or adapt the SQL to your schema).
fn audit<S: Scan>(table: &S) {
    let treatment = table.schema().name(AttrId(0)).to_string();
    let outcome = table.schema().name(AttrId(1)).to_string();
    let sql = format!("SELECT {treatment}, avg({outcome}) FROM csv GROUP BY {treatment}");
    println!("\nauditing:\n  {sql}\n");
    let query = Query::from_sql(&sql, table).expect("valid query");
    match HypDb::new(table).analyze(&query) {
        Ok(report) => {
            println!("{report}");
            println!("de-biased SQL:\n{}", report.rewritten.total_sql);
        }
        Err(e) => eprintln!("analysis failed: {e}"),
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(demo_csv);
    println!("loading {}", path.display());

    match env_shard_rows() {
        Some(shard_rows) => {
            // Sharded ingest: block by block into fixed-size shards,
            // never holding the file in memory.
            let table = read_csv_shards_path(&path, shard_rows).expect("readable CSV");
            println!(
                "loaded {} rows x {} attributes into {} shards of {} rows",
                table.nrows(),
                table.nattrs(),
                table.n_shards(),
                shard_rows,
            );
            audit(&table);
        }
        None => {
            let table = read_csv_path(&path).expect("readable CSV");
            println!(
                "loaded {} rows x {} attributes (monolithic; set HYPDB_SHARD_ROWS for sharded ingest)",
                table.nrows(),
                table.nattrs(),
            );
            audit(&table);
        }
    }
}
