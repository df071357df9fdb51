//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```sh
//! cargo run --release -p hypdb-bench --bin experiments              # all
//! cargo run --release -p hypdb-bench --bin experiments -- table1 fig5a
//! HYPDB_SCALE=full cargo run --release -p hypdb-bench --bin experiments
//! ```

use hypdb_bench::{fig5a, opts, quality, table1, tests_perf, Scale};

const ALL: &[&str] = &[
    "table1", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig6c", "fig6d", "fig8a",
    "fig8b",
];

fn run_one(name: &str, scale: Scale) {
    match name {
        "table1" => table1::run(scale),
        "fig5a" => fig5a::run(scale),
        "fig5b" => quality::run_fig5b(scale),
        "fig5c" => quality::run_fig5c(scale),
        "fig5d" => quality::run_fig5d(scale),
        "fig6a" => quality::run_fig6a(scale),
        "fig6b" => tests_perf::run_fig6b(scale),
        "fig6c" => opts::run_fig6c(scale),
        "fig6d" => opts::run_fig6d(scale),
        "fig8a" => tests_perf::run_fig8a(scale),
        "fig8b" => opts::run_fig8b(scale),
        other => {
            eprintln!("unknown experiment `{other}`; available: {ALL:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!(
        "# HypDB-rs experiment run (scale: {scale:?})\n\
         Reproduces the evaluation of \"Bias in OLAP Queries\" (SIGMOD 2018).\n\
         Absolute numbers are machine-dependent; compare shapes with the paper."
    );
    let selected: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in selected {
        let t0 = std::time::Instant::now();
        run_one(name, scale);
        println!("\n[{name} finished in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
