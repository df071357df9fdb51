//! Living API documentation for `hypdb-serve`: start a server on an
//! ephemeral port, audit a cancer-dataset query over HTTP, and
//! pretty-print the report.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
//!
//! The request/response bodies are the `hypdb-core` wire schema — the
//! same JSON the CLI (`hypdb analyze`) and a production deployment
//! (`hypdb serve`) speak. Responses zero the wall-clock timings, so a
//! body is byte-identical run to run; the second request below is
//! served from the report cache and must match the first bit for bit.

use hypdb::core::wire;
use hypdb::prelude::*;
use hypdb::serve::{client, Registry, ServeConfig, Server};

fn main() {
    // A server over a shared, immutable table. Port 0 picks an
    // ephemeral port — same as a test or notebook would.
    let mut registry = Registry::new();
    registry.insert("cancer", &datasets::cancer_data(2_000, 1));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::from_env()
    };
    let handle = Server::start(cfg, registry).expect("server starts");
    let addr = handle.addr();
    println!("serving on http://{addr}\n");

    let listing = client::get(addr, "/datasets").expect("GET /datasets");
    println!("GET /datasets → {}\n  {}\n", listing.status, listing.body);

    // The request is plain JSON; only `dataset` and `sql` are required.
    let request = AnalyzeRequest::new(
        "cancer",
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
    );
    let body = request.canonical_json();
    println!("POST /analyze\n  {body}\n");

    let first = client::post_json(addr, "/analyze", &body).expect("POST /analyze");
    assert_eq!(first.status, 200, "{}", first.body);
    println!(
        "→ 200, cache {} (fingerprint {})",
        first.header("X-Hypdb-Cache").unwrap_or("?"),
        first.header("X-Hypdb-Fingerprint").unwrap_or("?"),
    );

    let again = client::post_json(addr, "/analyze", &body).expect("POST /analyze");
    assert_eq!(again.header("X-Hypdb-Cache"), Some("hit"));
    assert_eq!(again.body, first.body, "cached bytes are identical");
    println!("→ repeat served from cache, byte-identical\n");

    // The cheap detection-only lane.
    let det = client::post_json(addr, "/detect", &body).expect("POST /detect");
    let verdict: DetectReport = serde_json::from_str(&det.body).expect("detect report");
    println!(
        "POST /detect → biased: {} (covariates {:?})\n",
        verdict.biased(),
        verdict.covariates
    );

    // The served bytes are exactly what the offline pipeline produces:
    // CLI, tests, and server share the one wire entry point.
    let table = datasets::cancer_data(2_000, 1);
    let base = hypdb::core::HypDbConfig::default();
    let offline = wire::report_body(&wire::analyze(&table, &request, &base).expect("analysis"));
    assert_eq!(offline, first.body, "served == offline, byte for byte");
    println!("offline wire::analyze produced the same bytes\n");

    // The body is a full AnalysisReport; render it for humans.
    let report: AnalysisReport = serde_json::from_str(&first.body).expect("report parses");
    println!("{report}");

    let metrics = handle.metrics();
    println!(
        "served {} request(s): cache {} hit(s), {} miss(es)",
        metrics.requests, metrics.cache_hits, metrics.cache_misses
    );
    handle.shutdown();
    println!("server drained and shut down cleanly");
}
