//! `hypdb-serve` integration suite: the wire layer over real sockets,
//! the online/offline byte-identity invariant, cache-counter
//! consistency under concurrent load, and clean admission-control
//! rejections.
//!
//! Everything here runs at the ambient `HYPDB_THREADS` CI matrix
//! point: reports are thread-count-invariant, so every leg must observe
//! identical bytes.

use hypdb::core::wire;
use hypdb::core::HypDbConfig;
use hypdb::datasets as ds;
use hypdb::prelude::*;
use hypdb::serve::client;
use hypdb::serve::{Registry, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CANCER_SQL: &str =
    "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer";

fn cancer_table(rows: usize) -> Table {
    ds::cancer_data(rows, 1)
}

fn cancer_registry(rows: usize) -> Registry {
    let mut reg = Registry::new();
    reg.insert("cancer", &cancer_table(rows));
    reg
}

/// Starts a server on an ephemeral loopback port.
fn start(mut cfg: ServeConfig, registry: Registry) -> ServerHandle {
    cfg.addr = "127.0.0.1:0".into();
    Server::start(cfg, registry).expect("server starts")
}

fn analyze_request(seed: Option<u64>) -> wire::AnalyzeRequest {
    let mut req = wire::AnalyzeRequest::new("cancer", CANCER_SQL);
    req.seed = seed;
    req
}

fn post_analyze(handle: &ServerHandle, body: &str) -> client::HttpResponse {
    client::post_json(handle.addr(), "/analyze", body).expect("request round-trips")
}

#[test]
fn health_datasets_and_metrics_endpoints() {
    let handle = start(ServeConfig::default(), cancer_registry(300));
    let health = client::get(handle.addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\",\"datasets\":1}");

    let datasets = client::get(handle.addr(), "/datasets").unwrap();
    assert_eq!(datasets.status, 200);
    let infos: Vec<hypdb::serve::DatasetInfo> = serde_json::from_str(&datasets.body).unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "cancer");
    assert_eq!(infos[0].rows, 300);

    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("hypdb_requests_total"));
    handle.shutdown();
}

/// Every `/metrics` family, in exposition order, with its kind: the
/// served vocabulary. A family renamed, retyped, reordered, dropped or
/// added fails here.
const METRIC_FAMILIES: [&str; 37] = [
    "hypdb_parsed_requests_total counter",
    "hypdb_analyze_requests_total counter",
    "hypdb_detect_requests_total counter",
    "hypdb_report_cache_hits_total counter",
    "hypdb_report_cache_misses_total counter",
    "hypdb_rejected_total counter",
    "hypdb_client_errors_total counter",
    "hypdb_in_flight_requests gauge",
    "hypdb_queued_connections gauge",
    "hypdb_requests_total counter",
    "hypdb_build_info gauge",
    "hypdb_uptime_seconds gauge",
    "hypdb_journal_dropped_total counter",
    "hypdb_report_cache_entries gauge",
    "hypdb_report_cache_resident_bytes gauge",
    "hypdb_report_cache_evictions_total counter",
    "hypdb_report_cache_evicted_bytes_total counter",
    "hypdb_oracle_tests_total counter",
    "hypdb_oracle_verdict_hits_total counter",
    "hypdb_oracle_table_scans_total counter",
    "hypdb_oracle_count_cache_hits_total counter",
    "hypdb_oracle_marginalizations_total counter",
    "hypdb_oracle_cells_walked_total counter",
    "hypdb_oracle_entropy_hits_total counter",
    "hypdb_oracle_entropy_misses_total counter",
    "hypdb_mit_permutations_total counter",
    "hypdb_mit_stage1_settled_total counter",
    "hypdb_mit_escalated_total counter",
    "hypdb_oracle_cache_bytes gauge",
    "hypdb_request_duration_seconds histogram",
    "hypdb_queue_wait_seconds histogram",
    "hypdb_mit_settle_seconds histogram",
    "hypdb_contingency_build_seconds histogram",
    "hypdb_window_requests gauge",
    "hypdb_window_errors gauge",
    "hypdb_window_latency_avg_seconds gauge",
    "hypdb_window_latency_max_seconds gauge",
];

#[test]
fn metrics_vocabulary_is_pinned() {
    let handle = start(ServeConfig::default(), cancer_registry(300));
    let body = analyze_request(None).canonical_json();
    for _ in 0..2 {
        assert_eq!(post_analyze(&handle, &body).status, 200);
    }
    let detect = client::post_json(handle.addr(), "/detect", &body).unwrap();
    assert_eq!(detect.status, 200);
    assert_eq!(client::get(handle.addr(), "/nope").unwrap().status, 404);
    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let families: Vec<&str> = metrics
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    assert_eq!(families, METRIC_FAMILIES);
    handle.shutdown();
}

#[test]
fn wire_schema_round_trips_over_http() {
    let handle = start(ServeConfig::default(), cancer_registry(400));
    // Scrambled key order and an explicit null must parse to the same
    // request (and thus hit the same fingerprint) as the compact form.
    let body = format!("{{\"seed\":7,\"sql\":\"{CANCER_SQL}\",\"dataset\":\"cancer\"}}");
    let resp = post_analyze(&handle, &body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("X-Hypdb-Cache"), Some("miss"));
    let report: AnalysisReport = serde_json::from_str(&resp.body).expect("report parses");
    assert_eq!(report.treatment, "Lung_Cancer");
    assert_eq!(
        report.timings.detection, 0.0,
        "wire bodies zero the timings"
    );

    let canonical = analyze_request(Some(7)).canonical_json();
    let resp2 = post_analyze(&handle, &canonical);
    assert_eq!(resp2.status, 200);
    assert_eq!(
        resp2.header("X-Hypdb-Cache"),
        Some("hit"),
        "equivalent spellings share one cache entry"
    );
    assert_eq!(resp2.body, resp.body);
    handle.shutdown();
}

#[test]
fn malformed_bodies_are_400() {
    let handle = start(ServeConfig::default(), cancer_registry(200));
    for body in [
        "not json at all",
        "{\"dataset\":\"cancer\"}",                          // missing sql
        "{\"dataset\":\"cancer\",\"sql\":\"x\",\"nope\":1}", // unknown field
        "{\"dataset\":\"cancer\",\"sql\":\"SELECT 1\"}",     // unparsable query
    ] {
        let resp = post_analyze(&handle, body);
        assert_eq!(resp.status, 400, "body `{body}` → {}", resp.body);
        assert!(resp.body.contains("\"error\""));
    }
    let m = handle.metrics();
    assert_eq!(m.client_errors, 4);
    assert_eq!(m.cache_misses, 0, "errors are never cached");
    handle.shutdown();
}

#[test]
fn unknown_dataset_and_path_are_404_and_wrong_method_405() {
    let handle = start(ServeConfig::default(), cancer_registry(200));
    let resp = post_analyze(&handle, "{\"dataset\":\"nope\",\"sql\":\"q\"}");
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("unknown dataset"));

    let resp = client::get(handle.addr(), "/no/such/endpoint").unwrap();
    assert_eq!(resp.status, 404);

    let resp = client::get(handle.addr(), "/analyze").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::request(handle.addr(), "DELETE", "/healthz", Some("")).unwrap();
    assert_eq!(resp.status, 405);
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_413() {
    let cfg = ServeConfig {
        max_body: 256,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(200));
    let huge = format!(
        "{{\"dataset\":\"cancer\",\"sql\":\"{}\"}}",
        "x".repeat(1024)
    );
    let resp = post_analyze(&handle, &huge);
    assert_eq!(resp.status, 413);
    assert!(resp.body.contains("256"), "{}", resp.body);
    // A sane request still works afterwards on a fresh connection.
    let ok = post_analyze(&handle, &analyze_request(Some(3)).canonical_json());
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

/// The acceptance criterion: a served `/analyze` body is byte-identical
/// to the offline pipeline's — any thread count, cached or freshly
/// computed.
#[test]
fn served_reports_are_byte_identical_to_offline() {
    let table = cancer_table(1_000);
    let req = analyze_request(None);
    let base = HypDbConfig::default();

    // Offline, pinned to one thread.
    hypdb::exec::set_global_threads(1);
    let offline_mono = wire::report_body(&wire::analyze(&table, &req, &base).unwrap());
    hypdb::exec::set_global_threads(0);
    // Offline at the ambient thread count.
    let offline = wire::report_body(&wire::analyze(&table, &req, &base).unwrap());
    assert_eq!(offline_mono, offline, "thread-count invariance");

    // Online, twice: a cache miss then a cache hit.
    let mut reg = Registry::new();
    reg.insert("cancer", &table);
    let handle = start(ServeConfig::default(), reg);
    let body = req.canonical_json();
    let miss = post_analyze(&handle, &body);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("X-Hypdb-Cache"), Some("miss"));
    assert_eq!(miss.body, offline_mono, "served bytes == offline bytes");
    let hit = post_analyze(&handle, &body);
    assert_eq!(hit.header("X-Hypdb-Cache"), Some("hit"));
    assert_eq!(hit.body, offline_mono);
    let m = handle.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (1, 1));

    // The detect lane agrees with its offline twin too, and with the
    // full report's bias_total.
    let det_offline = wire::detect_body(&wire::detect(&table, &req, &base).unwrap());
    let det = client::post_json(handle.addr(), "/detect", &body).unwrap();
    assert_eq!(det.status, 200);
    assert_eq!(det.body, det_offline);
    let full: AnalysisReport = serde_json::from_str(&miss.body).unwrap();
    let cheap: DetectReport = serde_json::from_str(&det.body).unwrap();
    assert_eq!(cheap.contexts[0].bias, full.contexts[0].bias_total);
    handle.shutdown();
}

/// N threads issuing interleaved identical + distinct requests: every
/// response must be bit-exact, and the cache counters must add up.
#[test]
fn concurrent_mixed_load_is_correct_and_counted() {
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(600));

    // Prime two distinct requests sequentially so the miss count is
    // deterministic (concurrent first-misses may legitimately compute
    // the same report more than once).
    let reqs: Vec<String> = [11u64, 22]
        .iter()
        .map(|&s| analyze_request(Some(s)).canonical_json())
        .collect();
    let expected: Vec<String> = reqs
        .iter()
        .map(|b| {
            let r = post_analyze(&handle, b);
            assert_eq!(r.status, 200);
            r.body
        })
        .collect();
    assert_ne!(expected[0], expected[1], "distinct seeds, distinct bytes");
    assert_eq!(handle.metrics().cache_misses, 2);

    let per_thread = 6usize;
    let n_threads = 8usize;
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let reqs = &reqs;
            let expected = &expected;
            let handle = &handle;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let which = (t + i) % 2;
                    let resp = post_analyze(handle, &reqs[which]);
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body, expected[which],
                        "thread {t} iter {i}: response corrupted under load"
                    );
                    assert_eq!(resp.header("X-Hypdb-Cache"), Some("hit"));
                }
            });
        }
    });

    let m = handle.metrics();
    let total = (n_threads * per_thread) as u64 + 2;
    assert_eq!(m.analyze, total);
    assert_eq!(m.cache_hits, total - 2);
    assert_eq!(m.cache_misses, 2);
    assert_eq!(m.cache_hits + m.cache_misses, m.analyze);
    assert_eq!(handle.cache_stats().entries, 2);
    // Workers decrement the gauge just after closing the socket, so
    // clients can observe their responses a beat earlier: poll.
    poll(2_000, "in-flight gauge to settle", || {
        handle.metrics().in_flight == 0
    });
    handle.shutdown();
}

/// The byte-bounded report cache: a budget that holds roughly one
/// report forces LRU eviction, surfaces the evicted/resident-bytes
/// counters in `/metrics`, and never serves a wrong body.
#[test]
fn report_cache_evicts_by_bytes() {
    let cfg = ServeConfig {
        // Roughly one cancer report (~3.5 KB body + canonical request
        // + overhead): the second distinct request must evict the first.
        cache_bytes: 6 * 1024,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(400));
    let reqs: Vec<String> = [1u64, 2]
        .iter()
        .map(|&s| analyze_request(Some(s)).canonical_json())
        .collect();

    let first = post_analyze(&handle, &reqs[0]);
    assert_eq!(first.header("X-Hypdb-Cache"), Some("miss"));
    assert_eq!(handle.cache_stats().entries, 1);
    let stats = handle.cache_stats();
    assert!(stats.resident_bytes > 0);
    assert_eq!(stats.evictions, 0);

    // A second distinct report exceeds the budget: the LRU entry (the
    // first report) is evicted…
    let second = post_analyze(&handle, &reqs[1]);
    assert_eq!(second.header("X-Hypdb-Cache"), Some("miss"));
    assert_eq!(handle.cache_stats().entries, 1);
    let stats = handle.cache_stats();
    assert_eq!(stats.evictions, 1);
    assert!(stats.evicted_bytes > 0);
    assert!(stats.resident_bytes <= 6 * 1024);

    // …so replaying it recomputes (identical bytes), while the resident
    // report still hits.
    let hit = post_analyze(&handle, &reqs[1]);
    assert_eq!(hit.header("X-Hypdb-Cache"), Some("hit"));
    assert_eq!(hit.body, second.body);
    let recomputed = post_analyze(&handle, &reqs[0]);
    assert_eq!(recomputed.header("X-Hypdb-Cache"), Some("miss"));
    assert_eq!(recomputed.body, first.body, "eviction never changes bytes");

    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    assert!(metrics.body.contains("hypdb_report_cache_resident_bytes"));
    assert!(metrics
        .body
        .contains("hypdb_report_cache_evictions_total 2"));
    handle.shutdown();
}

/// The cross-request surface: requests over one (dataset, selection)
/// share an oracle cache, so a second request — different seed, same
/// selection — re-runs discovery without a single new table scan, and
/// the oracle counters appear in `/metrics`.
#[test]
fn shared_oracle_coalesces_requests_and_exports_stats() {
    let handle = start(ServeConfig::default(), cancer_registry(500));
    let first = post_analyze(&handle, &analyze_request(Some(41)).canonical_json());
    assert_eq!(first.status, 200);
    let after_first = handle.oracle_stats();
    assert!(after_first.tests > 0, "{after_first:?}");
    assert!(after_first.table_scans > 0);

    // Different seed => different report, but the same WHERE selection:
    // every contingency table the second run needs is already resident.
    let second = post_analyze(&handle, &analyze_request(Some(42)).canonical_json());
    assert_eq!(second.status, 200);
    assert_ne!(second.body, first.body);
    let after_second = handle.oracle_stats();
    assert_eq!(
        after_second.table_scans, after_first.table_scans,
        "same selection: the shared joint serves the second request"
    );
    assert!(after_second.tests > after_first.tests);

    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    let line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("hypdb_oracle_tests_total"))
        .expect("test counter exported");
    let value: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(value, after_second.tests);
    assert!(metrics.body.contains("hypdb_oracle_table_scans_total"));
    assert!(metrics.body.contains("hypdb_mit_permutations_total"));
    let bytes_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("hypdb_oracle_cache_bytes"))
        .expect("cache bytes gauge exported");
    let bytes: u64 = bytes_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(bytes > 0, "resident contingency tables must be accounted");
    handle.shutdown();
}

#[test]
fn later_requests_on_a_slot_answer_like_the_first_and_like_offline() {
    // The slot's oracle cache remembers the selection's preprocessing
    // report after the first miss. Every later miss and `/detect` on the
    // selection (new seeds, so the report cache cannot answer) must still
    // return the offline bytes, drop lists included.
    let table = ds::adult_data(&ds::AdultConfig {
        rows: 3_000,
        seed: 1994,
    });
    let mut reg = Registry::new();
    reg.insert("adult", &table);
    let handle = start(ServeConfig::default(), reg);
    let base = HypDbConfig::default();
    for seed in [5u64, 6, 7] {
        let mut req = wire::AnalyzeRequest::new(
            "adult",
            "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
        );
        req.seed = Some(seed);
        let offline = wire::analyze(&table, &req, &base).unwrap();
        assert!(!offline.dropped_fd.is_empty() && !offline.dropped_keys.is_empty());
        let served = post_analyze(&handle, &req.canonical_json());
        assert_eq!(served.header("X-Hypdb-Cache"), Some("miss"));
        assert_eq!(served.body, wire::report_body(&offline), "seed {seed}");
        let detect = client::post_json(handle.addr(), "/detect", &req.canonical_json()).unwrap();
        let offline = wire::detect_body(&wire::detect(&table, &req, &base).unwrap());
        assert_eq!(detect.body, offline, "seed {seed}");
    }
    handle.shutdown();
}

fn read_raw(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8_lossy(&raw).into_owned()
}

fn poll(deadline_ms: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admission control: with one worker pinned and the one queue slot
/// taken, further connections get an immediate, clean 503 — and the
/// held requests still complete afterwards.
#[test]
fn queue_overflow_returns_clean_503() {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        timeout_ms: 10_000,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(100));
    let addr = handle.addr();

    // Hold the single worker with a deliberately incomplete request…
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    held.flush().unwrap();
    poll(5_000, "worker to pick the held request up", || {
        handle.metrics().in_flight == 1
    });

    // …and fill the one queue slot with another.
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    queued.flush().unwrap();
    poll(5_000, "admission queue to fill", || {
        handle.metrics().queue_depth == 1
    });

    // Every further connection is rejected with a 503 by the acceptor.
    for i in 0..3 {
        let mut c = TcpStream::connect(addr).unwrap();
        let raw = read_raw(&mut c);
        assert!(
            raw.starts_with("HTTP/1.1 503 "),
            "connection {i} got: {raw:?}"
        );
        assert!(raw.contains("admission queue is full"));
    }
    assert_eq!(handle.metrics().rejected, 3);

    // Releasing the held requests lets both complete normally.
    held.write_all(b"\r\n").unwrap();
    let raw = read_raw(&mut held);
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw:?}");
    queued.write_all(b"\r\n").unwrap();
    let raw = read_raw(&mut queued);
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw:?}");

    let m = handle.metrics();
    assert_eq!(m.requests, 2, "rejected connections never reach a worker");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let cfg = ServeConfig {
        workers: 1,
        timeout_ms: 10_000,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(150));
    let addr = handle.addr();
    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    // The worker answers before it drops its in-flight guard: wait that
    // out, or the `== 1` below can be this request's guard and the
    // shutdown can start before the held connection is even accepted.
    poll(5_000, "worker to finish the first request", || {
        handle.metrics().in_flight == 0
    });

    // Park a request mid-flight, then shut down on another thread: the
    // drain must wait for — not kill — the in-flight request.
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    held.flush().unwrap();
    poll(5_000, "worker to pick the held request up", || {
        handle.metrics().in_flight == 1
    });
    let joiner = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    held.write_all(b"\r\n").unwrap();
    let raw = read_raw(&mut held);
    assert!(
        raw.starts_with("HTTP/1.1 200 "),
        "in-flight request must complete through shutdown, got {raw:?}"
    );
    joiner.join().expect("shutdown returns after draining");
}

/// Nothing in the server polls: an idle one is woken out of its
/// blocking `accept` and its workers off their condvar, at once.
#[test]
fn an_idle_server_shuts_down_at_once() {
    for workers in [1usize, 4] {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let handle = start(cfg, cancer_registry(100));
        assert_eq!(client::get(handle.addr(), "/healthz").unwrap().status, 200);
        let t0 = Instant::now();
        let m = handle.shutdown();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "{workers} workers: {took:?}"
        );
        assert_eq!(m.requests, 1);
    }
}

#[test]
fn a_server_on_the_unspecified_address_shuts_down() {
    let cfg = ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg, cancer_registry(100)).expect("server starts");
    assert!(handle.addr().ip().is_unspecified());
    let port = handle.addr().port();
    let ok = client::get(("127.0.0.1", port), "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    let t0 = Instant::now();
    assert_eq!(handle.shutdown().requests, 1);
    assert!(
        t0.elapsed() < Duration::from_millis(250),
        "{:?}",
        t0.elapsed()
    );
}

/// Shutdown under fire: four clients reconnecting as fast as they can
/// while the server goes down. The call returns; whatever reached a
/// client is a whole response; and the server answered exactly the
/// requests it parsed — no accepted request is lost, none is torn.
#[test]
fn shutdown_during_a_connect_storm_returns_and_tears_no_response() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(100));
    let addr = handle.addr();
    let stop = AtomicBool::new(false);
    let (ok, busy) = (AtomicU64::new(0), AtomicU64::new(0));
    let storm = || {
        while !stop.load(Ordering::Relaxed) {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                continue; // the listener is gone
            };
            let sent = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n");
            let mut raw = Vec::new();
            // A reset (the server dropped this connection unread, after
            // the flag) carries no response; a clean EOF must.
            if sent.is_err() || stream.read_to_end(&mut raw).is_err() || raw.is_empty() {
                continue;
            }
            let text = String::from_utf8(raw).expect("response is UTF-8");
            let (head, body) = text.split_once("\r\n\r\n").expect("complete head");
            let declared: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("framed")
                .parse()
                .expect("length");
            assert_eq!(body.len(), declared, "torn body: {text:?}");
            if head.starts_with("HTTP/1.1 200 ") {
                assert_eq!(body, "{\"status\":\"ok\",\"datasets\":1}");
                ok.fetch_add(1, Ordering::Relaxed);
            } else {
                assert!(head.starts_with("HTTP/1.1 503 "), "{head}");
                busy.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    let final_metrics = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4).map(|_| scope.spawn(storm)).collect();
        poll(5_000, "the storm to be under way", || {
            ok.load(Ordering::Relaxed) >= 50
        });
        let t0 = Instant::now();
        let m = handle.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            client.join().expect("no client saw a torn response");
        }
        m
    });
    assert_eq!(final_metrics.requests, ok.load(Ordering::Relaxed));
    assert!(busy.load(Ordering::Relaxed) <= final_metrics.rejected);
    assert_eq!((final_metrics.in_flight, final_metrics.queue_depth), (0, 0));
}

/// Span paths and counts of the newest `path` record in the request log.
fn last_spans(handle: &ServerHandle, path: &str) -> Vec<(String, u64)> {
    let log = client::get(handle.addr(), "/debug/requests").unwrap();
    let doc = serde_json::parse(&log.body).expect("request log parses");
    let records = doc
        .get("records")
        .and_then(|r| r.as_arr())
        .expect("records");
    let record = records
        .iter()
        .rev()
        .find(|r| r.get("path").and_then(|p| p.as_str()) == Some(path))
        .expect("request was recorded");
    let spans = record.get("spans").and_then(|s| s.as_arr()).expect("spans");
    spans
        .iter()
        .map(|s| {
            let path = s.get("path").and_then(|p| p.as_str()).expect("path");
            let Some(serde::Value::Int(count)) = s.get("count") else {
                panic!("span without a count: {s:?}");
            };
            (path.to_string(), *count as u64)
        })
        .collect()
}

/// How often the leaf span `name` ran, wherever it sits in the tree.
fn runs(spans: &[(String, u64)], name: &str) -> u64 {
    spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(name))
        .map(|(_, count)| count)
        .sum()
}

const WHERE_SQL: &str = "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData \
                         WHERE Smoking = '1' GROUP BY Lung_Cancer";

/// A served miss binds its SQL once and scans its WHERE clause once:
/// `bind` and `select` are the spans around the only call sites of
/// `Query::from_*` and `Predicate::select` on the request path, so
/// their counts are the call counts.
#[test]
fn a_served_miss_binds_once_and_scans_the_where_clause_once() {
    let handle = start(ServeConfig::default(), cancer_registry(1_000));
    let mut req = wire::AnalyzeRequest::new("cancer", WHERE_SQL);
    for (seed, lane) in [(1u64, "/analyze"), (2, "/detect"), (3, "/analyze")] {
        req.seed = Some(seed);
        let resp = client::post_json(handle.addr(), lane, &req.canonical_json()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("X-Hypdb-Cache"), Some("miss"));
        let spans = last_spans(&handle, lane);
        assert_eq!(runs(&spans, "bind"), 1, "{lane}: {spans:?}");
        assert_eq!(runs(&spans, "select"), 1, "{lane}: {spans:?}");
        assert!(runs(&spans, "context_counts") >= 1, "{lane}: {spans:?}");
        // A hit does neither.
        let hit = client::post_json(handle.addr(), lane, &req.canonical_json()).unwrap();
        assert_eq!(hit.header("X-Hypdb-Cache"), Some("hit"));
        let spans = last_spans(&handle, lane);
        assert_eq!((runs(&spans, "bind"), runs(&spans, "select")), (0, 0));
    }
    // The three misses share the selection's one oracle slot.
    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    assert!(metrics.body.contains("hypdb_oracle_cache_bytes"));
    // An `explain` request is a 400 — the field went with the planner —
    // and is journaled as one.
    let canonical = req.canonical_json();
    let explain = format!("{},\"explain\":true}}", canonical.trim_end_matches('}'));
    let resp = client::post_json(handle.addr(), "/analyze", &explain).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("unknown field `explain`"),
        "{}",
        resp.body
    );
    let log = client::get(handle.addr(), "/debug/requests").unwrap();
    let doc = serde_json::parse(&log.body).expect("request log parses");
    let last = doc
        .get("records")
        .and_then(|r| r.as_arr())
        .and_then(|r| r.last());
    let status = last.and_then(|r| r.get("status"));
    assert_eq!(status, Some(&serde::Value::Int(400)), "{last:?}");
    handle.shutdown();
}

/// A cold selection gathers an attribute into its image at most once —
/// preprocessing and both outcomes' discoveries share the one image —
/// and a request that finds the selection's tables cached gathers
/// nothing: `gather` is the span around the only gather of a
/// discovery's image, and it records under the frame that made the
/// image whichever step asked for the column first.
#[test]
fn a_cold_selection_gathers_each_attribute_once_and_a_warm_one_nothing() {
    let table = cancer_table(1_000);
    // β high: on 1 000 rows the default would settle every statement
    // through the χ² shortcut and no permutation job would run.
    let mut cfg = ServeConfig::default();
    cfg.base.ci.mit.beta = 1e12;
    let handle = start(cfg, cancer_registry(1_000));
    let sql = "SELECT Lung_Cancer, avg(Car_Accident), avg(Fatigue) FROM CancerData \
               WHERE Smoking = '1' GROUP BY Lung_Cancer";
    let mut req = wire::AnalyzeRequest::new("cancer", sql);
    let mut post = |seed: u64, lane: &str, cache: &str| {
        req.seed = Some(seed);
        let resp = client::post_json(handle.addr(), lane, &req.canonical_json()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.header("X-Hypdb-Cache"),
            Some(cache),
            "{lane} seed {seed}"
        );
        last_spans(&handle, lane)
    };

    let cold = post(1, "/analyze", "miss");
    let gathers = runs(&cold, "gather");
    assert!(
        (1..=table.nattrs() as u64).contains(&gathers),
        "{gathers} gathers over {} attributes: {cold:?}",
        table.nattrs()
    );
    let paths: Vec<&str> = cold
        .iter()
        .filter(|(path, _)| path.ends_with("/gather"))
        .map(|(path, _)| path.as_str())
        .collect();
    assert_eq!(paths.len(), 1, "one frame gathers: {cold:?}");
    assert!(
        !paths[0].contains("/preprocess/") && !paths[0].contains("/discovery/"),
        "{}",
        paths[0]
    );
    assert!(runs(&cold, "mit_settle") > 0, "permutation jobs: {cold:?}");
    assert!(handle.oracle_stats().tests > 0);

    // The same selection under other seeds, then a report-cache hit.
    for (seed, lane, cache) in [
        (2, "/analyze", "miss"),
        (3, "/detect", "miss"),
        (2, "/analyze", "hit"),
    ] {
        let spans = post(seed, lane, cache);
        assert_eq!(runs(&spans, "gather"), 0, "{lane} seed {seed}: {spans:?}");
        if cache == "miss" {
            assert_eq!(
                runs(&spans, "cached"),
                1,
                "memoised preprocessing: {spans:?}"
            );
            assert!(runs(&spans, "context_counts") >= 1, "{spans:?}");
        }
    }
    handle.shutdown();
}

/// …and so does the CLI, which calls the table-only wrappers.
#[test]
fn a_cli_analyze_binds_once_and_scans_the_where_clause_once() {
    for lane in [&[][..], &["--detect"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hypdb"))
            .args(["analyze", "--dataset", "cancer", "--rows", "1000"])
            .args(["--sql", WHERE_SQL])
            .args(lane)
            .env("HYPDB_TRACE", "0")
            .output()
            .expect("hypdb runs");
        assert!(out.status.success(), "{lane:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let trace = stderr
            .lines()
            .find_map(|l| l.strip_prefix("hypdb-trace: "))
            .expect("HYPDB_TRACE=0 dumps the span tree");
        for name in ["bind", "select"] {
            let node = format!("{{\"name\":\"{name}\",\"count\":");
            assert_eq!(trace.matches(&node).count(), 1, "{lane:?} {name}: {trace}");
            assert!(
                trace.contains(&format!("{node}1,")),
                "{lane:?} {name}: {trace}"
            );
        }
    }
}

/// Hostile bytes against a live server (one worker: a panic would
/// leave nobody to answer the next case): every connection gets a 2xx,
/// a 4xx, or silence — never a 5xx, never a hang — and the server
/// still answers afterwards.
#[test]
fn hostile_requests_never_get_a_5xx_or_take_the_worker_down() {
    let cfg = ServeConfig {
        workers: 1,
        max_body: 512,
        timeout_ms: 2_000,
        ..ServeConfig::default()
    };
    let handle = start(cfg, cancer_registry(100));
    let body = "{\"dataset\":\"caf\u{e9}\",\"sql\":\"SELECT \u{65e5}\u{672c} FROM t\"}";
    let seeds = [
        b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
        format!(
            "POST /analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
    ];
    let mut state = 0x0016_5EEDu64;
    let mut next = move |n: usize| {
        state = hypdb::exec::seed::mix(state, 0);
        state as usize % n.max(1)
    };
    let mut statuses = std::collections::BTreeMap::new();
    for case in 0..300 {
        let mut raw = seeds[case % seeds.len()].clone();
        for _ in 0..1 + next(2) {
            let at = next(raw.len() + 1);
            match next(8) {
                0 => raw.truncate(at),
                1 => raw.insert(at, b'\r'),
                2 => raw.insert(at, 0),
                3 => raw
                    .splice(at..at, *b"\r\nContent-Length: 7\r\n")
                    .for_each(drop),
                4 => raw.splice(at..at, vec![b'a'; 9 * 1024]).for_each(drop),
                5 if !raw.is_empty() => {
                    let i = at % raw.len();
                    raw[i] ^= 0x80;
                }
                6 => raw.extend_from_slice("\u{e9}".as_bytes()),
                _ => raw.splice(at..at, *b"99999999999999999999").for_each(drop),
            }
        }
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = stream.write_all(&raw);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut answer = Vec::new();
        // A reset is silence too: the server closed on bytes it had no
        // reason to read.
        let _ = stream.read_to_end(&mut answer);
        let status = match answer.is_empty() {
            true => 0,
            false => {
                let text = String::from_utf8_lossy(&answer);
                assert!(text.starts_with("HTTP/1.1 "), "case {case}: {text}");
                text[9..12].parse::<u16>().expect("status")
            }
        };
        assert!(
            status == 0 || (200..300).contains(&status) || (400..500).contains(&status),
            "case {case}: {status} for {:?}",
            String::from_utf8_lossy(&raw)
        );
        *statuses.entry(status).or_insert(0u32) += 1;
    }
    assert!(
        statuses.len() >= 4,
        "the mutations barely bit: {statuses:?}"
    );
    assert_eq!(client::get(handle.addr(), "/healthz").unwrap().status, 200);
    let m = handle.shutdown();
    assert_eq!(m.in_flight, 0);

    // Three well-framed bodies inside the default 64 KiB `max_body`,
    // each of which used to end service: a non-ASCII character outside
    // quotes killed the worker thread in the lexer; ten thousand `(` or
    // `[` overflowed its stack in a recursive-descent parser and
    // aborted the process. Each is a 400 and the one worker answers
    // the next request.
    let handle = start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        cancer_registry(100),
    );
    let deep = 10_000;
    let bodies = [
        (
            r#"{"dataset":"cancer","sql":"SELECT é FROM CancerData"}"#.to_string(),
            "unexpected character",
        ),
        (
            format!(
                "{{\"dataset\":\"cancer\",\"sql\":\"SELECT Lung_Cancer, avg(Car_Accident) \
                 FROM CancerData WHERE {}Smoking = '1'{} GROUP BY Lung_Cancer\"}}",
                "(".repeat(deep),
                ")".repeat(deep)
            ),
            "nested",
        ),
        (
            format!(
                "{{\"dataset\":\"cancer\",\"sql\":\"{CANCER_SQL}\",\"covariates\":{}{}}}",
                "[".repeat(deep),
                "]".repeat(deep)
            ),
            "recursion limit",
        ),
    ];
    for (body, reason) in &bodies {
        let resp = client::post_json(handle.addr(), "/analyze", body).unwrap();
        assert_eq!(resp.status, 400, "{reason}: {}", resp.body);
        assert!(resp.body.contains(reason), "{reason}: {}", resp.body);
        assert_eq!(client::get(handle.addr(), "/healthz").unwrap().status, 200);
    }
    let m = handle.shutdown();
    assert_eq!(m.in_flight, 0);
}
