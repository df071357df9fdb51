//! Flight-recorder integration suite: the request journal's
//! structural byte-identity across worker counts, the retained-trace
//! ring behind `/debug/traces` under concurrent load, the
//! `/debug/requests` and `/debug/config` documents (hostile request
//! paths included), and end-to-end record-and-replay byte identity.
//!
//! Like the rest of the serve suite this runs at the ambient
//! `HYPDB_THREADS` CI matrix point: every
//! structural journal field is a pure function of the request
//! sequence and the canonical request bytes, so every leg must
//! observe identical structural lines.

use hypdb::core::wire;
use hypdb::serve::journal::structural_view;
use hypdb::serve::{client, replay, Registry, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;

const CANCER_SQL: &str =
    "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer";

const ADULT_SQL: &str = "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender";

fn start(cfg: ServeConfig, rows: usize) -> ServerHandle {
    start_with(cfg, rows, &["cancer"])
}

fn start_with(mut cfg: ServeConfig, rows: usize, datasets: &[&str]) -> ServerHandle {
    cfg.addr = "127.0.0.1:0".into();
    let mut reg = Registry::new();
    for &name in datasets {
        let table = Registry::builtin_dataset(name, rows).expect("builtin dataset");
        reg.insert(name, &table);
    }
    Server::start(cfg, reg).expect("server starts")
}

fn temp_journal(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("hypdb_test_{tag}_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Drives the same short sequential mixed workload against a server:
/// a cold analyze, a hot (cached) repeat, a detect, and a GET.
fn drive_sequential(handle: &ServerHandle) {
    let hot = wire::AnalyzeRequest::new("cancer", CANCER_SQL).canonical_json();
    for body in [&hot, &hot] {
        let resp = client::post_json(handle.addr(), "/analyze", body).expect("analyze");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = client::post_json(handle.addr(), "/detect", &hot).expect("detect");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client::get(handle.addr(), "/datasets").expect("datasets");
    assert_eq!(resp.status, 200);
}

#[test]
fn journal_structural_fields_are_byte_identical_across_worker_counts() {
    let mut journals = Vec::new();
    for workers in [1usize, 4] {
        let path = temp_journal(&format!("structural_w{workers}"));
        let _ = std::fs::remove_file(&path);
        let cfg = ServeConfig {
            workers,
            journal: Some(path.clone()),
            ..ServeConfig::default()
        };
        let handle = start(cfg, 400);
        drive_sequential(&handle);
        handle.shutdown(); // flushes + closes the journal
        let text = std::fs::read_to_string(&path).expect("journal written");
        let _ = std::fs::remove_file(&path);
        journals.push(text);
    }
    let views: Vec<Vec<&str>> = journals
        .iter()
        .map(|text| text.lines().map(structural_view).collect())
        .collect();
    assert_eq!(views[0].len(), 4, "one record per driven request");
    assert_eq!(
        views[0], views[1],
        "structural journal fields must not depend on the worker count"
    );
    // Timed lines differ (wall clock), structural views do not.
    for line in journals[0].lines() {
        assert!(
            line.contains(",\"timing\":{"),
            "every record carries timing"
        );
        assert!(serde_json::parse(line).is_ok(), "every record is JSON");
    }
    // The journal's own structural content: cold miss, then hit, then
    // the detect lane; the GET /datasets record has no request.
    assert!(views[0][0].contains("\"cache\":\"miss\""));
    assert!(views[0][1].contains("\"cache\":\"hit\""));
    assert!(views[0][2].contains("\"path\":\"/detect\""));
    assert!(views[0][3].contains("\"path\":\"/datasets\""));
    assert!(views[0][3].contains("\"request\":null"));
    // Planner deltas live in the non-structural tail (their
    // scan-vs-marginalise split is scheduling-dependent at
    // HYPDB_THREADS > 1), but their presence pattern is stable: oracle
    // work on the cold miss, null on the cache hit.
    let lines: Vec<&str> = journals[0].lines().collect();
    assert!(
        lines[0].contains("\"planner\":{"),
        "misses record oracle work"
    );
    assert!(
        lines[1].contains("\"planner\":null"),
        "hits do no oracle work"
    );
}

#[test]
fn request_id_header_matches_the_journal_record() {
    let path = temp_journal("req_id");
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        journal: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = start(cfg, 300);
    let body = wire::AnalyzeRequest::new("cancer", CANCER_SQL).canonical_json();
    let resp = client::post_json(handle.addr(), "/analyze", &body).expect("analyze");
    let id = resp
        .header("X-Hypdb-Request-Id")
        .expect("every response carries a request id")
        .to_string();
    assert_eq!(id, "req-00000001");
    handle.shutdown();
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    assert!(text.contains(&format!("\"id\":\"{id}\"")));
}

#[test]
fn debug_traces_retains_under_concurrent_load_and_respects_capacity() {
    let cfg = ServeConfig {
        workers: 4,
        debug_traces: 4,
        ..ServeConfig::default()
    };
    let handle = start(cfg, 300);
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            scope.spawn(move || {
                for i in 0..3u64 {
                    let mut req = wire::AnalyzeRequest::new("cancer", CANCER_SQL);
                    req.seed = Some(100 + c * 10 + i);
                    let resp =
                        client::post_json(addr, "/analyze", &req.canonical_json()).expect("req");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
    });
    let resp = client::get(addr, "/debug/traces").expect("debug/traces");
    assert_eq!(resp.status, 200);
    let v = serde_json::parse(&resp.body).expect("well-formed JSON");
    assert_eq!(v.get("capacity"), Some(&serde::Value::Int(4)));
    // 12 traces were recorded; only the last `capacity` stay retained.
    assert_eq!(v.get("retained"), Some(&serde::Value::Int(4)));
    let recent = v.get("recent").and_then(|r| r.as_arr()).expect("recent");
    assert_eq!(recent.len(), 4, "ring keeps the last `capacity` traces");
    for entry in recent {
        assert!(entry.get("seq").is_some());
        assert!(entry.get("ms").is_some());
        let spans = entry.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert!(!spans.is_empty(), "served analyzes produce span trees");
    }
    let slowest = v.get("slowest").and_then(|s| s.as_arr()).expect("slowest");
    assert!(!slowest.is_empty() && slowest.len() <= 4);
    handle.shutdown();
}

#[test]
fn debug_requests_and_config_documents_are_well_formed() {
    let cfg = ServeConfig {
        debug_traces: 8,
        ..ServeConfig::default()
    };
    let handle = start(cfg, 300);
    drive_sequential(&handle);

    let resp = client::get(handle.addr(), "/debug/requests").expect("debug/requests");
    assert_eq!(resp.status, 200);
    let v = serde_json::parse(&resp.body).expect("well-formed JSON");
    assert_eq!(v.get("count"), Some(&serde::Value::Int(4)));
    let records = v.get("records").and_then(|r| r.as_arr()).expect("records");
    assert_eq!(records.len(), 4);
    for rec in records {
        assert_eq!(
            rec.get("schema").and_then(|s| s.as_str()),
            Some("hypdb-journal/v1")
        );
    }

    let resp = client::get(handle.addr(), "/debug/config").expect("debug/config");
    assert_eq!(resp.status, 200);
    let v = serde_json::parse(&resp.body).expect("well-formed JSON");
    assert_eq!(v.get("journal"), Some(&serde::Value::Null));
    assert_eq!(v.get("debug_traces"), Some(&serde::Value::Int(8)));
    assert_eq!(v.get("datasets"), Some(&serde::Value::Int(1)));
    assert!(v.get("workers").is_some());

    // The three debug endpoints are GET-only.
    let resp = client::post_json(handle.addr(), "/debug/traces", "{}").expect("post");
    assert_eq!(resp.status, 405);
    handle.shutdown();
}

#[test]
fn hostile_paths_keep_the_debug_documents_json() {
    // The request line's path is any non-whitespace UTF-8: a control
    // character, DEL and a combining mark must each come back out of
    // `/debug/traces` (and `/debug/requests`) as the string that went in.
    let cfg = ServeConfig {
        debug_traces: 8,
        ..ServeConfig::default()
    };
    let handle = start(cfg, 300);
    let paths = ["/a\u{1}b", "/a\u{7f}b", "/e\u{301}"];
    for path in paths {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("response");
        assert!(raw.starts_with(b"HTTP/1.1 404"), "{path:?}");
    }
    for (endpoint, list, field) in [
        ("/debug/traces", "recent", "tag"),
        ("/debug/requests", "records", "path"),
    ] {
        let resp = client::get(handle.addr(), endpoint).expect(endpoint);
        assert_eq!(resp.status, 200);
        let v = serde_json::parse(&resp.body)
            .unwrap_or_else(|e| panic!("{endpoint} is not JSON ({e:?}): {}", resp.body));
        let entries = v.get(list).and_then(|r| r.as_arr()).expect(list);
        let mut seen: Vec<&str> = entries
            .iter()
            .filter_map(|e| e.get(field).and_then(|t| t.as_str()))
            .filter(|p| !p.starts_with("/debug/"))
            .collect();
        seen.sort_unstable();
        let mut want = paths.to_vec();
        want.sort_unstable();
        assert_eq!(seen, want, "{endpoint}");
    }
    handle.shutdown();
}

#[test]
fn recorded_journal_replays_byte_identical_and_detects_tampering() {
    let path = temp_journal("replay");
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        workers: 2,
        journal: Some(path.clone()),
        ..ServeConfig::default()
    };
    let datasets = ["cancer", "adult"];
    let handle = start_with(cfg, 400, &datasets);
    let addr = handle.addr();
    // Concurrent mixed recording: two datasets, hot repeats + unique
    // cold requests.
    std::thread::scope(|scope| {
        for c in 0..3u64 {
            scope.spawn(move || {
                for (dataset, sql) in [("cancer", CANCER_SQL), ("adult", ADULT_SQL)] {
                    let mut req = wire::AnalyzeRequest::new(dataset, sql);
                    req.seed = Some(c);
                    let body = req.canonical_json();
                    for path in ["/analyze", "/detect", "/analyze"] {
                        let resp = client::post_json(addr, path, &body).expect("record");
                        assert_eq!(resp.status, 200, "{}", resp.body);
                    }
                }
            });
        }
    });
    handle.shutdown();
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let parsed = replay::parse_journal(&text);
    assert_eq!(parsed.items.len(), 18);

    // Replay against a fresh recorder-off server: byte identity.
    let replay_cfg = ServeConfig {
        debug_traces: 0,
        ..ServeConfig::default()
    };
    let handle = start_with(replay_cfg, 400, &datasets);
    let outcome = replay::replay(handle.addr(), &parsed, 3, replay::Pace::MaxRate);
    assert!(outcome.passed(), "{}", outcome.to_json());
    assert_eq!(outcome.replayed, 18);

    // Tamper with one recorded fingerprint: replay must fail on
    // exactly that record.
    let mut tampered = parsed;
    tampered.items[4].body_fnv = "0000000000000000".into();
    let outcome = replay::replay(handle.addr(), &tampered, 3, replay::Pace::MaxRate);
    assert!(!outcome.passed());
    assert_eq!(outcome.mismatches.len(), 1);
    assert_eq!(outcome.mismatches[0].seq, tampered.items[4].seq);
    assert!(outcome.to_json().contains("\"passed\":false"));
    handle.shutdown();
}

#[test]
fn metrics_exposes_flight_recorder_families() {
    let handle = start(ServeConfig::default(), 300);
    drive_sequential(&handle);
    let resp = client::get(handle.addr(), "/metrics").expect("metrics");
    let body = &resp.body;
    assert!(body.contains("hypdb_requests_total{endpoint=\"analyze\",status=\"200\"} 2"));
    assert!(body.contains("hypdb_requests_total{endpoint=\"detect\",status=\"200\"} 1"));
    assert!(body.contains("hypdb_build_info{"));
    assert!(body.contains("hypdb_uptime_seconds"));
    assert!(body.contains("hypdb_journal_dropped_total"));
    assert!(body.contains("hypdb_window_requests{endpoint=\"analyze\",window=\"1m\"}"));
    assert!(body.contains("hypdb_window_requests{dataset=\"cancer\",window=\"5m\"}"));
    handle.shutdown();
}
