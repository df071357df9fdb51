//! The `hypdb-journal/v1` record: one JSONL line per served request.
//!
//! `hypdb-obs`'s [`Journal`](hypdb_obs::Journal) moves finished lines;
//! this module defines what a line *is*. The schema follows the
//! workspace's structural/timing split: every field before `planner`
//! is **structural** — a pure function of the request sequence and the
//! canonical request bytes, byte-identical at any worker count, thread
//! count, or shard layout — while the two trailing keys are not:
//! `planner` is work accounting whose scan-vs-marginalise split
//! depends on pool scheduling at `HYPDB_THREADS > 1` (exact and
//! reproducible only at one thread under sequential driving), and
//! `timing` holds everything wall-clock. Consumers (tests, replay
//! drift-diffing) call [`structural_view`] to strip that tail in one
//! step before comparing journals.
//!
//! Field reference (`schema` = [`SCHEMA`](hypdb_obs::journal::SCHEMA)):
//!
//! | field         | meaning                                                  |
//! |---------------|----------------------------------------------------------|
//! | `schema`      | `"hypdb-journal/v1"`                                     |
//! | `id` / `seq`  | request id (`req-<seq>`, also the response header)       |
//! | `method`/`path` | the HTTP request line                                  |
//! | `dataset`     | resolved dataset, `null` off the report lanes            |
//! | `fingerprint` | canonical-request FNV-1a (16 hex), `null` if unparsed    |
//! | `cache`       | `"hit"`/`"miss"` report-cache outcome, `null` otherwise  |
//! | `status`      | HTTP status served                                       |
//! | `body_fnv`    | FNV-1a of the exact response body (replay pass criterion)|
//! | `body_bytes`  | response body length                                     |
//! | `request`     | the canonical request JSON, embedded verbatim            |
//! | `spans`       | span paths + counts (structural half of the trace)       |
//! | `planner`     | per-request [`OracleStats`] delta, `null` on cache hits — scheduling-dependent |
//! | `timing`      | `offset_ms`, `queue_wait_ms`, `total_ms`, `spans_ms`     |
//!
//! `timing.spans_ms` is positionally aligned with `spans`; `offset_ms`
//! is milliseconds since the server started (replay's pacing clock).

use hypdb_core::OracleStats;
use hypdb_obs::journal::SCHEMA;
use hypdb_obs::TraceReport;
use std::fmt::Write as _;

/// Everything the middleware knows about one finished request; the
/// input to [`render_record`]. Borrowed views — rendering allocates
/// only the output line.
pub struct RequestRecord<'a> {
    /// Request sequence number (1-based, per server).
    pub seq: u64,
    /// HTTP method.
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// Resolved dataset (report lanes with a known dataset only).
    pub dataset: Option<&'a str>,
    /// Canonical-request fingerprint, 16 hex digits.
    pub fingerprint: Option<&'a str>,
    /// The canonical request JSON (embedded verbatim as `request`).
    pub canonical: Option<&'a str>,
    /// Report-cache outcome: `Some(true)` hit, `Some(false)` miss.
    pub cache: Option<bool>,
    /// HTTP status served.
    pub status: u16,
    /// The exact response body (fingerprinted, not embedded).
    pub body: &'a str,
    /// Oracle work attributable to this request.
    pub planner: Option<OracleStats>,
    /// The request's merged span tree, when a tracer ran.
    pub report: Option<&'a TraceReport>,
    /// Milliseconds since the server started (timing).
    pub offset_ms: f64,
    /// Admission-queue wait, milliseconds (timing).
    pub queue_wait_ms: f64,
    /// Total request wall time, milliseconds (timing).
    pub total_ms: f64,
}

/// [`push_json_str`] into a fresh string — for callers assembling
/// small JSON documents by hand (e.g. `/debug/config`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// record fields are ASCII-ish identifiers, but a request path comes
/// off the wire and must never corrupt the line framing.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one `hypdb-journal/v1` line (no trailing newline — the
/// journal writer frames lines). Structural fields first, the `timing`
/// object strictly last.
pub fn render_record(r: &RequestRecord<'_>) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"id\":\"{}\",\"seq\":{},",
        hypdb_core::wire::request_id(r.seq),
        r.seq
    );
    out.push_str("\"method\":");
    push_json_str(&mut out, r.method);
    out.push_str(",\"path\":");
    push_json_str(&mut out, r.path);
    out.push_str(",\"dataset\":");
    match r.dataset {
        Some(d) => push_json_str(&mut out, d),
        None => out.push_str("null"),
    }
    out.push_str(",\"fingerprint\":");
    match r.fingerprint {
        Some(fp) => push_json_str(&mut out, fp),
        None => out.push_str("null"),
    }
    out.push_str(",\"cache\":");
    match r.cache {
        Some(true) => out.push_str("\"hit\""),
        Some(false) => out.push_str("\"miss\""),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"status\":{},\"body_fnv\":\"{}\",\"body_bytes\":{}",
        r.status,
        hypdb_core::wire::body_fnv_hex(r.body),
        r.body.len()
    );
    out.push_str(",\"request\":");
    match r.canonical {
        // Canonical request JSON is itself JSON: embed verbatim.
        Some(c) => out.push_str(c),
        None => out.push_str("null"),
    }
    out.push_str(",\"spans\":[");
    let spans = r.report.map(|rep| rep.spans.as_slice()).unwrap_or(&[]);
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_json_str(&mut out, &span.path);
        let _ = write!(out, ",\"count\":{}}}", span.count);
    }
    // The non-structural tail: planner work accounting (its
    // scan-vs-marginalise split depends on pool scheduling at
    // HYPDB_THREADS > 1), then the timing object, strictly last.
    out.push_str("],\"planner\":");
    match &r.planner {
        Some(stats) => match serde_json::to_string(stats) {
            Ok(s) => out.push_str(&s),
            Err(_) => out.push_str("null"),
        },
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"timing\":{{\"offset_ms\":{:.3},\"queue_wait_ms\":{:.3},\"total_ms\":{:.3},\"spans_ms\":[",
        r.offset_ms, r.queue_wait_ms, r.total_ms
    );
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{:.3}", span.nanos as f64 / 1e6);
    }
    out.push_str("]}}");
    out
}

/// Strips the non-structural tail (the `planner` work accounting and
/// the `timing` object) from a rendered record line, leaving only the
/// structural fields — the form the byte-identity tests (and any
/// journal-diffing tool) compare across worker counts, thread counts,
/// and shard layouts.
pub fn structural_view(line: &str) -> &str {
    // `planner` opens the tail; `timing` is the fallback for lines
    // from before the tail existed (defensive, not a live schema).
    for tail in [",\"planner\":", ",\"timing\":{"] {
        if let Some(at) = line.rfind(tail) {
            return &line[..at];
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_obs::SpanReport;

    fn record<'a>(report: Option<&'a TraceReport>) -> RequestRecord<'a> {
        RequestRecord {
            seq: 3,
            method: "POST",
            path: "/analyze",
            dataset: Some("adult"),
            fingerprint: Some("00000000deadbeef"),
            canonical: Some("{\"dataset\":\"adult\",\"sql\":\"select 1\"}"),
            cache: Some(false),
            status: 200,
            body: "{\"ok\":true}",
            planner: Some(OracleStats {
                tests: 7,
                ..Default::default()
            }),
            report,
            offset_ms: 12.5,
            queue_wait_ms: 0.25,
            total_ms: 3.125,
        }
    }

    #[test]
    fn renders_schema_structural_fields_then_timing_last() {
        let report = TraceReport {
            spans: vec![SpanReport {
                path: "request/discovery".into(),
                count: 2,
                nanos: 1_500_000,
            }],
        };
        let line = render_record(&record(Some(&report)));
        assert!(
            line.starts_with("{\"schema\":\"hypdb-journal/v1\",\"id\":\"req-00000003\",\"seq\":3,")
        );
        assert!(line.contains("\"dataset\":\"adult\""));
        assert!(line.contains("\"cache\":\"miss\""));
        assert!(line.contains("\"request\":{\"dataset\":\"adult\",\"sql\":\"select 1\"}"));
        assert!(line.contains("\"spans\":[{\"path\":\"request/discovery\",\"count\":2}]"));
        // Tail order: spans (structural), then planner, then timing.
        let spans_at = line.find("\"spans\":").unwrap();
        let planner_at = line.find("\"planner\":").unwrap();
        let timing_at = line.find("\"timing\":").unwrap();
        assert!(spans_at < planner_at && planner_at < timing_at);
        assert!(line.ends_with("\"timing\":{\"offset_ms\":12.500,\"queue_wait_ms\":0.250,\"total_ms\":3.125,\"spans_ms\":[1.500]}}"));
        // body_fnv matches an independent recomputation over the bytes.
        let expect = hypdb_core::wire::body_fnv_hex("{\"ok\":true}");
        assert!(line.contains(&format!("\"body_fnv\":\"{expect}\"")));
        // The whole line parses as JSON and the planner delta survives.
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(
            v.get("planner").and_then(|p| p.get("tests")),
            Some(&serde::Value::Int(7))
        );
    }

    #[test]
    fn structural_view_drops_exactly_the_planner_and_timing_tail() {
        let line = render_record(&record(None));
        let structural = structural_view(&line);
        assert!(!structural.contains("timing"));
        assert!(!structural.contains("planner"));
        assert!(structural.contains("\"spans\":["));
        // A second render with different timings and a different
        // planner delta has the identical structural view.
        let mut other = record(None);
        other.offset_ms = 9999.0;
        other.total_ms = 123.0;
        other.planner = Some(OracleStats {
            tests: 99,
            table_scans: 5,
            ..Default::default()
        });
        let line2 = render_record(&other);
        assert_ne!(line, line2);
        assert_eq!(structural, structural_view(&line2));
    }

    #[test]
    fn non_report_requests_render_nulls() {
        let r = RequestRecord {
            seq: 1,
            method: "GET",
            path: "/metrics",
            dataset: None,
            fingerprint: None,
            canonical: None,
            cache: None,
            status: 200,
            body: "x",
            planner: None,
            report: None,
            offset_ms: 0.0,
            queue_wait_ms: 0.0,
            total_ms: 0.0,
        };
        let line = render_record(&r);
        assert!(line.contains("\"dataset\":null"));
        assert!(line.contains("\"fingerprint\":null"));
        assert!(line.contains("\"cache\":null"));
        assert!(line.contains("\"request\":null"));
        assert!(line.contains("\"planner\":null"));
        assert!(line.contains("\"spans\":[]"));
        assert!(serde_json::parse(&line).is_ok());
    }

    #[test]
    fn hostile_paths_are_escaped() {
        let r = RequestRecord {
            path: "/we\"ird\\path\nx",
            ..record(None)
        };
        let line = render_record(&r);
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(
            v.get("path").and_then(|p| p.as_str()),
            Some("/we\"ird\\path\nx")
        );
    }
}
