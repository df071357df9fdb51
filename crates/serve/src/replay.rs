//! Record-and-replay: re-issue a captured `hypdb-journal/v1` journal
//! and verify byte-identical response bodies.
//!
//! The flight recorder's journal is a complete, replayable description
//! of served traffic: each report-lane record carries the canonical
//! request JSON and the FNV-1a fingerprint of the exact response body.
//! Because a report is a pure function of (dataset, base config,
//! canonical request bytes), replaying the same requests against the
//! same datasets must reproduce the same bytes — so replay doubles as
//! an end-to-end determinism check *and* a realistic load harness
//! (`hypdb replay`).
//!
//! Pass criterion: `fnv1a64(received body) == recorded body_fnv` for
//! every replayed record. Status drift also counts as a mismatch.
//! Records without an embedded request (GET endpoints, unparsable
//! submissions) are skipped and counted.

use crate::client;
use hypdb_obs::sync::Mutex;
use hypdb_obs::{json, Tick};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One replayable journal record: the request to re-issue and the
/// recorded outcome to diff against.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayItem {
    /// Journal sequence number (for mismatch reporting).
    pub seq: u64,
    /// Request path (`/analyze` or `/detect`).
    pub path: String,
    /// The canonical request JSON to POST.
    pub request: String,
    /// Recorded HTTP status.
    pub status: u16,
    /// Recorded body fingerprint (16 hex digits).
    pub body_fnv: String,
    /// Recorded milliseconds since server start (the pacing clock).
    pub offset_ms: f64,
}

/// Journal parse summary: the replayable items plus how many lines
/// were skipped (non-POST records, records without a request).
#[derive(Debug, Default)]
pub struct ParsedJournal {
    /// Replayable records, journal order.
    pub items: Vec<ReplayItem>,
    /// Total lines seen (including skipped and malformed).
    pub lines: usize,
    /// Lines without a replayable request.
    pub skipped: usize,
}

/// Parses journal JSONL text into replayable items. Malformed lines
/// are counted as skipped, never fatal — a journal truncated by a
/// crash is still mostly replayable.
pub fn parse_journal(text: &str) -> ParsedJournal {
    let mut out = ParsedJournal::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        out.lines += 1;
        let Ok(v) = serde_json::parse(line) else {
            out.skipped += 1;
            continue;
        };
        let path = v.get("path").and_then(|p| p.as_str()).unwrap_or_default();
        let method = v.get("method").and_then(|m| m.as_str()).unwrap_or_default();
        let request = v.get("request").filter(|r| r.as_obj().is_some());
        let (Some(request), "POST") = (request, method) else {
            out.skipped += 1;
            continue;
        };
        let Ok(canonical) = serde_json::to_string(request) else {
            out.skipped += 1;
            continue;
        };
        let seq = match v.get("seq") {
            Some(&serde::Value::Int(i)) if i >= 0 => i as u64,
            Some(&serde::Value::UInt(u)) => u,
            _ => 0,
        };
        let status = match v.get("status") {
            Some(&serde::Value::Int(i)) if (0..=u16::MAX as i64).contains(&i) => i as u16,
            _ => 0,
        };
        let body_fnv = v
            .get("body_fnv")
            .and_then(|b| b.as_str())
            .unwrap_or_default()
            .to_string();
        let offset_ms = match v.get("timing").and_then(|t| t.get("offset_ms")) {
            Some(&serde::Value::Float(f)) => f,
            Some(&serde::Value::Int(i)) => i as f64,
            _ => 0.0,
        };
        out.items.push(ReplayItem {
            seq,
            path: path.to_string(),
            request: canonical,
            status,
            body_fnv,
            offset_ms,
        });
    }
    out
}

/// How fast to re-issue recorded traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// As fast as the concurrency allows (the load-harness mode).
    MaxRate,
    /// Follow the recorded `offset_ms` spacing scaled by this factor
    /// (`2.0` = twice as fast as recorded).
    Speed(f64),
}

/// One body mismatch: the record and what came back instead.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The journal record's sequence number.
    pub seq: u64,
    /// Request path.
    pub path: String,
    /// Recorded status → replayed status.
    pub status: (u16, u16),
    /// Recorded body fingerprint → replayed body fingerprint.
    pub body_fnv: (String, String),
}

/// Replay outcome: totals, mismatches, and latency/throughput figures.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Journal lines seen.
    pub lines: usize,
    /// Records skipped (not replayable).
    pub skipped: usize,
    /// Requests re-issued.
    pub replayed: usize,
    /// Requests whose transport failed (no response to compare).
    pub errors: usize,
    /// Body/status mismatches, journal order.
    pub mismatches: Vec<Mismatch>,
    /// Wall-clock seconds for the whole replay.
    pub wall_seconds: f64,
    /// Replayed requests per wall-clock second.
    pub requests_per_second: f64,
    /// Per-request latency percentiles, seconds: (p50, p90, p99, max).
    pub latency: (f64, f64, f64, f64),
}

impl ReplayOutcome {
    /// True when every replayed record reproduced its recorded bytes.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.errors == 0
    }

    /// The CLI/bench JSON summary.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"lines\":{},\"skipped\":{},\"replayed\":{},\"errors\":{},\"mismatches\":{},\
             \"passed\":{},\"wall_seconds\":{:.6},\"requests_per_second\":{:.1},\
             \"latency_seconds\":{{\"p50\":{:.6},\"p90\":{:.6},\"p99\":{:.6},\"max\":{:.6}}},\
             \"mismatch_detail\":[",
            self.lines,
            self.skipped,
            self.replayed,
            self.errors,
            self.mismatches.len(),
            self.passed(),
            self.wall_seconds,
            self.requests_per_second,
            self.latency.0,
            self.latency.1,
            self.latency.2,
            self.latency.3,
        );
        for (i, m) in self.mismatches.iter().take(16).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"seq\":{},\"path\":", m.seq);
            json::push_string(&mut out, &m.path);
            let _ = write!(
                out,
                ",\"recorded_status\":{},\"replayed_status\":{},\"recorded_fnv\":",
                m.status.0, m.status.1
            );
            json::push_string(&mut out, &m.body_fnv.0);
            out.push_str(",\"replayed_fnv\":");
            json::push_string(&mut out, &m.body_fnv.1);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays parsed journal items against a live server at `addr` with
/// `concurrency` client threads. Items are taken in journal order;
/// under [`Pace::Speed`] each item waits for its scaled recorded
/// offset before being issued (offsets are rebased to the first
/// replayable item).
pub fn replay(
    addr: SocketAddr,
    parsed: &ParsedJournal,
    concurrency: usize,
    pace: Pace,
) -> ReplayOutcome {
    let concurrency = concurrency.max(1);
    let base_offset = parsed.items.first().map(|i| i.offset_ms).unwrap_or(0.0);
    let next = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let mismatches: Mutex<Vec<Mismatch>> = Mutex::new(Vec::new());
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let start = Tick::now();
    std::thread::scope(|s| {
        for _ in 0..concurrency {
            s.spawn(|| {
                let mut local_lat = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = parsed.items.get(i) else {
                        break;
                    };
                    if let Pace::Speed(speed) = pace {
                        // The item is due at its recorded offset (rebased
                        // to the first item) scaled by the speed factor.
                        let due_ms = (item.offset_ms - base_offset) / speed.max(1e-9);
                        let due = std::time::Duration::from_secs_f64((due_ms / 1e3).max(0.0));
                        let elapsed = start.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                    }
                    let t = Tick::now();
                    match client::post_json(addr, &item.path, &item.request) {
                        Ok(resp) => {
                            local_lat.push(t.elapsed_secs());
                            let got_fnv = hypdb_core::wire::body_fnv_hex(&resp.body);
                            if resp.status != item.status || got_fnv != item.body_fnv {
                                mismatches.lock().push(Mismatch {
                                    seq: item.seq,
                                    path: item.path.clone(),
                                    status: (item.status, resp.status),
                                    body_fnv: (item.body_fnv.clone(), got_fnv),
                                });
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().extend(local_lat);
            });
        }
    });
    let wall_seconds = start.elapsed_secs();
    let mut lat = latencies.into_inner();
    lat.sort_by(|a, b| a.total_cmp(b));
    let mut out = ReplayOutcome {
        lines: parsed.lines,
        skipped: parsed.skipped,
        replayed: lat.len(),
        errors: errors.load(Ordering::Relaxed) as usize,
        mismatches: mismatches.into_inner(),
        wall_seconds,
        requests_per_second: if wall_seconds > 0.0 {
            lat.len() as f64 / wall_seconds
        } else {
            0.0
        },
        latency: (
            percentile(&lat, 0.50),
            percentile(&lat, 0.90),
            percentile(&lat, 0.99),
            lat.last().copied().unwrap_or(0.0),
        ),
    };
    out.mismatches.sort_by_key(|m| m.seq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, path: &str, fnv: &str, offset: f64) -> String {
        format!(
            "{{\"schema\":\"hypdb-journal/v1\",\"id\":\"req-{seq:08}\",\"seq\":{seq},\
             \"method\":\"POST\",\"path\":\"{path}\",\"dataset\":\"cancer\",\
             \"fingerprint\":\"abc\",\"cache\":\"miss\",\"status\":200,\
             \"body_fnv\":\"{fnv}\",\"body_bytes\":2,\
             \"request\":{{\"dataset\":\"cancer\",\"sql\":\"q\"}},\"planner\":null,\
             \"spans\":[],\"timing\":{{\"offset_ms\":{offset},\"queue_wait_ms\":0.0,\
             \"total_ms\":1.0,\"spans_ms\":[]}}}}"
        )
    }

    #[test]
    fn parse_extracts_replayable_records_and_skips_the_rest() {
        let text = format!(
            "{}\n{}\nnot json\n{}\n",
            line(1, "/analyze", "aa", 0.0),
            // A GET /metrics record: no request to replay.
            "{\"schema\":\"hypdb-journal/v1\",\"seq\":2,\"method\":\"GET\",\
             \"path\":\"/metrics\",\"request\":null,\"status\":200,\"body_fnv\":\"x\"}",
            line(3, "/detect", "bb", 12.5),
        );
        let parsed = parse_journal(&text);
        assert_eq!(parsed.lines, 4);
        assert_eq!(parsed.skipped, 2);
        assert_eq!(parsed.items.len(), 2);
        assert_eq!(parsed.items[0].seq, 1);
        assert_eq!(parsed.items[0].path, "/analyze");
        assert_eq!(
            parsed.items[0].request,
            "{\"dataset\":\"cancer\",\"sql\":\"q\"}"
        );
        assert_eq!(parsed.items[1].body_fnv, "bb");
        assert!((parsed.items[1].offset_ms - 12.5).abs() < 1e-9);
    }

    #[test]
    fn outcome_json_reports_pass_and_mismatches() {
        let mut out = ReplayOutcome {
            lines: 3,
            replayed: 2,
            wall_seconds: 0.5,
            requests_per_second: 4.0,
            ..Default::default()
        };
        assert!(out.passed());
        assert!(out.to_json().contains("\"passed\":true"));
        out.mismatches.push(Mismatch {
            seq: 7,
            path: "/analyze".into(),
            status: (200, 200),
            body_fnv: ("aa".into(), "bb".into()),
        });
        assert!(!out.passed());
        let json = out.to_json();
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"recorded_fnv\":\"aa\""));
        assert!(serde_json::parse(&json).is_ok());
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let lat = [0.001, 0.002, 0.003, 0.004, 0.100];
        assert_eq!(percentile(&lat, 0.50), 0.003);
        assert_eq!(percentile(&lat, 0.99), 0.100);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
