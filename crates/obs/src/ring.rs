//! The trace retention ring: finished span trees kept in memory for
//! post-hoc inspection.
//!
//! PR 8's spans evaporate when a request ends; the ring is the flight
//! recorder's answer — it retains the **last N** finished traces plus
//! the **K slowest** seen so far, so `GET /debug/traces` can show both
//! "what just happened" and "what has ever been slow" without any
//! external tooling. Retention is bounded and lock-brief: one mutex,
//! held only to rotate fixed-capacity buffers.
//!
//! Entries serialize through [`TraceEntry::to_json`], the **single**
//! trace serialization path — the `HYPDB_TRACE` stderr dump prints the
//! same JSON (see [`crate::trace::maybe_dump`]), so a trace read off
//! stderr and one read off `/debug/traces` are the same document.

use crate::ctx::TraceReport;
use crate::json;
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One finished, retained trace: the request's sequence number and tag
/// (structural), its wall-clock total (timing), and the merged span
/// tree (structural paths/counts + timing nanos).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Request sequence number (0 when the producer has none, e.g. the
    /// offline CLI).
    pub seq: u64,
    /// What ran: the endpoint path or CLI invocation name.
    pub tag: String,
    /// Total wall-clock milliseconds (timing side).
    pub millis: f64,
    /// The merged span report.
    pub report: TraceReport,
}

impl TraceEntry {
    /// The one trace serialization: `{"seq","tag","ms","spans"}` with
    /// `spans` rendered by [`TraceReport::to_json_tree`]. Both the
    /// stderr dump and `/debug/traces` emit exactly this document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"tag\":", self.seq);
        json::push_string(&mut out, &self.tag);
        let _ = write!(
            out,
            ",\"ms\":{:.3},\"spans\":{}}}",
            self.millis,
            self.report.to_json_tree()
        );
        out
    }
}

struct RingInner {
    recent: VecDeque<TraceEntry>,
    /// Slowest-first, truncated to the slow capacity.
    slowest: Vec<TraceEntry>,
}

/// Bounded retention of finished traces: the last `capacity` entries
/// plus the `slow_capacity` slowest ever recorded. A `capacity` of 0
/// disables the ring entirely ([`TraceRing::is_enabled`]).
pub struct TraceRing {
    capacity: usize,
    slow_capacity: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring retaining `capacity` recent traces and, separately, the
    /// `capacity.div_ceil(4)` slowest (at least 4 when enabled).
    pub fn new(capacity: usize) -> TraceRing {
        let slow_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(4).max(4)
        };
        TraceRing {
            capacity,
            slow_capacity,
            inner: Mutex::new(RingInner {
                recent: VecDeque::new(),
                slowest: Vec::new(),
            }),
        }
    }

    /// True when the ring retains anything (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The recent-trace capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slowest-trace capacity.
    pub fn slow_capacity(&self) -> usize {
        self.slow_capacity
    }

    /// Retains one finished trace: always enters the recent ring
    /// (evicting the oldest past capacity) and enters the slowest set
    /// when it beats the current floor.
    pub fn record(&self, entry: TraceEntry) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.recent.len() == self.capacity {
            inner.recent.pop_front();
        }
        let qualifies = inner.slowest.len() < self.slow_capacity
            || inner
                .slowest
                .last()
                .is_some_and(|floor| entry.millis > floor.millis);
        if qualifies {
            let at = inner.slowest.partition_point(|e| e.millis >= entry.millis);
            inner.slowest.insert(at, entry.clone());
            inner.slowest.truncate(self.slow_capacity);
        }
        inner.recent.push_back(entry);
    }

    /// The retained recent traces, newest first.
    pub fn recent(&self) -> Vec<TraceEntry> {
        self.inner.lock().recent.iter().rev().cloned().collect()
    }

    /// The retained slowest traces, slowest first.
    pub fn slowest(&self) -> Vec<TraceEntry> {
        self.inner.lock().slowest.clone()
    }

    /// The `GET /debug/traces` body:
    /// `{"capacity","retained","recent":[…],"slowest":[…]}` with every
    /// entry rendered by [`TraceEntry::to_json`].
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"capacity\":{},\"retained\":{},\"recent\":[",
            self.capacity,
            inner.recent.len()
        );
        for (i, entry) in inner.recent.iter().rev().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("],\"slowest\":[");
        for (i, entry) in inner.slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SpanReport;

    fn entry(seq: u64, millis: f64) -> TraceEntry {
        TraceEntry {
            seq,
            tag: "/analyze".into(),
            millis,
            report: TraceReport {
                spans: vec![SpanReport {
                    path: "request".into(),
                    count: 1,
                    nanos: (millis * 1e6) as u64,
                }],
            },
        }
    }

    #[test]
    fn recent_evicts_oldest_slowest_retains_peaks() {
        let ring = TraceRing::new(4);
        assert!(ring.is_enabled());
        // A slow outlier early, then a stream of fast requests that
        // pushes it out of the recent ring.
        ring.record(entry(1, 500.0));
        for seq in 2..=10 {
            ring.record(entry(seq, 1.0 + seq as f64));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].seq, 10, "newest first");
        assert!(
            recent.iter().all(|e| e.seq != 1),
            "outlier evicted from recent"
        );
        let slowest = ring.slowest();
        assert_eq!(slowest[0].seq, 1, "…but retained as the slowest");
        assert!(slowest.len() <= ring.slow_capacity());
        assert!(
            slowest.windows(2).all(|w| w[0].millis >= w[1].millis),
            "slowest is ordered"
        );
    }

    #[test]
    fn disabled_ring_retains_nothing() {
        let ring = TraceRing::new(0);
        assert!(!ring.is_enabled());
        ring.record(entry(1, 9.0));
        assert!(ring.recent().is_empty());
        assert!(ring.slowest().is_empty());
        assert_eq!(
            ring.to_json(),
            "{\"capacity\":0,\"retained\":0,\"recent\":[],\"slowest\":[]}"
        );
    }

    #[test]
    fn to_json_is_the_unified_trace_document() {
        let ring = TraceRing::new(2);
        ring.record(entry(7, 3.25));
        let json = ring.to_json();
        assert!(json.starts_with("{\"capacity\":2,\"retained\":1,\"recent\":["));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"tag\":\"/analyze\""));
        assert!(json.contains("\"ms\":3.250"));
        assert!(json.contains("\"spans\":[{\"name\":\"request\""));
        // The entry renders identically standalone — one serialization
        // path for stderr dumps and the debug endpoint.
        assert!(json.contains(&entry(7, 3.25).to_json()));
    }

    #[test]
    fn a_hostile_tag_renders_as_a_json_string() {
        // A request path is any non-whitespace UTF-8 off the wire:
        // control characters are escaped, DEL and combining marks are
        // legal JSON as they stand.
        let mut hostile = entry(3, 1.5);
        hostile.tag = "/a\u{1}b\u{7f}c\u{301}\"\\".into();
        assert_eq!(
            hostile.to_json(),
            concat!(
                r#"{"seq":3,"tag":"/a\u0001b"#,
                "\u{7f}c\u{301}",
                r#"\"\\","ms":1.500,"spans":[{"name":"request","count":1,"ms":1.500,"children":[]}]}"#
            )
        );
    }

    #[test]
    fn concurrent_records_never_exceed_capacity() {
        let ring = std::sync::Arc::new(TraceRing::new(8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..100 {
                        ring.record(entry(t * 100 + i, (i % 17) as f64));
                    }
                });
            }
        });
        assert_eq!(ring.recent().len(), 8);
        let slowest = ring.slowest();
        assert!(slowest.len() <= ring.slow_capacity());
        assert!(slowest.windows(2).all(|w| w[0].millis >= w[1].millis));
        assert!(
            slowest.iter().all(|e| e.millis == 16.0),
            "under 400 records every retained slowest is a 16 ms peak"
        );
    }
}
