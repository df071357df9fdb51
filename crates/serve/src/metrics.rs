//! Server metrics: lock-free counters and the `/metrics` text format.
//!
//! Counters are relaxed atomics — statistics, not synchronisation —
//! rendered in the Prometheus text exposition format so the endpoint
//! can be scraped directly. The snapshot form is also what the test
//! suite asserts cache-consistency against.

use hypdb_obs::{hist, Histogram, RollingWindow};
use hypdb_table::sync::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counter block shared by acceptor and workers.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: AtomicU64,
    analyze: AtomicU64,
    detect: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    client_errors: AtomicU64,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    analyze_duration: Histogram,
    detect_duration: Histogram,
    other_duration: Histogram,
    queue_wait: Histogram,
    /// `hypdb_requests_total{endpoint,status}` — sorted so the
    /// exposition renders deterministically. Brief mutex: one entry
    /// bump per finished request.
    statuses: Mutex<BTreeMap<(&'static str, u16), u64>>,
}

/// Which `hypdb_request_duration_seconds` series a request lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /analyze`.
    Analyze,
    /// `POST /detect`.
    Detect,
    /// Everything else (`/metrics`, `/healthz`, `/datasets`, errors).
    Other,
}

impl Endpoint {
    /// The endpoint a request path routes to.
    pub fn of_path(path: &str) -> Endpoint {
        match path {
            "/analyze" => Endpoint::Analyze,
            "/detect" => Endpoint::Detect,
            _ => Endpoint::Other,
        }
    }

    /// The `endpoint` label value in `hypdb_requests_total`.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Detect => "detect",
            Endpoint::Other => "other",
        }
    }
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// HTTP requests parsed (any endpoint, any outcome).
    pub requests: u64,
    /// `POST /analyze` requests routed.
    pub analyze: u64,
    /// `POST /detect` requests routed.
    pub detect: u64,
    /// Responses served from the report cache.
    pub cache_hits: u64,
    /// Reports computed and inserted into the cache.
    pub cache_misses: u64,
    /// Connections refused with 503 (admission queue full).
    pub rejected: u64,
    /// 4xx responses (bad framing, bad request JSON, unknown dataset).
    pub client_errors: u64,
    /// Connections currently being handled by workers.
    pub in_flight: u64,
    /// Connections waiting in the admission queue.
    pub queue_depth: u64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Renders unlabelled single-sample families of one `kind`, in order:
/// `(name, help, value)` each.
fn render_scalars(out: &mut String, kind: &str, families: &[(&str, &str, u64)]) {
    for (name, help, value) in families {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    }
}

impl Metrics {
    /// Counts a parsed HTTP request.
    pub fn request(&self) {
        bump(&self.requests);
    }

    /// Counts a routed `/analyze` request.
    pub fn analyze(&self) {
        bump(&self.analyze);
    }

    /// Counts a routed `/detect` request.
    pub fn detect(&self) {
        bump(&self.detect);
    }

    /// Counts a cache hit.
    pub fn cache_hit(&self) {
        bump(&self.cache_hits);
    }

    /// Counts a cache miss (a freshly computed report).
    pub fn cache_miss(&self) {
        bump(&self.cache_misses);
    }

    /// Counts a 503 admission rejection.
    pub fn rejected(&self) {
        bump(&self.rejected);
    }

    /// Counts a 4xx response.
    pub fn client_error(&self) {
        bump(&self.client_errors);
    }

    /// Marks a connection entering a worker; the guard decrements on
    /// drop (panic-safe, so `in_flight` can never leak upward).
    pub fn enter(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Updates the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// Records one request's wall-clock duration under its endpoint's
    /// `hypdb_request_duration_seconds` series.
    pub fn observe_request(&self, endpoint: Endpoint, seconds: f64) {
        match endpoint {
            Endpoint::Analyze => self.analyze_duration.observe(seconds),
            Endpoint::Detect => self.detect_duration.observe(seconds),
            Endpoint::Other => self.other_duration.observe(seconds),
        }
    }

    /// Records how long a connection sat in the admission queue before
    /// a worker picked it up — or, on the overflow path, before it was
    /// rejected. The acceptor blocks in `accept` and the worker on the
    /// queue's condvar, so this is the hand-off alone.
    pub fn observe_queue_wait(&self, seconds: f64) {
        self.queue_wait.observe(seconds);
    }

    /// Counts one finished request in the
    /// `hypdb_requests_total{endpoint,status}` family. `endpoint` is an
    /// [`Endpoint::label`] value, or `"rejected"` for admission 503s.
    pub fn observe_status(&self, endpoint: &'static str, status: u16) {
        *self.statuses.lock().entry((endpoint, status)).or_insert(0) += 1;
    }

    /// Renders the labelled `hypdb_requests_total{endpoint,status}`
    /// counter family (one family header even when no sample exists
    /// yet, so scrapes always see the declaration).
    pub fn render_requests_total(&self) -> String {
        let name = "hypdb_requests_total";
        let mut out = format!(
            "# HELP {name} requests served, by endpoint and status\n# TYPE {name} counter\n"
        );
        for (&(endpoint, status), &count) in self.statuses.lock().iter() {
            out.push_str(&format!(
                "{name}{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
            ));
        }
        out
    }

    /// Renders every histogram family this process maintains: the
    /// server's request-duration and queue-wait ladders plus the
    /// process-wide pipeline histograms (`hypdb-obs` statics fed by the
    /// stats and oracle layers).
    pub fn render_histograms(&self) -> String {
        let mut out = String::new();
        hist::render(
            &mut out,
            "hypdb_request_duration_seconds",
            "request wall-clock seconds per endpoint",
            &[
                ("endpoint=\"analyze\"", &self.analyze_duration),
                ("endpoint=\"detect\"", &self.detect_duration),
                ("endpoint=\"other\"", &self.other_duration),
            ],
        );
        hist::render(
            &mut out,
            "hypdb_queue_wait_seconds",
            "seconds from accept to a worker's pick-up (or to the 503): the hand-off itself, no poll phase",
            &[("", &self.queue_wait)],
        );
        hist::render(
            &mut out,
            "hypdb_mit_settle_seconds",
            "permutation-test settle seconds per statement",
            &[("", &hypdb_obs::MIT_SETTLE)],
        );
        hist::render(
            &mut out,
            "hypdb_contingency_build_seconds",
            "contingency-table build seconds (scans and marginalisations)",
            &[("", &hypdb_obs::CONTINGENCY_BUILD)],
        );
        out
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            analyze: self.analyze.load(Ordering::Relaxed),
            detect: self.detect.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// Decrements `in_flight` when a worker finishes a connection.
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Renders the Prometheus text exposition format (`/metrics`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        // `hypdb_requests_total` is rendered as a labelled
        // {endpoint,status} family by `Metrics::render_requests_total`
        // (the snapshot keeps the aggregate `requests` field for
        // programmatic consumers); rendering an unlabelled sample here
        // too would declare the family twice.
        #[rustfmt::skip]
        let counters = [
            ("hypdb_parsed_requests_total", "HTTP requests parsed", self.requests),
            ("hypdb_analyze_requests_total", "POST /analyze requests", self.analyze),
            ("hypdb_detect_requests_total", "POST /detect requests", self.detect),
            ("hypdb_report_cache_hits_total", "responses served from the report cache", self.cache_hits),
            ("hypdb_report_cache_misses_total", "reports computed on a cache miss", self.cache_misses),
            ("hypdb_rejected_total", "connections refused with 503 (queue full)", self.rejected),
            ("hypdb_client_errors_total", "4xx responses", self.client_errors),
        ];
        render_scalars(&mut out, "counter", &counters);
        // Gauge names follow the Prometheus conventions: a gauge is
        // named for the thing measured (`…_requests`, `…_connections`),
        // never left as a bare verb phrase.
        #[rustfmt::skip]
        let gauges = [
            ("hypdb_in_flight_requests", "connections currently being handled", self.in_flight),
            ("hypdb_queued_connections", "connections waiting for a worker", self.queue_depth),
        ];
        render_scalars(&mut out, "gauge", &gauges);
        out
    }
}

/// One coherent view of the oracle side of `/metrics`: the aggregated
/// work counters and the resident contingency-table bytes, taken
/// together (the server reads both under a single registry lock, the
/// CLI from its single cache) so the stderr footer and the exposition
/// can never disagree about the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSnapshot {
    /// Aggregated work counters.
    pub stats: hypdb_core::OracleStats,
    /// Bytes resident in contingency caches.
    pub cache_bytes: u64,
}

impl OracleSnapshot {
    /// Snapshot of one shared cache (the CLI's single-oracle case).
    pub fn from_cache(cache: &hypdb_core::OracleCache) -> OracleSnapshot {
        OracleSnapshot {
            stats: cache.stats(),
            cache_bytes: cache.cache_bytes(),
        }
    }

    /// The `/metrics` rendering: work counters plus the byte gauge.
    pub fn render(&self) -> String {
        let mut out = render_oracle_stats(&self.stats);
        out.push_str(&render_oracle_cache_bytes(self.cache_bytes));
        out
    }

    /// The human-readable stderr footer the CLI prints after a run —
    /// derived from the same snapshot as the exposition above.
    pub fn footer(&self) -> String {
        let s = &self.stats;
        format!(
            "oracle: {} tests ({} from the verdict memo), {} scans, {} cache hits, \
             {} marginalizations, {} entropies ({} cached); mit: {} permutations, \
             {} stage-1 settled, {} escalated; {} bytes resident",
            s.tests,
            s.verdict_hits,
            s.table_scans,
            s.count_cache_hits,
            s.marginalizations,
            s.entropy_misses,
            s.entropy_hits,
            s.mit_permutations,
            s.mit_stage1_settled,
            s.mit_escalated,
            self.cache_bytes,
        )
    }
}

/// Renders the aggregated oracle work counters ([`hypdb_core::OracleStats`]
/// summed over every shared oracle-cache slot) in the Prometheus text
/// format — tests, scans, cache hits, marginalisations, entropies, and
/// the staged permutation engine's counters.
pub fn render_oracle_stats(stats: &hypdb_core::OracleStats) -> String {
    let s = stats;
    #[rustfmt::skip]
    let counters = [
        ("hypdb_oracle_tests_total", "independence statements asked", s.tests),
        ("hypdb_oracle_verdict_hits_total", "statements answered from an oracle's verdict memo", s.verdict_hits),
        ("hypdb_oracle_table_scans_total", "full row scans to build a contingency table", s.table_scans),
        ("hypdb_oracle_count_cache_hits_total", "contingency tables served from the materialisation cache", s.count_cache_hits),
        ("hypdb_oracle_marginalizations_total", "contingency tables derived from a cached superset", s.marginalizations),
        ("hypdb_oracle_entropy_hits_total", "entropies served from the entropy cache", s.entropy_hits),
        ("hypdb_oracle_entropy_misses_total", "entropies computed", s.entropy_misses),
        ("hypdb_mit_permutations_total", "permutations evaluated across settled MIT jobs", s.mit_permutations),
        ("hypdb_mit_stage1_settled_total", "MIT jobs settled at a screening checkpoint", s.mit_stage1_settled),
        ("hypdb_mit_escalated_total", "screened MIT jobs escalated to their full budget", s.mit_escalated),
    ];
    let mut out = String::new();
    render_scalars(&mut out, "counter", &counters);
    out
}

/// Renders the resident contingency-table footprint of every shared
/// oracle-cache slot as a gauge (bytes rise as tables materialise and
/// fall when a dataset slot is evicted).
pub fn render_oracle_cache_bytes(bytes: u64) -> String {
    let name = "hypdb_oracle_cache_bytes";
    format!(
        "# HELP {name} bytes resident in shared oracle contingency caches\n\
         # TYPE {name} gauge\n{name} {bytes}\n"
    )
}

/// Renders the `hypdb_build_info` gauge (constant 1 with build
/// metadata labels — the Prometheus convention for exposing versions)
/// and the `hypdb_uptime_seconds` gauge.
pub fn render_build_info(uptime_seconds: f64) -> String {
    let version = env!("CARGO_PKG_VERSION");
    let journal_schema = hypdb_obs::journal::SCHEMA;
    format!(
        "# HELP hypdb_build_info build metadata (value is constant 1)\n\
         # TYPE hypdb_build_info gauge\n\
         hypdb_build_info{{version=\"{version}\",journal_schema=\"{journal_schema}\"}} 1\n\
         # HELP hypdb_uptime_seconds seconds since the server started\n\
         # TYPE hypdb_uptime_seconds gauge\n\
         hypdb_uptime_seconds {uptime_seconds:.3}\n"
    )
}

/// Renders the process-wide `hypdb_journal_dropped_total` counter —
/// journal lines dropped because the writer's bounded channel was full
/// (the flight recorder never blocks the request path).
pub fn render_journal_dropped() -> String {
    let name = "hypdb_journal_dropped_total";
    format!(
        "# HELP {name} journal records dropped by the bounded writer channel\n\
         # TYPE {name} counter\n{name} {}\n",
        hypdb_obs::journal::dropped_total()
    )
}

/// Renders the rolling-window gauge families
/// (`hypdb_window_requests` / `_errors` / `_latency_avg_seconds` /
/// `_latency_max_seconds`) over 1m and 5m horizons. `series` pairs a
/// label block (`endpoint="analyze"`, `dataset="adult"`) with its
/// window; each family is declared once with every sample under it.
pub fn render_windows(series: &[(String, &RollingWindow)]) -> String {
    const HORIZONS: [(&str, u64); 2] = [("1m", 60), ("5m", 300)];
    let summaries: Vec<(&str, &str, hypdb_obs::WindowSummary)> = series
        .iter()
        .flat_map(|(labels, window)| {
            HORIZONS
                .iter()
                .map(move |&(tag, secs)| (labels.as_str(), tag, window.summary(secs)))
        })
        .collect();
    let mut out = String::new();
    let mut family =
        |name: &str, help: &str, value: &dyn Fn(&hypdb_obs::WindowSummary) -> String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (labels, horizon, summary) in &summaries {
                out.push_str(&format!(
                    "{name}{{{labels},window=\"{horizon}\"}} {}\n",
                    value(summary)
                ));
            }
        };
    family(
        "hypdb_window_requests",
        "requests finished inside the rolling window",
        &|s| s.count.to_string(),
    );
    family(
        "hypdb_window_errors",
        "error (4xx/5xx) responses inside the rolling window",
        &|s| s.errors.to_string(),
    );
    family(
        "hypdb_window_latency_avg_seconds",
        "mean request latency inside the rolling window",
        &|s| format!("{:.6}", s.avg_seconds),
    );
    family(
        "hypdb_window_latency_max_seconds",
        "maximum request latency inside the rolling window",
        &|s| format!("{:.6}", s.max_seconds),
    );
    out
}

/// Renders the report cache's byte accounting ([`crate::cache::CacheStats`]).
pub fn render_cache_stats(stats: &crate::cache::CacheStats) -> String {
    #[rustfmt::skip]
    let gauges = [
        ("hypdb_report_cache_entries", "resident report-cache entries", stats.entries as u64),
        ("hypdb_report_cache_resident_bytes", "bytes pinned by resident report-cache entries", stats.resident_bytes as u64),
    ];
    #[rustfmt::skip]
    let counters = [
        ("hypdb_report_cache_evictions_total", "report-cache entries evicted by the byte budget", stats.evictions),
        ("hypdb_report_cache_evicted_bytes_total", "bytes reclaimed by report-cache eviction", stats.evicted_bytes),
    ];
    let mut out = String::new();
    render_scalars(&mut out, "gauge", &gauges);
    render_scalars(&mut out, "counter", &counters);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_and_cache_renders_are_prometheus_shaped() {
        let stats = hypdb_core::OracleStats {
            tests: 12,
            table_scans: 2,
            marginalizations: 7,
            mit_permutations: 4096,
            mit_stage1_settled: 11,
            mit_escalated: 2,
            verdict_hits: 5,
            ..Default::default()
        };
        let text = render_oracle_stats(&stats);
        assert!(text.contains("\nhypdb_oracle_tests_total 12\n"));
        assert!(text.contains("\nhypdb_oracle_verdict_hits_total 5\n"));
        assert!(text.contains("\nhypdb_oracle_table_scans_total 2\n"));
        assert!(text.contains("\nhypdb_oracle_marginalizations_total 7\n"));
        assert!(!text.contains("batched") && !text.contains("speculative"));
        assert!(text.contains("\nhypdb_mit_permutations_total 4096\n"));
        assert!(text.contains("\nhypdb_mit_stage1_settled_total 11\n"));
        assert!(text.contains("\nhypdb_mit_escalated_total 2\n"));

        let text = render_oracle_cache_bytes(1536);
        assert!(text.contains("# TYPE hypdb_oracle_cache_bytes gauge"));
        assert!(text.contains("\nhypdb_oracle_cache_bytes 1536\n"));

        let cs = crate::cache::CacheStats {
            entries: 2,
            resident_bytes: 4096,
            evictions: 5,
            evicted_bytes: 999,
        };
        let text = render_cache_stats(&cs);
        assert!(text.contains("\nhypdb_report_cache_resident_bytes 4096\n"));
        assert!(text.contains("\nhypdb_report_cache_evictions_total 5\n"));
        assert!(text.contains("\nhypdb_report_cache_evicted_bytes_total 999\n"));
        assert!(text.contains("# TYPE hypdb_report_cache_entries gauge"));
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.request();
        m.request();
        m.analyze();
        m.cache_hit();
        m.cache_miss();
        m.rejected();
        m.client_error();
        m.set_queue_depth(3);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.analyze, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.client_errors, 1);
        assert_eq!(s.queue_depth, 3);
    }

    #[test]
    fn in_flight_guard_is_balanced() {
        let m = Metrics::default();
        {
            let _a = m.enter();
            let _b = m.enter();
            assert_eq!(m.snapshot().in_flight, 2);
        }
        assert_eq!(m.snapshot().in_flight, 0);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = Metrics::default();
        m.cache_hit();
        let text = m.snapshot().render();
        assert!(text.contains("# TYPE hypdb_report_cache_hits_total counter"));
        assert!(text.contains("\nhypdb_report_cache_hits_total 1\n"));
        assert!(text.contains("# TYPE hypdb_in_flight_requests gauge"));
        assert!(text.contains("# TYPE hypdb_queued_connections gauge"));
        // The pre-rename spellings must be gone: `hypdb_in_flight` was
        // not named for what it measures, `hypdb_queue_depth` read as a
        // depth-in-bytes counter to convention-aware tooling.
        assert!(!text.contains("hypdb_in_flight \n") && !text.contains("hypdb_in_flight 0"));
        assert!(!text.contains("hypdb_queue_depth"));
    }

    /// Line-by-line Prometheus text-exposition validator: HELP/TYPE
    /// pairing per family, no duplicate families or samples, sample
    /// names matching the declared family (including `_bucket`/`_sum`/
    /// `_count` for histograms), numeric values, and per-series bucket
    /// ladders that are `le`-ascending, cumulative, and closed by a
    /// `+Inf` bucket equal to `_count`.
    fn check_exposition(text: &str) -> Result<(), String> {
        use std::collections::{HashMap, HashSet};
        let mut declared: HashMap<String, String> = HashMap::new();
        let mut pending_help: Option<String> = None;
        let mut current: Option<String> = None;
        let mut samples_seen: HashSet<String> = HashSet::new();
        #[derive(Default)]
        struct Series {
            last_le: Option<f64>,
            last_cum: Option<u64>,
            inf: Option<u64>,
        }
        let mut series: HashMap<(String, String), Series> = HashMap::new();
        let mut counts: Vec<((String, String), u64)> = Vec::new();

        for (no, line) in text.lines().enumerate() {
            let fail = |msg: &str| Err(format!("line {}: {msg}: `{line}`", no + 1));
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let Some((name, help)) = rest.split_once(' ') else {
                    return fail("HELP without text");
                };
                if help.trim().is_empty() {
                    return fail("empty HELP text");
                }
                if declared.contains_key(name) {
                    return fail("duplicate metric family");
                }
                if pending_help.is_some() {
                    return fail("HELP not followed by TYPE");
                }
                pending_help = Some(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let Some((name, kind)) = rest.split_once(' ') else {
                    return fail("TYPE without kind");
                };
                if pending_help.as_deref() != Some(name) {
                    return fail("TYPE without a matching HELP directly above");
                }
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return fail("unknown metric kind");
                }
                declared.insert(name.to_string(), kind.to_string());
                current = Some(name.to_string());
                pending_help = None;
                continue;
            }
            if line.starts_with('#') {
                return fail("unknown comment line");
            }
            // A sample: `name[{labels}] value`.
            let Some((metric, value)) = line.rsplit_once(' ') else {
                return fail("sample without a value");
            };
            if value.parse::<f64>().is_err() {
                return fail("sample value is not a number");
            }
            if !samples_seen.insert(metric.to_string()) {
                return fail("duplicate sample");
            }
            let (name, labels) = match metric.split_once('{') {
                Some((n, rest)) => match rest.strip_suffix('}') {
                    Some(l) => (n, l),
                    None => return fail("unclosed label block"),
                },
                None => (metric, ""),
            };
            let Some(family) = current.clone() else {
                return fail("sample before any TYPE declaration");
            };
            match declared[&family].as_str() {
                "histogram" => {
                    let strip_le = |labels: &str| -> (Option<String>, String) {
                        let mut le = None;
                        let rest: Vec<&str> = labels
                            .split(',')
                            .filter(|part| match part.strip_prefix("le=\"") {
                                Some(v) => {
                                    le = v.strip_suffix('"').map(str::to_string);
                                    false
                                }
                                None => true,
                            })
                            .collect();
                        (le, rest.join(","))
                    };
                    if name == format!("{family}_bucket") {
                        let (le, key) = strip_le(labels);
                        let Some(le) = le else {
                            return fail("bucket sample without an le label");
                        };
                        let cum: u64 = match value.parse() {
                            Ok(c) => c,
                            Err(_) => return fail("bucket count is not an integer"),
                        };
                        let s = series.entry((family.clone(), key)).or_default();
                        if le == "+Inf" {
                            if s.inf.is_some() {
                                return fail("duplicate +Inf bucket");
                            }
                            if s.last_cum.is_some_and(|prev| cum < prev) {
                                return fail("+Inf bucket below the ladder");
                            }
                            s.inf = Some(cum);
                        } else {
                            let Ok(bound) = le.parse::<f64>() else {
                                return fail("unparsable le bound");
                            };
                            if s.inf.is_some() {
                                return fail("finite bucket after +Inf");
                            }
                            if s.last_le.is_some_and(|prev| bound <= prev) {
                                return fail("le bounds are not ascending");
                            }
                            if s.last_cum.is_some_and(|prev| cum < prev) {
                                return fail("bucket counts are not cumulative");
                            }
                            s.last_le = Some(bound);
                            s.last_cum = Some(cum);
                        }
                    } else if name == format!("{family}_sum") {
                        // Any finite float is fine; already checked.
                    } else if name == format!("{family}_count") {
                        let Ok(count) = value.parse::<u64>() else {
                            return fail("histogram count is not an integer");
                        };
                        counts.push(((family.clone(), labels.to_string()), count));
                    } else {
                        return fail("sample name does not match the histogram family");
                    }
                }
                _ => {
                    if name != family {
                        return fail("sample name does not match the declared family");
                    }
                }
            }
        }
        if pending_help.is_some() {
            return Err("trailing HELP without TYPE".into());
        }
        for (key, count) in counts {
            match series.get(&key) {
                Some(s) if s.inf == Some(count) => {}
                Some(s) => {
                    return Err(format!(
                        "series {key:?}: +Inf bucket {:?} != count {count}",
                        s.inf
                    ))
                }
                None => return Err(format!("series {key:?}: count without buckets")),
            }
        }
        for (key, s) in &series {
            if s.inf.is_none() {
                return Err(format!("series {key:?}: no +Inf bucket"));
            }
        }
        Ok(())
    }

    #[test]
    fn full_exposition_is_well_formed() {
        let m = Metrics::default();
        m.request();
        m.analyze();
        m.cache_miss();
        m.observe_request(Endpoint::Analyze, 0.012);
        m.observe_request(Endpoint::Other, 0.0002);
        m.observe_queue_wait(0.0007);
        m.observe_status(Endpoint::Analyze.label(), 200);
        m.observe_status(Endpoint::Analyze.label(), 400);
        m.observe_status("rejected", 503);
        let oracle = OracleSnapshot {
            stats: hypdb_core::OracleStats {
                tests: 5,
                marginalizations: 12,
                ..Default::default()
            },
            cache_bytes: 2048,
        };
        let cache = crate::cache::CacheStats {
            entries: 1,
            resident_bytes: 512,
            evictions: 0,
            evicted_bytes: 0,
        };
        let analyze_window = RollingWindow::new();
        analyze_window.observe(0.012, false);
        analyze_window.observe(0.050, true);
        let dataset_window = RollingWindow::new();
        dataset_window.observe(0.012, false);
        // Assemble the exposition exactly as the `/metrics` route does.
        let mut text = m.snapshot().render();
        text.push_str(&m.render_requests_total());
        text.push_str(&render_build_info(12.5));
        text.push_str(&render_journal_dropped());
        text.push_str(&render_cache_stats(&cache));
        text.push_str(&oracle.render());
        text.push_str(&m.render_histograms());
        text.push_str(&render_windows(&[
            ("endpoint=\"analyze\"".into(), &analyze_window),
            ("dataset=\"adult\"".into(), &dataset_window),
        ]));
        check_exposition(&text).unwrap();
        assert!(text
            .contains("hypdb_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"0.05\"} 1"));
        assert!(text.contains("hypdb_queue_wait_seconds_count 1"));
        assert!(text.contains("hypdb_requests_total{endpoint=\"analyze\",status=\"200\"} 1\n"));
        assert!(text.contains("hypdb_requests_total{endpoint=\"analyze\",status=\"400\"} 1\n"));
        assert!(text.contains("hypdb_requests_total{endpoint=\"rejected\",status=\"503\"} 1\n"));
        assert!(text.contains("hypdb_build_info{version=\""));
        assert!(text.contains("journal_schema=\"hypdb-journal/v1\"} 1\n"));
        assert!(text.contains("\nhypdb_uptime_seconds 12.500\n"));
        assert!(text.contains("# TYPE hypdb_journal_dropped_total counter"));
        assert!(text.contains("hypdb_window_requests{endpoint=\"analyze\",window=\"1m\"} 2\n"));
        assert!(text.contains("hypdb_window_errors{endpoint=\"analyze\",window=\"5m\"} 1\n"));
        assert!(text.contains("hypdb_window_requests{dataset=\"adult\",window=\"1m\"} 1\n"));
        assert!(text.contains(
            "hypdb_window_latency_max_seconds{endpoint=\"analyze\",window=\"1m\"} 0.050000\n"
        ));
    }

    #[test]
    fn requests_total_family_renders_sorted_and_headers_only_when_empty() {
        let m = Metrics::default();
        let empty = m.render_requests_total();
        assert_eq!(
            empty,
            "# HELP hypdb_requests_total requests served, by endpoint and status\n\
             # TYPE hypdb_requests_total counter\n"
        );
        m.observe_status("detect", 200);
        m.observe_status("analyze", 404);
        m.observe_status("analyze", 200);
        m.observe_status("analyze", 200);
        let text = m.render_requests_total();
        let samples: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(
            samples,
            vec![
                "hypdb_requests_total{endpoint=\"analyze\",status=\"200\"} 2",
                "hypdb_requests_total{endpoint=\"analyze\",status=\"404\"} 1",
                "hypdb_requests_total{endpoint=\"detect\",status=\"200\"} 1",
            ]
        );
    }

    #[test]
    fn malformed_expositions_are_rejected() {
        // Duplicate family.
        let dup = "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\na 2\n";
        assert!(check_exposition(dup).is_err());
        // Sample before any TYPE.
        assert!(check_exposition("a 1\n").is_err());
        // Non-numeric value.
        assert!(check_exposition("# HELP a x\n# TYPE a counter\na one\n").is_err());
        // Sample name drifting from the declared family.
        assert!(check_exposition("# HELP a x\n# TYPE a counter\nb 1\n").is_err());
        // Duplicate sample.
        assert!(check_exposition("# HELP a x\n# TYPE a gauge\na 1\na 2\n").is_err());
        // Histogram with a non-cumulative ladder.
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1.0\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 1.0\nh_count 5\n";
        assert!(check_exposition(bad).is_err());
        // Histogram whose +Inf bucket disagrees with its count.
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.1\nh_count 3\n";
        assert!(check_exposition(bad).is_err());
        // Histogram missing its +Inf closing bucket.
        let bad = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 2\nh_sum 0.1\n";
        assert!(check_exposition(bad).is_err());
    }
}
