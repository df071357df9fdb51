//! Server metrics and the one `/metrics` assembly.
//!
//! [`MetricsSnapshot`] is the server's counter block, and
//! [`MetricsSnapshot::FAMILIES`] declares each field's family, help
//! text and kind once. [`Metrics`] keeps one snapshot behind a mutex (a
//! bump is one brief lock, a few per request) next to the latency
//! histograms, the `{endpoint,status}` request counts and the rolling
//! windows. [`Metrics::render`] is the whole `/metrics` body — the
//! route serves it, and the exposition validator in this module's tests
//! checks it — and writes every family through
//! [`hypdb_obs::expo::family`].

use crate::cache::CacheStats;
use hypdb_core::OracleStats;
use hypdb_obs::expo::{family, Kind};
use hypdb_obs::{hist, Histogram, RollingWindow, WindowSummary};
use hypdb_table::sync::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The server's metrics, shared by acceptor and workers.
#[derive(Default)]
pub struct Metrics {
    counts: Mutex<MetricsSnapshot>,
    /// Per [`Endpoint`], in [`ENDPOINTS`] order: its
    /// `hypdb_request_duration_seconds` series and its rolling window.
    endpoints: [(Histogram, RollingWindow); 3],
    queue_wait: Histogram,
    /// `hypdb_requests_total{endpoint,status}` — sorted so the
    /// exposition renders deterministically.
    statuses: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Rolling windows per dataset, created on a dataset's first
    /// request — bounded by the registry, since only resolved dataset
    /// names create one.
    datasets: Mutex<BTreeMap<String, RollingWindow>>,
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

/// Every [`Endpoint`], in exposition order (= discriminant order).
const ENDPOINTS: [Endpoint; 3] = [Endpoint::Analyze, Endpoint::Detect, Endpoint::Other];

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

/// A [`MetricsSnapshot::FAMILIES`] entry: family name, help text,
/// kind, field.
type Family = (
    &'static str,
    &'static str,
    Kind,
    fn(&mut MetricsSnapshot) -> &mut u64,
);

/// A point-in-time copy of every counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

impl MetricsSnapshot {
    /// Every field's family, help text and kind, in `/metrics` order —
    /// the one list [`Metrics::render`] loops over. `requests` is
    /// exported as `hypdb_parsed_requests_total`, because
    /// `hypdb_requests_total` is the labelled `{endpoint,status}`
    /// family. Gauges are named for the thing measured (`…_requests`,
    /// `…_connections`), the Prometheus convention.
    #[rustfmt::skip]
    pub const FAMILIES: [Family; 9] = [
        ("hypdb_parsed_requests_total", "HTTP requests parsed", Kind::Counter, |c| &mut c.requests),
        ("hypdb_analyze_requests_total", "POST /analyze requests", Kind::Counter, |c| &mut c.analyze),
        ("hypdb_detect_requests_total", "POST /detect requests", Kind::Counter, |c| &mut c.detect),
        ("hypdb_report_cache_hits_total", "responses served from the report cache", Kind::Counter, |c| &mut c.cache_hits),
        ("hypdb_report_cache_misses_total", "reports computed on a cache miss", Kind::Counter, |c| &mut c.cache_misses),
        ("hypdb_rejected_total", "connections refused with 503 (queue full)", Kind::Counter, |c| &mut c.rejected),
        ("hypdb_client_errors_total", "4xx responses", Kind::Counter, |c| &mut c.client_errors),
        ("hypdb_in_flight_requests", "connections currently being handled", Kind::Gauge, |c| &mut c.in_flight),
        ("hypdb_queued_connections", "connections waiting for a worker", Kind::Gauge, |c| &mut c.queue_depth),
    ];
}

impl Metrics {
    /// Adds one to a counter of the block, named by its field:
    /// `metrics.count(|c| &mut c.cache_hits)`.
    pub fn count(&self, counter: fn(&mut MetricsSnapshot) -> &mut u64) {
        *counter(&mut self.counts.lock()) += 1;
    }

    /// Marks a connection entering a worker; the guard decrements on
    /// drop (panic-safe, so `in_flight` can never leak upward).
    pub fn enter(&self) -> InFlightGuard<'_> {
        self.counts.lock().in_flight += 1;
        InFlightGuard { metrics: self }
    }

    /// Updates the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.counts.lock().queue_depth = depth as u64;
    }

    /// Records one finished request: its wall-clock duration under its
    /// endpoint's `hypdb_request_duration_seconds` series, its status in
    /// `hypdb_requests_total`, and both in the endpoint's rolling window
    /// and — when the request resolved one — its dataset's.
    pub fn observe_request(
        &self,
        endpoint: Endpoint,
        dataset: Option<&str>,
        status: u16,
        seconds: f64,
    ) {
        let (duration, window) = &self.endpoints[endpoint as usize];
        duration.observe(seconds);
        self.observe_status(endpoint.label(), status);
        let error = status >= 400;
        window.observe(seconds, error);
        if let Some(name) = dataset {
            let mut datasets = self.datasets.lock();
            datasets
                .entry(name.to_string())
                .or_default()
                .observe(seconds, error);
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

    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        *self.counts.lock()
    }

    /// The whole `/metrics` body, every family once, in a fixed order:
    /// the counter block, `hypdb_requests_total`, build info, uptime and
    /// the journal's drops, the report cache, the oracle counters and
    /// bytes, the histograms (this server's and the process-wide
    /// pipeline ones), then the rolling windows.
    pub fn render(
        &self,
        uptime_seconds: f64,
        cache: &CacheStats,
        oracle: &OracleSnapshot,
    ) -> String {
        let mut out = String::new();
        let mut counts = self.snapshot();
        for (name, help, kind, field) in MetricsSnapshot::FAMILIES {
            family(&mut out, name, help, kind, [("", *field(&mut counts))]);
        }
        let statuses = (self.statuses.lock().iter())
            .map(|((endpoint, status), n)| {
                let labels = format!("{{endpoint=\"{endpoint}\",status=\"{status}\"}}");
                (labels, n.to_string())
            })
            .collect();
        let version = env!("CARGO_PKG_VERSION");
        let schema = hypdb_obs::journal::SCHEMA;
        let build = format!("{{version=\"{version}\",journal_schema=\"{schema}\"}}");
        let one = |value: String| vec![(String::new(), value)];
        let dropped = hypdb_obs::journal::dropped_total();
        #[rustfmt::skip]
        let families = [
            ("hypdb_requests_total", "requests served, by endpoint and status", Kind::Counter, statuses),
            ("hypdb_build_info", "build metadata (value is constant 1)", Kind::Gauge, vec![(build, "1".into())]),
            ("hypdb_uptime_seconds", "seconds since the server started", Kind::Gauge, one(format!("{uptime_seconds:.3}"))),
            ("hypdb_journal_dropped_total", "journal records dropped by the bounded writer channel", Kind::Counter, one(dropped.to_string())),
            ("hypdb_report_cache_entries", "resident report-cache entries", Kind::Gauge, one(cache.entries.to_string())),
            ("hypdb_report_cache_resident_bytes", "bytes pinned by resident report-cache entries", Kind::Gauge, one(cache.resident_bytes.to_string())),
            ("hypdb_report_cache_evictions_total", "report-cache entries evicted by the byte budget", Kind::Counter, one(cache.evictions.to_string())),
            ("hypdb_report_cache_evicted_bytes_total", "bytes reclaimed by report-cache eviction", Kind::Counter, one(cache.evicted_bytes.to_string())),
        ];
        for (name, help, kind, samples) in families {
            family(&mut out, name, help, kind, samples);
        }
        let mut stats = oracle.stats;
        let counters = OracleStats::EXPORTED
            .map(|(name, help, field)| (name, help, Kind::Counter, *field(&mut stats)));
        #[rustfmt::skip]
        let bytes = ("hypdb_oracle_cache_bytes", "bytes resident in shared oracle contingency caches", Kind::Gauge, oracle.cache_bytes);
        for (name, help, kind, value) in counters.into_iter().chain([bytes]) {
            family(&mut out, name, help, kind, [("", value)]);
        }

        let labels = ENDPOINTS.map(|e| format!("endpoint=\"{}\"", e.label()));
        let durations: Vec<(&str, &Histogram)> = (labels.iter())
            .zip(&self.endpoints)
            .map(|(labels, (duration, _))| (labels.as_str(), duration))
            .collect();
        type Series<'a> = &'a [(&'a str, &'a Histogram)];
        #[rustfmt::skip]
        let histograms: [(&str, &str, Series); 4] = [
            ("hypdb_request_duration_seconds", "request wall-clock seconds per endpoint", &durations),
            ("hypdb_queue_wait_seconds", "seconds from accept to a worker's pick-up (or to the 503): the hand-off itself, no poll phase", &[("", &self.queue_wait)]),
            ("hypdb_mit_settle_seconds", "permutation-test settle seconds per statement", &[("", &hypdb_obs::MIT_SETTLE)]),
            ("hypdb_contingency_build_seconds", "contingency-table build seconds (scans and marginalisations)", &[("", &hypdb_obs::CONTINGENCY_BUILD)]),
        ];
        for (name, help, series) in histograms {
            hist::render(&mut out, name, help, series);
        }

        // Each window is summarised once per horizon, so the four
        // window families describe the same instant.
        let mut summaries: Vec<(String, WindowSummary)> = Vec::new();
        let mut summarise = |labels: &str, window: &RollingWindow| {
            for (tag, secs) in [("1m", 60), ("5m", 300)] {
                let series = format!("{{{labels},window=\"{tag}\"}}");
                summaries.push((series, window.summary(secs)));
            }
        };
        for (labels, (_, window)) in labels.iter().zip(&self.endpoints) {
            summarise(labels, window);
        }
        for (name, window) in self.datasets.lock().iter() {
            summarise(&format!("dataset=\"{name}\""), window);
        }
        type Column = fn(&WindowSummary) -> String;
        #[rustfmt::skip]
        let windows: [(&str, &str, Column); 4] = [
            ("hypdb_window_requests", "requests finished inside the rolling window", |s| s.count.to_string()),
            ("hypdb_window_errors", "error (4xx/5xx) responses inside the rolling window", |s| s.errors.to_string()),
            ("hypdb_window_latency_avg_seconds", "mean request latency inside the rolling window", |s| format!("{:.6}", s.avg_seconds)),
            ("hypdb_window_latency_max_seconds", "maximum request latency inside the rolling window", |s| format!("{:.6}", s.max_seconds)),
        ];
        for (name, help, value) in windows {
            let samples = summaries.iter().map(|(series, s)| (series, value(s)));
            family(&mut out, name, help, Kind::Gauge, samples);
        }
        out
    }
}

/// Decrements `in_flight` when a worker finishes a connection.
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.counts.lock().in_flight -= 1;
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
    pub stats: OracleStats,
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

    /// The human-readable stderr footer the CLI prints after a run —
    /// the same snapshot type [`Metrics::render`] exports.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A scrape of `m` with empty report and oracle caches.
    fn scrape(m: &Metrics) -> String {
        let oracle = OracleSnapshot {
            stats: OracleStats::default(),
            cache_bytes: 0,
        };
        m.render(0.0, &CacheStats::default(), &oracle)
    }

    #[test]
    fn oracle_and_cache_renders_are_prometheus_shaped() {
        let stats = OracleStats {
            tests: 12,
            table_scans: 2,
            marginalizations: 7,
            mit_permutations: 4096,
            mit_stage1_settled: 11,
            mit_escalated: 2,
            verdict_hits: 5,
            ..Default::default()
        };
        let oracle = OracleSnapshot {
            stats,
            cache_bytes: 1536,
        };
        let cs = CacheStats {
            entries: 2,
            resident_bytes: 4096,
            evictions: 5,
            evicted_bytes: 999,
        };
        let text = Metrics::default().render(0.0, &cs, &oracle);
        assert!(text.contains("\nhypdb_oracle_tests_total 12\n"));
        assert!(text.contains("\nhypdb_oracle_verdict_hits_total 5\n"));
        assert!(text.contains("\nhypdb_oracle_table_scans_total 2\n"));
        assert!(text.contains("\nhypdb_oracle_marginalizations_total 7\n"));
        assert!(!text.contains("batched") && !text.contains("speculative"));
        assert!(text.contains("\nhypdb_mit_permutations_total 4096\n"));
        assert!(text.contains("\nhypdb_mit_stage1_settled_total 11\n"));
        assert!(text.contains("\nhypdb_mit_escalated_total 2\n"));

        assert!(text.contains("# TYPE hypdb_oracle_cache_bytes gauge"));
        assert!(text.contains("\nhypdb_oracle_cache_bytes 1536\n"));

        assert!(text.contains("\nhypdb_report_cache_resident_bytes 4096\n"));
        assert!(text.contains("\nhypdb_report_cache_evictions_total 5\n"));
        assert!(text.contains("\nhypdb_report_cache_evicted_bytes_total 999\n"));
        assert!(text.contains("# TYPE hypdb_report_cache_entries gauge"));
    }

    #[test]
    fn every_listed_family_is_rendered_once() {
        let text = scrape(&Metrics::default());
        let listed = (MetricsSnapshot::FAMILIES.iter().map(|f| f.0))
            .chain(OracleStats::EXPORTED.iter().map(|f| f.0));
        for name in listed {
            let header = format!("# TYPE {name} ");
            let samples = format!("{name} ");
            assert_eq!(text.matches(&header).count(), 1, "{name}");
            assert_eq!(text.lines().filter(|l| l.starts_with(&samples)).count(), 1);
        }
    }

    #[test]
    fn counters_accumulate() {
        // Counter i of the list is bumped i + 1 times; a destructuring
        // without `..` reads every field back, so a field added to the
        // snapshot fails to compile here until it is named, and fails
        // the test until it is in `FAMILIES`.
        let m = Metrics::default();
        for (i, (.., field)) in MetricsSnapshot::FAMILIES.iter().enumerate() {
            for _ in 0..=i {
                m.count(*field);
            }
        }
        let MetricsSnapshot {
            requests,
            analyze,
            detect,
            cache_hits,
            cache_misses,
            rejected,
            client_errors,
            in_flight,
            queue_depth,
        } = m.snapshot();
        let mut every = [
            requests,
            analyze,
            detect,
            cache_hits,
            cache_misses,
            rejected,
            client_errors,
            in_flight,
            queue_depth,
        ];
        every.sort_unstable();
        assert_eq!(every, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        m.set_queue_depth(3);
        assert_eq!(m.snapshot().queue_depth, 3);
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
        m.count(|c| &mut c.cache_hits);
        let text = scrape(&m);
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
        m.count(|c| &mut c.requests);
        m.count(|c| &mut c.analyze);
        m.count(|c| &mut c.cache_misses);
        m.observe_request(Endpoint::Analyze, Some("adult"), 200, 0.012);
        m.observe_request(Endpoint::Analyze, None, 400, 0.050);
        m.observe_request(Endpoint::Other, None, 200, 0.0002);
        m.observe_queue_wait(0.0007);
        m.observe_status("rejected", 503);
        let oracle = OracleSnapshot {
            stats: OracleStats {
                tests: 5,
                marginalizations: 12,
                ..Default::default()
            },
            cache_bytes: 2048,
        };
        let cache = CacheStats {
            entries: 1,
            resident_bytes: 512,
            evictions: 0,
            evicted_bytes: 0,
        };
        // What the `/metrics` route serves.
        let text = m.render(12.5, &cache, &oracle);
        check_exposition(&text).unwrap();
        assert!(text.contains(
            "hypdb_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"0.025\"} 1"
        ));
        assert!(text
            .contains("hypdb_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"0.05\"} 2"));
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
        // The family's lines: its header and every sample under it.
        fn requests_total(m: &Metrics) -> Vec<String> {
            let text = scrape(m);
            let from = text.find("# HELP hypdb_requests_total ").unwrap();
            let lines = text[from..].lines().enumerate();
            lines
                .take_while(|(i, l)| *i < 2 || !l.starts_with('#'))
                .map(|(_, l)| l.to_string())
                .collect()
        }
        let m = Metrics::default();
        assert_eq!(
            requests_total(&m),
            [
                "# HELP hypdb_requests_total requests served, by endpoint and status",
                "# TYPE hypdb_requests_total counter",
            ]
        );
        m.observe_status("detect", 200);
        m.observe_status("analyze", 404);
        m.observe_status("analyze", 200);
        m.observe_status("analyze", 200);
        assert_eq!(
            requests_total(&m)[2..],
            [
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
