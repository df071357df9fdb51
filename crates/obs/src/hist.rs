//! Fixed-bucket latency histograms with atomic counters, rendered in
//! Prometheus exposition format through [`crate::expo`].
//!
//! Buckets are a fixed exponential ladder from 100 µs to 10 s — one
//! shape for every family, so dashboards can overlay them and the
//! render path needs no per-histogram configuration. Observation is a
//! couple of relaxed atomic adds; histograms are always on (they feed
//! `/metrics` whether or not a request is traced).

use crate::expo;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (seconds) of the fixed bucket ladder, paired with
/// their exact `le` label text (pre-rendered so the exposition never
/// depends on float formatting).
pub const BUCKET_BOUNDS: [(f64, &str); 14] = [
    (0.0001, "0.0001"),
    (0.00025, "0.00025"),
    (0.0005, "0.0005"),
    (0.001, "0.001"),
    (0.0025, "0.0025"),
    (0.005, "0.005"),
    (0.01, "0.01"),
    (0.025, "0.025"),
    (0.05, "0.05"),
    (0.1, "0.1"),
    (0.25, "0.25"),
    (1.0, "1.0"),
    (2.5, "2.5"),
    (10.0, "10.0"),
];

const NB: usize = BUCKET_BOUNDS.len();

/// A fixed-bucket latency histogram. `const`-constructible so families
/// can live in statics; all methods take `&self`.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; the +Inf bucket
    /// is implicit (`count` minus the ladder's sum).
    buckets: [AtomicU64; NB],
    /// Total observed nanoseconds.
    sum_nanos: AtomicU64,
    /// Total observations.
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NB],
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let secs = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        if let Some(i) = BUCKET_BOUNDS.iter().position(|&(b, _)| secs <= b) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.sum_nanos
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (counters are statistics, not
    /// synchronisation; relaxed loads suffice).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NB];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Point-in-time histogram state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts aligned with [`BUCKET_BOUNDS`].
    pub buckets: [u64; NB],
    /// Sum of observations, seconds.
    pub sum_seconds: f64,
    /// Number of observations.
    pub count: u64,
}

/// Permutation-test settle time per oracle statement (observed by the
/// data oracle around `hypdb-stats::mit_settle_one`, the one settle
/// path; direct `mit` / `hymit` calls are not observed).
pub static MIT_SETTLE: Histogram = Histogram::new();

/// Contingency-table build time — direct scans and superset
/// marginalisations both (observed by the data oracle).
pub static CONTINGENCY_BUILD: Histogram = Histogram::new();

/// Renders one histogram family through [`expo::family`]. `series`
/// pairs a label block (`""` or `endpoint="analyze"`) with a
/// histogram; each becomes a cumulative `_bucket` ladder closed by
/// `+Inf`, then `_sum` and `_count`.
pub fn render(out: &mut String, name: &str, help: &str, series: &[(&str, &Histogram)]) {
    // `{labels,extra}` of whichever parts are non-empty.
    let block = |labels: &str, extra: &str| match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (false, false) => format!("{{{labels},{extra}}}"),
        _ => format!("{{{labels}{extra}}}"),
    };
    let mut samples = Vec::new();
    for &(labels, hist) in series {
        let snap = hist.snapshot();
        let mut cum = 0u64;
        for (&(_, le), &n) in BUCKET_BOUNDS.iter().zip(&snap.buckets) {
            cum += n;
            let le = format!("le=\"{le}\"");
            samples.push((format!("_bucket{}", block(labels, &le)), cum.to_string()));
        }
        let (inf, plain) = (block(labels, "le=\"+Inf\""), block(labels, ""));
        samples.push((format!("_bucket{inf}"), snap.count.to_string()));
        samples.push((format!("_sum{plain}"), snap.sum_seconds.to_string()));
        samples.push((format!("_count{plain}"), snap.count.to_string()));
    }
    expo::family(out, name, help, expo::Kind::Histogram, samples);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_lands_in_the_right_bucket() {
        let h = Histogram::new();
        h.observe(0.0004); // ≤ 0.0005
        h.observe(0.003); // ≤ 0.005
        h.observe(0.003);
        h.observe(99.0); // past the ladder: +Inf only
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[5], 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert!((s.sum_seconds - 99.0064).abs() < 1e-6);
    }

    #[test]
    fn degenerate_observations_are_clamped() {
        let h = Histogram::new();
        h.observe(-1.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0], 2); // clamped to 0.0 ≤ smallest bound
        assert_eq!(s.sum_seconds, 0.0);
    }

    #[test]
    fn render_is_cumulative_and_labelled() {
        let h = Histogram::new();
        h.observe(0.0004);
        h.observe(0.003);
        let mut out = String::new();
        render(
            &mut out,
            "hypdb_test_seconds",
            "Test histogram.",
            &[("endpoint=\"analyze\"", &h)],
        );
        assert!(out.contains("# TYPE hypdb_test_seconds histogram\n"));
        assert!(out.contains("hypdb_test_seconds_bucket{endpoint=\"analyze\",le=\"0.0005\"} 1\n"));
        assert!(out.contains("hypdb_test_seconds_bucket{endpoint=\"analyze\",le=\"0.005\"} 2\n"));
        assert!(out.contains("hypdb_test_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 2\n"));
        assert!(out.contains("hypdb_test_seconds_count{endpoint=\"analyze\"} 2\n"));
        // Cumulative: every later bucket ≥ earlier.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }
}
