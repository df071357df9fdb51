//! The Prometheus text exposition format, written in one place: every
//! `/metrics` family — counters, gauges and histograms alike — goes
//! through [`family`].

use std::fmt::{Display, Write as _};

/// A family's kind, as its TYPE line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count that only rises.
    Counter,
    /// A value that rises and falls.
    Gauge,
    /// Cumulative `_bucket` series closed by `_sum` and `_count`.
    Histogram,
}

/// Writes one family: its HELP and TYPE comment lines, then one
/// `{name}{series} {value}` line per sample, in the order given.
/// `series` is what follows the family name on a sample line: `""`, a
/// `{…}` label block, or — for a histogram — a `_bucket` / `_sum` /
/// `_count` suffix and its labels. A family without samples still
/// declares itself, so every scrape sees the whole vocabulary.
pub fn family<S: Display, V: Display>(
    out: &mut String,
    name: &str,
    help: &str,
    kind: Kind,
    samples: impl IntoIterator<Item = (S, V)>,
) {
    let kind = match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    for (series, value) in samples {
        let _ = writeln!(out, "{name}{series} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_family_is_its_header_then_its_samples() {
        let mut out = String::new();
        family(&mut out, "a_total", "things", Kind::Counter, [("", 3)]);
        family(
            &mut out,
            "b",
            "by label",
            Kind::Gauge,
            [("{x=\"1\"}", 1.5), ("{x=\"2\"}", 0.25)],
        );
        family(&mut out, "c", "none yet", Kind::Gauge, None::<(&str, u64)>);
        assert_eq!(
            out,
            "# HELP a_total things\n# TYPE a_total counter\na_total 3\n\
             # HELP b by label\n# TYPE b gauge\nb{x=\"1\"} 1.5\nb{x=\"2\"} 0.25\n\
             # HELP c none yet\n# TYPE c gauge\n"
        );
    }
}
