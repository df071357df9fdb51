//! The ledger's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `../BENCHMARK.json` states the
//! same facts for the driver; `ledger check` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen before `ledger compare` calls
/// it a regression; per-layer metrics explain, they do not gate, and
/// carry `None`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const ADULT_CSV_COLD: &str = "adult_csv_cold";
pub const ADULT_PERM: &str = "adult_perm";
pub const FLIGHT_WIDE: &str = "flight_wide";
pub const SERVE_MIX: &str = "serve_mix";

pub const WORKLOADS: [&str; 4] = [ADULT_CSV_COLD, ADULT_PERM, FLIGHT_WIDE, SERVE_MIX];

/// What a user of the system sees, on every workload. Failures are
/// carried by the result line's `attempted` / `failed` / `correct`.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer numbers of the traced run, named `<crate>.<what>`. A
/// metric that does not apply to a workload (an ingest rate on a
/// resident table, a `serve.*` number in process) reads 0 there.
pub const PER_LAYER: [Metric; 52] = [
    layer("store.ingest_s", "s", Lower),
    layer("store.ingest_mb_s", "MB/s", Higher),
    layer("sql.bind_s", "s", Lower),
    layer("table.select_s", "s", Lower),
    layer("table.contingency_narrow_mrows_s", "Mrows/s", Higher),
    layer("table.contingency_wide_mrows_s", "Mrows/s", Higher),
    layer("table.marginal_mcells_s", "Mcells/s", Higher),
    layer("causal.table_scans", "count", Lower),
    layer("causal.rows_scanned", "count", Lower),
    layer("causal.marginalizations", "count", Lower),
    layer("causal.count_cache_hits", "count", Higher),
    layer("causal.entropy_misses", "count", Lower),
    layer("causal.preprocess_s", "s", Lower),
    layer("causal.discover_s", "s", Lower),
    layer("causal.discover_warm_s", "s", Lower),
    layer("causal.tests", "count", Lower),
    layer("causal.batched_statements", "count", Higher),
    layer("causal.speculative_skipped", "count", Higher),
    layer("causal.oracle_tables", "count", Lower),
    layer("causal.oracle_cache_mb", "MB", Lower),
    layer("stats.mit_perms_s", "1/s", Higher),
    layer("stats.chi2_tests_s", "1/s", Higher),
    layer("stats.mit_permutations", "count", Lower),
    layer("stats.mit_stage1_settled", "count", Higher),
    layer("stats.mit_escalated", "count", Lower),
    layer("core.detect_s", "s", Lower),
    layer("core.explain_s", "s", Lower),
    layer("core.effect_s", "s", Lower),
    layer("core.downstream_s", "s", Lower),
    layer("core.serialise_s", "s", Lower),
    layer("core.report_bytes", "bytes", Lower),
    layer("serve.hit_p50_ms", "ms", Lower),
    layer("serve.healthz_p50_ms", "ms", Lower),
    layer("serve.warm_p50_ms", "ms", Lower),
    layer("serve.detect_p50_ms", "ms", Lower),
    layer("serve.cold_p50_ms", "ms", Lower),
    layer("serve.miss_overhead_ms", "ms", Lower),
    layer("serve.latency_p95_ms", "ms", Lower),
    layer("serve.latency_samples", "count", Higher),
    layer("serve.report_cache_hits", "count", Higher),
    layer("serve.report_cache_misses", "count", Lower),
    layer("serve.rejected_503", "count", Lower),
    layer("serve.client_errors", "count", Lower),
    layer("serve.oracle_slots", "count", Lower),
    layer("serve.oracle_cache_mb", "MB", Lower),
    layer("serve.report_cache_mb", "MB", Lower),
    layer("exec.threads", "count", Higher),
    layer("exec.speedup", "ratio", Higher),
    layer("obs.tracer_overhead_ratio", "ratio", Lower),
    layer("whole_s", "s", Lower),
    layer("layers_sum_ratio", "ratio", Lower),
    layer("trace.reps", "count", Higher),
];

/// The metric list a run with `--trace <trace>` prints.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(m.name), "metric name `{}`", m.name);
            assert!(is_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
            names.push(m.name);
        }
        assert!(WORKLOADS.iter().all(|w| is_name(w)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }

    #[test]
    fn bounds_belong_to_end_to_end_metrics_only() {
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
