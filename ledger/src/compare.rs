//! `ledger all`, `ledger check` and `ledger compare`: many runs in one
//! document, name parity with `BENCHMARK.json`, and the comparison of
//! two documents under the end-to-end bounds.

use crate::spec::{self, Better, Metric};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

const SCHEMA: &str = "hypdb-ledger/v1";

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// Runs every workload `runs` times (seeds `seed`, `seed + 1`, ...),
/// untraced then traced, each in a process of its own so that peak RSS
/// is the workload's, and prints one document holding every result.
pub fn all(seed: u64, seconds: f64, runs: u64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut ok = true;
    for run_seed in seed..seed + runs {
        for workload in spec::WORKLOADS {
            for trace in ["0", "1"] {
                let child = Command::new(&exe)
                    .args(["run", "--workload", workload, "--trace", trace])
                    .args([
                        "--seed",
                        &run_seed.to_string(),
                        "--seconds",
                        &seconds.to_string(),
                    ])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("starting {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                let line = stdout.lines().last().unwrap_or("");
                let result = serde_json::parse(line)
                    .map_err(|e| format!("{workload} --trace {trace} printed no result: {e}"))?;
                ok &= child.status.success() && result.get("correct") == Some(&Value::Bool(true));
                let mut entry = vec![
                    ("workload".to_string(), s(workload)),
                    ("seed".to_string(), Value::UInt(run_seed)),
                    ("trace".to_string(), Value::Int(i64::from(trace == "1"))),
                ];
                entry.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
                results.push(Value::Obj(entry));
            }
        }
    }
    let doc = Value::Obj(vec![
        ("schema".to_string(), s(SCHEMA)),
        ("seconds".to_string(), Value::Float(seconds)),
        (
            "threads".to_string(),
            Value::Int(hypdb_exec::global_threads() as i64),
        ),
        ("results".to_string(), Value::Arr(results)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&doc).expect("a Value serializes")
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Differences between the metric list in `BENCHMARK.json` under `key`
/// and the binary's own list.
fn list_mismatches(doc: &Value, key: &str, ours: &[Metric], out: &mut Vec<String>) {
    let theirs = doc.get(key).and_then(Value::as_arr).unwrap_or(&[]);
    for m in ours {
        let Some(t) = theirs
            .iter()
            .find(|t| t.get("name").and_then(Value::as_str) == Some(m.name))
        else {
            out.push(format!(
                "{key}: `{}` is printed by the binary but not listed",
                m.name
            ));
            continue;
        };
        let same = t.get("unit").and_then(Value::as_str) == Some(m.unit)
            && t.get("better").and_then(Value::as_str) == Some(m.better.as_str())
            && t.get("bound").and_then(number) == m.bound;
        if !same {
            out.push(format!(
                "{key}: `{}` is ({}, {}, bound {:?}) in the binary, listed otherwise",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ));
        }
    }
    for t in theirs {
        let name = t.get("name").and_then(Value::as_str).unwrap_or("?");
        if ours.iter().all(|m| m.name != name) {
            out.push(format!(
                "{key}: `{name}` is listed but the binary does not print it"
            ));
        }
    }
}

/// Name parity: every workload and metric of `BENCHMARK.json`, with its
/// unit, direction and bound, is one the binary emits, and the reverse.
pub fn check(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut wrong = Vec::new();
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if listed != spec::WORKLOADS {
        wrong.push(format!(
            "workloads: listed {listed:?}, the binary runs {:?}",
            spec::WORKLOADS
        ));
    }
    list_mismatches(&doc, "end_to_end", &spec::END_TO_END, &mut wrong);
    list_mismatches(&doc, "per_layer", &spec::PER_LAYER, &mut wrong);
    for w in &wrong {
        println!("MISMATCH {w}");
    }
    println!(
        "{path}: {} workloads, {} end-to-end and {} per-layer metrics; {} mismatches",
        spec::WORKLOADS.len(),
        spec::END_TO_END.len(),
        spec::PER_LAYER.len(),
        wrong.len()
    );
    Ok(if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One side of a comparison: a parsed `ledger all` document.
struct Side(Vec<Value>);

impl Side {
    fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if field(&doc, "schema").map_err(|e| format!("{path}: {e}"))? != &s(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} document"));
        }
        let results = field(&doc, "results").map_err(|e| format!("{path}: {e}"))?;
        Ok(Side(results.as_arr().unwrap_or(&[]).to_vec()))
    }

    fn runs<'a>(&'a self, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Value> {
        self.0.iter().filter(move |r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(number) == Some(f64::from(u8::from(trace)))
        })
    }

    /// The metric's value in every run of the workload.
    fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.runs(workload, trace)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value").and_then(number))
            .collect()
    }

    fn failed_runs(&self, workload: &str) -> usize {
        [false, true]
            .into_iter()
            .flat_map(|t| self.runs(workload, t))
            .filter(|r| r.get("correct") != Some(&Value::Bool(true)))
            .count()
    }
}

/// The verdict on one workload x end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

/// Judges `b` against baseline `a`; also returns the change of the
/// median as a share of `a`'s.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worse_by = sign * change;
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let spread = [a, b]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    // `x` reads strictly better than `y`.
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let verdict = if spread > bound {
        if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else if worse_by > bound && a.iter().all(|&x| b.iter().all(|&y| beats(x, y))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, change)
}

/// Compares result document `b` with baseline `a`: every workload x
/// end-to-end metric gets a verdict under its bound; per-layer numbers
/// that moved are listed beneath as the place to look.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (Side::load(a_path)?, Side::load(b_path)?);
    let mut bad = false;
    for workload in spec::WORKLOADS {
        println!("{workload}");
        let failed = b.failed_runs(workload);
        if failed > 0 {
            bad = true;
            println!("  {failed} run(s) of {b_path} had failed ops: worse");
        }
        for metric in &spec::END_TO_END {
            let (va, vb) = (
                a.values(workload, false, metric.name),
                b.values(workload, false, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("  {:<34} missing on one side", metric.name);
                continue;
            }
            let (verdict, change) = judge(metric, &va, &vb);
            bad |= verdict == Verdict::Worse;
            println!(
                "  {:<34} {:>12.4} -> {:>12.4} {:<5} {:>+7.2} % (bound {:.0} %, n {}/{})  {}",
                metric.name,
                median(&va),
                median(&vb),
                metric.unit,
                change * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                va.len(),
                vb.len(),
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
        for metric in &spec::PER_LAYER {
            let (ma, mb) = (
                median(&a.values(workload, true, metric.name)),
                median(&b.values(workload, true, metric.name)),
            );
            let moved = if metric.unit == "count" {
                ma != mb
            } else {
                (mb - ma).abs() > 0.10 * ma.abs()
            };
            if moved {
                println!(
                    "    {:<32} {ma:>14.6} -> {mb:>14.6} {}",
                    metric.name, metric.unit
                );
            }
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const HIGHER: Metric = Metric {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    #[test]
    fn judge_applies_the_bound_in_the_metric_s_direction() {
        assert_eq!(judge(&LOWER, &[100.0], &[105.0]).0, Verdict::WithinBound);
        assert_eq!(judge(&LOWER, &[100.0], &[115.0]).0, Verdict::Worse);
        assert_eq!(judge(&LOWER, &[100.0], &[80.0]).0, Verdict::Better);
        assert_eq!(judge(&HIGHER, &[100.0], &[85.0]).0, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &[100.0], &[120.0]).0, Verdict::Better);
        let (_, change) = judge(&HIGHER, &[100.0], &[85.0]);
        assert!((change + 0.15).abs() < 1e-12);
    }

    #[test]
    fn judge_reports_a_wide_spread_as_unresolved_unless_runs_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&LOWER, &noisy, &[95.0, 125.0, 85.0, 100.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LOWER, &noisy, &[50.0, 60.0, 70.0]).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&LOWER, &noisy, &[150.0, 160.0, 170.0]).0,
            Verdict::Worse
        );
    }
}
