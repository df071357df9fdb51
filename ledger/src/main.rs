//! `ledger`: the repo's one benchmark. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.

mod compare;
mod data;
mod inproc;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use run::{Outcome, Plan};
use serde::Value;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger run --workload <w> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--smoke]
  ledger all [--seed <u64>] [--seconds <n>] [--runs <n>]
  ledger check [BENCHMARK.json]
  ledger compare <a.json> <b.json>
workloads: adult_csv_cold adult_perm flight_wide serve_mix";

/// Flags of `run` and `all`.
struct Flags {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = spec::WORKLOADS.iter().find(|w| **w == value.as_str());
                flags.workload = Some(known.copied().ok_or_else(bad)?);
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?;
            }
            "--runs" => flags.runs = value.parse().ok().filter(|r| *r >= 1).ok_or_else(bad)?,
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(flags)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of the
/// mode's list with its unit.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let specs = spec::metrics_for(trace);
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| specs.iter().all(|m| m.name != **k))
    {
        panic!("metric `{stray}` is not in the ledger's list");
    }
    let metrics = specs
        .iter()
        .map(|m| {
            // A per-layer metric that does not apply to the workload reads 0.
            let value = match outcome.metrics.get(m.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric `{}` was not measured", m.name),
            };
            let entry = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Obj(entry))
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::Int(outcome.attempted as i64),
        ),
        ("failed".to_string(), Value::Int(outcome.failed as i64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value serializes")
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.workload.ok_or("run needs --workload")?;
    let plan = if flags.smoke {
        Plan::smoke()
    } else {
        Plan::full(flags.seconds)
    };
    let outcome = if flags.trace {
        trace::run(workload, flags.seed, &plan)?
    } else {
        run::run(workload, flags.seed, &plan)?
    };
    for e in &outcome.errors {
        eprintln!("{workload}: FAILED op: {e}");
    }
    println!("{}", result_line(&outcome, flags.trace));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let done = match cmd.as_str() {
        "run" => parse_flags(rest).and_then(|f| cmd_run(&f)),
        "all" => parse_flags(rest).and_then(|f| compare::all(f.seed, f.seconds, f.runs)),
        "check" => compare::check(rest.first().map_or("BENCHMARK.json", String::as_str)),
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("compare needs two result files".to_string()),
        },
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    done.unwrap_or_else(|why| {
        eprintln!("ledger: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(specs: &[spec::Metric]) -> Outcome {
        let mut outcome = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        for (i, m) in specs.iter().enumerate() {
            outcome.metrics.insert(m.name, 1.5 + i as f64);
        }
        outcome
    }

    #[test]
    fn result_line_parses_and_carries_every_name_with_its_unit() {
        for trace in [false, true] {
            let specs = spec::metrics_for(trace);
            let line = result_line(&outcome_with(specs), trace);
            let doc = serde_json::parse(&line).expect("the result line is JSON");
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), specs.len());
            for (m, (name, entry)) in specs.iter().zip(metrics) {
                assert_eq!(name, m.name);
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(matches!(entry.get("value"), Some(Value::Float(_))));
            }
        }
    }

    #[test]
    fn a_per_layer_metric_that_does_not_apply_reads_zero() {
        let line = result_line(&Outcome::default(), true);
        let doc = serde_json::parse(&line).unwrap();
        assert_eq!(
            doc.get("correct"),
            Some(&Value::Bool(false)),
            "nothing was attempted"
        );
        let ingest = doc.get("metrics").unwrap().get("store.ingest_s").unwrap();
        assert_eq!(ingest.get("value"), Some(&Value::Float(0.0)));
    }

    #[test]
    fn flags_parse_the_driver_s_command_line() {
        let args: Vec<String> = "--workload serve_mix --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags.workload, Some(spec::SERVE_MIX));
        assert_eq!(
            (flags.seed, flags.seconds, flags.trace, flags.smoke),
            (9, 20.0, true, false)
        );
        assert!(parse_flags(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_flags(&["--trace".into(), "2".into()]).is_err());
    }
}
