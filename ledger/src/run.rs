//! The untraced run: set up, warm up, then a closed loop for a timed
//! window, and the end-to-end metrics of that window.

use crate::inproc::InProc;
use crate::serve::ServeMix;
use crate::spec;
use crate::stats::median;
use hypdb_obs::Tick;
use std::collections::BTreeMap;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub warmups: usize,
    /// The timed window; the op in flight when it closes finishes.
    pub seconds: f64,
    /// Fewest ops a window holds, however short: in process, and
    /// through the socket (where an op is some 25 times cheaper).
    pub min_ops: usize,
    pub min_serve_ops: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            setups: 3,
            warmups: 1,
            seconds,
            min_ops: 5,
            min_serve_ops: 5,
        }
    }

    /// One warm-up and two ops, every output check on.
    pub fn smoke() -> Plan {
        Plan {
            setups: 1,
            warmups: 1,
            seconds: 0.0,
            min_ops: 2,
            min_serve_ops: 100,
        }
    }
}

/// One run's result, before rendering.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, for stderr.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Latencies (seconds) of a closed loop and the wall time they span.
pub struct Window {
    pub latencies: Vec<f64>,
    pub elapsed: f64,
}

/// Runs `op` back to back until `seconds` have passed and at least
/// `min_ops` ops are done.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) -> Window {
    let start = Tick::now();
    let mut latencies = Vec::new();
    while start.elapsed_secs() < seconds || latencies.len() < min_ops {
        let t = Tick::now();
        op();
        latencies.push(t.elapsed_secs());
    }
    Window {
        latencies,
        elapsed: start.elapsed_secs(),
    }
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets a workload up `plan.setups` times (each complete, warm-up
/// included, the earlier ones dropped) and returns the last with the
/// median set-up time.
fn set_up<W>(
    plan: &Plan,
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<(W, f64), String> {
    let mut times = Vec::with_capacity(plan.setups);
    let mut last = None;
    for _ in 0..plan.setups.max(1) {
        drop(last.take());
        let t = Tick::now();
        last = Some(build()?);
        times.push(t.elapsed_secs());
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// The end-to-end run of one workload.
pub fn run(workload: &'static str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (window, setup_s) = if workload == spec::SERVE_MIX {
        let (mix, setup_s) = set_up(plan, || {
            let mix = ServeMix::setup(seed)?;
            mix.warm_up(plan.warmups)?;
            Ok(mix)
        })?;
        let window = mix.run(plan.seconds, plan.min_serve_ops, &mut out);
        mix.finish(&mut out);
        (window, setup_s)
    } else {
        let (w, setup_s) = set_up(plan, || {
            let w = InProc::setup(workload, seed)?;
            for _ in 0..plan.warmups {
                w.check(&w.op()?)?;
            }
            Ok(w)
        })?;
        let window = closed_loop(plan.seconds, plan.min_ops, || {
            out.attempted += 1;
            if let Err(why) = w.op().and_then(|o| w.check(&o)) {
                out.fail(why);
            }
        });
        (window, setup_s)
    };
    eprintln!(
        "{workload}: {} ops in {:.3} s ({} latency samples), set-up {:.3} s (median of {})",
        out.attempted,
        window.elapsed,
        window.latencies.len(),
        setup_s,
        plan.setups
    );
    let millis: Vec<f64> = window.latencies.iter().map(|s| s * 1e3).collect();
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert(
        "throughput_ops_s",
        window.latencies.len() as f64 / window.elapsed,
    );
    out.metrics.insert("latency_p50_ms", median(&millis));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}
