//! Experiment harness for the paper's evaluation (§7): one module per
//! table/figure, shared runners, and a markdown report printer.
//!
//! Run everything with
//!
//! ```sh
//! cargo run --release -p hypdb-bench --bin experiments            # all
//! cargo run --release -p hypdb-bench --bin experiments -- fig5b  # one
//! HYPDB_SCALE=full cargo run --release -p hypdb-bench --bin experiments
//! ```
//!
//! `HYPDB_SCALE` selects `quick` (default; minutes) or `full` (closer
//! to the paper's sweeps; tens of minutes). Absolute numbers will not
//! match the paper's testbed; the *shape* (who wins, by what factor,
//! where crossovers fall) is the reproduction target. How fast the
//! system itself is — and whether a change moved it — is the `ledger/`
//! package's question, not this crate's.
#![forbid(unsafe_code)]

pub mod fig5a;
pub mod opts;
pub mod quality;
pub mod report;
pub mod table1;
pub mod tests_perf;

// The structure learners Figs 5(b–d) and 6(a) compare CD against.
// Nothing outside `quality` calls them, so they ship with the harness
// rather than in `hypdb-causal`.
#[path = "baselines/fgs.rs"]
pub mod fgs;
#[path = "baselines/hc.rs"]
pub mod hc;

/// Experiment scale, from the `HYPDB_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast sweeps for CI / laptops (default).
    Quick,
    /// Paper-sized sweeps (minutes to tens of minutes).
    Full,
}

impl Scale {
    /// Reads `HYPDB_SCALE` (`quick`/`full`).
    pub fn from_env() -> Scale {
        match std::env::var("HYPDB_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between two values by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
