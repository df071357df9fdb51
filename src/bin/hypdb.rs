//! The `hypdb` command-line front end.
//!
//! ```sh
//! hypdb serve [--addr HOST:PORT] [--rows N] [--journal PATH]  # run the server
//! hypdb analyze --dataset D --sql 'SELECT …'      # offline report
//! hypdb analyze --dataset D --sql '…' --detect    # detection only
//! hypdb replay journal.jsonl [--addr HOST:PORT]   # re-issue a journal
//! ```
//!
//! `serve` and `analyze` share the wire layer and the built-in dataset
//! registry, so for any request the offline `analyze` output is
//! **byte-identical** to the running server's `/analyze` body — the
//! property the CI smoke test diffs. `replay` closes the loop: a
//! journal captured with `--journal` (or `HYPDB_JOURNAL`) is re-issued
//! and every response body is diffed against its recorded fingerprint.

use hypdb::core::wire;
use hypdb::core::OracleCache;
use hypdb::serve::{replay, sig, OracleSnapshot, Registry, ServeConfig, Server};
use std::sync::Arc;

const USAGE: &str = "\
usage:
  hypdb serve [--addr HOST:PORT] [--rows N] [--journal PATH]
              [--debug-traces N]
      Serve the built-in datasets over HTTP. Knobs: HYPDB_SERVE_ADDR,
      HYPDB_SERVE_WORKERS, HYPDB_SERVE_QUEUE, HYPDB_SERVE_MAX_BODY,
      HYPDB_SERVE_TIMEOUT_MS, HYPDB_SERVE_CACHE_BYTES (report-cache
      budget), HYPDB_SERVE_ROWS (dataset size), HYPDB_THREADS,
      HYPDB_MIT_BETA (HyMIT's beta, default 5).
      Flight recorder: --journal / HYPDB_JOURNAL writes one
      hypdb-journal/v1 JSONL record per request;
      --debug-traces / HYPDB_DEBUG_TRACES sizes the retained-trace
      ring behind GET /debug/traces (default 16, 0 disables). Shuts
      down gracefully on SIGINT/SIGTERM or a `quit` line on stdin.
  hypdb analyze --dataset NAME --sql SQL
               [--treatment T] [--covariates A,B] [--seed N]
               [--detect] [--pretty] [--rows N]
      Run the same analysis offline and print the wire response body
      (or, with --pretty, the human-readable report). An oracle-work
      footer (tests, scans, cache hits, permutations) goes to stderr.
      HYPDB_TRACE=<ms> dumps the span tree of any run at least that
      slow to stderr (0 = always).
  hypdb replay JOURNAL [--addr HOST:PORT] [--concurrency C]
               [--speed X | --max-rate] [--rows N]
      Re-issue the report requests recorded in a hypdb-journal/v1 file
      and verify byte-identical response bodies (FNV-1a fingerprints).
      With --addr the requests go to a running server; without it a
      fresh in-process server over the built-in datasets (--rows, as
      recorded) is booted on an ephemeral port. --speed X paces
      requests at X× the recorded spacing; --max-rate (default)
      replays as fast as --concurrency (default 4) allows. Prints a
      latency/throughput JSON summary to stdout and exits nonzero on
      any body mismatch.
";

fn fail(msg: &str) -> ! {
    eprintln!("hypdb: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Dataset size for the built-in registry: `--rows`, else
/// `HYPDB_SERVE_ROWS`, else 2000 (small enough for sub-second smoke
/// tests, large enough for stable discovery).
fn builtin_rows(flag: Option<usize>) -> usize {
    flag.or_else(|| {
        std::env::var("HYPDB_SERVE_ROWS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
    .unwrap_or(2000)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("--help" | "-h" | "help") => print!("{USAGE}"),
        Some(other) => fail(&format!("unknown command `{other}`")),
        None => fail("missing command"),
    }
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn cmd_serve(args: &[String]) {
    let mut cfg = ServeConfig::from_env();
    let mut rows_flag = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = take_value(args, &mut i, "--addr").to_string(),
            "--rows" => {
                rows_flag = Some(
                    take_value(args, &mut i, "--rows")
                        .parse()
                        .unwrap_or_else(|_| fail("--rows needs an integer")),
                )
            }
            "--journal" => cfg.journal = Some(take_value(args, &mut i, "--journal").to_string()),
            "--debug-traces" => {
                cfg.debug_traces = take_value(args, &mut i, "--debug-traces")
                    .parse()
                    .unwrap_or_else(|_| fail("--debug-traces needs an integer"))
            }
            other => fail(&format!("unknown serve flag `{other}`")),
        }
        i += 1;
    }

    let rows = builtin_rows(rows_flag);
    eprintln!("loading built-in datasets ({rows} rows each)…");
    let registry = Registry::builtin(rows);
    for info in registry.infos() {
        eprintln!(
            "  {:<10} {:>7} rows × {:>3} attrs",
            info.name,
            info.rows,
            info.attrs.len()
        );
    }

    sig::install();
    let workers = cfg.workers;
    let handle = match Server::start(cfg, registry) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("hypdb: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "hypdb-serve listening on http://{} ({} worker(s)) — \
         POST /analyze | POST /detect | GET /datasets | /healthz | /metrics | \
         /debug/traces | /debug/requests | /debug/config",
        handle.addr(),
        workers
    );

    // `quit` on stdin also shuts down (useful without a signal-capable
    // shell); plain EOF does **not**, so running detached with stdin on
    // /dev/null keeps serving.
    std::thread::spawn(|| {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if matches!(line.trim(), "quit" | "exit" | "shutdown") => {
                    sig::request_shutdown();
                    return;
                }
                Ok(_) => {}
            }
        }
    });

    while !sig::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining in-flight requests…");
    let metrics = handle.shutdown();
    eprintln!(
        "drained. served {} request(s), cache {} hit(s) / {} miss(es), {} rejected",
        metrics.requests, metrics.cache_hits, metrics.cache_misses, metrics.rejected
    );
}

fn cmd_replay(args: &[String]) {
    let mut journal_path: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut concurrency: usize = 4;
    let mut pace = replay::Pace::MaxRate;
    let mut rows_flag: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr").to_string()),
            "--concurrency" => {
                concurrency = take_value(args, &mut i, "--concurrency")
                    .parse()
                    .unwrap_or_else(|_| fail("--concurrency needs an integer"))
            }
            "--speed" => {
                pace = replay::Pace::Speed(
                    take_value(args, &mut i, "--speed")
                        .parse()
                        .unwrap_or_else(|_| fail("--speed needs a number")),
                )
            }
            "--max-rate" => pace = replay::Pace::MaxRate,
            "--rows" => {
                rows_flag = Some(
                    take_value(args, &mut i, "--rows")
                        .parse()
                        .unwrap_or_else(|_| fail("--rows needs an integer")),
                )
            }
            other if other.starts_with("--") => fail(&format!("unknown replay flag `{other}`")),
            other if journal_path.is_none() => journal_path = Some(other.to_string()),
            other => fail(&format!("unexpected replay argument `{other}`")),
        }
        i += 1;
    }
    let journal_path = journal_path.unwrap_or_else(|| fail("replay needs a journal path"));
    let text = match std::fs::read_to_string(&journal_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hypdb: cannot read journal `{journal_path}`: {e}");
            std::process::exit(1);
        }
    };
    let parsed = replay::parse_journal(&text);
    eprintln!(
        "parsed {} journal line(s): {} replayable, {} skipped",
        parsed.lines,
        parsed.items.len(),
        parsed.skipped
    );

    // A given --addr targets a running server; otherwise boot a fresh
    // in-process server over the built-in datasets on an ephemeral
    // port, with the flight recorder off so the replay run measures
    // the same serving path the recording did (minus recording cost).
    let (outcome, handle) = match addr {
        Some(addr) => {
            let addr = addr
                .parse()
                .unwrap_or_else(|_| fail("--addr needs HOST:PORT"));
            (replay::replay(addr, &parsed, concurrency, pace), None)
        }
        None => {
            let rows = builtin_rows(rows_flag);
            eprintln!("booting in-process server ({rows} rows per dataset)…");
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                journal: None,
                debug_traces: 0,
                ..ServeConfig::from_env()
            };
            let handle = match Server::start(cfg, Registry::builtin(rows)) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("hypdb: cannot start in-process server: {e}");
                    std::process::exit(1);
                }
            };
            let addr = handle.addr();
            (
                replay::replay(addr, &parsed, concurrency, pace),
                Some(handle),
            )
        }
    };
    if let Some(handle) = handle {
        handle.shutdown();
    }
    println!("{}", outcome.to_json());
    if outcome.passed() {
        eprintln!(
            "replay PASS: {} request(s) reproduced byte-identical bodies \
             ({:.1} req/s, p50 {:.3} ms)",
            outcome.replayed,
            outcome.requests_per_second,
            outcome.latency.0 * 1e3
        );
    } else {
        eprintln!(
            "replay FAIL: {} mismatch(es), {} transport error(s) out of {} replayed",
            outcome.mismatches.len(),
            outcome.errors,
            outcome.replayed
        );
        std::process::exit(1);
    }
}

fn cmd_analyze(args: &[String]) {
    let mut dataset: Option<String> = None;
    let mut sql: Option<String> = None;
    let mut req_treatment: Option<String> = None;
    let mut covariates: Option<Vec<String>> = None;
    let mut seed: Option<u64> = None;
    let mut rows_flag: Option<usize> = None;
    let mut detect = false;
    let mut pretty = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => dataset = Some(take_value(args, &mut i, "--dataset").to_string()),
            "--sql" => sql = Some(take_value(args, &mut i, "--sql").to_string()),
            "--treatment" => {
                req_treatment = Some(take_value(args, &mut i, "--treatment").to_string())
            }
            "--covariates" => {
                covariates = Some(
                    take_value(args, &mut i, "--covariates")
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--seed" => {
                seed = Some(
                    take_value(args, &mut i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| fail("--seed needs an integer")),
                )
            }
            "--rows" => {
                rows_flag = Some(
                    take_value(args, &mut i, "--rows")
                        .parse()
                        .unwrap_or_else(|_| fail("--rows needs an integer")),
                )
            }
            "--detect" => detect = true,
            "--pretty" => pretty = true,
            other => fail(&format!("unknown analyze flag `{other}`")),
        }
        i += 1;
    }
    let dataset = dataset.unwrap_or_else(|| fail("analyze needs --dataset"));
    let sql = sql.unwrap_or_else(|| fail("analyze needs --sql"));

    // Build only the dataset being analyzed, registered exactly as the
    // server registers it.
    let Some(mono) = Registry::builtin_dataset(&dataset, builtin_rows(rows_flag)) else {
        eprintln!(
            "hypdb: unknown dataset `{dataset}` (available: {:?})",
            Registry::BUILTIN_NAMES
        );
        std::process::exit(1);
    };
    let mut registry = Registry::new();
    registry.insert(&dataset, &mono);
    let table = registry.get(&dataset).expect("just inserted");

    let mut req = wire::AnalyzeRequest::new(dataset, sql);
    req.treatment = req_treatment;
    req.covariates = covariates;
    req.seed = seed;
    // The process settings the server reads at start-up (HYPDB_MIT_BETA)
    // apply offline too, so both sides dispatch alike.
    let base = ServeConfig::from_env().base;

    // One oracle cache for the run, so the discovery work counters
    // (tests, scans, cache hits) can be reported afterwards.
    let cache = Arc::new(OracleCache::new());
    let tick = hypdb_obs::Tick::now();
    let traced = hypdb_obs::trace_threshold().map(|_| hypdb_obs::Tracer::new());
    let compute = || {
        if detect {
            wire::detect_cached(&table, &req, &base, Some(&cache)).map(|r| wire::detect_body(&r))
        } else if pretty {
            wire::analyze_cached(&table, &req, &base, Some(&cache)).map(|r| r.to_string())
        } else {
            wire::analyze_cached(&table, &req, &base, Some(&cache)).map(|r| wire::report_body(&r))
        }
    };
    let outcome = match &traced {
        Some(tracer) => {
            let out = hypdb_obs::with_request(tracer, compute);
            hypdb_obs::maybe_dump(0, "analyze", tick.elapsed(), &tracer.finish());
            out
        }
        None => compute(),
    };
    match outcome {
        Ok(body) => {
            println!("{body}");
            // The oracle-work footer goes to stderr: stdout stays
            // byte-identical to the server's response body (the CI
            // smoke test diffs the two). It renders the same snapshot
            // the server's `/metrics` oracle section renders.
            eprintln!("{}", OracleSnapshot::from_cache(&cache).footer());
        }
        Err(e) => {
            eprintln!("hypdb: {e}");
            std::process::exit(1);
        }
    }
}
