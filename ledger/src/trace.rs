//! The traced run: per-layer numbers by outside timing.
//!
//! The pool is pinned to one thread (planner counters depend on
//! scheduling at more; at one they repeat exactly) and the workload's
//! op is replayed stage by stage from here, a span around each call
//! into a layer's public functions. Spans stay in memory and are
//! written to `.ledger/<workload>.trace.json` when the run ends. Every
//! timing is the median over the repetitions the time budget allows.

use crate::inproc::{scratch_file, InProc, OpOutput, Source};
use crate::run::{Outcome, Plan};
use crate::serve::{Class, ServeMix};
use crate::spec;
use crate::stats::{median, percentile};
use hypdb_causal::drop_logical_dependencies;
use hypdb_core::{wire, HypDb, OracleCache, Query};
use hypdb_exec::seed::mix;
use hypdb_exec::{global_threads, set_global_threads, with_fanout_guard};
use hypdb_obs::Tick;
use hypdb_serve::client;
use hypdb_stats::independence::{chi2_test, mit};
use hypdb_store::ShardedTable;
use hypdb_table::contingency::Stratified;
use hypdb_table::{AttrId, ContingencyTable, RowSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

const MAX_REPS: usize = 5;
/// Share of `--seconds` after which the stage replay starts no further
/// repetition (the thread comparison, the kernel rates and, on
/// `serve_mix`, the socket phases need the rest).
const REPLAY_SHARE: f64 = 0.6;
/// A kernel is called repeatedly for at least this long per rate.
const KERNEL_SECONDS: f64 = 0.05;
const PROBES: usize = 200;
const MISS_PROBES: u64 = 9;

/// One timed interval: what ran, when, under which span, for which op.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span and sample store of one traced run.
struct Recorder {
    clock: Tick,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Seconds per span name, one entry per repetition.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            clock: Tick::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            samples: BTreeMap::new(),
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let now = self.clock.elapsed_secs();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) -> f64 {
        let now = self.clock.elapsed_secs();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = now;
        now - self.spans[id].start
    }

    /// Runs `f` inside a span named `name` and keeps its duration as
    /// one sample of that name.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        let secs = self.end(id);
        self.sample(name, secs);
        out
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Adds a span measured elsewhere (a client thread's request).
    fn add(&mut self, name: &'static str, start: f64, end: f64, op: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            op,
        });
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_us".to_string(), Value::Float(s.start * 1e6)),
                    ("end_us".to_string(), Value::Float(s.end * 1e6)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("op".to_string(), Value::Int(s.op as i64)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::UInt(seed)),
            ("spans".to_string(), Value::Arr(spans)),
        ]);
        serde_json::to_string(&doc).expect("a Value serializes")
    }
}

/// What the stage replay learned about the op, for the kernel rates.
struct OpShape {
    query: Query,
    rows: RowSet,
    /// Candidate attributes that survived preprocessing.
    kept: Vec<AttrId>,
    covariates: Vec<AttrId>,
}

fn contexts_of(body: &str) -> Result<Value, String> {
    serde_json::parse(body)
        .map_err(|e| e.to_string())?
        .get("contexts")
        .cloned()
        .ok_or_else(|| "report body has no contexts".to_string())
}

/// The op, stage by stage, each public call in its own span.
fn stages(
    w: &InProc,
    table: &ShardedTable,
    whole: &OpOutput,
    rec: &mut Recorder,
) -> Result<OpShape, String> {
    let cfg = w.request.config(&w.base);
    let query = rec
        .time("sql.bind_s", || w.request.query(table))
        .map_err(|e| e.to_string())?;
    let rows = rec.time("table.select_s", || query.predicate.select(table));
    let referenced = query.referenced();
    let others: Vec<AttrId> = table
        .schema()
        .attr_ids()
        .filter(|a| !referenced.contains(a))
        .collect();
    let pcfg = cfg
        .preprocess
        .ok_or("the ledger's workloads keep preprocessing on")?;
    let kept = rec
        .time("causal.preprocess_s", || {
            drop_logical_dependencies(table, &rows, &others, &pcfg)
        })
        .kept;

    let db = HypDb::new(table)
        .with_config(cfg)
        .with_oracle_cache(Arc::new(OracleCache::new()));
    let found = rec
        .time("causal.discover_s", || db.discover(&query))
        .map_err(|e| e.to_string())?;
    let again = rec
        .time("causal.discover_warm_s", || db.discover(&query))
        .map_err(|e| e.to_string())?;
    if again != found {
        return Err("discovery on the filled cache found something else".into());
    }

    let names = |ids: &[AttrId]| -> Vec<String> {
        ids.iter()
            .map(|a| table.schema().name(*a).to_string())
            .collect()
    };
    // Everything after discovery: covariates and mediators given, so
    // discovery is skipped, and preprocessing off, which then only fed
    // the skipped search (the report's drop lists differ, its contexts
    // must not).
    let mediators = found.mediators.first().map_or(&[][..], Vec::as_slice);
    let mut known_cfg = cfg;
    known_cfg.preprocess = None;
    let known = HypDb::new(table)
        .with_config(known_cfg)
        .with_covariates(names(&found.covariates))
        .and_then(|db| db.with_mediators(names(mediators)))
        .map_err(|e| e.to_string())?;
    let report = rec
        .time("core.downstream_s", || known.analyze(&query))
        .map_err(|e| e.to_string())?;
    rec.sample("core.detect_s", report.timings.detection);
    rec.sample("core.explain_s", report.timings.explanation);
    rec.sample("core.effect_s", report.timings.resolution);
    let body = rec.time("core.serialise_s", || wire::report_body(&report));
    if contexts_of(&body)? != contexts_of(&whole.body)? {
        return Err("staged replay and whole op disagree on the contexts".into());
    }
    Ok(OpShape {
        query,
        rows,
        kept,
        covariates: found.covariates,
    })
}

/// Calls `f` for at least [`KERNEL_SECONDS`] inside one span and
/// returns `work` units per second.
fn rate(rec: &mut Recorder, name: &'static str, work: f64, mut f: impl FnMut()) -> f64 {
    let id = rec.begin(name);
    let t = Tick::now();
    let mut calls = 0u32;
    while calls < 3 || t.elapsed_secs() < KERNEL_SECONDS {
        f();
        calls += 1;
    }
    let secs = t.elapsed_secs();
    rec.end(id);
    f64::from(calls) * work / secs
}

/// Unit rates of the kernels under the op, on the op's own table,
/// selection and (T, Y | Z).
fn kernels(table: &ShardedTable, shape: &OpShape, rec: &mut Recorder, out: &mut Outcome) {
    let (t, y) = (shape.query.treatment, shape.query.outcomes[0]);
    let rows = &shape.rows;
    let mrows = rows.len() as f64 / 1e6;
    let mut by_card = shape.kept.clone();
    by_card.sort_by_key(|a| std::cmp::Reverse(table.cardinality(*a)));
    let mut wide = vec![t, y];
    wide.extend(by_card.iter().take(3));

    let narrow = rate(rec, "table.contingency_narrow", mrows, || {
        std::hint::black_box(ContingencyTable::from_table(table, rows, &[t, y]));
    });
    out.metrics
        .insert("table.contingency_narrow_mrows_s", narrow);
    let wide_rate = rate(rec, "table.contingency_wide", mrows, || {
        std::hint::black_box(ContingencyTable::from_table(table, rows, &wide));
    });
    out.metrics
        .insert("table.contingency_wide_mrows_s", wide_rate);
    let joint = ContingencyTable::from_table(table, rows, &wide);
    let mcells = joint.support() as f64 / 1e6;
    let marginal = rate(rec, "table.marginal", mcells, || {
        std::hint::black_box(joint.marginal(&[0, 1]));
    });
    out.metrics.insert("table.marginal_mcells_s", marginal);

    let strata = Stratified::build(table, rows, t, y, &shape.covariates);
    let chi2 = rate(rec, "stats.chi2_test", 1.0, || {
        std::hint::black_box(chi2_test(&strata));
    });
    out.metrics.insert("stats.chi2_tests_s", chi2);
    const PERMS: usize = 64;
    let mut rng = StdRng::seed_from_u64(1);
    let perms = rate(rec, "stats.mit", PERMS as f64, || {
        std::hint::black_box(mit(&strata, PERMS, &mut rng));
    });
    out.metrics.insert("stats.mit_perms_s", perms);
}

/// Runs the whole op inside a span and checks it.
fn whole_op(
    w: &InProc,
    name: &'static str,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<OpOutput, String> {
    let result = rec.time(name, || w.op())?;
    out.attempted += 1;
    if let Err(why) = w.check(&result) {
        out.fail(why);
    }
    Ok(result)
}

/// The in-process part of a traced run: repetitions of (whole op, the
/// same under a tracer, the stage replay), then the thread comparison
/// and the kernel rates.
fn replay(w: &InProc, budget: f64, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    set_global_threads(1);
    let started = Tick::now();
    let mut shape = None;
    let mut last = None;
    let mut reps = 0;
    while reps < MAX_REPS && (reps == 0 || started.elapsed_secs() < budget * REPLAY_SHARE) {
        rec.op = reps as u64;
        let whole = whole_op(w, "whole_s", rec, out)?;
        let tracer = hypdb_obs::Tracer::with_explain();
        hypdb_obs::with_request(&tracer, || whole_op(w, "whole_traced_s", rec, out))?;
        if tracer.finish().spans.is_empty() {
            return Err("the tracer saw no span inside the op".into());
        }

        let root = rec.begin("replay");
        let table = match &w.source {
            Source::Csv(_) => rec.time("store.ingest_s", || w.load())?,
            Source::Resident(_) => w.load()?,
        };
        shape = Some(stages(w, &table, &whole, rec)?);
        rec.end(root);
        last = Some((whole, table));
        reps += 1;
    }
    let shape = shape.expect("one repetition ran");
    let (whole, table) = last.expect("one repetition ran");

    set_global_threads(0);
    let threads = global_threads();
    for _ in 0..reps.min(3) {
        whole_op(w, "whole_default_threads_s", rec, out)?;
    }
    set_global_threads(1);

    kernels(&table, &shape, rec, out);
    set_global_threads(0);

    let m = &mut out.metrics;
    for name in [
        "store.ingest_s",
        "sql.bind_s",
        "table.select_s",
        "causal.preprocess_s",
        "causal.discover_s",
        "causal.discover_warm_s",
        "core.detect_s",
        "core.explain_s",
        "core.effect_s",
        "core.downstream_s",
        "core.serialise_s",
        "whole_s",
    ] {
        m.insert(name, rec.median_of(name));
    }
    let whole_s = rec.median_of("whole_s");
    let layers = rec.median_of("store.ingest_s")
        + rec.median_of("sql.bind_s")
        + rec.median_of("causal.discover_s")
        + rec.median_of("core.downstream_s")
        + rec.median_of("core.serialise_s");
    m.insert("layers_sum_ratio", layers / whole_s);
    m.insert("exec.threads", threads as f64);
    m.insert(
        "exec.speedup",
        whole_s / rec.median_of("whole_default_threads_s"),
    );
    m.insert(
        "obs.tracer_overhead_ratio",
        rec.median_of("whole_traced_s") / whole_s,
    );
    m.insert("trace.reps", reps as f64);
    if let Source::Csv(path) = &w.source {
        let mb = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
        m.insert("store.ingest_mb_s", mb / rec.median_of("store.ingest_s"));
    }

    // Counts of the whole op at one thread: these repeat exactly.
    let s = &whole.stats;
    m.insert("core.report_bytes", whole.body.len() as f64);
    m.insert("causal.tests", s.tests as f64);
    m.insert("causal.table_scans", s.table_scans as f64);
    m.insert(
        "causal.rows_scanned",
        (s.table_scans * shape.rows.len() as u64) as f64,
    );
    m.insert("causal.marginalizations", s.marginalizations as f64);
    m.insert("causal.count_cache_hits", s.count_cache_hits as f64);
    m.insert("causal.entropy_misses", s.entropy_misses as f64);
    m.insert("causal.batched_statements", s.batched_statements as f64);
    m.insert("causal.speculative_skipped", s.speculative_skipped as f64);
    m.insert("causal.oracle_tables", whole.tables as f64);
    m.insert("causal.oracle_cache_mb", whole.cache_bytes as f64 / 1e6);
    m.insert("stats.mit_permutations", s.mit_permutations as f64);
    m.insert("stats.mit_stage1_settled", s.mit_stage1_settled as f64);
    m.insert("stats.mit_escalated", s.mit_escalated as f64);
    Ok(())
}

/// The socket part of `serve_mix`'s traced run: a mix window with
/// per-class latencies, an idle probe pairing cache hits with
/// `/healthz`, and warm misses served against the same in process.
fn serve_phases(
    seed: u64,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let mix_server = ServeMix::setup(seed)?;
    mix_server.warm_up(plan.warmups)?;
    let t0 = rec.clock.elapsed_secs();
    let run = mix_server.mix(plan.seconds * REPLAY_SHARE, plan.min_serve_ops, out);
    for (i, op) in run.ops.iter().enumerate() {
        rec.add(
            op.class.name(),
            t0 + op.start,
            t0 + op.start + op.latency,
            i as u64,
        );
    }
    let m = &mut out.metrics;
    for (class, name) in [
        (Class::Warm, "serve.warm_p50_ms"),
        (Class::Detect, "serve.detect_p50_ms"),
        (Class::Cold, "serve.cold_p50_ms"),
    ] {
        m.insert(name, median(&run.latencies_ms(Some(class))));
    }
    let all = run.latencies_ms(None);
    m.insert("serve.latency_samples", all.len() as f64);
    // The highest percentile a window of this length always supports
    // (a p99 needs 1 000 samples); 0 if even that has too few beyond it.
    m.insert("serve.latency_p95_ms", percentile(&all, 95).unwrap_or(0.0));

    // Idle server, one request at a time, alternating: what a cache
    // hit costs beyond accepting and answering a connection.
    let timed_ms =
        |rec: &mut Recorder, name: &'static str, f: &dyn Fn() -> bool| -> Result<f64, String> {
            let id = rec.begin(name);
            let ok = f();
            let secs = rec.end(id);
            ok.then_some(secs * 1e3)
                .ok_or_else(|| format!("{name} probe failed"))
        };
    let addr = mix_server.addr;
    let (mut hits, mut healthz) = (Vec::new(), Vec::new());
    for i in 0..PROBES {
        let body = mix_server.popular_json(i % crate::serve::POPULAR);
        hits.push(timed_ms(rec, "probe.hit", &|| {
            client::post_json(addr, "/analyze", body).is_ok_and(|r| r.status == 200)
        })?);
        healthz.push(timed_ms(rec, "probe.healthz", &|| {
            client::get(addr, "/healthz").is_ok_and(|r| r.status == 200)
        })?);
    }
    out.metrics.insert("serve.hit_p50_ms", median(&hits));
    out.metrics.insert("serve.healthz_p50_ms", median(&healthz));

    // The same warm miss through the socket and in process (guarded,
    // as a server worker runs it): the difference is the serving layer.
    let table = mix_server.table();
    let slot = mix_server.popular_slot();
    let (mut served, mut inproc) = (Vec::new(), Vec::new());
    for i in 0..MISS_PROBES {
        let mut request = crate::serve::popular_request(seed, 0);
        request.seed = Some(mix(mix(seed, 0x0FF5), 2 * i));
        let json = request.canonical_json();
        served.push(timed_ms(rec, "probe.warm_served", &|| {
            client::post_json(addr, "/analyze", &json).is_ok_and(|r| r.status == 200)
        })?);
        request.seed = Some(mix(mix(seed, 0x0FF5), 2 * i + 1));
        inproc.push(timed_ms(rec, "probe.warm_inproc", &|| {
            with_fanout_guard(|| {
                wire::analyze_cached(&*table, &request, &mix_server.base, Some(&slot))
            })
            .map(|r| wire::report_body(&r))
            .is_ok()
        })?);
    }
    out.metrics
        .insert("serve.miss_overhead_ms", median(&served) - median(&inproc));

    let cache = mix_server.handle.cache_stats();
    let m = &mut out.metrics;
    m.insert("serve.report_cache_mb", cache.resident_bytes as f64 / 1e6);
    m.insert(
        "serve.oracle_slots",
        mix_server.registry.oracle_slots() as f64,
    );
    m.insert(
        "serve.oracle_cache_mb",
        mix_server.registry.oracle_cache_bytes() as f64 / 1e6,
    );
    let served_metrics = mix_server.finish(out);
    let m = &mut out.metrics;
    m.insert("serve.report_cache_hits", served_metrics.cache_hits as f64);
    m.insert(
        "serve.report_cache_misses",
        served_metrics.cache_misses as f64,
    );
    m.insert("serve.rejected_503", served_metrics.rejected as f64);
    m.insert("serve.client_errors", served_metrics.client_errors as f64);
    Ok(())
}

/// The traced run of one workload.
pub fn run(workload: &'static str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    {
        // `serve_mix` replays its popular request on the served table.
        let w = InProc::setup(workload, seed)?;
        w.check(&w.op()?)?;
        let budget = if workload == spec::SERVE_MIX {
            plan.seconds * REPLAY_SHARE
        } else {
            plan.seconds
        };
        replay(&w, budget, &mut rec, &mut out)?;
    }
    if workload == spec::SERVE_MIX {
        serve_phases(seed, plan, &mut rec, &mut out)?;
    }
    let path = scratch_file(&format!("{workload}.trace.json"))?;
    std::fs::write(&path, rec.to_json(workload, seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{workload}: traced, {} spans in {}, {} checked ops",
        rec.spans.len(),
        path.display(),
        out.attempted
    );
    Ok(out)
}
