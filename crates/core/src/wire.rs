//! The wire schema: one serializable request/response pair shared by
//! the CLI, the tests, and `hypdb-serve`.
//!
//! [`AnalyzeRequest`] is the JSON form of "audit this group-by query"
//! (Listing 1 plus the knobs [`HypDbConfig`] exposes per request). The
//! module factors `analyze()`'s report construction out of any one
//! front-end:
//!
//! * [`AnalyzeRequest::canonical_json`] re-serializes a parsed request
//!   into a canonical byte string (declaration-ordered fields, explicit
//!   `null`s), so logically identical requests — whatever their key
//!   order or whitespace — hash to the same [`fingerprint`]
//!   (`AnalyzeRequest::fingerprint`).
//! * [`AnalyzeRequest::config`] derives the request-scoped
//!   [`HypDbConfig`]: every RNG seed comes from the *server's* base
//!   seed mixed with the request fingerprint (or from an explicit
//!   `seed` field), so a request's report is a pure function of
//!   (data, base config, request bytes) — cacheable and reproducible
//!   on any thread count or shard layout.
//! * [`analyze`] / [`detect`] run the full pipeline or the cheap
//!   detection-only path against any [`Scan`] storage. Each binds the
//!   SQL once and scans the WHERE clause once
//!   ([`AnalyzeRequest::select`]); a caller that needs the rows first
//!   (the server routes on them) passes its [`Selection`] to the
//!   `*_selected` forms instead.
//! * [`report_body`] / [`detect_body`] render the canonical response
//!   bytes: compact JSON with wall-clock timings zeroed — the one
//!   nondeterministic field — so two runs of the same request are
//!   **byte-identical**, online or offline.

use crate::context::Selection;
use crate::detect::{detect_bias, BiasReport};
use crate::error::{Error, Result};
use crate::pipeline::{AnalysisReport, HypDb, HypDbConfig, Timings};
use crate::query::Query;
use hypdb_causal::oracle::OracleCache;
use hypdb_exec::{seed, ThreadPool};
use hypdb_table::Scan;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// A bias-analysis request: the query text plus per-request overrides.
///
/// Only `dataset` and `sql` are required on the wire; every other field
/// may be omitted (or `null`) and falls back to the server's base
/// configuration. The SQL text is parsed with `hypdb-sql` and must be a
/// Listing-1 group-by-average query; the **first** `GROUP BY` column is
/// the treatment unless `treatment` names another grouped column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalyzeRequest {
    /// Name of the dataset to analyze (server-side registry key).
    pub dataset: String,
    /// The group-by query, e.g.
    /// `SELECT Carrier, avg(Delayed) FROM F GROUP BY Carrier`.
    pub sql: String,
    /// Treatment attribute; defaults to the first `GROUP BY` column.
    pub treatment: Option<String>,
    /// Known covariates `Z` (skips CD discovery when given).
    pub covariates: Option<Vec<String>>,
    /// Known mediators (applied to every outcome) — skips discovery.
    pub mediators: Option<Vec<String>>,
    /// Fine-grained explanations to report (default: base config).
    pub top_k: Option<usize>,
    /// Whether to estimate direct effects (default: base config).
    pub compute_direct: Option<bool>,
    /// Explicit RNG seed. When omitted, the effective seed is
    /// `mix(base seed, request fingerprint)`.
    pub seed: Option<u64>,
}

impl AnalyzeRequest {
    /// A request with only the required fields set.
    pub fn new(dataset: impl Into<String>, sql: impl Into<String>) -> Self {
        AnalyzeRequest {
            dataset: dataset.into(),
            sql: sql.into(),
            treatment: None,
            covariates: None,
            mediators: None,
            top_k: None,
            compute_direct: None,
            seed: None,
        }
    }

    /// The canonical byte form: compact JSON with fields in declaration
    /// order and omitted options as explicit `null`s. Parsing any
    /// equivalent JSON spelling and re-serializing lands here.
    pub fn canonical_json(&self) -> String {
        to_json(self)
    }

    /// FNV-1a hash of [`Self::canonical_json`] — the per-request seed
    /// label and the report-cache key. Callers that already hold the
    /// canonical JSON can use [`fingerprint_json`] to avoid
    /// re-serializing.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_json(&self.canonical_json())
    }

    /// The request-scoped pipeline configuration: `base` with this
    /// request's overrides applied and the RNG seed derived from the
    /// base seed and the request fingerprint (unless pinned by `seed`).
    pub fn config(&self, base: &HypDbConfig) -> HypDbConfig {
        let mut cfg = *base;
        if let Some(k) = self.top_k {
            cfg.top_k = k;
        }
        if let Some(d) = self.compute_direct {
            cfg.compute_direct = d;
        }
        cfg.ci.seed = match self.seed {
            Some(s) => s,
            None => seed::mix(base.ci.seed, self.fingerprint()),
        };
        cfg
    }

    /// Resolves the SQL text into a [`Query`] against `table` (span
    /// `bind`), honouring the `treatment` override.
    pub fn query<S: Scan + ?Sized>(&self, table: &S) -> Result<Query> {
        hypdb_obs::span("bind", || match &self.treatment {
            None => Query::from_sql(&self.sql, table),
            Some(t) => {
                let stmt = hypdb_sql::parse_query(&self.sql)
                    .map_err(|e| Error::Invalid(format!("parse error: {e}")))?;
                Query::from_statement(&stmt, table, t)
            }
        })
    }

    /// The request's [`Selection`]: one SQL bind, one WHERE scan.
    pub fn select<S: Scan + ?Sized>(&self, table: &S) -> Result<Selection> {
        Ok(Selection::new(table, self.query(table)?))
    }

    fn pipeline<'a, S: Scan + ?Sized>(
        &self,
        table: &'a S,
        cfg: HypDbConfig,
        cache: Option<&Arc<OracleCache>>,
    ) -> Result<HypDb<'a, S>> {
        let mut db = HypDb::new(table).with_config(cfg);
        if let Some(z) = &self.covariates {
            db = db.with_covariates(z)?;
        }
        if let Some(m) = &self.mediators {
            db = db.with_mediators(m)?;
        }
        Ok(match cache {
            Some(c) => db.with_oracle_cache(Arc::clone(c)),
            None => db,
        })
    }
}

// Hand-written (rather than derived) so that optional fields may be
// *omitted*, not just `null`, and unknown fields fail loudly instead of
// being silently dropped — a typo'd `covariatse` must not run a
// different analysis than the caller asked for.
impl Deserialize for AnalyzeRequest {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::Error::new("expected a JSON object"))?;
        let mut dataset: Option<String> = None;
        let mut sql: Option<String> = None;
        let mut req = AnalyzeRequest::new("", "");
        for (key, val) in obj {
            match key.as_str() {
                "dataset" => dataset = Some(String::from_value(val)?),
                "sql" => sql = Some(String::from_value(val)?),
                "treatment" => req.treatment = Deserialize::from_value(val)?,
                "covariates" => req.covariates = Deserialize::from_value(val)?,
                "mediators" => req.mediators = Deserialize::from_value(val)?,
                "top_k" => req.top_k = Deserialize::from_value(val)?,
                "compute_direct" => req.compute_direct = Deserialize::from_value(val)?,
                "seed" => req.seed = Deserialize::from_value(val)?,
                other => {
                    return Err(serde::Error::new(format!(
                        "unknown field `{other}` (expected dataset, sql, treatment, \
                         covariates, mediators, top_k, compute_direct, seed)"
                    )))
                }
            }
        }
        req.dataset = dataset.ok_or_else(|| serde::Error::new("missing field `dataset`"))?;
        req.sql = sql.ok_or_else(|| serde::Error::new("missing field `sql`"))?;
        Ok(req)
    }
}

/// Parses a request from JSON bytes (the HTTP body).
pub fn parse_request(body: &str) -> Result<AnalyzeRequest> {
    serde_json::from_str(body).map_err(|e| Error::Invalid(format!("bad request: {e}")))
}

/// Runs the full pipeline for `req` against `table` under the
/// request-scoped configuration. This is *the* analyze entry point:
/// the CLI, the test suite, and `hypdb-serve` all call it, so their
/// reports agree byte for byte.
pub fn analyze<S: Scan + ?Sized>(
    table: &S,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
) -> Result<AnalysisReport> {
    analyze_cached(table, req, base, None)
}

/// [`analyze`] with an optional shared [`OracleCache`] for the
/// discovery phase. The cache must belong to this `(table, WHERE
/// selection)`; sharing one across identical-selection requests lets
/// them hit one another's tables and entropies (and lets the caller
/// read the accumulated `OracleStats` afterwards) without changing a
/// single response byte.
pub fn analyze_cached<S: Scan + ?Sized>(
    table: &S,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
    cache: Option<&Arc<OracleCache>>,
) -> Result<AnalysisReport> {
    analyze_selected(table, &req.select(table)?, req, base, cache)
}

/// [`analyze_cached`] over an already resolved `selection` — which
/// must be `req.select(table)`.
pub fn analyze_selected<S: Scan + ?Sized>(
    table: &S,
    selection: &Selection,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
    cache: Option<&Arc<OracleCache>>,
) -> Result<AnalysisReport> {
    req.pipeline(table, req.config(base), cache)?
        .analyze_selected(selection)
}

/// One context's detection verdict (the cheap path's row block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectContext {
    /// Context label (`Quarter=1, …` or `(all)`).
    pub label: String,
    /// Rows in the context.
    pub n_rows: usize,
    /// Balance test w.r.t. the covariates (total-effect bias) — the
    /// same statement, seeds, and verdict as `analyze`'s `bias_total`
    /// for an identical request.
    pub bias: BiasReport,
}

/// Detection-only output: covariate discovery plus the per-context
/// balance test, skipping explanations and effect estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectReport {
    /// Relation name.
    pub from: String,
    /// Treatment attribute name.
    pub treatment: String,
    /// Discovered (or supplied) covariates `Z`.
    pub covariates: Vec<String>,
    /// True when CD found no parents and `MB(T)` was used instead (§4).
    pub used_fallback: bool,
    /// Per-context verdicts.
    pub contexts: Vec<DetectContext>,
}

impl DetectReport {
    /// True when any context's balance test rejected.
    pub fn biased(&self) -> bool {
        self.contexts.iter().any(|c| c.bias.biased)
    }
}

/// Runs the detection-only path (`POST /detect`'s cheap lane): covariate
/// discovery — with direct-effect discovery forced off, the expensive
/// half of `discover` — then one balance test per context.
pub fn detect<S: Scan + ?Sized>(
    table: &S,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
) -> Result<DetectReport> {
    detect_cached(table, req, base, None)
}

/// [`detect`] with an optional shared [`OracleCache`] (see
/// [`analyze_cached`]); the cheap lane's covariate discovery is exactly
/// the phase that cross-request sharing accelerates.
pub fn detect_cached<S: Scan + ?Sized>(
    table: &S,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
    cache: Option<&Arc<OracleCache>>,
) -> Result<DetectReport> {
    detect_selected(table, &req.select(table)?, req, base, cache)
}

/// [`detect_cached`] over an already resolved `selection`.
pub fn detect_selected<S: Scan + ?Sized>(
    table: &S,
    selection: &Selection,
    req: &AnalyzeRequest,
    base: &HypDbConfig,
    cache: Option<&Arc<OracleCache>>,
) -> Result<DetectReport> {
    let mut cfg = req.config(base);
    cfg.compute_direct = false;
    let query = &selection.query;
    let discovery = req
        .pipeline(table, cfg, cache)?
        .discover_selected(selection)?;
    let ctxs = selection.contexts(table);
    let pool = cfg
        .threads
        .map(ThreadPool::new)
        .unwrap_or_else(ThreadPool::current);
    // The 0xB1A5 tweak matches `analyze`'s detection phase, so the
    // cheap path reproduces the full report's `bias_total` exactly.
    let reports = pool.parallel_map(&ctxs, |_, ctx| {
        let t = query.treatment;
        let counts = ctx.counts(table, [t].iter().chain(&discovery.covariates).copied());
        DetectContext {
            label: ctx.label(table),
            n_rows: ctx.rows.len(),
            bias: detect_bias(
                table,
                &ctx.rows,
                &counts,
                t,
                &discovery.covariates,
                cfg.ci.alpha,
                &cfg.ci.mit,
                cfg.ci.seed ^ 0xB1A5,
            ),
        }
    });
    let name = |a| table.schema().name(a).to_string();
    Ok(DetectReport {
        from: query.from.clone(),
        treatment: name(query.treatment),
        covariates: discovery.covariates.iter().copied().map(name).collect(),
        used_fallback: discovery.used_fallback,
        contexts: reports,
    })
}

/// Serializes an analysis report as the canonical response body:
/// compact JSON with the wall-clock [`Timings`] zeroed, so identical
/// requests produce **byte-identical** bodies at any thread count,
/// shard layout, or load — the property the report cache and the
/// online/offline equivalence tests rely on.
pub fn report_body(report: &AnalysisReport) -> String {
    to_json(&stamped(report))
}

/// Serializes a detection report as the canonical response body
/// (already timing-free).
pub fn detect_body(report: &DetectReport) -> String {
    to_json(report)
}

/// `report` with its wall-clock timings zeroed.
fn stamped(report: &AnalysisReport) -> AnalysisReport {
    AnalysisReport {
        timings: Timings::default(),
        ..report.clone()
    }
}

/// Compact JSON of a wire value.
fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    // lint:allow(unwrap-in-request-path) — wire values are plain structs and `Value` trees with string keys; no `Serialize` impl among them has a failing branch
    serde_json::to_string(value).expect("wire values serialize")
}

/// The fingerprint of a canonical request JSON string (see
/// [`AnalyzeRequest::fingerprint`]). A 64-bit non-cryptographic hash
/// *can* collide, so anything keyed on it (the report cache) must also
/// compare the canonical bytes before trusting a match.
pub fn fingerprint_json(canonical: &str) -> u64 {
    fnv1a64(canonical.as_bytes())
}

/// Formats a request sequence number as the `X-Hypdb-Request-Id`
/// header value (and the journal's `id` field): `req-<seq>`, zero-
/// padded so ids sort lexically in journal order. Ids live in response
/// **headers** only — bodies stay byte-identical with or without the
/// flight recorder.
pub fn request_id(seq: u64) -> String {
    format!("req-{seq:08}")
}

/// The flight recorder's response-body fingerprint: FNV-1a 64 over the
/// exact response bytes, rendered as 16 hex digits. Replay recomputes
/// this over the bytes it receives; equality is the byte-identity pass
/// criterion.
pub fn body_fnv_hex(body: &str) -> String {
    format!("{:016x}", fnv1a64(body.as_bytes()))
}

/// FNV-1a 64-bit over raw bytes: tiny, dependency-free, and stable
/// across platforms and runs — everything a wire fingerprint needs.
/// Public so other fingerprints (e.g. the serving registry's
/// per-selection oracle slots) reuse one hash definition.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::{Table, TableBuilder};

    /// Small confounded population: Z skews both T and Y.
    fn confounded() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            ("t1", "1", "a", 30u32),
            ("t1", "0", "a", 10),
            ("t0", "1", "a", 5),
            ("t0", "0", "a", 5),
            ("t1", "1", "b", 5),
            ("t1", "0", "b", 10),
            ("t0", "1", "b", 10),
            ("t0", "0", "b", 40),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    fn demo_request() -> AnalyzeRequest {
        let mut req = AnalyzeRequest::new("demo", "SELECT T, avg(Y) FROM D GROUP BY T");
        req.covariates = Some(vec!["Z".to_string()]);
        req
    }

    #[test]
    fn minimal_json_parses_with_defaults() {
        let req = parse_request(r#"{"dataset":"d","sql":"SELECT T, avg(Y) FROM D GROUP BY T"}"#)
            .expect("parse");
        assert_eq!(req.dataset, "d");
        assert!(req.treatment.is_none() && req.seed.is_none());
        assert!(req.covariates.is_none());
    }

    #[test]
    fn key_order_and_nulls_do_not_change_the_fingerprint() {
        let a = parse_request(r#"{"dataset":"d","sql":"q"}"#).unwrap();
        let b = parse_request(r#"{"sql":"q","seed":null,"dataset":"d"}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_requests_have_distinct_fingerprints() {
        let a = AnalyzeRequest::new("d", "SELECT T, avg(Y) FROM D GROUP BY T");
        let mut b = a.clone();
        b.seed = Some(7);
        let mut c = a.clone();
        c.dataset = "other".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn unknown_and_missing_fields_are_rejected() {
        let err = parse_request(r#"{"dataset":"d","sql":"q","covariatse":["Z"]}"#).unwrap_err();
        assert!(err.to_string().contains("covariatse"), "{err}");
        // The planner's EXPLAIN went with the planner.
        let err = parse_request(r#"{"dataset":"d","sql":"q","explain":true}"#).unwrap_err();
        assert!(err.to_string().contains("unknown field `explain`"), "{err}");
        let err = parse_request(r#"{"dataset":"d"}"#).unwrap_err();
        assert!(err.to_string().contains("sql"), "{err}");
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn request_round_trips_through_canonical_json() {
        let mut req = demo_request();
        req.top_k = Some(3);
        req.seed = Some(42);
        let back: AnalyzeRequest = serde_json::from_str(&req.canonical_json()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn config_derives_seed_from_fingerprint() {
        let base = HypDbConfig::default();
        let req = demo_request();
        let cfg = req.config(&base);
        assert_ne!(cfg.ci.seed, base.ci.seed, "seed must be request-scoped");
        assert_eq!(cfg.ci.seed, req.config(&base).ci.seed, "…but deterministic");
        let mut pinned = req.clone();
        pinned.seed = Some(1234);
        assert_eq!(pinned.config(&base).ci.seed, 1234);
        let mut other = req.clone();
        other.sql.push(' ');
        assert_ne!(other.config(&base).ci.seed, cfg.ci.seed);
    }

    #[test]
    fn analyze_body_is_reproducible_and_timing_free() {
        let table = confounded();
        let req = demo_request();
        let base = HypDbConfig::default();
        let a = report_body(&analyze(&table, &req, &base).unwrap());
        let b = report_body(&analyze(&table, &req, &base).unwrap());
        assert_eq!(a, b, "same request twice must be byte-identical");
        assert!(a.contains("\"timings\":{\"detection\":0.0"));
        let back: AnalysisReport = serde_json::from_str(&a).unwrap();
        assert_eq!(back.covariates, vec!["Z"]);
    }

    #[test]
    fn treatment_override_is_honoured() {
        let table = confounded();
        let mut req = AnalyzeRequest::new("demo", "SELECT Z, T, avg(Y) FROM D GROUP BY Z, T");
        req.treatment = Some("T".to_string());
        req.covariates = Some(vec![]);
        let report = analyze(&table, &req, &HypDbConfig::default()).unwrap();
        assert_eq!(report.treatment, "T");
    }

    #[test]
    fn detect_matches_analyze_bias_total() {
        let table = confounded();
        let req = demo_request();
        let base = HypDbConfig::default();
        let det = detect(&table, &req, &base).unwrap();
        assert!(det.biased(), "confounded query must be flagged");
        assert_eq!(det.contexts.len(), 1);
        let full = analyze(&table, &req, &base).unwrap();
        assert_eq!(det.contexts[0].bias, full.contexts[0].bias_total);
        assert_eq!(det.covariates, full.covariates);
        // And the detect body round-trips.
        let back: DetectReport = serde_json::from_str(&detect_body(&det)).unwrap();
        assert_eq!(back, det);
    }

    #[test]
    fn wire_errors_are_invalid() {
        let table = confounded();
        let base = HypDbConfig::default();
        let req = AnalyzeRequest::new("demo", "SELECT nope FROM D");
        assert!(matches!(
            analyze(&table, &req, &base),
            Err(Error::Invalid(_))
        ));
        let req = AnalyzeRequest::new("demo", "SELECT Missing, avg(Y) FROM D GROUP BY Missing");
        assert!(analyze(&table, &req, &base).is_err());
    }
}
