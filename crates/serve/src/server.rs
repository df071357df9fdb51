//! The concurrent bias-analysis server.
//!
//! Architecture: one **acceptor** thread owns the listener and applies
//! admission control — a bounded connection queue, std's
//! `sync_channel` fed by `try_send`; overflow is answered immediately
//! with a clean `503` instead of an ever-growing backlog. A fixed set
//! of **worker** threads takes connections off it, parses one
//! request each (`Connection: close`), and routes it. Workers run every
//! pipeline call under `hypdb-exec`'s nested-fan-out guard (when more
//! than one worker is configured), so the parallelism budget is spent
//! *across* requests while each request's internal fan-outs run inline
//! — concurrent load never multiplies into `workers × threads` threads.
//!
//! **Reproducibility.** A request's report is a pure function of
//! (dataset, base config, canonical request bytes): the wire layer
//! derives the RNG seed from the base seed and the request fingerprint,
//! and response bodies zero the wall-clock timings. Identical requests
//! therefore produce byte-identical bodies at any worker count, thread
//! count or load — which is what makes the report cache sound:
//! it is keyed on the fingerprint and only ever stores values that any
//! racing computation would reproduce exactly.
//!
//! **Nothing polls.** The acceptor blocks in `accept`, a worker in the
//! channel's `recv` (the others on the lock around the receiver), and
//! one `try_send` hands a connection over. A request binds its SQL and
//! scans its `WHERE` clause once: `report_endpoint` resolves the
//! [`Selection`](hypdb_core::Selection) that routes it to its oracle
//! slot and the pipeline runs on that value.
//!
//! **Shutdown.** [`ServerHandle::shutdown`] sets a flag and wakes the
//! acceptor with a loopback connection to its own port. The acceptor
//! reads the flag after every `accept`, so what it accepted after the
//! flag was set — the wake, or a client that raced it — is dropped
//! unqueued and leaves no trace in metrics or journal; everything
//! accepted before is served. The acceptor then returns, and dropping
//! its sender closes the queue: workers drain it, finish in-flight
//! requests and leave when `recv` fails, and every thread is joined
//! before the call returns.

use crate::cache::ByteLruCache;
use crate::http::{self, Request, RequestError, Response};
use crate::journal::{self, RequestRecord};
use crate::metrics::{Endpoint, Metrics, MetricsSnapshot};
use crate::registry::Registry;
use hypdb_core::HypDbConfig;
use hypdb_core::{wire, Error as CoreError, OracleStats};
use hypdb_exec::{seed, with_fanout_guard};
use hypdb_obs::sync::Mutex;
use hypdb_obs::{json, Deadline, Journal, Tick, TraceEntry, TraceRing};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bound on one shutdown wake-up round (connect, then wait for the
/// acceptor to take it) and on the acceptor's nap after a failed `accept`.
const WAKE_RETRY: Duration = Duration::from_millis(100);

/// Rendered request records retained in memory for `GET
/// /debug/requests` (independent of `HYPDB_JOURNAL`; populated
/// whenever the flight recorder is enabled).
const REQUESTS_LOG_CAP: usize = 128;

/// Default trace retention-ring capacity (`HYPDB_DEBUG_TRACES`
/// overrides; 0 disables retention and the in-memory request log).
const DEFAULT_DEBUG_TRACES: usize = 16;

/// Server configuration. Every field has an `HYPDB_SERVE_*` environment
/// override (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7878` by default; port `0` = ephemeral).
    pub addr: String,
    /// Request worker threads (default: the global worker count).
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it get `503`.
    pub queue_capacity: usize,
    /// Maximum request-body bytes; larger bodies get `413`.
    pub max_body: usize,
    /// Per-connection read/write timeout in milliseconds.
    pub timeout_ms: u64,
    /// Report-cache byte budget; least-recently-used responses are
    /// evicted past it (resident/evicted bytes appear in `/metrics`).
    pub cache_bytes: usize,
    /// Base pipeline configuration; per-request seeds derive from its
    /// `ci.seed` and the request fingerprint.
    pub base: HypDbConfig,
    /// Request-journal path (`HYPDB_JOURNAL`); `None` disables the
    /// on-disk flight recorder.
    pub journal: Option<String>,
    /// Trace retention-ring capacity (`HYPDB_DEBUG_TRACES`; default
    /// 16, 0 disables retention and the in-memory request log).
    pub debug_traces: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: hypdb_exec::global_threads(),
            queue_capacity: 64,
            max_body: 64 * 1024,
            timeout_ms: 30_000,
            cache_bytes: 64 << 20,
            base: HypDbConfig::default(),
            journal: None,
            debug_traces: DEFAULT_DEBUG_TRACES,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

impl ServeConfig {
    /// The default configuration with environment overrides applied:
    /// `HYPDB_SERVE_ADDR`, `HYPDB_SERVE_WORKERS`, `HYPDB_SERVE_QUEUE`,
    /// `HYPDB_SERVE_MAX_BODY`, `HYPDB_SERVE_TIMEOUT_MS`,
    /// `HYPDB_SERVE_CACHE_BYTES`, plus the flight recorder's
    /// `HYPDB_JOURNAL` (journal path) and `HYPDB_DEBUG_TRACES`
    /// (retention-ring capacity, 0 disables), and into the base
    /// pipeline configuration `HYPDB_MIT_BETA` (HyMIT's β, a positive
    /// float; raising it widens the regime in which the permutation
    /// test is preferred over the χ² approximation).
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Ok(addr) = std::env::var("HYPDB_SERVE_ADDR") {
            cfg.addr = addr;
        }
        let positive = |name: &str, field: &mut usize| {
            if let Some(v) = env_parse::<usize>(name).filter(|&v| v > 0) {
                *field = v;
            }
        };
        positive("HYPDB_SERVE_WORKERS", &mut cfg.workers);
        positive("HYPDB_SERVE_QUEUE", &mut cfg.queue_capacity);
        positive("HYPDB_SERVE_MAX_BODY", &mut cfg.max_body);
        positive("HYPDB_SERVE_CACHE_BYTES", &mut cfg.cache_bytes);
        if let Some(t) = env_parse::<u64>("HYPDB_SERVE_TIMEOUT_MS").filter(|&t| t > 0) {
            cfg.timeout_ms = t;
        }
        if let Ok(path) = std::env::var("HYPDB_JOURNAL") {
            if !path.trim().is_empty() {
                cfg.journal = Some(path);
            }
        }
        if let Some(n) = env_parse::<usize>("HYPDB_DEBUG_TRACES") {
            cfg.debug_traces = n;
        }
        if let Some(b) = env_parse::<f64>("HYPDB_MIT_BETA").filter(|b| b.is_finite() && *b > 0.0) {
            cfg.base.ci.mit.beta = b;
        }
        cfg
    }

    /// The per-connection read budget and per-write timeout.
    fn socket_timeout(&self) -> Duration {
        Duration::from_millis(self.timeout_ms.max(1))
    }
}

/// A connection waiting for a worker, with the [`Tick`] it was
/// accepted at (the `hypdb_queue_wait_seconds` histogram's start).
type Queued = (TcpStream, Tick);

/// Which report lane a request takes (also the cache-key namespace).
#[derive(Debug, Clone, Copy)]
enum Lane {
    Analyze,
    Detect,
}

impl Lane {
    fn tag(self) -> u64 {
        match self {
            Lane::Analyze => 0xA11A,
            Lane::Detect => 0xDE7E,
        }
    }
}

/// What the report lanes learn about a request as it runs — the
/// structural half of its journal record, threaded by `&mut` from
/// [`routed`] down through [`report_endpoint`].
#[derive(Default)]
struct RequestMeta {
    dataset: Option<String>,
    fingerprint: Option<String>,
    canonical: Option<String>,
    /// `Some(true)` report-cache hit, `Some(false)` computed.
    cache: Option<bool>,
    /// Oracle work delta attributable to this request
    /// (exact under sequential driving; under concurrent load over one
    /// shared selection it may include a neighbour's coalesced work).
    planner: Option<OracleStats>,
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    /// The admission queue's receiving end, shared by the workers: one
    /// of them blocks in `recv` while the others wait for the lock.
    queue: Mutex<Receiver<Queued>>,
    metrics: Metrics,
    /// The on-disk request journal (`HYPDB_JOURNAL`), when configured.
    /// Mutex-wrapped so shutdown can take and close it (joining the
    /// writer guarantees the file is complete before `shutdown`
    /// returns); appends hold the lock for one `try_send`.
    journal: Mutex<Option<Journal>>,
    /// Whether a journal was configured (checked without the lock).
    journal_on: bool,
    /// Finished-trace retention behind `GET /debug/traces`.
    ring: TraceRing,
    /// The last [`REQUESTS_LOG_CAP`] rendered journal lines, newest
    /// last — `GET /debug/requests` works with or without a journal
    /// file.
    requests_log: Mutex<VecDeque<String>>,
    /// Request sequence numbers (1-based, per server instance — so a
    /// sequentially driven workload journals deterministically).
    next_id: AtomicU64,
    /// Server start; the uptime gauge and journal `offset_ms` base.
    start: Tick,
    /// Fingerprint-keyed response bodies, byte-bounded with LRU
    /// eviction; values are immutable and any racing recomputation
    /// produces identical bytes, so last-wins insertion is
    /// unobservable. The canonical request is stored with each body and
    /// re-compared on probe: a 64-bit fingerprint can collide, and a
    /// collision must compute, never serve the wrong report.
    cache: ByteLruCache,
    /// Set by shutdown before it wakes the acceptor, which re-reads it
    /// after every `accept`.
    shutdown: AtomicBool,
    /// Run request pipelines under the nested-fan-out guard (true when
    /// more than one worker owns the parallelism budget).
    guard: bool,
}

/// The server constructor; [`Server::start`] returns a handle.
pub struct Server;

impl Server {
    /// Binds `cfg.addr`, spawns the acceptor and `cfg.workers` workers,
    /// and returns a handle. The registry is immutable from here on —
    /// workers share its tables by `Arc` without any locking.
    pub fn start(cfg: ServeConfig, registry: Registry) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let journal = match &cfg.journal {
            Some(path) => Some(Journal::open(path)?),
            None => None,
        };
        // A capacity of 0 would make a rendezvous channel: every
        // connection would be a 503 unless a worker sat in `recv`.
        let (admit_tx, queue) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            queue: Mutex::new(queue),
            metrics: Metrics::default(),
            cache: ByteLruCache::new(cfg.cache_bytes),
            shutdown: AtomicBool::new(false),
            guard: workers > 1,
            journal_on: journal.is_some(),
            journal: Mutex::new(journal),
            ring: TraceRing::new(cfg.debug_traces),
            requests_log: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            start: Tick::now(),
            registry,
            cfg,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hypdb-serve-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener, admit_tx))?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hypdb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

/// A running server: address, metrics, and graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Report-cache byte accounting (entries, resident bytes, evictions).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Aggregated oracle work counters over every shared
    /// (dataset, selection) cache slot.
    pub fn oracle_stats(&self) -> hypdb_core::OracleStats {
        self.shared.registry.oracle_stats()
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join every thread. Idempotent via [`Drop`]. Returns
    /// the final metrics — counted *after* the drain, so requests
    /// completed during shutdown are included.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.shared.metrics.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // Wake the acceptor out of `accept` (a loopback connection
            // to its own port) or out of its nap after a failed one
            // (unpark) until it has seen the flag. A round ends when
            // the acceptor drops the wake or the listener — the read
            // returns on that close — so nothing here spins; the
            // timeouts only bound a round whatever happens.
            let wake = wake_addr(self.addr);
            while !acceptor.is_finished() {
                acceptor.thread().unpark();
                if let Ok(mut stream) = TcpStream::connect_timeout(&wake, WAKE_RETRY) {
                    let _ = stream.set_read_timeout(Some(WAKE_RETRY));
                    let _ = stream.read(&mut [0u8; 1]);
                }
            }
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone: close the journal so every accepted record
        // is on disk before shutdown returns.
        if let Some(journal) = self.shared.journal.lock().take() {
            journal.close();
        }
    }
}

/// Where a connection reaches the listener bound at `bound` from this
/// host: `bound` itself, or loopback when it is the unspecified address.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    match bound {
        SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
        bound => bound,
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts until shutdown, handing each connection to the workers
/// through `queue`. Returning drops the sender: that is the close, after
/// which the workers drain what is queued and leave.
fn acceptor_loop(shared: &Shared, listener: &TcpListener, queue: SyncSender<Queued>) {
    loop {
        let accepted = listener.accept();
        // Checked after the accept, not before it: what arrives once
        // shutdown has begun (its wake-up included) is dropped here.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => admit(shared, &queue, stream),
            // EMFILE, ECONNABORTED and the like: back off instead of
            // spinning on a persistent failure. Shutdown unparks.
            Err(_) => std::thread::park_timeout(WAKE_RETRY),
        }
    }
}

/// Queues `stream` for a worker, or answers it `503` when the queue is
/// full. Nothing else runs between two `accept`s — socket options are
/// the worker's to set.
fn admit(shared: &Shared, queue: &SyncSender<Queued>, stream: TcpStream) {
    let accepted = Tick::now();
    // Counted before the send, so a worker's take-back after `recv`
    // can never run ahead of it and wrap the gauge below zero.
    shared.metrics.count(|c| &mut c.queue_depth);
    let mut rejected = match queue.try_send((stream, accepted)) {
        Ok(()) => return,
        Err(TrySendError::Full((stream, _)) | TrySendError::Disconnected((stream, _))) => stream,
    };
    shared.metrics.uncount(|c| &mut c.queue_depth);
    shared.metrics.count(|c| &mut c.rejected);
    // The overflow path waits too (accept → rejection): observe it so
    // `hypdb_queue_wait_seconds` covers every connection, not just the
    // admitted ones, and count the 503 in the labelled request family.
    shared.metrics.observe_queue_wait(accepted.elapsed_secs());
    shared.metrics.observe_status("rejected", 503);
    let resp = Response::error(503, "server busy: admission queue is full")
        .with_header("Retry-After", "1");
    let _ = rejected.set_write_timeout(Some(shared.cfg.socket_timeout()));
    let _ = http::write_response(&mut rejected, &resp);
    let _ = rejected.shutdown(Shutdown::Both);
}

/// The next queued connection, with the seconds it waited; `None` once
/// the acceptor has dropped its sender **and** the queue has drained
/// (graceful-drain semantics). Gating on the sender — not on the
/// shutdown flag — means a connection accepted just as shutdown is
/// signalled is never queued with nobody left to serve it.
fn next_connection(queue: &Mutex<Receiver<Queued>>, metrics: &Metrics) -> Option<(TcpStream, f64)> {
    let (stream, accepted) = queue.lock().recv().ok()?;
    metrics.uncount(|c| &mut c.queue_depth);
    let waited = accepted.elapsed_secs();
    metrics.observe_queue_wait(waited);
    Some((stream, waited))
}

fn worker_loop(shared: &Shared) {
    while let Some((mut stream, queue_wait)) = next_connection(&shared.queue, &shared.metrics) {
        let _in_flight = shared.metrics.enter();
        handle_connection(shared, &mut stream, queue_wait);
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream, queue_wait: f64) {
    // Accepted sockets block with deadlines: reads are bounded by a
    // per-connection budget (`read_request` shrinks the socket timeout
    // to the time remaining, so a byte-trickling client cannot reset
    // it), and every write syscall is bounded by `timeout_ms`. The
    // client has that long to deliver its complete request; the budget
    // starts when a worker picks the connection up (compute time
    // afterwards is the server's, not counted against the client).
    let timeout = shared.cfg.socket_timeout();
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let deadline = Deadline::after(timeout);
    let resp = match http::read_request(stream, shared.cfg.max_body, deadline) {
        Ok(req) => {
            shared.metrics.count(|c| &mut c.requests);
            routed(shared, &req, queue_wait)
        }
        // Peer vanished or timed out before completing a request:
        // there is nobody to answer.
        Err(RequestError::Io(_)) => return,
        Err(RequestError::Bad(msg)) => Response::error(400, msg),
        Err(RequestError::LengthRequired) => Response::error(411, "Content-Length required"),
        Err(RequestError::TooLarge { limit }) => {
            Response::error(413, format!("request body exceeds {limit} bytes"))
        }
        Err(RequestError::HeadTooLarge) => Response::error(431, "request head too large"),
    };
    if (400..500).contains(&resp.status) {
        shared.metrics.count(|c| &mut c.client_errors);
    }
    let _ = http::write_response(stream, &resp);
    let _ = stream.shutdown(Shutdown::Both);
}

/// [`route`] wrapped in the flight-recorder middleware: times the
/// request into its endpoint's duration histogram and rolling windows,
/// counts it in `hypdb_requests_total{endpoint,status}`, retains its
/// span tree in the trace ring, journals one `hypdb-journal/v1` record,
/// and — when `HYPDB_TRACE` is armed — dumps slow span trees to stderr.
/// Response **bodies** are untouched; the request id is surfaced in the
/// `X-Hypdb-Request-Id` header only.
fn routed(shared: &Shared, req: &Request, queue_wait: f64) -> Response {
    let endpoint = Endpoint::of_path(&req.path);
    let seq = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let recording = shared.journal_on || shared.ring.is_enabled();
    let tick = Tick::now();
    let mut meta = RequestMeta::default();
    let mut handler = || unwind_to_500(req, || route(shared, req, &mut meta));
    let (resp, report) = if recording || hypdb_obs::trace_threshold().is_some() {
        let tracer = hypdb_obs::Tracer::new();
        let resp = hypdb_obs::with_request(&tracer, handler);
        (resp, Some(tracer.finish()))
    } else {
        (handler(), None)
    };
    let elapsed = tick.elapsed();
    let secs = elapsed.as_secs_f64();
    if let Some(report) = &report {
        hypdb_obs::maybe_dump(seq, &req.path, elapsed, report);
        shared.ring.record(TraceEntry {
            seq,
            tag: req.path.clone(),
            millis: secs * 1e3,
            report: report.clone(),
        });
    }
    let metrics = &shared.metrics;
    metrics.observe_request(endpoint, meta.dataset.as_deref(), resp.status, secs);
    if recording {
        let line = journal::render_record(&RequestRecord {
            seq,
            method: &req.method,
            path: &req.path,
            dataset: meta.dataset.as_deref(),
            fingerprint: meta.fingerprint.as_deref(),
            canonical: meta.canonical.as_deref(),
            cache: meta.cache,
            status: resp.status,
            body: resp.body.as_str(),
            planner: meta.planner,
            report: report.as_ref(),
            offset_ms: shared.start.elapsed_secs() * 1e3,
            queue_wait_ms: queue_wait * 1e3,
            total_ms: secs * 1e3,
        });
        if shared.journal_on {
            if let Some(journal) = shared.journal.lock().as_ref() {
                journal.append(line.clone());
            }
        }
        let mut log = shared.requests_log.lock();
        if log.len() == REQUESTS_LOG_CAP {
            log.pop_front();
        }
        log.push_back(line);
    }
    resp.with_header("X-Hypdb-Request-Id", wire::request_id(seq))
}

/// The `/metrics` body: [`Metrics::render`] over this server's state.
/// The oracle counters and resident bytes come from one pass under one
/// registry lock.
fn scrape(shared: &Shared) -> String {
    let Shared {
        metrics,
        registry,
        cache,
        start,
        ..
    } = shared;
    let oracle = registry.oracle_snapshot();
    metrics.render(start.elapsed_secs(), &cache.stats(), &oracle)
}

/// Runs a handler behind an unwind guard. A panic under [`route`] is a
/// bug, but it is one request's bug: the client gets a 500 (counted and
/// journaled by [`routed`] like any other status), the panic hook has
/// already written the location to stderr, and the worker thread lives
/// to take the next connection. Everything the handlers share —
/// queue, caches, registry slots — sits behind the poison-ignoring
/// `hypdb_obs::sync::Mutex`, so a guard dropped mid-unwind locks
/// nobody out.
fn unwind_to_500(req: &Request, handler: impl FnOnce() -> Response) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        eprintln!(
            "hypdb-serve: handler for {} {:?} panicked (location above); answered 500",
            req.method, req.path
        );
        Response::error(500, "internal error")
    })
}

fn route(shared: &Shared, req: &Request, meta: &mut RequestMeta) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"datasets\":{}}}",
                shared.registry.len()
            ),
        ),
        ("GET", "/metrics") => Response::text(200, scrape(shared)),
        ("GET", "/datasets") => {
            let infos = shared.registry.infos();
            match serde_json::to_string(&infos) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(500, format!("serializing dataset list: {e}")),
            }
        }
        ("GET", "/debug/traces") => Response::json(200, shared.ring.to_json()),
        ("GET", "/debug/requests") => {
            let log = shared.requests_log.lock();
            let mut body = format!("{{\"count\":{},\"records\":[", log.len());
            for (i, line) in log.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(line);
            }
            body.push_str("]}");
            Response::json(200, body)
        }
        ("GET", "/debug/config") => Response::json(200, debug_config_body(shared)),
        ("POST", "/analyze") => {
            shared.metrics.count(|c| &mut c.analyze);
            report_endpoint(shared, &req.body, Lane::Analyze, meta)
        }
        ("POST", "/detect") => {
            shared.metrics.count(|c| &mut c.detect);
            report_endpoint(shared, &req.body, Lane::Detect, meta)
        }
        (
            _,
            "/healthz" | "/metrics" | "/datasets" | "/analyze" | "/detect" | "/debug/traces"
            | "/debug/requests" | "/debug/config",
        ) => Response::error(405, format!("method {} not allowed here", req.method)),
        (_, path) => Response::error(404, format!("no such endpoint `{path}`")),
    }
}

/// The `GET /debug/config` body: the effective serve configuration and
/// flight-recorder arming, for "what is this server actually running
/// with" debugging.
fn debug_config_body(shared: &Shared) -> String {
    let cfg = &shared.cfg;
    let mut body = format!("{{\"version\":\"{}\",\"addr\":", env!("CARGO_PKG_VERSION"));
    json::push_string(&mut body, &cfg.addr);
    body.push_str(&format!(
        ",\"workers\":{},\"queue_capacity\":{},\"max_body\":{},\"timeout_ms\":{},\
         \"cache_bytes\":{}",
        cfg.workers, cfg.queue_capacity, cfg.max_body, cfg.timeout_ms, cfg.cache_bytes,
    ));
    body.push_str(",\"journal\":");
    match &cfg.journal {
        Some(path) => json::push_string(&mut body, path),
        None => body.push_str("null"),
    }
    body.push_str(",\"trace_threshold_ms\":");
    match hypdb_obs::trace_threshold() {
        Some(t) => body.push_str(&format!("{}", t.as_millis())),
        None => body.push_str("null"),
    }
    body.push_str(&format!(
        ",\"debug_traces\":{},\"requests_log_capacity\":{},\"guarded\":{},\"datasets\":{}}}",
        cfg.debug_traces,
        REQUESTS_LOG_CAP,
        shared.guard,
        shared.registry.len(),
    ));
    body
}

/// The `/analyze` and `/detect` lanes: parse → registry lookup → cache
/// probe → shared-oracle resolution → (guarded) pipeline run → cache
/// fill.
fn report_endpoint(shared: &Shared, body: &str, lane: Lane, meta: &mut RequestMeta) -> Response {
    let areq = match wire::parse_request(body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, e.to_string()),
    };
    let Some(table) = shared.registry.get(&areq.dataset) else {
        return Response::error(404, format!("unknown dataset `{}`", areq.dataset));
    };
    let canonical = areq.canonical_json();
    let fingerprint = wire::fingerprint_json(&canonical);
    let fp_hex = format!("{fingerprint:016x}");
    meta.dataset = Some(areq.dataset.clone());
    meta.fingerprint = Some(fp_hex.clone());
    meta.canonical = Some(canonical.clone());
    let key = seed::mix(fingerprint, lane.tag());
    // Fingerprints can collide; only byte-equal requests may share a
    // cached body (the cache re-compares the canonical bytes). A
    // collision falls through and recomputes — correctness over a
    // colliding victim's hit rate.
    if let Some(cached) = shared.cache.get(key, &canonical) {
        shared.metrics.count(|c| &mut c.cache_hits);
        meta.cache = Some(true);
        return Response::json_shared(200, cached)
            .with_header("X-Hypdb-Cache", "hit")
            .with_header("X-Hypdb-Fingerprint", fp_hex);
    }
    let planner = &mut meta.planner;
    let mut compute = || -> Result<String, CoreError> {
        // One bind, one WHERE scan: the selection routes the request to
        // the shared oracle cache of its (dataset, rows) — requests
        // over the same rows hit one another's contingency/entropy
        // entries — and the
        // pipeline then runs on it. Resolved inside the (guarded)
        // compute path so the scan runs inline on the request worker,
        // never as an extra unguarded fan-out.
        let selection = areq.select(&table)?;
        let slot = shared.registry.oracle_cache(&areq.dataset, &selection.rows);
        let (table, base, cache) = (&*table, &shared.cfg.base, Some(&slot));
        // Snapshot the slot counters around the run: the difference is
        // this request's oracle-work delta for the journal.
        let before = slot.stats();
        let result = match lane {
            Lane::Analyze => wire::analyze_selected(table, &selection, &areq, base, cache)
                .map(|r| wire::report_body(&r)),
            Lane::Detect => wire::detect_selected(table, &selection, &areq, base, cache)
                .map(|r| wire::detect_body(&r)),
        };
        *planner = Some(slot.stats().since(&before));
        result
    };
    let result = if shared.guard {
        with_fanout_guard(compute)
    } else {
        compute()
    };
    match result {
        Ok(body) => {
            shared.metrics.count(|c| &mut c.cache_misses);
            meta.cache = Some(false);
            let body = Arc::new(body);
            shared.cache.insert(key, canonical, Arc::clone(&body));
            Response::json_shared(200, body)
                .with_header("X-Hypdb-Cache", "miss")
                .with_header("X-Hypdb-Fingerprint", fp_hex)
        }
        // Every pipeline error is request-shaped: bad SQL, unknown
        // attribute, empty selection, degenerate treatment.
        Err(e) => Response::error(400, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::Write;

    fn start(workers: usize, journal: Option<String>) -> ServerHandle {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            journal,
            ..ServeConfig::default()
        };
        Server::start(cfg, Registry::new()).expect("server starts")
    }

    fn histogram_count(shared: &Shared, family: &str) -> u64 {
        let text = scrape(shared);
        let prefix = format!("{family}_count ");
        let line = text.lines().find(|l| l.starts_with(&prefix));
        line.expect("family rendered")[prefix.len()..]
            .parse()
            .expect("count")
    }

    #[test]
    fn the_shutdown_wake_leaves_no_trace() {
        for workers in [1usize, 4] {
            let path = std::env::temp_dir()
                .join(format!("hypdb-wake-{}-{workers}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let mut handle = start(workers, Some(path.to_string_lossy().into_owned()));
            for _ in 0..5 {
                assert_eq!(client::get(handle.addr(), "/healthz").unwrap().status, 200);
            }
            handle.shutdown_inner();
            // Five requests, five hand-offs, five records: the wake-up
            // connection was accepted and dropped, nothing more.
            let m = handle.shared.metrics.snapshot();
            assert_eq!((m.requests, m.rejected, m.client_errors), (5, 0, 0));
            assert_eq!((m.in_flight, m.queue_depth), (0, 0));
            assert_eq!(
                histogram_count(&handle.shared, "hypdb_queue_wait_seconds"),
                5
            );
            let text = scrape(&handle.shared);
            let statuses: Vec<&str> = (text.lines())
                .filter(|l| l.starts_with("hypdb_requests_total{"))
                .collect();
            assert_eq!(statuses.len(), 1, "{text}");
            assert!(
                statuses[0].ends_with("{endpoint=\"other\",status=\"200\"} 5"),
                "{text}"
            );
            let journal = std::fs::read_to_string(&path).expect("journal written");
            assert_eq!(journal.lines().count(), 5, "{journal}");
            assert_eq!(handle.shared.requests_log.lock().len(), 5);
            // Idempotent: a second call (and then `Drop`) finds nothing
            // left to stop.
            handle.shutdown_inner();
            assert!(handle.acceptor.is_none() && handle.workers.is_empty());
            drop(handle);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_connection_accepted_after_the_flag_is_dropped_unqueued() {
        let mut handle = start(1, None);
        handle.shared.shutdown.store(true, Ordering::SeqCst);
        // A real client racing the shutdown: it is what the acceptor's
        // blocked `accept` returns, after the flag.
        let mut late = TcpStream::connect(handle.addr()).unwrap();
        let _ = late.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut raw = Vec::new();
        let _ = late.read_to_end(&mut raw);
        assert!(raw.is_empty(), "answered after the flag: {raw:?}");
        handle.shutdown_inner();
        let m = handle.shared.metrics.snapshot();
        assert_eq!((m.requests, m.rejected), (0, 0));
        assert_eq!(
            histogram_count(&handle.shared, "hypdb_queue_wait_seconds"),
            0
        );
    }

    #[test]
    fn the_wake_reaches_an_unspecified_bind_address_over_loopback() {
        let at = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(at("0.0.0.0:7878")), at("127.0.0.1:7878"));
        assert_eq!(wake_addr(at("[::]:7878")), at("[::1]:7878"));
        assert_eq!(wake_addr(at("127.0.0.1:9")), at("127.0.0.1:9"));
        assert_eq!(wake_addr(at("10.1.2.3:80")), at("10.1.2.3:80"));
    }

    #[test]
    fn a_closed_queue_releases_every_parked_worker() {
        // No timeout anywhere: workers parked on an empty queue leave
        // only because dropping the sender closed it.
        let (admit, queue) = mpsc::sync_channel::<Queued>(4);
        let queue = Mutex::new(queue);
        let metrics = Metrics::default();
        std::thread::scope(|scope| {
            let parked: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| next_connection(&queue, &metrics).is_none()))
                .collect();
            drop(admit);
            for worker in parked {
                assert!(worker.join().unwrap(), "closed and empty pops None");
            }
        });
        assert!(next_connection(&queue, &metrics).is_none());
        assert_eq!(metrics.snapshot().queue_depth, 0);
    }

    #[test]
    fn a_handler_panic_is_a_500_on_a_thread_that_goes_on() {
        let req = Request {
            method: "POST".into(),
            path: "/analyze".into(),
            body: String::new(),
        };
        let lock = Mutex::new(0u32);
        let resp = unwind_to_500(&req, || {
            let _held = lock.lock();
            panic!("a handler bug (this test's; the trace above is expected)")
        });
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body.as_str(), r#"{"error":"internal error"}"#);
        // The lock the handler died holding is still usable.
        *lock.lock() += 1;
        assert_eq!(
            unwind_to_500(&req, || Response::json(200, "{}")).status,
            200
        );
    }
}
