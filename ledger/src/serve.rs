//! `serve_mix`: an in-process server on adult 150k behind a real
//! loopback socket, driven by closed-loop clients that each follow a
//! seeded stream of report-cache hits, warm misses, `/detect` calls and
//! cold misses.

use crate::data::{self, ADULT_SQL};
use crate::inproc::check_report;
use crate::run::{Outcome, Window};
use crate::spec;
use hypdb_core::{wire, AnalyzeRequest, HypDbConfig, OracleCache};
use hypdb_exec::seed::mix;
use hypdb_obs::Tick;
use hypdb_serve::{client, Registry, ServeConfig, Server, ServerHandle};
use hypdb_store::ShardedTable;
use hypdb_table::{RowSet, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;

pub const CLIENTS: u64 = 2;
pub const WORKERS: usize = 2;
pub const POPULAR: usize = 8;
/// One in this many non-hit responses is re-derived offline.
pub const VERIFY_EVERY: u64 = 20;

const DATASET: &str = "adult";
/// Attributes a cold selection may filter on: everything categorical
/// except the query's own attributes, the key and the FD twin.
const FILTERABLE: [&str; 9] = [
    "Age",
    "WorkClass",
    "Education",
    "MaritalStatus",
    "Occupation",
    "Relationship",
    "Race",
    "HoursPerWeek",
    "NativeCountry",
];

/// The four request classes. Their shares of the stream are 65, 15, 10
/// and 10 percent ([`Class::per_block`]): enough cold misses that a 20 s window creates more
/// selections than the registry keeps oracle slots (64), so the peak
/// RSS is the plateau eviction holds it at, not a function of how many
/// ops the window happened to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A popular request, primed in set-up: served from the report cache.
    Hit,
    /// The popular selection under a new seed: the report cache misses,
    /// discovery reads the shared `OracleCache`.
    Warm,
    /// `/detect` on the popular selection under a new seed.
    Detect,
    /// A fresh `WHERE` selection: a new oracle slot, built from scans.
    Cold,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Hit, Class::Warm, Class::Detect, Class::Cold];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Warm => "warm",
            Class::Detect => "detect",
            Class::Cold => "cold",
        }
    }

    /// Requests of this class in every [`BLOCK`] of a stream.
    fn per_block(self) -> usize {
        match self {
            Class::Hit => 13,
            Class::Warm => 3,
            Class::Detect | Class::Cold => 2,
        }
    }
}

/// A stream is a sequence of blocks of this many requests; each block
/// holds every class in its exact share, in a seeded order. Independent
/// draws would let the count of cold misses in a window, which are 1 op
/// in 10 and 4 parts in 10 of the time, swing throughput by 5 %.
const BLOCK: usize = 20;

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOp {
    pub class: Class,
    /// Index into the popular set, for hits.
    pub popular: usize,
    pub request: AnalyzeRequest,
}

impl StreamOp {
    pub fn path(&self) -> &'static str {
        match self.class {
            Class::Detect => "/detect",
            _ => "/analyze",
        }
    }
}

/// The value domains cold selections draw from.
pub type Domains = Vec<(String, Vec<String>)>;

pub fn domains(table: &Table) -> Domains {
    FILTERABLE
        .iter()
        .map(|&name| {
            let attr = table
                .attr(name)
                .expect("adult schema has the filterable attributes");
            (
                name.to_string(),
                table.column(attr).dict().values().to_vec(),
            )
        })
        .collect()
}

pub fn popular_request(seed: u64, i: usize) -> AnalyzeRequest {
    let mut request = AnalyzeRequest::new(DATASET, ADULT_SQL);
    request.seed = Some(mix(mix(seed, 0x909), i as u64));
    request
}

/// A client's deterministic request stream: the same `(seed, client)`
/// gives the same requests in the same order, however many the window
/// leaves time for.
pub struct Stream {
    rng: StdRng,
    /// What is left of the current block.
    block: Vec<Class>,
    seed: u64,
    client: u64,
    issued: u64,
}

impl Stream {
    pub fn new(seed: u64, client: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(mix(mix(seed, 0xC11E), client)),
            block: Vec::with_capacity(BLOCK),
            seed,
            client,
            issued: 0,
        }
    }

    pub fn next(&mut self, domains: &Domains) -> StreamOp {
        if self.block.is_empty() {
            for class in Class::ALL {
                self.block
                    .extend(std::iter::repeat_n(class, class.per_block()));
            }
            self.block.shuffle(&mut self.rng);
        }
        let class = self.block.pop().expect("a block was just dealt");
        self.issued += 1;
        // Unique per (client, position): never a report-cache hit.
        let fresh = mix(mix(mix(self.seed, 0xF5E5), self.client), self.issued);
        let (popular, request) = match class {
            Class::Hit => {
                let i = self.rng.gen_range(0..POPULAR);
                (i, popular_request(self.seed, i))
            }
            Class::Warm | Class::Detect => {
                let mut request = AnalyzeRequest::new(DATASET, ADULT_SQL);
                request.seed = Some(fresh);
                (0, request)
            }
            Class::Cold => {
                let sql = ADULT_SQL.replace(
                    " GROUP BY",
                    &format!(" WHERE {} GROUP BY", self.cold_where(domains)),
                );
                let mut request = AnalyzeRequest::new(DATASET, sql);
                request.seed = Some(fresh);
                (0, request)
            }
        };
        StreamOp {
            class,
            popular,
            request,
        }
    }

    /// `A IN (..) AND B IN (..)` over two attributes, each keeping at
    /// least half of its domain and dropping at least one value, so the
    /// selection is never empty and never the whole table.
    fn cold_where(&mut self, domains: &Domains) -> String {
        let mut picks: Vec<usize> = (0..domains.len()).collect();
        picks.shuffle(&mut self.rng);
        picks.truncate(2);
        picks.sort_unstable();
        let clauses: Vec<String> = picks
            .into_iter()
            .map(|d| {
                let (attr, values) = &domains[d];
                let keep = self.rng.gen_range(values.len().div_ceil(2)..values.len());
                let mut chosen: Vec<usize> = (0..values.len()).collect();
                chosen.shuffle(&mut self.rng);
                chosen.truncate(keep);
                chosen.sort_unstable();
                let list: Vec<String> =
                    chosen.iter().map(|&v| format!("'{}'", values[v])).collect();
                format!("{attr} IN ({})", list.join(","))
            })
            .collect();
        clauses.join(" AND ")
    }
}

/// One completed request as a client saw it.
#[derive(Debug, Clone, Copy)]
pub struct ClientOp {
    pub class: Class,
    /// Seconds since the window opened.
    pub start: f64,
    pub latency: f64,
}

/// A response kept for offline re-derivation after the window.
struct Sampled {
    op: StreamOp,
    body: String,
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<ClientOp>,
    errors: Vec<String>,
    sampled: Vec<Sampled>,
}

/// What a mix window produced.
pub struct MixRun {
    pub ops: Vec<ClientOp>,
    pub elapsed: f64,
}

impl MixRun {
    pub fn latencies_ms(&self, class: Option<Class>) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .map(|o| o.latency * 1e3)
            .collect()
    }
}

/// A started, primed server and everything needed to drive and check it.
pub struct ServeMix {
    pub handle: ServerHandle,
    /// Shares the server's oracle slots (the registry is `Arc` inside).
    pub registry: Registry,
    pub addr: SocketAddr,
    seed: u64,
    /// Monolithic twin of the served table: the offline reference route.
    mono: Table,
    pub base: HypDbConfig,
    domains: Domains,
    /// Canonical request JSON and reference body of each popular request.
    popular: Vec<(String, String)>,
}

impl ServeMix {
    /// Generates adult 150k, starts the server, derives the popular
    /// requests' reference bodies offline and primes the report cache
    /// with them over the socket.
    pub fn setup(seed: u64) -> Result<ServeMix, String> {
        let mono = data::adult_sample(seed);
        let base = HypDbConfig::default();
        let mut registry = Registry::new();
        registry.insert(DATASET, &mono);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            journal: None,
            base,
            ..ServeConfig::default()
        };
        let handle =
            Server::start(cfg, registry.clone()).map_err(|e| format!("server start: {e}"))?;
        let addr = handle.addr();

        let offline = Arc::new(OracleCache::new());
        let mut popular = Vec::with_capacity(POPULAR);
        for i in 0..POPULAR {
            let request = popular_request(seed, i);
            let report = wire::analyze_cached(&mono, &request, &base, Some(&offline))
                .map_err(|e| e.to_string())?;
            if i == 0 {
                check_report(spec::SERVE_MIX, &report)?;
            }
            let reference = wire::report_body(&report);
            let canonical = request.canonical_json();
            let primed = client::post_json(addr, "/analyze", &canonical)
                .map_err(|e| format!("priming popular request {i}: {e}"))?;
            if primed.status != 200 || primed.body != reference {
                return Err(format!(
                    "popular request {i}: served status {} and body {} the offline reference",
                    primed.status,
                    if primed.body == reference {
                        "equal to"
                    } else {
                        "different from"
                    }
                ));
            }
            popular.push((canonical, reference));
        }
        let domains = domains(&mono);
        Ok(ServeMix {
            handle,
            registry,
            addr,
            seed,
            mono,
            base,
            domains,
            popular,
        })
    }

    /// The served table.
    pub fn table(&self) -> Arc<ShardedTable> {
        self.registry.get(DATASET).expect("registered in set-up")
    }

    /// The oracle slot the popular selection (the whole table) shares.
    pub fn popular_slot(&self) -> Arc<OracleCache> {
        self.registry
            .oracle_cache(DATASET, &RowSet::All(self.mono.nrows() as u32))
    }

    /// Untimed requests of every class from a stream of their own.
    pub fn warm_up(&self, rounds: usize) -> Result<(), String> {
        let mut log = ClientLog::default();
        let mut stream = Stream::new(self.seed, u64::MAX);
        for _ in 0..rounds * 10 {
            self.issue(&mut stream, &Tick::now(), &mut log);
        }
        match log.errors.first() {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(()),
        }
    }

    /// Sends the stream's next request and checks the response.
    fn issue(&self, stream: &mut Stream, window: &Tick, log: &mut ClientLog) {
        let op = stream.next(&self.domains);
        let hit = (op.class == Class::Hit).then(|| &self.popular[op.popular]);
        let canonical;
        let body = match hit {
            Some((canonical, _)) => canonical.as_str(),
            None => {
                canonical = op.request.canonical_json();
                canonical.as_str()
            }
        };
        let start = window.elapsed_secs();
        let sent = Tick::now();
        let response = client::post_json(self.addr, op.path(), body);
        let latency = sent.elapsed_secs();
        log.ops.push(ClientOp {
            class: op.class,
            start,
            latency,
        });
        match response {
            Err(e) => log
                .errors
                .push(format!("{} {}: {e}", op.class.name(), op.path())),
            Ok(r) if r.status != 200 => log.errors.push(format!(
                "{} {}: status {} {}",
                op.class.name(),
                op.path(),
                r.status,
                r.body
            )),
            Ok(r) => match hit {
                Some((_, reference)) if r.body != *reference => log.errors.push(format!(
                    "hit {}: body differs from the reference",
                    op.popular
                )),
                Some(_) => {}
                None if stream.issued.is_multiple_of(VERIFY_EVERY) => {
                    log.sampled.push(Sampled { op, body: r.body })
                }
                None => {}
            },
        }
    }

    /// The timed window: `CLIENTS` closed-loop clients, each until
    /// `seconds` have passed and it has done its share of `min_ops`.
    /// Every hit is compared with its reference as it arrives; the
    /// sampled misses are re-derived offline once the window has closed.
    pub fn mix(&self, seconds: f64, min_ops: usize, out: &mut Outcome) -> MixRun {
        let min_ops = min_ops.div_ceil(CLIENTS as usize);
        let window = Tick::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let window = &window;
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut stream = Stream::new(self.seed, c);
                        while window.elapsed_secs() < seconds || log.ops.len() < min_ops {
                            self.issue(&mut stream, window, &mut log);
                        }
                        log
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = window.elapsed_secs();
        let mut ops = Vec::new();
        for log in logs {
            out.attempted += log.ops.len() as u64;
            ops.extend(log.ops);
            log.errors.into_iter().for_each(|e| out.fail(e));
            for sample in &log.sampled {
                if let Err(why) = self.verify(sample) {
                    out.fail(why);
                }
            }
        }
        MixRun { ops, elapsed }
    }

    /// [`Self::mix`] as the end-to-end window.
    pub fn run(&self, seconds: f64, min_ops: usize, out: &mut Outcome) -> Window {
        let mix = self.mix(seconds, min_ops, out);
        for class in Class::ALL {
            let ms = mix.latencies_ms(Some(class));
            eprintln!(
                "serve_mix: {:>6} {:>5} ops, p50 {:.3} ms",
                class.name(),
                ms.len(),
                crate::stats::median(&ms)
            );
        }
        Window {
            latencies: mix.ops.iter().map(|o| o.latency).collect(),
            elapsed: mix.elapsed,
        }
    }

    /// Re-derives a sampled response offline, on the monolithic table.
    fn verify(&self, sample: &Sampled) -> Result<(), String> {
        let request = &sample.op.request;
        let expected = match sample.op.class {
            Class::Detect => {
                wire::detect(&self.mono, request, &self.base).map(|r| wire::detect_body(&r))
            }
            _ => wire::analyze(&self.mono, request, &self.base).map(|r| wire::report_body(&r)),
        }
        .map_err(|e| e.to_string())?;
        if expected == sample.body {
            Ok(())
        } else {
            Err(format!(
                "{} response differs from the offline result for {}",
                sample.op.class.name(),
                request.canonical_json()
            ))
        }
    }

    /// Closes the run: the server must have refused nothing and seen
    /// no client error; then it drains and stops.
    pub fn finish(self, out: &mut Outcome) -> hypdb_serve::MetricsSnapshot {
        let metrics = self.handle.shutdown();
        if metrics.rejected != 0 || metrics.client_errors != 0 {
            out.fail(format!(
                "server counted {} rejected and {} client-error requests; both must be 0",
                metrics.rejected, metrics.client_errors
            ));
        }
        metrics
    }

    /// Canonical JSON of popular request `i`.
    pub fn popular_json(&self, i: usize) -> &str {
        &self.popular[i].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_datasets as ds;

    fn small_adult() -> Table {
        ds::adult_data(&ds::AdultConfig {
            rows: 4_000,
            seed: 5,
        })
    }

    #[test]
    fn stream_is_reproducible_per_seed_and_client() {
        let d = domains(&small_adult());
        let take = |seed, client| {
            let mut s = Stream::new(seed, client);
            (0..200).map(|_| s.next(&d)).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
    }

    #[test]
    fn stream_follows_the_mix_and_never_repeats_a_miss() {
        let d = domains(&small_adult());
        let mut s = Stream::new(7, 0);
        let ops: Vec<StreamOp> = (0..4000).map(|_| s.next(&d)).collect();
        let count = |c| ops.iter().filter(|o| o.class == c).count();
        assert_eq!(
            Class::ALL.map(Class::per_block).iter().sum::<usize>(),
            BLOCK
        );
        assert_eq!(
            Class::ALL.map(count),
            [2600, 600, 400, 400],
            "65/15/10/10 exactly"
        );
        assert!(ops
            .chunks(BLOCK)
            .all(|b| b.iter().filter(|o| o.class == Class::Cold).count() == 2));
        let mut misses: Vec<String> = ops
            .iter()
            .filter(|o| o.class != Class::Hit)
            .map(|o| format!("{}{}", o.path(), o.request.canonical_json()))
            .collect();
        let n = misses.len();
        misses.sort();
        misses.dedup();
        assert_eq!(misses.len(), n, "a repeated miss would be a cache hit");
    }

    #[test]
    fn every_cold_selection_is_non_empty_and_keeps_both_groups() {
        let table = small_adult();
        let d = domains(&table);
        let mut s = Stream::new(11, 1);
        let mut selections = std::collections::BTreeSet::new();
        let mut cold = 0;
        while cold < 150 {
            let op = s.next(&d);
            if op.class != Class::Cold {
                continue;
            }
            cold += 1;
            let query = op.request.query(&table).expect("cold SQL binds");
            let rows = query.predicate.select(&table);
            assert!(
                !rows.is_empty() && rows.len() < table.nrows(),
                "{}",
                op.request.sql
            );
            let levels = hypdb_table::group_counts(&table, &rows, &[query.treatment]);
            assert_eq!(levels.len(), 2, "{}", op.request.sql);
            selections.insert(op.request.sql.clone());
        }
        assert!(
            selections.len() > 64,
            "{} distinct selections",
            selections.len()
        );
    }
}
