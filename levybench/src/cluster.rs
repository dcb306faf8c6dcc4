//! `cluster_mix`: closed-loop clients against three in-process `levyd`
//! nodes, driven only through `Server::start` and `Client`.
//!
//! The nodes run with replication 2 and the prober off; each request
//! enters through a random node. Zipf keys over a set larger than a
//! node's memory tier plus 2% never-seen keys exercise every cluster
//! path: local hit, peek hit, forward and local miss. Half the requests
//! are JSON, half LW1.
//!
//! Every body is compared with `levy_served::engine::execute` for the
//! same query: JSON byte for byte, LW1 against the oracle's encoding,
//! which decodes back to the oracle's JSON bytes.
//!
//! The timed window runs in 1 s slices. Between slices the clients
//! pause while the loopback host reference runs, and each slice's
//! figures are scaled to the reference's nominal speed (see `hostref`).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use levy_obs::{SpanContext, SpanId, TraceId};
use levy_served::engine;
use levy_served::request::Estimator;
use levy_served::{wirecodec, CacheConfig, Client, ClusterConfig, Query, Server, ServerConfig};
use levy_sim::{CancelToken, Json};

use crate::hostref::{HostRef, Reference};
use crate::layers;
use crate::loadgen::{mix, query_json, Format, Shape, SplitMix, Traffic, FRESH_BASE};
use crate::report::{
    median, metric, peak_rss_mb, quantile, ratio, reset_peak_rss, Metric, Outcome,
};
use crate::trace::{self, Clock, Recorder, SpanRec};
use crate::Args;

/// Closed-loop clients (one open connection each).
const CLIENTS: usize = 2;
/// `levyd`'s default memory tier.
const MEM_CAPACITY: usize = 256;
const NODES: usize = 3;
const REPLICATION: usize = 2;
/// Each node holds `REPLICATION / NODES` of the keys: 512, twice its
/// memory tier.
const SHAPE: Shape = Shape {
    working_set: 3 * MEM_CAPACITY,
    zipf_s: 1.0,
    fresh_share: 0.02,
    nodes: NODES,
};
/// Requests per client after warming, before the window opens.
const WARMUP_REQUESTS: usize = 1500;
/// Samples a client's log is sized for per second, several times what a
/// client reaches, so the log never reallocates while timed.
const SAMPLES_PER_S: usize = 6000;
/// Requests per client in each half of the traced run (or fewer, if the
/// half's time runs out first). This bounds the fragments the traced
/// nodes hold until they are read.
const TRACED_REQUESTS: usize = 6000;
/// Trace ring per node in the traced run, enough to hold every fragment
/// of the set-up and the traced half so that none is evicted before it
/// is read (`levyd`'s default keeps 256).
const TRACED_RING: usize = 1 << 15;

/// One key's request bodies and, once known, its oracle bodies.
#[derive(Clone)]
pub struct Key {
    pub json: String,
    pub wire: Vec<u8>,
    pub trials: u64,
    pub cache_key: String,
    pub expect_json: Vec<u8>,
    pub expect_wire: Vec<u8>,
}

impl Key {
    fn new(seed: u64, id: u64) -> Key {
        let json = query_json(seed, id);
        let query = parse_query(&json);
        let trials = match query.estimator {
            Estimator::Trials(t) => t,
            Estimator::Adaptive(p) => p.max_trials,
        };
        Key {
            wire: wirecodec::encode_query(&query),
            cache_key: query.cache_key(),
            json,
            trials,
            expect_json: Vec::new(),
            expect_wire: Vec::new(),
        }
    }

    /// Fills the oracle bodies; `Err` if the LW1 encoding does not decode
    /// back to the JSON bytes.
    fn compute_oracle(&mut self) -> Result<(), String> {
        let query = parse_query(&self.json);
        let body = engine::execute(&query, 1, &CancelToken::new())
            .ok_or("uncancelled execution returns a body")?;
        self.expect_json = body.to_string_pretty().into_bytes();
        self.expect_wire = wirecodec::encode_result(&body)?;
        let back = wirecodec::decode_result_to_json(&self.expect_wire)?.to_string_pretty();
        if back.as_bytes() != self.expect_json.as_slice() {
            return Err(format!(
                "LW1 oracle for {} does not decode to its JSON",
                self.cache_key
            ));
        }
        Ok(())
    }

    fn expected(&self, format: Format) -> &[u8] {
        match format {
            Format::Json => &self.expect_json,
            Format::Lw1 => &self.expect_wire,
        }
    }
}

pub fn parse_query(json: &str) -> Query {
    let parsed = Json::parse(json).expect("generated bodies are valid JSON");
    Query::from_json(&parsed).expect("generated bodies are valid queries")
}

/// Keys by id: the working set, with oracles computed before set-up.
/// A never-seen key is built when a client draws it; its oracle is
/// computed after the window.
struct KeyBook {
    seed: u64,
    working: Vec<Key>,
}

impl KeyBook {
    fn get(&self, id: u64) -> Cow<'_, Key> {
        if id >= FRESH_BASE {
            Cow::Owned(Key::new(self.seed, id))
        } else {
            Cow::Borrowed(&self.working[id as usize])
        }
    }
}

/// How a cluster request was answered, from its response headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    LocalHit,
    PeekHit,
    Forward,
    LocalMiss,
}

/// Each path with its name and its per-layer p50/p99 latency metrics.
const PATHS: [(Path, &str, [&str; 2]); 4] = [
    (
        Path::LocalHit,
        "local_hit",
        ["cluster.local_hit_p50_ms", "cluster.local_hit_p99_ms"],
    ),
    (
        Path::PeekHit,
        "peek_hit",
        ["cluster.peek_hit_p50_ms", "cluster.peek_hit_p99_ms"],
    ),
    (
        Path::Forward,
        "forward",
        ["cluster.forward_p50_ms", "cluster.forward_p99_ms"],
    ),
    (
        Path::LocalMiss,
        "local_miss",
        ["cluster.local_miss_p50_ms", "cluster.local_miss_p99_ms"],
    ),
];

fn classify(response: &levy_served::http::Response) -> Option<(Path, bool)> {
    let home = response.header("x-levy-home-cache");
    match response.header("x-levy-cache")? {
        "hit" => Some((Path::LocalHit, false)),
        "remote" => Some((Path::PeekHit, false)),
        "forwarded" => Some((Path::Forward, home != Some("hit"))),
        "miss" | "coalesced" => Some((Path::LocalMiss, true)),
        _ => None,
    }
}

/// One answered request, kept to 12 bytes: the clients' logs live in
/// the process whose peak resident set is measured.
#[derive(Debug, Clone, Copy)]
struct Sample {
    lat_us: f32,
    trials: u32,
    /// The slice of the window it completed in.
    slice: u16,
    path: Path,
    cold: bool,
}

const _: () = assert!(std::mem::size_of::<Sample>() == 12);

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Never-seen-key bodies, checked once their oracle exists.
    pending: Vec<(u64, Format, Vec<u8>)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Drives requests from one client until `until`, starting and (when
/// sliced) pausing at `pace` with the other clients and the driving
/// thread. Every request carries a `traceparent`; a traced client also
/// records a span per request, and the servers' fragments are read by
/// trace id after the window.
fn drive(
    traffic: &mut Traffic,
    addrs: &[String],
    book: &KeyBook,
    ids: &mut SplitMix,
    until: Until,
    pace: &Barrier,
    mut rec: Option<&mut Recorder>,
) -> ClientLog {
    let clients: Vec<Client> = addrs
        .iter()
        .map(|a| Client::new(a).with_timeout(Duration::from_secs(30)))
        .collect();
    let mut log = ClientLog::default();
    let mut send = |log: &mut ClientLog, slice: u16| {
        let req = traffic.next_request();
        let key = book.get(req.key);
        let trace = (u128::from(ids.next_u64()) << 64) | u128::from(ids.next_u64() | 1);
        let span = ids.next_u64() | 1;
        let traceparent = SpanContext {
            trace_id: TraceId(trace),
            span_id: SpanId(span),
        }
        .to_traceparent();
        let client = &clients[req.entry];
        let start = Instant::now();
        let result = match req.format {
            Format::Json => client.request_with_headers(
                "POST",
                "/v1/query",
                &[("traceparent", &traceparent)],
                key.json.as_bytes(),
            ),
            Format::Lw1 => client.request_full(
                "POST",
                "/v1/query",
                levy_wire::MEDIA_TYPE,
                &[
                    ("Accept", levy_wire::MEDIA_TYPE),
                    ("traceparent", &traceparent),
                ],
                &key.wire,
            ),
        };
        let end = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.record_with_id(span, "client_request", 0, start, end, trace);
        }
        log.attempted += 1;
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("transport error: {e}"));
                return;
            }
        };
        let classified = classify(&response);
        if response.status != 200 || classified.is_none() {
            log.failed += 1;
            log.problems.push(format!(
                "status {} cache {:?} for {}",
                response.status,
                response.header("x-levy-cache"),
                key.cache_key
            ));
            return;
        }
        // The byte comparison runs after the request's clock stopped.
        if req.key >= FRESH_BASE {
            log.pending.push((req.key, req.format, response.body));
        } else if response.body != key.expected(req.format) {
            log.failed += 1;
            log.problems.push(format!(
                "{:?} body for {} differs from the oracle",
                req.format, key.cache_key
            ));
            return;
        }
        let (path, cold) = classified.expect("checked above");
        log.samples.push(Sample {
            lat_us: end.duration_since(start).as_secs_f32() * 1e6,
            trials: u32::try_from(key.trials).unwrap_or(u32::MAX),
            slice,
            path,
            cold,
        });
    };
    match until {
        Until::Requests { requests, deadline } => {
            if let Some(d) = deadline {
                let secs = d.saturating_duration_since(Instant::now()).as_secs() as usize + 1;
                log.samples.reserve((SAMPLES_PER_S * secs).min(requests));
            }
            pace.wait();
            let mut sent = 0usize;
            while sent < requests && deadline.is_none_or(|d| Instant::now() < d) {
                sent += 1;
                send(&mut log, 0);
            }
        }
        Until::Slices { slices, slice } => {
            let secs = (slice * slices as u32).as_secs() as usize + 1;
            log.samples.reserve(SAMPLES_PER_S * secs);
            for k in 0..slices {
                pace.wait();
                let end = Instant::now() + slice;
                while Instant::now() < end {
                    send(&mut log, k as u16);
                }
                pace.wait();
            }
        }
    }
    log
}

/// When clients stop.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// After `requests` each, or at `deadline`, whichever comes first.
    Requests {
        requests: usize,
        deadline: Option<Instant>,
    },
    /// After `slices` slices of `slice` each. Between slices every
    /// client pauses while the host reference runs.
    Slices { slices: usize, slice: Duration },
}

/// One slice of a sliced window: from its opening until the last client
/// paused, and the host reference's factor around it.
#[derive(Debug, Clone, Copy)]
struct SliceTime {
    secs: f64,
    factor: f64,
}

/// Runs `CLIENTS` closed-loop clients in parallel. A sliced run
/// brackets every slice with `host`.
#[allow(clippy::too_many_arguments)]
fn drive_all(
    traffics: &mut [Traffic],
    ids: &mut [SplitMix],
    nodes: &Nodes,
    book: &KeyBook,
    until: Until,
    host: Option<&mut HostRef>,
    recs: Option<&mut [Recorder]>,
) -> (Vec<ClientLog>, Vec<SliceTime>) {
    let barrier = Barrier::new(traffics.len() + 1);
    std::thread::scope(|scope| {
        let mut recs: Vec<Option<&mut Recorder>> = match recs {
            Some(r) => r.iter_mut().map(Some).collect(),
            None => traffics.iter().map(|_| None).collect(),
        };
        let handles: Vec<_> = traffics
            .iter_mut()
            .zip(ids.iter_mut())
            .zip(recs.drain(..))
            .map(|((traffic, ids), rec)| {
                let barrier = &barrier;
                scope.spawn(move || drive(traffic, &nodes.addrs, book, ids, until, barrier, rec))
            })
            .collect();
        let mut times = Vec::new();
        match until {
            Until::Requests { .. } => {
                barrier.wait();
            }
            Until::Slices { slices, .. } => {
                let host = host.expect("a sliced run needs a host reference");
                for _ in 0..slices {
                    let before = host.latest();
                    barrier.wait();
                    let start = Instant::now();
                    barrier.wait();
                    let secs = start.elapsed().as_secs_f64();
                    let after = host.measure();
                    times.push(SliceTime {
                        secs,
                        factor: HostRef::between(before, after),
                    });
                }
            }
        }
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, times)
    })
}

/// The running nodes of one cluster.
struct Nodes {
    servers: Vec<Server>,
    addrs: Vec<String>,
}

impl Nodes {
    fn start(trace_capacity: usize) -> Nodes {
        for attempt in 0.. {
            match Nodes::try_start(trace_capacity) {
                Ok(nodes) => return nodes,
                Err(e) if attempt < 5 => eprintln!("levybench: boot retry after {e}"),
                Err(e) => panic!("cannot boot the cluster: {e}"),
            }
        }
        unreachable!()
    }

    /// Boots `NODES` nodes with `levyd`'s defaults, replication 2, the
    /// prober off and a ring of `trace_capacity` finished traces.
    fn try_start(trace_capacity: usize) -> std::io::Result<Nodes> {
        // Reserve ports first so every node can name its peers.
        let listeners: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()?;
        drop(listeners);
        let mut servers: Vec<Server> = Vec::new();
        for addr in &addrs {
            let config = ServerConfig {
                addr: addr.clone(),
                quiet: true,
                trace_capacity,
                cluster: Some(ClusterConfig {
                    self_addr: addr.clone(),
                    peers: addrs.iter().filter(|a| *a != addr).cloned().collect(),
                    replication: REPLICATION,
                    probe_interval_ms: 0,
                    ..ClusterConfig::default()
                }),
                ..ServerConfig::default()
            };
            match Server::start(config) {
                Ok(server) => servers.push(server),
                Err(e) => {
                    servers.into_iter().for_each(Server::shutdown);
                    return Err(e);
                }
            }
        }
        Ok(Nodes { servers, addrs })
    }

    fn settle(&self) {
        for s in &self.servers {
            assert!(
                s.settle_replication(Duration::from_secs(30)),
                "replication did not settle"
            );
        }
    }

    fn shutdown(self) {
        self.servers.into_iter().for_each(Server::shutdown);
    }
}

/// Server counters summed over nodes.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sims: f64,
    coalesced: f64,
    rejected: f64,
    peek_hits: f64,
    peek_misses: f64,
    forwards: f64,
    fallbacks: f64,
    replica_writes: f64,
    mem_hits: f64,
    misses: f64,
    evictions: f64,
}

impl Counters {
    fn read(servers: &[Server]) -> Counters {
        let mut c = Counters::default();
        for s in servers {
            let st = s.stats();
            c.sims += st.simulations_started.get() as f64;
            c.coalesced += st.coalesced.get() as f64;
            c.rejected += st.rejected_queue_full.get() as f64;
            c.peek_hits += st.cluster_peek_hits.get() as f64;
            c.peek_misses += st.cluster_peek_misses.get() as f64;
            c.forwards += st.cluster_forwards.get() as f64;
            c.fallbacks += st.cluster_local_fallbacks.get() as f64;
            c.replica_writes += st.cluster_replica_writes.get() as f64;
            let cache = s.cache_stats();
            let get = |k: &str| cache.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            c.mem_hits += get("mem_hits");
            c.misses += get("misses");
            c.evictions += get("evictions");
        }
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            sims: self.sims - before.sims,
            coalesced: self.coalesced - before.coalesced,
            rejected: self.rejected - before.rejected,
            peek_hits: self.peek_hits - before.peek_hits,
            peek_misses: self.peek_misses - before.peek_misses,
            forwards: self.forwards - before.forwards,
            fallbacks: self.fallbacks - before.fallbacks,
            replica_writes: self.replica_writes - before.replica_writes,
            mem_hits: self.mem_hits - before.mem_hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// Everything a set-up leaves behind for the window.
struct Ready {
    nodes: Nodes,
    traffics: Vec<Traffic>,
    ids: Vec<SplitMix>,
}

/// One set-up: boots the nodes, sends every working-set key once, then
/// runs `WARMUP_REQUESTS` of Zipf traffic per client so the caches reach
/// their steady state. The same seed gives the same requests, so two
/// set-ups leave (up to the two clients' interleaving) the same caches.
fn boot(seed: u64, book: &KeyBook, trace_capacity: usize, out: &mut Outcome) -> Ready {
    let nodes = Nodes::start(trace_capacity);
    // Warm: each key once, JSON, through a seeded entry node.
    let all: Vec<u64> = (0..SHAPE.working_set as u64).collect();
    let warm: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(CLIENTS))
            .map(|chunk| {
                let addrs = &nodes.addrs;
                scope.spawn(move || warm_keys(chunk, addrs, book, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread"))
            .collect()
    });
    nodes.settle();
    let mut traffics: Vec<Traffic> = (0..CLIENTS)
        .map(|c| Traffic::new(seed, c, CLIENTS, SHAPE))
        .collect();
    let mut ids: Vec<SplitMix> = (0..CLIENTS)
        .map(|c| SplitMix::new(mix(seed, 0x1d5 + c as u64)))
        .collect();
    let (logs, _) = drive_all(
        &mut traffics,
        &mut ids,
        &nodes,
        book,
        Until::Requests {
            requests: WARMUP_REQUESTS,
            deadline: None,
        },
        None,
        None,
    );
    nodes.settle();
    absorb_failures(out, warm);
    // The stated shape: every cluster path shows while warming.
    for (path, name, _) in PATHS {
        let seen = logs.iter().flat_map(|l| &l.samples).any(|s| s.path == path);
        out.check(seen, || format!("set-up: no {name} request while warming"));
    }
    absorb_failures(out, logs);
    Ready {
        nodes,
        traffics,
        ids,
    }
}

/// Three set-ups with `levyd`'s trace ring, each bracketed by the host
/// reference; the last set of nodes is kept. Returns the median time,
/// raw and scaled to nominal host speed.
fn setup(seed: u64, book: &KeyBook, host: &mut HostRef, out: &mut Outcome) -> (Ready, f64, f64) {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut kept: Option<Ready> = None;
    host.gap();
    for _ in 0..3 {
        if let Some(old) = kept.take() {
            old.nodes.shutdown();
        }
        let before = host.latest();
        let start = Instant::now();
        kept = Some(boot(
            seed,
            book,
            ServerConfig::default().trace_capacity,
            out,
        ));
        let secs = start.elapsed().as_secs_f64();
        raw.push(secs);
        scaled.push(secs / HostRef::between(before, host.measure()));
    }
    (
        kept.expect("three set-ups ran"),
        median(&raw),
        median(&scaled),
    )
}

/// Sends each key in `ids` once as JSON; entry node by key hash.
fn warm_keys(ids: &[u64], addrs: &[String], book: &KeyBook, seed: u64) -> ClientLog {
    let mut log = ClientLog::default();
    for &id in ids {
        let key = &book.working[id as usize];
        let entry = (mix(seed, id ^ 0x3a7) % addrs.len() as u64) as usize;
        let client = Client::new(&addrs[entry]).with_timeout(Duration::from_secs(30));
        let start = Instant::now();
        let result = client.post("/v1/query", &key.json);
        let lat_us = start.elapsed().as_secs_f32() * 1e6;
        log.attempted += 1;
        match result {
            Ok(r) if r.status == 200 && r.body == key.expect_json => {
                if let Some((path, cold)) = classify(&r) {
                    log.samples.push(Sample {
                        lat_us,
                        trials: 0,
                        slice: 0,
                        path,
                        cold,
                    });
                }
            }
            Ok(r) => {
                log.failed += 1;
                log.problems.push(format!(
                    "warming {}: status {} or body mismatch",
                    key.cache_key, r.status
                ));
            }
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("warming {}: {e}", key.cache_key));
            }
        }
    }
    log
}

fn absorb_failures(out: &mut Outcome, logs: Vec<ClientLog>) {
    for log in logs {
        out.failed += log.failed;
        out.attempted += log.attempted;
        out.problems.extend(log.problems.into_iter().take(5));
    }
}

/// Checks never-seen-key bodies against their oracles, computed here
/// once per key.
fn check_pending(
    book: &KeyBook,
    oracles: &mut HashMap<u64, Key>,
    logs: &mut [ClientLog],
    out: &mut Outcome,
) {
    for log in logs.iter_mut() {
        for (id, format, body) in log.pending.drain(..) {
            let key = oracles.entry(id).or_insert_with(|| {
                let mut key = book.get(id).into_owned();
                if let Err(e) = key.compute_oracle() {
                    out.problems.push(e);
                }
                key
            });
            if body != key.expected(format) {
                log.failed += 1;
                log.problems.push(format!(
                    "{format:?} body for never-seen key {} differs from the oracle",
                    key.cache_key
                ));
            }
        }
    }
}

/// A rate over the whole window, `value` summed over samples per
/// second, each slice's time divided by `factor(slice)`: the sum averages
/// out the noise of single reference measurements.
fn window_rate(
    samples: &[Sample],
    slices: &[SliceTime],
    factor: &impl Fn(&SliceTime) -> f64,
    value: impl Fn(&Sample) -> f64,
) -> f64 {
    let secs: f64 = slices.iter().map(|t| t.secs / factor(t)).sum();
    ratio(samples.iter().map(value).sum(), secs)
}

/// Median over slices of each slice's `q`-quantile of latency (ms)
/// among samples passing `keep`, divided by `factor(slice)`: a burst of
/// host noise in one slice does not move it.
fn slice_quantile(
    samples: &[Sample],
    slices: &[SliceTime],
    factor: &impl Fn(&SliceTime) -> f64,
    keep: impl Fn(&Sample) -> bool,
    q: f64,
) -> f64 {
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices.len()];
    for s in samples.iter().filter(|s| keep(s)) {
        by_slice[usize::from(s.slice)].push(f64::from(s.lat_us) / 1e3);
    }
    let per_slice: Vec<f64> = by_slice
        .iter()
        .zip(slices)
        .filter(|(v, _)| !v.is_empty())
        .map(|(v, t)| quantile(v, q) / factor(t))
        .collect();
    median(&per_slice)
}

/// The end-to-end metrics, each slice's times divided by
/// `factor(slice)` (its reference factor, or 1 for the raw figures).
fn end_to_end(
    setup_s: f64,
    peak_mb: f64,
    samples: &[Sample],
    slices: &[SliceTime],
    factor: impl Fn(&SliceTime) -> f64,
) -> Vec<Metric> {
    let f = &factor;
    vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "trials_per_s",
            window_rate(samples, slices, f, |s| f64::from(s.trials)),
            "1/s",
        ),
        metric(
            "queries_per_s",
            window_rate(samples, slices, f, |_| 1.0),
            "1/s",
        ),
        metric(
            "latency_p50_ms",
            slice_quantile(samples, slices, f, |_| true, 0.5),
            "ms",
        ),
        metric(
            "latency_p90_ms",
            slice_quantile(samples, slices, f, |_| true, 0.90),
            "ms",
        ),
        metric(
            "cold_latency_p50_ms",
            slice_quantile(samples, slices, f, |s| s.cold, 0.5),
            "ms",
        ),
        metric("peak_rss_mb", peak_mb, "MiB"),
    ]
}

/// The stated sizing: each node's share of the working set (replication
/// / nodes of the keys) exceeds `levyd`'s default memory tier, so memory
/// alone cannot hold it.
fn shape_holds() -> bool {
    CacheConfig::default().mem_capacity == MEM_CAPACITY
        && SHAPE.working_set * REPLICATION / NODES > MEM_CAPACITY
}

fn build_book(seed: u64, out: &mut Outcome) -> KeyBook {
    let mut working: Vec<Key> = (0..SHAPE.working_set as u64)
        .map(|id| Key::new(seed, id))
        .collect();
    for key in &mut working {
        if let Err(e) = key.compute_oracle() {
            out.problems.push(e);
        }
    }
    KeyBook { seed, working }
}

/// One timed window: what the clients saw and the servers' counters.
struct Window {
    /// From the window's start until the last client stopped.
    secs: f64,
    logs: Vec<ClientLog>,
    /// A sliced window's slices.
    slices: Vec<SliceTime>,
    delta: Counters,
}

fn timed(
    ready: &mut Ready,
    book: &KeyBook,
    until: Until,
    host: Option<&mut HostRef>,
    recs: Option<&mut [Recorder]>,
) -> Window {
    let before = Counters::read(&ready.nodes.servers);
    let start = Instant::now();
    let (logs, slices) = drive_all(
        &mut ready.traffics,
        &mut ready.ids,
        &ready.nodes,
        book,
        until,
        host,
        recs,
    );
    let secs = start.elapsed().as_secs_f64();
    ready.nodes.settle();
    let delta = Counters::read(&ready.nodes.servers).since(&before);
    Window {
        secs,
        logs,
        slices,
        delta,
    }
}

fn samples(w: &Window) -> Vec<Sample> {
    w.logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect()
}

/// The stated shape of a timed window: every path, no local fallback.
fn check_window(w: &Window, label: &str, out: &mut Outcome) {
    for (path, name, _) in PATHS {
        let seen = w
            .logs
            .iter()
            .flat_map(|l| &l.samples)
            .any(|s| s.path == path);
        out.check(seen, || format!("no {name} request in the {label} window"));
    }
    out.check(w.delta.fallbacks == 0.0, || {
        format!("{} local fallbacks with every node up", w.delta.fallbacks)
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let book = build_book(args.seed, &mut out);
    out.check(shape_holds(), || "working set off its stated shape".into());
    // The peak from here to the window's end is the nodes' plus the
    // clients' logs, not building the oracles or checking afterwards.
    reset_peak_rss();
    let mut oracles = HashMap::new();
    if !args.trace {
        let mut host = HostRef::new(Reference::Loopback).expect("loopback reference");
        let (mut ready, raw_setup_s, setup_s) = setup(args.seed, &book, &mut host, &mut out);
        let until = Until::Slices {
            slices: args.seconds as usize,
            slice: Duration::from_secs(1),
        };
        host.gap();
        let mut w = timed(&mut ready, &book, until, Some(&mut host), None);
        let peak_mb = peak_rss_mb();
        ready.nodes.shutdown();
        check_pending(&book, &mut oracles, &mut w.logs, &mut out);
        check_window(&w, "timed", &mut out);
        let all = samples(&w);
        out.metrics = end_to_end(setup_s, peak_mb, &all, &w.slices, |t| t.factor);
        out.raw = end_to_end(raw_setup_s, peak_mb, &all, &w.slices, |_| 1.0);
        out.raw
            .push(metric("host_factor_p50", median(&host.factors), "ratio"));
        absorb_failures(&mut out, w.logs);
        return out;
    }

    // Untraced (U) and traced (T) runs in the order U T T U, each on a
    // cluster booted and warmed from the same seed, so all send the same
    // requests to the same cache state. The overhead compares the mean U
    // and T rates, so a steady drift of the host's speed cancels. Only T
    // records client spans, and its nodes keep a ring large enough that
    // all its fragments are read after its window; the first T run gives
    // the per-layer figures.
    let quarter = args.window() / 4;
    let mut rates = [0.0; 2];
    let mut first_traced = None;
    for traced in [false, true, true, false] {
        let ring = if traced {
            TRACED_RING
        } else {
            ServerConfig::default().trace_capacity
        };
        let clock = Clock::new();
        let mut recs: Vec<Recorder> = (0..CLIENTS)
            .map(|c| Recorder::new(clock, (c as u64) << 40))
            .collect();
        let mut ready = boot(args.seed, &book, ring, &mut out);
        let recording = traced.then_some(recs.as_mut_slice());
        let until = Until::Requests {
            requests: TRACED_REQUESTS,
            deadline: Some(Instant::now() + quarter),
        };
        let mut w = timed(&mut ready, &book, until, None, recording);
        let frags = if traced && first_traced.is_none() {
            let spans: Vec<SpanRec> = recs.into_iter().flat_map(|r| r.spans).collect();
            let ids: HashSet<u128> = spans.iter().map(|s| s.trace).collect();
            Some((spans, collect_frags(&ready.nodes.servers, &ids)))
        } else {
            None
        };
        ready.nodes.shutdown();
        check_pending(&book, &mut oracles, &mut w.logs, &mut out);
        check_window(&w, if traced { "traced" } else { "untraced" }, &mut out);
        rates[usize::from(traced)] += ratio(samples(&w).len() as f64, w.secs) / 2.0;
        if let Some(f) = frags {
            first_traced = Some((w, f));
        } else {
            absorb_failures(&mut out, w.logs);
        }
    }
    let overhead = (ratio(rates[0], rates[1]) - 1.0) * 100.0;
    let (w, (mut spans, (frags, full_rings))) = first_traced.expect("a traced run ran");
    per_layer(
        &book,
        &samples(&w),
        &w.delta,
        &frags,
        full_rings,
        &mut spans,
        overhead,
        &mut out,
    );
    absorb_failures(&mut out, w.logs);
    out
}

/// One server-side trace fragment, reduced to spans.
struct Frag {
    /// The remote span this fragment's root hangs under (a client span
    /// or another node's hop span), 0 if none.
    remote_parent: u64,
    root_dur_us: f64,
    spans: Vec<SpanRec>,
    sim_keys: Vec<String>,
}

/// Every fragment of the traces in `ids` held by any node, reduced to
/// spans, read once from each node's ring; and how many rings filled up
/// (and so may have evicted some).
fn collect_frags(servers: &[Server], ids: &HashSet<u128>) -> (Vec<Frag>, usize) {
    let mut frags = Vec::new();
    let mut full = 0;
    for server in servers {
        let finished = server.traces().finished();
        full += usize::from(finished.len() >= TRACED_RING);
        for t in finished.iter().filter(|t| ids.contains(&t.trace_id.0)) {
            let trace = t.trace_id.0;
            let remote = t.remote_parent.map_or(0, |s| s.0);
            let spans = t
                .spans
                .iter()
                .map(|s| SpanRec {
                    name: trace::intern(&s.name),
                    id: s.span_id.0,
                    parent: s.parent_id.map_or(remote, |p| p.0),
                    start_us: s.start_unix_us,
                    dur_ns: s.dur_us * 1000,
                    trace,
                })
                .collect();
            let sim_keys = t
                .spans
                .iter()
                .filter(|s| s.name == "worker_exec")
                .filter_map(|s| {
                    s.tags
                        .iter()
                        .find(|(k, _)| k == "key")
                        .map(|(_, v)| v.clone())
                })
                .collect();
            frags.push(Frag {
                remote_parent: remote,
                root_dur_us: t.dur_us as f64,
                spans,
                sim_keys,
            });
        }
    }
    (frags, full)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    book: &KeyBook,
    samples: &[Sample],
    delta: &Counters,
    frags: &[Frag],
    full_rings: usize,
    spans: &mut Vec<SpanRec>,
    overhead_pct: f64,
    out: &mut Outcome,
) {
    let by_parent: HashMap<u64, &Frag> = frags.iter().map(|f| (f.remote_parent, f)).collect();
    // Join each client request to the entry node's `request` root.
    let mut request_us = Vec::new();
    let mut unattributed_us = Vec::new();
    let mut joined_lat_us = Vec::new();
    let mut entry_spans: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let client_spans = spans.iter().filter(|s| s.name == "client_request");
    let mut client_requests = 0;
    for c in client_spans {
        client_requests += 1;
        let lat_us = c.dur_ns as f64 / 1e3;
        if let Some(f) = by_parent.get(&c.id) {
            request_us.push(f.root_dur_us);
            unattributed_us.push(lat_us - f.root_dur_us);
            joined_lat_us.push(lat_us);
            for sp in &f.spans {
                entry_spans
                    .entry(sp.name)
                    .or_default()
                    .push(sp.dur_ns as f64 / 1e3);
            }
        }
    }
    let all_spans = |name: &str| -> Vec<f64> {
        frags
            .iter()
            .flat_map(|f| &f.spans)
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    };
    let entry = |name: &str| entry_spans.get(name).map(|v| median(v)).unwrap_or(0.0);
    let sim_keys: Vec<&String> = frags.iter().flat_map(|f| &f.sim_keys).collect();
    let distinct: HashSet<&String> = sim_keys.iter().copied().collect();
    let paths: Vec<(Path, &str, [&str; 2], Vec<f64>)> = PATHS
        .iter()
        .map(|&(p, name, names)| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.path == p)
                .map(|s| f64::from(s.lat_us) / 1e3)
                .collect();
            (p, name, names, lat)
        })
        .collect();
    let count = |p: Path| samples.iter().filter(|s| s.path == p).count() as f64;

    let micro = layers::replay(&book.working, MEM_CAPACITY);
    let mut m: Vec<Metric> = vec![
        metric(
            "engine.simulate_ms_p50",
            median(&all_spans("simulate")) / 1e3,
            "ms",
        ),
        metric("engine.simulations", delta.sims, "count"),
        metric(
            "server.queue_wait_ms_p50",
            median(&all_spans("queue_wait")) / 1e3,
            "ms",
        ),
        metric("server.coalesced", delta.coalesced, "count"),
        metric("server.rejected_503", delta.rejected, "count"),
        metric("cache.mem_hits", delta.mem_hits, "count"),
        metric("cache.misses", delta.misses, "count"),
        metric("cache.evictions", delta.evictions, "count"),
        metric("cache.probe_us_p50", entry("cache_probe"), "us"),
        metric("server.request_us_p50", median(&request_us), "us"),
        metric("http.encode_write_us_p50", entry("response_encode"), "us"),
        metric("http.unattributed_us_p50", median(&unattributed_us), "us"),
        metric("obs.trace_overhead_pct", overhead_pct, "%"),
    ];
    m.extend(micro.metrics());
    m.extend([
        metric("cluster.local_hits", count(Path::LocalHit), "count"),
        metric("cluster.peek_hits", count(Path::PeekHit), "count"),
        metric("cluster.forwards", count(Path::Forward), "count"),
        metric("cluster.local_misses", count(Path::LocalMiss), "count"),
        metric("cluster.local_fallbacks", delta.fallbacks, "count"),
        metric(
            "cluster.peek_hit_ratio",
            ratio(delta.peek_hits, delta.peek_hits + delta.peek_misses),
            "ratio",
        ),
        metric("cluster.peek_us_p50", median(&all_spans("peer_peek")), "us"),
        metric(
            "cluster.forward_ms_p50",
            median(&all_spans("peer_forward")) / 1e3,
            "ms",
        ),
        metric(
            "cluster.duplicate_simulations",
            sim_keys.len() as f64 - distinct.len() as f64,
            "count",
        ),
        metric("cluster.replica_writes", delta.replica_writes, "count"),
    ]);
    for (_, _, [p50, p99], lat) in &paths {
        m.push(metric(p50, quantile(lat, 0.5), "ms"));
        m.push(metric(p99, quantile(lat, 0.99), "ms"));
    }
    out.metrics = crate::per_layer_defaults();
    crate::set_metrics(&mut out.metrics, m);

    // Frags join the client spans into one tree per request.
    spans.extend(frags.iter().flat_map(|f| f.spans.iter().cloned()));
    let rows = trace::rows(spans);
    let total = samples.len() as f64;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "per-layer budget: cluster_mix ({} requests traced)",
        samples.len()
    );
    t.push_str(&trace::format_rows(&rows));
    let _ = writeln!(
        t,
        "  joined {} of {} client requests to their server trace ({:.1}%)",
        request_us.len(),
        client_requests,
        100.0 * ratio(request_us.len() as f64, f64::from(client_requests))
    );
    if full_rings > 0 {
        let _ = writeln!(
            t,
            "  {full_rings} node trace rings reached {TRACED_RING} traces: fragments may be missing"
        );
    }
    let _ = writeln!(
        t,
        "  client p50 {:.1} us = server request p50 {:.1} us + unattributed p50 {:.1} us (sum {:.1} us; medians need not add)",
        median(&joined_lat_us),
        median(&request_us),
        median(&unattributed_us),
        median(&request_us) + median(&unattributed_us)
    );
    let _ = writeln!(
        t,
        "  inside request: cache_probe p50 {:.1} us, response_encode p50 {:.1} us, cluster_route p50 {:.1} us",
        entry("cache_probe"),
        entry("response_encode"),
        entry("cluster_route")
    );
    let _ = writeln!(
        t,
        "  cache: {:.0} memory hits + {:.0} misses = {:.0} probes (hit ratio {:.3}); {:.0} evictions",
        delta.mem_hits,
        delta.misses,
        delta.mem_hits + delta.misses,
        ratio(delta.mem_hits, delta.mem_hits + delta.misses),
        delta.evictions
    );
    let _ = writeln!(
        t,
        "  engine: {:.0} simulations, {:.0} coalesced, {:.0} rejected 503",
        delta.sims, delta.coalesced, delta.rejected
    );
    t.push_str(&micro.describe());
    for (p, name, _, lat) in &paths {
        let _ = writeln!(
            t,
            "  path {name:<10} {:>7.0} requests ({:.1}% of {total:.0}), p50 {:.3} ms, p99 {:.3} ms",
            count(*p),
            100.0 * ratio(count(*p), total),
            quantile(lat, 0.5),
            quantile(lat, 0.99)
        );
    }
    let _ = writeln!(
        t,
        "  peek_hit_ratio = {:.0} peek hits / {:.0} peeks; {:.0} local fallbacks; {:.0} replica writes",
        delta.peek_hits,
        delta.peek_hits + delta.peek_misses,
        delta.fallbacks,
        delta.replica_writes
    );
    let _ = writeln!(
        t,
        "  duplicate_simulations = {} simulations seen in traces - {} distinct keys ({:.0} simulations counted by the servers)",
        sim_keys.len(),
        distinct.len(),
        delta.sims
    );
    let _ = writeln!(
        t,
        "  obs.trace_overhead_pct = {overhead_pct:.2} (mean queries/s of 2 untraced vs 2 traced runs, order U T T U: same seed and requests, each on a cluster set up afresh)"
    );
    out.table = t;
    out.spans_json = trace::export_json(spans, &rows, 2000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_its_stated_shape() {
        assert!(shape_holds());
        assert_eq!(SHAPE.fresh_share, 0.02);
        assert_eq!((SHAPE.nodes, REPLICATION), (NODES, 2));
    }

    #[test]
    fn generated_queries_are_valid_and_distinct() {
        let keys: Vec<Key> = (0..50).map(|id| Key::new(9, id)).collect();
        let distinct: HashSet<&str> = keys.iter().map(|k| k.cache_key.as_str()).collect();
        assert_eq!(distinct.len(), keys.len());
        assert!(keys.iter().all(|k| k.trials == 24));
        let fresh = Key::new(9, FRESH_BASE);
        assert!(!distinct.contains(fresh.cache_key.as_str()));
    }
}
