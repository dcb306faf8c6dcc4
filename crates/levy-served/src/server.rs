//! The `levyd` server: lifecycle, the accept loop and its connection
//! pool, and one request per connection.
//!
//! Request lifecycle (`POST /v1/query`, see the `query` module):
//!
//! 1. parse + validate the JSON body into a canonical `Query`;
//! 2. cache lookup by content-addressed key → immediate 200 on a hit;
//! 3. dedup: if a job for the same key is already in flight, attach to
//!    it as a waiter (no new simulation); otherwise admit a new job into
//!    the bounded queue — or reply `503 + Retry-After` when it is full
//!    (backpressure);
//! 4. wait for the job with a deadline; on timeout the waiter detaches,
//!    and the *last* waiter to detach cancels the job cooperatively
//!    (`CancelToken`), so abandoned work stops burning cores;
//! 5. workers pop jobs, run the deterministic engine, store the body in
//!    the cache, and wake every waiter.
//!
//! Every other endpoint lives in `routes`; the cluster replicator,
//! prober and metrics-history ticker in `background`.
//!
//! Each open connection holds one thread, so the accept loop caps open
//! connections at [`MAX_OPEN_CONNECTIONS`] and sheds the rest with
//! `503 + Retry-After` before reading them.
//!
//! Shutdown (`SIGTERM` via `signal`, or `POST /v1/shutdown`) stops the
//! accept loop, lets workers drain every queued job, and waits for open
//! connections to finish — in-flight work is answered, new work is
//! refused with 503.

mod query;
mod routes;

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use levy_obs::{EventJournal, HistoryRing, SpanContext, TraceStore};
use levy_sim::Json;

use crate::background::{self, Replicator};
use crate::cache::{CacheConfig, ResultCache};
use crate::cluster::{Cluster, ClusterConfig};
use crate::fault::{ConnFaults, FaultDisk, FaultPlan, FaultStream};
use crate::http::{read_request, write_response, Response};
use crate::metrics::Stats;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Runner threads *per simulation* (`levy_sim` work-stealing pool).
    pub sim_threads: usize,
    /// Bounded job-queue capacity; beyond it, `503 Retry-After`.
    pub queue_capacity: usize,
    /// Result-cache sizing and placement.
    pub cache: CacheConfig,
    /// Default per-request wait deadline (overridable per request via
    /// `timeout_ms`).
    pub default_timeout_ms: u64,
    /// Socket read deadline: a client that has not delivered a full
    /// request within this window is answered `408` and disconnected
    /// (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Deterministic fault schedule injected at the I/O seams; `None`
    /// (production) leaves every seam transparent.
    pub faults: Option<Arc<FaultPlan>>,
    /// Suppress structured request logs (tests, benchmarks).
    pub quiet: bool,
    /// Finished traces retained by the tail-sampling ring served at
    /// `GET /v1/traces` (5xx and 408 roots and the slowest traces are
    /// protected from eviction, other 4xx roots are not; see
    /// `levy_obs::TraceStore`).
    pub trace_capacity: usize,
    /// Registry snapshots retained by the `GET /metrics/history` ring.
    pub history_capacity: usize,
    /// Interval between registry snapshots; `0` disables the history
    /// ticker thread.
    pub history_interval_ms: u64,
    /// Cluster membership (`levyd --cluster --peers ...`); `None` runs
    /// the classic single-node daemon.
    pub cluster: Option<ClusterConfig>,
    /// Structured events retained by the journal behind `GET /v1/events`
    /// (peer flips, epoch bumps, handoff lifecycle, replica write
    /// errors, backpressure onsets); `0` disables recording entirely.
    pub events_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            sim_threads: levy_sim::default_threads(),
            queue_capacity: 64,
            cache: CacheConfig::default(),
            default_timeout_ms: 30_000,
            read_timeout_ms: 10_000,
            faults: None,
            quiet: false,
            trace_capacity: 256,
            history_capacity: 64,
            history_interval_ms: 1_000,
            cluster: None,
            events_capacity: 256,
        }
    }
}

/// State shared by the accept loop, connection handlers, and workers.
struct Inner {
    config: ServerConfig,
    cache: Arc<ResultCache>,
    /// Cluster routing state (ring + peer health); `None` single-node.
    cluster: Option<Arc<Cluster>>,
    /// Background replication (write-behind, handoff, probe rounds);
    /// present exactly in cluster mode.
    repl: Option<Arc<Replicator>>,
    stats: Arc<Stats>,
    traces: TraceStore,
    history: Arc<Mutex<HistoryRing>>,
    jobs: query::JobQueue,
    /// Structured event journal behind `GET /v1/events`, shared with the
    /// cluster (peer flips, membership) via `Cluster::attach`.
    events: Arc<EventJournal>,
    /// Stop accepting, drain, exit.
    shutting_down: Arc<AtomicBool>,
    /// Set by `POST /v1/shutdown`; the daemon's main loop polls it.
    shutdown_requested: AtomicBool,
    started: Instant,
}

impl Inner {
    /// Routine request-path record (`target=levyd`); suppressed by
    /// `--quiet` so benchmarks and tests stay silent. Warnings and
    /// errors go straight through `levy_obs::log` ungated.
    fn log(&self, msg: &str, fields: &[(&str, String)]) {
        if self.config.quiet {
            return;
        }
        levy_obs::log::info("levyd", msg, fields);
    }

    /// The node name events and federated views report: the advertised
    /// cluster address when clustered, the configured bind otherwise.
    fn node_name(&self) -> String {
        match &self.cluster {
            Some(cluster) => cluster.config().self_addr.clone(),
            None => self.config.addr.clone(),
        }
    }
}

/// A running server; dropping it does *not* stop the daemon — call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// Every thread the server started, in shutdown join order: the
    /// accept loop, the workers, then the background loops.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(match &config.faults {
            Some(plan) => ResultCache::with_store(
                config.cache.clone(),
                Arc::new(FaultDisk::new(Arc::clone(plan))),
            )?,
            None => ResultCache::new(config.cache.clone())?,
        });
        let stats = Arc::new(Stats::new());
        stats
            .queue_capacity
            .set(i64::try_from(config.queue_capacity).unwrap_or(i64::MAX));
        cache.register_metrics(stats.registry());
        // One journal shared by the server (handoff lifecycle, replica
        // write errors, backpressure) and the cluster (peer flips,
        // membership) — every recorder sees one seq order.
        let events = Arc::new(EventJournal::new(config.events_capacity));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let cluster = match config.cluster.clone() {
            Some(mut cluster_config) => {
                // An ephemeral bind (`:0`) resolves to the real port now;
                // peers must be configured with this node's advertised
                // spelling for the ring to agree across the cluster.
                if cluster_config.self_addr.is_empty() || cluster_config.self_addr.ends_with(":0") {
                    cluster_config.self_addr = addr.to_string();
                }
                let cluster = Cluster::new(cluster_config, config.faults.clone())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
                cluster.attach(Arc::clone(&events), Arc::clone(&stats));
                stats
                    .ring_epoch
                    .set(i64::try_from(cluster.epoch()).unwrap_or(i64::MAX));
                Some(Arc::new(cluster))
            }
            None => None,
        };
        let repl = cluster.as_ref().map(|cluster| {
            Replicator::new(
                Arc::clone(cluster),
                Arc::clone(&cache),
                Arc::clone(&stats),
                Arc::clone(&events),
                Arc::clone(&shutting_down),
            )
        });
        // Baseline snapshot so `/metrics/history` is non-empty from the
        // first scrape; the ticker appends deltas from here.
        let mut history = HistoryRing::new(config.history_capacity);
        history.push(background::sample_metrics(&stats));
        let history = Arc::new(Mutex::new(history));
        let inner = Arc::new(Inner {
            traces: TraceStore::new(config.trace_capacity),
            config,
            cache,
            cluster,
            repl,
            stats,
            history,
            jobs: query::JobQueue::new(),
            events,
            shutting_down,
            shutdown_requested: AtomicBool::new(false),
            started: Instant::now(),
        });

        let mut threads = Vec::new();
        for w in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(background::spawn(&format!("levyd-worker-{w}"), move || {
                query::worker_loop(&inner)
            }));
        }
        if inner.config.history_interval_ms > 0 {
            let interval = Duration::from_millis(inner.config.history_interval_ms);
            let (stats, history) = (Arc::clone(&inner.stats), Arc::clone(&inner.history));
            let shutdown = Arc::clone(&inner.shutting_down);
            threads.push(background::spawn("levyd-history", move || {
                background::every(interval, &shutdown, || {
                    let snapshot = background::sample_metrics(&stats);
                    history.lock().expect("history lock").push(snapshot);
                })
            }));
        }
        if let Some(repl) = &inner.repl {
            threads.extend(repl.spawn());
        }
        let accept_inner = Arc::clone(&inner);
        threads.insert(
            0,
            background::spawn("levyd-accept", move || accept_loop(listener, &accept_inner)),
        );
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot (tests and the bench pipeline).
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> Json {
        self.inner.cache.stats_json()
    }

    /// The finished-trace store backing `GET /v1/traces` (tests).
    pub fn traces(&self) -> &TraceStore {
        &self.inner.traces
    }

    /// The structured event journal behind `GET /v1/events` (tests).
    pub fn events(&self) -> &EventJournal {
        &self.inner.events
    }

    /// The cluster state, when running in cluster mode (tests and the
    /// daemon's status output).
    pub fn cluster(&self) -> Option<&Cluster> {
        self.inner.cluster.as_deref()
    }

    /// Runs one full probe round synchronously and queues catch-up
    /// handoffs for any peer the round resurrected. The deterministic
    /// harness drives health transitions with this (probe interval 0
    /// disables the background prober) so tests control exactly when
    /// hysteresis observes the world.
    pub fn probe_peers_once(&self) {
        if let Some(repl) = &self.inner.repl {
            repl.probe_round();
        }
    }

    /// Queues a rebalance handoff scan (the one a membership change
    /// kicks automatically) — a deterministic re-trigger for tests.
    pub fn kick_handoff(&self) {
        if let Some(repl) = &self.inner.repl {
            repl.handoff_rehomed();
        }
    }

    /// Blocks until the background replication queue is empty and idle,
    /// or `timeout` passes. Returns whether it settled. Tests use this
    /// to assert on write-behind and handoff effects deterministically.
    pub fn settle_replication(&self, timeout: Duration) -> bool {
        self.inner
            .repl
            .as_ref()
            .is_none_or(|repl| repl.settle(timeout))
    }

    /// Whether a client asked the daemon to stop (`POST /v1/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, drain the queue, join workers
    /// and background loops, wait (bounded) for open connections to
    /// finish writing.
    pub fn shutdown(self) {
        let inner = self.inner;
        inner.shutting_down.store(true, Ordering::Release);
        inner.jobs.wake_all();
        if let Some(repl) = &inner.repl {
            repl.wake();
        }
        for handle in self.threads {
            let _ = handle.join();
        }
        // Connection handlers only write out already-computed responses
        // at this point; give them a bounded grace period.
        let deadline = Instant::now() + Duration::from_secs(5);
        while inner.stats.open_connections.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        inner.log(
            "shutdown complete",
            &[(
                "drained_jobs",
                inner.stats.simulations_completed.get().to_string(),
            )],
        );
    }
}

/// Accept-loop idle policy. After any accepted connection the loop
/// stays hot for `ACCEPT_SPIN_POLLS` rounds of `yield_now` polling —
/// back-to-back clients see microsecond accept latency instead of a
/// fixed poll interval. Once the spin budget is spent, the loop falls
/// back to sleeping, doubling from `MIN` toward `MAX` so a quiet
/// daemon still costs only the old 2 ms poll.
const ACCEPT_SPIN_POLLS: u32 = 256;
const ACCEPT_IDLE_MIN: Duration = Duration::from_micros(50);
const ACCEPT_IDLE_MAX: Duration = Duration::from_millis(2);

/// Persistent connection-handler threads fed by a rendezvous channel.
/// A `try_send` succeeds only when a pool thread is parked in `recv`,
/// so a busy pool (e.g. every thread tied up in a long-lived stream)
/// cleanly overflows to a freshly spawned thread — the pool is a spawn
/// cost optimisation; [`MAX_OPEN_CONNECTIONS`] is the concurrency
/// limit. Threads exit when the accept loop drops the sender.
const CONN_POOL_THREADS: usize = 4;

/// Open connections (each holding one handler thread) beyond which the
/// accept thread answers new ones `503 + Retry-After: 1` itself, so a
/// connection flood cannot become a thread flood.
pub const MAX_OPEN_CONNECTIONS: i64 = 64;

/// One accepted connection plus its pre-claimed fault script, as handed
/// from the accept loop to whichever thread runs the handler.
struct ConnWork {
    stream: TcpStream,
    faults: Option<ConnFaults>,
}

fn run_conn_work(work: ConnWork, inner: &Arc<Inner>) {
    match work.faults {
        Some(faults) => handle_connection(FaultStream::new(work.stream, faults), inner),
        None => handle_connection(work.stream, inner),
    }
    inner.stats.open_connections.dec();
}

fn spawn_conn_pool(inner: &Arc<Inner>) -> mpsc::SyncSender<ConnWork> {
    let (tx, rx) = mpsc::sync_channel::<ConnWork>(0);
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..CONN_POOL_THREADS {
        let rx = Arc::clone(&rx);
        let inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("levyd-conn-pool".into())
            .spawn(move || loop {
                // Hold the lock only for the recv itself: a pool thread
                // handling a slow connection must not block its idle
                // peers from picking up new work.
                let work = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => return,
                };
                match work {
                    Ok(work) => run_conn_work(work, &inner),
                    Err(_) => return,
                }
            });
    }
    tx
}

/// Polling accept loop: nonblocking accepts + shutdown checks. Each
/// connection is handed to an idle pool thread when one is parked, or
/// to a freshly spawned thread otherwise (connections are short-lived:
/// `Connection: close`).
fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) {
    let pool = spawn_conn_pool(inner);
    let mut spin = 0u32;
    let mut idle = ACCEPT_IDLE_MIN;
    while !inner.shutting_down.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                spin = ACCEPT_SPIN_POLLS;
                idle = ACCEPT_IDLE_MIN;
                let read_timeout = Duration::from_millis(inner.config.read_timeout_ms.max(1));
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                // Request/response exchanges are single coalesced
                // writes; Nagle only adds latency here.
                let _ = stream.set_nodelay(true);
                if inner.stats.open_connections.get() >= MAX_OPEN_CONNECTIONS {
                    inner.stats.connections_shed.inc();
                    shed(stream);
                    continue;
                }
                // Socket faults are claimed here, in accept order, so
                // connection indices are deterministic even though
                // handlers run on their own threads.
                let conn_faults = inner.config.faults.as_ref().map(|plan| plan.next_conn());
                inner.stats.open_connections.inc();
                let work = ConnWork {
                    stream,
                    faults: conn_faults,
                };
                let work = match pool.try_send(work) {
                    Ok(()) => continue,
                    Err(mpsc::TrySendError::Full(work))
                    | Err(mpsc::TrySendError::Disconnected(work)) => work,
                };
                let conn_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name("levyd-conn".into())
                    .spawn(move || run_conn_work(work, &conn_inner));
                if spawned.is_err() {
                    inner.stats.open_connections.dec();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if spin > 0 {
                    spin -= 1;
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(idle);
                    idle = (idle * 2).min(ACCEPT_IDLE_MAX);
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Answers a connection over the cap from the accept thread, without
/// reading its request, and closes it. Whatever request bytes already
/// arrived are drained first, so the close does not reset the
/// connection before the client reads the 503.
fn shed(mut stream: TcpStream) {
    let response = Response::error(503, "too many open connections, retry shortly")
        .with_header("Retry-After", "1");
    let _ = write_response(&mut stream, &response);
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut scratch = [0u8; 4096];
        for _ in 0..16 {
            if !matches!(stream.read(&mut scratch), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// Reads one request, routes it, writes one response, closes.
///
/// Generic over the stream so the fault harness can interpose
/// byte-exact socket failures; production passes the bare `TcpStream`.
fn handle_connection<S: Read + Write>(stream: S, inner: &Arc<Inner>) {
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let timed_out = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            let response = if timed_out {
                inner.stats.slow_client_timeouts.inc();
                Response::error(408, "request was not received before the read deadline")
            } else {
                inner.stats.io_read_errors.inc();
                Response::error(400, "malformed HTTP request")
            };
            let mut stream = reader.into_inner();
            if write_response(&mut stream, &response).is_err() {
                inner.stats.io_write_errors.inc();
            }
            inner
                .stats
                .record_response("-", response.status, started.elapsed());
            return;
        }
    };
    inner.stats.http_requests.inc();
    // Every request opens a trace; a client-supplied `traceparent`
    // header joins this trace to the caller's (levyc mints one per
    // query). Trace identity travels in headers only — bodies stay a
    // pure function of the query.
    let parent = request
        .header("traceparent")
        .and_then(SpanContext::parse_traceparent);
    let mut root = inner.traces.start_root("request", parent);
    root.tag("method", &request.method);
    root.tag("path", &request.path);
    let mut stream = reader.into_inner();
    // Streaming queries write their own chunked response; everything
    // else is one buffered response.
    let (status, detail) = if request.method == "POST"
        && request.path == "/v1/query"
        && request.header("x-levy-stream").is_some_and(|v| v != "0")
    {
        root.tag("stream", "1");
        let status = query::stream_query(&request, inner, &root, &mut stream);
        root.set_status(status);
        (status, ("stream", "1".to_owned()))
    } else {
        let response = routes::route(&request, inner, &root)
            .with_header("X-Levy-Trace-Id", &root.ctx().trace_id.to_string());
        // Status and log detail first: whoever reads the response may
        // look its trace up at once, so the root finishes right after.
        root.set_status(response.status);
        let cache = response.header("X-Levy-Cache").unwrap_or("-").to_owned();
        let encode_span = root.child("response_encode");
        if write_response(&mut stream, &response).is_err() {
            inner.stats.io_write_errors.inc();
        }
        encode_span.finish();
        (response.status, ("cache", cache))
    };
    root.finish();
    let elapsed = started.elapsed();
    let (path, _) = routes::split_query(&request.path);
    inner.stats.record_response(path, status, elapsed);
    inner.log(
        "request",
        &[
            ("method", request.method.clone()),
            ("path", request.path.clone()),
            ("status", status.to_string()),
            detail,
            ("dur_ms", format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
            ("queue_depth", inner.stats.queue_depth.get().to_string()),
        ],
    );
}
