//! The `POST /v1/query` path, buffered or streamed: one admission step
//! ([`admit`]: a cache hit, or a job plus this request's role in it),
//! one job-wait primitive ([`Waiter`]: new batch progress or a terminal
//! outcome, the deadline being one more), and two renderings of the
//! outcome — a buffered [`Response`] or a stream of wire frames. The
//! job queue and its workers live here too.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use levy_obs::{EventKind, SpanContext, TraceSpan};
use levy_sim::{BatchProgress, CancelToken, Json};
use levy_wire::{ErrorFrame, FinalFrame, Frame};

use super::routes::note_epoch_skew;
use super::Inner;
use crate::cache::{CacheTier, CachedBody};
use crate::cluster::{RemoteRoute, RoutePlan, FORWARDED_HEADER};
use crate::engine;
use crate::http::{
    finish_chunked, write_chunk, write_chunked_head, write_response, Request, Response,
};
use crate::request::Query;
use crate::wirecodec;

/// Terminal states of a job.
enum JobOutcome {
    /// Still queued or running.
    Pending,
    /// Completed; the cached body in both representations (shared, not
    /// copied per waiter).
    Done(Arc<CachedBody>),
    /// The engine panicked or failed.
    Failed(String),
    /// Cancelled after all waiters abandoned it (or at shutdown).
    Cancelled,
}

/// One deduplicated unit of simulation work.
struct Job {
    key: String,
    query: Query,
    cancel: CancelToken,
    outcome: Mutex<JobOutcome>,
    done: Condvar,
    /// Waiters currently attached; the last to detach from a pending
    /// job cancels it.
    waiters: AtomicUsize,
    /// Adaptive-estimator batch progress published by the worker as the
    /// simulation runs; streaming waiters drain it into `Batch` frames.
    /// Appended monotonically, never truncated, so each waiter tracks
    /// its own cursor.
    progress: Mutex<Vec<BatchProgress>>,
    /// Root span context of the request that admitted the job; workers
    /// parent their `worker_exec` span to it across the queue boundary.
    trace_ctx: SpanContext,
    /// Open `queue_wait` span, finished by the worker that pops the job.
    /// If the owner's trace finalizes first (504), the late span is
    /// dropped by the store — that is the documented policy.
    queue_wait: Mutex<Option<TraceSpan>>,
}

/// The bounded FIFO feeding the worker pool, plus the in-flight table
/// that deduplicates identical queries onto one job.
pub(super) struct JobQueue {
    queue: Mutex<VecDeque<Arc<Job>>>,
    changed: Condvar,
    inflight: Mutex<HashMap<String, Arc<Job>>>,
    /// Whether the queue-full edge has already been journaled; cleared
    /// by the next successful admission so each backpressure *onset*
    /// records exactly one event instead of one per rejected request.
    backpressure: AtomicBool,
}

impl JobQueue {
    pub(super) fn new() -> JobQueue {
        JobQueue {
            queue: Mutex::new(VecDeque::new()),
            changed: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            backpressure: AtomicBool::new(false),
        }
    }

    /// Jobs waiting for a worker.
    pub(super) fn depth(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }

    /// Distinct queries being simulated or waiting to be.
    pub(super) fn inflight(&self) -> usize {
        self.inflight.lock().expect("inflight lock").len()
    }

    /// Wakes every idle worker (shutdown, or a cancelled unstarted job
    /// to retire).
    pub(super) fn wake_all(&self) {
        self.changed.notify_all();
    }
}

/// The role this request played for its job.
#[derive(Clone, Copy)]
enum QueryRole {
    /// First requester: the job was admitted to the queue for it.
    Owner,
    /// Deduplicated onto an existing in-flight job.
    Coalesced,
}

impl QueryRole {
    /// The `X-Levy-Cache` disposition of an answer this role received.
    fn disposition(self) -> &'static str {
        match self {
            QueryRole::Owner => "miss",
            QueryRole::Coalesced => "coalesced",
        }
    }
}

/// How an admitted query is answered on this node.
enum Answer<'a> {
    /// Cache hit, with the tier it came from.
    Hit(CachedBody, CacheTier),
    /// Waiting on a job in this role.
    Job(Waiter<'a>, QueryRole),
}

/// Admits a query: wire negotiation, parse, key, cache probe, the
/// cluster hop (when `cluster_hop`), then dedup-or-queue. `Ok` is the
/// key, whether the client negotiated the wire format, and the answer.
/// `Err` is a response that is already final: a 400/406/503, or an
/// answer relayed from the key's holders.
fn admit<'a>(
    request: &Request,
    inner: &'a Inner,
    root: &TraceSpan,
    cluster_hop: bool,
) -> Result<(String, bool, Answer<'a>), Response> {
    inner.stats.queries.inc();
    let wire = wants_wire(request)?;
    let (query, wire_key) = parse_query(request, inner)?;
    if wire || wire_key.is_some() {
        inner.stats.wire_requests.inc();
    }
    let key = wire_key.unwrap_or_else(|| query.cache_key());

    // Tier 1: completed results.
    let mut probe_span = root.child("cache_probe");
    probe_span.tag("key", &key);
    let probed = inner.cache.get(&key);
    probe_span.tag("outcome", if probed.is_some() { "hit" } else { "miss" });
    probe_span.finish();
    if let Some((cached, tier)) = probed {
        inner.stats.cache_hits.inc();
        return Ok((key, wire, Answer::Hit(cached, tier)));
    }

    let timeout = Duration::from_millis(
        query
            .timeout_ms
            .unwrap_or(inner.config.default_timeout_ms)
            .max(1),
    );

    // Cluster hop: a cold key held elsewhere is answered by its
    // holders (cache peeks in preference order, then a full forward to
    // the first live holder) when possible. Forwarded-in requests
    // always run locally — one hop, never a loop — and only when every
    // holder is unreachable does the entry node degrade to local
    // simulation below. Node-to-node traffic is binary regardless of
    // what the client negotiated; `relay` transcodes for JSON clients.
    if let Some(cluster) = inner.cluster.as_ref().filter(|_| cluster_hop) {
        if request.header(FORWARDED_HEADER).is_some() {
            inner.stats.cluster_received_forwards.inc();
            note_epoch_skew(request, cluster, inner);
        } else if let RoutePlan::Remote(remote) = cluster.route(&key) {
            match remote_answer(inner, &remote, &key, &query, timeout, root, wire) {
                Some(relayed) => return Err(relayed),
                None => inner.stats.cluster_local_fallbacks.inc(),
            }
        }
    }

    // Tier 2: coalesce onto in-flight work, or admit a new job.
    let (job, role) = admit_job(inner, &key, query, root)?;
    Ok((
        key,
        wire,
        Answer::Job(Waiter::new(job, inner, timeout), role),
    ))
}

/// `POST /v1/query`: one buffered response.
pub(super) fn handle_query(request: &Request, inner: &Inner, root: &TraceSpan) -> Response {
    let (key, wire, answer) = match admit(request, inner, root, true) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };
    match answer {
        Answer::Hit(cached, tier) => answer_response(&cached, wire, "hit", Some(tier), &key),
        Answer::Job(waiter, role) => match waiter.outcome() {
            Ok(body) => answer_response(&body, wire, role.disposition(), None, &key),
            Err((status, message)) => {
                let response = Response::error(status, &message);
                match status {
                    503 => response.with_header("Retry-After", "0"),
                    504 => response.with_header("X-Levy-Key", &key),
                    _ => response,
                }
            }
        },
    }
}

/// `POST /v1/query` with `X-Levy-Stream: 1`: a chunked response whose
/// chunks are wire frames — `Batch` frames as the adaptive estimator
/// completes batches, then one terminal frame:
///
/// - `Final`, carrying byte-for-byte the body the buffered path would
///   have returned for the same `Accept` (a cache hit is just this one
///   frame);
/// - or `Error` (500/503/504) when the job fails, is cancelled, or the
///   deadline passes mid-stream.
///
/// Failures *before* the head is written (bad query, 406, queue full)
/// are ordinary buffered responses. A chunk-write failure means the
/// client is gone: the waiter detaches, and the last waiter out cancels
/// the job. Streaming always answers locally (no cluster hop): partial
/// results need the simulation on this node. Returns the status for
/// request logging.
pub(super) fn stream_query<S: Write>(
    request: &Request,
    inner: &Inner,
    root: &TraceSpan,
    stream: &mut S,
) -> u16 {
    let (key, wire, answer) = match admit(request, inner, root, false) {
        Ok(admitted) => admitted,
        Err(response) => {
            if write_response(stream, &response).is_err() {
                inner.stats.io_write_errors.inc();
            }
            return response.status;
        }
    };
    inner.stats.streams_started.inc();
    let (disposition, tier) = match &answer {
        Answer::Hit(_, tier) => ("hit", Some(*tier)),
        Answer::Job(_, role) => (role.disposition(), None),
    };
    let trace_id = root.ctx().trace_id.to_string();
    let mut head = vec![("Content-Type", levy_wire::STREAM_MEDIA_TYPE)];
    head.extend(answer_headers(disposition, tier, &key));
    head.push(("X-Levy-Trace-Id", &trace_id));
    if write_chunked_head(stream, 200, &head).is_err() {
        inner.stats.io_write_errors.inc();
        inner.stats.streams_cancelled.inc();
        return 200;
    }
    let outcome = match answer {
        Answer::Hit(cached, _) => Ok(Arc::new(cached)),
        Answer::Job(mut waiter, _) => {
            let mut last: Option<BatchProgress> = None;
            loop {
                match waiter.next(true) {
                    Waited::Progress(fresh) => {
                        for event in fresh {
                            let frame = wirecodec::batch_frame(&event, last.as_ref());
                            last = Some(event);
                            if write_chunk(stream, &frame.encode()).is_err() {
                                // Client disconnected mid-stream.
                                inner.stats.io_write_errors.inc();
                                inner.stats.streams_cancelled.inc();
                                return 200;
                            }
                        }
                    }
                    Waited::Over(outcome) => break outcome,
                }
            }
        }
    };
    let (status, frame) = match outcome {
        Ok(body) => (
            200,
            Frame::Final(FinalFrame {
                body: body_bytes(&body, wire).1,
            }),
        ),
        Err((status, message)) => (status, Frame::Error(ErrorFrame { status, message })),
    };
    if write_chunk(stream, &frame.encode())
        .and_then(|()| finish_chunked(stream))
        .is_err()
    {
        inner.stats.io_write_errors.inc();
    }
    status
}

/// What a [`Waiter`] sees next.
enum Waited {
    /// Batches published since the previous call.
    Progress(Vec<BatchProgress>),
    /// The job's body, or a terminal `(status, message)`: 500 failed,
    /// 503 cancelled, 504 deadline passed.
    Over(Result<Arc<CachedBody>, (u16, String)>),
}

/// One request attached to a job until a deadline. Dropping it
/// detaches; the last waiter out of a still-pending job cancels it, so
/// abandoned work stops burning cores.
struct Waiter<'a> {
    job: Arc<Job>,
    inner: &'a Inner,
    deadline: Instant,
    /// Progress entries already handed out.
    seen: usize,
}

impl<'a> Waiter<'a> {
    fn new(job: Arc<Job>, inner: &'a Inner, timeout: Duration) -> Waiter<'a> {
        job.waiters.fetch_add(1, Ordering::AcqRel);
        Waiter {
            job,
            inner,
            deadline: Instant::now() + timeout,
            seen: 0,
        }
    }

    /// Blocks until there is news: with `progress`, batches published
    /// since the last call come first; otherwise only the terminal
    /// outcome, with the deadline counted as one more (504).
    fn next(&mut self, progress: bool) -> Waited {
        let job = &self.job;
        let mut outcome = job.outcome.lock().expect("job lock");
        loop {
            if progress {
                let fresh = job.progress.lock().expect("progress lock")[self.seen..].to_vec();
                if !fresh.is_empty() {
                    self.seen += fresh.len();
                    return Waited::Progress(fresh);
                }
            }
            match &*outcome {
                JobOutcome::Pending => {}
                JobOutcome::Done(body) => return Waited::Over(Ok(Arc::clone(body))),
                JobOutcome::Failed(message) => return Waited::Over(Err((500, message.clone()))),
                JobOutcome::Cancelled => {
                    return Waited::Over(Err((503, "job was cancelled, retry".into())))
                }
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.inner.stats.wait_timeouts.inc();
                return Waited::Over(Err((
                    504,
                    "simulation did not finish within the deadline".into(),
                )));
            }
            // Progress notifications can race the wait; a bounded slice
            // turns a missed wakeup into at most 100 ms of added latency
            // on one batch frame.
            let slice = match progress {
                true => remaining.min(Duration::from_millis(100)),
                false => remaining,
            };
            outcome = job.done.wait_timeout(outcome, slice).expect("job lock").0;
        }
    }

    /// The terminal outcome, ignoring progress; detaches on return.
    fn outcome(mut self) -> Result<Arc<CachedBody>, (u16, String)> {
        loop {
            if let Waited::Over(outcome) = self.next(false) {
                return outcome;
            }
        }
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        if self.job.waiters.fetch_sub(1, Ordering::AcqRel) == 1 {
            // No panic in drop: the outcome is one assignment, whole even
            // if a holder of the lock panicked.
            let outcome = self
                .job
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if matches!(*outcome, JobOutcome::Pending) {
                self.job.cancel.cancel();
                // Wake the queue in case the job is still unstarted: a
                // worker will observe the cancelled token and retire it.
                self.inner.jobs.wake_all();
            }
        }
    }
}

/// Whether the request's `Accept` header asks for the binary wire
/// format. `Err` is the `406` for a wire version this node does not
/// speak (`application/x-levy-wire;v=N`, N ≠ 1).
pub(super) fn wants_wire(request: &Request) -> Result<bool, Response> {
    let Some(accept) = request.header("accept") else {
        return Ok(false);
    };
    for entry in accept.split(',') {
        let mut parts = entry.trim().split(';');
        let media = parts.next().unwrap_or("").trim();
        if !media.eq_ignore_ascii_case(levy_wire::MEDIA_TYPE) {
            continue;
        }
        for param in parts {
            if let Some(version) = param.trim().strip_prefix("v=") {
                if version.trim() != "1" {
                    return Err(Response::error(
                        406,
                        &format!(
                            "unsupported wire version {}; this node speaks {};v=1",
                            version.trim(),
                            levy_wire::MEDIA_TYPE
                        ),
                    ));
                }
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Whether a `Content-Type` names the binary wire format (parameters
/// ignored; the version travels in the frame header itself).
fn is_wire_media(content_type: &str) -> bool {
    content_type
        .split(';')
        .next()
        .unwrap_or("")
        .trim()
        .eq_ignore_ascii_case(levy_wire::MEDIA_TYPE)
}

/// Parses and validates the query body — JSON by default, binary wire
/// when `Content-Type: application/x-levy-wire`. Returns the query and,
/// for wire bodies, the already-verified canonical key (saving the
/// caller a second canonicalise-and-hash); `Err` is the ready-made
/// `400`.
fn parse_query(request: &Request, inner: &Inner) -> Result<(Query, Option<String>), Response> {
    let parsed = if is_wire_media(request.header("content-type").unwrap_or("")) {
        wirecodec::decode_query_with_key(&request.body).map(|(query, key)| (query, Some(key)))
    } else {
        std::str::from_utf8(&request.body)
            .map_err(|_| "request body must be UTF-8 JSON".to_owned())
            .and_then(|body| Json::parse(body).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|json| Query::from_json(&json).map_err(|e| e.0))
            .map(|query| (query, None))
    };
    parsed.map_err(|message| {
        inner.stats.invalid_requests.inc();
        Response::error(400, &message)
    })
}

/// The representation of a cached result a client negotiated, with its
/// content type. Wire clients get the stored encoding byte-for-byte; a
/// body with no wire form (never the case for engine-produced
/// envelopes) falls back to JSON rather than failing.
fn body_bytes(cached: &CachedBody, wire: bool) -> (&'static str, Vec<u8>) {
    match (&cached.wire, wire) {
        (Some(bytes), true) => (levy_wire::MEDIA_TYPE, bytes.clone()),
        _ => ("application/json", cached.json.clone().into_bytes()),
    }
}

/// The headers naming how an answer was obtained: the cache
/// disposition, the tier of a hit, and the key.
fn answer_headers<'a>(
    disposition: &'a str,
    tier: Option<CacheTier>,
    key: &'a str,
) -> Vec<(&'static str, &'a str)> {
    let mut headers = vec![("X-Levy-Cache", disposition)];
    if let Some(tier) = tier {
        headers.push(("X-Levy-Cache-Tier", tier.as_str()));
    }
    headers.push(("X-Levy-Key", key));
    headers
}

/// A 200 carrying `cached` as negotiated, with the answer headers.
pub(super) fn answer_response(
    cached: &CachedBody,
    wire: bool,
    disposition: &str,
    tier: Option<CacheTier>,
    key: &str,
) -> Response {
    let (content_type, body) = body_bytes(cached, wire);
    answer_headers(disposition, tier, key).into_iter().fold(
        Response::bytes(200, content_type, body),
        |response, (name, value)| response.with_header(name, value),
    )
}

/// Coalesces onto an in-flight job for `key` or admits a new one into
/// the bounded queue. `Err` is the ready-made backpressure/shutdown 503.
fn admit_job(
    inner: &Inner,
    key: &str,
    query: Query,
    root: &TraceSpan,
) -> Result<(Arc<Job>, QueryRole), Response> {
    let jobs = &inner.jobs;
    let mut inflight = jobs.inflight.lock().expect("inflight lock");
    if let Some(job) = inflight.get(key) {
        inner.stats.coalesced.inc();
        return Ok((Arc::clone(job), QueryRole::Coalesced));
    }
    if inner.shutting_down.load(Ordering::Acquire) {
        return Err(Response::error(503, "daemon is shutting down").with_header("Retry-After", "1"));
    }
    let mut queue = jobs.queue.lock().expect("queue lock");
    if queue.len() >= inner.config.queue_capacity {
        inner.stats.rejected_queue_full.inc();
        // Journal the *onset* only: under sustained overload the ring
        // must not fill with one event per rejected request.
        if !jobs.backpressure.swap(true, Ordering::AcqRel) {
            inner.events.record(
                EventKind::Backpressure,
                vec![
                    ("queue_depth", queue.len().to_string()),
                    ("queue_capacity", inner.config.queue_capacity.to_string()),
                ],
            );
        }
        return Err(Response::error(503, "job queue is full, retry shortly")
            .with_header("Retry-After", "1")
            .with_header("X-Levy-Queue-Depth", &queue.len().to_string()));
    }
    jobs.backpressure.store(false, Ordering::Release);
    let mut queue_wait = root.child("queue_wait");
    queue_wait.tag("key", key);
    let job = Arc::new(Job {
        key: key.to_owned(),
        query,
        cancel: CancelToken::new(),
        outcome: Mutex::new(JobOutcome::Pending),
        done: Condvar::new(),
        waiters: AtomicUsize::new(0),
        progress: Mutex::new(Vec::new()),
        trace_ctx: root.ctx(),
        queue_wait: Mutex::new(Some(queue_wait)),
    });
    queue.push_back(Arc::clone(&job));
    inner.stats.queue_depth.inc();
    jobs.changed.notify_one();
    drop(queue);
    inflight.insert(key.to_owned(), Arc::clone(&job));
    Ok((job, QueryRole::Owner))
}

/// Tries to answer a non-holder query from the key's holders: cache
/// peeks in preference order first (`GET /v1/cache/<key>` — a hit
/// costs no queue slot anywhere; during a rebalance the previous
/// ring's holders are peeked too), then a full forward (`POST
/// /v1/query` with the forwarded marker) to the first live holder.
/// Every call carries a `traceparent` minted from this request's
/// trace, so the holders' spans join the entry node's tree.
///
/// `None` means "simulate locally": every holder was marked down,
/// failed on the wire, or answered 5xx. The caller counts the fallback
/// — degraded mode costs a duplicated simulation, never an error.
fn remote_answer(
    inner: &Inner,
    remote: &RemoteRoute,
    key: &str,
    query: &Query,
    timeout: Duration,
    root: &TraceSpan,
    client_wire: bool,
) -> Option<Response> {
    let cluster = inner.cluster.as_ref()?;
    let mut route_span = root.child("cluster_route");
    route_span.tag("key", key);
    route_span.tag("home", &remote.holders[0].1);

    // Peek pass: any holder with the body answers without consuming a
    // queue slot anywhere. A peek I/O error marks the holder's health
    // but moves on — a replica may still have the bytes.
    for (index, addr) in remote.holders.iter().chain(&remote.peek_extras) {
        if !cluster.table().is_up(*index) {
            continue;
        }
        let mut peek_span = route_span.child("peer_peek");
        peek_span.tag("peer", addr);
        match cluster.peek(*index, addr, key, &peek_span.ctx().to_traceparent()) {
            Ok(response) if response.status == 200 => {
                inner.stats.cluster_peek_hits.inc();
                peek_span.tag("outcome", "hit");
                peek_span.finish();
                if let Some(relayed) = relay(&response, key, addr, "remote", client_wire) {
                    route_span.tag("outcome", "remote_cache_hit");
                    route_span.finish();
                    return Some(relayed);
                }
            }
            Ok(response) => {
                // 404 is the expected miss; anything else is the holder
                // being alive but unhelpful — either way, keep walking.
                inner.stats.cluster_peek_misses.inc();
                let outcome = match response.status {
                    404 => "miss".to_owned(),
                    status => format!("http_{status}"),
                };
                peek_span.tag("outcome", &outcome);
                peek_span.finish();
            }
            Err(e) => {
                peek_span.tag("outcome", "io_error");
                peek_span.tag("error", &e.to_string());
                peek_span.finish();
            }
        }
    }

    // Forward pass: the first live holder simulates (or coalesces) and
    // replicates. A holder that fails mid-forward is recorded and the
    // next one is tried; only a fully unreachable replica set falls
    // back to local simulation.
    for (index, addr) in &remote.holders {
        if !cluster.table().is_up(*index) {
            continue;
        }
        inner.stats.cluster_forwards.inc();
        let mut forward_span = route_span.child("peer_forward");
        forward_span.tag("peer", addr);
        let forwarded = cluster.forward(
            *index,
            addr,
            &wirecodec::encode_query(query),
            timeout,
            &forward_span.ctx().to_traceparent(),
        );
        match forwarded {
            // The holder is overloaded (503) or timed out (504): trying
            // the next one (or simulating here) spreads the load
            // instead of bouncing the client.
            Ok(response) if response.status >= 500 => {
                inner.stats.cluster_forward_errors.inc();
                forward_span.tag("outcome", &format!("http_{}", response.status));
                forward_span.finish();
            }
            Ok(response) => {
                forward_span.tag("outcome", "ok");
                forward_span.finish();
                if let Some(relayed) = relay(&response, key, addr, "forwarded", client_wire) {
                    route_span.tag("outcome", "forwarded");
                    route_span.finish();
                    return Some(relayed);
                }
            }
            Err(e) => {
                inner.stats.cluster_forward_errors.inc();
                forward_span.tag("outcome", "io_error");
                forward_span.tag("error", &e.to_string());
                forward_span.finish();
            }
        }
    }
    route_span.tag("outcome", "holders_unreachable");
    route_span.finish();
    None
}

/// Re-wraps a home node's response for the entry node's client: same
/// result (responses are a pure function of the query, so relayed and
/// local bodies are byte-identical), fresh headers naming the home and
/// how the answer was obtained. The home's own cache disposition is
/// preserved as `X-Levy-Home-Cache`.
///
/// Node-to-node hops carry the binary wire format; when the entry
/// client negotiated JSON, the wire body is transcoded back (the codec
/// reconstructs the engine's exact pretty-printed envelope, so the
/// relayed JSON matches a local answer byte-for-byte). `None` means the
/// upstream body could not be represented as asked — the caller falls
/// back to local simulation, never relays garbage.
fn relay(
    upstream: &Response,
    key: &str,
    home: &str,
    disposition: &str,
    client_wire: bool,
) -> Option<Response> {
    let upstream_wire = upstream.header("content-type").is_some_and(is_wire_media);
    let (content_type, body) = match (upstream_wire, client_wire) {
        (true, true) => (levy_wire::MEDIA_TYPE, upstream.body.clone()),
        (true, false) => {
            let json = wirecodec::decode_result_to_json(&upstream.body).ok()?;
            ("application/json", json.to_string_pretty().into_bytes())
        }
        // A JSON upstream body (error responses stay JSON even on binary
        // hops). Result envelopes are re-encoded for wire clients;
        // anything else is relayed as the JSON it is.
        (false, client_wire) => client_wire
            .then(|| {
                std::str::from_utf8(&upstream.body)
                    .ok()
                    .and_then(|s| Json::parse(s).ok())
                    .and_then(|j| wirecodec::encode_result(&j).ok())
            })
            .flatten()
            .map_or(("application/json", upstream.body.clone()), |bytes| {
                (levy_wire::MEDIA_TYPE, bytes)
            }),
    };
    let mut response = Response::bytes(upstream.status, content_type, body);
    if let Some(home_cache) = upstream.header("X-Levy-Cache") {
        response = response.with_header("X-Levy-Home-Cache", home_cache);
    }
    Some(
        response
            .with_header("X-Levy-Cache", disposition)
            .with_header("X-Levy-Key", key)
            .with_header("X-Levy-Home", home),
    )
}

/// Worker: pop a job, run the engine, publish the outcome, repeat.
/// Exits when shutdown is flagged *and* the queue is drained.
pub(super) fn worker_loop(inner: &Arc<Inner>) {
    let jobs = &inner.jobs;
    loop {
        let job = {
            let mut queue = jobs.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.stats.queue_depth.dec();
                    break job;
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                queue = jobs
                    .changed
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock")
                    .0;
            }
        };
        // The queue_wait span opened at admission ends now, on pop; its
        // duration *is* the time the job sat in the queue.
        drop(job.queue_wait.lock().expect("trace lock").take());
        if job.cancel.is_cancelled() {
            inner.stats.simulations_cancelled.inc();
            finish(inner, &job, JobOutcome::Cancelled);
            continue;
        }
        inner.stats.simulations_started.inc();
        inner.stats.workers_busy.inc();
        let sim_threads = inner.config.sim_threads;
        let mut exec_span = inner.traces.span(job.trace_ctx, "worker_exec");
        exec_span.tag("key", &job.key);
        // Execution indices are claimed at start, inside the unwind
        // guard's shadow, so an injected panic exercises exactly the
        // path a real engine panic would take.
        let inject_panic = inner
            .config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.next_exec_panics());
        let exec_ctx = exec_span.ctx();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected worker panic");
            }
            // Adaptive batch progress is published as it happens so
            // streaming waiters can emit partial results; the observer
            // never touches the RNG, so the body stays bit-identical to
            // an unobserved run.
            let progress_job = Arc::clone(&job);
            let mut observer = move |progress: BatchProgress| {
                progress_job
                    .progress
                    .lock()
                    .expect("progress lock")
                    .push(progress);
                progress_job.done.notify_all();
            };
            engine::execute_observed(
                &job.query,
                sim_threads,
                &job.cancel,
                Some((&inner.traces, exec_ctx)),
                &mut observer,
            )
        }));
        inner.stats.workers_busy.dec();
        let outcome = match outcome {
            Ok(Some(body)) => {
                exec_span.tag("outcome", "completed");
                let cached = Arc::new(CachedBody::from_json(&body.to_string_pretty()));
                inner.cache.put_body(&job.key, &cached);
                inner.stats.simulations_completed.inc();
                if let Some(repl) = &inner.repl {
                    repl.write_behind(&job.key, &cached.json);
                }
                JobOutcome::Done(cached)
            }
            Ok(None) => {
                exec_span.tag("outcome", "cancelled");
                inner.stats.simulations_cancelled.inc();
                JobOutcome::Cancelled
            }
            Err(panic) => {
                exec_span.tag("outcome", "panicked");
                inner.stats.simulations_failed.inc();
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "simulation panicked".into());
                JobOutcome::Failed(format!("simulation failed: {message}"))
            }
        };
        exec_span.finish();
        finish(inner, &job, outcome);
    }
}

/// Publishes a terminal outcome: removes the job from the dedup table,
/// stores the outcome, and wakes every waiter.
fn finish(inner: &Inner, job: &Arc<Job>, outcome: JobOutcome) {
    inner
        .jobs
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&job.key);
    *job.outcome.lock().expect("job lock") = outcome;
    job.done.notify_all();
}
