//! `levyc` — command-line client for `levyd`.
//!
//! ```text
//! levyc [--addr HOST:PORT | --endpoints H:P,H:P,...] [--vnodes N]
//!       [--timeout-ms MS] [--no-retry] COMMAND [ARGS]
//!
//! commands:
//!   health                     GET /healthz
//!   stats                      GET /v1/stats
//!   metrics                    GET /metrics (Prometheus text format)
//!   metrics --cluster          GET /v1/cluster/metrics (the federated
//!                              view: the node merges its peers' scrapes)
//!   metrics --watch SECS [FAMILY]
//!                              poll /metrics, print per-interval deltas
//!                              (optionally only for one metric family;
//!                              with multiple --endpoints this polls the
//!                              federated /v1/cluster/metrics view and
//!                              names the node serving it)
//!   traces                     GET /v1/traces (finished-trace summaries)
//!   trace [--local] ID         GET /v1/traces/ID, pretty-printed span tree
//!                              (with --endpoints the cluster-stitched
//!                              view is the default; --local keeps the
//!                              contacted node's own fragment)
//!   peers [--json]             GET /v1/peers as a per-peer health table
//!                              (state, latency, failures, replica write
//!                              errors, last-probe age); --json for the
//!                              raw body
//!   peers add HOST:PORT...     POST /v1/peers {"add":[..]} (admit members)
//!   peers remove HOST:PORT...  POST /v1/peers {"remove":[..]} (retire members)
//!       [--token TOKEN]        cluster token (default: $LEVY_CLUSTER_TOKEN)
//!   events [--since SEQ] [--max N] [--follow]
//!                              GET /v1/events, one line per journal entry;
//!                              --follow keeps polling with the cursor
//!   shutdown                   POST /v1/shutdown
//!   query [--wire] [--stream] JSON
//!                              POST /v1/query with the given body
//!   query [--wire] [--stream] -
//!                              POST /v1/query with the body from stdin
//!   raw METHOD PATH [BODY]     arbitrary request (debugging)
//! ```
//!
//! The response body goes to stdout; the status line, cache
//! disposition (`X-Levy-Cache` / `X-Levy-Cache-Tier`) and cache key
//! (`X-Levy-Key`, as `key: ...`) go to stderr.
//! Exit status is 0 for 2xx responses, 1 otherwise.
//!
//! Every `query` carries a freshly minted `traceparent` header, so the
//! daemon's trace adopts a client-chosen trace id; the id is echoed on
//! stderr (`trace: ...`) and can be fed straight to `levyc trace ID`.
//!
//! **Cluster routing.** With `--endpoints`, `query` canonicalizes the
//! body client-side, computes the cache key, and builds the same
//! consistent-hash ring the daemons use (the endpoint spellings and
//! `--vnodes` must match the cluster's), so the first endpoint tried is
//! the key's *home* node — the one whose cache can answer without any
//! cross-node hop. Keyless commands rotate across endpoints. Connect
//! errors always fail over to the next endpoint; with retries enabled a
//! `503` does too (another peer may have queue space right now), and
//! only when *every* endpoint is saturated does `levyc` sleep the
//! smallest advertised `Retry-After` (capped at 10 s) and make exactly
//! one more pass. `--no-retry` keeps connect-error failover but returns
//! the first definitive HTTP response, 503 included. Negotiation is
//! sticky: the failover walk re-sends the *original* request headers —
//! `Accept` included — on every endpoint of both passes, so a `--wire`
//! query stays binary wherever it lands.
//!
//! **Binary results.** `query --wire` negotiates the compact levy-wire
//! representation (`Accept: application/x-levy-wire`); the response
//! frame is decoded back to JSON for stdout and the encoded size is
//! noted on stderr. `query --stream` asks for chunked partial results:
//! each trial batch prints a live `estimate p ± ci (n trials)` line on
//! stderr as the adaptive estimator converges, and the terminal chunk
//! carries the final body — byte-identical to a non-streaming run.

use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use levy_obs::trace::{next_span_id, next_trace_id};
use levy_obs::{diff, Snapshot, SpanContext};
use levy_served::http::Response;
use levy_served::{wirecodec, Client};
use levy_sim::Json;
use levy_wire::Frame;

const USAGE: &str = "usage: levyc [--addr HOST:PORT | --endpoints H:P,H:P,...] [--vnodes N] \
                     [--timeout-ms MS] [--no-retry] \
                     health|stats|metrics [--cluster | --watch SECS [FAMILY]]|traces|\
                     trace [--local] ID|\
                     peers [--json | add|remove HOST:PORT... [--token TOKEN]]|\
                     events [--since SEQ] [--max N] [--follow]|\
                     shutdown|query [--wire] [--stream] JSON|raw METHOD PATH [BODY]";

/// Longest `Retry-After` delay we will actually sleep for.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);

/// Writes to stdout, exiting 0 when the reader went away (`levyc ... |
/// head` must not panic on the broken pipe).
fn emit(text: std::fmt::Arguments<'_>) {
    if std::io::stdout().write_fmt(text).is_err() {
        std::process::exit(0);
    }
}

/// How the response body should be presented.
enum Render {
    /// Raw body to stdout (everything except `trace`).
    Body,
    /// Parse the trace JSON and print an indented span tree.
    TraceTree,
    /// Parse the peers JSON and print a per-peer health table.
    PeersTable,
    /// Decode a levy-wire result frame back to JSON (`query --wire`).
    WireResult,
}

/// Result of one resolved command: the response, how to render it, and
/// whether to announce the trace id on stderr (query commands).
struct Outcome {
    response: Response,
    render: Render,
    announce_trace: bool,
}

fn read_body_arg(arg: &str) -> Result<String, String> {
    if arg == "-" {
        let mut body = String::new();
        std::io::stdin()
            .read_to_string(&mut body)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(body)
    } else {
        Ok(arg.to_owned())
    }
}

/// Parses a `Retry-After` header value as whole seconds (the only form
/// `levyd` emits; HTTP-date values are ignored).
fn retry_after(response: &Response) -> Option<Duration> {
    let secs: u64 = response.header("retry-after")?.trim().parse().ok()?;
    Some(Duration::from_secs(secs).min(MAX_RETRY_AFTER))
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn run() -> Result<Outcome, String> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut endpoints: Vec<String> = Vec::new();
    let mut vnodes: usize = 64;
    let mut timeout_ms: u64 = 120_000;
    let mut retry = true;
    let mut args = std::env::args().skip(1).peekable();
    loop {
        match args.peek().map(String::as_str) {
            Some("--addr") => {
                args.next();
                addr = args.next().ok_or_else(|| USAGE.to_owned())?;
            }
            Some("--endpoints") => {
                args.next();
                endpoints = args
                    .next()
                    .ok_or_else(|| USAGE.to_owned())?
                    .split(',')
                    .map(|e| e.trim().to_owned())
                    .filter(|e| !e.is_empty())
                    .collect();
                if endpoints.is_empty() {
                    return Err("--endpoints needs at least one HOST:PORT".to_owned());
                }
            }
            Some("--vnodes") => {
                args.next();
                vnodes = args
                    .next()
                    .ok_or_else(|| USAGE.to_owned())?
                    .parse()
                    .map_err(|_| "--vnodes must be an integer".to_owned())?;
            }
            Some("--timeout-ms") => {
                args.next();
                timeout_ms = args
                    .next()
                    .ok_or_else(|| USAGE.to_owned())?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_owned())?;
            }
            Some("--no-retry") => {
                args.next();
                retry = false;
            }
            _ => break,
        }
    }
    let endpoints_given = !endpoints.is_empty();
    if endpoints.is_empty() {
        endpoints.push(addr);
    }
    let timeout = Duration::from_millis(timeout_ms.max(1));
    let client = Client::new(&endpoints[0]).with_timeout(timeout);
    let command = args.next().ok_or_else(|| USAGE.to_owned())?;
    // Resolve the command to (method, path, body) up front so the
    // request can be re-issued on a 503 (stdin is only read once).
    let mut render = Render::Body;
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut announce_trace = false;
    let mut wire = false;
    let mut stream = false;
    // Cache key of a query body — the hash-routing coordinate. `None`
    // for keyless commands and for bodies the client cannot
    // canonicalize (the server will reject those anyway).
    let mut routing_key: Option<String> = None;
    let (method, path, body) = match command.as_str() {
        "health" => ("GET".to_owned(), "/healthz".to_owned(), String::new()),
        "stats" => ("GET".to_owned(), "/v1/stats".to_owned(), String::new()),
        "metrics" => {
            if args.peek().map(String::as_str) == Some("--watch") {
                args.next();
                let secs: f64 = args
                    .next()
                    .ok_or_else(|| USAGE.to_owned())?
                    .parse()
                    .map_err(|_| "--watch requires an interval in seconds".to_owned())?;
                let family = args.next();
                // One endpoint: watch that node's own exposition. More:
                // watch the federated cluster view (the named node
                // scrapes its peers on every poll) — silently watching
                // only the first of several endpoints reads as
                // cluster-wide when it is not.
                let (watch_path, scope) = if endpoints.len() > 1 {
                    (
                        "/v1/cluster/metrics",
                        format!(
                            "the federated view of {} nodes via {}",
                            endpoints.len(),
                            endpoints[0]
                        ),
                    )
                } else {
                    ("/metrics", format!("node {}", endpoints[0]))
                };
                return watch_metrics(
                    &client,
                    Duration::from_secs_f64(secs.max(0.1)),
                    family.as_deref(),
                    watch_path,
                    &scope,
                );
            }
            if args.peek().map(String::as_str) == Some("--cluster") {
                args.next();
                (
                    "GET".to_owned(),
                    "/v1/cluster/metrics".to_owned(),
                    String::new(),
                )
            } else {
                ("GET".to_owned(), "/metrics".to_owned(), String::new())
            }
        }
        "traces" => ("GET".to_owned(), "/v1/traces".to_owned(), String::new()),
        "trace" => {
            let mut local = false;
            if args.peek().map(String::as_str) == Some("--local") {
                args.next();
                local = true;
            }
            let id = args.next().ok_or_else(|| USAGE.to_owned())?;
            render = Render::TraceTree;
            // In --endpoints mode the stitched cluster view is the
            // default: once a query forwarded, any single node holds
            // only its fragment of the trace.
            let path = if endpoints_given && !local {
                format!("/v1/traces/{id}?scope=cluster")
            } else {
                format!("/v1/traces/{id}")
            };
            ("GET".to_owned(), path, String::new())
        }
        "peers" => match args.peek().map(String::as_str) {
            Some(op @ ("add" | "remove")) => {
                let op = op.to_owned();
                args.next();
                let mut token = std::env::var("LEVY_CLUSTER_TOKEN").ok();
                let mut addrs: Vec<String> = Vec::new();
                while let Some(arg) = args.next() {
                    if arg == "--token" {
                        token = Some(args.next().ok_or_else(|| USAGE.to_owned())?);
                    } else {
                        addrs.push(arg);
                    }
                }
                if addrs.is_empty() {
                    return Err(format!("peers {op} needs at least one HOST:PORT\n{USAGE}"));
                }
                // The daemon validates addresses properly; here we only
                // need the body to stay well-formed JSON.
                if let Some(bad) = addrs.iter().find(|a| a.contains(['"', '\\'])) {
                    return Err(format!("invalid peer address {bad}"));
                }
                if let Some(token) = token {
                    headers.push((
                        levy_served::cluster::TOKEN_HEADER.to_ascii_lowercase(),
                        token,
                    ));
                }
                let list: Vec<String> = addrs.iter().map(|a| format!("\"{a}\"")).collect();
                let body = format!("{{\"{op}\":[{}]}}", list.join(","));
                ("POST".to_owned(), "/v1/peers".to_owned(), body)
            }
            Some("--json") => {
                args.next();
                ("GET".to_owned(), "/v1/peers".to_owned(), String::new())
            }
            _ => {
                render = Render::PeersTable;
                ("GET".to_owned(), "/v1/peers".to_owned(), String::new())
            }
        },
        "events" => {
            let mut since: u64 = 0;
            let mut max: usize = 256;
            let mut follow = false;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--since" => {
                        since = args
                            .next()
                            .ok_or_else(|| USAGE.to_owned())?
                            .parse()
                            .map_err(|_| "--since must be an integer".to_owned())?;
                    }
                    "--max" => {
                        max = args
                            .next()
                            .ok_or_else(|| USAGE.to_owned())?
                            .parse()
                            .map_err(|_| "--max must be an integer".to_owned())?;
                    }
                    "--follow" => follow = true,
                    other => return Err(format!("unknown events flag {other}\n{USAGE}")),
                }
            }
            return run_events(&client, since, max, follow);
        }
        "shutdown" => ("POST".to_owned(), "/v1/shutdown".to_owned(), String::new()),
        "query" => {
            while let Some(flag) = args.peek().map(String::as_str) {
                match flag {
                    "--wire" => {
                        args.next();
                        wire = true;
                    }
                    "--stream" => {
                        args.next();
                        stream = true;
                    }
                    _ => break,
                }
            }
            let body = read_body_arg(&args.next().ok_or_else(|| USAGE.to_owned())?)?;
            // Canonicalize client-side so the ring walk below can start
            // at the key's home node.
            routing_key = Json::parse(&body)
                .ok()
                .and_then(|parsed| levy_served::Query::from_json(&parsed).ok())
                .map(|query| query.cache_key());
            // Mint a client-side trace context so the daemon's trace
            // adopts an id we can echo for `levyc trace ID`.
            let ctx = SpanContext {
                trace_id: next_trace_id(),
                span_id: next_span_id(),
            };
            headers.push(("traceparent".to_owned(), ctx.to_traceparent()));
            if wire {
                // One headers list, built once: the failover walk below
                // (and its post-Retry-After second pass) re-sends it
                // verbatim, so the negotiated representation is sticky
                // across endpoints.
                headers.push(("accept".to_owned(), levy_wire::MEDIA_TYPE.to_owned()));
                render = Render::WireResult;
            }
            announce_trace = true;
            ("POST".to_owned(), "/v1/query".to_owned(), body)
        }
        "raw" => {
            let method = args.next().ok_or_else(|| USAGE.to_owned())?;
            let path = args.next().ok_or_else(|| USAGE.to_owned())?;
            let body = match args.next() {
                Some(arg) => read_body_arg(&arg)?,
                None => String::new(),
            };
            (method.to_ascii_uppercase(), path, body)
        }
        other => return Err(format!("unknown command {other}\n{USAGE}")),
    };
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();

    // Order the endpoints for this command: queries walk the cluster's
    // ring preference (home node first, then the members next clockwise
    // — the same order a failing home's keys rehome in), keyless
    // commands rotate so repeated invocations spread across the fleet.
    let ordered = order_endpoints(&endpoints, routing_key.as_deref(), vnodes);

    if stream {
        return run_stream(
            &ordered,
            timeout,
            &header_refs,
            &body,
            render,
            announce_trace,
        );
    }

    let send_to = |endpoint: &str| {
        Client::new(endpoint)
            .with_timeout(timeout)
            .request_with_headers(&method, &path, &header_refs, body.as_bytes())
    };
    let done = |response| {
        Ok(Outcome {
            response,
            render,
            announce_trace,
        })
    };

    // Failover walk. Connect/read errors always advance to the next
    // endpoint; with retries on, a 503 advances too — the next peer may
    // have queue space *right now*, so sleeping a full Retry-After
    // before even trying it would waste the fleet. Only after a whole
    // pass of saturated endpoints do we honor the (smallest, capped)
    // advertised delay, once.
    let mut last_error: Option<String> = None;
    for pass in 0..2 {
        let mut saturated: Option<Response> = None;
        let mut delay_hint: Option<Duration> = None;
        for endpoint in &ordered {
            match send_to(endpoint) {
                Err(e) => {
                    if ordered.len() > 1 {
                        eprintln!("levyc: {endpoint}: {e}, failing over");
                    }
                    last_error = Some(format!("request to {endpoint} failed: {e}"));
                }
                Ok(response) if response.status == 503 && retry => {
                    if ordered.len() > 1 {
                        eprintln!("levyc: {endpoint}: 503, failing over");
                    }
                    if let Some(delay) = retry_after(&response) {
                        delay_hint = Some(delay_hint.map_or(delay, |d: Duration| d.min(delay)));
                    }
                    saturated = Some(response);
                }
                Ok(response) => return done(response),
            }
        }
        match (saturated, delay_hint, pass) {
            (Some(_), Some(delay), 0) => {
                eprintln!(
                    "levyc: every endpoint answered 503, retrying once in {:.1}s",
                    delay.as_secs_f64()
                );
                std::thread::sleep(delay);
            }
            (Some(response), _, _) => return done(response),
            (None, _, _) => break,
        }
    }
    Err(last_error.unwrap_or_else(|| "every endpoint is saturated (503)".to_owned()))
}

/// `query --stream`: opens a chunked response and renders trial batches
/// live. Batch frames print `estimate p ± ci (n trials)` on stderr as
/// they arrive (deltas are re-accumulated client-side); the terminal
/// Final/Error frame becomes the outcome's response — byte-identical to
/// what the non-streaming path would have returned. Connect errors fail
/// over to the next endpoint; the first endpoint that answers (any
/// status) is definitive, since a stream cannot be replayed elsewhere
/// once partial results were consumed.
fn run_stream(
    ordered: &[String],
    timeout: Duration,
    headers: &[(&str, &str)],
    body: &str,
    render: Render,
    announce_trace: bool,
) -> Result<Outcome, String> {
    let mut last_error: Option<String> = None;
    for endpoint in ordered {
        let client = Client::new(endpoint).with_timeout(timeout);
        let opened = client.open_stream("/v1/query", "application/json", headers, body.as_bytes());
        let (head, mut reader) = match opened {
            Ok(pair) => pair,
            Err(e) => {
                if ordered.len() > 1 {
                    eprintln!("levyc: {endpoint}: {e}, failing over");
                }
                last_error = Some(format!("request to {endpoint} failed: {e}"));
                continue;
            }
        };
        if !head.chunked {
            // Pre-stream rejection (400/406/503): an ordinary buffered
            // body arrived instead of a chunked stream.
            let body = reader
                .read_plain_body()
                .map_err(|e| format!("reading response from {endpoint}: {e}"))?;
            return Ok(Outcome {
                response: Response {
                    status: head.status,
                    headers: head.headers.clone(),
                    body,
                },
                render,
                announce_trace,
            });
        }
        let mut status = head.status;
        let mut final_body: Vec<u8> = Vec::new();
        let mut trials: u64 = 0;
        while let Some(chunk) = reader
            .next_chunk()
            .map_err(|e| format!("reading stream from {endpoint}: {e}"))?
        {
            match Frame::decode(&chunk) {
                Ok(Frame::Batch(batch)) => {
                    trials += batch.trials_delta;
                    let half_width = (batch.ci.1 - batch.ci.0) / 2.0;
                    eprintln!(
                        "estimate {:.6} \u{00b1} {half_width:.6} ({trials} trials)",
                        batch.p
                    );
                }
                Ok(Frame::Final(frame)) => {
                    status = 200;
                    final_body = frame.body;
                }
                Ok(Frame::Error(frame)) => {
                    status = frame.status;
                    final_body = frame.message.into_bytes();
                }
                Ok(_) => return Err("unexpected frame kind in stream".to_owned()),
                Err(e) => return Err(format!("undecodable stream chunk: {e}")),
            }
        }
        return Ok(Outcome {
            response: Response {
                status,
                headers: head.headers.clone(),
                body: final_body,
            },
            render,
            announce_trace,
        });
    }
    Err(last_error.unwrap_or_else(|| "no endpoints".to_owned()))
}

/// The endpoint order for one command: ring preference for a keyed
/// query, a time-rotated list otherwise. Falls back to the given order
/// if the ring cannot be built (duplicate-only or degenerate lists).
fn order_endpoints(endpoints: &[String], routing_key: Option<&str>, vnodes: usize) -> Vec<String> {
    if endpoints.len() > 1 {
        if let Some(key) = routing_key {
            if let Ok(ring) = levy_cluster::HashRing::new(endpoints, vnodes.max(1)) {
                if let Some(raw) = levy_cluster::key_from_hex(key) {
                    return ring
                        .preference(raw)
                        .into_iter()
                        .map(str::to_owned)
                        .collect();
                }
            }
        }
        let start = unix_us() as usize % endpoints.len();
        return (0..endpoints.len())
            .map(|i| endpoints[(start + i) % endpoints.len()].clone())
            .collect();
    }
    endpoints.to_vec()
}

/// `metrics --watch`: scrape `path` every `interval` and print the
/// families whose values changed, as `name  before -> after  (+delta)`.
/// `scope` names what is being watched (one node, or the federated
/// cluster view). Runs until interrupted or the daemon stops answering.
fn watch_metrics(
    client: &Client,
    interval: Duration,
    family: Option<&str>,
    path: &str,
    scope: &str,
) -> Result<Outcome, String> {
    let mut prev: Option<Snapshot> = None;
    loop {
        let response = client
            .get(path)
            .map_err(|e| format!("GET {path} failed: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET {path} returned HTTP {}", response.status));
        }
        let snapshot = Snapshot {
            ts_us: unix_us(),
            values: parse_exposition(&response.body_string()),
        };
        match &prev {
            None => eprintln!(
                "levyc: watching {} series of {scope} every {:.1}s{}",
                snapshot.values.len(),
                interval.as_secs_f64(),
                family.map(|f| format!(" (family {f})")).unwrap_or_default()
            ),
            Some(p) => {
                let lines = render_deltas(p, &snapshot, family);
                if lines.is_empty() {
                    emit(format_args!("(no changes)\n"));
                } else {
                    for line in lines {
                        emit(format_args!("{line}\n"));
                    }
                }
                emit(format_args!("\n"));
            }
        }
        prev = Some(snapshot);
        std::thread::sleep(interval);
    }
}

/// `events`: fetch the contacted node's journal and print one line per
/// entry (`seq  unix_us  kind  k=v ...`); `--follow` keeps polling with
/// the advancing since-seq cursor, so nothing still in the ring is
/// missed or printed twice. Exits the process directly on success —
/// like `--watch`, this output is the command's whole result.
fn run_events(
    client: &Client,
    mut since: u64,
    max: usize,
    follow: bool,
) -> Result<Outcome, String> {
    let mut first = true;
    loop {
        let response = client
            .get(&format!("/v1/events?since={since}&max={max}"))
            .map_err(|e| format!("GET /v1/events failed: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "GET /v1/events returned HTTP {}: {}",
                response.status,
                response.body_string().trim()
            ));
        }
        let parsed = Json::parse(&response.body_string())
            .map_err(|e| format!("unparseable events body: {e}"))?;
        if first {
            first = false;
            let node = parsed.get("node").and_then(Json::as_str).unwrap_or("?");
            if parsed.get("enabled").and_then(Json::as_bool) == Some(false) {
                eprintln!("levyc: the event journal on {node} is disabled (--events-capacity 0)");
            } else {
                eprintln!("levyc: events from {node}");
            }
        }
        for event in parsed.get("events").and_then(Json::as_array).unwrap_or(&[]) {
            let seq = event.get("seq").and_then(Json::as_u64).unwrap_or(0);
            since = since.max(seq);
            let fields = event
                .get("fields")
                .and_then(|f| f.as_object())
                .map(|pairs| {
                    pairs
                        .iter()
                        .map(|(k, v)| format!("  {k}={}", v.as_str().unwrap_or("?")))
                        .collect::<String>()
                })
                .unwrap_or_default();
            emit(format_args!(
                "{seq}  {}  {}{fields}\n",
                event.get("unix_us").and_then(Json::as_u64).unwrap_or(0),
                event.get("kind").and_then(Json::as_str).unwrap_or("?"),
            ));
        }
        if !follow {
            std::process::exit(0);
        }
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Renders `GET /v1/peers` as a human table: one row per peer slot with
/// its state, last latency, failure and replica-write-error tallies, and
/// the age of the last probe observation.
fn render_peers_table(body: &Json, now_us: u64) -> Result<String, String> {
    let peers = body
        .get("peers")
        .and_then(Json::as_array)
        .ok_or_else(|| "peers body has no peers array".to_owned())?;
    let mut out = format!(
        "self {}  epoch {}  replication {}  rebalancing {}\n",
        body.get("self").and_then(Json::as_str).unwrap_or("?"),
        body.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        body.get("replication").and_then(Json::as_u64).unwrap_or(1),
        match body.get("rebalancing").and_then(Json::as_bool) {
            Some(true) => "yes",
            _ => "no",
        },
    );
    let addr_width = peers
        .iter()
        .filter_map(|p| p.get("addr").and_then(Json::as_str))
        .map(str::len)
        .max()
        .unwrap_or(0)
        .max("ADDR".len());
    out.push_str(&format!(
        "{:<5}  {:<addr_width$}  {:<7}  {:>10}  {:>5}  {:>9}  {}\n",
        "INDEX", "ADDR", "STATE", "LATENCY", "FAILS", "REPL_ERRS", "LAST_PROBE"
    ));
    for peer in peers {
        let state = if peer.get("removed").and_then(Json::as_bool) == Some(true) {
            "removed"
        } else if peer.get("up").and_then(Json::as_bool) == Some(true) {
            "up"
        } else {
            "down"
        };
        let last_seen = peer
            .get("last_seen_unix_us")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let age = if last_seen == 0 {
            "never".to_owned()
        } else {
            format!("{:.1}s ago", now_us.saturating_sub(last_seen) as f64 / 1e6)
        };
        out.push_str(&format!(
            "{:<5}  {:<addr_width$}  {:<7}  {:>8}us  {:>5}  {:>9}  {age}\n",
            peer.get("index").and_then(Json::as_u64).unwrap_or(0),
            peer.get("addr").and_then(Json::as_str).unwrap_or("?"),
            state,
            peer.get("latency_us").and_then(Json::as_u64).unwrap_or(0),
            peer.get("failures").and_then(Json::as_u64).unwrap_or(0),
            peer.get("replica_errors")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        ));
    }
    Ok(out)
}

/// Parses Prometheus text exposition into sorted `(series, value)` pairs
/// — the same key shape `levy_obs::Registry::sample` produces, so the
/// snapshots diff with the shared `levy_obs::diff`.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut values: Vec<(String, f64)> = text
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            // Label values may contain spaces; the value never does.
            let (key, value) = line.rsplit_once(' ')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect();
    values.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    values
}

/// Whether a series key belongs to `family` (exact name, labeled series,
/// or a histogram's `_bucket`/`_sum`/`_count` expansion).
fn family_matches(key: &str, family: &str) -> bool {
    key == family
        || key
            .strip_prefix(family)
            .is_some_and(|rest| rest.starts_with('{') || rest.starts_with('_'))
}

/// Renders the changed series between two snapshots, one line each.
fn render_deltas(prev: &Snapshot, next: &Snapshot, family: Option<&str>) -> Vec<String> {
    let elapsed_s = (next.ts_us.saturating_sub(prev.ts_us)) as f64 / 1e6;
    diff(prev, next)
        .into_iter()
        .filter(|(key, _, _)| family.is_none_or(|f| family_matches(key, f)))
        .map(|(key, before, after)| {
            let delta = after - before;
            let rate = if elapsed_s > 0.0 {
                format!("  {:+.1}/s", delta / elapsed_s)
            } else {
                String::new()
            };
            format!("{key}  {before} -> {after}  ({delta:+}){rate}")
        })
        .collect()
}

/// Pretty-prints the JSON body of `GET /v1/traces/<id>` as an indented
/// span tree, children sorted by start time.
fn render_trace_tree(trace: &Json) -> Result<String, String> {
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .ok_or_else(|| "trace body has no spans array".to_owned())?;
    let trace_start = trace
        .get("start_unix_us")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let mut out = format!(
        "trace {}  {}  status={}  {}us\n",
        trace.get("trace_id").and_then(Json::as_str).unwrap_or("?"),
        trace.get("root").and_then(Json::as_str).unwrap_or("?"),
        trace.get("status").and_then(Json::as_u64).unwrap_or(0),
        trace.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
    );
    let id_of = |span: &Json| {
        span.get("span_id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned()
    };
    let parent_of = |span: &Json| {
        span.get("parent_id")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let mut ordered: Vec<&Json> = spans.iter().collect();
    ordered.sort_by_key(|s| s.get("start_unix_us").and_then(Json::as_u64).unwrap_or(0));
    // Iterative pre-order walk over the parent links.
    let mut stack: Vec<(String, usize)> = ordered
        .iter()
        .rev()
        .filter(|s| parent_of(s).is_none())
        .map(|s| (id_of(s), 0))
        .collect();
    while let Some((id, depth)) = stack.pop() {
        let Some(span) = spans.iter().find(|s| id_of(s) == id) else {
            continue;
        };
        let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
        let dur = span.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
        let offset = span
            .get("start_unix_us")
            .and_then(Json::as_u64)
            .unwrap_or(trace_start)
            .saturating_sub(trace_start);
        let tags = span
            .get("tags")
            .and_then(|t| t.as_object())
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|(k, v)| format!("  {k}={}", v.as_str().unwrap_or("?")))
                    .collect::<String>()
            })
            .unwrap_or_default();
        out.push_str(&format!(
            "{}{name}  +{offset}us  {dur}us{tags}\n",
            "  ".repeat(depth + 1)
        ));
        for child in ordered
            .iter()
            .rev()
            .filter(|s| parent_of(s) == Some(id.clone()))
        {
            stack.push((id_of(child), depth + 1));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) => {
            let response = &outcome.response;
            eprintln!("HTTP {}", response.status);
            if let Some(cache) = response.header("x-levy-cache") {
                let tier = response.header("x-levy-cache-tier").unwrap_or("-");
                eprintln!("cache: {cache} (tier: {tier})");
            }
            if let Some(key) = response.header("x-levy-key") {
                eprintln!("key: {key}");
            }
            if outcome.announce_trace {
                if let Some(id) = response.header("x-levy-trace-id") {
                    eprintln!("trace: {id}");
                }
            }
            let body = response.body_string();
            match outcome.render {
                Render::WireResult if (200..300).contains(&response.status) => {
                    match wirecodec::decode_result_to_json(&response.body) {
                        Ok(json) => {
                            eprintln!("wire: {} bytes", response.body.len());
                            emit(format_args!("{}\n", json.to_string_pretty().trim_end()));
                        }
                        Err(message) => {
                            eprintln!("levyc: could not decode wire result: {message}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                Render::TraceTree if (200..300).contains(&response.status) => {
                    match Json::parse(&body)
                        .map_err(|e| e.to_string())
                        .and_then(|j| render_trace_tree(&j))
                    {
                        Ok(tree) => emit(format_args!("{tree}")),
                        Err(message) => {
                            eprintln!("levyc: could not render trace tree: {message}");
                            emit(format_args!("{}\n", body.trim_end()));
                        }
                    }
                }
                Render::PeersTable if (200..300).contains(&response.status) => {
                    match Json::parse(&body)
                        .map_err(|e| e.to_string())
                        .and_then(|j| render_peers_table(&j, unix_us()))
                    {
                        Ok(table) => emit(format_args!("{table}")),
                        Err(message) => {
                            eprintln!("levyc: could not render peers table: {message}");
                            emit(format_args!("{}\n", body.trim_end()));
                        }
                    }
                }
                _ => emit(format_args!("{}\n", body.trim_end())),
            }
            if (200..300).contains(&response.status) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("levyc: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_into_sorted_series() {
        let text = "# HELP levy_a Something.\n# TYPE levy_a counter\nlevy_a 3\n\
                    levy_b{path=\"/x y\",status=\"200\"} 7\nlevy_a_sum 1.5\n";
        let values = parse_exposition(text);
        assert_eq!(
            values,
            vec![
                ("levy_a".to_owned(), 3.0),
                ("levy_a_sum".to_owned(), 1.5),
                ("levy_b{path=\"/x y\",status=\"200\"}".to_owned(), 7.0),
            ]
        );
    }

    #[test]
    fn deltas_filter_by_family_and_report_rates() {
        let prev = Snapshot {
            ts_us: 0,
            values: vec![
                ("levy_served_queries_total".to_owned(), 10.0),
                ("levy_sim_trials_completed_total".to_owned(), 100.0),
            ],
        };
        let next = Snapshot {
            ts_us: 2_000_000,
            values: vec![
                ("levy_served_queries_total".to_owned(), 14.0),
                ("levy_sim_trials_completed_total".to_owned(), 100.0),
            ],
        };
        let all = render_deltas(&prev, &next, None);
        assert_eq!(
            all,
            vec!["levy_served_queries_total  10 -> 14  (+4)  +2.0/s".to_owned()],
            "unchanged series are omitted"
        );
        let filtered = render_deltas(&prev, &next, Some("levy_sim_trials_completed_total"));
        assert!(filtered.is_empty(), "family filter applies");
        // Labeled and suffixed series count as part of the family.
        assert!(family_matches("levy_a{alpha=\"1.5\"}", "levy_a"));
        assert!(family_matches("levy_a_count", "levy_a"));
        assert!(!family_matches("levy_ab", "levy_a"));
    }

    #[test]
    fn trace_tree_renders_nested_spans_in_start_order() {
        let body = r#"{
            "trace_id": "00000000000000000000000000000abc",
            "root": "request", "start_unix_us": 1000, "dur_us": 500, "status": 200,
            "spans": [
                {"span_id": "0000000000000002", "parent_id": "0000000000000001",
                 "name": "cache_probe", "start_unix_us": 1010, "dur_us": 5,
                 "tags": {"outcome": "miss"}},
                {"span_id": "0000000000000003", "parent_id": "0000000000000001",
                 "name": "worker_exec", "start_unix_us": 1020, "dur_us": 400},
                {"span_id": "0000000000000004", "parent_id": "0000000000000003",
                 "name": "simulate", "start_unix_us": 1030, "dur_us": 390},
                {"span_id": "0000000000000001",
                 "name": "request", "start_unix_us": 1000, "dur_us": 500}
            ]
        }"#;
        let tree = render_trace_tree(&Json::parse(body).unwrap()).unwrap();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].contains("status=200"));
        assert!(lines[1].contains("request"));
        assert!(lines[2].contains("cache_probe") && lines[2].contains("outcome=miss"));
        assert!(lines[3].contains("worker_exec"));
        assert!(
            lines[4].contains("simulate") && lines[4].starts_with("      "),
            "simulate nests under worker_exec: {:?}",
            lines[4]
        );
        assert!(lines[2].contains("+10us") && lines[2].contains("5us"));
    }

    #[test]
    fn peers_table_renders_state_tallies_and_probe_age() {
        let body = r#"{
            "self": "a:1", "epoch": 2, "replication": 2, "rebalancing": false,
            "peers": [
                {"addr": "b:1", "index": 0, "up": true, "removed": false,
                 "latency_us": 120, "failures": 1, "replica_errors": 2,
                 "last_seen_unix_us": 1000},
                {"addr": "c:1", "index": 1, "up": false, "removed": false,
                 "latency_us": 0, "failures": 5, "replica_errors": 0,
                 "last_seen_unix_us": 0},
                {"addr": "d:1", "index": 2, "up": false, "removed": true,
                 "latency_us": 0, "failures": 0, "replica_errors": 0,
                 "last_seen_unix_us": 500}
            ]
        }"#;
        let table = render_peers_table(&Json::parse(body).unwrap(), 2_001_000).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("self a:1") && lines[0].contains("epoch 2"));
        assert!(lines[1].contains("REPL_ERRS") && lines[1].contains("LAST_PROBE"));
        assert!(lines[2].contains("b:1") && lines[2].contains("up"));
        assert!(lines[2].contains("2.0s ago"), "probe age: {:?}", lines[2]);
        assert!(lines[2].contains('2'), "replica errors surface");
        assert!(lines[3].contains("down") && lines[3].contains("never"));
        assert!(lines[4].contains("removed"));
        let err = render_peers_table(&Json::parse(r#"{"error":"x"}"#).unwrap(), 0);
        assert!(err.is_err());
    }

    #[test]
    fn trace_tree_rejects_bodies_without_spans() {
        let err = render_trace_tree(&Json::parse(r#"{"error":"no such trace"}"#).unwrap());
        assert!(err.is_err());
    }
}
