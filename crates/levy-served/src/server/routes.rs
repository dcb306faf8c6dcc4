//! Request routing and every endpoint but `POST /v1/query`: health,
//! stats, metrics (local, history, federated), traces (local, fragments,
//! cluster-stitched), the event journal, membership changes, cache
//! peeks and replica writes, shutdown — plus their JSON renderers.

use std::sync::atomic::Ordering;

use levy_obs::{
    Event, FinishedTrace, Snapshot, SpanId, SpanRef, StitchedTrace, TraceId, TraceSpan,
};
use levy_sim::Json;

use super::query::{answer_response, handle_query, wants_wire};
use super::Inner;
use crate::cluster::{Cluster, EPOCH_HEADER, TOKEN_HEADER};
use crate::http::{Request, Response};

/// Splits a request target into its path and optional raw query string
/// (`/v1/events?since=3` → `("/v1/events", Some("since=3"))`).
pub(super) fn split_query(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// The value of `name` in a raw query string (`a=1&b=2`). No percent
/// decoding: every parameter this server defines is plain ASCII.
fn query_param<'a>(query: Option<&'a str>, name: &str) -> Option<&'a str> {
    query?
        .split('&')
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .find(|(key, _)| *key == name)
        .map(|(_, value)| value)
}

const NOT_CLUSTERED: &str = "not in cluster mode (start levyd with --cluster)";
const NO_TRACE: &str = "no finished trace with that id (still running, evicted, or never seen)";

/// A Prometheus text-exposition response.
fn exposition(body: String) -> Response {
    Response::bytes(
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        body.into_bytes(),
    )
}

pub(super) fn route(request: &Request, inner: &Inner, root: &TraceSpan) -> Response {
    // `Request.path` keeps the raw target; dispatch on the path alone so
    // parameterized endpoints (`?scope=cluster`, `?since=N`) route.
    let (path, query) = split_query(&request.path);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj([
                ("status", Json::from("ok")),
                (
                    "uptime_secs",
                    Json::from(inner.started.elapsed().as_secs_f64()),
                ),
            ]),
        ),
        ("GET", "/metrics") => exposition(inner.stats.encode_prometheus()),
        ("GET", "/v1/stats") => Response::json(
            200,
            &Json::obj([
                ("schema", Json::from("levy-served/stats-v1")),
                ("queue_depth", Json::from(inner.jobs.depth())),
                ("inflight", Json::from(inner.jobs.inflight())),
                ("counters", inner.stats.to_json()),
                ("cache", inner.cache.stats_json()),
                (
                    "config",
                    Json::obj([
                        ("workers", Json::from(inner.config.workers)),
                        ("sim_threads", Json::from(inner.config.sim_threads)),
                        ("queue_capacity", Json::from(inner.config.queue_capacity)),
                        (
                            "default_timeout_ms",
                            Json::from(inner.config.default_timeout_ms),
                        ),
                    ]),
                ),
            ]),
        ),
        ("GET", "/v1/traces") => {
            let traces = inner.traces.finished();
            Response::json(
                200,
                &Json::obj([
                    ("schema", Json::from("levy-served/traces-v1")),
                    ("count", Json::from(traces.len())),
                    (
                        "traces",
                        // Newest first: the trace a client just finished is
                        // the one it is about to look up.
                        Json::arr(traces.iter().rev().map(trace_summary_json)),
                    ),
                ]),
            )
        }
        ("GET", "/metrics/history") => {
            let snapshots = inner.history.lock().expect("history lock").snapshots();
            Response::json(
                200,
                &Json::obj([
                    ("schema", Json::from("levy-served/metrics-history-v1")),
                    ("interval_ms", Json::from(inner.config.history_interval_ms)),
                    ("snapshots", Json::arr(snapshots.iter().map(snapshot_json))),
                ]),
            )
        }
        ("GET", "/v1/peers") => match &inner.cluster {
            Some(cluster) => Response::json(200, &cluster.peers_json()),
            None => Response::error(404, NOT_CLUSTERED),
        },
        ("GET", "/v1/cluster/metrics") => handle_cluster_metrics(inner, query),
        ("GET", "/v1/events") => handle_events(inner, query),
        ("POST", "/v1/peers") => handle_peers_change(request, inner),
        ("PUT", path) if path.starts_with("/v1/cache/") => {
            handle_replica_put(request, inner, &path["/v1/cache/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/cache/") => {
            // Cache peek: do we already hold this key? Never simulates.
            // Peers use it before forwarding; it also works as a debug
            // probe in single-node mode.
            let key = &path["/v1/cache/".len()..];
            if levy_cluster::key_from_hex(key).is_none() {
                return Response::error(400, "cache keys are 32 hex digits");
            }
            let wire = match wants_wire(request) {
                Ok(wire) => wire,
                Err(response) => return response,
            };
            if wire {
                inner.stats.wire_requests.inc();
            }
            match inner.cache.get(key) {
                Some((cached, tier)) => answer_response(&cached, wire, "hit", Some(tier), key),
                None => Response::error(404, "no cached result for that key"),
            }
        }
        ("GET", path) if path.starts_with("/v1/traces/") => {
            let id = &path["/v1/traces/".len()..];
            if query_param(query, "scope") == Some("cluster") {
                return handle_cluster_trace(inner, id);
            }
            if query_param(query, "fragments") == Some("1") {
                return handle_trace_fragments(inner, id);
            }
            match TraceId::from_hex(id).and_then(|id| inner.traces.get(id)) {
                Some(trace) => Response::json(200, &trace_json(&trace)),
                None => Response::error(404, NO_TRACE),
            }
        }
        ("POST", "/v1/shutdown") => {
            inner.shutdown_requested.store(true, Ordering::Release);
            Response::json(202, &Json::obj([("status", Json::from("shutting down"))]))
        }
        ("POST", "/v1/query") => handle_query(request, inner, root),
        ("POST" | "GET", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// One span as JSON: `parent_id` omitted for roots, `node` present on
/// cluster-stitched spans only.
fn span_json(
    span_id: SpanRef,
    parent_id: Option<SpanRef>,
    node: Option<&str>,
    name: &str,
    start_unix_us: u64,
    dur_us: u64,
    tags: &[(String, String)],
) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("span_id".into(), Json::from(span_id.to_string()))];
    if let Some(parent) = parent_id {
        fields.push(("parent_id".into(), Json::from(parent.to_string())));
    }
    fields.push(("name".into(), Json::from(name)));
    if let Some(node) = node {
        fields.push(("node".into(), Json::from(node)));
    }
    fields.push(("start_unix_us".into(), Json::from(start_unix_us)));
    fields.push(("dur_us".into(), Json::from(dur_us)));
    if !tags.is_empty() {
        let tags = tags.iter().map(|(k, v)| (k.clone(), Json::from(v.clone())));
        fields.push(("tags".into(), Json::obj(tags)));
    }
    Json::obj(fields)
}

/// Full trace body for `GET /v1/traces/<id>`.
fn trace_json(trace: &FinishedTrace) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::from("levy-served/trace-v1")),
        ("trace_id".into(), Json::from(trace.trace_id.to_string())),
        ("root".into(), Json::from(trace.root_name.clone())),
        ("start_unix_us".into(), Json::from(trace.start_unix_us)),
        ("dur_us".into(), Json::from(trace.dur_us)),
        ("status".into(), Json::from(u64::from(trace.status))),
    ];
    if let Some(remote) = trace.remote_parent {
        fields.push(("remote_parent".into(), Json::from(remote.to_string())));
    }
    let spans = trace.spans.iter().map(|s| {
        span_json(
            SpanRef::Id(s.span_id),
            s.parent_id.map(SpanRef::Id),
            None,
            &s.name,
            s.start_unix_us,
            s.dur_us,
            &s.tags,
        )
    });
    fields.push(("spans".into(), Json::arr(spans)));
    Json::obj(fields)
}

/// The `trace-cluster-v1` body for a stitched trace.
fn cluster_trace_json(trace_id: &str, trace: &StitchedTrace) -> Json {
    let spans = trace.spans.iter().map(|s| {
        span_json(
            s.span_id,
            s.parent_id,
            Some(&s.node),
            &s.name,
            s.start_unix_us,
            s.dur_us,
            &s.tags,
        )
    });
    Json::obj([
        ("schema", Json::from("levy-served/trace-cluster-v1")),
        ("trace_id", Json::from(trace_id)),
        ("scope", Json::from("cluster")),
        ("root", Json::from(trace.root_name.clone())),
        ("start_unix_us", Json::from(trace.start_unix_us)),
        ("dur_us", Json::from(trace.dur_us)),
        ("status", Json::from(u64::from(trace.status))),
        (
            "nodes",
            Json::arr(trace.nodes.iter().map(|n| Json::from(n.clone()))),
        ),
        ("spans", Json::arr(spans)),
    ])
}

/// One-line trace summary for the `GET /v1/traces` listing.
fn trace_summary_json(trace: &FinishedTrace) -> Json {
    Json::obj([
        ("trace_id", Json::from(trace.trace_id.to_string())),
        ("root", Json::from(trace.root_name.clone())),
        ("start_unix_us", Json::from(trace.start_unix_us)),
        ("dur_us", Json::from(trace.dur_us)),
        ("status", Json::from(u64::from(trace.status))),
        ("spans", Json::from(trace.spans.len())),
    ])
}

/// One history snapshot as JSON.
fn snapshot_json(snapshot: &Snapshot) -> Json {
    let values = snapshot
        .values
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(*v)));
    Json::obj([
        ("ts_us", Json::from(snapshot.ts_us)),
        ("values", Json::obj(values)),
    ])
}

/// One journal entry as JSON for `GET /v1/events`.
fn event_json(event: &Event) -> Json {
    let fields = event
        .fields
        .iter()
        .map(|(k, v)| ((*k).to_owned(), Json::from(v.clone())));
    Json::obj([
        ("seq", Json::from(event.seq)),
        ("unix_us", Json::from(event.unix_us)),
        ("kind", Json::from(event.kind.as_str())),
        ("fields", Json::obj(fields)),
    ])
}

/// `GET /v1/events`: the structured event journal, oldest-first, with a
/// since-seq cursor (`?since=N` returns events with seq > N, `?max=M`
/// bounds the page). `last_seq` lets a follower poll without re-reading:
/// pass it back as the next `since`.
fn handle_events(inner: &Inner, query: Option<&str>) -> Response {
    let since = match query_param(query, "since").map(str::parse::<u64>) {
        Some(Ok(n)) => n,
        Some(Err(_)) => return Response::error(400, "since must be a non-negative integer"),
        None => 0,
    };
    let max = match query_param(query, "max").map(str::parse::<usize>) {
        Some(Ok(n)) => n.min(4096),
        Some(Err(_)) => return Response::error(400, "max must be a non-negative integer"),
        None => 1024,
    };
    let events = inner.events.since(since, max);
    Response::json(
        200,
        &Json::obj([
            ("schema", Json::from("levy-served/events-v1")),
            ("node", Json::from(inner.node_name())),
            ("enabled", Json::from(inner.events.enabled())),
            ("last_seq", Json::from(inner.events.last_seq())),
            ("count", Json::from(events.len())),
            ("events", Json::arr(events.iter().map(event_json))),
        ]),
    )
}

/// `GET /v1/cluster/metrics`: the federated view — this node's own
/// exposition merged with a live `/metrics` scrape of every peer
/// (counters and gauges summed per family, histograms pooled
/// bucket-wise; `?by=node` keeps per-node series under a `node` label
/// instead). A dead peer *degrades* the view — its series are simply
/// absent, flagged by `levy_cluster_scrape_up{node=...} 0` and a
/// trailing comment — it never turns the scrape into an error.
fn handle_cluster_metrics(inner: &Inner, query: Option<&str>) -> Response {
    let by_node = query_param(query, "by") == Some("node");
    let self_name = inner.node_name();
    let mut sources = vec![(
        self_name.clone(),
        levy_obs::parse_exposition(&inner.stats.encode_prometheus()),
    )];
    // (node, merged?, note) per scrape target, self included.
    let mut scrapes: Vec<(String, bool, String)> = vec![(self_name, true, String::new())];
    let answers = inner.cluster.as_ref().map(|c| c.fan_out("/metrics"));
    for (addr, answer) in answers.into_iter().flatten() {
        match answer {
            Ok(response) if response.status == 200 => {
                let families = levy_obs::parse_exposition(&response.body_string());
                sources.push((addr.clone(), families));
                scrapes.push((addr, true, String::new()));
            }
            Ok(response) => {
                scrapes.push((addr, false, format!("answered http {}", response.status)));
            }
            Err(e) => scrapes.push((addr, false, format!("unreachable: {e}"))),
        }
    }
    let mut body = levy_obs::merge_expositions(&sources, by_node);
    body.push_str(
        "# HELP levy_cluster_scrape_up Whether each node answered this federated scrape (0 = its series are missing from the view).\n# TYPE levy_cluster_scrape_up gauge\n",
    );
    for (node, merged, _) in &scrapes {
        body.push_str(&format!(
            "levy_cluster_scrape_up{{node=\"{node}\"}} {}\n",
            u8::from(*merged)
        ));
    }
    for (node, merged, note) in &scrapes {
        if !merged {
            body.push_str(&format!("# levy-cluster: node {node} {note}\n"));
        }
    }
    exposition(body)
}

/// `GET /v1/traces/<id>?fragments=1`: every finished fragment this node
/// holds for the trace, oldest first — the per-node half of cluster
/// stitching, where one node can hold several fragments of the same
/// distributed trace (a cache-peek exchange and the forwarded query).
fn handle_trace_fragments(inner: &Inner, id: &str) -> Response {
    let Some(trace_id) = TraceId::from_hex(id) else {
        return Response::error(404, "trace ids are 32 hex digits");
    };
    let fragments = inner.traces.get_all(trace_id);
    if fragments.is_empty() {
        return Response::error(404, NO_TRACE);
    }
    Response::json(
        200,
        &Json::obj([
            ("schema", Json::from("levy-served/trace-fragments-v1")),
            ("trace_id", Json::from(id)),
            ("count", Json::from(fragments.len())),
            ("fragments", Json::arr(fragments.iter().map(trace_json))),
        ]),
    )
}

/// Parses a peer's trace answer — a `trace-fragments-v1` listing or a
/// bare `trace-v1` body — back into [`FinishedTrace`] fragments. Empty
/// on a body that is not JSON, and spans with a malformed field are
/// skipped: a bad peer degrades the stitched view, never breaks it.
fn parse_trace_fragments(body: &str, trace_id: TraceId) -> Vec<FinishedTrace> {
    let Ok(parsed) = Json::parse(body) else {
        return Vec::new();
    };
    let fragment = |fragment: &Json| -> Option<FinishedTrace> {
        let u64_field = |json: &Json, name: &str| json.get(name).and_then(Json::as_u64);
        let span_id = |json: &Json, name: &str| json.get(name)?.as_str().and_then(SpanId::from_hex);
        let spans = fragment
            .get("spans")?
            .as_array()?
            .iter()
            .filter_map(|span| {
                let parent_id = match span.get("parent_id") {
                    Some(_) => Some(span_id(span, "parent_id")?),
                    None => None,
                };
                let tags = span.get("tags").and_then(Json::as_object).map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                        .collect()
                });
                Some(levy_obs::SpanRecord {
                    span_id: span_id(span, "span_id")?,
                    parent_id,
                    name: span.get("name")?.as_str()?.to_owned(),
                    start_unix_us: u64_field(span, "start_unix_us")?,
                    dur_us: u64_field(span, "dur_us")?,
                    tags: tags.unwrap_or_default(),
                })
            })
            .collect();
        Some(FinishedTrace {
            trace_id,
            root_name: fragment
                .get("root")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            start_unix_us: u64_field(fragment, "start_unix_us").unwrap_or(0),
            dur_us: u64_field(fragment, "dur_us").unwrap_or(0),
            status: u64_field(fragment, "status").unwrap_or(0) as u16,
            remote_parent: span_id(fragment, "remote_parent"),
            spans,
        })
    };
    match parsed.get("fragments").and_then(Json::as_array) {
        Some(fragments) => fragments.iter().filter_map(fragment).collect(),
        None => fragment(&parsed).into_iter().collect(),
    }
}

/// `GET /v1/traces/<id>?scope=cluster`: fan out to every peer for its
/// fragments of the trace and stitch one tree (`levy_obs::stitch`). Only
/// peers are asked for their *local* view, so a stitch never recurses.
fn handle_cluster_trace(inner: &Inner, id: &str) -> Response {
    let Some(trace_id) = TraceId::from_hex(id) else {
        return Response::error(404, "trace ids are 32 hex digits");
    };
    let node = inner.node_name();
    let mut fragments: Vec<(String, FinishedTrace)> = inner
        .traces
        .get_all(trace_id)
        .into_iter()
        .map(|trace| (node.clone(), trace))
        .collect();
    let path = format!("/v1/traces/{id}?fragments=1");
    let answers = inner.cluster.as_ref().map(|c| c.fan_out(&path));
    for (addr, answer) in answers.into_iter().flatten() {
        if let Ok(response) = answer {
            if response.status == 200 {
                let parsed = parse_trace_fragments(&response.body_string(), trace_id);
                fragments.extend(parsed.into_iter().map(|trace| (addr.clone(), trace)));
            }
        }
    }
    if fragments.is_empty() {
        return Response::error(
            404,
            "no node holds a finished trace with that id (still running, evicted, or never seen)",
        );
    }
    Response::json(200, &cluster_trace_json(id, &levy_obs::stitch(&fragments)))
}

/// Counts ring-epoch disagreement on a node-to-node call. Skew is
/// expected during a membership change (both sides still answer —
/// bodies are a pure function of the query); the counter makes the
/// window observable.
pub(super) fn note_epoch_skew(request: &Request, cluster: &Cluster, inner: &Inner) {
    if let Some(sent) = request
        .header(EPOCH_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        if sent != cluster.epoch() {
            inner.stats.cluster_epoch_skew.inc();
        }
    }
}

/// The cluster a token-gated write (membership change, replica write)
/// may act on; `Err` is the 404 outside cluster mode or the 403 for a
/// missing or wrong token.
fn authorized_cluster<'a>(request: &Request, inner: &'a Inner) -> Result<&'a Cluster, Response> {
    let Some(cluster) = &inner.cluster else {
        return Err(Response::error(404, NOT_CLUSTERED));
    };
    if !cluster.authorized(request.header(TOKEN_HEADER)) {
        return Err(Response::error(403, "missing or invalid cluster token"));
    }
    Ok(cluster)
}

/// `POST /v1/peers`: applies a membership change (token-gated when the
/// cluster was started with one) and kicks the rebalance handoff. The
/// body is strict `{"add": [...], "remove": [...], "epoch": N}` — every
/// field optional, anything else 400s without touching the ring.
fn handle_peers_change(request: &Request, inner: &Inner) -> Response {
    let cluster = match authorized_cluster(request, inner) {
        Ok(cluster) => cluster,
        Err(response) => return response,
    };
    let reject = |message: &str| {
        inner.stats.invalid_requests.inc();
        Response::error(400, message)
    };
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return reject("membership change body must be UTF-8 JSON");
    };
    let Ok(parsed) = Json::parse(body) else {
        return reject("membership change body must be valid JSON");
    };
    let Some(fields) = parsed.as_object() else {
        return reject("membership change body must be a JSON object");
    };
    let mut add: Vec<String> = Vec::new();
    let mut remove: Vec<String> = Vec::new();
    let mut epoch: Option<u64> = None;
    for (name, value) in fields {
        match name.as_str() {
            "add" | "remove" => {
                let Some(items) = value.as_array() else {
                    return reject(&format!("{name} must be an array of addresses"));
                };
                let out = if name == "add" { &mut add } else { &mut remove };
                for item in items {
                    match item.as_str() {
                        Some(addr) => out.push(addr.to_owned()),
                        None => return reject(&format!("{name} entries must be strings")),
                    }
                }
            }
            "epoch" => match value.as_u64() {
                Some(e) => epoch = Some(e),
                None => return reject("epoch must be a non-negative integer"),
            },
            other => return reject(&format!("unknown membership field {other:?}")),
        }
    }
    match cluster.apply_membership(&add, &remove, epoch) {
        Ok(new_epoch) => {
            inner.stats.cluster_membership_changes.inc();
            inner
                .stats
                .ring_epoch
                .set(i64::try_from(new_epoch).unwrap_or(i64::MAX));
            if let Some(repl) = &inner.repl {
                repl.handoff_rehomed();
            }
            inner.log(
                "membership change",
                &[
                    ("add", format!("{add:?}")),
                    ("remove", format!("{remove:?}")),
                    ("epoch", new_epoch.to_string()),
                ],
            );
            Response::json(200, &cluster.peers_json())
        }
        Err(e) => reject(&e),
    }
}

/// `PUT /v1/cache/<key>`: a replica write from a peer (write-behind or
/// handoff). The body must be the intact `result-v1` envelope for
/// `key` — the same validation disk reads get — so a bad peer can
/// never poison the cache. 201 = stored fresh, 200 = already held
/// (the idempotence signal handoff counting relies on).
fn handle_replica_put(request: &Request, inner: &Inner, key: &str) -> Response {
    let cluster = match authorized_cluster(request, inner) {
        Ok(cluster) => cluster,
        Err(response) => return response,
    };
    note_epoch_skew(request, cluster, inner);
    let invalid = |message: &str| {
        inner.stats.invalid_requests.inc();
        Response::error(400, message)
    };
    if levy_cluster::key_from_hex(key).is_none() {
        return invalid("cache keys are 32 hex digits");
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return invalid("replica writes carry a UTF-8 JSON result body");
    };
    if !crate::cache::disk_body_is_valid(key, body) {
        return invalid("body is not the intact result envelope for that key");
    }
    let (status, outcome) = match inner.cache.contains(key) {
        true => (200, "already_cached"),
        false => {
            inner.cache.put(key, body);
            (201, "stored")
        }
    };
    Response::json(status, &Json::obj([("status", Json::from(outcome))]))
        .with_header("X-Levy-Key", key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use levy_obs::SpanRecord;

    const TRACE: &str = "0123456789abcdef0123456789abcdef";

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            span_id: SpanId(id),
            parent_id: parent.map(SpanId),
            name: name.into(),
            start_unix_us: start,
            dur_us: dur,
            tags: Vec::new(),
        }
    }

    /// The `trace-cluster-v1` body for local fragments plus raw peer
    /// answers, rendered compact.
    fn stitched_body(local: &[(&str, FinishedTrace)], peers: &[(&str, &str)]) -> String {
        let trace_id = TraceId::from_hex(TRACE).unwrap();
        let mut fragments: Vec<(String, FinishedTrace)> = local
            .iter()
            .map(|(node, trace)| ((*node).to_owned(), trace.clone()))
            .collect();
        for (node, body) in peers {
            let parsed = parse_trace_fragments(body, trace_id);
            fragments.extend(parsed.into_iter().map(|trace| ((*node).to_owned(), trace)));
        }
        cluster_trace_json(TRACE, &levy_obs::stitch(&fragments)).to_string_compact()
    }

    #[test]
    fn cluster_trace_body_is_pinned() {
        // The entry node: request → cluster_route → peer_peek / peer_forward.
        let mut root = span(0x01, None, "request", 1000, 900);
        root.tags = vec![("method".into(), "POST".into())];
        let mut peek = span(0x03, Some(0x02), "peer_peek", 1020, 50);
        peek.tags = vec![
            ("peer".into(), "n1:1".into()),
            ("outcome".into(), "miss".into()),
        ];
        let entry = FinishedTrace {
            trace_id: TraceId::from_hex(TRACE).unwrap(),
            root_name: "request".into(),
            start_unix_us: 1000,
            dur_us: 900,
            status: 200,
            remote_parent: None,
            spans: vec![
                peek,
                span(0x04, Some(0x02), "peer_forward", 1080, 700),
                span(0x02, Some(0x01), "cluster_route", 1010, 800),
                root,
            ],
        };
        // n1 holds two fragments: the peek exchange (re-parented under
        // peer_peek) and the forwarded query (under peer_forward).
        let n1 = r#"{"schema":"levy-served/trace-fragments-v1","trace_id":"0123456789abcdef0123456789abcdef","count":2,"fragments":[
            {"schema":"levy-served/trace-v1","trace_id":"0123456789abcdef0123456789abcdef","root":"request","start_unix_us":1025,"dur_us":30,"status":404,"remote_parent":"0000000000000003",
             "spans":[{"span_id":"0000000000000011","name":"request","start_unix_us":1025,"dur_us":30,"tags":{"path":"/v1/cache/k"}}]},
            {"schema":"levy-served/trace-v1","trace_id":"0123456789abcdef0123456789abcdef","root":"request","start_unix_us":1100,"dur_us":600,"status":200,"remote_parent":"0000000000000004",
             "spans":[{"span_id":"0000000000000022","parent_id":"0000000000000021","name":"queue_wait","start_unix_us":1110,"dur_us":20},
                      {"span_id":"0000000000000024","parent_id":"0000000000000023","name":"simulate","start_unix_us":1140,"dur_us":500},
                      {"span_id":"0000000000000023","parent_id":"0000000000000021","name":"worker_exec","start_unix_us":1130,"dur_us":520},
                      {"span_id":"0000000000000021","name":"request","start_unix_us":1100,"dur_us":600}]}]}"#;
        // n2 repeats the entry's peer_forward span (first report wins),
        // and holds two orphans: a root whose remote parent no node
        // reported, and a span whose parent is missing.
        let n2 = r#"{"schema":"levy-served/trace-fragments-v1","trace_id":"0123456789abcdef0123456789abcdef","count":1,"fragments":[
            {"schema":"levy-served/trace-v1","trace_id":"0123456789abcdef0123456789abcdef","root":"request","start_unix_us":1050,"dur_us":40,"status":200,"remote_parent":"00000000000000ff",
             "spans":[{"span_id":"0000000000000004","parent_id":"0000000000000002","name":"duplicate","start_unix_us":1,"dur_us":1},
                      {"span_id":"0000000000000032","parent_id":"0000000000000099","name":"late_child","start_unix_us":1020,"dur_us":10},
                      {"span_id":"0000000000000031","name":"request","start_unix_us":1050,"dur_us":40}]}]}"#;
        // n3 answered garbage: it drops out of the stitched view.
        let n3 = r#"{"schema":"levy-served/trace-fragments-v1","fragments":[{"spans":"#;
        let body = stitched_body(
            &[("n0:1", entry)],
            &[("n1:1", n1), ("n2:1", n2), ("n3:1", n3)],
        );
        assert_eq!(
            body,
            concat!(
                r#"{"schema":"levy-served/trace-cluster-v1","trace_id":"0123456789abcdef0123456789abcdef","scope":"cluster","root":"request","start_unix_us":1000,"dur_us":900,"status":200,"nodes":["n0:1","n1:1","n2:1"],"spans":["#,
                r#"{"span_id":"0000000000000001","name":"request","node":"n0:1","start_unix_us":1000,"dur_us":900,"tags":{"method":"POST"}},"#,
                r#"{"span_id":"0000000000000002","parent_id":"0000000000000001","name":"cluster_route","node":"n0:1","start_unix_us":1010,"dur_us":800},"#,
                r#"{"span_id":"0000000000000003","parent_id":"0000000000000002","name":"peer_peek","node":"n0:1","start_unix_us":1020,"dur_us":50,"tags":{"peer":"n1:1","outcome":"miss"}},"#,
                r#"{"span_id":"0000000000000032","parent_id":"remote","name":"late_child","node":"n2:1","start_unix_us":1020,"dur_us":10},"#,
                r#"{"span_id":"remote","parent_id":"0000000000000001","name":"remote","node":"remote","start_unix_us":1020,"dur_us":70,"tags":{"synthetic":"1"}},"#,
                r#"{"span_id":"0000000000000011","parent_id":"0000000000000003","name":"request","node":"n1:1","start_unix_us":1025,"dur_us":30,"tags":{"path":"/v1/cache/k"}},"#,
                r#"{"span_id":"0000000000000031","parent_id":"remote","name":"request","node":"n2:1","start_unix_us":1050,"dur_us":40},"#,
                r#"{"span_id":"0000000000000004","parent_id":"0000000000000002","name":"peer_forward","node":"n0:1","start_unix_us":1080,"dur_us":700},"#,
                r#"{"span_id":"0000000000000021","parent_id":"0000000000000004","name":"request","node":"n1:1","start_unix_us":1100,"dur_us":600},"#,
                r#"{"span_id":"0000000000000022","parent_id":"0000000000000021","name":"queue_wait","node":"n1:1","start_unix_us":1110,"dur_us":20},"#,
                r#"{"span_id":"0000000000000023","parent_id":"0000000000000021","name":"worker_exec","node":"n1:1","start_unix_us":1130,"dur_us":520},"#,
                r#"{"span_id":"0000000000000024","parent_id":"0000000000000023","name":"simulate","node":"n1:1","start_unix_us":1140,"dur_us":500}"#,
                "]}",
            )
        );
    }
}
