//! Cross-node trace stitching: one tree out of the [`FinishedTrace`]
//! fragments several nodes hold for the same distributed trace.
//!
//! A forwarded query leaves a fragment on every node it touched: the
//! entry node's tree, the home node's tree (its root carries the entry
//! node's span as `remote_parent`), and possibly a cache-peek exchange.
//! [`stitch`] joins them without any I/O, so the cluster-scope trace
//! endpoint is a fan-out plus this pure function:
//!
//! 1. pool spans, deduped by span id (the first report wins);
//! 2. re-parent each fragment's roots under its `remote_parent` when
//!    that span is in the pool;
//! 3. the earliest span still parentless (or parented to a span no node
//!    reported) is the primary root, with no parent; every other such
//!    orphan hangs under a synthetic `remote` span beneath it, so the
//!    result is one tree.
//!
//! Spans come out sorted by `(start, span id)`, so the stitched tree does
//! not depend on the order the fragments arrived in.

use std::collections::HashMap;
use std::fmt;

use crate::trace::SpanId;
use crate::traces::FinishedTrace;

/// A span reference in a stitched trace: a real span id, or the
/// synthetic `remote` span that groups orphans. Orders every real id
/// before `Remote`, as their rendered forms (`%016x` vs `remote`) do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanRef {
    /// A span some node reported.
    Id(SpanId),
    /// The synthetic parent of orphaned fragments.
    Remote,
}

impl fmt::Display for SpanRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanRef::Id(id) => id.fmt(f),
            SpanRef::Remote => f.write_str("remote"),
        }
    }
}

/// One span of a stitched trace, tagged with the node that reported it.
#[derive(Clone, Debug, PartialEq)]
pub struct StitchedSpan {
    /// The span's id.
    pub span_id: SpanRef,
    /// Parent in the stitched tree; `None` only for the primary root.
    pub parent_id: Option<SpanRef>,
    /// Span name.
    pub name: String,
    /// Start as unix microseconds.
    pub start_unix_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form annotations (`synthetic=1` on the `remote` span).
    pub tags: Vec<(String, String)>,
    /// The node whose fragment reported the span (`remote` for the
    /// synthetic span).
    pub node: String,
}

/// The result of [`stitch`].
#[derive(Clone, Debug, PartialEq)]
pub struct StitchedTrace {
    /// Name of the primary root (empty when no span was reported).
    pub root_name: String,
    /// Earliest span start, unix microseconds.
    pub start_unix_us: u64,
    /// From the earliest start to the latest end, in microseconds.
    pub dur_us: u64,
    /// Status of the fragment holding the primary root (0 when none).
    pub status: u16,
    /// Nodes that contributed a fragment, in first-seen order.
    pub nodes: Vec<String>,
    /// Every span once, sorted by `(start, span id)`.
    pub spans: Vec<StitchedSpan>,
}

/// Stitches `(node, fragment)` pairs into one tree (see the module doc).
pub fn stitch(fragments: &[(String, FinishedTrace)]) -> StitchedTrace {
    let mut nodes: Vec<String> = Vec::new();
    let mut index: HashMap<SpanId, usize> = HashMap::new();
    let mut pool: Vec<StitchedSpan> = Vec::new();
    for (node, trace) in fragments {
        if !nodes.contains(node) {
            nodes.push(node.clone());
        }
        for span in &trace.spans {
            if index.contains_key(&span.span_id) {
                continue;
            }
            index.insert(span.span_id, pool.len());
            pool.push(StitchedSpan {
                span_id: SpanRef::Id(span.span_id),
                parent_id: span.parent_id.map(SpanRef::Id),
                name: span.name.clone(),
                start_unix_us: span.start_unix_us,
                dur_us: span.dur_us,
                tags: span.tags.clone(),
                node: node.clone(),
            });
        }
    }
    for (_, trace) in fragments {
        // A remote parent no node reported leaves the roots orphaned.
        let Some(remote_parent) = trace.remote_parent.filter(|id| index.contains_key(id)) else {
            continue;
        };
        // Only this fragment's own roots re-parent: a node can hold
        // several fragments with different remote parents.
        for root in trace.spans.iter().filter(|s| s.parent_id.is_none()) {
            let pooled = &mut pool[index[&root.span_id]];
            if pooled.parent_id.is_none() {
                pooled.parent_id = Some(SpanRef::Id(remote_parent));
            }
        }
    }
    let orphans: Vec<usize> = (0..pool.len())
        .filter(|&i| match pool[i].parent_id {
            Some(SpanRef::Id(parent)) => !index.contains_key(&parent),
            _ => true,
        })
        .collect();
    let primary = orphans
        .iter()
        .copied()
        .min_by_key(|&i| (pool[i].start_unix_us, pool[i].span_id));
    let primary_id = primary.map(|i| pool[i].span_id);
    if let Some(i) = primary {
        // It may still name a parent no node reported (that span finished
        // after its node finalized the trace); as the tree's root it has
        // none.
        pool[i].parent_id = None;
    }
    let stragglers: Vec<usize> = orphans
        .into_iter()
        .filter(|&i| Some(i) != primary)
        .collect();
    if let (Some(primary_id), Some(start)) = (
        primary_id,
        stragglers.iter().map(|&i| pool[i].start_unix_us).min(),
    ) {
        let end = stragglers
            .iter()
            .map(|&i| end_of(&pool[i]))
            .max()
            .unwrap_or(start);
        for &i in &stragglers {
            pool[i].parent_id = Some(SpanRef::Remote);
        }
        pool.push(StitchedSpan {
            span_id: SpanRef::Remote,
            parent_id: Some(primary_id),
            name: "remote".into(),
            start_unix_us: start,
            dur_us: end.saturating_sub(start),
            tags: vec![("synthetic".into(), "1".into())],
            node: "remote".into(),
        });
    }
    let root_name = primary.map(|i| pool[i].name.clone()).unwrap_or_default();
    let status = fragments
        .iter()
        .find(|(_, trace)| {
            trace
                .spans
                .iter()
                .any(|s| Some(SpanRef::Id(s.span_id)) == primary_id)
        })
        .map_or(0, |(_, trace)| trace.status);
    pool.sort_by_key(|s| (s.start_unix_us, s.span_id));
    let start = pool.iter().map(|s| s.start_unix_us).min().unwrap_or(0);
    let end = pool.iter().map(end_of).max().unwrap_or(start);
    StitchedTrace {
        root_name,
        start_unix_us: start,
        dur_us: end.saturating_sub(start),
        status,
        nodes,
        spans: pool,
    }
}

fn end_of(span: &StitchedSpan) -> u64 {
    span.start_unix_us.saturating_add(span.dur_us)
}
