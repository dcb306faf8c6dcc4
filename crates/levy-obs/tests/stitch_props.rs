//! Property tests for the cross-node trace stitch: seeded fragment sets
//! cut from one distributed span tree (with lost fragments, lost spans,
//! unknown remote parents and whole fragments reported twice), stitched
//! in every order of their sources. Each stitch must report every span
//! once, form exactly one tree, and give the same span set and parent
//! links whatever order the fragments arrived in.

use std::collections::{BTreeMap, HashSet};

use levy_obs::{stitch, FinishedTrace, SpanId, SpanRecord, SpanRef, StitchedTrace, TraceId};

/// splitmix64: a dependency-free seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A seeded set of `(node, fragment)` pairs. Fragment `f > 0` hangs
/// under a span of an earlier fragment through its `remote_parent`, as
/// a forwarded query's home fragment hangs under the entry node's
/// `peer_forward` span.
fn fragment_set(seed: u64) -> Vec<(String, FinishedTrace)> {
    let mut rng = Rng(seed);
    let mut used = HashSet::new();
    let mut fresh_id = |rng: &mut Rng| loop {
        let id = rng.next();
        if used.insert(id) {
            break SpanId(id);
        }
    };
    let count = 1 + rng.below(4) as usize;
    let mut fragments: Vec<(String, FinishedTrace)> = Vec::new();
    let mut all_ids: Vec<SpanId> = Vec::new();
    for f in 0..count {
        let remote_parent = match f {
            // Sometimes the entry fragment itself names a parent no node
            // reports (a caller outside the cluster).
            0 => rng.chance(30).then(|| fresh_id(&mut rng)),
            _ => Some(all_ids[rng.below(all_ids.len() as u64) as usize]),
        };
        let mut spans: Vec<SpanRecord> = Vec::new();
        for j in 0..1 + rng.below(4) {
            let parent_id = match j {
                0 => None,
                _ => Some(spans[rng.below(spans.len() as u64) as usize].span_id),
            };
            spans.push(SpanRecord {
                span_id: fresh_id(&mut rng),
                parent_id,
                name: format!("s{f}_{j}"),
                start_unix_us: rng.below(40),
                dur_us: rng.below(40),
                tags: Vec::new(),
            });
        }
        all_ids.extend(spans.iter().map(|s| s.span_id));
        // A span lost before its trace finished orphans its children.
        if spans.len() > 1 && rng.chance(25) {
            let lost = 1 + rng.below(spans.len() as u64 - 1) as usize;
            spans.remove(lost);
        }
        let trace = FinishedTrace {
            trace_id: TraceId(7),
            root_name: spans[0].name.clone(),
            start_unix_us: spans[0].start_unix_us,
            dur_us: spans[0].dur_us,
            status: [200, 404, 503][rng.below(3) as usize],
            remote_parent,
            spans,
        };
        fragments.push((format!("n{}", f % 3), trace));
    }
    // A whole fragment lost in transit (never the only one).
    if fragments.len() > 1 && rng.chance(30) {
        let lost = rng.below(fragments.len() as u64) as usize;
        fragments.remove(lost);
    }
    // The same fragment reported by a second node.
    if rng.chance(40) {
        let copy = fragments[rng.below(fragments.len() as u64) as usize].clone();
        fragments.push((format!("dup_{}", copy.0), copy.1));
    }
    fragments
}

/// Every permutation of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(order.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, order, out);
            let swap = if k.is_multiple_of(2) { i } else { 0 };
            order.swap(swap, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(n, &mut (0..n).collect(), &mut out);
    out
}

/// Span ids are unique and the parent links form exactly one tree.
fn assert_one_tree(stitched: &StitchedTrace, seed: u64) {
    let links: BTreeMap<SpanRef, Option<SpanRef>> = stitched
        .spans
        .iter()
        .map(|s| (s.span_id, s.parent_id))
        .collect();
    assert_eq!(
        links.len(),
        stitched.spans.len(),
        "seed {seed}: a span id appears twice"
    );
    let roots: Vec<SpanRef> = links
        .iter()
        .filter(|(_, parent)| parent.is_none())
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(roots.len(), 1, "seed {seed}: roots {roots:?}");
    for &start in links.keys() {
        let mut at = start;
        let mut hops = 0;
        while let Some(parent) = links[&at] {
            assert!(
                links.contains_key(&parent),
                "seed {seed}: {at} has unreported parent {parent}"
            );
            at = parent;
            hops += 1;
            assert!(hops <= links.len(), "seed {seed}: cycle through {start}");
        }
        assert_eq!(at, roots[0], "seed {seed}: {start} is not under the root");
    }
    let sorted = stitched
        .spans
        .windows(2)
        .all(|w| (w[0].start_unix_us, w[0].span_id) <= (w[1].start_unix_us, w[1].span_id));
    assert!(sorted, "seed {seed}: spans not sorted by (start, id)");
}

#[test]
fn stitch_is_one_tree_whatever_the_source_order() {
    let mut with_remote = 0;
    for seed in 0..300u64 {
        let fragments = fragment_set(seed);
        let reported: HashSet<SpanId> = fragments
            .iter()
            .flat_map(|(_, t)| t.spans.iter().map(|s| s.span_id))
            .collect();
        let mut reference: Option<(BTreeMap<SpanRef, Option<SpanRef>>, StitchedTrace)> = None;
        for order in permutations(fragments.len()) {
            let permuted: Vec<(String, FinishedTrace)> =
                order.iter().map(|&i| fragments[i].clone()).collect();
            let stitched = stitch(&permuted);
            assert_one_tree(&stitched, seed);
            let real: HashSet<SpanId> = stitched
                .spans
                .iter()
                .filter_map(|s| match s.span_id {
                    SpanRef::Id(id) => Some(id),
                    SpanRef::Remote => None,
                })
                .collect();
            assert_eq!(
                real, reported,
                "seed {seed}: span set differs from the input"
            );
            let links: BTreeMap<SpanRef, Option<SpanRef>> = stitched
                .spans
                .iter()
                .map(|s| (s.span_id, s.parent_id))
                .collect();
            match &reference {
                None => reference = Some((links, stitched)),
                Some((first_links, first)) => {
                    assert_eq!(&links, first_links, "seed {seed}: order {order:?}");
                    assert_eq!(
                        (
                            &stitched.root_name,
                            stitched.start_unix_us,
                            stitched.dur_us,
                            stitched.status
                        ),
                        (
                            &first.root_name,
                            first.start_unix_us,
                            first.dur_us,
                            first.status
                        ),
                        "seed {seed}: order {order:?}"
                    );
                }
            }
        }
        if reference.is_some_and(|(links, _)| links.contains_key(&SpanRef::Remote)) {
            with_remote += 1;
        }
    }
    // The generator must actually exercise the orphan path.
    assert!(
        with_remote >= 30,
        "only {with_remote} seeds produced orphans"
    );
}

#[test]
fn empty_and_spanless_inputs_stitch_to_an_empty_trace() {
    let empty = stitch(&[]);
    assert!(empty.spans.is_empty() && empty.nodes.is_empty());
    assert_eq!((empty.root_name.as_str(), empty.status), ("", 0));
    let spanless = FinishedTrace {
        trace_id: TraceId(1),
        root_name: "request".into(),
        start_unix_us: 5,
        dur_us: 5,
        status: 200,
        remote_parent: None,
        spans: Vec::new(),
    };
    let stitched = stitch(&[("a:1".into(), spanless)]);
    assert_eq!(stitched.nodes, vec!["a:1".to_owned()]);
    assert!(stitched.spans.is_empty());
    assert_eq!(
        (stitched.start_unix_us, stitched.dur_us, stitched.status),
        (0, 0, 0)
    );
}
