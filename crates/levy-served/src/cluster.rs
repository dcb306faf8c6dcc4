//! Cluster mode: consistent-hash sharding of the query keyspace across
//! N independent `levyd` peers, with R-way replication and live
//! membership.
//!
//! The paper's thesis — `k` *independent* Lévy walkers cover Z² faster
//! than any single one — is also the service's scaling shape: every
//! node runs the full single-node stack (queue, dedup, two-tier cache,
//! backpressure), and a [`HashRing`] over the canonical FNV-1a-128
//! query keys assigns each key a **replica set**: the first R members
//! of the key's preference list. The per-key dedup, coalescing, and
//! cache built in earlier PRs become *per-shard* for free: N identical
//! cold queries entering through N different nodes all converge on the
//! key's holders, where they coalesce into exactly one simulation.
//!
//! Request flow for `POST /v1/query` on an entry node:
//!
//! 1. local cache probe (always — a hit needs no network);
//! 2. if this node is one of the key's holders (or the request carries
//!    the `X-Levy-Forwarded-By` marker): the normal local pipeline;
//!    completed simulations are then **written behind** to the other
//!    holders (`PUT /v1/cache/<key>`) so a replica can answer even if
//!    this node dies a moment later;
//! 3. otherwise **peek** the holders in preference order
//!    (`GET /v1/cache/<key>`, short timeout): a hit relays the holder's
//!    bytes without consuming a queue slot anywhere. During a rebalance
//!    the *previous* ring's holders are peeked too — a key answers from
//!    either its old or new home, byte-identically, for the whole
//!    handoff window;
//! 4. on a full peek miss, **forward** the query to the first live
//!    holder (`POST /v1/query` with the forwarded marker) so it
//!    simulates, caches, coalesces concurrent arrivals, and replicates;
//! 5. only when *every* holder is unreachable does the entry node fall
//!    back to **local simulation** (counted by
//!    `levy_served_cluster_local_fallbacks_total`, tagged in the
//!    trace). A partitioned peer can never wedge an entry node; the
//!    price of degraded mode is a duplicated simulation, never an
//!    error.
//!
//! **Membership is live.** `POST /v1/peers` (authenticated by a shared
//! cluster token when one is configured) admits or removes members.
//! Each change bumps a monotonic **ring epoch**, keeps the previous
//! ring for read-side overlap, and kicks a background **handoff** scan
//! that pushes the ~1/N rehomed slice of this node's cache to its new
//! holders at an admission-controlled rate (`cluster_handoff_*_total`
//! counters). Forwards and replica writes carry `X-Levy-Ring-Epoch`;
//! a mismatch is counted (`cluster_epoch_skew_total`), never an error —
//! bodies are a pure function of the query, so both sides of a
//! membership change answer identically.
//!
//! Peer health is tracked by a [`PeerTable`] fed from a prober thread
//! (`GET /healthz` per peer per interval) *and* from request-path
//! outcomes, exported as per-peer `levy_served_peer_up` /
//! `levy_served_peer_latency_us` gauges and served at `GET /v1/peers`.
//! The deterministic `peer_partition` / `peer_slow` / `peer_flap`
//! faults (see [`crate::fault`]) gate every cluster call by configured
//! peer index, so conformance tests replay degraded mode exactly.

use std::io;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use levy_cluster::{HashRing, PeerTable};
use levy_obs::{EventJournal, EventKind};
use levy_sim::Json;

use crate::client::Client;
use crate::fault::FaultPlan;
use crate::http::Response;
use crate::metrics::Stats;

/// Header marking a forwarded query; its value is the forwarding node's
/// advertised address. A node receiving it always answers locally —
/// one hop, never a loop.
pub const FORWARDED_HEADER: &str = "X-Levy-Forwarded-By";

/// Header carrying the sender's ring epoch on node-to-node calls.
/// A receiver whose epoch differs counts the skew and answers anyway.
pub const EPOCH_HEADER: &str = "X-Levy-Ring-Epoch";

/// Header carrying the shared cluster token on membership changes and
/// replica writes. Only checked when the node was started with a token.
pub const TOKEN_HEADER: &str = "X-Levy-Cluster-Token";

/// Cluster membership and tuning (set by `levyd --cluster`).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's advertised address — the spelling other members use
    /// in *their* peer lists. Port 0 is resolved after bind.
    pub self_addr: String,
    /// The other members at boot, in configured order (fault-plan peer
    /// indices and `GET /v1/peers` both use this order; members admitted
    /// later get the next indices). Must not include `self_addr`; it is
    /// dropped if present.
    pub peers: Vec<String>,
    /// Virtual nodes per member on the hash ring.
    pub vnodes: usize,
    /// How many members hold each key (capped at the member count).
    pub replication: usize,
    /// Shared secret authenticating `POST /v1/peers` and
    /// `PUT /v1/cache/<key>`; `None` leaves them open (trusted networks
    /// and tests).
    pub token: Option<String>,
    /// Health-probe period; 0 disables the prober thread.
    pub probe_interval_ms: u64,
    /// Timeout for cache peeks and health probes (short: these are
    /// metadata calls, and a slow peer must not stall the entry node).
    pub peek_timeout_ms: u64,
    /// Extra allowance on top of the query's own timeout when waiting
    /// on a forwarded simulation.
    pub forward_margin_ms: u64,
    /// Keys pushed per handoff batch before pausing (admission control:
    /// a membership change must not flood the new member).
    pub handoff_batch: usize,
    /// Pause between handoff batches, in milliseconds.
    pub handoff_pause_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            self_addr: String::new(),
            peers: Vec::new(),
            vnodes: 64,
            replication: 1,
            token: None,
            probe_interval_ms: 1_000,
            peek_timeout_ms: 2_000,
            forward_margin_ms: 2_000,
            handoff_batch: 64,
            handoff_pause_ms: 25,
        }
    }
}

/// The versioned ring: membership changes swap `current` under the
/// write lock and keep the outgoing ring as `previous` until the
/// handoff scan finishes, so reads overlap both placements.
#[derive(Debug)]
struct RingState {
    epoch: u64,
    current: Arc<HashRing>,
    previous: Option<Arc<HashRing>>,
}

/// Where a query should be answered, per [`Cluster::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePlan {
    /// This node is a holder (or the key does not parse): run the
    /// normal local pipeline.
    Local,
    /// This node is not a holder: try the holders remotely.
    Remote(RemoteRoute),
}

/// The remote side of a [`RoutePlan`]: who to ask, in what order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRoute {
    /// Current holders in preference order, as `(peer index, addr)`.
    /// Peek them all; forward to the first live one.
    pub holders: Vec<(usize, String)>,
    /// Peek-only extras from the previous ring during a rebalance —
    /// the key may still be cached at its old home.
    pub peek_extras: Vec<(usize, String)>,
}

/// Runtime cluster state owned by a `Server` in cluster mode.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    ring: RwLock<RingState>,
    table: PeerTable,
    faults: Option<Arc<FaultPlan>>,
    /// Peer indices resurrected since the last [`take_resurrected`]
    /// drain; the server owes each a catch-up handoff (they may have
    /// missed replica writes while down).
    resurrected: Mutex<Vec<usize>>,
    /// Where peer flips, membership events and per-peer gauges go;
    /// installed by the server after construction. Bare unit tests leave
    /// it unset and record into the peer table only.
    sinks: OnceLock<Sinks>,
}

/// The server's event journal and metric block, as [`Cluster::attach`]
/// installs them.
struct Sinks {
    events: Arc<EventJournal>,
    stats: Arc<Stats>,
}

impl std::fmt::Debug for Sinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sinks").finish_non_exhaustive()
    }
}

/// Validates a member address for admission: one `host:port` with a
/// sane host spelling and a nonzero port. Everything the ring compares
/// textually, so the gate is strict — a malformed spelling admitted
/// once would be a permanent phantom member.
pub fn validate_member_addr(addr: &str) -> Result<(), String> {
    if addr.is_empty() || addr.len() > 256 {
        return Err("member address must be 1..=256 characters".into());
    }
    if !addr.bytes().all(|b| b.is_ascii_graphic()) {
        return Err("member address must be printable ASCII without spaces".into());
    }
    let Some((host, port)) = addr.rsplit_once(':') else {
        return Err("member address must be host:port".into());
    };
    if host.is_empty()
        || !host
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
    {
        return Err(format!("invalid host in member address {addr:?}"));
    }
    match port.parse::<u32>() {
        Ok(p) if (1..=65_535).contains(&p) && !port.starts_with('0') => Ok(()),
        _ => Err(format!("invalid port in member address {addr:?}")),
    }
}

impl Cluster {
    /// Validates membership and builds the ring and health table.
    ///
    /// # Errors
    ///
    /// Rejects an empty peer list (a one-node cluster is just the
    /// single-node daemon) and an unset `self_addr`.
    pub fn new(config: ClusterConfig, faults: Option<Arc<FaultPlan>>) -> Result<Cluster, String> {
        if config.self_addr.trim().is_empty() {
            return Err("cluster mode needs the node's own address".into());
        }
        let peers: Vec<String> = config
            .peers
            .iter()
            .map(|p| p.trim().to_owned())
            .filter(|p| !p.is_empty() && *p != config.self_addr)
            .collect();
        if peers.is_empty() {
            return Err("cluster mode needs at least one peer (--peers host:port,...)".into());
        }
        let mut members = peers.clone();
        members.push(config.self_addr.clone());
        let ring = HashRing::new(&members, config.vnodes.max(1))?;
        let table = PeerTable::new(&peers);
        let config = ClusterConfig { peers, ..config };
        Ok(Cluster {
            config,
            ring: RwLock::new(RingState {
                epoch: 1,
                current: Arc::new(ring),
                previous: None,
            }),
            table,
            faults,
            resurrected: Mutex::new(Vec::new()),
            sinks: OnceLock::new(),
        })
    }

    /// Installs the event journal that membership changes and peer
    /// up/down flips record into, and the metric block that carries the
    /// per-peer gauges. First call wins; later calls no-op.
    pub fn attach(&self, events: Arc<EventJournal>, stats: Arc<Stats>) {
        let _ = self.sinks.set(Sinks { events, stats });
    }

    fn record_event(&self, kind: EventKind, fields: Vec<(&'static str, String)>) {
        if let Some(sinks) = self.sinks.get() {
            sinks.events.record(kind, fields);
        }
    }

    /// The cluster configuration (post-normalization).
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The current placement ring.
    pub fn ring(&self) -> Arc<HashRing> {
        Arc::clone(&self.ring.read().expect("ring lock").current)
    }

    /// The outgoing ring while a rebalance overlaps, `None` otherwise.
    pub fn previous_ring(&self) -> Option<Arc<HashRing>> {
        self.ring.read().expect("ring lock").previous.clone()
    }

    /// Current ring epoch (1 at boot, +1 per membership change).
    pub fn epoch(&self) -> u64 {
        self.ring.read().expect("ring lock").epoch
    }

    /// Effective replication factor (at least 1; capped per key at the
    /// member count by [`HashRing::replicas`]).
    pub fn replication(&self) -> usize {
        self.config.replication.max(1)
    }

    /// Whether `provided` authorizes a membership change or replica
    /// write. Open when no token is configured.
    pub fn authorized(&self, provided: Option<&str>) -> bool {
        match &self.config.token {
            None => true,
            Some(token) => provided == Some(token.as_str()),
        }
    }

    /// The shared peer-health table.
    pub fn table(&self) -> &PeerTable {
        &self.table
    }

    /// Where `key` should be answered. [`RoutePlan::Local`] when this
    /// node is a holder (or the key does not parse); otherwise the
    /// holders to try, with previous-ring extras during a rebalance.
    pub fn route(&self, key: &str) -> RoutePlan {
        let Some(k) = levy_cluster::key_from_hex(key) else {
            return RoutePlan::Local;
        };
        let state = self.ring.read().expect("ring lock");
        let holders_now = state.current.replicas(k, self.replication());
        if holders_now.iter().any(|h| *h == self.config.self_addr) {
            return RoutePlan::Local;
        }
        let holders: Vec<(usize, String)> = holders_now
            .iter()
            .filter_map(|h| self.table.index_of(h).map(|i| (i, (*h).to_owned())))
            .collect();
        if holders.is_empty() {
            return RoutePlan::Local;
        }
        let peek_extras: Vec<(usize, String)> = match &state.previous {
            Some(prev) => prev
                .replicas(k, self.replication())
                .iter()
                .filter(|h| **h != self.config.self_addr && !holders_now.contains(h))
                .filter_map(|h| self.table.index_of(h).map(|i| (i, (*h).to_owned())))
                .collect(),
            None => Vec::new(),
        };
        RoutePlan::Remote(RemoteRoute {
            holders,
            peek_extras,
        })
    }

    /// The *other* holders of `key` on the current ring, as
    /// `(peer index, addr)` in preference order — the write-behind and
    /// handoff targets. Empty when the key does not parse.
    pub fn holders(&self, key: &str) -> Vec<(usize, String)> {
        let Some(k) = levy_cluster::key_from_hex(key) else {
            return Vec::new();
        };
        let state = self.ring.read().expect("ring lock");
        state
            .current
            .replicas(k, self.replication())
            .iter()
            .filter(|h| **h != self.config.self_addr)
            .filter_map(|h| self.table.index_of(h).map(|i| (i, (*h).to_owned())))
            .collect()
    }

    /// Holders of `key` that are *new* relative to the previous ring —
    /// the targets a rebalance handoff owes a copy. Empty when no
    /// rebalance is in flight.
    pub fn rehomed_holders(&self, key: &str) -> Vec<(usize, String)> {
        let Some(k) = levy_cluster::key_from_hex(key) else {
            return Vec::new();
        };
        let state = self.ring.read().expect("ring lock");
        let Some(prev) = &state.previous else {
            return Vec::new();
        };
        let before = prev.replicas(k, self.replication());
        state
            .current
            .replicas(k, self.replication())
            .iter()
            .filter(|h| **h != self.config.self_addr && !before.contains(h))
            .filter_map(|h| self.table.index_of(h).map(|i| (i, (*h).to_owned())))
            .collect()
    }

    /// Whether a rebalance overlap window is open (a previous ring is
    /// still held for read-side overlap).
    pub fn rebalancing(&self) -> bool {
        self.ring.read().expect("ring lock").previous.is_some()
    }

    /// Closes the rebalance overlap window: drops the previous ring.
    /// Called by the server when the handoff scan completes.
    pub fn finish_rebalance(&self) {
        self.ring.write().expect("ring lock").previous = None;
    }

    /// Applies a membership change: validates, swaps in a new ring
    /// (epoch + 1, outgoing ring kept for overlap), and updates the
    /// peer table (removals tombstone; admissions reuse tombstoned
    /// slots or append). Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Rejects — without touching the ring — malformed addresses,
    /// duplicate entries, admitting an existing member, removing a
    /// non-member or `self`, shrinking below two members, and a stale
    /// `expected_epoch` (the compare-and-swap for concurrent changes).
    pub fn apply_membership(
        &self,
        add: &[String],
        remove: &[String],
        expected_epoch: Option<u64>,
    ) -> Result<u64, String> {
        if add.is_empty() && remove.is_empty() {
            return Err("membership change must add or remove at least one member".into());
        }
        if add.len() + remove.len() > 64 {
            return Err("membership change touches too many members".into());
        }
        let mut state = self.ring.write().expect("ring lock");
        if let Some(expected) = expected_epoch {
            if expected != state.epoch {
                return Err(format!(
                    "stale epoch {expected} (cluster is at {})",
                    state.epoch
                ));
            }
        }
        let mut members: Vec<String> = state.current.members().to_vec();
        for addr in add {
            validate_member_addr(addr)?;
            if *addr == self.config.self_addr {
                return Err("a node cannot admit itself".into());
            }
            if members.contains(addr) {
                return Err(format!("{addr} is already a member"));
            }
            members.push(addr.clone());
        }
        let mut deduped = add.to_vec();
        deduped.sort_unstable();
        deduped.dedup();
        if deduped.len() != add.len() {
            return Err("duplicate addresses in membership change".into());
        }
        for addr in remove {
            if *addr == self.config.self_addr {
                return Err("a node cannot remove itself".into());
            }
            if add.contains(addr) {
                return Err(format!("{addr} is both added and removed"));
            }
            let before = members.len();
            members.retain(|m| m != addr);
            if members.len() == before {
                return Err(format!("{addr} is not a member"));
            }
        }
        if members.len() < 2 {
            return Err("a cluster needs at least two members".into());
        }
        let ring = HashRing::new(&members, self.config.vnodes.max(1))?;
        // Validation is complete: mutate table and ring together under
        // the write lock so no reader sees a half-applied change.
        for addr in remove {
            self.table.remove_peer(addr);
        }
        for addr in add {
            self.table.add_peer(addr);
        }
        state.previous = Some(Arc::clone(&state.current));
        state.current = Arc::new(ring);
        state.epoch += 1;
        let epoch = state.epoch;
        drop(state);
        let epoch_field = || ("epoch", epoch.to_string());
        for addr in add {
            self.record_event(
                EventKind::PeerAdmitted,
                vec![("peer", addr.clone()), epoch_field()],
            );
        }
        for addr in remove {
            self.record_event(
                EventKind::PeerRetired,
                vec![("peer", addr.clone()), epoch_field()],
            );
        }
        self.record_event(EventKind::RingEpoch, vec![epoch_field()]);
        Ok(epoch)
    }

    /// Drains the peer indices resurrected since the last call. The
    /// server pushes each one the cached keys it holds (catch-up
    /// handoff for replica writes missed while down).
    pub fn take_resurrected(&self) -> Vec<usize> {
        std::mem::take(&mut *self.resurrected.lock().expect("resurrected lock"))
    }

    /// Applies any standing peer fault for `index`: an injected delay
    /// first, then a synthetic connection error for a partition — the
    /// call never reaches a socket.
    fn gate(&self, index: usize) -> io::Result<()> {
        if let Some(plan) = &self.faults {
            let peer = index as u64;
            if let Some(ms) = plan.peer_slow_ms(peer) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if plan.peer_partitioned(peer) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "injected peer partition",
                ));
            }
        }
        Ok(())
    }

    /// One gated request to peer `index`, recorded against the peer's
    /// health: a completed exchange is a success (with its round-trip
    /// latency, whatever the status), an I/O error or an injected
    /// partition a failure.
    fn call(
        &self,
        index: usize,
        addr: &str,
        timeout: Duration,
        request: impl FnOnce(&Client) -> io::Result<Response>,
    ) -> io::Result<Response> {
        let answered = self.gate(index).and_then(|()| {
            let started = Instant::now();
            let response = request(&Client::new(addr).with_timeout(timeout))?;
            Ok((response, started.elapsed()))
        });
        match answered {
            Ok((response, latency)) => {
                self.record_success(index, latency);
                Ok(response)
            }
            Err(e) => {
                self.record_failure(index);
                Err(e)
            }
        }
    }

    fn peek_timeout(&self) -> Duration {
        Duration::from_millis(self.config.peek_timeout_ms.max(1))
    }

    /// Cache peek: asks a holder whether it already has `key`, without
    /// triggering any simulation. 200 = hit (body relayed), 404 = miss.
    /// Peeks accept the binary wire format so a hit relays the holder's
    /// on-disk `.lw` bytes with no re-encode anywhere.
    pub fn peek(
        &self,
        index: usize,
        addr: &str,
        key: &str,
        traceparent: &str,
    ) -> io::Result<Response> {
        self.call(index, addr, self.peek_timeout(), |client| {
            client.request_with_headers(
                "GET",
                &format!("/v1/cache/{key}"),
                &[
                    ("traceparent", traceparent),
                    ("Accept", levy_wire::MEDIA_TYPE),
                ],
                b"",
            )
        })
    }

    /// Full forward: the holder runs (or coalesces, or cache-hits) the
    /// query. `query_timeout` is the client-visible deadline; the wire
    /// timeout adds the configured margin on top. The query travels as
    /// a binary wire frame stamped with this node's ring epoch, and the
    /// answer is requested in wire form — node-to-node traffic is
    /// binary by default; the entry node transcodes for JSON clients.
    pub fn forward(
        &self,
        index: usize,
        addr: &str,
        query_wire: &[u8],
        query_timeout: Duration,
        traceparent: &str,
    ) -> io::Result<Response> {
        let timeout = query_timeout + Duration::from_millis(self.config.forward_margin_ms);
        let epoch = self.epoch().to_string();
        self.call(index, addr, timeout, |client| {
            client.request_full(
                "POST",
                "/v1/query",
                levy_wire::MEDIA_TYPE,
                &[
                    ("traceparent", traceparent),
                    (FORWARDED_HEADER, &self.config.self_addr),
                    (EPOCH_HEADER, &epoch),
                    ("Accept", levy_wire::MEDIA_TYPE),
                ],
                query_wire,
            )
        })
    }

    /// Replica write: pushes a completed result body to another holder
    /// (`PUT /v1/cache/<key>`), carrying the epoch and — when
    /// configured — the cluster token. 201 = stored fresh, 200 = the
    /// holder already had it.
    pub fn replica_write(
        &self,
        index: usize,
        addr: &str,
        key: &str,
        body: &str,
    ) -> io::Result<Response> {
        let epoch = self.epoch().to_string();
        let mut headers: Vec<(&str, &str)> = vec![(EPOCH_HEADER, epoch.as_str())];
        if let Some(token) = &self.config.token {
            headers.push((TOKEN_HEADER, token.as_str()));
        }
        self.call(index, addr, self.peek_timeout(), |client| {
            client.request_full(
                "PUT",
                &format!("/v1/cache/{key}"),
                "application/json",
                &headers,
                body.as_bytes(),
            )
        })
    }

    /// GETs `path` from every non-removed peer, in index order, with the
    /// peek timeout — the fan-out behind federated `/v1/cluster/metrics`
    /// and cluster-scope trace assembly. Down peers are asked too: they
    /// may be back, and a failed attempt is exactly the `unreachable`
    /// annotation a federated view needs. Metadata reads only: the short
    /// timeout means a slow peer degrades the merged view instead of
    /// stalling the serving node.
    pub fn fan_out(&self, path: &str) -> Vec<(String, io::Result<Response>)> {
        self.table
            .snapshot()
            .into_iter()
            .filter(|p| !p.removed)
            .map(|p| {
                let answer = self.call(p.index, &p.addr, self.peek_timeout(), |client| {
                    client.get(path)
                });
                (p.addr, answer)
            })
            .collect()
    }

    /// One health probe (`GET /healthz`) to peer `index`, recording the
    /// outcome in the table and the per-peer gauges. A non-200 answer
    /// counts as a failure.
    pub fn probe(&self, index: usize) {
        let addr = match self.table.snapshot().get(index) {
            Some(health) if !health.removed => health.addr.clone(),
            _ => return,
        };
        let _ = self.call(index, &addr, self.peek_timeout(), |client| {
            let response = client.get("/healthz")?;
            match response.status {
                200 => Ok(response),
                status => Err(io::Error::other(format!("healthz HTTP {status}"))),
            }
        });
    }

    /// Records a successful call: resurrects the peer (queueing it for
    /// a catch-up handoff when it was down) and refreshes the
    /// `levy_served_peer_up` / `levy_served_peer_latency_us` gauges.
    /// A down→up flip records a `peer_up` event.
    fn record_success(&self, index: usize, latency: Duration) {
        let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        if self.table.record_success(index, latency_us) {
            let mut due = self.resurrected.lock().expect("resurrected lock");
            if !due.contains(&index) {
                due.push(index);
            }
            drop(due);
            if let Some(addr) = self.peer_addr(index) {
                self.record_event(EventKind::PeerUp, vec![("peer", addr)]);
            }
        }
        self.export_peer_gauges(index);
    }

    /// Records a failed call (the peer flips down after consecutive
    /// failures) and refreshes the gauges. An up→down flip records a
    /// `peer_down` event.
    fn record_failure(&self, index: usize) {
        let was_up = self.table.is_up(index);
        if !self.table.record_failure(index) && was_up {
            if let Some(addr) = self.peer_addr(index) {
                self.record_event(EventKind::PeerDown, vec![("peer", addr)]);
            }
        }
        self.export_peer_gauges(index);
    }

    fn peer_addr(&self, index: usize) -> Option<String> {
        self.table.snapshot().get(index).map(|p| p.addr.clone())
    }

    fn export_peer_gauges(&self, index: usize) {
        let Some(Sinks { stats, .. }) = self.sinks.get() else {
            return;
        };
        if let Some(health) = self.table.snapshot().get(index) {
            stats
                .registry()
                .gauge_with(
                    "levy_served_peer_up",
                    "Whether the peer answered its last probes (1 = up).",
                    &[("peer", &health.addr)],
                )
                .set(i64::from(health.up));
            stats
                .registry()
                .gauge_with(
                    "levy_served_peer_latency_us",
                    "Latency of the last successful call to the peer, in microseconds.",
                    &[("peer", &health.addr)],
                )
                .set(i64::try_from(health.latency_us).unwrap_or(i64::MAX));
        }
    }

    /// The `GET /v1/peers` body: membership, placement parameters, the
    /// ring epoch, and live per-peer health (tombstoned slots included,
    /// flagged `removed`, so indices stay meaningful).
    pub fn peers_json(&self) -> Json {
        let state = self.ring.read().expect("ring lock");
        Json::obj([
            ("schema", Json::from("levy-served/peers-v1")),
            ("self", Json::from(self.config.self_addr.clone())),
            ("vnodes", Json::from(state.current.vnodes())),
            ("replication", Json::from(self.replication())),
            ("epoch", Json::from(state.epoch)),
            ("rebalancing", Json::from(state.previous.is_some())),
            (
                "members",
                Json::arr(
                    state
                        .current
                        .members()
                        .iter()
                        .map(|m| Json::from(m.clone())),
                ),
            ),
            (
                "peers",
                Json::arr(self.table.snapshot().into_iter().map(|p| {
                    Json::obj([
                        ("addr", Json::from(p.addr)),
                        ("index", Json::from(p.index)),
                        ("up", Json::from(p.up)),
                        ("removed", Json::from(p.removed)),
                        ("latency_us", Json::from(p.latency_us)),
                        (
                            "consecutive_failures",
                            Json::from(u64::from(p.consecutive_failures)),
                        ),
                        ("successes", Json::from(p.successes)),
                        ("failures", Json::from(p.failures)),
                        ("replica_errors", Json::from(p.replica_errors)),
                        ("last_seen_unix_us", Json::from(p.last_seen_unix_us)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    fn cluster(self_addr: &str, peers: &[&str]) -> Cluster {
        Cluster::new(
            ClusterConfig {
                self_addr: self_addr.into(),
                peers: peers.iter().map(|s| (*s).to_owned()).collect(),
                ..ClusterConfig::default()
            },
            None,
        )
        .expect("valid cluster")
    }

    fn hex_key(i: u64) -> String {
        format!(
            "{:032x}",
            levy_cluster::fnv1a_128(format!("k{i}").as_bytes())
        )
    }

    #[test]
    fn membership_is_validated_and_self_deduped() {
        assert!(Cluster::new(ClusterConfig::default(), None).is_err());
        assert!(Cluster::new(
            ClusterConfig {
                self_addr: "a:1".into(),
                peers: vec!["a:1".into()],
                ..ClusterConfig::default()
            },
            None,
        )
        .is_err());
        let c = cluster("a:1", &["b:1", "a:1", "c:1", " "]);
        assert_eq!(c.config().peers, vec!["b:1".to_owned(), "c:1".to_owned()]);
        assert_eq!(c.ring().members().len(), 3, "ring includes self");
        assert_eq!(c.epoch(), 1);
        assert!(!c.rebalancing());
    }

    #[test]
    fn route_names_holders_but_never_self() {
        let c = cluster("a:1", &["b:1", "c:1"]);
        let mut seen_self = false;
        let mut seen_peers = std::collections::HashSet::new();
        for i in 0..200u64 {
            match c.route(&hex_key(i)) {
                RoutePlan::Local => seen_self = true,
                RoutePlan::Remote(remote) => {
                    assert!(!remote.holders.is_empty());
                    assert!(remote.peek_extras.is_empty(), "no rebalance in flight");
                    for (index, addr) in &remote.holders {
                        assert_ne!(addr, "a:1");
                        assert_eq!(c.table().index_of(addr), Some(*index));
                        seen_peers.insert(addr.clone());
                    }
                }
            }
        }
        assert!(seen_self, "some keys must be homed here");
        assert_eq!(seen_peers.len(), 2, "both peers own keys");
        assert_eq!(
            c.route("not-a-key"),
            RoutePlan::Local,
            "bad keys stay local"
        );
    }

    #[test]
    fn replication_widens_routes_and_holder_sets() {
        let mut config = ClusterConfig {
            self_addr: "a:1".into(),
            peers: vec!["b:1".into(), "c:1".into(), "d:1".into()],
            ..ClusterConfig::default()
        };
        config.replication = 2;
        let c = Cluster::new(config, None).unwrap();
        let (mut local, mut remote) = (0u32, 0u32);
        for i in 0..400u64 {
            let key = hex_key(i);
            match c.route(&key) {
                RoutePlan::Local => {
                    local += 1;
                    // Self is one of the R=2 holders, so exactly one
                    // *other* holder owes a replica write.
                    assert_eq!(c.holders(&key).len(), 1);
                }
                RoutePlan::Remote(r) => {
                    remote += 1;
                    assert_eq!(r.holders.len(), 2, "R=2 remote holders");
                    assert_eq!(c.holders(&key).len(), 2);
                }
            }
        }
        assert!(local > 0 && remote > 0);
        // R=2 of 4 members: roughly half the keyspace is local.
        assert!(
            (100..300).contains(&local),
            "{local} of 400 keys local with R=2 of 4 members"
        );
    }

    #[test]
    fn membership_change_bumps_epoch_and_overlaps_rings() {
        let c = cluster("a:1", &["b:1", "c:1"]);
        let epoch = c
            .apply_membership(&["d:1".into()], &[], Some(1))
            .expect("admit d");
        assert_eq!(epoch, 2);
        assert_eq!(c.epoch(), 2);
        assert!(c.rebalancing(), "previous ring kept for overlap");
        assert_eq!(c.ring().members().len(), 4);
        assert_eq!(c.previous_ring().unwrap().members().len(), 3);
        assert_eq!(c.table().index_of("d:1"), Some(2), "appended after b, c");
        // Rehomed keys name d as a new holder; everything else is calm.
        let mut rehomed = 0u32;
        for i in 0..500u64 {
            for (_, addr) in c.rehomed_holders(&hex_key(i)) {
                assert_eq!(addr, "d:1");
                rehomed += 1;
            }
        }
        assert!(rehomed > 0, "the new member must take some keys");
        assert!(rehomed < 300, "but only ~1/4 of them, got {rehomed}");
        c.finish_rebalance();
        assert!(!c.rebalancing());
        assert!(c.rehomed_holders(&hex_key(1)).is_empty());
        // Removal tombstones and bumps again.
        let epoch = c.apply_membership(&[], &["b:1".into()], None).unwrap();
        assert_eq!(epoch, 3);
        assert!(c.table().snapshot()[0].removed);
        assert_eq!(c.ring().members().len(), 3);
    }

    #[test]
    fn bad_membership_changes_never_poison_the_ring() {
        let c = cluster("a:1", &["b:1", "c:1"]);
        let cases: Vec<(Vec<String>, Vec<String>, Option<u64>)> = vec![
            (vec![], vec![], None),                                  // empty
            (vec!["".into()], vec![], None),                         // empty addr
            (vec!["no-port".into()], vec![], None),                  // no port
            (vec!["host:0".into()], vec![], None),                   // port 0
            (vec!["host:99999".into()], vec![], None),               // port range
            (vec!["host:07".into()], vec![], None),                  // leading zero
            (vec!["ho st:1".into()], vec![], None),                  // space
            (vec!["h\u{7f}ost:1".into()], vec![], None),             // control
            (vec!["x:1".into(), "x:1".into()], vec![], None),        // dup add
            (vec!["b:1".into()], vec![], None),                      // already member
            (vec!["a:1".into()], vec![], None),                      // self
            (vec![], vec!["a:1".into()], None),                      // remove self
            (vec![], vec!["ghost:1".into()], None),                  // not a member
            (vec!["d:1".into()], vec!["d:1".into()], None),          // add+remove
            (vec![], vec!["b:1".into(), "c:1".into()], None),        // below 2
            (vec!["d:1".into()], vec![], Some(7)),                   // stale epoch
            (vec![format!("h{}:1", "x".repeat(300))], vec![], None), // oversized
        ];
        for (add, remove, epoch) in cases {
            assert!(
                c.apply_membership(&add, &remove, epoch).is_err(),
                "add={add:?} remove={remove:?} epoch={epoch:?} must be rejected"
            );
            assert_eq!(c.epoch(), 1, "rejected changes must not bump the epoch");
            assert_eq!(c.ring().members().len(), 3);
            assert!(!c.rebalancing());
        }
    }

    #[test]
    fn token_gates_authorization() {
        let mut config = ClusterConfig {
            self_addr: "a:1".into(),
            peers: vec!["b:1".into()],
            ..ClusterConfig::default()
        };
        let open = Cluster::new(config.clone(), None).unwrap();
        assert!(open.authorized(None));
        assert!(open.authorized(Some("anything")));
        config.token = Some("s3cret".into());
        let locked = Cluster::new(config, None).unwrap();
        assert!(!locked.authorized(None));
        assert!(!locked.authorized(Some("wrong")));
        assert!(locked.authorized(Some("s3cret")));
    }

    #[test]
    fn resurrections_queue_exactly_once_until_drained() {
        let c = cluster("a:1", &["b:1", "c:1"]);
        c.record_failure(0);
        c.record_failure(0);
        assert!(!c.table().is_up(0));
        c.record_success(0, Duration::from_micros(50));
        c.record_success(0, Duration::from_micros(50));
        assert_eq!(c.take_resurrected(), vec![0]);
        assert!(c.take_resurrected().is_empty(), "drained");
    }

    #[test]
    fn partition_fault_gates_calls_before_any_socket() {
        let plan = Arc::new(FaultPlan::new().with(Fault::PeerPartition { peer: 0 }));
        let c = Cluster::new(
            ClusterConfig {
                self_addr: "a:1".into(),
                // An unroutable peer address: if the gate failed to fire
                // first, the call would hang or fail differently.
                peers: vec!["203.0.113.1:9".into(), "b:1".into()],
                ..ClusterConfig::default()
            },
            Some(plan),
        )
        .unwrap();
        let err = c
            .peek(0, "203.0.113.1:9", &"0".repeat(32), "-")
            .expect_err("partitioned");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(err.to_string(), "injected peer partition");
    }

    #[test]
    fn member_addr_validation_is_strict() {
        for good in ["host:1", "10.0.0.1:7878", "node-3.local:65535", "a_b:443"] {
            assert!(validate_member_addr(good).is_ok(), "{good} should pass");
        }
        for bad in [
            "",
            "host",
            "host:",
            ":1",
            "host:0",
            "host:65536",
            "host:01",
            "host:1x",
            "ho st:1",
            "host:1\n",
            "h!ost:1",
        ] {
            assert!(validate_member_addr(bad).is_err(), "{bad:?} should fail");
        }
    }
}
