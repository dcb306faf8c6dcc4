//! `levyd`'s background loops: the cluster replicator (write-behind and
//! handoff scans), the peer prober, and the metrics-history ticker.
//!
//! Each loop takes only the handles it uses — the cluster, the cache,
//! the stats block, the event journal, the shutdown flag — never the
//! whole server. The two periodic loops share one sliced sleep
//! ([`every`]) so shutdown stays prompt whatever the interval.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use levy_obs::{EventJournal, EventKind, Snapshot};

use crate::cache::ResultCache;
use crate::cluster::Cluster;
use crate::metrics::Stats;

/// Spawns a named daemon thread.
pub(crate) fn spawn(name: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(body)
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Calls `tick` once per `interval` until `shutdown` is set. The sleep
/// runs in 50 ms slices, so shutdown is noticed promptly; a shutdown
/// seen while sleeping skips the pending tick.
pub(crate) fn every(interval: Duration, shutdown: &AtomicBool, mut tick: impl FnMut()) {
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            let slice = Duration::from_millis(50).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        tick();
    }
}

/// One timestamped snapshot of a server's registry concatenated with
/// the process-global one — the unit the metrics-history ring stores.
pub(crate) fn sample_metrics(stats: &Stats) -> Snapshot {
    let mut values = stats.registry().sample();
    values.extend(levy_obs::Registry::global().sample());
    values.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    Snapshot {
        ts_us: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
        values,
    }
}

/// One unit of background replication work.
enum ReplWork {
    /// Push a freshly completed result to the key's other holders.
    WriteBehind { key: String, json: String },
    /// Walk the whole cache pushing keys to holders in `scope`.
    Handoff(HandoffScope),
}

/// Which holders a handoff scan owes copies to.
#[derive(Debug, Clone, Copy)]
enum HandoffScope {
    /// Holders that are new relative to the previous ring (membership
    /// change); closes the rebalance overlap window when done.
    Rehomed,
    /// One resurrected peer catching up on writes it missed while down.
    Peer(usize),
}

/// The work queue; `busy` covers the item being processed so
/// [`Replicator::settle`] only returns on a truly quiet queue.
struct ReplState {
    queue: VecDeque<ReplWork>,
    busy: bool,
}

/// Cluster replication off the request path: one thread pops
/// write-behind pushes and handoff scans in order. One thread by design
/// — the work is bandwidth-shaped (paced batches), and running a
/// write-behind before a later handoff keeps pushes roughly causal. The
/// peer prober's rounds run through here too, because a peer they
/// resurrect is owed a catch-up handoff.
pub(crate) struct Replicator {
    cluster: Arc<Cluster>,
    cache: Arc<ResultCache>,
    stats: Arc<Stats>,
    events: Arc<EventJournal>,
    shutdown: Arc<AtomicBool>,
    state: Mutex<ReplState>,
    changed: Condvar,
}

impl Replicator {
    pub(crate) fn new(
        cluster: Arc<Cluster>,
        cache: Arc<ResultCache>,
        stats: Arc<Stats>,
        events: Arc<EventJournal>,
        shutdown: Arc<AtomicBool>,
    ) -> Arc<Replicator> {
        Arc::new(Replicator {
            cluster,
            cache,
            stats,
            events,
            shutdown,
            state: Mutex::new(ReplState {
                queue: VecDeque::new(),
                busy: false,
            }),
            changed: Condvar::new(),
        })
    }

    /// Starts the replicator thread and, unless the cluster's probe
    /// interval is 0, the prober thread. The first probe round runs
    /// at once, so `/v1/peers` and the peer gauges are live from the
    /// first scrape.
    pub(crate) fn spawn(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        let repl = Arc::clone(self);
        let mut handles = vec![spawn("levyd-repl", move || repl.run())];
        let interval = self.cluster.config().probe_interval_ms;
        if interval > 0 {
            let repl = Arc::clone(self);
            handles.push(spawn("levyd-prober", move || {
                repl.probe_round();
                every(Duration::from_millis(interval), &repl.shutdown, || {
                    repl.probe_round()
                });
            }));
        }
        handles
    }

    fn enqueue(&self, work: ReplWork) {
        let mut state = self.state.lock().expect("repl lock");
        state.queue.push_back(work);
        self.set_backlog(state.queue.len());
        self.changed.notify_all();
    }

    fn set_backlog(&self, depth: usize) {
        self.stats
            .repl_backlog_depth
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
    }

    /// Queues a write-behind of a freshly completed result, so any other
    /// holder can answer peeks if this node dies a moment later.
    pub(crate) fn write_behind(&self, key: &str, json: &str) {
        self.enqueue(ReplWork::WriteBehind {
            key: key.to_owned(),
            json: json.to_owned(),
        });
    }

    /// Queues the rebalance handoff scan a membership change owes.
    pub(crate) fn handoff_rehomed(&self) {
        self.enqueue(ReplWork::Handoff(HandoffScope::Rehomed));
    }

    /// One probe of every peer (stopping early at shutdown), then a
    /// catch-up handoff queued for each peer the round resurrected: it
    /// may have missed replica writes while down.
    pub(crate) fn probe_round(&self) {
        for index in 0..self.cluster.table().len() {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.cluster.probe(index);
        }
        for index in self.cluster.take_resurrected() {
            self.enqueue(ReplWork::Handoff(HandoffScope::Peer(index)));
        }
    }

    /// Blocks until the queue is empty and idle, or `timeout` passes.
    /// Returns whether it settled.
    pub(crate) fn settle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("repl lock");
        while !state.queue.is_empty() || state.busy {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, remaining.min(Duration::from_millis(50)))
                .expect("repl lock")
                .0;
        }
        true
    }

    /// Wakes the replicator thread so it notices shutdown.
    pub(crate) fn wake(&self) {
        self.changed.notify_all();
    }

    fn run(&self) {
        loop {
            let work = {
                let mut state = self.state.lock().expect("repl lock");
                loop {
                    if let Some(work) = state.queue.pop_front() {
                        state.busy = true;
                        self.set_backlog(state.queue.len());
                        break work;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    state = self
                        .changed
                        .wait_timeout(state, Duration::from_millis(100))
                        .expect("repl lock")
                        .0;
                }
            };
            match work {
                ReplWork::WriteBehind { key, json } => self.push_write_behind(&key, &json),
                ReplWork::Handoff(scope) => self.run_handoff(scope),
            }
            self.state.lock().expect("repl lock").busy = false;
            self.changed.notify_all();
        }
    }

    /// Pushes one completed result to the key's other holders. A holder
    /// already marked down is skipped (counted as a write error — it
    /// will catch up through the resurrection handoff).
    fn push_write_behind(&self, key: &str, json: &str) {
        let write_error = |index: usize, addr: &str, reason: String| {
            self.stats.cluster_replica_write_errors.inc();
            self.cluster.table().record_replica_error(index);
            self.events.record(
                EventKind::ReplicaWriteError,
                vec![
                    ("peer", addr.to_owned()),
                    ("key", key.to_owned()),
                    ("reason", reason),
                ],
            );
        };
        for (index, addr) in self.cluster.holders(key) {
            if !self.cluster.table().is_up(index) {
                write_error(index, &addr, "holder_down".into());
                continue;
            }
            match self.cluster.replica_write(index, &addr, key, json) {
                Ok(response) if response.status == 200 || response.status == 201 => {
                    self.stats.cluster_replica_writes.inc();
                }
                Ok(response) => write_error(index, &addr, format!("http_{}", response.status)),
                Err(e) => write_error(index, &addr, format!("io: {e}")),
            }
        }
    }

    /// Walks the local cache pushing keys to the holders named by
    /// `scope`, pausing between batches (admission control: a
    /// membership change must not flood the new member). Only 201s —
    /// keys the target did not already hold — count toward
    /// `cluster_handoff_{keys,bytes}_total`. A `Rehomed` scan closes the
    /// rebalance overlap window when it finishes cleanly.
    fn run_handoff(&self, scope: HandoffScope) {
        let cluster = &self.cluster;
        let scope_label = match scope {
            HandoffScope::Rehomed => "rehomed".to_owned(),
            HandoffScope::Peer(index) => format!("peer_{index}"),
        };
        let batch = cluster.config().handoff_batch.max(1);
        let pause = Duration::from_millis(cluster.config().handoff_pause_ms);
        let mut pushed = 0usize;
        self.events.record(
            EventKind::HandoffStart,
            vec![("scope", scope_label.clone())],
        );
        self.stats.handoff_progress.set(0);
        for key in self.cache.keys() {
            if self.shutdown.load(Ordering::Acquire) {
                self.events.record(
                    EventKind::HandoffAbort,
                    vec![
                        ("scope", scope_label.clone()),
                        ("pushed", pushed.to_string()),
                        ("reason", "shutdown".into()),
                    ],
                );
                self.stats.handoff_progress.set(0);
                return; // aborted: keep the overlap window open
            }
            let targets = match scope {
                HandoffScope::Rehomed => cluster.rehomed_holders(&key),
                HandoffScope::Peer(peer) => cluster
                    .holders(&key)
                    .into_iter()
                    .filter(|(index, _)| *index == peer)
                    .collect(),
            };
            if targets.is_empty() {
                continue;
            }
            let Some((body, _tier)) = self.cache.get(&key) else {
                continue;
            };
            for (index, addr) in targets {
                if !cluster.table().is_up(index) {
                    continue;
                }
                if let Ok(response) = cluster.replica_write(index, &addr, &key, &body.json) {
                    if response.status == 201 {
                        self.stats.cluster_handoff_keys.inc();
                        self.stats.cluster_handoff_bytes.add(body.json.len() as u64);
                    }
                }
                pushed += 1;
                self.stats
                    .handoff_progress
                    .set(i64::try_from(pushed).unwrap_or(i64::MAX));
                if pushed.is_multiple_of(batch) {
                    self.events.record(
                        EventKind::HandoffProgress,
                        vec![
                            ("scope", scope_label.clone()),
                            ("pushed", pushed.to_string()),
                        ],
                    );
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
        if matches!(scope, HandoffScope::Rehomed) {
            cluster.finish_rebalance();
        }
        self.events.record(
            EventKind::HandoffFinish,
            vec![("scope", scope_label), ("pushed", pushed.to_string())],
        );
        self.stats.handoff_progress.set(0);
    }
}
