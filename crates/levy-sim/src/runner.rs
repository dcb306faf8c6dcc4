//! Multi-threaded trial execution with deterministic seeding.
//!
//! Experiments run many independent trials whose per-trial cost is itself
//! heavy-tailed: a hitting-time trial either finds the target early and
//! returns in microseconds or burns its full step budget. Static contiguous
//! chunking (one chunk per worker) therefore leaves most cores idle behind
//! whichever chunk drew the expensive trials. This runner instead uses
//! **work stealing over an atomic trial counter**: workers repeatedly claim
//! small blocks of trial indices (block size shrinks as the queue drains).
//!
//! One worker loop serves every run. It is generic over a per-worker
//! accumulator: [`run_trials`] collects each block's results next to the
//! block, and the adaptive estimator's counting path keeps a `u64` hit
//! count. A 1-thread run calls the same loop inline on the caller's
//! thread; `threads == 0` means [`default_threads`].
//!
//! Determinism: each trial `i` derives its RNG from `SeedStream::child(i)`
//! and results are reassembled by trial index, so output is bit-identical
//! regardless of thread count or scheduling. This composes with the phase
//! engine in `levy-walks`: a trial's draws depend only on its own
//! `child(i)` streams, never on which worker ran it.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use levy_rng::SeedStream;
use rand::rngs::SmallRng;

/// Cooperative cancellation handle for long-running trial batches.
///
/// A token is shared between the party that may abandon a computation
/// (e.g. an HTTP handler whose client timed out) and the workers running
/// it: workers poll [`is_cancelled`](CancelToken::is_cancelled) between
/// trial blocks and stop claiming work once it fires. Cancellation is
/// *cooperative* — a trial that is already running completes; the
/// granularity is one stolen block (at most [`MAX_BLOCK`] trials).
///
/// Cloning shares the underlying flag.
///
/// # Examples
///
/// ```
/// use levy_sim::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent and visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Number of worker threads to use by default: the `LEVY_THREADS`
/// environment variable if set to a positive integer (wired through
/// `scripts/run_all_experiments.sh --threads N`), otherwise the machine's
/// available parallelism, at least 1.
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var("LEVY_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper bound on a stolen block, keeping the tail of the trial queue
/// finely divisible even for huge runs.
const MAX_BLOCK: u64 = 1024;

/// Claims the next block of trial indices `[start, end)`, or `None` when
/// the queue is drained.
///
/// Guided self-scheduling: block size is `remaining / (4 · threads)`
/// clamped to `[1, MAX_BLOCK]`, so early blocks are large (low contention)
/// and late blocks shrink to single trials (no straggler serializes more
/// than one expensive trial behind it).
#[inline]
fn claim_block(next: &AtomicU64, trials: u64, threads: u64) -> Option<(u64, u64)> {
    loop {
        let cur = next.load(Ordering::Relaxed);
        if cur >= trials {
            return None;
        }
        let remaining = trials - cur;
        let block = (remaining / (4 * threads)).clamp(1, MAX_BLOCK);
        let end = cur + block;
        if next
            .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Some((cur, end));
        }
    }
}

/// Resolves a requested worker count: 0 means [`default_threads`].
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// The block-claiming worker loop every run shares: claims blocks from
/// `next` and folds each into `acc` until the queue drains (`Some(acc)`)
/// or `cancel` fires (`None`). The token is polled once per block.
fn work<A>(
    next: &AtomicU64,
    trials: u64,
    threads: u64,
    cancel: &CancelToken,
    mut acc: A,
    fold: &impl Fn(&mut A, Range<u64>),
) -> Option<A> {
    let metrics = crate::obs::runner_metrics();
    while !cancel.is_cancelled() {
        let Some((start, end)) = claim_block(next, trials, threads) else {
            return Some(acc);
        };
        metrics.steal_blocks.inc();
        metrics.trials_started.add(end - start);
        fold(&mut acc, start..end);
        metrics.trials_completed.add(end - start);
    }
    None
}

/// Runs [`work`] on `threads` workers (0 = [`default_threads`]), each
/// folding the blocks it claims into its own accumulator from `init`.
/// Returns one accumulator per worker, or `None` if `cancel` fired. A
/// single worker runs inline on the caller's thread.
fn run_workers<A, I, F>(
    trials: u64,
    threads: usize,
    cancel: &CancelToken,
    init: I,
    fold: F,
) -> Option<Vec<A>>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<u64>) + Sync,
{
    let threads = resolve_threads(threads).min(trials.max(1) as usize);
    let next = AtomicU64::new(0);
    let worker = || work(&next, trials, threads as u64, cancel, init(), &fold);
    let accs: Vec<Option<A>> = if threads == 1 {
        let acc = worker();
        // This thread outlives the run, so its batched sampler tallies
        // only reach the registry via an explicit flush.
        levy_rng::flush_draw_stats();
        vec![acc]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trial worker panicked"))
                .collect()
        })
    };
    let accs: Option<Vec<A>> = accs.into_iter().collect();
    if accs.is_none() {
        crate::obs::runner_metrics().runs_cancelled.inc();
    }
    accs
}

/// Runs `trials` independent trials of `f`, in parallel, returning results
/// in trial order.
///
/// Each trial `i` receives its own RNG derived from `seeds.child(i)`; `f`
/// must be deterministic given `(i, rng)` for reproducibility. Workers
/// steal shrinking index blocks from a shared atomic counter, so
/// heavy-tailed per-trial costs spread across cores instead of serializing
/// behind the slowest contiguous chunk — while results remain bit-identical
/// for every thread count. `threads == 0` means [`default_threads`].
///
/// # Examples
///
/// ```
/// use levy_rng::SeedStream;
/// use levy_sim::run_trials;
/// use rand::Rng;
///
/// let results = run_trials(100, SeedStream::new(7), 4, |i, rng| {
///     let noise: f64 = rng.gen();
///     i as f64 + noise
/// });
/// assert_eq!(results.len(), 100);
/// // Deterministic across runs and thread counts:
/// let again = run_trials(100, SeedStream::new(7), 2, |i, rng| {
///     let noise: f64 = rng.gen();
///     i as f64 + noise
/// });
/// assert_eq!(results, again);
/// ```
pub fn run_trials<T, F>(trials: u64, seeds: SeedStream, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    run_trials_cancellable(trials, seeds, threads, &CancelToken::new(), f)
        .expect("uncancelled run completes")
}

/// [`run_trials`] with a cooperative [`CancelToken`]: returns `None` (and
/// discards any partial results) if `cancel` fires before the queue
/// drains. Workers poll the token once per stolen block, so cancellation
/// latency is bounded by the cost of one block of trials.
pub fn run_trials_cancellable<T, F>(
    trials: u64,
    seeds: SeedStream,
    threads: usize,
    cancel: &CancelToken,
    f: F,
) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    // Each worker keeps its results in claim order, next to the blocks
    // they came from.
    type Claimed<T> = (Vec<Range<u64>>, Vec<T>);
    let mut workers = run_workers(
        trials,
        threads,
        cancel,
        Claimed::default,
        |(blocks, out): &mut Claimed<T>, block: Range<u64>| {
            out.extend(block.clone().map(|i| f(i, &mut seeds.child(i).rng())));
            blocks.push(block);
        },
    )?;
    if workers.len() == 1 {
        // A single worker's blocks arrive in trial order.
        return workers.pop().map(|(_, out)| out);
    }
    // Restore trial order: each worker claims ascending blocks, so taking
    // blocks by start drains every worker's results front to back.
    let mut blocks: Vec<(u64, u64, usize)> = workers
        .iter()
        .enumerate()
        .flat_map(|(w, (blocks, _))| blocks.iter().map(move |b| (b.start, b.end, w)))
        .collect();
    blocks.sort_unstable();
    let mut results: Vec<_> = workers
        .into_iter()
        .map(|(_, out)| out.into_iter())
        .collect();
    let mut ordered = Vec::with_capacity(trials as usize);
    for (start, end, w) in blocks {
        ordered.extend(results[w].by_ref().take((end - start) as usize));
    }
    Some(ordered)
}

/// Counts the trials of global indices `[offset, offset + trials)` for
/// which `predicate` holds, without materializing per-trial results:
/// trial `i` derives its RNG from `seeds.child(i)`, so counting `0..n`
/// and then `n..m` observes exactly the trials of one count over `0..m`
/// (the batched extension behind
/// [`estimate_probability`](crate::estimate_probability)). Returns `None`
/// if `cancel` fires first.
pub(crate) fn count_hits<F>(
    trials: u64,
    offset: u64,
    seeds: SeedStream,
    threads: usize,
    cancel: &CancelToken,
    predicate: F,
) -> Option<u64>
where
    F: Fn(u64, &mut SmallRng) -> bool + Sync,
{
    let hits = run_workers(
        trials,
        threads,
        cancel,
        || 0u64,
        |hits: &mut u64, block: Range<u64>| {
            *hits += (offset + block.start..offset + block.end)
                .filter(|&i| predicate(i, &mut seeds.child(i).rng()))
                .count() as u64;
        },
    )?;
    Some(hits.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_preserve_trial_order() {
        let out = run_trials(1000, SeedStream::new(0), 8, |i, _| i);
        assert_eq!(out, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 { rng.gen::<u64>() ^ i };
        let a = run_trials(257, SeedStream::new(5), 1, f);
        let b = run_trials(257, SeedStream::new(5), 3, f);
        let c = run_trials(257, SeedStream::new(5), 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn deterministic_on_skewed_workloads() {
        // Trial 0 is ~1000x slower than the rest: the scheduler must not
        // let the skew leak into results (bit-identical across thread
        // counts, in order), only into timing.
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 {
            let spins = if i == 0 { 100_000 } else { 100 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            }
            acc ^ rng.gen::<u64>()
        };
        let a = run_trials(97, SeedStream::new(11), 1, f);
        let b = run_trials(97, SeedStream::new(11), 3, f);
        let c = run_trials(97, SeedStream::new(11), 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn stealing_matches_sequential_bit_for_bit() {
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 { rng.gen::<u64>() ^ (i << 1) };
        let seeds = SeedStream::new(21);
        let stealing = run_trials(513, seeds, 7, f);
        let sequential: Vec<u64> = (0..513).map(|i| f(i, &mut seeds.child(i).rng())).collect();
        assert_eq!(stealing, sequential);
    }

    #[test]
    fn zero_trials_yield_empty() {
        let out: Vec<u64> = run_trials(0, SeedStream::new(1), 4, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let f = |_: u64, rng: &mut rand::rngs::SmallRng| rng.gen::<u64>();
        let a = run_trials(10, SeedStream::new(1), 2, f);
        let b = run_trials(10, SeedStream::new(2), 2, f);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_threads_resolve_to_the_machine_default() {
        assert_eq!(resolve_threads(0), default_threads());
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn single_thread_runs_claim_blocks() {
        let blocks = &crate::obs::runner_metrics().steal_blocks;
        let before = blocks.get();
        run_trials(10, SeedStream::new(4), 1, |i, _| i);
        assert!(blocks.get() > before, "a 1-thread run counts its blocks");
    }

    #[test]
    fn count_hits_counts() {
        let token = CancelToken::new();
        let n = count_hits(100, 0, SeedStream::new(3), 4, &token, |i, _| i % 4 == 0);
        assert_eq!(n, Some(25));
    }

    #[test]
    fn count_matches_run_then_filter() {
        let seeds = SeedStream::new(17);
        let predicate = |_: u64, rng: &mut rand::rngs::SmallRng| rng.gen::<f64>() < 0.37;
        let counted = count_hits(5_000, 0, seeds, 8, &CancelToken::new(), predicate).unwrap();
        let collected = run_trials(5_000, seeds, 8, predicate)
            .into_iter()
            .filter(|&b| b)
            .count() as u64;
        assert_eq!(counted, collected);
    }

    #[test]
    fn count_offset_extends_a_prefix_run() {
        // Counting [0, 300) must equal count([0, 100)) + count([100, 300)).
        let seeds = SeedStream::new(23);
        let predicate =
            |i: u64, rng: &mut rand::rngs::SmallRng| (rng.gen::<u64>() ^ i).is_multiple_of(3);
        let count = |trials, offset| {
            count_hits(trials, offset, seeds, 4, &CancelToken::new(), predicate).unwrap()
        };
        assert_eq!(count(300, 0), count(100, 0) + count(200, 100));
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let out = run_trials(3, SeedStream::new(9), 64, |i, _| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let f = |i: u64, rng: &mut rand::rngs::SmallRng| -> u64 { rng.gen::<u64>() ^ i };
        let plain = run_trials(513, SeedStream::new(31), 4, f);
        let tokened =
            run_trials_cancellable(513, SeedStream::new(31), 4, &CancelToken::new(), f).unwrap();
        assert_eq!(plain, tokened);
    }

    #[test]
    fn pre_cancelled_run_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        assert!(run_trials_cancellable(100, SeedStream::new(1), 1, &token, |i, _| i).is_none());
        assert!(run_trials_cancellable(5_000, SeedStream::new(1), 4, &token, |i, _| i).is_none());
        assert!(count_hits(100, 0, SeedStream::new(1), 1, &token, |_, _| true).is_none());
    }

    #[test]
    fn mid_run_cancellation_stops_workers() {
        // The token fires from inside a trial; the run must abort (None)
        // well before all trials execute. Executed-trial count is tracked
        // to show cancellation actually short-circuited the queue.
        use std::sync::atomic::AtomicU64 as Counter;
        let token = CancelToken::new();
        let executed = Counter::new(0);
        let trials: u64 = 1_000_000;
        let out = run_trials_cancellable(trials, SeedStream::new(2), 4, &token, |i, _| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 10 {
                token.cancel();
            }
            i
        });
        assert!(out.is_none());
        assert!(
            executed.load(Ordering::Relaxed) < trials,
            "cancellation should stop the queue early"
        );
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
