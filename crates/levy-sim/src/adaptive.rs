//! Adaptive-precision probability estimation.
//!
//! Fixed trial counts waste work when the estimated probability is large
//! and starve when it is tiny (the saturated hit probabilities of E1 span
//! three orders of magnitude across `ℓ`). [`estimate_probability`] runs
//! trials in batches until the Wilson interval is narrow enough — in
//! absolute *or* relative terms — or a trial cap is reached.

use levy_analysis::wilson_interval;
use levy_rng::SeedStream;
use rand::rngs::SmallRng;

use crate::runner::{count_hits, CancelToken};

/// Stopping rule for [`estimate_probability`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Stop when the CI half-width is below this absolute value.
    pub absolute: f64,
    /// ... or below this fraction of the point estimate.
    pub relative: f64,
    /// Hard cap on the number of trials.
    pub max_trials: u64,
}

impl Precision {
    /// A sensible default: half-width ≤ 0.01 absolute or ≤ 10% relative,
    /// at most `max_trials` trials.
    pub fn default_with_cap(max_trials: u64) -> Self {
        Precision {
            absolute: 0.01,
            relative: 0.10,
            max_trials,
        }
    }
}

/// Result of an adaptive estimation.
///
/// Beyond the point estimate and interval, the estimate reports exactly
/// how much simulation was spent reaching it: `trials` (the service API's
/// `trials_used` field), `successes`, and the number of doubling `batches`
/// the stopping rule evaluated. Callers that bill or budget simulation
/// work read the spend from here instead of re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEstimate {
    /// Point estimate of the probability.
    pub p: f64,
    /// 95% Wilson interval.
    pub ci: (f64, f64),
    /// Trials actually consumed (the `trials_used` of the service API).
    pub trials: u64,
    /// Successes observed.
    pub successes: u64,
    /// Doubling batches executed before stopping (≥ 1 whenever
    /// `max_trials > 0`).
    pub batches: u64,
    /// Whether the precision target was met (false = trial cap hit).
    pub converged: bool,
}

/// One completed batch of an adaptive estimation, as reported to the
/// observer of [`estimate_probability`].
///
/// Carries the running totals *after* the batch, so a streaming consumer
/// can render `estimate ± half-width (trials)` lines as the interval
/// tightens — the progressive view of the paper's sample-efficiency
/// story.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProgress {
    /// 1-based index of the batch that just completed.
    pub batch: u64,
    /// Total trials consumed so far.
    pub trials: u64,
    /// Total successes observed so far.
    pub successes: u64,
    /// Running point estimate.
    pub p: f64,
    /// Running 95% Wilson interval.
    pub ci: (f64, f64),
}

/// Estimates `P(predicate)` by batched simulation until `precision` is met.
///
/// Batches double from 256 trials; each trial `i` uses the deterministic
/// stream `seeds.child(i)`, so the estimate is reproducible and extending
/// a run reuses no randomness.
///
/// Returns `None` if `cancel` fires before the stopping rule is
/// satisfied; the token is polled between trial blocks inside each batch,
/// so abandoned estimates stop within one block of simulation work. After
/// each batch, `observer` receives the running totals as a
/// [`BatchProgress`]. The observer never touches the RNG streams or the
/// stopping rule, so the estimate is bit-identical whether or not anyone
/// is watching — the invariant the streaming byte-identity tests pin.
pub fn estimate_probability<F>(
    seeds: SeedStream,
    threads: usize,
    precision: Precision,
    cancel: &CancelToken,
    observer: &mut dyn FnMut(BatchProgress),
    predicate: F,
) -> Option<AdaptiveEstimate>
where
    F: Fn(u64, &mut SmallRng) -> bool + Sync,
{
    let mut trials: u64 = 0;
    let mut successes: u64 = 0;
    let mut batches: u64 = 0;
    let mut batch: u64 = 256;
    loop {
        let batch_size = batch.min(precision.max_trials - trials);
        if batch_size == 0 {
            break;
        }
        // Trials [trials, trials + batch_size) with their canonical
        // streams: the offset-aware counter derives `seeds.child(global)`
        // directly, so the estimate matches a single non-adaptive run and
        // no per-trial Vec<bool> is ever materialized.
        let hits = count_hits(batch_size, trials, seeds, threads, cancel, &predicate)?;
        trials += batch_size;
        successes += hits;
        batches += 1;
        let p = successes as f64 / trials as f64;
        let ci = wilson_interval(successes, trials, 1.96);
        observer(BatchProgress {
            batch: batches,
            trials,
            successes,
            p,
            ci,
        });
        let half = (ci.1 - ci.0) / 2.0;
        let met = half <= precision.absolute || (p > 0.0 && half <= precision.relative * p);
        if met {
            return Some(AdaptiveEstimate {
                p,
                ci,
                trials,
                successes,
                batches,
                converged: true,
            });
        }
        batch *= 2;
    }
    let p = if trials > 0 {
        successes as f64 / trials as f64
    } else {
        0.0
    };
    Some(AdaptiveEstimate {
        p,
        ci: wilson_interval(successes, trials.max(1), 1.96),
        trials,
        successes,
        batches,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// An uncancelled, unobserved estimate.
    fn estimate(
        seed: u64,
        threads: usize,
        precision: Precision,
        predicate: impl Fn(u64, &mut SmallRng) -> bool + Sync,
    ) -> AdaptiveEstimate {
        estimate_probability(
            SeedStream::new(seed),
            threads,
            precision,
            &CancelToken::new(),
            &mut |_| {},
            predicate,
        )
        .expect("uncancelled estimate completes")
    }

    #[test]
    fn converges_quickly_for_moderate_probabilities() {
        let est = estimate(
            1,
            2,
            Precision {
                absolute: 0.02,
                relative: 0.5,
                max_trials: 1_000_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.3,
        );
        assert!(est.converged);
        assert!((est.p - 0.3).abs() < 0.05, "p = {}", est.p);
        assert!(est.trials < 50_000, "used {} trials", est.trials);
    }

    #[test]
    fn spends_more_trials_on_rare_events() {
        let rare = estimate(
            2,
            2,
            Precision {
                absolute: 1e-4,
                relative: 0.3,
                max_trials: 400_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.002,
        );
        let common = estimate(
            2,
            2,
            Precision {
                absolute: 1e-4,
                relative: 0.3,
                max_trials: 400_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.5,
        );
        assert!(
            rare.trials > common.trials,
            "rare {} vs common {}",
            rare.trials,
            common.trials
        );
    }

    #[test]
    fn trial_cap_is_respected_and_reported() {
        let est = estimate(
            3,
            1,
            Precision {
                absolute: 1e-9,
                relative: 1e-9,
                max_trials: 1_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.5,
        );
        assert!(!est.converged);
        assert_eq!(est.trials, 1_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            estimate(4, 3, Precision::default_with_cap(10_000), |_i, rng| {
                rng.gen::<f64>() < 0.2
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batches_report_the_doubling_schedule() {
        // 1_000 = 256 + 512 + 232(capped) under a never-met precision:
        // exactly 3 batches, and trials(_used) accounts for every trial.
        let est = estimate(
            3,
            1,
            Precision {
                absolute: 1e-9,
                relative: 1e-9,
                max_trials: 1_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.5,
        );
        assert_eq!(est.batches, 3);
        assert_eq!(est.trials, 1_000);
        // A quickly-converging estimate stops after the first batch.
        let quick = estimate(
            3,
            1,
            Precision {
                absolute: 0.5,
                relative: 1.0,
                max_trials: 100_000,
            },
            |_i, rng| rng.gen::<f64>() < 0.5,
        );
        assert_eq!(quick.batches, 1);
        assert_eq!(quick.trials, 256);
    }

    #[test]
    fn cancellation_aborts_the_estimate() {
        let token = CancelToken::new();
        token.cancel();
        let est = estimate_probability(
            SeedStream::new(6),
            2,
            Precision::default_with_cap(100_000),
            &token,
            &mut |_| {},
            |_i, rng| rng.gen::<f64>() < 0.5,
        );
        assert!(est.is_none());
    }

    #[test]
    fn observer_sees_every_batch_and_changes_nothing() {
        let precision = Precision {
            absolute: 1e-9,
            relative: 1e-9,
            max_trials: 1_000,
        };
        let mut seen: Vec<BatchProgress> = Vec::new();
        let observed = estimate_probability(
            SeedStream::new(3),
            1,
            precision,
            &CancelToken::new(),
            &mut |progress| seen.push(progress),
            |_i, rng| rng.gen::<f64>() < 0.5,
        )
        .unwrap();
        let plain = estimate(3, 1, precision, |_i, rng| rng.gen::<f64>() < 0.5);
        assert_eq!(observed, plain, "observation must not perturb the estimate");
        assert_eq!(seen.len() as u64, observed.batches);
        assert_eq!(
            seen.iter().map(|b| b.batch).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "batches arrive in order"
        );
        let last = seen.last().unwrap();
        assert_eq!(last.trials, observed.trials);
        assert_eq!(last.successes, observed.successes);
        assert_eq!(last.p, observed.p);
        assert_eq!(last.ci, observed.ci);
        // Running totals are monotone, so delta-packing them is sound.
        for pair in seen.windows(2) {
            assert!(pair[1].trials > pair[0].trials);
            assert!(pair[1].successes >= pair[0].successes);
        }
    }

    #[test]
    fn zero_probability_event_hits_cap() {
        let est = estimate(
            5,
            1,
            Precision {
                absolute: 1e-6,
                relative: 0.1,
                max_trials: 2_048,
            },
            |_i, _rng| false,
        );
        assert_eq!(est.successes, 0);
        assert_eq!(est.p, 0.0);
    }
}
