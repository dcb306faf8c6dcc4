//! Experiment configuration and measurement primitives.
//!
//! Each measurement simulates many independent trials of a hitting-time
//! question and returns a [`CensoredSummary`]-backed estimate. Targets are
//! placed at a configurable position on the ring `R_ℓ(0)` — a fixed east
//! target or a uniformly random direction per trial (the default, which
//! averages out lattice-axis artifacts; the paper's bounds are uniform over
//! the ring's nodes).

use levy_analysis::CensoredSummary;
use levy_grid::{Point, Ring};
use levy_rng::{ExponentStrategy, JumpLengthDistribution, SeedStream};
use levy_search::{SearchProblem, SearchStrategy};
use levy_walks::{
    levy_flight_hitting_time, levy_walk_hitting_time, parallel_hitting_time,
    parallel_hitting_time_common,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::runner::{run_trials_cancellable, CancelToken};

/// How the hidden target is placed, at distance `ℓ` from the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetPlacement {
    /// Uniformly random node of `R_ℓ(0)`, fresh per trial.
    #[default]
    RandomDirection,
    /// The fixed node `(ℓ, 0)`.
    FixedEast,
}

impl TargetPlacement {
    /// Draws the target for one trial.
    pub fn place<R: Rng + ?Sized>(&self, ell: u64, rng: &mut R) -> Point {
        match self {
            TargetPlacement::RandomDirection => Ring::new(Point::ORIGIN, ell).sample_uniform(rng),
            TargetPlacement::FixedEast => Point::new(ell as i64, 0),
        }
    }
}

/// Shared knobs of a hitting-time measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementConfig {
    /// Target distance `ℓ`.
    pub ell: u64,
    /// Step budget (right-censoring point).
    pub budget: u64,
    /// Number of independent trials.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = machine default).
    pub threads: usize,
    /// Target placement rule.
    pub placement: TargetPlacement,
}

impl MeasurementConfig {
    /// A config with the given scale and sensible defaults.
    pub fn new(ell: u64, budget: u64, trials: u64, seed: u64) -> Self {
        MeasurementConfig {
            ell,
            budget,
            trials,
            seed,
            threads: 0,
            placement: TargetPlacement::RandomDirection,
        }
    }
}

/// Runs `config.trials` seeded trials of one hitting-time question and
/// summarizes them, or returns `None` if `cancel` fires first.
///
/// Each trial places its target per `config.placement`, then
/// `trial(target, rng)` returns the hitting time, `None` when censored at
/// `config.budget`. Outcomes are recorded under the exponent label
/// `alpha` (see [`crate::obs::record_trial_outcomes_for`]). Every
/// `measure_*` function is this with one trial closure.
pub fn measure_trials<F>(
    config: &MeasurementConfig,
    alpha: Option<f64>,
    cancel: &CancelToken,
    trial: F,
) -> Option<CensoredSummary>
where
    F: Fn(Point, &mut SmallRng) -> Option<u64> + Sync,
{
    let (ell, placement) = (config.ell, config.placement);
    let outcomes = run_trials_cancellable(
        config.trials,
        SeedStream::new(config.seed),
        config.threads,
        cancel,
        |_i, rng| trial(placement.place(ell, rng), rng),
    )?;
    crate::obs::record_trial_outcomes_for(alpha, &outcomes);
    Some(CensoredSummary::from_outcomes(&outcomes, config.budget))
}

/// [`measure_trials`] without a cancel token.
fn measure<F>(config: &MeasurementConfig, alpha: Option<f64>, trial: F) -> CensoredSummary
where
    F: Fn(Point, &mut SmallRng) -> Option<u64> + Sync,
{
    measure_trials(config, alpha, &CancelToken::new(), trial)
        .expect("uncancelled measurement completes")
}

/// The tabled jump law of `alpha`; panics outside `(1, ∞)`.
fn jumps(alpha: f64) -> JumpLengthDistribution {
    JumpLengthDistribution::new(alpha).expect("valid exponent")
}

/// Estimates the hitting-time distribution of a **single** Lévy walk with
/// exponent `alpha` (Theorems 1.1–1.3).
///
/// # Panics
///
/// Panics if `alpha` is outside `(1, ∞)`.
pub fn measure_single_walk(alpha: f64, config: &MeasurementConfig) -> CensoredSummary {
    let jumps = jumps(alpha);
    measure(config, Some(alpha), |target, rng| {
        levy_walk_hitting_time(&jumps, Point::ORIGIN, target, config.budget, rng)
    })
}

/// Estimates the hitting-jump distribution of a single Lévy **flight**
/// (intermittent detection; the flight-vs-walk ablation). The budget is in
/// *jumps*.
pub fn measure_single_flight(alpha: f64, config: &MeasurementConfig) -> CensoredSummary {
    let jumps = jumps(alpha);
    measure(config, Some(alpha), |target, rng| {
        levy_flight_hitting_time(&jumps, Point::ORIGIN, target, config.budget, rng)
    })
}

/// Estimates the **parallel** hitting time of `k` walks sharing a common
/// exponent (Corollary 4.2 / Theorem 1.5).
pub fn measure_parallel_common(
    alpha: f64,
    k: usize,
    config: &MeasurementConfig,
) -> CensoredSummary {
    let jumps = jumps(alpha);
    measure(config, Some(alpha), |target, rng| {
        parallel_hitting_time_common(k, &jumps, Point::ORIGIN, target, config.budget, rng)
    })
}

/// Estimates the parallel hitting time of `k` walks with exponents drawn
/// per-walk from `strategy` (Theorem 1.6 when the strategy is
/// `UniformSuperdiffusive`).
pub fn measure_parallel_strategy(
    strategy: ExponentStrategy,
    k: usize,
    config: &MeasurementConfig,
) -> CensoredSummary {
    measure(config, None, |target, rng| {
        parallel_hitting_time(k, &strategy, Point::ORIGIN, target, config.budget, rng).time
    })
}

/// Estimates the parallel search time of an arbitrary [`SearchStrategy`]
/// with `k` agents (the shoot-out driver).
pub fn measure_search_strategy<S>(
    strategy: &S,
    k: usize,
    config: &MeasurementConfig,
) -> CensoredSummary
where
    S: SearchStrategy + Sync + ?Sized,
{
    measure(config, None, |target, rng| {
        let problem = SearchProblem {
            source: Point::ORIGIN,
            target,
            num_agents: k,
            budget: config.budget,
        };
        strategy.run(&problem, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use levy_search::LevySearch;

    fn quick_config(ell: u64, budget: u64, trials: u64) -> MeasurementConfig {
        let mut c = MeasurementConfig::new(ell, budget, trials, 42);
        c.threads = 2;
        c
    }

    #[test]
    fn single_walk_summary_accounts_all_trials() {
        let s = measure_single_walk(2.5, &quick_config(5, 500, 300));
        assert_eq!(s.trials(), 300);
        assert!(s.hits > 0, "a close target should be hit sometimes");
    }

    #[test]
    fn measurements_are_reproducible() {
        let c = quick_config(6, 300, 200);
        let a = measure_single_walk(2.2, &c);
        let b = measure_single_walk(2.2, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_beats_single_hit_rate() {
        let c = quick_config(10, 200, 300);
        let single = measure_parallel_common(2.5, 1, &c);
        let many = measure_parallel_common(2.5, 16, &c);
        assert!(
            many.hit_rate() > single.hit_rate(),
            "k=16 rate {} <= k=1 rate {}",
            many.hit_rate(),
            single.hit_rate()
        );
    }

    #[test]
    fn strategy_measurement_matches_common_for_fixed() {
        let c = quick_config(8, 400, 400);
        let common = measure_parallel_common(2.4, 4, &c);
        let strat = measure_parallel_strategy(ExponentStrategy::Fixed(2.4), 4, &c);
        assert!(
            (common.hit_rate() - strat.hit_rate()).abs() < 0.1,
            "common {} vs strategy {}",
            common.hit_rate(),
            strat.hit_rate()
        );
    }

    #[test]
    fn search_strategy_driver_runs() {
        let c = quick_config(5, 5_000, 100);
        let s = measure_search_strategy(&LevySearch::randomized(), 8, &c);
        assert_eq!(s.trials(), 100);
        assert!(s.hit_rate() > 0.5, "easy instance should usually be solved");
    }

    #[test]
    fn fixed_east_placement_is_deterministic() {
        let mut rng = levy_rng::SeedStream::new(0).rng();
        let p = TargetPlacement::FixedEast.place(9, &mut rng);
        assert_eq!(p, Point::new(9, 0));
        let q = TargetPlacement::RandomDirection.place(9, &mut rng);
        assert_eq!(q.l1_norm(), 9);
    }

    #[test]
    fn flight_measurement_runs() {
        let s = measure_single_flight(2.0, &quick_config(4, 200, 200));
        assert_eq!(s.trials(), 200);
    }
}
