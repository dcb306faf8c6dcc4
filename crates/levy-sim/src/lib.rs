//! Experiment engine for the reproduction of *Search via Parallel Lévy
//! Walks on Z²* (PODC 2021).
//!
//! * [`run_trials`] — deterministic work-stealing trial execution
//!   (bit-identical results regardless of thread count; one worker loop
//!   serves every run, inline on the caller's thread when single-threaded);
//! * [`measure_trials`] — N seeded trials of one hitting-time closure,
//!   reduced to a [`CensoredSummary`](levy_analysis::CensoredSummary) and
//!   cancellable; [`measure_single_walk`] / [`measure_parallel_common`] /
//!   [`measure_parallel_strategy`] / [`measure_search_strategy`] wrap it
//!   for every experiment (E1–E10);
//! * [`estimate_probability`] — the same trials reduced to a
//!   Wilson-stopped probability;
//! * [`TextTable`] / [`write_json`] — paper-style tables and persisted
//!   results;
//! * sweep helpers ([`linspace`], [`geomspace`], ...).
//!
//! # Example
//!
//! ```
//! use levy_sim::{measure_parallel_common, MeasurementConfig};
//!
//! // P(τ^k ≤ budget) for k = 4 walks with α = 2.5 and ℓ = 8.
//! let config = MeasurementConfig::new(8, 2_000, 200, 7);
//! let summary = measure_parallel_common(2.5, 4, &config);
//! assert_eq!(summary.trials(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod experiment;
mod json;
pub mod obs;
mod plot;
pub mod progress;
mod report;
mod runner;
mod sweep;

pub use adaptive::{estimate_probability, AdaptiveEstimate, BatchProgress, Precision};
pub use experiment::{
    measure_parallel_common, measure_parallel_strategy, measure_search_strategy,
    measure_single_flight, measure_single_walk, measure_trials, MeasurementConfig, TargetPlacement,
};
pub use json::{Json, JsonParseError};
pub use plot::AsciiPlot;
pub use progress::ProgressReporter;
pub use report::{write_json, TextTable};
pub use runner::{default_threads, run_trials, run_trials_cancellable, CancelToken};
pub use sweep::{geom_integers, geomspace, linspace, pow2_range};
