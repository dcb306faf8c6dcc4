//! `sweep`: an offline experiment batch called straight into `levy-sim`.
//!
//! A fixed mix of cells — E1 single walks at three exponents, E6
//! parallel walks at the `optimal` common exponent, E7 parallel walks
//! with `Uniform(2,3)` exponents — run through `levy_sim::measure_*` on
//! 2 runner threads. Fixed exponents draw from the alias table and
//! uniform exponents from Devroye rejection, so both sampler paths, the
//! phase engine and the runner carry the load. The seeded oracle is a
//! single-thread replay of every trial through `levy-walks`. Each pass
//! and each set-up is bracketed by the CPU host reference, and its
//! times are scaled to the reference's nominal speed (see `hostref`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use levy_analysis::CensoredSummary;
use levy_grid::Point;
use levy_rng::{optimal_exponent, ExponentStrategy, JumpLengthDistribution, SeedStream};
use levy_sim::{
    measure_parallel_common, measure_parallel_strategy, measure_single_walk, MeasurementConfig,
    TargetPlacement,
};
use levy_walks::theory::mu;
use levy_walks::{levy_walk_hitting_time, parallel_hitting_time, parallel_hitting_time_common};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::hostref::{HostRef, Reference};
use crate::loadgen::mix;
use crate::report::{median, metric, peak_rss_mb, quantile, ratio, Metric, Outcome};
use crate::trace::{self, Clock, Recorder};
use crate::Args;

/// Runner threads, as the machine this benchmark targets has 2 cores.
const THREADS: usize = 2;
/// Target distance of every cell.
const ELL: u64 = 64;
/// Exponents of the E1 cells.
const E1_ALPHAS: [f64; 3] = [2.2, 2.5, 2.8];

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// E1: one walk at a fixed exponent.
    Single(f64),
    /// E6: `k` walks sharing the Theorem 1.5 exponent.
    Optimal(usize),
    /// E7: `k` walks with i.i.d. `Uniform(2,3)` exponents.
    Uniform(usize),
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: Kind,
    budget: u64,
    trials: u64,
    seed: u64,
}

impl Cell {
    fn uniform(&self) -> bool {
        matches!(self.kind, Kind::Uniform(_))
    }

    fn config(&self, threads: usize) -> MeasurementConfig {
        let mut c = MeasurementConfig::new(ELL, self.budget, self.trials, self.seed);
        c.threads = threads;
        c
    }

    /// The public `levy-sim` entry point for this cell.
    fn measure(&self, threads: usize) -> CensoredSummary {
        let c = self.config(threads);
        match self.kind {
            Kind::Single(alpha) => measure_single_walk(alpha, &c),
            Kind::Optimal(k) => measure_parallel_common(optimal_exponent(k as u64, ELL), k, &c),
            Kind::Uniform(k) => {
                measure_parallel_strategy(ExponentStrategy::UniformSuperdiffusive, k, &c)
            }
        }
    }

    /// Seeded oracle: every trial replayed on this thread through the
    /// `levy-walks` functions, with the runner's per-trial seeding.
    /// With a recorder, each trial gets a span under `parent`.
    fn replay(&self, mut rec: Option<(&mut Recorder, u64)>) -> (CensoredSummary, Vec<f64>) {
        let seeds = SeedStream::new(self.seed);
        let placement = TargetPlacement::RandomDirection;
        let law = match self.kind {
            Kind::Single(alpha) => JumpLengthDistribution::new(alpha).ok(),
            Kind::Optimal(k) => JumpLengthDistribution::new(optimal_exponent(k as u64, ELL)).ok(),
            Kind::Uniform(_) => None,
        };
        let mut outcomes = Vec::with_capacity(self.trials as usize);
        let mut trial_us = Vec::new();
        for i in 0..self.trials {
            let start = Instant::now();
            let mut rng = seeds.child(i).rng();
            let target = placement.place(ELL, &mut rng);
            let outcome = match (self.kind, &law) {
                (Kind::Single(_), Some(jumps)) => {
                    levy_walk_hitting_time(jumps, Point::ORIGIN, target, self.budget, &mut rng)
                }
                (Kind::Optimal(k), Some(jumps)) => parallel_hitting_time_common(
                    k,
                    jumps,
                    Point::ORIGIN,
                    target,
                    self.budget,
                    &mut rng,
                ),
                (Kind::Uniform(k), _) => {
                    parallel_hitting_time(
                        k,
                        &ExponentStrategy::UniformSuperdiffusive,
                        Point::ORIGIN,
                        target,
                        self.budget,
                        &mut rng,
                    )
                    .time
                }
                _ => unreachable!("fixed-exponent cells have a valid law"),
            };
            if let Some((rec, parent)) = rec.as_mut() {
                let end = Instant::now();
                rec.record("trial", *parent, start, end, 0);
                trial_us.push(end.duration_since(start).as_secs_f64() * 1e6);
            }
            outcomes.push(outcome);
        }
        (
            CensoredSummary::from_outcomes(&outcomes, self.budget),
            trial_us,
        )
    }
}

/// E1's trial count at `alpha` (`exp_e1_hit_prob`, quick scale): more
/// trials where the hit probability is smaller.
fn e1_trials(alpha: f64) -> u64 {
    (4_000.0 * (ELL as f64).powf(3.0 - alpha) / 8.0).clamp(4_000.0, 30_000.0) as u64
}

/// The fixed cell mix at ℓ = 64. Budgets and trial counts are those of
/// the quick-scale `exp_e1_hit_prob`, `exp_e6_optimal_exponent` and
/// `exp_e7_random_exponents` experiments at ℓ = 64, every trial count
/// multiplied by `scale`. At `scale` 1 a pass takes ~2.2 s on 2 threads
/// and the uniform cells ~65% of it.
fn cells(seed: u64, scale: f64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = E1_ALPHAS
        .iter()
        .map(|&a| Cell {
            kind: Kind::Single(a),
            budget: (2.0 * mu(a, ELL) * (ELL as f64).powf(a - 1.0)).ceil() as u64,
            trials: e1_trials(a),
            seed: 0,
        })
        .collect();
    for k in [16, 32] {
        cells.push(Cell {
            kind: Kind::Optimal(k),
            budget: (12 * ELL * ELL).div_ceil(k as u64),
            trials: 250,
            seed: 0,
        });
    }
    for k in [16, 64] {
        cells.push(Cell {
            kind: Kind::Uniform(k),
            budget: 48 * (ELL * ELL / k as u64 + ELL),
            trials: 250,
            seed: 0,
        });
    }
    for (j, c) in cells.iter_mut().enumerate() {
        c.seed = mix(seed, j as u64) >> 1;
        c.trials = ((c.trials as f64 * scale).round() as u64).max(1);
    }
    cells
}

/// Cell-seed sets the passes rotate through: pass `p` runs the mix with
/// set `p % SEED_SETS`, so a run's figures cover several draws of the
/// trials rather than one, and the oracle replays at most this many.
const SEED_SETS: usize = 4;

/// The run's `SEED_SETS` cell mixes, alike but for their seeds.
fn cell_sets(seed: u64) -> Vec<Vec<Cell>> {
    (0..SEED_SETS as u64)
        .map(|s| cells(mix(seed, s), 1.0))
        .collect()
}

/// One pass over every cell of one set: per-cell wall time and
/// summaries.
struct Pass {
    set: usize,
    cell_s: Vec<f64>,
    summaries: Vec<CensoredSummary>,
    /// The host reference's factor around each cell (1 when
    /// unmeasured).
    cell_factor: Vec<f64>,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.cell_s.iter().sum()
    }

    /// Each cell's time at the reference's nominal host speed.
    fn scaled_cell_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.cell_s
            .iter()
            .zip(&self.cell_factor)
            .map(|(s, f)| s / f)
    }

    fn scaled_secs(&self) -> f64 {
        self.scaled_cell_s().sum()
    }
}

/// One pass; with `host`, each cell is bracketed by the reference.
fn run_pass(
    cells: &[Cell],
    threads: usize,
    mut host: Option<&mut HostRef>,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let mut cell_s = Vec::with_capacity(cells.len());
    let mut cell_factor = Vec::with_capacity(cells.len());
    let mut summaries = Vec::with_capacity(cells.len());
    for cell in cells {
        let before = host.as_mut().map(|h| h.latest());
        let start = Instant::now();
        let summary = black_box(cell.measure(threads));
        let end = Instant::now();
        let after = host.as_mut().map(|h| h.measure());
        if let Some(rec) = rec.as_mut() {
            rec.record("measure_cell", 0, start, end, 0);
        }
        cell_s.push(end.duration_since(start).as_secs_f64());
        cell_factor.push(match (before, after) {
            (Some(b), Some(a)) => HostRef::between(b, a),
            _ => 1.0,
        });
        summaries.push(summary);
    }
    Pass {
        set: 0,
        cell_s,
        summaries,
        cell_factor,
    }
}

/// Passes, rotating through the sets, until `window` has elapsed (at
/// least one), every cell bracketed by the host reference.
fn run_window(
    sets: &[Vec<Cell>],
    window: Duration,
    host: &mut HostRef,
    mut rec: Option<&mut Recorder>,
) -> Vec<Pass> {
    let deadline = Instant::now() + window;
    let mut passes = Vec::new();
    host.gap();
    loop {
        let set = passes.len() % sets.len();
        let mut pass = run_pass(&sets[set], THREADS, Some(host), rec.as_deref_mut());
        pass.set = set;
        passes.push(pass);
        if Instant::now() >= deadline {
            return passes;
        }
    }
}

/// How many sets `passes` ran.
fn sets_used(passes: &[Pass]) -> usize {
    passes.iter().map(|p| p.set + 1).max().unwrap_or(0)
}

/// The seeded oracle of each set, the sets split over `THREADS` threads
/// (each cell's replay itself runs on one thread).
fn oracles(sets: &[Vec<Cell>]) -> Vec<Vec<CensoredSummary>> {
    if sets.is_empty() {
        return Vec::new();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = sets
            .chunks(sets.len().div_ceil(THREADS))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|cells| cells.iter().map(|c| c.replay(None).0).collect())
                        .collect::<Vec<Vec<_>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// Set-up: a quarter-size pass that builds the alias tables and warms
/// the runner, timed three times, every cell bracketed by the host
/// reference. Returns the median time, raw and scaled to nominal host
/// speed.
fn setup(seed: u64, host: &mut HostRef) -> (f64, f64) {
    host.gap();
    let (raw, scaled): (Vec<f64>, Vec<f64>) = (0..3)
        .map(|i| {
            let pass = run_pass(
                &cells(mix(seed, 0x5e7 + i), 0.25),
                THREADS,
                Some(host),
                None,
            );
            (pass.secs(), pass.scaled_secs())
        })
        .unzip();
    (median(&raw), median(&scaled))
}

fn trials_of(cells: &[Cell]) -> u64 {
    cells.iter().map(|c| c.trials).sum()
}

/// The end-to-end metrics from each pass's cell times, as `cell_s`
/// gives them (scaled or raw).
fn end_to_end(
    setup_s: f64,
    peak_mb: f64,
    cells: &[Cell],
    passes: &[Pass],
    cell_s: impl Fn(&Pass) -> Vec<f64>,
) -> Vec<Metric> {
    let pass_cells: Vec<Vec<f64>> = passes.iter().map(cell_s).collect();
    // Rates are totals over the whole window: each cell's time carries
    // its own reference factor, so summing averages out the noise of
    // single reference measurements.
    let secs: f64 = pass_cells.iter().flatten().sum();
    let n = passes.len() as f64;
    let tps = n * trials_of(cells) as f64 / secs;
    let qps = n * cells.len() as f64 / secs;
    let cell_ms: Vec<f64> = pass_cells.iter().flatten().map(|s| s * 1e3).collect();
    // A pass has only 7 cells: its p90 is its slowest cell, and the
    // median over passes keeps one disturbed pass from setting it.
    let p90_ms: Vec<f64> = pass_cells.iter().map(|c| quantile(c, 0.90) * 1e3).collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("trials_per_s", tps, "1/s"),
        metric("queries_per_s", qps, "1/s"),
        metric("latency_p50_ms", quantile(&cell_ms, 0.5), "ms"),
        metric("latency_p90_ms", median(&p90_ms), "ms"),
        metric("cold_latency_p50_ms", quantile(&cell_ms, 0.5), "ms"),
        metric("peak_rss_mb", peak_mb, "MiB"),
    ]
}

/// Compares every pass against its set's oracle: one attempt per cell
/// run.
fn check_passes(out: &mut Outcome, oracles: &[Vec<CensoredSummary>], passes: &[Pass], label: &str) {
    for (p, pass) in passes.iter().enumerate() {
        for (c, summary) in pass.summaries.iter().enumerate() {
            out.attempted += 1;
            if *summary != oracles[pass.set][c] {
                out.failed += 1;
                out.problems.push(format!(
                    "{label} pass {p} cell {c}: summary differs from the seeded oracle"
                ));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut host = HostRef::new(Reference::Cpu).expect("the CPU reference needs no set-up");
    let (raw_setup_s, setup_s) = setup(args.seed, &mut host);
    let sets = cell_sets(args.seed);
    let mut out = Outcome::default();
    if !args.trace {
        let passes = run_window(&sets, args.window(), &mut host, None);
        let peak_mb = peak_rss_mb();
        out.metrics = end_to_end(setup_s, peak_mb, &sets[0], &passes, |p| {
            p.scaled_cell_s().collect()
        });
        out.raw = end_to_end(raw_setup_s, peak_mb, &sets[0], &passes, |p| {
            p.cell_s.clone()
        });
        out.raw
            .push(metric("host_factor_p50", median(&host.factors), "ratio"));
        let oracles = oracles(&sets[..sets_used(&passes)]);
        check_passes(&mut out, &oracles, &passes, "timed");
        return out;
    }
    traced(args, &sets, &mut host, out)
}

fn rng_counters() -> (f64, f64) {
    levy_rng::flush_draw_stats();
    let sample = levy_obs::Registry::global().sample();
    let get = |name: &str| {
        sample
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    (
        get("levy_rng_table_draws_total"),
        get("levy_rng_devroye_draws_total"),
    )
}

/// Mean ns per `sample` call, over `draws` draws at each exponent.
fn ns_per_draw(laws: &[JumpLengthDistribution], seed: u64, draws: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut acc = 0u64;
    for law in laws {
        for _ in 0..draws {
            acc = acc.wrapping_add(law.sample(&mut rng));
        }
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (draws * laws.len() as u64) as f64
}

fn traced(args: &Args, sets: &[Vec<Cell>], host: &mut HostRef, mut out: Outcome) -> Outcome {
    let clock = Clock::new();
    let mut rec = Recorder::new(clock, 0);
    let half = args.window() / 2;
    let cells = &sets[0];

    // Untraced and traced halves at the same seed, at nominal host
    // speed: the trace overhead.
    let untraced = run_window(sets, half, host, None);
    let (table0, devroye0) = rng_counters();
    let passes = run_window(sets, half, host, Some(&mut rec));
    let (table1, devroye1) = rng_counters();
    let trials = trials_of(cells) as f64;
    let scaled_rate = |ps: &[Pass]| {
        median(
            &ps.iter()
                .map(|p| trials / p.scaled_secs())
                .collect::<Vec<_>>(),
        )
    };
    let (tps_u, tps_t) = (scaled_rate(&untraced), scaled_rate(&passes));
    // Set 0 at 2 threads, to compare with set 0 at 1 thread below.
    let t2 = median(
        &passes
            .iter()
            .filter(|p| p.set == 0)
            .map(Pass::secs)
            .collect::<Vec<_>>(),
    );

    // Fixed vs uniform throughput inside the traced passes.
    let (mut fixed_trials, mut fixed_s, mut uni_trials, mut uni_s) = (0.0, 0.0, 0.0, 0.0);
    for pass in &passes {
        for (cell, s) in cells.iter().zip(&pass.cell_s) {
            if cell.uniform() {
                uni_trials += cell.trials as f64;
                uni_s += s;
            } else {
                fixed_trials += cell.trials as f64;
                fixed_s += s;
            }
        }
    }

    // Set 0 at 1 runner thread must give identical summaries.
    let single = run_pass(cells, 1, None, Some(&mut rec));
    let t1 = single.secs();

    // Single-thread replay of set 0 with one span per trial: its oracle
    // and the per-trial costs.
    let mut oracle = Vec::new();
    let (mut fixed_us, mut uniform_us) = (Vec::new(), Vec::new());
    let (mut steps, mut hits, mut replayed) = (0.0, 0.0, 0.0);
    let mut trial_total_s = 0.0;
    for cell in cells {
        let start = Instant::now();
        let parent = rec.next_id();
        let (summary, us) = cell.replay(Some((&mut rec, parent)));
        rec.record_with_id(parent, "replay_cell", 0, start, Instant::now(), 0);
        trial_total_s += us.iter().sum::<f64>() / 1e6;
        if cell.uniform() {
            uniform_us.extend(us);
        } else {
            fixed_us.extend(us);
        }
        hits += summary.hits as f64;
        replayed += summary.trials() as f64;
        steps += summary.observed.iter().sum::<f64>() + (summary.censored * cell.budget) as f64;
        oracle.push(summary);
    }
    let used = sets_used(&untraced).max(sets_used(&passes));
    let mut all = vec![oracle];
    all.extend(oracles(&sets[1..used.max(1)]));
    check_passes(&mut out, &all, &untraced, "untraced");
    check_passes(&mut out, &all, &passes, "traced");
    check_passes(&mut out, &all, std::slice::from_ref(&single), "1-thread");

    let tabled: Vec<JumpLengthDistribution> = E1_ALPHAS
        .iter()
        .map(|&a| JumpLengthDistribution::new(a).expect("valid exponent"))
        .collect();
    let untabled: Vec<JumpLengthDistribution> = E1_ALPHAS
        .iter()
        .map(|&a| JumpLengthDistribution::new_untabled(a).expect("valid exponent"))
        .collect();
    let table_ns = ns_per_draw(&tabled, args.seed, 1 << 20);
    let devroye_ns = ns_per_draw(&untabled, args.seed, 1 << 18);

    let overhead_pct = (ratio(tps_u, tps_t) - 1.0) * 100.0;
    let efficiency = ratio(t1, 2.0 * t2);
    let runner_share = ratio(t1 - trial_total_s, t1);
    let layer = |name, value, unit| metric(name, value, unit);
    out.metrics = crate::per_layer_defaults();
    crate::set_metrics(
        &mut out.metrics,
        vec![
            layer("rng.table_draws", table1 - table0, "count"),
            layer("rng.devroye_draws", devroye1 - devroye0, "count"),
            layer("rng.table_ns_per_draw", table_ns, "ns"),
            layer("rng.devroye_ns_per_draw", devroye_ns, "ns"),
            layer("walks.fixed_trial_us_p50", median(&fixed_us), "us"),
            layer("walks.uniform_trial_us_p50", median(&uniform_us), "us"),
            layer("walks.steps_per_trial", ratio(steps, replayed), "steps"),
            layer("walks.hit_ratio", ratio(hits, replayed), "ratio"),
            layer(
                "sim.fixed_trials_per_s",
                ratio(fixed_trials, fixed_s),
                "1/s",
            ),
            layer("sim.uniform_trials_per_s", ratio(uni_trials, uni_s), "1/s"),
            layer("sim.parallel_efficiency", efficiency, "ratio"),
            layer("sim.runner_overhead_share", runner_share, "ratio"),
            layer("obs.trace_overhead_pct", overhead_pct, "%"),
        ],
    );

    let rows = trace::rows(&rec.spans);
    let mut t = String::new();
    let _ = writeln!(t, "per-layer budget: sweep (seed {})", args.seed);
    t.push_str(&trace::format_rows(&rows));
    for (j, cell) in cells.iter().enumerate() {
        let at2 = median(&passes.iter().map(|p| p.cell_s[j]).collect::<Vec<_>>());
        let _ = writeln!(
            t,
            "  cell {:?}: budget {}, {} trials, {:.3} s at 2 threads, {:.3} s at 1 thread",
            cell.kind, cell.budget, cell.trials, at2, single.cell_s[j]
        );
    }
    let _ = writeln!(
        t,
        "  rng: {:.0} table + {:.0} Devroye draws in {} traced passes; {table_ns:.2} vs {devroye_ns:.2} ns/draw",
        table1 - table0,
        devroye1 - devroye0,
        passes.len()
    );
    let _ = writeln!(
        t,
        "  walks.hit_ratio = {hits:.0} hits / {replayed:.0} trials; steps_per_trial = {steps:.0} steps / {replayed:.0} trials"
    );
    let _ = writeln!(
        t,
        "  sim: fixed {fixed_trials:.0} trials / {fixed_s:.3} s, uniform {uni_trials:.0} trials / {uni_s:.3} s ({:.0}% of time, {:.0}% of trials)",
        100.0 * ratio(uni_s, uni_s + fixed_s),
        100.0 * ratio(uni_trials, uni_trials + fixed_trials)
    );
    let _ = writeln!(
        t,
        "  sim.parallel_efficiency = {t1:.3} s at 1 thread / (2 x {t2:.3} s at 2 threads) = {efficiency:.3}"
    );
    let _ = writeln!(
        t,
        "  sim.runner_overhead_share = ({t1:.3} s measure_* at 1 thread - {trial_total_s:.3} s in trial spans) / {t1:.3} s = {runner_share:.4}"
    );
    let _ = writeln!(
        t,
        "  unattributed (measure_* self time at 1 thread) = {:.3} s",
        t1 - trial_total_s
    );
    let _ = writeln!(
        t,
        "  obs.trace_overhead_pct = ({tps_u:.0} untraced / {tps_t:.0} traced trials/s at nominal host speed - 1) x 100 = {overhead_pct:.2}"
    );
    out.table = t;
    out.spans_json = trace::export_json(&rec.spans, &rows, 2000);
    out
}
