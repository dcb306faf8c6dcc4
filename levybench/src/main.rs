//! `levybench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path levybench/Cargo.toml -- \
//!     --workload sweep|cluster_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One process boots everything it measures and drives it through the
//! public API only. With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it runs the separate traced run and prints the
//! per-layer metrics and table. End-to-end times are scaled to a host
//! reference's nominal speed (see `hostref`); an untraced run prints the
//! unscaled figures on the line before the result. The last stdout line
//! is the result object; the same result, stamped with the host
//! fingerprint, goes to `.bench_out/`. See `levybench/README.md`.

use std::process::ExitCode;
use std::time::Duration;

mod cluster;
mod hostref;
mod layers;
mod loadgen;
mod report;
mod sweep;
mod trace;

use report::{fingerprint, metric, metrics_json, result_line, Metric, Outcome};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(1..=600).contains(&args.seconds) {
            return Err("--seconds must lie in 1..=600".into());
        }
        Ok(args)
    }
}

const WORKLOADS: [&str; 2] = ["sweep", "cluster_mix"];

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run
/// prints all of them; a layer its workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("rng.table_draws", "count"),
    ("rng.devroye_draws", "count"),
    ("rng.table_ns_per_draw", "ns"),
    ("rng.devroye_ns_per_draw", "ns"),
    ("walks.fixed_trial_us_p50", "us"),
    ("walks.uniform_trial_us_p50", "us"),
    ("walks.steps_per_trial", "steps"),
    ("walks.hit_ratio", "ratio"),
    ("sim.fixed_trials_per_s", "1/s"),
    ("sim.uniform_trials_per_s", "1/s"),
    ("sim.parallel_efficiency", "ratio"),
    ("sim.runner_overhead_share", "ratio"),
    ("engine.simulate_ms_p50", "ms"),
    ("engine.simulations", "count"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.coalesced", "count"),
    ("server.rejected_503", "count"),
    ("cache.mem_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.probe_us_p50", "us"),
    ("cache.get_mem_us", "us"),
    ("cache.get_disk_us", "us"),
    ("cache.put_us", "us"),
    ("request.parse_us", "us"),
    ("wire.decode_query_us", "us"),
    ("wire.encode_result_us", "us"),
    ("wire.json_body_bytes", "bytes"),
    ("wire.lw1_body_bytes", "bytes"),
    ("server.request_us_p50", "us"),
    ("http.encode_write_us_p50", "us"),
    ("http.unattributed_us_p50", "us"),
    ("cluster.local_hits", "count"),
    ("cluster.peek_hits", "count"),
    ("cluster.forwards", "count"),
    ("cluster.local_misses", "count"),
    ("cluster.local_fallbacks", "count"),
    ("cluster.local_hit_p50_ms", "ms"),
    ("cluster.local_hit_p99_ms", "ms"),
    ("cluster.peek_hit_p50_ms", "ms"),
    ("cluster.peek_hit_p99_ms", "ms"),
    ("cluster.forward_p50_ms", "ms"),
    ("cluster.forward_p99_ms", "ms"),
    ("cluster.local_miss_p50_ms", "ms"),
    ("cluster.local_miss_p99_ms", "ms"),
    ("cluster.peek_hit_ratio", "ratio"),
    ("cluster.peek_us_p50", "us"),
    ("cluster.forward_ms_p50", "ms"),
    ("cluster.duplicate_simulations", "count"),
    ("cluster.replica_writes", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Every per-layer metric at 0, to be overwritten by what a run measures.
pub fn per_layer_defaults() -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, 0.0, unit))
        .collect()
}

/// Overwrites the values of `measured` metrics in `all`, by name.
pub fn set_metrics(all: &mut [Metric], measured: Vec<Metric>) {
    for m in measured {
        let slot = all
            .iter_mut()
            .find(|x| x.name == m.name)
            .unwrap_or_else(|| panic!("{} is not a declared per-layer metric", m.name));
        assert_eq!(slot.unit, m.unit, "unit of {}", m.name);
        slot.value = m.value;
    }
}

/// Writes the stamped result (and trace) file under `.bench_out/`.
fn write_files(
    args: &Args,
    stamp: &str,
    outcome: &Outcome,
    raw: &str,
    line: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let base = format!(
        ".bench_out/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        format!("{base}.result.json"),
        format!("{{\"host\":{stamp},\"raw\":{raw},\"result\":{line}}}\n"),
    )?;
    if args.trace {
        std::fs::write(
            format!("{base}.trace.json"),
            format!(
                "{{\"host\":{stamp},\"table\":{},{}}}\n",
                report::json_str(&outcome.table),
                outcome.spans_json
            ),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("levybench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep" => sweep::run(&args),
        _ => cluster::run(&args),
    };
    for p in outcome.problems.iter().take(20) {
        eprintln!("levybench: check failed: {p}");
    }
    let stamp = fingerprint(&args.workload, args.seed, args.trace);
    let line = result_line(&outcome);
    let raw = metrics_json(&outcome.raw);
    if let Err(e) = write_files(&args, &stamp, &outcome, &raw, &line) {
        eprintln!("levybench: cannot write .bench_out: {e}");
    }
    println!("host: {stamp}");
    if args.trace {
        print!("{}", outcome.table);
    } else {
        println!("raw (wall clock, unscaled): {raw}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
