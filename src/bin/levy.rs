//! `levy` — command-line driver for the parallel Lévy walk library.
//!
//! Subcommands:
//!
//! ```text
//! levy walk   --alpha 2.5 --steps 10000 [--seed 0]
//! levy hit    --alpha 2.5 --ell 64 --budget 100000 --trials 2000 [--seed 0]
//! levy search --strategy random --k 32 --ell 64 --budget 100000 --trials 200
//! levy sweep  --k 16 --ell 128 [--trials 200]
//! levy ring   --members a:1,b:1,c:1 [--vnodes 64] [--key HEX32 | --keys 10000]
//! ```
//!
//! Strategies for `search`: `random` (the paper's U(2,3)), `alpha=X`
//! (fixed exponent), `grid=N` (deterministic N-point mixture), `rw`,
//! `ballistic`, `ants`.
//!
//! `ring` inspects the cluster's consistent-hash placement offline:
//! with `--key` it prints one key's home node and failover preference
//! order; without, it samples synthetic keys and prints each member's
//! ownership share (the balance `levyd --cluster` will exhibit).

use std::process::ExitCode;

use parallel_levy_walks::prelude::*;
use parallel_levy_walks::rng::ideal_exponent;
use parallel_levy_walks::sim::linspace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use parallel_levy_walks::cli::Options;

fn cmd_walk(opts: &Options) -> Result<(), String> {
    opts.accept_only(&["alpha", "steps", "seed"])?;
    let alpha: f64 = opts.get("alpha", 2.5)?;
    let steps: u64 = opts.get("steps", 10_000)?;
    let seed: u64 = opts.get("seed", 0)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut walk = LevyWalk::new(alpha, Point::ORIGIN).map_err(|e| e.to_string())?;
    let mut visits = VisitMap::new();
    visits.record(Point::ORIGIN);
    let mut max_disp = 0u64;
    for _ in 0..steps {
        let p = walk.step(&mut rng);
        visits.record(p);
        max_disp = max_disp.max(p.l1_norm());
    }
    println!("α = {alpha}, steps = {steps}, seed = {seed}");
    println!("final position:     {}", walk.position());
    println!("final displacement: {}", walk.position().l1_norm());
    println!("max displacement:   {max_disp}");
    println!("distinct nodes:     {}", visits.unique_nodes());
    println!("jump phases:        {}", walk.phases_completed());
    Ok(())
}

fn cmd_hit(opts: &Options) -> Result<(), String> {
    opts.accept_only(&["alpha", "ell", "budget", "trials", "seed"])?;
    let alpha: f64 = opts.get("alpha", 2.5)?;
    let ell: u64 = opts.get("ell", 64)?;
    let budget: u64 = opts.get("budget", 100_000)?;
    let trials: u64 = opts.get("trials", 2_000)?;
    let seed: u64 = opts.get("seed", 0)?;
    let config = MeasurementConfig::new(ell, budget, trials, seed);
    let summary = measure_single_walk(alpha, &config);
    let (lo, hi) = summary.hit_rate_ci95();
    println!("α = {alpha}, ℓ = {ell}, budget = {budget}, trials = {trials}");
    println!(
        "P(τ ≤ budget) = {:.4}  [95% CI {:.4}, {:.4}]",
        summary.hit_rate(),
        lo,
        hi
    );
    if let Some(m) = summary.conditional_median() {
        println!("median hitting time | hit = {m:.0}");
    }
    Ok(())
}

fn build_strategy(spec: &str) -> Result<Box<dyn SearchStrategy + Sync>, String> {
    if spec == "random" {
        return Ok(Box::new(LevySearch::randomized()));
    }
    if spec == "rw" {
        return Ok(Box::new(RandomWalkSearch::new()));
    }
    if spec == "ballistic" {
        return Ok(Box::new(BallisticSearch::new()));
    }
    if spec == "ants" {
        return Ok(Box::new(AntsSearch::new()));
    }
    if let Some(raw) = spec.strip_prefix("alpha=") {
        let alpha: f64 = raw
            .parse()
            .map_err(|_| format!("invalid exponent '{raw}'"))?;
        return Ok(Box::new(LevySearch::fixed(alpha)));
    }
    if let Some(raw) = spec.strip_prefix("grid=") {
        let n: usize = raw
            .parse()
            .map_err(|_| format!("invalid grid size '{raw}'"))?;
        return Ok(Box::new(parallel_levy_walks::search::MixtureSearch::grid(
            n,
        )));
    }
    Err(format!(
        "unknown strategy '{spec}' (try: random, alpha=X, grid=N, rw, ballistic, ants)"
    ))
}

fn cmd_search(opts: &Options) -> Result<(), String> {
    opts.accept_only(&["k", "ell", "budget", "trials", "seed", "strategy"])?;
    let k: usize = opts.get("k", 32)?;
    let ell: u64 = opts.get("ell", 64)?;
    let budget: u64 = opts.get("budget", 100_000)?;
    let trials: u64 = opts.get("trials", 200)?;
    let seed: u64 = opts.get("seed", 0)?;
    let strategy = build_strategy(&opts.get_str("strategy", "random"))?;
    let config = MeasurementConfig::new(ell, budget, trials, seed);
    let summary = measure_search_strategy(strategy.as_ref(), k, &config);
    println!(
        "strategy = {}, k = {k}, ℓ = {ell}, budget = {budget}, trials = {trials}",
        strategy.label()
    );
    println!("P(find) = {:.4}", summary.hit_rate());
    match summary.conditional_median() {
        Some(m) => println!("median parallel time | found = {m:.0}"),
        None => println!("(never found within the budget)"),
    }
    println!(
        "universal lower bound ℓ²/k + ℓ = {:.0}",
        SearchProblem::at_distance(ell, k, budget).universal_lower_bound()
    );
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    opts.accept_only(&["k", "ell", "trials", "seed", "budget"])?;
    let k: usize = opts.get("k", 16)?;
    let ell: u64 = opts.get("ell", 128)?;
    let trials: u64 = opts.get("trials", 200)?;
    let seed: u64 = opts.get("seed", 0)?;
    let budget: u64 = opts.get("budget", 12 * ell * ell / k as u64)?;
    println!(
        "k = {k}, ℓ = {ell}, budget = {budget}; ideal α* = {:.3}",
        ideal_exponent(k as u64, ell)
    );
    let mut table = TextTable::new(vec!["alpha", "P(hit)", "bar"]);
    for alpha in linspace(2.05, 2.95, 13) {
        let config = MeasurementConfig::new(ell, budget, trials, seed);
        let summary = measure_parallel_common(alpha, k, &config);
        let rate = summary.hit_rate();
        table.row(vec![
            format!("{alpha:.3}"),
            format!("{rate:.3}"),
            "#".repeat((rate * 40.0).round() as usize),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_ring(opts: &Options) -> Result<(), String> {
    opts.accept_only(&["members", "vnodes", "key", "keys"])?;
    let members_spec = opts.get_str("members", "");
    let members: Vec<String> = members_spec
        .split(',')
        .map(|m| m.trim().to_owned())
        .filter(|m| !m.is_empty())
        .collect();
    if members.is_empty() {
        return Err("--members a:1,b:1,c:1 is required".to_owned());
    }
    let vnodes: usize = opts.get("vnodes", 64)?;
    let ring = levy_cluster::HashRing::new(&members, vnodes)?;
    let key_spec = opts.get_str("key", "");
    if !key_spec.is_empty() {
        let key = levy_cluster::key_from_hex(&key_spec)
            .ok_or_else(|| format!("'{key_spec}' is not a 32-hex-digit cache key"))?;
        println!("key        = {key_spec}");
        println!("home       = {}", ring.home(key));
        println!("preference = {}", ring.preference(key).join(" -> "));
        return Ok(());
    }
    let keys: u64 = opts.get("keys", 10_000)?;
    let mut counts = vec![0u64; ring.members().len()];
    for i in 0..keys {
        let home = ring.home(levy_cluster::fnv1a_128(format!("sample-{i}").as_bytes()));
        let index = ring.members().iter().position(|m| m == home).unwrap_or(0);
        counts[index] += 1;
    }
    println!(
        "{} members, {vnodes} vnodes, {keys} sampled keys (ideal share {:.1}%)",
        ring.members().len(),
        100.0 / ring.members().len() as f64
    );
    let mut table = TextTable::new(vec!["member", "keys", "share", "bar"]);
    for (member, &owned) in ring.members().iter().zip(&counts) {
        let share = owned as f64 / keys.max(1) as f64;
        table.row(vec![
            member.clone(),
            owned.to_string(),
            format!("{:.1}%", share * 100.0),
            "#".repeat((share * 100.0).round() as usize),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn usage() -> String {
    "usage: levy <walk|hit|search|sweep|ring> [--option value]...\n\
     \n\
     levy walk   --alpha 2.5 --steps 10000 [--seed 0]\n\
     levy hit    --alpha 2.5 --ell 64 --budget 100000 --trials 2000\n\
     levy search --strategy random|alpha=X|grid=N|rw|ballistic|ants --k 32 --ell 64\n\
     levy sweep  --k 16 --ell 128 [--trials 200]\n\
     levy ring   --members a:1,b:1,c:1 [--vnodes 64] [--key HEX32 | --keys 10000]"
        .to_owned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = Options::parse(&args[1..]).and_then(|opts| match command.as_str() {
        "walk" => cmd_walk(&opts),
        "hit" => cmd_hit(&opts),
        "search" => cmd_search(&opts),
        "sweep" => cmd_sweep(&opts),
        "ring" => cmd_ring(&opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
