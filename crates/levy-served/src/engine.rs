//! Executes a validated [`Query`] into a deterministic JSON result body.
//!
//! The body is a pure function of the canonical query: simulation is
//! seeded (`SeedStream`), the runner is bit-identical across thread
//! counts, and the JSON writer is deterministic — so the bytes produced
//! here are exactly the bytes a cache hit replays. Anything
//! non-deterministic (wall-clock, cache tier, queue position) travels in
//! HTTP headers and logs, never in the body.

use levy_analysis::CensoredSummary;
use levy_grid::Point;
use levy_obs::{SpanContext, TraceStore};
use levy_rng::{JumpLengthDistribution, SeedStream};
use levy_search::{
    BallisticSearch, LevySearch, MixtureSearch, RandomWalkSearch, SearchProblem, SearchStrategy,
};
use levy_sim::{
    estimate_probability, measure_trials, AdaptiveEstimate, BatchProgress, CancelToken, Json,
    Precision,
};
use levy_walks::{
    levy_flight_hitting_time, levy_walk_hitting_time, parallel_hitting_time,
    parallel_hitting_time_common,
};
use rand::rngs::SmallRng;

use crate::request::{Estimator, ExponentSpec, Query, QueryKind, SearchSpec};

/// Runs `query` with `sim_threads` runner threads.
///
/// Returns `None` if `cancel` fires before the simulation completes (the
/// job was abandoned by every waiter); otherwise the deterministic
/// response body.
pub fn execute(query: &Query, sim_threads: usize, cancel: &CancelToken) -> Option<Json> {
    execute_observed(query, sim_threads, cancel, None, &mut |_| {})
}

/// [`execute`] with a trace and a per-batch observer.
///
/// With `trace`, a `simulate` span covering the estimator run is recorded
/// into the store, parented to the given context (the worker's
/// `worker_exec` span in `levyd`). Adaptive-estimator queries report each
/// completed batch via `observer` (the seam the streaming response path
/// taps); fixed-trials queries never call it.
///
/// Tracing observes wall time only, and the observer sees running totals
/// only and never touches an RNG stream, so the returned body is
/// byte-identical with or without either — the invariant behind
/// "streaming and non-streaming final bodies match".
pub fn execute_observed(
    query: &Query,
    sim_threads: usize,
    cancel: &CancelToken,
    trace: Option<(&TraceStore, SpanContext)>,
    observer: &mut dyn FnMut(BatchProgress),
) -> Option<Json> {
    // Timing guard only: records wall time into the global-registry
    // histogram `levy_served_engine_execute_duration_us` (and a JSONL
    // event under LEVY_TRACE) without touching any RNG stream.
    let _span = levy_obs::Span::enter("levy_served_engine_execute");
    let simulate_span = trace.map(|(store, parent)| {
        let mut span = store.span(parent, "simulate");
        span.tag(
            "mode",
            match &query.estimator {
                Estimator::Trials(_) => "summary",
                Estimator::Adaptive(_) => "adaptive",
            },
        );
        span
    });
    let config = query.measurement_config(sim_threads);
    let (alpha, trial) = query_trial(query);
    let result = match &query.estimator {
        Estimator::Trials(_) => summary_json(&measure_trials(&config, alpha, cancel, trial)?),
        Estimator::Adaptive(precision) => {
            let (ell, placement) = (query.ell, query.placement);
            let est = estimate_probability(
                SeedStream::new(query.seed),
                config.threads,
                *precision,
                cancel,
                observer,
                |_i, rng| trial(placement.place(ell, rng), rng).is_some(),
            )?;
            adaptive_json(&est, precision)
        }
    };
    if let Some(span) = simulate_span {
        span.finish();
    }
    Some(Json::obj([
        ("schema", Json::from("levy-served/result-v1")),
        ("key", Json::from(query.cache_key())),
        ("query", query.canonical()),
        ("result", result),
    ]))
}

/// One seeded trial of a query: the hitting time of a target already
/// placed, `None` when censored at the budget.
type Trial = Box<dyn Fn(Point, &mut SmallRng) -> Option<u64> + Sync>;

/// Maps `query` to its per-trial closure, with the exponent label its
/// outcomes are recorded under: `Some(α)` only for a fixed exponent on
/// the walk kinds. Both estimators run this one closure.
fn query_trial(query: &Query) -> (Option<f64>, Trial) {
    let (k, ell, budget) = (query.k as usize, query.ell, query.budget);
    let fixed = match query.exponent {
        ExponentSpec::Fixed(alpha) => Some(alpha),
        _ => None,
    };
    let law = |alpha| JumpLengthDistribution::new(alpha).expect("validated exponent");
    let trial: Trial = match (query.kind, &query.search) {
        (QueryKind::SingleWalk | QueryKind::SingleFlight, _) => {
            let jumps = law(fixed.expect("validation forces fixed alpha for single_*"));
            if query.kind == QueryKind::SingleFlight {
                Box::new(move |target, rng| {
                    levy_flight_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
                })
            } else {
                Box::new(move |target, rng| {
                    levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
                })
            }
        }
        (QueryKind::Parallel, _) => {
            let strategy = query.exponent.strategy(query.k, ell);
            // A deterministic exponent shares one law across trials;
            // `parallel_hitting_time` would build the same law and draw
            // no RNG word for it.
            match strategy.fixed_exponent() {
                Some(alpha) => {
                    let jumps = law(alpha);
                    Box::new(move |target, rng| {
                        parallel_hitting_time_common(k, &jumps, Point::ORIGIN, target, budget, rng)
                    })
                }
                None => Box::new(move |target, rng| {
                    parallel_hitting_time(k, &strategy, Point::ORIGIN, target, budget, rng).time
                }),
            }
        }
        (QueryKind::Search, Some(spec)) => {
            let strategy: Box<dyn SearchStrategy + Sync> = match spec {
                SearchSpec::Levy(exp) => Box::new(LevySearch::new(exp.strategy(query.k, ell))),
                SearchSpec::Ballistic => Box::new(BallisticSearch::new()),
                SearchSpec::RandomWalk => Box::new(RandomWalkSearch::new()),
                SearchSpec::Mixture(n) => Box::new(MixtureSearch::grid(*n as usize)),
            };
            Box::new(move |target, rng| {
                let problem = SearchProblem {
                    source: Point::ORIGIN,
                    target,
                    num_agents: k,
                    budget,
                };
                strategy.run(&problem, rng)
            })
        }
        (QueryKind::Search, None) => unreachable!("validation attaches a search spec"),
    };
    (fixed.filter(|_| query.kind != QueryKind::Search), trial)
}

/// The fixed-trials result: the full censored summary.
fn summary_json(summary: &CensoredSummary) -> Json {
    let ci = summary.hit_rate_ci95();
    Json::obj([
        ("mode", Json::from("summary")),
        ("trials", Json::from(summary.trials())),
        ("hits", Json::from(summary.hits)),
        ("censored", Json::from(summary.censored)),
        ("budget", Json::from(summary.budget)),
        ("hit_rate", Json::from(summary.hit_rate())),
        ("hit_rate_ci95", Json::arr([ci.0, ci.1])),
        ("conditional_mean", Json::from(summary.conditional_mean())),
        (
            "conditional_median",
            Json::from(summary.conditional_median()),
        ),
        ("mean_lower_bound", Json::from(summary.mean_lower_bound())),
    ])
}

/// The adaptive result: Wilson-interval stopping, reporting the spend.
fn adaptive_json(est: &AdaptiveEstimate, precision: &Precision) -> Json {
    Json::obj([
        ("mode", Json::from("adaptive")),
        ("p", Json::from(est.p)),
        ("ci95", Json::arr([est.ci.0, est.ci.1])),
        ("trials_used", Json::from(est.trials)),
        ("successes", Json::from(est.successes)),
        ("batches", Json::from(est.batches)),
        ("converged", Json::from(est.converged)),
        ("max_trials", Json::from(precision.max_trials)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Body of the seeded query in [`seeded_parallel_body_is_pinned`].
    const PINNED_PARALLEL_BODY: &str = r#"{
  "schema": "levy-served/result-v1",
  "key": "b3abd7e766950ea3e11d219670aee2da",
  "query": {
    "schema": "levy-served/query-v1",
    "kind": "parallel",
    "strategy": "uniform",
    "k": 6,
    "ell": 10,
    "budget": 2000,
    "placement": "random",
    "estimator": {
      "mode": "trials",
      "trials": 120
    },
    "seed": 42
  },
  "result": {
    "mode": "summary",
    "trials": 120,
    "hits": 79,
    "censored": 41,
    "budget": 2000,
    "hit_rate": 0.6583333333333333,
    "hit_rate_ci95": [
      0.5697466444292892,
      0.7370969364029997
    ],
    "conditional_mean": 330.36708860759495,
    "conditional_median": 141.0,
    "mean_lower_bound": 900.825
  }
}
"#;

    /// Compact bodies of one seeded query per kind and estimator, run on
    /// 2 runner threads: `(request, body)`. The `trials` rows pin the
    /// censored summary, the `precision` rows the Wilson-stopped estimate
    /// (one or two batches, converged or capped).
    const PINNED_BODIES: [(&str, &str); 18] = [
        (
            r#"{"kind":"single_walk","alpha":2.5,"ell":6,"budget":400,"trials":90,"seed":0}"#,
            r#"{"schema":"levy-served/result-v1","key":"3710c65397c77c7f170a4fed982e88bc","query":{"schema":"levy-served/query-v1","kind":"single_walk","strategy":"fixed:2.5","k":1,"ell":6,"budget":400,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":0},"result":{"mode":"summary","trials":90,"hits":21,"censored":69,"budget":400,"hit_rate":0.23333333333333334,"hit_rate_ci95":[0.15798078393937456,0.33051898588552175],"conditional_mean":65.19047619047619,"conditional_median":50.0,"mean_lower_bound":321.8777777777778}}"#,
        ),
        (
            r#"{"kind":"single_walk","alpha":2.5,"ell":6,"budget":400,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":1}"#,
            r#"{"schema":"levy-served/result-v1","key":"aa671ba8ebaf043074e21db9db294589","query":{"schema":"levy-served/query-v1","kind":"single_walk","strategy":"fixed:2.5","k":1,"ell":6,"budget":400,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":1},"result":{"mode":"adaptive","p":0.20166666666666666,"ci95":[0.17150445146519927,0.23562483542063306],"trials_used":600,"successes":121,"batches":2,"converged":false,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"single_flight","alpha":2.2,"ell":5,"budget":60,"trials":90,"seed":10}"#,
            r#"{"schema":"levy-served/result-v1","key":"cc78c418f600a7a334f20e1fe9bca25a","query":{"schema":"levy-served/query-v1","kind":"single_flight","strategy":"fixed:2.2","k":1,"ell":5,"budget":60,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":10},"result":{"mode":"summary","trials":90,"hits":5,"censored":85,"budget":60,"hit_rate":0.05555555555555555,"hit_rate_ci95":[0.023960618284343184,0.12353899809048416],"conditional_mean":27.8,"conditional_median":27.0,"mean_lower_bound":58.21111111111111}}"#,
        ),
        (
            r#"{"kind":"single_flight","alpha":2.2,"ell":5,"budget":60,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":11}"#,
            r#"{"schema":"levy-served/result-v1","key":"4ea37462968ef8f85f2a92a6415f4a2f","query":{"schema":"levy-served/query-v1","kind":"single_flight","strategy":"fixed:2.2","k":1,"ell":5,"budget":60,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":11},"result":{"mode":"adaptive","p":0.05859375,"ci95":[0.03582628728223662,0.09441305853459948],"trials_used":256,"successes":15,"batches":1,"converged":true,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":10,"budget":300,"trials":90,"seed":20}"#,
            r#"{"schema":"levy-served/result-v1","key":"fc823dedc371ed0f5744fcccc545cb2a","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"fixed:2.5","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":20},"result":{"mode":"summary","trials":90,"hits":30,"censored":60,"budget":300,"hit_rate":0.3333333333333333,"hit_rate_ci95":[0.2445335995323974,0.4357787566081628],"conditional_mean":111.6,"conditional_median":105.0,"mean_lower_bound":237.2}}"#,
        ),
        (
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":10,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":21}"#,
            r#"{"schema":"levy-served/result-v1","key":"d9981fbe53048114378632c8aa444ef3","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"fixed:2.5","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":21},"result":{"mode":"adaptive","p":0.35833333333333334,"ci95":[0.3209773836005338,0.39749183084245926],"trials_used":600,"successes":215,"batches":2,"converged":false,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":10,"budget":300,"trials":90,"seed":30}"#,
            r#"{"schema":"levy-served/result-v1","key":"1e86bb3a94aa1b152e6ce59ecac6bebe","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"optimal","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":30},"result":{"mode":"summary","trials":90,"hits":35,"censored":55,"budget":300,"hit_rate":0.3888888888888889,"hit_rate_ci95":[0.29469758863910056,0.4921773154546062],"conditional_mean":118.91428571428571,"conditional_median":111.0,"mean_lower_bound":229.57777777777778}}"#,
        ),
        (
            r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":10,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":31}"#,
            r#"{"schema":"levy-served/result-v1","key":"7da41a513b738b4bee3b12bbf448c56f","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"optimal","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":31},"result":{"mode":"adaptive","p":0.4,"ci95":[0.36155590750061073,0.43971647916503154],"trials_used":600,"successes":240,"batches":2,"converged":true,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"parallel","strategy":"uniform","k":4,"ell":10,"budget":300,"trials":90,"seed":40}"#,
            r#"{"schema":"levy-served/result-v1","key":"a8063c1562adb2807494693547144c25","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"uniform","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":40},"result":{"mode":"summary","trials":90,"hits":25,"censored":65,"budget":300,"hit_rate":0.2777777777777778,"hit_rate_ci95":[0.1957955914762625,0.37795421671115115],"conditional_mean":121.4,"conditional_median":114.0,"mean_lower_bound":250.38888888888889}}"#,
        ),
        (
            r#"{"kind":"parallel","strategy":"uniform","k":4,"ell":10,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":41}"#,
            r#"{"schema":"levy-served/result-v1","key":"70b4f36b58532e1613bf6a5b9732c6b0","query":{"schema":"levy-served/query-v1","kind":"parallel","strategy":"uniform","k":4,"ell":10,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":41},"result":{"mode":"adaptive","p":0.3,"ci95":[0.26469883109948034,0.337845942231804],"trials_used":600,"successes":180,"batches":2,"converged":false,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"search","alpha":2.2,"k":4,"ell":8,"budget":300,"trials":90,"seed":50}"#,
            r#"{"schema":"levy-served/result-v1","key":"d23dfa227306f03243a9bd65d89ce101","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"levy/fixed:2.2","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":50},"result":{"mode":"summary","trials":90,"hits":35,"censored":55,"budget":300,"hit_rate":0.3888888888888889,"hit_rate_ci95":[0.29469758863910056,0.4921773154546062],"conditional_mean":81.2,"conditional_median":61.0,"mean_lower_bound":214.9111111111111}}"#,
        ),
        (
            r#"{"kind":"search","alpha":2.2,"k":4,"ell":8,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":51}"#,
            r#"{"schema":"levy-served/result-v1","key":"c1dad5842d398a1b10a58e65c570c7f4","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"levy/fixed:2.2","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":51},"result":{"mode":"adaptive","p":0.36666666666666664,"ci95":[0.3290688344427863,0.4059610144447366],"trials_used":600,"successes":220,"batches":2,"converged":false,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"ballistic","k":4,"ell":8,"budget":300,"trials":90,"seed":60}"#,
            r#"{"schema":"levy-served/result-v1","key":"e695d56dd6b955f322405cb9cea778f6","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"ballistic","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":60},"result":{"mode":"summary","trials":90,"hits":11,"censored":79,"budget":300,"hit_rate":0.12222222222222222,"hit_rate_ci95":[0.06963544351908198,0.20573923039952124],"conditional_mean":8.0,"conditional_median":8.0,"mean_lower_bound":264.31111111111113}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"ballistic","k":4,"ell":8,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":61}"#,
            r#"{"schema":"levy-served/result-v1","key":"dd64113c62be82e564011f25056b8fc7","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"ballistic","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":61},"result":{"mode":"adaptive","p":0.115,"ci95":[0.09188599063642891,0.14301269802629327],"trials_used":600,"successes":69,"batches":2,"converged":true,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":300,"trials":90,"seed":70}"#,
            r#"{"schema":"levy-served/result-v1","key":"ab620642e0e3350ac5a5e108daf9f78b","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":70},"result":{"mode":"summary","trials":90,"hits":69,"censored":21,"budget":300,"hit_rate":0.7666666666666667,"hit_rate_ci95":[0.6694810141144782,0.8420192160606255],"conditional_mean":68.79710144927536,"conditional_median":41.0,"mean_lower_bound":122.74444444444444}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":71}"#,
            r#"{"schema":"levy-served/result-v1","key":"7066efd5182bebec058bd323d55bb5f6","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":71},"result":{"mode":"adaptive","p":0.77734375,"ci95":[0.7224920167029331,0.8239947660139223],"trials_used":256,"successes":199,"batches":1,"converged":true,"max_trials":600}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":8,"budget":300,"trials":90,"seed":80}"#,
            r#"{"schema":"levy-served/result-v1","key":"e03724206e4deab7a542c2a696f1cbd5","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"mixture:4","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"trials","trials":90},"seed":80},"result":{"mode":"summary","trials":90,"hits":42,"censored":48,"budget":300,"hit_rate":0.4666666666666667,"hit_rate_ci95":[0.3670825183252626,0.5689799529028493],"conditional_mean":106.23809523809524,"conditional_median":81.0,"mean_lower_bound":209.57777777777778}}"#,
        ),
        (
            r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":8,"budget":300,"precision":{"absolute":0.03,"relative":0.1,"max_trials":600},"seed":81}"#,
            r#"{"schema":"levy-served/result-v1","key":"03756346fdb99072e19253be21c0b388","query":{"schema":"levy-served/query-v1","kind":"search","strategy":"mixture:4","k":4,"ell":8,"budget":300,"placement":"random","estimator":{"mode":"adaptive","absolute":0.03,"relative":0.1,"max_trials":600},"seed":81},"result":{"mode":"adaptive","p":0.395,"ci95":[0.35667070507875476,0.43466530092016964],"trials_used":600,"successes":237,"batches":2,"converged":true,"max_trials":600}}"#,
        ),
    ];

    fn query(body: &str) -> Query {
        Query::from_json(&Json::parse(body).expect("valid JSON")).expect("valid query")
    }

    #[test]
    fn bodies_are_byte_identical_across_thread_counts() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":400,
                "trials":150,"seed":11}"#,
        );
        let token = CancelToken::new();
        let one = execute(&q, 1, &token).unwrap().to_string_pretty();
        let four = execute(&q, 4, &token).unwrap().to_string_pretty();
        assert_eq!(one, four);
    }

    #[test]
    fn every_kind_executes() {
        let bodies = [
            r#"{"kind":"single_walk","alpha":2.5,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"single_flight","alpha":2.5,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"parallel","strategy":"uniform","k":4,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"search","strategy":"ballistic","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","alpha":2.2,"k":4,"ell":4,"budget":400,"trials":60}"#,
        ];
        for body in bodies {
            let q = query(body);
            let out = execute(&q, 2, &CancelToken::new()).unwrap();
            let result = out.get("result").expect("result object");
            assert_eq!(result.get("mode").unwrap().as_str(), Some("summary"));
            assert_eq!(result.get("trials").unwrap().as_u64(), Some(60), "{body}");
            assert_eq!(
                out.get("key").unwrap().as_str(),
                Some(q.cache_key().as_str())
            );
        }
    }

    #[test]
    fn adaptive_mode_reports_spend() {
        let q = query(
            r#"{"kind":"single_walk","alpha":2.2,"ell":3,"budget":300,
                "precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":3}"#,
        );
        let out = execute(&q, 2, &CancelToken::new()).unwrap();
        let result = out.get("result").unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("adaptive"));
        let trials_used = result.get("trials_used").unwrap().as_u64().unwrap();
        assert!(trials_used >= 256, "at least one batch: {trials_used}");
        assert!(result.get("batches").unwrap().as_u64().unwrap() >= 1);
        assert!(result.get("converged").unwrap().as_bool().is_some());
        // Deterministic too.
        let again = execute(&q, 4, &CancelToken::new()).unwrap();
        assert_eq!(out.to_string_pretty(), again.to_string_pretty());
    }

    #[test]
    fn seeded_parallel_body_is_pinned() {
        // The exact bytes of a seeded body: any drift in the engine's RNG
        // stream layout changes the hit counts and moments below.
        let q = query(
            r#"{"kind":"parallel","strategy":"uniform","k":6,"ell":10,"budget":2000,
                "trials":120,"seed":42}"#,
        );
        let body = execute(&q, 2, &CancelToken::new())
            .unwrap()
            .to_string_pretty();
        assert_eq!(body, PINNED_PARALLEL_BODY);
    }

    #[test]
    fn seeded_bodies_are_pinned_per_kind_and_estimator() {
        for (request, pinned) in PINNED_BODIES {
            let body = execute(&query(request), 2, &CancelToken::new())
                .unwrap()
                .to_string_compact();
            assert_eq!(body, pinned, "{request}");
        }
    }

    #[test]
    fn bodies_are_byte_identical_with_tracing_enabled() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":400,
                "trials":150,"seed":11}"#,
        );
        let quiet = execute(&q, 2, &CancelToken::new())
            .unwrap()
            .to_string_pretty();
        levy_obs::set_trace_enabled(true);
        let traced = execute(&q, 2, &CancelToken::new())
            .unwrap()
            .to_string_pretty();
        levy_obs::set_trace_enabled(false);
        assert_eq!(quiet, traced, "tracing must never perturb seeded results");
    }

    #[test]
    fn cancelled_execution_returns_none() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":8,"ell":64,"budget":100000,
                "trials":100000}"#,
        );
        let token = CancelToken::new();
        token.cancel();
        assert!(execute(&q, 2, &token).is_none());
    }
}
