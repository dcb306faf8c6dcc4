//! Single-layer replays for the traced `cluster_mix` run: request
//! parsing, the wire codec and the result cache, timed call by call on
//! the workload's own keys through each layer's public functions.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use levy_served::request::Query;
use levy_served::{wirecodec, CacheConfig, CachedBody, ResultCache};
use levy_sim::Json;

use crate::cluster::Key;
use crate::report::{metric, Metric};

/// Rounds over the working set per timed call family.
const ROUNDS: usize = 20;

#[derive(Debug)]
pub struct Replay {
    parse_us: f64,
    decode_query_us: f64,
    encode_result_us: f64,
    json_bytes: f64,
    lw1_bytes: f64,
    get_mem_us: f64,
    get_disk_us: f64,
    put_us: f64,
    /// `put_body` with the disk tier (table only).
    disk_put_us: f64,
}

/// Mean µs per call of `f` over `ROUNDS` passes of `keys`.
fn per_call(keys: &[Key], mut f: impl FnMut(&Key)) -> f64 {
    let start = Instant::now();
    for _ in 0..ROUNDS {
        keys.iter().for_each(&mut f);
    }
    start.elapsed().as_secs_f64() * 1e6 / (ROUNDS * keys.len()) as f64
}

/// Mean µs per `put_body` of every key, then per `get` of the keys
/// still in memory and, with a disk tier, of those only on disk.
fn replay_cache(keys: &[Key], config: CacheConfig) -> (f64, f64, f64) {
    let cache = ResultCache::new(config.clone()).expect("replay cache");
    let bodies: Vec<CachedBody> = keys
        .iter()
        .map(|k| CachedBody {
            json: String::from_utf8(k.expect_json.clone()).expect("oracle is UTF-8"),
            wire: Some(k.expect_wire.clone()),
        })
        .collect();
    let start = Instant::now();
    for (k, b) in keys.iter().zip(&bodies) {
        cache.put_body(&k.cache_key, b);
    }
    let put_us = start.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    // The last `mem_capacity` keys put are the memory tier.
    let split = keys.len().saturating_sub(config.mem_capacity);
    let get_mem_us = per_call(&keys[split..], |k| {
        black_box(cache.get(&k.cache_key).expect("resident key"));
    });
    let mut get_disk_us = 0.0;
    if config.dir.is_some() {
        // Each disk hit promotes its key and evicts another resident
        // one, so one pass over the non-resident keys reads disk only.
        let cold = &keys[..split.min(config.mem_capacity)];
        let start = Instant::now();
        for k in cold {
            black_box(cache.get(&k.cache_key).expect("disk key"));
        }
        get_disk_us = start.elapsed().as_secs_f64() * 1e6 / cold.len().max(1) as f64;
    }
    (put_us, get_mem_us, get_disk_us)
}

/// Replays every layer on `keys`. The cache is configured like the
/// cluster's nodes (`mem_capacity` entries, no disk) for puts and
/// memory gets; disk gets, which `levyd` serves once `--cache-dir` is
/// set, come from a second cache with a disk tier in `.bench_tmp/`.
pub fn replay(keys: &[Key], mem_capacity: usize) -> Replay {
    let parsed: Vec<Json> = keys
        .iter()
        .map(|k| {
            Json::parse(std::str::from_utf8(&k.expect_json).expect("oracle is UTF-8"))
                .expect("oracle JSON")
        })
        .collect();
    let parse_us = per_call(keys, |k| {
        let json = Json::parse(&k.json).expect("valid body");
        let query = Query::from_json(&json).expect("valid query");
        black_box(query.cache_key());
    });
    let decode_query_us = per_call(keys, |k| {
        black_box(wirecodec::decode_query_with_key(&k.wire).expect("valid frame"));
    });
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for j in &parsed {
            black_box(wirecodec::encode_result(j).expect("result envelope"));
        }
    }
    let encode_result_us = start.elapsed().as_secs_f64() * 1e6 / (ROUNDS * keys.len()) as f64;
    let n = keys.len() as f64;
    let json_bytes = keys.iter().map(|k| k.expect_json.len() as f64).sum::<f64>() / n;
    let lw1_bytes = keys.iter().map(|k| k.expect_wire.len() as f64).sum::<f64>() / n;

    let memory = CacheConfig {
        mem_capacity,
        dir: None,
        ..CacheConfig::default()
    };
    let (put_us, get_mem_us, _) = replay_cache(keys, memory.clone());
    let dir = PathBuf::from(".bench_tmp").join(format!("cache-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("replay cache directory");
    let disk = CacheConfig {
        dir: Some(dir.clone()),
        ..memory
    };
    let (disk_put_us, _, get_disk_us) = replay_cache(keys, disk);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    Replay {
        parse_us,
        decode_query_us,
        encode_result_us,
        json_bytes,
        lw1_bytes,
        get_mem_us,
        get_disk_us,
        put_us,
        disk_put_us,
    }
}

impl Replay {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("request.parse_us", self.parse_us, "us"),
            metric("wire.decode_query_us", self.decode_query_us, "us"),
            metric("wire.encode_result_us", self.encode_result_us, "us"),
            metric("wire.json_body_bytes", self.json_bytes, "bytes"),
            metric("wire.lw1_body_bytes", self.lw1_bytes, "bytes"),
            metric("cache.get_mem_us", self.get_mem_us, "us"),
            metric("cache.get_disk_us", self.get_disk_us, "us"),
            metric("cache.put_us", self.put_us, "us"),
        ]
    }

    pub fn describe(&self) -> String {
        let mut t = String::new();
        let _ = writeln!(
            t,
            "  replay: parse+key {:.2} us, LW1 decode_query {:.2} us, encode_result {:.2} us; bodies {:.0} B JSON vs {:.0} B LW1 ({:.1}x)",
            self.parse_us,
            self.decode_query_us,
            self.encode_result_us,
            self.json_bytes,
            self.lw1_bytes,
            self.json_bytes / self.lw1_bytes.max(1.0)
        );
        let _ = writeln!(
            t,
            "  replay: cache get memory {:.2} us, put {:.2} us; with a disk tier: get from disk {:.2} us, put {:.2} us",
            self.get_mem_us, self.put_us, self.get_disk_us, self.disk_put_us
        );
        t
    }
}
