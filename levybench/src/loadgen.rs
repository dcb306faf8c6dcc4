//! Seeded load generation.
//!
//! Everything here is derived from the workload seed with a private
//! SplitMix64 stream; nothing calls the program's samplers, so a change
//! to `levy-rng` cannot change the traffic a workload sends.

/// SplitMix64: tiny, seedable, and independent of `levy-rng`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One SplitMix step as a hash: decorrelates `(seed, index)` pairs.
pub fn mix(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf law over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^s`, drawn by
/// inverting the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn pmf(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Wire format a request negotiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    Json,
    Lw1,
}

/// One generated request: which key, in which format, through which
/// entry node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub key: u64,
    pub format: Format,
    pub entry: usize,
}

/// The traffic shape of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct keys the Zipf law ranges over.
    pub working_set: usize,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// Share of requests for never-seen keys.
    pub fresh_share: f64,
    /// Nodes a request may enter through (uniformly).
    pub nodes: usize,
}

/// Key ids `>= FRESH_BASE` are never-seen keys; below it, working-set keys.
pub const FRESH_BASE: u64 = 1 << 32;

/// The request sequence of one client: a pure function of
/// `(seed, client, shape)`.
#[derive(Debug, Clone)]
pub struct Traffic {
    rng: SplitMix,
    zipf: Zipf,
    /// Zipf rank → working-set key, so popularity is not tied to the
    /// key id (and with it the query kind).
    rank_to_key: Vec<u64>,
    shape: Shape,
    client: u64,
    clients: u64,
    fresh_issued: u64,
}

impl Traffic {
    pub fn new(seed: u64, client: usize, clients: usize, shape: Shape) -> Traffic {
        Traffic {
            rng: SplitMix::new(mix(seed, 0x7261_6666 + client as u64)),
            zipf: Zipf::new(shape.working_set, shape.zipf_s),
            rank_to_key: rank_permutation(seed, shape.working_set),
            shape,
            client: client as u64,
            clients: clients as u64,
            fresh_issued: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let key = if self.rng.next_f64() < self.shape.fresh_share {
            // Disjoint per client, so two clients never share a fresh key.
            let id = FRESH_BASE + self.client + self.clients * self.fresh_issued;
            self.fresh_issued += 1;
            id
        } else {
            self.rank_to_key[self.zipf.sample(&mut self.rng)]
        };
        let format = if self.rng.next_u64() & 1 == 0 {
            Format::Json
        } else {
            Format::Lw1
        };
        let entry = self.rng.below(self.shape.nodes as u64) as usize;
        Request { key, format, entry }
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn rank_permutation(seed: u64, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n as u64).collect();
    let mut rng = SplitMix::new(mix(seed, 0x7065_726d));
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    keys
}

/// The JSON query body for key `key` of the workload seeded `seed`.
///
/// Keys cycle through the sweep's query families (E1 single walks at
/// the three exponents, E6 `optimal`, E7 `uniform`), each small enough
/// that a cold simulation costs about 0.2–1 ms on one core. Every query
/// asks for 24 trials, so the trials a response carries do not depend
/// on which keys a seed makes hot.
pub fn query_json(seed: u64, key: u64) -> String {
    // Seeds stay below 2^52 so they survive the JSON number path exactly.
    let qseed = mix(seed, key) >> 12;
    match key % 5 {
        0..=2 => {
            let alpha = [2.2, 2.5, 2.8][(key % 5) as usize];
            format!(
                r#"{{"kind":"single_walk","alpha":{alpha},"ell":16,"budget":512,"trials":24,"seed":{qseed}}}"#
            )
        }
        3 => format!(
            r#"{{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":128,"trials":24,"seed":{qseed}}}"#
        ),
        _ => format!(
            r#"{{"kind":"parallel","strategy":"uniform","k":8,"ell":16,"budget":128,"trials":24,"seed":{qseed}}}"#
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        working_set: 768,
        zipf_s: 1.0,
        fresh_share: 0.02,
        nodes: 3,
    };

    fn sequence(seed: u64, client: usize, n: usize) -> Vec<Request> {
        let mut t = Traffic::new(seed, client, 2, SHAPE);
        (0..n).map(|_| t.next_request()).collect()
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        assert_eq!(sequence(7, 0, 5000), sequence(7, 0, 5000));
        assert_ne!(sequence(7, 0, 5000), sequence(8, 0, 5000));
        assert_ne!(sequence(7, 0, 5000), sequence(7, 1, 5000));
        assert_eq!(query_json(7, 42), query_json(7, 42));
        assert_ne!(query_json(7, 42), query_json(8, 42));
    }

    #[test]
    fn zipf_rank_frequencies_match_the_law() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SplitMix::new(3);
        let n = 400_000;
        let mut counts = vec![0u64; 100];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (r, &c) in counts.iter().enumerate().take(20) {
            let p = zipf.pmf(r);
            let expected = p * n as f64;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (c as f64 - expected).abs() < 5.0 * sd,
                "rank {r}: {c} vs expected {expected:.0} ± {sd:.0}"
            );
        }
        // Rank 0 is the most popular, rank 99 the least, under s = 1.
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn fresh_share_entries_and_formats_follow_the_shape() {
        let reqs = sequence(11, 0, 100_000);
        let fresh = reqs.iter().filter(|r| r.key >= FRESH_BASE).count() as f64 / 1e5;
        assert!((fresh - 0.02).abs() < 0.003, "fresh share {fresh}");
        let lw1 = reqs.iter().filter(|r| r.format == Format::Lw1).count() as f64 / 1e5;
        assert!((lw1 - 0.5).abs() < 0.01, "LW1 share {lw1}");
        for node in 0..3 {
            let share = reqs.iter().filter(|r| r.entry == node).count() as f64 / 1e5;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.01,
                "entry {node} share {share}"
            );
        }
        let mut fresh_keys: Vec<u64> = reqs
            .iter()
            .map(|r| r.key)
            .filter(|&k| k >= FRESH_BASE)
            .collect();
        let len = fresh_keys.len();
        fresh_keys.sort_unstable();
        fresh_keys.dedup();
        assert_eq!(fresh_keys.len(), len, "fresh keys never repeat");
        assert!(reqs.iter().all(|r| r.key >= FRESH_BASE || r.key < 768));
    }

    #[test]
    fn rank_permutation_is_a_permutation() {
        let mut p = rank_permutation(5, 1000);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u64>>());
    }
}
