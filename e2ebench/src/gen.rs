//! Seeded input generators. Every input is a pure function of the workload
//! seed, built before any timing starts; the engine only ever sees the
//! generated values.

use gsm_core::{HashRouter, ShardRouter};

/// SplitMix64: a small, fast, well-mixed generator whose whole state is one
/// word, so a seed fully determines the stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer ids drawn from a Zipf(`skew`) law over `universe` ids, stored as
/// exact `f32` integers (ids stay below 2^24). Id `r` has probability
/// proportional to `1 / (r + 1)^skew`; which id gets which rank is shuffled
/// by the seed, so the hot ids differ between seeds.
pub fn zipf_ids(n: usize, universe: u32, skew: f64, seed: u64) -> Vec<f32> {
    assert!(universe <= 1 << 24, "ids must be exact in f32");
    let mut rng = SplitMix64::new(seed);
    let mut cdf = Vec::with_capacity(universe as usize);
    let mut total = 0.0f64;
    for r in 0..universe {
        total += 1.0 / f64::from(r + 1).powf(skew);
        cdf.push(total);
    }
    // Fisher-Yates over the id space: rank r maps to id ids[r].
    let mut ids: Vec<u32> = (0..universe).collect();
    for i in (1..ids.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * total;
            let r = cdf.partition_point(|&c| c <= u).min(universe as usize - 1);
            ids[r] as f32
        })
        .collect()
}

/// Values spread uniformly over `[-span, span)` with 1/1024 resolution,
/// so duplicates are rare: about `n² / (2 · 2048 · span)` pairs collide.
pub fn wide_range(n: usize, span: f64, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = (rng.next_f64() * 2.0 - 1.0) * span;
            ((v * 1024.0).floor() / 1024.0) as f32
        })
        .collect()
}

/// `wide_range` values, each kept only when it routes to the shard the
/// pattern asks for under the engine's value-hash router: the first
/// `lead` values go to the last shard, then the shards take turns. Every
/// shard then receives the same number of elements for every seed (the
/// size of a quantile summary follows how many windows its shard sealed,
/// so a random split would make state size, and each cost that follows
/// it, vary from seed to seed), and the lead staggers the shards' window
/// boundaries so that they do not all seal in the same batch.
pub fn wide_range_balanced(n: usize, span: f64, shards: usize, lead: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    let mut router = HashRouter;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = (rng.next_f64() * 2.0 - 1.0) * span;
        let v = ((v * 1024.0).floor() / 1024.0) as f32;
        let want = if out.len() < lead {
            shards - 1
        } else {
            (out.len() - lead) % shards
        };
        if router.route(v, shards) == want {
            out.push(v);
        }
    }
    out
}
