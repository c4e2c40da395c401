//! Exact answers computed from the benchmark's own copy of the input, and
//! the ε-bound checks the engine's answers must pass. Nothing here calls
//! into the engine's summaries.

use std::collections::HashMap;

use gsm_core::{HashRouter, ShardRouter};

/// Exact ranks and counts of a multiset of values.
pub struct Exact {
    sorted: Vec<f32>,
    counts: HashMap<u32, u64>,
}

impl Exact {
    pub fn new(data: &[f32]) -> Self {
        let mut sorted = data.to_vec();
        sorted.sort_by(f32::total_cmp);
        let mut counts = HashMap::new();
        for v in data {
            *counts.entry(v.to_bits()).or_insert(0u64) += 1;
        }
        Exact { sorted, counts }
    }

    pub fn len(&self) -> u64 {
        self.sorted.len() as u64
    }

    pub fn count(&self, v: f32) -> u64 {
        self.counts.get(&v.to_bits()).copied().unwrap_or(0)
    }

    /// Distance in ranks from `phi · n` to the rank interval `v` occupies.
    pub fn rank_error(&self, phi: f64, v: f32) -> f64 {
        let lo = self.sorted.partition_point(|x| x.total_cmp(&v).is_lt()) as f64;
        let hi = self.sorted.partition_point(|x| x.total_cmp(&v).is_le()) as f64;
        let target = phi * self.sorted.len() as f64;
        if target < lo {
            lo - target
        } else if target > hi {
            target - hi
        } else {
            0.0
        }
    }

    /// Size, distinct values and the most frequent value's share.
    pub fn describe(&self) -> String {
        let top = self.counts.values().max().copied().unwrap_or(0);
        format!(
            "input: n={} distinct={} top_share={:.4}",
            self.len(),
            self.counts.len(),
            top as f64 / self.len().max(1) as f64
        )
    }

    /// Values occurring at least `threshold` times.
    pub fn heavy(&self, threshold: u64) -> Vec<f32> {
        self.counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(&bits, _)| f32::from_bits(bits))
            .collect()
    }
}

/// A φ-quantile answer must sit within `max_err` ranks of `φ · n`.
pub fn check_quantile(exact: &Exact, phi: f64, v: f32, max_err: f64) -> Result<(), String> {
    let err = exact.rank_error(phi, v);
    if err <= max_err {
        Ok(())
    } else {
        Err(format!(
            "quantile phi={phi} answered {v}: rank error {err} > {max_err} (n={})",
            exact.len()
        ))
    }
}

/// A heavy-hitter answer at support `s`: every value occurring at least
/// `threshold` times is reported, no count exceeds the truth, and no
/// count falls short of it by more than `max_under`.
pub fn check_heavy_hitters(
    exact: &Exact,
    answer: &[(f32, u64)],
    threshold: u64,
    max_under: u64,
) -> Result<(), String> {
    for v in exact.heavy(threshold.max(1)) {
        if !answer.iter().any(|(a, _)| a.to_bits() == v.to_bits()) {
            return Err(format!(
                "false negative: {v} occurs {} times (threshold {threshold})",
                exact.count(v)
            ));
        }
    }
    for &(v, est) in answer {
        let truth = exact.count(v);
        if est > truth {
            return Err(format!("overcount: {v} estimated {est}, true {truth}"));
        }
        if truth - est > max_under {
            return Err(format!(
                "undercount: {v} estimated {est}, true {truth}, allowed {max_under}"
            ));
        }
    }
    Ok(())
}

/// Splits `data` into the per-shard substreams the engine's value-hash
/// router makes, each in arrival order.
pub fn shard_streams(data: &[f32], shards: usize) -> Vec<Vec<f32>> {
    let mut router = HashRouter;
    let mut out = vec![Vec::new(); shards];
    for &v in data {
        out[router.route(v, shards)].push(v);
    }
    out
}

/// The elements a shard-merged sliding summary of `width` covers once the
/// whole input is absorbed. Each shard cuts its substream into `window`
/// windows (the last one partial), sorts each and feeds it in `block`-sized
/// chunks; the merge appends shard 1's blocks after shard 0's, and expiry
/// keeps the shortest suffix of blocks holding at least `width` elements.
pub fn sliding_cover(shards: &[Vec<f32>], window: usize, block: usize, width: usize) -> Vec<f32> {
    let mut blocks: Vec<Vec<f32>> = Vec::new();
    for stream in shards {
        for w in stream.chunks(window) {
            let mut sorted = w.to_vec();
            sorted.sort_by(f32::total_cmp);
            blocks.extend(sorted.chunks(block).map(<[f32]>::to_vec));
        }
    }
    let mut covered = 0;
    let mut start = blocks.len();
    while start > 0 && covered < width {
        start -= 1;
        covered += blocks[start].len();
    }
    blocks[start..].concat()
}
