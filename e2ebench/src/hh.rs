//! `hh_ingest`: paper §5.1 heavy hitters only. One frequency query at
//! ε = 2⁻¹⁵ (32768-element windows) over 4 hash-routed shards and a
//! Zipf-skewed id stream; no serving, no durability. Route, fill and sort
//! carry the work.

use std::time::{Duration, Instant};

use gsm_core::{Engine, ParallelHostBackend};
use gsm_dsms::{EngineBuilder, QueryId, QueryRequest, StreamEngine};

use crate::common::{digest, push_all, Layers, RoundLayers, Samples, Tap, Windows};
use crate::mirror::{sort_ns_per_el, Mirror, Spec};
use crate::oracle::{check_heavy_hitters, Exact};
use crate::stats::Report;
use crate::Args;

pub const N: usize = 1 << 22;
pub const UNIVERSE: u32 = 1 << 20;
pub const SKEW: f64 = 1.1;
pub const EPS: f64 = 1.0 / 32768.0;
pub const SHARDS: usize = 4;
const SUPPORTS: [f64; 4] = [0.0005, 0.001, 0.002, 0.004];
/// Direct queries per round, after ingest.
const QUERIES: usize = 64;

fn build(tap: Option<&Tap>) -> (StreamEngine, QueryId) {
    let mut builder = EngineBuilder::new(Engine::ParallelHost).shards(SHARDS);
    if let Some(tap) = tap {
        builder = builder.window_tap(tap.hook());
    }
    let mut engine = builder.build().expect("valid configuration");
    let q = engine.register_frequency(EPS);
    engine.seal();
    (engine, q)
}

fn ingest(engine: &mut StreamEngine, data: &[f32]) {
    for chunk in data.chunks(crate::common::BATCH) {
        engine.push_batch(chunk);
    }
    engine.flush();
}

fn answers(engine: &mut StreamEngine, q: QueryId) -> Vec<String> {
    SUPPORTS
        .iter()
        .map(|&support| digest(&engine.request(q, QueryRequest::HeavyHitters { support })))
        .collect()
}

fn check_exact(exact: &Exact, engine: &mut StreamEngine, q: QueryId) -> Result<(), String> {
    let n = exact.len() as f64;
    let max_under = (EPS * n).ceil() as u64 + SHARDS as u64 - 1;
    for &support in &SUPPORTS {
        let gsm_dsms::QueryAnswer::HeavyHitters(hits) =
            engine.request(q, QueryRequest::HeavyHitters { support })
        else {
            return Err("frequency query gave a non-frequency answer".into());
        };
        check_heavy_hitters(exact, &hits, (support * n).ceil() as u64, max_under)?;
    }
    Ok(())
}

pub fn input(seed: u64) -> Vec<f32> {
    crate::gen::zipf_ids(N, UNIVERSE, SKEW, seed)
}

pub fn timed(args: &Args) -> Report {
    let data = input(args.seed);
    let exact = Exact::new(&data);
    println!("{}", exact.describe());
    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reference: Option<Vec<String>> = None;
    loop {
        s.time_setups(|_| {
            let t = Instant::now();
            let built = build(None);
            (built, t.elapsed())
        });
        let tap = Tap::default();
        let (mut engine, q) = build(Some(&tap));
        let mut windows = Windows::new(engine.window());
        let t = Instant::now();
        push_all(
            &data,
            &mut |chunk| engine.push_batch(chunk),
            &mut |count, now| windows.pushed(count, now),
            &mut s.push_us,
        );
        engine.flush();
        s.ingest_eps.push(N as f64 / t.elapsed().as_secs_f64());
        tap.replay_into(&mut windows);
        s.lag_ms.extend_from_slice(&windows.lags_ms);
        s.attempted += data.len().div_ceil(crate::common::BATCH) as u64;

        let mut got = Vec::new();
        for i in 0..QUERIES {
            let support = SUPPORTS[i % SUPPORTS.len()];
            let t = Instant::now();
            let answer = engine.request(q, QueryRequest::HeavyHitters { support });
            s.query_us.push(crate::stats::us(t.elapsed()));
            if i < SUPPORTS.len() {
                got.push(digest(&answer));
            }
        }
        s.attempted += QUERIES as u64;
        match &reference {
            None => {
                s.check(check_exact(&exact, &mut engine, q));
                s.disk_mb = engine.checkpoint().len() as f64 / 1e6;
                reference = Some(got);
            }
            Some(r) if *r != got => s.errors.push("answers differ between rounds".into()),
            Some(_) => {}
        }
        drop(engine);

        // A non-durable engine recovers by replaying its input.
        let t = Instant::now();
        let (mut replayed, rq) = build(None);
        ingest(&mut replayed, &data);
        s.recover_s.push(t.elapsed().as_secs_f64());
        s.attempted += 1;
        if Some(answers(&mut replayed, rq)) != reference {
            s.errors
                .push("replayed engine answers differ from the original".into());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    println!("answers: {}", reference.unwrap_or_default().join(" | "));
    s.report()
}

pub fn traced(args: &Args) -> Report {
    let data = input(args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = RoundLayers::default();
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut kept = Vec::new();
    let mut mirror_answers = Vec::new();
    loop {
        let mut mirror = Mirror::new(&[Spec::Frequency(EPS)], SHARDS, N as u64);
        let t = Instant::now();
        for chunk in data.chunks(crate::common::BATCH) {
            mirror.push_batch(chunk).expect("no durable hook");
        }
        mirror.flush();
        let wall = t.elapsed();
        rounds.record(&mirror.acc, N, wall);
        attempted += data.len().div_ceil(crate::common::BATCH) as u64;
        if kept.is_empty() {
            kept = mirror.acc.kept.take();
            layers.windows_sealed = mirror.windows_sealed() as f64;
            let e = mirror.entries();
            layers.entries = [e[0] as f64, e[1] as f64, e[2] as f64];
            let merged = mirror.merged();
            mirror_answers = SUPPORTS
                .iter()
                .map(|&support| digest(&merged[0].answer(QueryRequest::HeavyHitters { support })))
                .collect();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    rounds.into_layers(&mut layers);
    layers.sort_busy_ns = sort_ns_per_el(&mut ParallelHostBackend::with_default_threads(), &kept);
    layers.sort_host_ns = sort_ns_per_el(&mut gsm_core::pipeline::HostBackend::default(), &kept);

    let (mut engine, q) = build(None);
    ingest(&mut engine, &data);
    if answers(&mut engine, q) != mirror_answers {
        errors.push("traced pipeline answers differ from the engine's".to_string());
    }
    println!("answers: {}", mirror_answers.join(" | "));
    layers.report(attempted, 0, &errors)
}
