//! `quantile_serve`: paper §5.2 quantiles served while ingesting. Four
//! queries (quantile and frequency at ε = 0.001, sliding quantile and
//! sliding frequency at ε = 0.01 over 65536 elements) on 2 shards, a
//! snapshot published every 64 sealed windows, a wide-range stream with
//! few duplicates, and one client thread querying over TCP at a fixed
//! rate. Quantile absorb dominates ingest; publish and merge come second.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsm_core::{Engine, ParallelHostBackend};
use gsm_dsms::{
    EngineBuilder, EngineSnapshot, QueryAnswer, QueryRequest, SnapshotRegistry, StreamEngine,
};
use gsm_serve::{QueryServer, ServeConfig, TcpFront};

use crate::client::{Generator, Outcome};
use crate::common::{digest, push_all, Layers, RoundLayers, Samples, Windows, BATCH};
use crate::mirror::{sort_ns_per_el, window_for, Mirror, Spec};
use crate::oracle::{check_heavy_hitters, check_quantile, shard_streams, sliding_cover, Exact};
use crate::stats::{median, Report};
use crate::Args;

pub const N: usize = 1 << 20;
/// Values span ±2^20 at 1/1024 resolution.
pub const SPAN: f64 = 1_048_576.0;
pub const SHARDS: usize = 2;
pub const PUBLISH_EVERY: u64 = 64;
pub const EPS: f64 = 0.001;
pub const SLIDING_EPS: f64 = 0.01;
pub const WIDTH: usize = 65536;
/// Requests per second from the query generator. Faster request/response
/// traffic on one connection stalls on the delayed ACK, because
/// `TcpFront` writes each reply in two writes without `TCP_NODELAY`;
/// raise the rate once it does not.
pub const RATE: f64 = 15.0;
/// Rounds of the traced run's probe of the real engine.
const PROBE_ROUNDS: usize = 8;

const SPECS: [Spec; 4] = [
    Spec::Quantile(EPS),
    Spec::Frequency(EPS),
    Spec::SlidingQuantile(SLIDING_EPS, WIDTH),
    Spec::SlidingFrequency(SLIDING_EPS, WIDTH),
];

/// The requests whose answers are compared at the end of every round;
/// the slow sliding heavy-hitters request joins them once per run.
fn final_requests(with_sliding_hh: bool) -> Vec<(usize, QueryRequest)> {
    let mut out = Vec::new();
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        out.push((0, QueryRequest::Quantile { phi }));
        out.push((2, QueryRequest::SlidingQuantile { phi }));
    }
    out.push((1, QueryRequest::HeavyHitters { support: 0.002 }));
    if with_sliding_hh {
        out.push(crate::client::SLIDING_HH);
    }
    out
}

pub fn input(seed: u64) -> Vec<f32> {
    crate::gen::wide_range_balanced(N, SPAN, SHARDS, BATCH / 2, seed)
}

/// Builds the engine and seals it; publication every `publish_every`
/// sealed windows once served.
fn build(publish_every: u64) -> StreamEngine {
    let mut engine = EngineBuilder::new(Engine::ParallelHost)
        .shards(SHARDS)
        .n_hint(N as u64)
        .publish_every(publish_every)
        .build()
        .expect("valid configuration");
    engine.register_quantile(EPS);
    engine.register_frequency(EPS);
    engine.register_sliding_quantile(SLIDING_EPS, WIDTH);
    engine.register_sliding_frequency(SLIDING_EPS, WIDTH);
    engine.seal();
    engine
}

struct Served {
    engine: StreamEngine,
    registry: Arc<SnapshotRegistry>,
    server: Arc<QueryServer>,
    front: TcpFront,
}

impl Served {
    fn start(publish_every: u64) -> std::io::Result<Self> {
        let mut engine = build(publish_every);
        let registry = engine.serve();
        let server = Arc::new(QueryServer::start(
            Arc::clone(&registry),
            ServeConfig::default(),
        ));
        let front = TcpFront::bind(server.client(), "127.0.0.1:0")?;
        Ok(Served {
            engine,
            registry,
            server,
            front,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Starts the query generator; it waits for the first snapshot that
    /// holds data, so no request meets an empty summary.
    fn generator(
        &self,
        traced: bool,
        sliding_hh_at_end: bool,
        first_request: u64,
    ) -> (Arc<AtomicBool>, std::thread::JoinHandle<Outcome>) {
        let stop = Arc::new(AtomicBool::new(false));
        let server = Arc::clone(&self.server);
        let gen = Generator {
            addr: self.addr(),
            registry: Arc::clone(&self.registry),
            rate: RATE,
            stop: Arc::clone(&stop),
            traced: traced.then(|| server.client()),
            queue_depth: traced
                .then(|| Box::new(move || server.queue_depth()) as Box<dyn Fn() -> usize + Send>),
            sliding_hh_at_end,
            first_request,
        };
        let registry = Arc::clone(&self.registry);
        let handle = std::thread::spawn(move || {
            while registry.latest().map_or(0, |s| s.windows_sealed()) == 0
                && !gen.stop.load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_micros(200));
            }
            gen.run().expect("query connection")
        });
        (stop, handle)
    }
}

fn snapshot_answers(snap: &EngineSnapshot) -> Vec<String> {
    final_requests(false)
        .into_iter()
        .map(|(q, req)| match snap.request(q, req) {
            Ok(a) => digest(&a),
            Err(e) => format!("{e:?}"),
        })
        .collect()
}

/// Checks the final snapshot against exact answers over the input.
struct Oracle {
    exact: Exact,
    sliding_q: Exact,
    sliding_f: Exact,
}

impl Oracle {
    fn new(data: &[f32]) -> Self {
        let shards = shard_streams(data, SHARDS);
        let window = window_for(&SPECS);
        let q_block = gsm_sketch::SlidingQuantile::new(SLIDING_EPS, WIDTH).block_size();
        let f_block = gsm_sketch::SlidingFrequency::new(SLIDING_EPS, WIDTH).block_size();
        Oracle {
            exact: Exact::new(data),
            sliding_q: Exact::new(&sliding_cover(&shards, window, q_block, WIDTH)),
            sliding_f: Exact::new(&sliding_cover(&shards, window, f_block, WIDTH)),
        }
    }

    fn check(&self, snap: &EngineSnapshot) -> Result<(), String> {
        let n = self.exact.len() as f64;
        for (q, req) in final_requests(true) {
            let answer = snap.request(q, req).map_err(|e| format!("{e:?}"))?;
            match (req, answer) {
                (QueryRequest::Quantile { phi }, QueryAnswer::Quantile(v)) => {
                    check_quantile(&self.exact, phi, v, EPS * n + 2.0)?;
                }
                (QueryRequest::SlidingQuantile { phi }, QueryAnswer::Quantile(v)) => {
                    let c = self.sliding_q.len() as f64;
                    check_quantile(&self.sliding_q, phi, v, SLIDING_EPS * c + 2.0)?;
                }
                (QueryRequest::HeavyHitters { support }, QueryAnswer::HeavyHitters(h)) => {
                    let max_under = (EPS * n).ceil() as u64 + SHARDS as u64 - 1;
                    check_heavy_hitters(&self.exact, &h, (support * n).ceil() as u64, max_under)?;
                }
                (QueryRequest::SlidingFrequency { support }, QueryAnswer::HeavyHitters(h)) => {
                    let c = self.sliding_f.len() as f64;
                    let threshold = ((support + SLIDING_EPS) * c).ceil() as u64;
                    check_heavy_hitters(
                        &self.sliding_f,
                        &h,
                        threshold,
                        (SLIDING_EPS * c).ceil() as u64,
                    )?;
                }
                _ => return Err(format!("query {q} answered with the wrong kind")),
            }
        }
        Ok(())
    }
}

fn outcome_errors(o: &Outcome, s: &mut Samples) {
    if o.mismatched > 0 {
        s.errors.push(format!(
            "{} of {} TCP answers differ from the snapshot: {}",
            o.mismatched,
            o.checked,
            o.mismatches.join("; ")
        ));
    }
    if o.checked == 0 {
        s.errors.push("no TCP answer could be checked".into());
    }
}

pub fn timed(args: &Args) -> Report {
    let data = input(args.seed);
    let oracle = Oracle::new(&data);
    println!("{}", oracle.exact.describe());
    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reference: Option<Vec<String>> = None;
    let (mut late, mut checked, mut unchecked) = (Vec::new(), 0, 0);
    loop {
        s.time_setups(|_| {
            let t = Instant::now();
            let served = Served::start(PUBLISH_EVERY).expect("loopback bind");
            (served, t.elapsed())
        });
        let mut served = Served::start(PUBLISH_EVERY).expect("loopback bind");
        let (stop, client) = served.generator(false, reference.is_none(), 0);
        let mut windows = Windows::new(served.engine.window());
        let registry = Arc::clone(&served.registry);
        let mut epoch = registry.epoch();
        let t = Instant::now();
        let engine = &mut served.engine;
        push_all(
            &data,
            &mut |chunk| engine.push_batch(chunk),
            &mut |count, now| {
                windows.pushed(count, now);
                if registry.epoch() != epoch {
                    epoch = registry.epoch();
                    let absorbed = registry.latest().map_or(0, |snap| snap.absorbed());
                    windows.visible(absorbed, now);
                }
            },
            &mut s.push_us,
        );
        engine.flush();
        engine.publish_now();
        s.ingest_eps.push(N as f64 / t.elapsed().as_secs_f64());
        windows.visible(N as u64, Instant::now());
        s.lag_ms.extend_from_slice(&windows.lags_ms);
        s.attempted += data.len().div_ceil(BATCH) as u64;
        stop.store(true, Ordering::Release);
        let o = client.join().expect("query generator");
        s.query_us.extend_from_slice(&o.tcp_us);
        late.extend_from_slice(&o.late_us);
        s.attempted += o.attempted;
        s.failed += o.failed;
        checked += o.checked;
        unchecked += o.unchecked;
        outcome_errors(&o, &mut s);

        let snap = registry.latest().expect("published");
        let got = snapshot_answers(&snap);
        match &reference {
            None => {
                s.check(oracle.check(&snap));
                s.disk_mb = served.engine.checkpoint().len() as f64 / 1e6;
                reference = Some(got);
            }
            Some(r) if *r != got => s.errors.push("answers differ between rounds".into()),
            Some(_) => {}
        }
        drop(served);
        // A non-durable engine recovers by replaying its input and
        // publishing again.
        let t = Instant::now();
        let mut replayed = build(PUBLISH_EVERY);
        let registry = replayed.serve();
        for chunk in data.chunks(BATCH) {
            replayed.push_batch(chunk);
        }
        replayed.flush();
        replayed.publish_now();
        s.recover_s.push(t.elapsed().as_secs_f64());
        s.attempted += 1;
        let snap = registry.latest().expect("published");
        if Some(snapshot_answers(&snap)) != reference {
            s.errors
                .push("replayed engine answers differ from the original".into());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    println!(
        "generator: late_p50_us={:.1} late_p99_us={:.1} checked={checked} unchecked={unchecked}",
        median(&late),
        crate::stats::quantile(&late, 0.99)
    );
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
    let mut merge_us = Vec::new();
    loop {
        let mut mirror = Mirror::new(&SPECS, SHARDS, N as u64).publishing(PUBLISH_EVERY);
        let t = Instant::now();
        for chunk in data.chunks(BATCH) {
            mirror.push_batch(chunk).expect("no durable hook");
        }
        mirror.flush();
        mirror.publish();
        let wall = t.elapsed();
        rounds.record(&mirror.acc, N, wall);
        let publishes = mirror.acc.publishes.get().max(1);
        merge_us.push(crate::stats::us(mirror.acc.merge.get()) / publishes as f64);
        attempted += data.len().div_ceil(BATCH) as u64;
        if kept.is_empty() {
            kept = mirror.acc.kept.take();
            layers.windows_sealed = mirror.windows_sealed() as f64;
            let e = mirror.entries();
            layers.entries = [e[0] as f64, e[1] as f64, e[2] as f64];
            let merged = mirror.merged();
            mirror_answers = final_requests(false)
                .into_iter()
                .map(|(q, req)| digest(&merged[q].answer(req)))
                .collect();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    rounds.into_layers(&mut layers);
    layers.merge_us = median(&merge_us);
    layers.sort_busy_ns = sort_ns_per_el(&mut ParallelHostBackend::with_default_threads(), &kept);
    layers.sort_host_ns = sort_ns_per_el(&mut gsm_core::pipeline::HostBackend::default(), &kept);

    // The real engine, publishing on the benchmark's call at the engine's
    // own cadence so each `publish_now` is timed, with the generator
    // rotating its requests over TCP, the in-process client and the
    // snapshot. Several rounds give every path enough requests.
    let mut o = Outcome::default();
    let mut publish_us = Vec::new();
    let mut last = None;
    for round in 0..PROBE_ROUNDS {
        let mut served = Served::start(u64::MAX >> 1).expect("loopback bind");
        let (stop, client) = served.generator(true, round == 0, o.attempted);
        // Sealed windows are counted over all shards, so the engine
        // publishes every PUBLISH_EVERY / SHARDS windows of the stream.
        let every = PUBLISH_EVERY / SHARDS as u64 * served.engine.window() as u64;
        let mut next_publish = every;
        for chunk in data.chunks(BATCH) {
            served.engine.push_batch(chunk);
            if served.engine.count() >= next_publish {
                next_publish += every;
                let t = Instant::now();
                served.engine.publish_now();
                publish_us.push(crate::stats::us(t.elapsed()));
            }
        }
        served.engine.flush();
        served.engine.publish_now();
        stop.store(true, Ordering::Release);
        o.absorb(client.join().expect("query generator"));
        attempted += data.len().div_ceil(BATCH) as u64;
        last = served.registry.latest();
    }
    attempted += o.attempted;
    let mut s = Samples::default();
    outcome_errors(&o, &mut s);
    errors.extend(s.errors);
    layers.publish_us = median(&publish_us);
    layers.publishes = publish_us.len() as f64 / PROBE_ROUNDS as f64;
    for (k, samples) in o.snapshot_us.iter().enumerate() {
        layers.snapshot_request_us[k] = median(samples);
    }
    let snap = last.expect("published");
    let (query, req) = crate::client::SLIDING_HH;
    let t = Instant::now();
    let _ = snap.request(query, req);
    layers.snapshot_request_us[query] = crate::stats::us(t.elapsed());
    layers.call_us = median(&o.call_us);
    layers.tcp_us = median(&o.tcp_sent_us) - layers.call_us;
    layers.queue_depth_max = o.queue_depth_max as f64;
    if snapshot_answers(&snap) != mirror_answers {
        errors.push("traced pipeline answers differ from the engine's".to_string());
    }
    println!("answers: {}", mirror_answers.join(" | "));
    layers.report(attempted, o.failed, &errors)
}
