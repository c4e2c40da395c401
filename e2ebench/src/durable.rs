//! `durable_recover`: the crash-safe configuration. One shard, quantile
//! and frequency queries at ε = 0.001, fsync on every sealed window and a
//! checkpoint every 8 windows (the defaults). Each round ingests up to a
//! fixed element count that falls between checkpoints and leaves a partial
//! window, drops the engine there (the crash), and recovers repeatedly
//! from identical copies of that crash image. WAL append, fsync and
//! checkpoint encode/save carry ingest; checkpoint parsing carries
//! recovery.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gsm_core::{Engine, ParallelHostBackend};
use gsm_dsms::{DurableOptions, EngineBuilder, QueryAnswer, QueryId, QueryRequest, StreamEngine};
use gsm_durable::CheckpointStore;
use gsm_obs::Recorder;

use crate::common::{digest, push_all, Layers, RoundLayers, Samples, Tap, Windows, BATCH};
use crate::mirror::{sort_ns_per_el, Mirror, Spec};
use crate::oracle::{check_heavy_hitters, check_quantile, Exact};
use crate::stats::{dir_bytes, median, ms, Report};
use crate::Args;

pub const EPS: f64 = 0.001;
pub const SPAN: f64 = 1_048_576.0;
/// The engine's shared window for these queries.
pub const WINDOW: usize = 1024;
/// Checkpoint cadence in windows (`DurableOptions` default).
pub const CHECKPOINT_EVERY: u64 = 8;
/// Whole windows logged at the crash: 5 past the checkpoint at 24.
pub const CRASH_WINDOWS: usize = 29;
/// Elements pushed before the crash: the logged windows plus half a
/// window that never reaches the log.
pub const CRASH: usize = CRASH_WINDOWS * WINDOW + WINDOW / 2;
/// Recoveries per round, each from a fresh copy of the crash image.
const RECOVERIES: usize = 2;
/// Direct queries on each recovered engine.
const QUERIES: usize = 64;

const SPECS: [Spec; 2] = [Spec::Quantile(EPS), Spec::Frequency(EPS)];

fn requests() -> Vec<(usize, QueryRequest)> {
    let mut out: Vec<_> = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .into_iter()
        .map(|phi| (0, QueryRequest::Quantile { phi }))
        .collect();
    out.push((1, QueryRequest::HeavyHitters { support: 0.002 }));
    out
}

pub fn input(seed: u64) -> Vec<f32> {
    crate::gen::wide_range(CRASH, SPAN, seed)
}

fn builder() -> EngineBuilder {
    EngineBuilder::new(Engine::ParallelHost).n_hint(CRASH as u64)
}

fn register(engine: &mut StreamEngine) -> [QueryId; 2] {
    let q = engine.register_quantile(EPS);
    let f = engine.register_frequency(EPS);
    engine.seal();
    [q, f]
}

fn build_durable(dir: &Path, tap: Option<&Tap>) -> (StreamEngine, [QueryId; 2]) {
    std::fs::create_dir_all(dir).expect("create durable directory");
    let mut b = builder().durability(DurableOptions::new(dir));
    if let Some(tap) = tap {
        b = b.window_tap(tap.hook());
    }
    let mut engine = b.build().expect("fresh durable directory");
    let ids = register(&mut engine);
    (engine, ids)
}

fn answers(engine: &mut StreamEngine, ids: [QueryId; 2]) -> Vec<String> {
    requests()
        .into_iter()
        .map(|(q, req)| digest(&engine.request(ids[q], req)))
        .collect()
}

/// A non-durable engine fed `data`: the uncrashed reference.
fn reference(data: &[f32]) -> (StreamEngine, [QueryId; 2]) {
    let mut engine = builder().build().expect("valid configuration");
    let ids = register(&mut engine);
    for chunk in data.chunks(BATCH) {
        engine.push_batch(chunk);
    }
    engine.flush();
    (engine, ids)
}

fn check_exact(data: &[f32], engine: &mut StreamEngine, ids: [QueryId; 2]) -> Result<(), String> {
    let exact = Exact::new(data);
    println!("{}", exact.describe());
    let n = data.len() as f64;
    for (q, req) in requests() {
        match (req, engine.request(ids[q], req)) {
            (QueryRequest::Quantile { phi }, QueryAnswer::Quantile(v)) => {
                check_quantile(&exact, phi, v, EPS * n + 2.0)?;
            }
            (QueryRequest::HeavyHitters { support }, QueryAnswer::HeavyHitters(h)) => {
                check_heavy_hitters(
                    &exact,
                    &h,
                    (support * n).ceil() as u64,
                    (EPS * n).ceil() as u64,
                )?;
            }
            _ => return Err(format!("query {q} answered with the wrong kind")),
        }
    }
    Ok(())
}

/// Copies the regular files of `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The run's scratch directory inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Ingests up to the crash point and drops the engine there.
fn crash(data: &[f32], dir: &Path, s: Option<&mut Samples>) {
    let tap = Tap::default();
    let (mut engine, _) = build_durable(dir, Some(&tap));
    let mut windows = Windows::new(engine.window());
    let mut push_us = Vec::new();
    let t = Instant::now();
    push_all(
        data,
        &mut |chunk| engine.push_batch(chunk),
        &mut |count, now| windows.pushed(count, now),
        &mut push_us,
    );
    let took = t.elapsed();
    drop(engine);
    if let Some(s) = s {
        s.ingest_eps.push(data.len() as f64 / took.as_secs_f64());
        s.push_us.extend_from_slice(&push_us);
        tap.replay_into(&mut windows);
        s.lag_ms.extend_from_slice(&windows.lags_ms);
        s.attempted += push_us.len() as u64;
    }
}

pub fn timed(args: &Args) -> Report {
    let data = input(args.seed);
    let prefix = &data[..CRASH_WINDOWS * WINDOW];
    let (mut uncrashed, ref_ids) = reference(prefix);
    let expected = answers(&mut uncrashed, ref_ids);
    let mut s = Samples::default();
    s.check(check_exact(prefix, &mut uncrashed, ref_ids));
    drop(uncrashed);
    let scratch = Scratch::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0;
    loop {
        s.time_setups(|i| {
            let dir = scratch.path(&format!("setup-{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            let built = build_durable(&dir, None);
            (built, t.elapsed())
        });
        let image = scratch.path(&format!("image-{round}"));
        crash(&data, &image, Some(&mut s));
        s.disk_mb = dir_bytes(&image) as f64 / 1e6;
        for r in 0..RECOVERIES {
            let dir = scratch.path(&format!("recover-{round}-{r}"));
            copy_dir(&image, &dir).expect("copy crash image");
            let t = Instant::now();
            let recovered = StreamEngine::recover_from(
                Engine::ParallelHost,
                DurableOptions::new(&dir),
                Recorder::disabled(),
            );
            let took = t.elapsed();
            s.attempted += 1;
            let Ok((mut engine, report)) = recovered else {
                s.failed += 1;
                continue;
            };
            s.recover_s.push(took.as_secs_f64());
            if report.recovered_count != prefix.len() as u64 || report.damaged() {
                s.errors.push(format!("unexpected recovery: {report:?}"));
            }
            let list = requests();
            let ids = ref_ids;
            let mut got = Vec::new();
            for i in 0..QUERIES {
                let (q, req) = list[i % list.len()];
                let t = Instant::now();
                let answer = engine.request(ids[q], req);
                s.query_us.push(crate::stats::us(t.elapsed()));
                if i < list.len() {
                    got.push(digest(&answer));
                }
            }
            s.attempted += QUERIES as u64;
            if got != expected {
                s.errors
                    .push("recovered answers differ from the uncrashed engine's".into());
            }
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&image);
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    println!("answers: {}", expected.join(" | "));
    s.report()
}

pub fn traced(args: &Args) -> Report {
    let data = input(args.seed);
    let prefix = &data[..CRASH_WINDOWS * WINDOW];
    let scratch = Scratch::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = RoundLayers::default();
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut kept = Vec::new();
    let mut wal_us = Vec::new();
    let mut kept_checkpoint_bytes = 0;
    let (mut wal_share, mut checkpoint_share) = (Vec::new(), Vec::new());
    let mut round = 0;
    loop {
        let dir = scratch.path(&format!("mirror-{round}"));
        std::fs::create_dir_all(&dir).expect("create mirror directory");
        let t = Instant::now();
        let mut mirror = Mirror::new(&SPECS, 1, CRASH as u64)
            .durable(&dir, CHECKPOINT_EVERY)
            .expect("fresh mirror directory");
        for chunk in data.chunks(BATCH) {
            mirror.push_batch(chunk).expect("mirror WAL");
        }
        let wall = t.elapsed();
        rounds.record(&mirror.acc, CRASH, wall);
        let acc = &mirror.acc;
        wal_us.push(crate::stats::us(acc.wal_append.get()) / acc.wal_appends.get().max(1) as f64);
        let share = |d: Duration| d.as_secs_f64() / wall.as_secs_f64();
        wal_share.push(share(acc.wal_append.get()));
        checkpoint_share.push(share(acc.encode.get() + acc.save.get()));
        attempted += data.len().div_ceil(BATCH) as u64;
        if kept.is_empty() {
            kept = acc.kept.take();
            kept_checkpoint_bytes = acc.checkpoint_bytes.get();
            let (fsyncs, bytes) = mirror.wal_totals();
            layers.wal_fsyncs = fsyncs as f64;
            layers.wal_bytes = bytes as f64;
            layers.windows_sealed = mirror.windows_sealed() as f64;
            let e = mirror.entries();
            layers.entries = [e[0] as f64, e[1] as f64, e[2] as f64];
            mirror.flush();
            let merged = mirror.merged();
            let got: Vec<String> = requests()
                .into_iter()
                .map(|(q, req)| digest(&merged[q].answer(req)))
                .collect();
            let (mut full, ids) = reference(&data);
            if got != answers(&mut full, ids) {
                errors.push("traced pipeline answers differ from the engine's".to_string());
            }
        }
        drop(mirror);
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    rounds.into_layers(&mut layers);
    println!(
        "traced loop shares: wal_append {:.3} checkpoint_encode_save {:.3}",
        median(&wal_share),
        median(&checkpoint_share)
    );
    layers.wal_append_us = median(&wal_us);
    layers.sort_busy_ns = sort_ns_per_el(&mut ParallelHostBackend::with_default_threads(), &kept);
    layers.sort_host_ns = sort_ns_per_el(&mut gsm_core::pipeline::HostBackend::default(), &kept);

    // StreamEngine::checkpoint on the uncrashed engine at the crash point,
    // and CheckpointStore::save of that document. The mirror's own
    // checkpoints hold the same summaries without the engine's envelope;
    // they feed only the loop shares above.
    let (mut uncrashed, ids) = reference(prefix);
    let expected = answers(&mut uncrashed, ids);
    let store_dir = scratch.path("store");
    std::fs::create_dir_all(&store_dir).expect("create store directory");
    let store = CheckpointStore::open(&store_dir).expect("open checkpoint store");
    let (mut encode, mut save) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let json = uncrashed.checkpoint();
        encode.push(ms(t.elapsed()));
        layers.checkpoint_bytes = json.len() as f64;
        let t = Instant::now();
        store
            .save(CRASH_WINDOWS as u64, &json)
            .expect("save checkpoint");
        save.push(ms(t.elapsed()));
    }
    layers.checkpoint_encode_ms = median(&encode);
    layers.checkpoint_save_ms = median(&save);

    // Recovery taken apart: load the checkpoints, restore the newest, scan
    // the log, replay the records above its horizon as `recover_from`
    // does (one element at a time, flushing where the crashed run
    // checkpointed).
    let image = scratch.path("image");
    crash(&data, &image, None);
    let (mut load, mut restore, mut scan, mut replay) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut image_checkpoint_bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let ckpts = CheckpointStore::open(&image)
            .and_then(|s| s.load_all_desc())
            .expect("load checkpoints");
        load.push(ms(t.elapsed()));
        let (horizon, json) = &ckpts[0];
        image_checkpoint_bytes = json.len();
        let t = Instant::now();
        let mut engine =
            StreamEngine::restore(Engine::ParallelHost, json).expect("newest checkpoint parses");
        restore.push(ms(t.elapsed()));
        let t = Instant::now();
        let log = gsm_durable::scan(&image).expect("scan log");
        scan.push(ms(t.elapsed()));
        let t = Instant::now();
        let mut elements = 0;
        for rec in log.records.iter().filter(|r| r.seq > *horizon) {
            for &v in &rec.payload {
                engine.push(v);
            }
            elements += rec.payload.len();
            if rec.seq % CHECKPOINT_EVERY == 0 {
                engine.flush();
            }
        }
        replay.push(t.elapsed().as_secs_f64() * 1e9 / elements.max(1) as f64);
        attempted += 1;
        if answers(&mut engine, ids) != expected {
            errors.push("restored and replayed answers differ from the uncrashed engine's".into());
        }
    }
    layers.checkpoint_load_ms = median(&load);
    layers.restore_ms = median(&restore);
    layers.wal_scan_ms = median(&scan);
    layers.replay_ns = median(&replay);
    println!(
        "newest checkpoint bytes: engine {image_checkpoint_bytes} mirror {kept_checkpoint_bytes}"
    );
    println!("answers: {}", expected.join(" | "));
    layers.report(attempted, 0, &errors)
}
