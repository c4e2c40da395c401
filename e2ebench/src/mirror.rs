//! The traced run's pipeline: the engine's ingest path rebuilt from the
//! crates' public parts, with a timer around every call into a layer.
//!
//! `StreamEngine` keeps its pipeline private, so the traced run assembles
//! the same one itself: a `HashRouter`, one `WindowedPipeline` per shard
//! over a `BatchPipeline::with_backend` whose `ParallelHostBackend` shares
//! one worker pool, and one summary per registered query. The sort backend
//! and the summaries are wrapped in timers (`Timed`, `Fan`), and the
//! engine's per-chunk hooks (snapshot publication, WAL append and
//! checkpoint) are replayed with the public `gsm-sketch` and `gsm-durable`
//! calls they make. The answers it produces are compared byte for byte
//! with a real `StreamEngine` fed the same input.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsm_core::{
    BatchPipeline, Engine, HashRouter, ParallelHostBackend, ShardRouter, SortBackend, Submission,
    WallClock, WindowedPipeline,
};
use gsm_dsms::{QueryAnswer, QueryRequest};
use gsm_durable::{CheckpointStore, FsyncPolicy, Wal, WalOptions};
use gsm_sketch::{
    ExpHistogram, LossyCounting, OpCounter, SinkOps, SlidingFrequency, SlidingQuantile, SummarySink,
};
use gsm_sort::pool::WorkerPool;

/// One registered query, as the engine configures it.
#[derive(Clone, Copy)]
pub enum Spec {
    Quantile(f64),
    Frequency(f64),
    SlidingQuantile(f64, usize),
    SlidingFrequency(f64, usize),
}

impl Spec {
    /// The smallest shared window the engine accepts for this query.
    fn min_window(self) -> usize {
        match self {
            Spec::Frequency(eps) => (1.0 / eps).ceil() as usize,
            _ => 1024,
        }
    }
}

/// The shared window the engine picks for a query set.
pub fn window_for(specs: &[Spec]) -> usize {
    specs.iter().map(|s| s.min_window()).max().unwrap_or(1024)
}

/// Summary kinds, for per-kind absorb times and sizes.
#[derive(Clone, Copy)]
pub enum Kind {
    Quantile = 0,
    Frequency = 1,
    Sliding = 2,
}

#[derive(Clone, serde::Serialize)]
pub enum Sketch {
    Quantile(ExpHistogram),
    Frequency(LossyCounting),
    SlidingQuantile(SlidingQuantile),
    SlidingFrequency(SlidingFrequency),
}

impl Sketch {
    fn new(spec: Spec, window: usize, n_hint: u64) -> Self {
        match spec {
            Spec::Quantile(eps) => {
                Sketch::Quantile(ExpHistogram::new(eps, window, n_hint.max(window as u64)))
            }
            Spec::Frequency(eps) => Sketch::Frequency(LossyCounting::with_window(eps, window)),
            Spec::SlidingQuantile(eps, w) => Sketch::SlidingQuantile(SlidingQuantile::new(eps, w)),
            Spec::SlidingFrequency(eps, w) => {
                Sketch::SlidingFrequency(SlidingFrequency::new(eps, w))
            }
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Sketch::Quantile(_) => Kind::Quantile,
            Sketch::Frequency(_) => Kind::Frequency,
            Sketch::SlidingQuantile(_) | Sketch::SlidingFrequency(_) => Kind::Sliding,
        }
    }

    /// Absorbs one sorted window exactly as the engine's query fan does:
    /// sliding summaries take it in their own block size.
    fn absorb(&mut self, sorted: &[f32]) {
        match self {
            Sketch::Quantile(q) => q.push_sorted_window(sorted),
            Sketch::Frequency(f) => f.push_sorted_window(sorted),
            Sketch::SlidingQuantile(s) => {
                for block in sorted.chunks(s.block_size()) {
                    s.push_sorted_block(block);
                }
            }
            Sketch::SlidingFrequency(s) => {
                for block in sorted.chunks(s.block_size()) {
                    s.push_sorted_block(block);
                }
            }
        }
    }

    fn merge_from(&mut self, other: &Sketch, ops: &mut OpCounter) {
        match (self, other) {
            (Sketch::Quantile(a), Sketch::Quantile(b)) => a.merge_from(b, ops),
            (Sketch::Frequency(a), Sketch::Frequency(b)) => a.merge_from(b, ops),
            (Sketch::SlidingQuantile(a), Sketch::SlidingQuantile(b)) => a.merge_from(b, ops),
            (Sketch::SlidingFrequency(a), Sketch::SlidingFrequency(b)) => a.merge_from(b, ops),
            _ => unreachable!("shard fans carry the same query list"),
        }
    }

    fn ops(&self) -> SinkOps {
        match self {
            Sketch::Quantile(q) => SummarySink::ops(q),
            Sketch::Frequency(f) => SummarySink::ops(f),
            Sketch::SlidingQuantile(s) => SummarySink::ops(s),
            Sketch::SlidingFrequency(s) => SummarySink::ops(s),
        }
    }

    pub fn entries(&self) -> usize {
        match self {
            Sketch::Quantile(q) => q.entry_count(),
            Sketch::Frequency(f) => f.entry_count(),
            Sketch::SlidingQuantile(s) => s.entry_count(),
            Sketch::SlidingFrequency(s) => s.entry_count(),
        }
    }

    /// The answer `StreamEngine::request` gives for this query.
    pub fn answer(&self, req: QueryRequest) -> QueryAnswer {
        match (self, req) {
            (Sketch::Quantile(q), QueryRequest::Quantile { phi }) => {
                QueryAnswer::Quantile(q.query(phi))
            }
            (Sketch::Frequency(f), QueryRequest::HeavyHitters { support }) => {
                QueryAnswer::HeavyHitters(f.heavy_hitters(support))
            }
            (Sketch::SlidingQuantile(s), QueryRequest::SlidingQuantile { phi }) => {
                QueryAnswer::Quantile(s.query_frozen(phi))
            }
            (Sketch::SlidingFrequency(s), QueryRequest::SlidingFrequency { support }) => {
                QueryAnswer::HeavyHitters(s.heavy_hitters(support))
            }
            _ => unreachable!("requests follow the registered kinds"),
        }
    }
}

/// Time accumulated per layer, shared by the wrappers inside the pipeline
/// and the mirror driving it. Single-threaded: every timed call runs on
/// the ingest thread.
#[derive(Default)]
pub struct Acc {
    pub route: Cell<Duration>,
    pub fill_self: Cell<Duration>,
    pub sort_wait: Cell<Duration>,
    pub absorb: [Cell<Duration>; 3],
    pub publish: Cell<Duration>,
    pub merge: Cell<Duration>,
    pub publishes: Cell<u64>,
    pub wal_append: Cell<Duration>,
    pub wal_appends: Cell<u64>,
    pub encode: Cell<Duration>,
    pub save: Cell<Duration>,
    pub checkpoints: Cell<u64>,
    pub checkpoint_bytes: Cell<u64>,
    /// Copies of the first windows submitted for sorting, for timing the
    /// sort backends on their own afterwards.
    pub kept: RefCell<Vec<Vec<f32>>>,
}

fn add(cell: &Cell<Duration>, d: Duration) {
    cell.set(cell.get() + d);
}

impl Acc {
    fn nested(&self) -> Duration {
        self.sort_wait.get() + self.absorb.iter().map(Cell::get).sum::<Duration>()
    }

    /// Time spent inside the layers, over the mirror's ingest loop.
    pub fn attributed(&self) -> Duration {
        self.route.get()
            + self.fill_self.get()
            + self.nested()
            + self.publish.get()
            + self.wal_append.get()
            + self.encode.get()
            + self.save.get()
    }
}

/// Windows kept for the standalone sort timing.
const KEEP_WINDOWS: usize = 8;

/// A sort backend with the ingest thread's time in `submit_batch` and
/// `collect_batch` (or a synchronous `sort_batch`) charged to sort wait.
struct Timed {
    inner: ParallelHostBackend,
    acc: Rc<Acc>,
}

impl Timed {
    fn keep(&self, windows: &[Vec<f32>]) {
        let mut kept = self.acc.kept.borrow_mut();
        for w in windows {
            if kept.len() < KEEP_WINDOWS {
                kept.push(w.clone());
            }
        }
    }
}

impl SortBackend for Timed {
    fn engine(&self) -> Engine {
        self.inner.engine()
    }

    fn batch_ready(&self, windows: usize, values: usize) -> bool {
        self.inner.batch_ready(windows, values)
    }

    fn sort_batch(&mut self, windows: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        self.keep(&windows);
        let t = Instant::now();
        let out = self.inner.sort_batch(windows);
        add(&self.acc.sort_wait, t.elapsed());
        out
    }

    fn submit_batch(&mut self, windows: Vec<Vec<f32>>) -> Submission {
        self.keep(&windows);
        let t = Instant::now();
        let out = self.inner.submit_batch(windows);
        add(&self.acc.sort_wait, t.elapsed());
        out
    }

    fn collect_batch(&mut self) -> Option<Vec<Vec<f32>>> {
        let t = Instant::now();
        let out = self.inner.collect_batch();
        add(&self.acc.sort_wait, t.elapsed());
        out
    }

    fn inflight_batches(&self) -> usize {
        self.inner.inflight_batches()
    }

    fn wall_clock(&self) -> WallClock {
        self.inner.wall_clock()
    }

    fn sort_time(&self) -> gsm_model::SimTime {
        self.inner.sort_time()
    }
}

/// The query fan with each summary's absorb timed by kind.
pub struct Fan {
    pub sketches: Vec<Sketch>,
    acc: Rc<Acc>,
}

impl SummarySink for Fan {
    fn push_sorted_window(&mut self, sorted: &[f32]) {
        for s in &mut self.sketches {
            let t = Instant::now();
            s.absorb(sorted);
            add(&self.acc.absorb[s.kind() as usize], t.elapsed());
        }
    }

    fn ops(&self) -> SinkOps {
        let mut total = SinkOps::default();
        for s in &self.sketches {
            total.absorb(s.ops());
        }
        total
    }
}

/// The engine's per-chunk hook, replayed.
enum Hook {
    None,
    /// Snapshot publication every `every` sealed windows: clone shard 0's
    /// summaries and fold the other shards in, as `publish_now` does.
    Publish {
        every: u64,
        published: u64,
        latest: Option<Vec<Sketch>>,
    },
    /// WAL append per full window and a checkpoint every `every` records.
    Durable {
        wal: Wal,
        store: CheckpointStore,
        pending: Vec<f32>,
        next_seq: u64,
        since: u64,
        every: u64,
    },
}

pub struct Mirror {
    shards: Vec<WindowedPipeline<Fan>>,
    router: HashRouter,
    staging: Vec<Vec<f32>>,
    window: usize,
    count: u64,
    hook: Hook,
    pub acc: Rc<Acc>,
    _pool: Arc<WorkerPool>,
}

impl Mirror {
    /// The pipeline `EngineBuilder::new(Engine::ParallelHost)` seals for
    /// `specs` over `shards` shards.
    pub fn new(specs: &[Spec], shards: usize, n_hint: u64) -> Self {
        let window = window_for(specs);
        let acc = Rc::new(Acc::default());
        let width = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .clamp(1, 4);
        let pool = WorkerPool::new(width).into_shared();
        let shards = (0..shards)
            .map(|_| {
                let backend = Timed {
                    inner: ParallelHostBackend::over_shared(Arc::clone(&pool)),
                    acc: Rc::clone(&acc),
                };
                let fan = Fan {
                    sketches: specs
                        .iter()
                        .map(|&s| Sketch::new(s, window, n_hint))
                        .collect(),
                    acc: Rc::clone(&acc),
                };
                WindowedPipeline::over(BatchPipeline::with_backend(Box::new(backend)), window, fan)
            })
            .collect::<Vec<_>>();
        let staging = vec![Vec::new(); shards.len()];
        Mirror {
            shards,
            router: HashRouter,
            staging,
            window,
            count: 0,
            hook: Hook::None,
            acc,
            _pool: pool,
        }
    }

    /// Publishes a merged snapshot every `every` sealed windows.
    pub fn publishing(mut self, every: u64) -> Self {
        self.hook = Hook::Publish {
            every,
            published: 0,
            latest: None,
        };
        self
    }

    /// Logs every window to a WAL in `dir` (fsync per append) and
    /// checkpoints every `every` records, starting with the base
    /// checkpoint a durable engine writes when it seals.
    pub fn durable(mut self, dir: &Path, every: u64) -> std::io::Result<Self> {
        let opts = WalOptions {
            fsync: FsyncPolicy::EverySeal,
            records_per_segment: 64,
        };
        self.hook = Hook::Durable {
            wal: Wal::create(dir, opts)?,
            store: CheckpointStore::open(dir)?,
            pending: Vec::new(),
            next_seq: 1,
            since: 0,
            every,
        };
        self.checkpoint()?;
        Ok(self)
    }

    pub fn windows_sealed(&self) -> u64 {
        self.shards
            .iter()
            .map(WindowedPipeline::windows_sorted)
            .sum()
    }

    /// `StreamEngine::push_batch`: split at global window boundaries,
    /// route each chunk, fill the shard windows, then run the hook.
    pub fn push_batch(&mut self, values: &[f32]) -> std::io::Result<()> {
        let window = self.window as u64;
        let mut rest = values;
        while !rest.is_empty() {
            let room = (window - self.count % window) as usize;
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            rest = tail;
            self.count += chunk.len() as u64;
            if self.shards.len() == 1 {
                self.fill(0, chunk);
            } else {
                let t = Instant::now();
                self.router
                    .route_batch(chunk, self.shards.len(), &mut self.staging);
                add(&self.acc.route, t.elapsed());
                for i in 0..self.shards.len() {
                    let stage = std::mem::take(&mut self.staging[i]);
                    if !stage.is_empty() {
                        self.fill(i, &stage);
                    }
                    self.staging[i] = stage;
                    self.staging[i].clear();
                }
            }
            self.after_chunk(chunk)?;
        }
        Ok(())
    }

    /// `push_slice` into one shard, with the sort and absorb time nested
    /// inside it subtracted to leave the fill's self time.
    fn fill(&mut self, shard: usize, values: &[f32]) {
        let nested = self.acc.nested();
        let t = Instant::now();
        self.shards[shard].push_slice(values);
        let own = t.elapsed().saturating_sub(self.acc.nested() - nested);
        add(&self.acc.fill_self, own);
    }

    /// Flushes every shard; self time is charged to the fill layer.
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            let nested = self.acc.nested();
            let t = Instant::now();
            shard.flush();
            let own = t.elapsed().saturating_sub(self.acc.nested() - nested);
            add(&self.acc.fill_self, own);
        }
    }

    fn after_chunk(&mut self, chunk: &[f32]) -> std::io::Result<()> {
        let sealed = self.windows_sealed();
        match &mut self.hook {
            Hook::None => {}
            Hook::Publish {
                every, published, ..
            } => {
                if sealed >= *published + *every {
                    self.publish();
                }
            }
            Hook::Durable {
                wal,
                pending,
                next_seq,
                since,
                every,
                ..
            } => {
                pending.extend_from_slice(chunk);
                if pending.len() >= self.window {
                    let t = Instant::now();
                    wal.append(*next_seq, pending)?;
                    add(&self.acc.wal_append, t.elapsed());
                    self.acc.wal_appends.set(self.acc.wal_appends.get() + 1);
                    pending.clear();
                    *next_seq += 1;
                    *since += 1;
                    if *since >= *every {
                        self.checkpoint()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The shard-merged summaries: shard 0 cloned, the others folded in
    /// order, as the engine's snapshot and query paths do.
    pub fn merged(&self) -> Vec<Sketch> {
        let mut merged = self.shards[0].sink().sketches.clone();
        let mut ops = OpCounter::default();
        for shard in &self.shards[1..] {
            for (mine, theirs) in merged.iter_mut().zip(&shard.sink().sketches) {
                mine.merge_from(theirs, &mut ops);
            }
        }
        merged
    }

    /// Publishes now (publication never flushes).
    pub fn publish(&mut self) {
        let t = Instant::now();
        let mut snapshot = self.shards[0].sink().sketches.clone();
        let m = Instant::now();
        let mut ops = OpCounter::default();
        for shard in &self.shards[1..] {
            for (mine, theirs) in snapshot.iter_mut().zip(&shard.sink().sketches) {
                mine.merge_from(theirs, &mut ops);
            }
        }
        add(&self.acc.merge, m.elapsed());
        let sealed = self.windows_sealed();
        if let Hook::Publish {
            published, latest, ..
        } = &mut self.hook
        {
            *latest = Some(snapshot);
            *published = sealed;
        }
        add(&self.acc.publish, t.elapsed());
        self.acc.publishes.set(self.acc.publishes.get() + 1);
    }

    /// A durable checkpoint at the current WAL horizon: flush, encode every
    /// shard's summaries as JSON, save, and truncate the log below it.
    fn checkpoint(&mut self) -> std::io::Result<()> {
        self.flush();
        let t = Instant::now();
        let parts: Vec<String> = self
            .shards
            .iter()
            .map(|s| serde_json::to_string(&s.sink().sketches).expect("summaries serialize"))
            .collect();
        let json = format!("[{}]", parts.join(","));
        add(&self.acc.encode, t.elapsed());
        if let Hook::Durable {
            wal,
            store,
            next_seq,
            since,
            ..
        } = &mut self.hook
        {
            let t = Instant::now();
            store.save(*next_seq - 1, &json)?;
            wal.truncate_below(*next_seq - 1)?;
            add(&self.acc.save, t.elapsed());
            *since = 0;
        }
        self.acc.checkpoints.set(self.acc.checkpoints.get() + 1);
        self.acc.checkpoint_bytes.set(json.len() as u64);
        Ok(())
    }

    /// WAL fsyncs and bytes written so far (zero without a WAL).
    pub fn wal_totals(&self) -> (u64, u64) {
        match &self.hook {
            Hook::Durable { wal, .. } => (wal.fsyncs(), wal.bytes_written()),
            _ => (0, 0),
        }
    }

    /// Summary entries held across all shards, per kind.
    pub fn entries(&self) -> [usize; 3] {
        let mut out = [0; 3];
        for shard in &self.shards {
            for s in &shard.sink().sketches {
                out[s.kind() as usize] += s.entries();
            }
        }
        out
    }
}

/// Times `sort_batch` on `backend` over `windows`, repeated, in ns per
/// element (median of the repeats).
pub fn sort_ns_per_el(backend: &mut dyn SortBackend, windows: &[Vec<f32>]) -> f64 {
    let elements: usize = windows.iter().map(Vec::len).sum();
    if elements == 0 {
        return 0.0;
    }
    let mut samples = Vec::new();
    for _ in 0..7 {
        let input = windows.to_vec();
        let t = Instant::now();
        let out = backend.sort_batch(std::hint::black_box(input));
        samples.push(t.elapsed().as_secs_f64() * 1e9 / elements as f64);
        std::hint::black_box(out);
    }
    crate::stats::median(&samples)
}
