//! Pieces every workload shares: the batch loop, window visibility
//! tracking, the end-to-end samples, and the per-layer metric set.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsm_dsms::{QueryAnswer, WindowTap};

use crate::stats::{median, ms, quantile, Report};

/// Elements per `push_batch` call, on every workload.
pub const BATCH: usize = 1024;

/// Set-ups timed back to back at the start of every round. Their mean is
/// one `setup_s` sample, and `setup_s` is the median over the run's
/// rounds: a single set-up takes well under a millisecond, and the median
/// of such samples jumps with the host's state when the run began.
pub const SETUPS_PER_ROUND: usize = 8;

/// An answer rendered bit for bit, for byte-identity comparisons.
pub fn digest(answer: &QueryAnswer) -> String {
    match answer {
        QueryAnswer::Quantile(v) => format!("q:{:08x}", v.to_bits()),
        QueryAnswer::HeavyHitters(hits) => {
            let mut out = format!("hh:{}", hits.len());
            for (v, c) in hits {
                out.push_str(&format!(" {:08x}:{c}", v.to_bits()));
            }
            out
        }
        QueryAnswer::Hhh(entries) => format!("hhh:{entries:?}"),
    }
}

/// Completion times of the stream's global windows, in push order.
pub struct Windows {
    window: u64,
    pub done: Vec<Instant>,
    visible: usize,
    pub lags_ms: Vec<f64>,
}

impl Windows {
    pub fn new(window: usize) -> Self {
        Windows {
            window: window as u64,
            done: Vec::new(),
            visible: 0,
            lags_ms: Vec::new(),
        }
    }

    /// The push returning at `now` brought the stream to `count` elements.
    pub fn pushed(&mut self, count: u64, now: Instant) {
        while (self.done.len() as u64 + 1) * self.window <= count {
            self.done.push(now);
        }
    }

    /// At `now`, readers can see the first `covered` elements' windows.
    pub fn visible(&mut self, covered: u64, now: Instant) {
        while self.visible < self.done.len() && (self.visible as u64 + 1) * self.window <= covered {
            let lag = now.saturating_duration_since(self.done[self.visible]);
            self.lags_ms.push(ms(lag));
            self.visible += 1;
        }
    }
}

/// A `WindowTap` that records when each sorted window reaches the
/// summaries, for engines that do not publish snapshots.
#[derive(Clone, Default)]
pub struct Tap(Arc<Mutex<Vec<(usize, Instant)>>>);

impl Tap {
    pub fn hook(&self) -> WindowTap {
        let events = Arc::clone(&self.0);
        Box::new(move |sorted: &[f32]| {
            events
                .lock()
                .expect("tap lock")
                .push((sorted.len(), Instant::now()));
        })
    }

    /// Marks windows visible as the tapped windows reach the summaries.
    pub fn replay_into(&self, windows: &mut Windows) {
        let events = self.0.lock().expect("tap lock");
        let mut covered = 0u64;
        for &(len, at) in events.iter() {
            covered += len as u64;
            windows.visible(covered, at);
        }
    }
}

/// Pushes `data` in `BATCH`-element calls, timing each call. `after` runs
/// after every call (outside its timer) with the element count so far.
pub fn push_all(
    data: &[f32],
    push: &mut dyn FnMut(&[f32]),
    after: &mut dyn FnMut(u64, Instant),
    push_us: &mut Vec<f64>,
) {
    let mut count = 0u64;
    for chunk in data.chunks(BATCH) {
        let t = Instant::now();
        push(chunk);
        let now = Instant::now();
        push_us.push(crate::stats::us(now - t));
        count += chunk.len() as u64;
        after(count, now);
    }
}

/// The end-to-end samples a run collects.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub ingest_eps: Vec<f64>,
    pub push_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub disk_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Samples {
    /// Runs `setup` `SETUPS_PER_ROUND` times and records the mean of their
    /// times as one sample; each returns what it built and its own set-up
    /// time, and is dropped before the next.
    pub fn time_setups<T>(&mut self, mut setup: impl FnMut(usize) -> (T, Duration)) {
        let mut total = Duration::ZERO;
        for i in 0..SETUPS_PER_ROUND {
            let (built, took) = setup(i);
            total += took;
            drop(built);
        }
        self.setup_s
            .push(total.as_secs_f64() / SETUPS_PER_ROUND as f64);
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    pub fn report(self) -> Report {
        let mut r = Report::new(self.attempted, self.failed);
        r.correct = self.errors.is_empty();
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        r.metric("ingest_eps", median(&self.ingest_eps), "el/s");
        r.metric("push_p99_us", quantile(&self.push_us, 0.99), "us");
        r.metric("setup_s", median(&self.setup_s), "s");
        r.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        r.metric("visible_lag_p50_ms", median(&self.lag_ms), "ms");
        r.metric("recover_s", median(&self.recover_s), "s");
        r.metric("disk_mb", self.disk_mb, "MB");
        // Reported but not gated: across sets of runs on a 2-vCPU shared
        // host their quartile spread exceeded the largest bound the
        // benchmark may set (fsync latency on durable_recover, queries
        // competing with ingest for the cores on quantile_serve).
        println!(
            "ungated: push_p50_us={:.3} query_p50_us={:.3} query_p95_us={:.3}",
            median(&self.push_us),
            median(&self.query_us),
            quantile(&self.query_us, 0.95)
        );
        println!(
            "samples: setup_rounds={} rounds={} pushes={} queries={} lags={} recoveries={}",
            self.setup_s.len(),
            self.ingest_eps.len(),
            self.push_us.len(),
            self.query_us.len(),
            self.lag_ms.len(),
            self.recover_s.len()
        );
        r
    }
}

/// Per-layer figures of a traced run. Layers a workload does not exercise
/// stay at zero.
#[derive(Default)]
pub struct Layers {
    pub route_ns: f64,
    pub fill_ns: f64,
    pub sort_wait_ns: f64,
    pub windows_sealed: f64,
    pub sort_busy_ns: f64,
    pub sort_host_ns: f64,
    pub absorb_ns: [f64; 3],
    pub merge_us: f64,
    pub entries: [f64; 3],
    pub publish_us: f64,
    pub publishes: f64,
    pub checkpoint_encode_ms: f64,
    pub checkpoint_bytes: f64,
    pub restore_ms: f64,
    pub replay_ns: f64,
    pub snapshot_request_us: [f64; 4],
    pub unattributed_ns: f64,
    pub coverage: f64,
    pub wal_append_us: f64,
    pub wal_fsyncs: f64,
    pub wal_bytes: f64,
    pub checkpoint_save_ms: f64,
    pub checkpoint_load_ms: f64,
    pub wal_scan_ms: f64,
    pub call_us: f64,
    pub queue_depth_max: f64,
    pub tcp_us: f64,
}

/// Per-round medians of the mirror's layer times, per element.
#[derive(Default)]
pub struct RoundLayers {
    pub route: Vec<f64>,
    pub fill: Vec<f64>,
    pub sort_wait: Vec<f64>,
    pub absorb: [Vec<f64>; 3],
    pub unattributed: Vec<f64>,
    pub coverage: Vec<f64>,
}

impl RoundLayers {
    /// Records one mirror round of `elements` elements over `wall`.
    pub fn record(&mut self, acc: &crate::mirror::Acc, elements: usize, wall: Duration) {
        let per = |d: Duration| d.as_secs_f64() * 1e9 / elements as f64;
        self.route.push(per(acc.route.get()));
        self.fill.push(per(acc.fill_self.get()));
        self.sort_wait.push(per(acc.sort_wait.get()));
        for (k, a) in self.absorb.iter_mut().enumerate() {
            a.push(per(acc.absorb[k].get()));
        }
        let attributed = acc.attributed();
        self.unattributed.push(per(wall.saturating_sub(attributed)));
        self.coverage
            .push(attributed.as_secs_f64() / wall.as_secs_f64());
    }

    pub fn into_layers(self, layers: &mut Layers) {
        layers.route_ns = median(&self.route);
        layers.fill_ns = median(&self.fill);
        layers.sort_wait_ns = median(&self.sort_wait);
        for k in 0..3 {
            layers.absorb_ns[k] = median(&self.absorb[k]);
        }
        layers.unattributed_ns = median(&self.unattributed);
        layers.coverage = median(&self.coverage);
    }
}

impl Layers {
    pub fn report(&self, attempted: u64, failed: u64, errors: &[String]) -> Report {
        let mut r = Report::new(attempted, failed);
        r.correct = errors.is_empty();
        for e in errors {
            eprintln!("check failed: {e}");
        }
        let [absorb_q, absorb_f, absorb_s] = self.absorb_ns;
        let [entries_q, entries_f, entries_s] = self.entries;
        let [snap_q, snap_f, snap_sq, snap_sf] = self.snapshot_request_us;
        r.metric("core.route_ns_per_el", self.route_ns, "ns/el");
        r.metric("core.fill_ns_per_el", self.fill_ns, "ns/el");
        r.metric("core.sort_wait_ns_per_el", self.sort_wait_ns, "ns/el");
        r.metric("core.windows_sealed", self.windows_sealed, "count");
        r.metric("sort.busy_ns_per_el", self.sort_busy_ns, "ns/el");
        r.metric("sort.host_ns_per_el", self.sort_host_ns, "ns/el");
        r.metric("sketch.absorb_quantile_ns_per_el", absorb_q, "ns/el");
        r.metric("sketch.absorb_frequency_ns_per_el", absorb_f, "ns/el");
        r.metric("sketch.absorb_sliding_ns_per_el", absorb_s, "ns/el");
        r.metric("sketch.merge_us", self.merge_us, "us");
        r.metric("sketch.entries_quantile", entries_q, "count");
        r.metric("sketch.entries_frequency", entries_f, "count");
        r.metric("sketch.entries_sliding", entries_s, "count");
        r.metric("dsms.publish_us", self.publish_us, "us");
        r.metric("dsms.publishes", self.publishes, "count");
        r.metric("dsms.checkpoint_encode_ms", self.checkpoint_encode_ms, "ms");
        r.metric("dsms.checkpoint_bytes", self.checkpoint_bytes, "bytes");
        r.metric("dsms.restore_ms", self.restore_ms, "ms");
        r.metric("dsms.replay_ns_per_el", self.replay_ns, "ns/el");
        r.metric("dsms.snapshot_request_quantile_us", snap_q, "us");
        r.metric("dsms.snapshot_request_frequency_us", snap_f, "us");
        r.metric("dsms.snapshot_request_sliding_quantile_us", snap_sq, "us");
        r.metric("dsms.snapshot_request_sliding_frequency_us", snap_sf, "us");
        r.metric("dsms.unattributed_ns_per_el", self.unattributed_ns, "ns/el");
        r.metric("dsms.coverage", self.coverage, "ratio");
        r.metric("durable.wal_append_us", self.wal_append_us, "us");
        r.metric("durable.wal_fsyncs", self.wal_fsyncs, "count");
        r.metric("durable.wal_bytes", self.wal_bytes, "bytes");
        r.metric("durable.checkpoint_save_ms", self.checkpoint_save_ms, "ms");
        r.metric("durable.checkpoint_load_ms", self.checkpoint_load_ms, "ms");
        r.metric("durable.wal_scan_ms", self.wal_scan_ms, "ms");
        r.metric("serve.call_us", self.call_us, "us");
        r.metric("serve.queue_depth_max", self.queue_depth_max, "count");
        r.metric("serve.tcp_us", self.tcp_us, "us");
        r
    }
}
