//! The paced query generator: one thread, one loopback TCP connection to
//! `TcpFront`, requests sent on a fixed schedule whatever the server does
//! (an open loop), each timed from when it was due. Requests go out one at
//! a time: a late reply delays the next send, and that delay counts
//! against the next request too.
//!
//! Every answer is checked against `EngineSnapshot::request` on the epoch
//! the reply names, using the latest snapshot taken just before the send
//! or just after the reply; the check runs after the request's timer
//! stops.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsm_dsms::{EngineSnapshot, QueryAnswer, QueryRequest, SnapshotRegistry};
use gsm_serve::{Client, Request};

/// The paced request mix, six requests long: four quantile queries (the
/// workload's subject), one heavy-hitters and one sliding-quantile query.
/// Sliding heavy hitters stay out of the mix because one such request
/// takes over a second of server time at this width, which would swamp
/// both the server and the ingest it shares the cores with; the workload
/// sends it once per run instead, outside the timed load.
pub fn request(i: u64) -> (usize, QueryRequest) {
    const PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];
    let phi = PHIS[(i / 6) as usize % PHIS.len()];
    match i % 6 {
        1 => (1, QueryRequest::HeavyHitters { support: 0.002 }),
        4 => (2, QueryRequest::SlidingQuantile { phi }),
        _ => (0, QueryRequest::Quantile { phi }),
    }
}

/// The sliding heavy-hitters request, sent once per run and kept out of
/// the paced mix: one such request costs about a second of a serve
/// worker. It belongs in the mix once `SlidingFrequency::heavy_hitters`
/// answers in milliseconds.
pub const SLIDING_HH: (usize, QueryRequest) = (3, QueryRequest::SlidingFrequency { support: 0.02 });

/// The request line `TcpFront` parses.
pub fn wire(query: usize, req: QueryRequest) -> String {
    let verb = match req {
        QueryRequest::Quantile { .. } => "quantile",
        QueryRequest::HeavyHitters { .. } => "hh",
        QueryRequest::Hhh { .. } => "hhh",
        QueryRequest::SlidingQuantile { .. } => "squant",
        QueryRequest::SlidingFrequency { .. } => "shh",
    };
    format!("{verb} {query} {}", req.param())
}

/// The reply line `TcpFront` writes for an answer, without its trace id.
pub fn expected_reply(epoch: u64, answer: &QueryAnswer) -> String {
    match answer {
        QueryAnswer::Quantile(v) => format!("answer {epoch} quantile {v}"),
        QueryAnswer::HeavyHitters(hits) => {
            let mut out = format!("answer {epoch} hh {}", hits.len());
            for (value, count) in hits {
                out.push_str(&format!(" {value}:{count}"));
            }
            out
        }
        QueryAnswer::Hhh(_) => unreachable!("no hierarchical query is registered"),
    }
}

/// How a traced run sends each request: over TCP, through the in-process
/// client, or straight to the snapshot, in turn.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Tcp,
    Call,
    Snapshot,
}

#[derive(Default)]
pub struct Outcome {
    /// Latency from the due time, per request sent over TCP (µs).
    pub tcp_us: Vec<f64>,
    /// TCP round trip from the send (µs), without the generator's delay.
    pub tcp_sent_us: Vec<f64>,
    /// In-process `Client::call` latency (µs), traced runs only.
    pub call_us: Vec<f64>,
    /// `EngineSnapshot::request` latency per query index (µs), traced
    /// runs only.
    pub snapshot_us: [Vec<f64>; 4],
    /// How late each send left against its due time (µs).
    pub late_us: Vec<f64>,
    pub attempted: u64,
    /// Replies other than `answer`.
    pub failed: u64,
    pub checked: u64,
    /// Answers whose epoch had already been replaced on both looks.
    pub unchecked: u64,
    pub mismatched: u64,
    /// The first few mismatches, for the error message.
    pub mismatches: Vec<String>,
    pub queue_depth_max: usize,
}

impl Outcome {
    /// Adds another run's requests to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.tcp_us.extend(other.tcp_us);
        self.tcp_sent_us.extend(other.tcp_sent_us);
        self.call_us.extend(other.call_us);
        for (mine, theirs) in self.snapshot_us.iter_mut().zip(other.snapshot_us) {
            mine.extend(theirs);
        }
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.unchecked += other.unchecked;
        self.mismatched += other.mismatched;
        self.mismatches.extend(other.mismatches);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }
}

/// Sends one request line and reads its reply, without the trace id.
fn tcp_call(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    query: usize,
    req: QueryRequest,
) -> std::io::Result<String> {
    writer.write_all(format!("{}\n", wire(query, req)).as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let text = line.trim_end();
    Ok(text.split(" trace=").next().unwrap_or(text).to_string())
}

pub struct Generator {
    pub addr: SocketAddr,
    pub registry: Arc<SnapshotRegistry>,
    pub rate: f64,
    pub stop: Arc<AtomicBool>,
    /// In-process client; when set, requests rotate over every path.
    pub traced: Option<Client>,
    pub queue_depth: Option<Box<dyn Fn() -> usize + Send>>,
    /// Send `SLIDING_HH` once over TCP after the paced load stops.
    pub sliding_hh_at_end: bool,
    /// Index of the first request in the mix, so that successive traced
    /// rounds continue the rotation over kinds and paths.
    pub first_request: u64,
}

impl Generator {
    pub fn run(self) -> std::io::Result<Outcome> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut out = Outcome::default();
        let period = Duration::from_secs_f64(1.0 / self.rate);
        let start = Instant::now();
        let mut i = self.first_request;
        while !self.stop.load(Ordering::Acquire) {
            let due = start + period * (i - self.first_request) as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            let (query, req) = request(i);
            // Each kind takes every path in turn: the rotation shifts by
            // one with every six-request block of the mix.
            let path = match (&self.traced, (i + i / 6) % 3) {
                (None, _) | (Some(_), 0) => Path::Tcp,
                (Some(_), 1) => Path::Call,
                _ => Path::Snapshot,
            };
            i += 1;
            if let Some(depth) = &self.queue_depth {
                out.queue_depth_max = out.queue_depth_max.max(depth());
            }
            let before = self.registry.latest();
            let sent = Instant::now();
            out.late_us.push(crate::stats::us(sent - due));
            out.attempted += 1;
            let reply = match path {
                Path::Tcp => {
                    let reply = tcp_call(&mut writer, &mut reader, query, req)?;
                    out.tcp_us.push(crate::stats::us(due.elapsed()));
                    out.tcp_sent_us.push(crate::stats::us(sent.elapsed()));
                    reply
                }
                Path::Call => {
                    let client = self.traced.as_ref().expect("traced run");
                    let reply = client.call(Request::from_typed(query, req));
                    out.call_us.push(crate::stats::us(sent.elapsed()));
                    match reply {
                        gsm_serve::Reply::Answer { epoch, answer } => {
                            expected_reply(epoch, &answer)
                        }
                        other => format!("{other:?}"),
                    }
                }
                Path::Snapshot => {
                    let snap = before
                        .as_ref()
                        .expect("the generator starts after a publication");
                    let t = Instant::now();
                    let answer = snap.request(query, req);
                    out.snapshot_us[query].push(crate::stats::us(t.elapsed()));
                    match answer {
                        Ok(a) => expected_reply(snap.epoch(), &a),
                        Err(e) => format!("{e:?}"),
                    }
                }
            };
            self.check(&reply, query, req, before, &mut out);
        }
        if self.sliding_hh_at_end {
            let (query, req) = SLIDING_HH;
            let before = self.registry.latest();
            let reply = tcp_call(&mut writer, &mut reader, query, req)?;
            out.attempted += 1;
            self.check(&reply, query, req, before, &mut out);
        }
        writer.write_all(b"quit\n")?;
        Ok(out)
    }

    fn check(
        &self,
        reply: &str,
        query: usize,
        req: QueryRequest,
        before: Option<Arc<EngineSnapshot>>,
        out: &mut Outcome,
    ) {
        let Some(epoch) = reply
            .strip_prefix("answer ")
            .and_then(|r| r.split(' ').next())
            .and_then(|e| e.parse::<u64>().ok())
        else {
            out.failed += 1;
            return;
        };
        let snap = before
            .filter(|s| s.epoch() == epoch)
            .or_else(|| self.registry.latest().filter(|s| s.epoch() == epoch));
        let Some(snap) = snap else {
            out.unchecked += 1;
            return;
        };
        out.checked += 1;
        let expected = match snap.request(query, req) {
            Ok(a) => expected_reply(epoch, &a),
            Err(e) => format!("{e:?}"),
        };
        if expected != reply {
            out.mismatched += 1;
            if out.mismatches.len() < 4 {
                out.mismatches
                    .push(format!("reply '{reply}' but snapshot says '{expected}'"));
            }
        }
    }
}
