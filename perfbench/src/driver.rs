//! The load generator: one thread over `CONNECTIONS` front-end
//! connections, issuing requests with `RpcClient::call_async_opts`.
//!
//! Responses are timestamped in the client's callback and handed back to
//! the generator thread, which decodes and checks them between sends.

use crate::rng::Rng;
use crate::trace::{RequestRecord, TraceKey};
use crate::workloads::{Stream, Timing, CONNECTIONS};
use bytes::Bytes;
use musuite_core::cluster::QUERY_METHOD;
use musuite_rpc::{Priority, RpcClient, RpcError};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long a phase waits for its outstanding requests after its last
/// send; requests still unanswered then count as failed.
pub const DRAIN: Duration = Duration::from_secs(3);

struct Completion {
    id: u64,
    done_ns: u64,
    result: Result<Bytes, RpcError>,
}

struct InFlight {
    tag: u64,
    conn: usize,
    sched_ns: u64,
    sent_ns: u64,
    encoded_ns: u64,
    key: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// End-to-end latency of each correct answer, from its scheduled send.
    pub latencies_ns: Vec<u64>,
    /// Lateness of each send against its schedule (open loop only).
    pub lags_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Answers that failed to decode or differ from the reference.
    pub wrong: u64,
    /// Requests still unanswered when the drain bound ran out.
    pub undrained: u64,
    /// Answers that arrived inside the measured window (closed loop only).
    pub in_window: u64,
    /// Length of the measured window, s.
    pub window_s: f64,
    /// Process CPU time from the phase's start to its drained end, µs.
    pub cpu_us: f64,
    /// Raw answer payloads in send order, when kept.
    pub payloads: Vec<Vec<u8>>,
}

impl Phase {
    /// Errors, wrong answers, and undrained requests.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.undrained
    }
}

/// Client-side codec work of the traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecTally {
    /// Requests encoded.
    pub encodes: u64,
    /// Time in `to_bytes`, ns.
    pub encode_ns: u64,
    /// Encoded request bytes.
    pub req_bytes: u64,
    /// Responses decoded.
    pub decodes: u64,
    /// Time in `Decode`, ns.
    pub decode_ns: u64,
    /// Response bytes decoded.
    pub resp_bytes: u64,
}

/// Per-request records kept during a traced phase.
#[derive(Debug, Default)]
pub struct Tracing {
    /// Each correctly answered request.
    pub records: Vec<RequestRecord>,
    /// Client-side codec work.
    pub codec: CodecTally,
}

/// A load generator bound to one deployment and one request stream.
pub struct Driver<S: Stream> {
    clients: Vec<RpcClient>,
    epoch: Instant,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    next_id: u64,
    inflight: HashMap<u64, InFlight>,
    keep_payloads: bool,
    /// The request sequence and its checker.
    pub stream: S,
    /// Present while a traced phase records.
    pub tracing: Option<Tracing>,
}

impl<S: Stream> Driver<S> {
    /// Opens `CONNECTIONS` connections to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the first connection error.
    pub fn connect(addr: SocketAddr, epoch: Instant, stream: S) -> Result<Driver<S>, RpcError> {
        let clients =
            (0..CONNECTIONS).map(|_| RpcClient::connect(addr)).collect::<Result<_, _>>()?;
        let (tx, rx) = mpsc::channel();
        Ok(Driver {
            clients,
            epoch,
            tx,
            rx,
            next_id: 0,
            inflight: HashMap::new(),
            keep_payloads: false,
            stream,
            tracing: None,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, conn: usize, sched_ns: u64) {
        let (request, tag) = self.stream.next();
        let sent_ns = self.now_ns();
        let payload = musuite_codec::to_bytes(&request);
        let encoded_ns = self.now_ns();
        let key = match &mut self.tracing {
            Some(t) => {
                t.codec.encodes += 1;
                t.codec.encode_ns += encoded_ns - sent_ns;
                t.codec.req_bytes += payload.len() as u64;
                request.trace_key()
            }
            None => 0,
        };
        let id = self.next_id;
        self.next_id += 1;
        let (tx, epoch) = (self.tx.clone(), self.epoch);
        self.clients[conn].call_async_opts(
            QUERY_METHOD,
            payload,
            None,
            Priority::Normal,
            move |result| {
                let done_ns = epoch.elapsed().as_nanos() as u64;
                // The generator may have given up on this request; then nobody listens.
                let _ = tx.send(Completion { id, done_ns, result });
            },
        );
        self.inflight.insert(id, InFlight { tag, conn, sched_ns, sent_ns, encoded_ns, key });
    }

    /// Checks one answer; returns its connection, or `None` for an answer
    /// to a request an earlier phase already gave up on.
    fn complete(&mut self, c: Completion, phase: &mut Phase) -> Option<usize> {
        let f = self.inflight.remove(&c.id)?;
        let bytes = match c.result {
            Ok(bytes) => bytes,
            Err(e) => {
                if phase.errors < 3 {
                    eprintln!("perfbench: request failed: {e}");
                }
                phase.errors += 1;
                return Some(f.conn);
            }
        };
        let decode_start = self.now_ns();
        let decoded = musuite_codec::from_bytes::<S::Resp>(&bytes);
        let decode_ns = self.now_ns() - decode_start;
        let timing = Timing { sched_ns: f.sched_ns, sent_ns: f.sent_ns, done_ns: c.done_ns };
        let correct = decoded.is_ok_and(|response| self.stream.check(f.tag, timing, &response));
        if !correct {
            if phase.wrong < 3 {
                eprintln!("perfbench: wrong answer to request tag {}", f.tag);
            }
            phase.wrong += 1;
            return Some(f.conn);
        }
        phase.latencies_ns.push(c.done_ns.saturating_sub(f.sched_ns));
        if self.keep_payloads {
            phase.payloads.push(bytes.to_vec());
        }
        if let Some(t) = &mut self.tracing {
            t.codec.decodes += 1;
            t.codec.decode_ns += decode_ns;
            t.codec.resp_bytes += bytes.len() as u64;
            t.records.push(RequestRecord {
                key: f.key,
                sched_ns: f.sched_ns,
                sent_ns: f.sent_ns,
                encoded_ns: f.encoded_ns,
                done_ns: c.done_ns,
            });
        }
        Some(f.conn)
    }

    /// Waits for the outstanding requests, at most `DRAIN`; the rest
    /// count as undrained.
    fn drain(&mut self, phase: &mut Phase) {
        let deadline = Instant::now() + DRAIN;
        while !self.inflight.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(c) => {
                    self.complete(c, phase);
                }
                Err(_) => break,
            }
        }
        phase.undrained += self.inflight.len() as u64;
        self.inflight.clear();
    }

    fn finish(&mut self, mut phase: Phase, cpu_start: f64) -> Phase {
        self.drain(&mut phase);
        let wrong = self.stream.finish();
        if wrong > 0 {
            eprintln!("perfbench: {wrong} answers contradict the history of earlier answers");
        }
        phase.wrong += wrong;
        phase.cpu_us = crate::procfs::cpu_us() - cpu_start;
        phase
    }

    /// Open loop: Poisson arrivals at `qps` for `duration`, alternating
    /// connections. Latency counts from each request's scheduled time.
    pub fn open_loop(&mut self, qps: f64, duration: Duration, rng: &mut Rng) -> Phase {
        let mut phase = Phase::default();
        let cpu_start = crate::procfs::cpu_us();
        let start = self.now_ns();
        let end = start + duration.as_nanos() as u64;
        let mut next = start as f64;
        let mut conn = 0;
        loop {
            let due = next as u64;
            if due >= end {
                break;
            }
            let now = self.now_ns();
            if now >= due {
                phase.lags_ns.push(now - due);
                self.send(conn, due);
                phase.attempted += 1;
                conn = (conn + 1) % CONNECTIONS;
                next += rng.exp1() * 1e9 / qps;
            } else {
                match self.rx.recv_timeout(Duration::from_nanos(due - now)) {
                    Ok(c) => {
                        self.complete(c, &mut phase);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("the generator holds a sender")
                    }
                }
            }
        }
        phase.window_s = (end - start) as f64 / 1e9;
        self.finish(phase, cpu_start)
    }

    /// Closed loop: each connection keeps `window` requests outstanding
    /// for `duration`. Throughput counts answers inside the window.
    pub fn closed_loop(&mut self, window: usize, duration: Duration) -> Phase {
        let mut phase = Phase::default();
        let cpu_start = crate::procfs::cpu_us();
        let start = self.now_ns();
        let end = start + duration.as_nanos() as u64;
        for conn in 0..CONNECTIONS {
            for _ in 0..window {
                self.send(conn, start);
                phase.attempted += 1;
            }
        }
        loop {
            let now = self.now_ns();
            if now >= end {
                break;
            }
            let Ok(c) = self.rx.recv_timeout(Duration::from_nanos(end - now)) else { continue };
            let done_ns = c.done_ns;
            if let Some(conn) = self.complete(c, &mut phase) {
                if done_ns <= end {
                    phase.in_window += 1;
                }
                let now = self.now_ns();
                if now < end {
                    self.send(conn, now);
                    phase.attempted += 1;
                }
            }
        }
        phase.window_s = (end - start) as f64 / 1e9;
        self.finish(phase, cpu_start)
    }

    /// Sends `n` requests one at a time and keeps every answer's payload.
    pub fn sequential(&mut self, n: usize) -> Phase {
        let mut phase = Phase::default();
        let cpu_start = crate::procfs::cpu_us();
        self.keep_payloads = true;
        for _ in 0..n {
            let now = self.now_ns();
            self.send(0, now);
            phase.attempted += 1;
            self.drain(&mut phase);
        }
        self.keep_payloads = false;
        self.finish(phase, cpu_start)
    }
}
