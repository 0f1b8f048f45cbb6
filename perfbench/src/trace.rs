//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, by adapters that wrap the services' own public handlers.
//!
//! Spans carry no request id on the wire. Each one instead carries a key
//! hashed from the message content it saw; a leaf sees the same content
//! as the mid-tier and the front-end (the query vector, the term list, the
//! key and value). A span is joined to the request with that key which was
//! in flight over the whole span.

use musuite_core::{LeafHandler, MidTierHandler, Plan, ServiceError};
use musuite_rpc::RpcError;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Front-end request encoding, in the load generator.
    Encode,
    /// The mid-tier handler's `plan` (candidate lookup, routing).
    Plan,
    /// One leaf handler invocation: `handle` or `handle_batch`.
    Leaf,
    /// The mid-tier handler's `merge` of leaf replies.
    Merge,
}

impl Layer {
    /// Every layer, in request order.
    pub const ALL: [Layer; 4] = [Layer::Encode, Layer::Plan, Layer::Leaf, Layer::Merge];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Encode => "client.encode",
            Layer::Plan => "midtier.plan",
            Layer::Leaf => "leaf.kernel",
            Layer::Merge => "midtier.merge",
        }
    }
}

/// One recorded interval, in ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Where it was recorded.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Content key of the request the span worked on.
    pub key: u64,
    /// Requests handled by the invocation (batch size for leaves).
    pub members: u32,
    /// True for the first member's span of an invocation, so that
    /// per-invocation figures count each invocation once.
    pub first: bool,
    /// Leaf calls a plan fanned out to; zero for other layers.
    pub width: u32,
}

/// In-memory span store shared by every adapter of a traced cluster.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
    replies_ok: AtomicU64,
}

impl Tracer {
    /// A tracer timing against `epoch`; recording starts switched off.
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(1 << 18)),
            replies_ok: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Stores a span if recording.
    pub fn record(&self, span: Span) {
        if self.is_on() {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Successful leaf replies handed to `merge` while recording.
    pub fn replies_ok(&self) -> u64 {
        self.replies_ok.load(Ordering::Relaxed)
    }
}

/// Content key of a message, equal for the front-end request and every
/// leaf request derived from it.
pub trait TraceKey {
    /// The key.
    fn trace_key(&self) -> u64;
}

/// FNV-1a over 64-bit words, finished with a SplitMix64 round.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl KeyHasher {
    /// Mixes in one word.
    pub fn word(mut self, w: u64) -> KeyHasher {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        self
    }

    /// Mixes in bytes, eight at a time.
    pub fn bytes(mut self, bytes: &[u8]) -> KeyHasher {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self = self.word(u64::from_le_bytes(word));
        }
        self.word(bytes.len() as u64)
    }

    /// The key.
    pub fn finish(self) -> u64 {
        crate::rng::mix(self.0)
    }
}

/// A mid-tier handler wrapped in `plan` and `merge` spans.
#[derive(Debug)]
pub struct TracedMid<H> {
    inner: H,
    tracer: Arc<Tracer>,
}

impl<H> TracedMid<H> {
    /// Wraps `inner`.
    pub fn new(inner: H, tracer: Arc<Tracer>) -> TracedMid<H> {
        TracedMid { inner, tracer }
    }
}

impl<H> MidTierHandler for TracedMid<H>
where
    H: MidTierHandler,
    H::Request: TraceKey,
{
    type Request = H::Request;
    type Response = H::Response;
    type SharedRequest = H::SharedRequest;
    type LeafRequest = H::LeafRequest;
    type LeafResponse = H::LeafResponse;

    fn plan(&self, request: &H::Request, leaves: usize) -> Plan<H::SharedRequest, H::LeafRequest> {
        let start_ns = self.tracer.now_ns();
        let plan = self.inner.plan(request, leaves);
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            layer: Layer::Plan,
            start_ns,
            end_ns,
            key: request.trace_key(),
            members: 1,
            first: true,
            width: plan.len() as u32,
        });
        plan
    }

    fn merge(
        &self,
        request: H::Request,
        replies: Vec<Result<H::LeafResponse, RpcError>>,
    ) -> Result<H::Response, ServiceError> {
        let key = request.trace_key();
        if self.tracer.is_on() {
            let ok = replies.iter().filter(|r| r.is_ok()).count() as u64;
            self.tracer.replies_ok.fetch_add(ok, Ordering::Relaxed);
        }
        let start_ns = self.tracer.now_ns();
        let response = self.inner.merge(request, replies);
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            layer: Layer::Merge,
            start_ns,
            end_ns,
            key,
            members: 1,
            first: true,
            width: 0,
        });
        response
    }
}

/// A leaf handler wrapped in one span per `handle`/`handle_batch` call.
/// `handle_batch` forwards to the inner batch kernel, never to the
/// sequential default.
#[derive(Debug)]
pub struct TracedLeaf<L> {
    inner: L,
    tracer: Arc<Tracer>,
}

impl<L> TracedLeaf<L> {
    /// Wraps `inner`.
    pub fn new(inner: L, tracer: Arc<Tracer>) -> TracedLeaf<L> {
        TracedLeaf { inner, tracer }
    }

    fn record(&self, keys: &[u64], start_ns: u64, end_ns: u64) {
        for (i, &key) in keys.iter().enumerate() {
            self.tracer.record(Span {
                layer: Layer::Leaf,
                start_ns,
                end_ns,
                key,
                members: keys.len() as u32,
                first: i == 0,
                width: 0,
            });
        }
    }
}

impl<L> LeafHandler for TracedLeaf<L>
where
    L: LeafHandler,
    L::Request: TraceKey,
{
    type Request = L::Request;
    type Response = L::Response;

    fn handle(&self, request: L::Request) -> Result<L::Response, ServiceError> {
        let key = request.trace_key();
        let start_ns = self.tracer.now_ns();
        let response = self.inner.handle(request);
        self.record(&[key], start_ns, self.tracer.now_ns());
        response
    }

    fn handle_batch(&self, requests: Vec<L::Request>) -> Vec<Result<L::Response, ServiceError>> {
        let keys: Vec<u64> = requests.iter().map(TraceKey::trace_key).collect();
        let start_ns = self.tracer.now_ns();
        let responses = self.inner.handle_batch(requests);
        self.record(&keys, start_ns, self.tracer.now_ns());
        responses
    }
}

/// One completed front-end request of the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// Content key.
    pub key: u64,
    /// Scheduled send time: the start of its end-to-end latency.
    pub sched_ns: u64,
    /// When the load generator started encoding and sending it.
    pub sent_ns: u64,
    /// When its response reached the client.
    pub done_ns: u64,
    /// End of its encoding (the encode span is `sent_ns..encoded_ns`).
    pub encoded_ns: u64,
}

/// Where the traced requests spent their time.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Mean end-to-end latency of the traced requests, µs.
    pub e2e_us: f64,
    /// Per layer (in `Layer::ALL` order): mean span time per request, µs.
    /// Leaf time sums every leaf span of the request, parallel ones too.
    pub layer_us: [f64; 4],
    /// Mean part of the end-to-end time covered by no span, µs: network,
    /// queueing, wakeups, and the program's own codec and dispatch.
    pub unattributed_us: f64,
    /// Share of server-side spans joined to a request.
    pub joined_frac: f64,
    /// Request index each span was joined to.
    pub parents: Vec<Option<usize>>,
}

/// Joins spans to requests and splits each request's latency into layer
/// time and the unattributed rest. Overlapping spans (parallel leaves)
/// count once toward the covered time.
pub fn attribute(requests: &[RequestRecord], spans: &[Span]) -> Attribution {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].sent_ns);
    for i in order {
        by_key.entry(requests[i].key).or_default().push(i);
    }
    let mut children: Vec<Vec<(u64, u64, Layer)>> =
        requests.iter().map(|r| vec![(r.sent_ns, r.encoded_ns, Layer::Encode)]).collect();
    let mut joined = 0usize;
    let parents: Vec<Option<usize>> = spans
        .iter()
        .map(|s| {
            let candidates = by_key.get(&s.key)?;
            let after = candidates.partition_point(|&i| requests[i].sent_ns <= s.start_ns);
            let i = candidates[after.checked_sub(1)?];
            (requests[i].done_ns >= s.end_ns).then(|| {
                children[i].push((s.start_ns, s.end_ns, s.layer));
                joined += 1;
                i
            })
        })
        .collect();
    let n = requests.len().max(1) as f64;
    let mut out = Attribution { parents, ..Attribution::default() };
    for (r, kids) in requests.iter().zip(&mut children) {
        let (lo, hi) = (r.sched_ns, r.done_ns.max(r.sched_ns));
        let mut covered = 0u64;
        let mut reach = lo;
        kids.sort_by_key(|k| k.0);
        for &(start, end, layer) in kids.iter() {
            let (start, end) = (start.clamp(lo, hi), end.clamp(lo, hi));
            let slot = Layer::ALL.iter().position(|&l| l == layer).expect("known layer");
            out.layer_us[slot] += (end - start) as f64 / 1e3 / n;
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        out.e2e_us += (hi - lo) as f64 / 1e3 / n;
        out.unattributed_us += (hi - lo - covered) as f64 / 1e3 / n;
    }
    out.joined_frac = joined as f64 / spans.len().max(1) as f64;
    out
}

/// Writes the requests and spans as tab-separated rows: kind, start and
/// end in ns since the epoch, parent request index (-1 if none), content
/// key, and members.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_tsv(
    path: &std::path::Path,
    requests: &[RequestRecord],
    spans: &[Span],
    parents: &[Option<usize>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind\tstart_ns\tend_ns\tparent\tkey\tmembers")?;
    for (i, r) in requests.iter().enumerate() {
        writeln!(out, "request\t{}\t{}\t{i}\t{:016x}\t1", r.sched_ns, r.done_ns, r.key)?;
    }
    for (s, parent) in spans.iter().zip(parents) {
        let parent = parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{:016x}\t{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.key,
            s.members
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, key: u64) -> Span {
        Span { layer, start_ns, end_ns, key, members: 1, first: true, width: 0 }
    }

    #[test]
    fn parallel_spans_count_once_toward_coverage() {
        let requests =
            [RequestRecord { key: 7, sched_ns: 0, sent_ns: 10, encoded_ns: 20, done_ns: 100 }];
        let spans = [
            span(Layer::Plan, 20, 30, 7),
            span(Layer::Leaf, 40, 60, 7),
            span(Layer::Leaf, 50, 70, 7),
            span(Layer::Merge, 80, 90, 7),
            span(Layer::Leaf, 40, 60, 8), // another request's key
        ];
        let a = attribute(&requests, &spans);
        // Covered: 10..30, 40..70, 80..90 = 60 ns of 100.
        assert!((a.unattributed_us - 0.040).abs() < 1e-9);
        assert!((a.layer_us[2] - 0.040).abs() < 1e-9, "both leaf spans count as leaf time");
        assert_eq!(a.parents, vec![Some(0), Some(0), Some(0), Some(0), None]);
        assert!((a.joined_frac - 0.8).abs() < 1e-9);
    }

    #[test]
    fn spans_join_the_request_in_flight() {
        let requests = [
            RequestRecord { key: 1, sched_ns: 0, sent_ns: 0, encoded_ns: 1, done_ns: 50 },
            RequestRecord { key: 1, sched_ns: 100, sent_ns: 100, encoded_ns: 101, done_ns: 150 },
        ];
        let spans = [span(Layer::Plan, 110, 120, 1), span(Layer::Plan, 60, 70, 1)];
        assert_eq!(attribute(&requests, &spans).parents, vec![Some(1), None]);
    }
}
