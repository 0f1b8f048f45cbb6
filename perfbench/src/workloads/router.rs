//! `router_ycsb_a`: YCSB-A (50/50 get/set, Zipf 0.99) through the
//! replicating router on the paper-default edge.
//!
//! Every stored value carries its key's rank and a sequence number, so a
//! get can be checked against the write history: it must return a value
//! that was written to that key, and no write may have superseded it
//! before the get was sent. A write supersedes another when it was sent
//! after the other was acknowledged and was itself acknowledged before
//! the get was sent; concurrent writes may land in either order.

use super::{Deployed, Stream, Timing, Workload};
use crate::rng::mix;
use crate::trace::{KeyHasher, TraceKey, TracedLeaf, TracedMid, Tracer};
use musuite_core::cluster::QUERY_METHOD;
use musuite_core::{Cluster, ClusterConfig};
use musuite_data::kv::{KvOp, KvWorkload, KvWorkloadConfig};
use musuite_router::memkv::MemKvConfig;
use musuite_router::protocol::{KvRequest, KvResponse};
use musuite_router::service::RouterService;
use musuite_router::{RouterLeaf, RouterMidTier};
use musuite_rpc::{Priority, RpcClient, RpcError};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LEAVES: usize = 4;
const REPLICAS: usize = 3;
const KEYS: usize = 10_000;
const VALUE_LEN: usize = 128;
/// Preload sets kept outstanding at once.
const PRELOAD_WINDOW: usize = 64;

impl TraceKey for KvRequest {
    fn trace_key(&self) -> u64 {
        let h = KeyHasher::default().bytes(self.key().as_bytes());
        match self {
            KvRequest::Set { value, .. } | KvRequest::SetEx { value, .. } => h.bytes(value),
            KvRequest::Get { .. } | KvRequest::Delete { .. } => h.word(u64::MAX),
        }
        .finish()
    }
}

fn config() -> ClusterConfig {
    ClusterConfig::new().leaves(LEAVES)
}

fn rank_of(key: &str) -> u32 {
    key.strip_prefix("user").and_then(|r| r.parse().ok()).expect("keys are user<rank>")
}

/// The value written to key `rank` by write `seq` (0 = preload): rank,
/// sequence number, then filler derived from both.
fn value(rank: u32, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&rank.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let mut word = (u64::from(rank) << 40) ^ seq;
    while v.len() < VALUE_LEN {
        word = mix(word);
        v.extend_from_slice(&word.to_le_bytes());
    }
    v.truncate(VALUE_LEN);
    v
}

fn parse_value(v: &[u8]) -> Option<(u32, u64)> {
    let rank = u32::from_le_bytes(v.get(..4)?.try_into().ok()?);
    let seq = u64::from_le_bytes(v.get(4..12)?.try_into().ok()?);
    Some((rank, seq))
}

/// The data is the request stream itself, drawn from the stream's seed.
pub struct Router {
    corrupt: bool,
}

impl Router {
    /// The value a correct store holds for `(rank, seq)`; corrupted for
    /// rank 0 (the hottest key) when the reference is corrupted.
    fn expected(corrupt: bool, rank: u32, seq: u64) -> Vec<u8> {
        let mut v = value(rank, seq);
        if corrupt && rank == 0 {
            v[VALUE_LEN - 1] ^= 1;
        }
        v
    }
}

impl Workload for Router {
    type Stream = RouterStream;
    const NAME: &'static str = "router_ycsb_a";
    const MID_QPS: f64 = 6_000.0;

    fn generate(_seed: u64) -> Router {
        Router { corrupt: false }
    }

    fn launch(&self) -> Result<Deployed, RpcError> {
        RouterService::launch_with(config(), REPLICAS, MemKvConfig::default()).map(Deployed::Router)
    }

    fn launch_traced(&self, tracer: &Arc<Tracer>) -> Result<Deployed, RpcError> {
        let leaf_tracer = tracer.clone();
        Cluster::launch(
            config(),
            TracedMid::new(RouterMidTier::new(REPLICAS), tracer.clone()),
            move |_| TracedLeaf::new(RouterLeaf::new(MemKvConfig::default()), leaf_tracer.clone()),
        )
        .map(Deployed::Traced)
    }

    /// Stores sequence 0 under every key, so that every get hits.
    fn preload(&self, deployed: &Deployed) -> Result<(), String> {
        let client =
            RpcClient::connect(deployed.cluster().midtier_addr()).map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<Result<bytes::Bytes, RpcError>>();
        let mut outstanding = 0usize;
        let wait_one = |outstanding: &mut usize| -> Result<(), String> {
            let reply = rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "preload stalled".to_string())?
                .map_err(|e| format!("preload set failed: {e}"))?;
            *outstanding -= 1;
            match musuite_codec::from_bytes::<KvResponse>(&reply) {
                Ok(KvResponse::Stored) => Ok(()),
                other => Err(format!("preload set answered {other:?}")),
            }
        };
        for rank in 0..KEYS {
            if outstanding == PRELOAD_WINDOW {
                wait_one(&mut outstanding)?;
            }
            let request = KvRequest::Set {
                key: KvWorkload::key_for_rank(rank),
                value: value(rank as u32, 0),
            };
            let tx = tx.clone();
            client.call_async_opts(
                QUERY_METHOD,
                musuite_codec::to_bytes(&request),
                None,
                Priority::Normal,
                move |reply| {
                    let _ = tx.send(reply);
                },
            );
            outstanding += 1;
        }
        while outstanding > 0 {
            wait_one(&mut outstanding)?;
        }
        Ok(())
    }

    fn probe(&self) -> KvRequest {
        KvRequest::Get { key: KvWorkload::key_for_rank(0) }
    }

    fn prepare(&mut self, corrupt: bool) {
        self.corrupt = corrupt;
    }

    fn check_probe(&self, response: &KvResponse) -> bool {
        matches!(response, KvResponse::Value(Some(v)) if *v == Router::expected(self.corrupt, 0, 0))
    }

    fn stream(&self, seed: u64) -> RouterStream {
        RouterStream {
            ops: KvWorkload::new(KvWorkloadConfig {
                keys: KEYS,
                value_len: VALUE_LEN,
                zipf_exponent: 0.99,
                get_fraction: 0.5,
                seed,
            }),
            next_seq: 1,
            phase: Vec::new(),
            keys: HashMap::new(),
            corrupt: self.corrupt,
        }
    }
}

/// One issued operation of the current phase and what became of it.
#[derive(Debug, Clone, Copy)]
struct Op {
    rank: u32,
    /// `Some(seq)` for a set.
    write: Option<u64>,
    /// For a get: the sequence number it returned.
    read: Option<u64>,
    /// Send time; 0 while unknown.
    sent_ns: u64,
    /// Acknowledgement time; `u64::MAX` while unknown.
    done_ns: u64,
}

/// A write that a later get may still legally return.
#[derive(Debug, Clone, Copy)]
struct Write {
    seq: u64,
    sent_ns: u64,
    done_ns: u64,
}

/// What earlier phases leave behind for one key. Every earlier phase was
/// drained, so each of its acknowledged writes was acknowledged before any
/// later get was sent.
#[derive(Debug, Clone)]
struct KeyState {
    /// Latest send time among the acknowledged writes.
    acked_sent_ns: u64,
    /// Writes no acknowledged write has superseded (the preload first).
    live: Vec<Write>,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState { acked_sent_ns: 0, live: DEFAULT_LIVE.to_vec() }
    }
}

/// YCSB-A operations with checkable values, and their history.
pub struct RouterStream {
    ops: KvWorkload,
    next_seq: u64,
    /// This phase's operations, indexed by tag.
    phase: Vec<Op>,
    keys: HashMap<u32, KeyState>,
    corrupt: bool,
}

impl Stream for RouterStream {
    type Req = KvRequest;
    type Resp = KvResponse;

    fn next(&mut self) -> (KvRequest, u64) {
        let tag = self.phase.len() as u64;
        let (request, rank, write) = match self.ops.next_op() {
            KvOp::Get { key } => {
                let rank = rank_of(&key);
                (KvRequest::Get { key }, rank, None)
            }
            KvOp::Set { key, .. } => {
                let rank = rank_of(&key);
                let seq = self.next_seq;
                self.next_seq += 1;
                (KvRequest::Set { key, value: value(rank, seq) }, rank, Some(seq))
            }
        };
        self.phase.push(Op { rank, write, read: None, sent_ns: 0, done_ns: u64::MAX });
        (request, tag)
    }

    fn check(&mut self, tag: u64, timing: Timing, response: &KvResponse) -> bool {
        let corrupt = self.corrupt;
        let op = &mut self.phase[tag as usize];
        op.sent_ns = timing.sent_ns;
        match (op.write, response) {
            (Some(_), KvResponse::Stored) => {
                op.done_ns = timing.done_ns;
                true
            }
            (None, KvResponse::Value(Some(v))) => match parse_value(v) {
                Some((rank, seq))
                    if rank == op.rank && *v == Router::expected(corrupt, rank, seq) =>
                {
                    op.read = Some(seq);
                    op.done_ns = timing.done_ns;
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Checks this phase's gets against the write history, then folds the
    /// phase's writes into the per-key state.
    fn finish(&mut self) -> u64 {
        let phase = std::mem::take(&mut self.phase);
        // Per key: this phase's writes, and its acknowledged writes as
        // (ack, sent) sorted by ack with the running maximum of `sent`.
        let mut writes: HashMap<u32, Vec<Write>> = HashMap::new();
        let mut acked: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for op in &phase {
            if let Some(seq) = op.write {
                writes.entry(op.rank).or_default().push(Write {
                    seq,
                    sent_ns: op.sent_ns,
                    done_ns: op.done_ns,
                });
                if op.done_ns != u64::MAX {
                    acked.entry(op.rank).or_default().push((op.done_ns, op.sent_ns));
                }
            }
        }
        for list in acked.values_mut() {
            list.sort_unstable();
            let mut latest = 0;
            for w in list.iter_mut() {
                latest = latest.max(w.1);
                w.1 = latest;
            }
        }
        let mut wrong = 0;
        for get in phase.iter().filter(|op| op.write.is_none()) {
            let Some(seq) = get.read else { continue };
            let state = self.keys.get(&get.rank);
            let earlier = match state {
                Some(state) => state.live.iter(),
                None => DEFAULT_LIVE.iter(),
            };
            let here = writes.get(&get.rank).into_iter().flatten();
            let Some(w) = earlier.chain(here).find(|w| w.seq == seq) else {
                // Never written to this key, or superseded in an earlier phase.
                wrong += 1;
                continue;
            };
            let from_future = w.sent_ns > get.done_ns;
            let mut latest_acked = state.map_or(0, |s| s.acked_sent_ns);
            if let Some(list) = acked.get(&get.rank) {
                let before = list.partition_point(|&(done, _)| done < get.sent_ns);
                if before > 0 {
                    latest_acked = latest_acked.max(list[before - 1].1);
                }
            }
            if from_future || latest_acked > w.done_ns {
                wrong += 1;
            }
        }
        for (rank, new) in writes {
            let state = self.keys.entry(rank).or_default();
            for w in &new {
                if w.done_ns != u64::MAX {
                    state.acked_sent_ns = state.acked_sent_ns.max(w.sent_ns);
                }
            }
            state.live.extend(new);
            let latest = state.acked_sent_ns;
            state.live.retain(|w| w.done_ns >= latest);
        }
        wrong
    }
}

/// The state of a key no phase has written yet: its preload.
static DEFAULT_LIVE: [Write; 1] = [Write { seq: 0, sent_ns: 0, done_ns: 0 }];

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> RouterStream {
        Router { corrupt: false }.stream(2)
    }

    fn t(sent_ns: u64, done_ns: u64) -> Timing {
        Timing { sched_ns: sent_ns, sent_ns, done_ns }
    }

    /// Pushes a set of `rank` and a get of `rank` by hand.
    fn history(s: &mut RouterStream, rank: u32) -> (u64, u64, u64) {
        let set = s.phase.len() as u64;
        s.phase.push(Op { rank, write: Some(7), read: None, sent_ns: 0, done_ns: u64::MAX });
        s.next_seq = 8;
        let get = s.phase.len() as u64;
        s.phase.push(Op { rank, write: None, read: None, sent_ns: 0, done_ns: u64::MAX });
        (set, get, 7)
    }

    #[test]
    fn values_round_trip() {
        assert_eq!(parse_value(&value(42, 9)), Some((42, 9)));
        assert_eq!(value(1, 2).len(), VALUE_LEN);
        assert_ne!(value(1, 2), value(1, 3));
    }

    #[test]
    fn stale_read_after_acknowledged_write_is_wrong() {
        let mut s = stream();
        let (set, get, seq) = history(&mut s, 5);
        assert!(s.check(set, t(10, 20), &KvResponse::Stored));
        // The get was sent after the set was acknowledged but saw the preload.
        let phase = s.phase.clone();
        assert!(s.check(get, t(30, 40), &KvResponse::Value(Some(value(5, 0)))));
        assert_eq!(s.finish(), 1);
        // Seeing the write itself is fine.
        s.phase = phase;
        assert!(s.check(get, t(30, 40), &KvResponse::Value(Some(value(5, seq)))));
        s.keys.clear();
        assert_eq!(s.finish(), 0);
    }

    #[test]
    fn later_phases_see_only_unsuperseded_writes() {
        let mut s = stream();
        let (set, _, seq) = history(&mut s, 5);
        s.phase.pop();
        assert!(s.check(set, t(10, 20), &KvResponse::Stored));
        assert_eq!(s.finish(), 0);
        // Next phase: the preload is superseded, the write is not.
        for (read, wrong) in [(0, 1), (seq, 0)] {
            s.phase.push(Op { rank: 5, write: None, read: None, sent_ns: 0, done_ns: u64::MAX });
            assert!(s.check(0, t(30, 40), &KvResponse::Value(Some(value(5, read)))));
            assert_eq!(s.finish(), wrong);
        }
    }

    #[test]
    fn concurrent_write_may_be_missed() {
        let mut s = stream();
        let (set, get, _) = history(&mut s, 5);
        assert!(s.check(set, t(10, 50), &KvResponse::Stored));
        assert!(s.check(get, t(30, 40), &KvResponse::Value(Some(value(5, 0)))));
        assert_eq!(s.finish(), 0);
    }

    #[test]
    fn wrong_key_or_bytes_fail_at_once() {
        let mut s = stream();
        let (_, get, _) = history(&mut s, 5);
        assert!(!s.check(get, t(1, 2), &KvResponse::Value(Some(value(6, 0)))));
        let mut bad = value(5, 0);
        bad[100] ^= 1;
        assert!(!s.check(get, t(1, 2), &KvResponse::Value(Some(bad))));
        assert!(!s.check(get, t(1, 2), &KvResponse::Value(None)));
    }
}
