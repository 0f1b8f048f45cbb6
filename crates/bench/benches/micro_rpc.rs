//! Criterion micro-benchmarks of the RPC substrate: round-trip cost of
//! the layers between a query's arrival and its response — the overheads
//! that, per the paper, rival the mid-tier's own compute.
#![allow(missing_docs)] // criterion_group! expands to undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use musuite_rpc::{
    AdmissionControl, AdmissionModel, DispatchQueue, ExecutionModel, NetworkModel, Priority,
    RequestContext, RpcClient, Server, ServerConfig, Service, WaitMode,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().to_vec();
        ctx.respond_ok(bytes);
    }
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc_roundtrip");
    for (label, model) in
        [("dispatch", ExecutionModel::Dispatch), ("inline", ExecutionModel::Inline)]
    {
        let mut config = ServerConfig::default();
        config.execution_model(model).workers(4);
        let server = Server::spawn(config, Arc::new(Echo)).expect("spawn server");
        let client = RpcClient::connect(server.local_addr()).expect("connect");
        let payload = vec![0u8; 128];
        group.bench_function(format!("echo_128B_{label}"), |b| {
            b.iter(|| black_box(client.call(1, payload.clone()).unwrap()))
        });
    }
    group.finish();
}

/// Echo round-trips across the payload spectrum, 64 B to 64 KiB. The
/// large end is where the zero-copy read path pays off: the server hands
/// the service a slice of its pooled read buffer instead of reallocating
/// and copying the payload, so cost should grow with wire time, not with
/// per-frame allocator traffic.
fn bench_payload_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc_payload_sweep");
    let server = Server::spawn(ServerConfig::default(), Arc::new(Echo)).expect("spawn server");
    let client = RpcClient::connect(server.local_addr()).expect("connect");
    for size in [64usize, 1024, 4 * 1024, 16 * 1024, 64 * 1024] {
        let payload = vec![0xA5u8; size];
        let label =
            if size < 1024 { format!("echo_{size}B") } else { format!("echo_{}KiB", size / 1024) };
        group.bench_function(label, |b| {
            b.iter(|| black_box(client.call(1, payload.clone()).unwrap()))
        });
    }
    group.finish();
}

/// Same echo round-trip, but varying who reads the server's sockets: one
/// blocking thread per connection vs a fixed two-sweeper poller pool.
/// At low load (one in-flight request) this measures the shared-reactor
/// sweep overhead head-on; the acceptance bar for the reactor is staying
/// within 1.5x of the per-connection baseline here. Both arms run
/// WaitMode::Adaptive so only the network axis varies; the
/// ablation_threading network table crosses the edge with Block and Poll.
fn bench_network_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc_network_model");
    let models = [
        ("per_conn", NetworkModel::BlockingPerConn),
        ("shared_pollers_2", NetworkModel::SharedPollers { pollers: 2 }),
    ];
    for (label, network) in models {
        let mut config = ServerConfig::default();
        config.network_model(network).wait_mode(WaitMode::Adaptive).workers(4);
        let server = Server::spawn(config, Arc::new(Echo)).expect("spawn server");
        let client = RpcClient::connect(server.local_addr()).expect("connect");
        let payload = vec![0u8; 128];
        group.bench_function(format!("echo_128B_{label}"), |b| {
            b.iter(|| black_box(client.call(1, payload.clone()).unwrap()))
        });
    }
    group.finish();
}

fn bench_queue_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_queue");
    for (label, mode) in [("block", WaitMode::Block), ("poll", WaitMode::Poll)] {
        group.bench_function(format!("push_pop_uncontended_{label}"), |b| {
            let queue: DispatchQueue<u64> = DispatchQueue::new(1024, mode);
            b.iter(|| {
                queue.push(black_box(7));
                black_box(queue.pop())
            })
        });
    }
    group.finish();
}

/// The cost the admission gate adds to every accepted request, measured
/// uncontended: one limit load plus one CAS to admit, one `fetch_sub` to
/// release the permit. `Adaptive` must price identically to `Fixed` on
/// the admit path — the AIMD controller only runs at dequeue — so a gap
/// between the two arms here means the decision path grew a branch it
/// should not have.
fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_gate");
    for (label, model) in [("fixed", AdmissionModel::Fixed), ("adaptive", AdmissionModel::Adaptive)]
    {
        let gate = AdmissionControl::new(model, 64);
        group.bench_function(format!("try_admit_uncontended_{label}"), |b| {
            b.iter(|| black_box(gate.try_admit(black_box(Priority::Normal))))
        });
    }
    group.finish();
}

fn bench_fanout(c: &mut Criterion) {
    use musuite_rpc::FanoutGroup;
    let servers: Vec<Server> = (0..4)
        .map(|_| Server::spawn(ServerConfig::default(), Arc::new(Echo)).expect("spawn leaf"))
        .collect();
    let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
    let group_clients = FanoutGroup::connect(&addrs).expect("connect fan-out");
    c.bench_function("fanout_scatter_gather_4_leaves", |b| {
        b.iter(|| {
            let requests: Vec<(usize, u32, Vec<u8>)> =
                (0..4).map(|leaf| (leaf, 1u32, vec![0u8; 64])).collect();
            black_box(group_clients.scatter_wait(requests, None, Priority::Normal))
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(700))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_roundtrip, bench_payload_sweep, bench_network_model, bench_queue_handoff,
        bench_admission, bench_fanout
}
criterion_main!(benches);
