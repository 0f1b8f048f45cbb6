//! Fig. 9 analog for the batching axis — saturation throughput of the
//! RPC substrate with batches vs single requests as the server's unit of
//! work.
//!
//! Windowed closed-loop clients drive an echo server to saturation: each
//! connection keeps a constant window of individual requests outstanding
//! (`call_async_opts`), issuing the next as soon as one completes. The
//! same load runs against three server policies: unbatched
//! (`BatchPolicy::off()`, a batch of one), and `BatchPolicy` {max_size 8,
//! 50 µs} and {max_size 32, 50 µs}, where workers drain the dispatch
//! queue batch-at-a-time (`pop_batch`). Batches form only from requests
//! that happen to be queued together, so the arms differ in the server
//! alone. The server's batch-occupancy and flush-reason counters are
//! printed alongside.
//!
//! Run: `cargo bench -p musuite-bench --bench batching_saturation`

use musuite_bench::BenchEnv;
use musuite_rpc::{
    BatchPolicy, ExecutionModel, Priority, RequestContext, RpcClient, Server, ServerConfig, Service,
};
use musuite_telemetry::report::Table;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests each connection keeps outstanding.
const WINDOW: usize = 8;

struct Echo;
impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().to_vec();
        ctx.respond_ok(bytes);
    }
}

struct ArmReport {
    qps: f64,
    p50: Duration,
    p99: Duration,
    batching: String,
}

/// One closed-loop measurement: `conns` connections, each keeping
/// [`WINDOW`] echo requests outstanding for `duration`. Returns
/// (completed requests per second, request p50, request p99).
fn run_at(
    addr: std::net::SocketAddr,
    conns: usize,
    duration: Duration,
) -> (f64, Duration, Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..conns {
        let stop = stop.clone();
        let completed = completed.clone();
        let latencies = latencies.clone();
        handles.push(std::thread::spawn(move || {
            let client = RpcClient::connect(addr).expect("connect load client");
            let payload = vec![0u8; 64];
            let (tx, rx) = mpsc::channel();
            let issue = || {
                let tx = tx.clone();
                let sent = Instant::now();
                client.call_async_opts(1, payload.clone(), None, Priority::Normal, move |r| {
                    tx.send((sent, r.is_ok())).ok();
                });
            };
            for _ in 0..WINDOW {
                issue();
            }
            let mut local = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let (sent, ok) = rx.recv().expect("request resolves");
                assert!(ok, "echo failed");
                local.push(sent.elapsed());
                issue();
            }
            // Drain the window so no callback outlives the client.
            for _ in 0..WINDOW {
                rx.recv().expect("request resolves");
            }
            completed.fetch_add(local.len() as u64, Ordering::Relaxed);
            latencies.lock().expect("latency sink").extend(local);
        }));
    }
    let started = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed();
    for h in handles {
        h.join().expect("load thread");
    }
    let mut lat = latencies.lock().expect("latency sink").clone();
    lat.sort_unstable();
    let quantile = |q: f64| lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)];
    let qps = completed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
    (qps, quantile(0.50), quantile(0.99))
}

/// Ramps concurrency until throughput flattens (the Fig. 9 protocol)
/// and returns the best point plus the server's batch counters.
fn saturate(policy: BatchPolicy, duration: Duration) -> ArmReport {
    let mut config = ServerConfig::default();
    config.execution_model(ExecutionModel::Dispatch).workers(4).batch_policy(policy);
    let server = Server::spawn(config, Arc::new(Echo)).expect("spawn echo server");
    let mut best =
        ArmReport { qps: 0.0, p50: Duration::ZERO, p99: Duration::ZERO, batching: String::new() };
    let mut conns = 4usize;
    while conns <= 64 {
        let (qps, p50, p99) = run_at(server.local_addr(), conns, duration);
        if qps <= best.qps * 1.05 {
            break; // the knee is behind us
        }
        if qps > best.qps {
            best = ArmReport { qps, p50, p99, batching: String::new() };
        }
        conns *= 2;
    }
    best.batching = server.stats().batching().summary_row();
    server.shutdown();
    best
}

fn main() {
    let env = BenchEnv::from_env();
    let duration = env.duration();
    println!(
        "\nBatching axis: echo saturation, server-side batched vs single-request \
         unit of work ({WINDOW} requests outstanding per connection, {}s per ramp step)\n",
        env.secs
    );
    let arms = [
        ("off", BatchPolicy::off()),
        ("8 x 50us", BatchPolicy::new(8, Duration::from_micros(50))),
        ("32 x 50us", BatchPolicy::new(32, Duration::from_micros(50))),
    ];
    let mut table = Table::new(&[
        "batch policy",
        "saturation QPS",
        "vs off",
        "p50_us",
        "p99_us",
        "server batches",
    ]);
    let mut baseline = 0.0f64;
    for (label, policy) in arms {
        let report = saturate(policy, duration);
        if !policy.is_on() {
            baseline = report.qps;
        }
        let us = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
        let speedup =
            if baseline > 0.0 { format!("{:.2}x", report.qps / baseline) } else { "-".into() };
        println!(
            "{label}: {:.0} QPS ({speedup}), p99 {} us, {}",
            report.qps,
            us(report.p99),
            report.batching
        );
        table.row_owned(vec![
            label.to_string(),
            format!("{:.0}", report.qps),
            speedup,
            us(report.p50),
            us(report.p99),
            report.batching.clone(),
        ]);
    }
    println!("\n{}", table.render());
}
