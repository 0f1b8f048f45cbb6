//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use crate::args::{self, Args};
use crate::driver::{Driver, Phase};
use crate::report::{median, quantile, ratio, result_line, Metrics};
use crate::rng::{mix, Rng};
use crate::trace::{self, Layer, Span, Tracer};
use crate::workloads::hdsearch::HdSearch;
use crate::workloads::router::Router;
use crate::workloads::setalgebra::SetAlgebra;
use crate::workloads::{Deployed, Stream, Workload, LOW_QPS, WINDOW};
use musuite_core::cluster::QUERY_METHOD;
use musuite_rpc::{RpcClient, Server};
use musuite_telemetry::batching::FlushReason;
use musuite_telemetry::breakdown::Stage;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::histogram::LatencyHistogram;
use musuite_telemetry::procstat::{ContextSwitches, SchedStat};
use musuite_telemetry::resilience::ResilienceEvent;
use std::time::{Duration, Instant};

/// Set-ups per timed run: at least `SETUP_REPS`, and more, up to
/// `MAX_SETUP_REPS`, while together they have taken less than
/// `SETUP_BUDGET`. `setup_s` is their median.
const SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Measurement rounds the timed run's `--seconds` is divided into; each
/// runs the low, peak, and mid phases.
const ROUNDS: usize = 10;
/// A timed run measures rounds until `ROUNDS` of them kept schedule, and
/// starts no further round after this much time since it began. Host
/// disturbances last up to minutes; waiting one out lets the run measure
/// the program instead of the host, and the limit still ends a run on a
/// host that never keeps schedule in bounded time.
const MEASURE_DEADLINE: Duration = Duration::from_secs(140);
/// Unmeasured open-loop load at the mid rate before measuring.
const WARMUP: Duration = Duration::from_millis(1500);
/// Requests sent one at a time to both clusters of the traced run, whose
/// answers must be byte-identical.
const EQUIVALENCE_REQUESTS: usize = 256;
/// A round in which more than a tenth of the sends fell behind their
/// schedule by more than this ran while the host was disturbed: its
/// latencies rise with the lateness. On a quiet host the 90th percentile
/// stays near 150 µs on every workload; stalls of a few milliseconds that
/// delay only a handful of sends are common and leave the medians alone.
const LAG_P90_BOUND_US: f64 = 400.0;
/// A round whose low-load sends are late by more than this at the median
/// ran while the host was slow to wake idle CPUs.
const LOW_LAG_P50_BOUND_US: f64 = 250.0;
/// The whole run must end within this, or the process exits with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Entry point of both binaries; returns the exit code.
pub fn main(traced_binary: bool) -> i32 {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]");
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!("perfbench: --trace {} runs in the other binary", u8::from(args.trace));
        return 2;
    }
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("perfbench: run exceeded {WATCHDOG:?}");
            std::process::exit(3);
        })
        .expect("spawn watchdog");
    let outcome = match args.workload.as_str() {
        HdSearch::NAME => run::<HdSearch>(&args),
        Router::NAME => run::<Router>(&args),
        SetAlgebra::NAME => run::<SetAlgebra>(&args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}, {}, {}",
            HdSearch::NAME,
            Router::NAME,
            SetAlgebra::NAME
        )),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    let (cpus, kernel) = crate::procfs::host();
    println!(
        "perfbench {} seed={} seconds={} trace={} host: nproc={cpus} kernel={kernel}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced::<W>(args)
    } else {
        timed::<W>(args)
    }
}

/// Request accounting over a whole run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed();
    }
}

/// One set-up: data generation, launch, preload, and a probe request.
struct Setup<W: Workload> {
    workload: W,
    deployed: Deployed,
    data_s: f64,
    launch_s: f64,
    preload_s: f64,
    /// From the start of data generation to the probe's answer.
    total_s: f64,
    probe: ProbeAnswer,
}

fn setup<W: Workload>(
    seed: u64,
    tracer: Option<&std::sync::Arc<Tracer>>,
) -> Result<Setup<W>, String> {
    let start = Instant::now();
    let workload = W::generate(seed);
    let data_s = start.elapsed().as_secs_f64();
    let launched = match tracer {
        Some(t) => workload.launch_traced(t),
        None => workload.launch(),
    };
    let deployed = launched.map_err(|e| format!("launch failed: {e}"))?;
    let launch_s = start.elapsed().as_secs_f64() - data_s;
    workload.preload(&deployed)?;
    let preload_s = start.elapsed().as_secs_f64() - data_s - launch_s;
    let client =
        RpcClient::connect(deployed.cluster().midtier_addr()).map_err(|e| e.to_string())?;
    let probe = client.call(QUERY_METHOD, musuite_codec::to_bytes(&workload.probe()));
    let total_s = start.elapsed().as_secs_f64();
    Ok(Setup { workload, deployed, data_s, launch_s, preload_s, total_s, probe })
}

type ProbeAnswer = Result<bytes::Bytes, musuite_rpc::RpcError>;

/// Whether a set-up's probe got the reference answer (after `prepare`).
fn probe_ok<W: Workload>(workload: &W, probe: &ProbeAnswer) -> bool {
    let ok = probe
        .as_ref()
        .ok()
        .and_then(|bytes| musuite_codec::from_bytes::<<W::Stream as Stream>::Resp>(bytes).ok());
    let ok = ok.is_some_and(|response| workload.check_probe(&response));
    if !ok {
        eprintln!("perfbench: wrong or failed set-up probe answer");
    }
    ok
}

fn stream_seed(seed: u64) -> u64 {
    mix(seed ^ 0x5354_5245_414D)
}

fn arrivals(seed: u64, phase: u64) -> Rng {
    Rng::new(mix(seed ^ (phase << 56) ^ 0x4152_5249_5645))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn phase_line(name: &str, p: &mut Phase) -> String {
    format!(
        "  phase {name:<8} sent={:<7} ok={:<7} failed={:<3} p50={:.1}us p99={:.1}us lag_p99={:.1}us rate={:.0}/s",
        p.attempted,
        p.latencies_ns.len(),
        p.failed(),
        us(quantile(&mut p.latencies_ns, 0.50)),
        us(quantile(&mut p.latencies_ns, 0.99)),
        us(quantile(&mut p.lags_ns, 0.99)),
        ratio(p.latencies_ns.len() as f64, p.window_s),
    )
}

fn finish(correct: bool, tally: &Tally, metrics: &Metrics) -> Result<bool, String> {
    print!("{}", metrics.table());
    println!("{}", result_line(correct, tally.attempted, tally.failed, metrics));
    Ok(correct)
}

/// The timed run: every end-to-end metric, untraced.
fn timed<W: Workload>(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut kept: Option<Setup<W>> = None;
    let mut probes: Vec<ProbeAnswer> = Vec::new();
    while setups.len() < SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS
            && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // Only one cluster runs at a time.
        if let Some(previous) = kept.take() {
            probes.push(previous.probe);
            drop(previous.deployed);
        }
        let s = setup::<W>(args.seed, None)?;
        setups.push(s.total_s);
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    s.workload.prepare(args.corrupt_reference);
    probes.push(s.probe);
    // Every set-up generated the same data from the same seed.
    tally.attempted += probes.len() as u64;
    tally.failed += probes.iter().filter(|p| !probe_ok(&s.workload, p)).count() as u64;

    let secs = args.seconds / ROUNDS as f64;
    let mut driver = Driver::connect(
        s.deployed.cluster().midtier_addr(),
        epoch,
        s.workload.stream(stream_seed(args.seed)),
    )
    .map_err(|e| e.to_string())?;
    let warm = driver.open_loop(W::MID_QPS, WARMUP, &mut arrivals(args.seed, 0));
    tally.add(&warm);
    // Each round runs every phase, so a passing disturbance on the host
    // moves one round of every metric instead of all of one metric. A round
    // whose sends fell behind schedule did not offer its load: another
    // tenant of the host held the CPUs, or was slow to give them back. Such
    // a round is measured again, until `MEASURE_DEADLINE`, and each metric
    // is the median over the `ROUNDS` rounds that kept schedule. When fewer
    // than half did, it is the median over the least late half, and the
    // run is marked invalid. The closed-loop peak phase sits between the
    // two open-loop phases whose lateness judges the round.
    let mut rounds: Vec<(f64, [f64; 6])> = Vec::new();
    for round in 1.. {
        let mut low = driver.open_loop(
            LOW_QPS,
            Duration::from_secs_f64(secs * 0.35),
            &mut arrivals(args.seed, 2 * round),
        );
        let mut peak = driver.closed_loop(WINDOW, Duration::from_secs_f64(secs * 0.30));
        let mut mid = driver.open_loop(
            W::MID_QPS,
            Duration::from_secs_f64(secs * 0.35),
            &mut arrivals(args.seed, 2 * round + 1),
        );
        for p in [&low, &mid, &peak] {
            tally.add(p);
        }
        let lag_p90_us =
            us(quantile(&mut low.lags_ns, 0.90)).max(us(quantile(&mut mid.lags_ns, 0.90)));
        let low_lag_p50_us = us(quantile(&mut low.lags_ns, 0.50));
        // At most 1 for a round that kept schedule.
        let lateness = (lag_p90_us / LAG_P90_BOUND_US).max(low_lag_p50_us / LOW_LAG_P50_BOUND_US);
        println!(
            "  round {round}: send lag p90 {lag_p90_us:.0} us, low-load send lag p50 {low_lag_p50_us:.0} us{}",
            if lateness <= 1.0 { "" } else { " (late, measured again)" }
        );
        println!("{}", phase_line("low", &mut low));
        println!("{}", phase_line("mid", &mut mid));
        println!("{}", phase_line("peak", &mut peak));
        rounds.push((
            lateness,
            [
                ratio(peak.in_window as f64, peak.window_s),
                us(quantile(&mut low.latencies_ns, 0.50)),
                us(quantile(&mut low.latencies_ns, 0.99)),
                us(quantile(&mut mid.latencies_ns, 0.50)),
                us(quantile(&mut mid.latencies_ns, 0.99)),
                ratio(mid.cpu_us, mid.latencies_ns.len() as f64),
            ],
        ));
        let next_ends = epoch.elapsed() + Duration::from_secs_f64(secs);
        if rounds.iter().filter(|r| r.0 <= 1.0).count() == ROUNDS
            || (rounds.len() >= ROUNDS && next_ends >= MEASURE_DEADLINE)
        {
            break;
        }
    }
    drop(driver);
    drop(s.deployed);
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let on_time = rounds.iter().filter(|r| r.0 <= 1.0).count();
    let kept = &rounds[..on_time.max(ROUNDS / 2)];
    if on_time < ROUNDS / 2 {
        println!(
            "  run marked INVALID: only {on_time} of {} rounds kept send lag p90 within {LAG_P90_BOUND_US} us and low-load send lag p50 within {LOW_LAG_P50_BOUND_US} us",
            rounds.len()
        );
    }
    let of = |i: usize| median(&mut kept.iter().map(|r| r.1[i]).collect::<Vec<f64>>());
    let mut m = Metrics::default();
    // The 99th percentiles spread too widely between runs on a shared
    // two-vCPU host to gate on; the traced run reports them as `tail.*`.
    println!("  p99 (not gated): low {:.1} us, mid {:.1} us", of(2), of(4));
    m.push("peak_qps", of(0), "req/s");
    m.push("low_p50_us", of(1), "us");
    m.push("mid_p50_us", of(3), "us");
    m.push("cpu_us_per_query", of(5), "us");
    m.push("setup_s", median(&mut setups), "s");
    m.push("rss_mb", crate::procfs::peak_rss_mib(), "MiB");
    println!(
        "  fail_frac={:.6} ({} of {} attempted), medians over {} of {} rounds",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted,
        kept.len(),
        rounds.len()
    );
    finish(tally.failed == 0, &tally, &m)
}

/// Stage names as reported (`mid.stage.<name>_p50_us`).
const STAGES: [(Stage, &str); 8] = [
    (Stage::NetRx, "net_rx"),
    (Stage::NetTx, "net_tx"),
    (Stage::Block, "block"),
    (Stage::Sched, "sched"),
    (Stage::ActiveExe, "active_exe"),
    (Stage::Net, "net"),
    (Stage::LeafFanout, "fanout"),
    (Stage::Merge, "merge"),
];

/// Process-wide OS operations reported per query.
const OS_OPS: [(OsOp, &str); 5] = [
    (OsOp::Futex, "futex"),
    (OsOp::SendMsg, "sendmsg"),
    (OsOp::RecvMsg, "recvmsg"),
    (OsOp::EpollPwait, "epoll_pwait"),
    (OsOp::SchedYield, "sched_yield"),
];

fn hist_us(h: &LatencyHistogram, q: f64) -> f64 {
    h.quantile(q).as_secs_f64() * 1e6
}

fn span_quantile_us(spans: &[&Span], q: f64) -> f64 {
    let mut durations: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    us(quantile(&mut durations, q))
}

fn servers(deployed: &Deployed) -> Vec<&Server> {
    let cluster = deployed.cluster();
    std::iter::once(cluster.midtier()).chain(cluster.leaf_servers()).collect()
}

/// The traced run: per-layer metrics of the mid-load phase, from a cluster
/// rebuilt with traced handlers and checked to answer byte-for-byte like
/// the untraced one.
fn traced<W: Workload>(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    let secs = args.seconds;
    let mut tally = Tally::default();

    // The untraced cluster, through the public launcher: set-up split,
    // reference answers, the peak window check, and the untraced phases.
    // It is shut down before the traced cluster starts, so that the
    // process-wide rows count the traced cluster alone.
    let s = setup::<W>(args.seed, None)?;
    let Setup { mut workload, deployed: plain, data_s, launch_s, preload_s, probe, .. } = s;
    workload.prepare(args.corrupt_reference);
    tally.attempted += 1;
    tally.failed += u64::from(!probe_ok(&workload, &probe));
    let connect = |d: &Deployed| {
        Driver::connect(d.cluster().midtier_addr(), epoch, workload.stream(stream_seed(args.seed)))
            .map_err(|e| e.to_string())
    };
    let mut driver = connect(&plain)?;
    let plain_answers = driver.sequential(EQUIVALENCE_REQUESTS);
    let warm = driver.open_loop(W::MID_QPS, WARMUP, &mut arrivals(args.seed, 0));
    let peak = driver.closed_loop(WINDOW, Duration::from_secs_f64(secs * 0.1));
    let peak2 = driver.closed_loop(2 * WINDOW, Duration::from_secs_f64(secs * 0.1));
    let mut plain_low = driver.open_loop(
        LOW_QPS,
        Duration::from_secs_f64(secs * 0.25),
        &mut arrivals(args.seed, 2),
    );
    let mut plain_mid = driver.open_loop(
        W::MID_QPS,
        Duration::from_secs_f64(secs * 0.25),
        &mut arrivals(args.seed, 3),
    );
    drop((driver, plain));

    // The traced cluster: `Cluster::launch` with wrapped handlers. The same
    // seed sends the same requests, whose answers must be byte-identical.
    let tracer = Tracer::new(epoch);
    let t = setup::<W>(args.seed, Some(&tracer))?;
    tally.attempted += 1;
    tally.failed += u64::from(!probe_ok(&workload, &t.probe));
    let deployed = t.deployed;
    let mut driver = connect(&deployed)?;
    let traced_answers = driver.sequential(EQUIVALENCE_REQUESTS);
    let equivalent = plain_answers.payloads.len() == EQUIVALENCE_REQUESTS
        && plain_answers.payloads == traced_answers.payloads;
    if !equivalent {
        eprintln!("perfbench: the traced cluster's answers differ from the untraced cluster's");
    }
    let warm_traced = driver.open_loop(W::MID_QPS, WARMUP, &mut arrivals(args.seed, 0));

    let srv = servers(&deployed);
    for server in &srv {
        server.stats().reset();
        if let Some(reactor) = server.reactor() {
            reactor.stats().reset();
        }
    }
    let fanout = deployed.cluster().fanout().counters();
    let (os0, ctx0, sched0, res0) = (
        OsOpCounters::global().snapshot(),
        ContextSwitches::sample_or_default(),
        SchedStat::sample_or_default(),
        fanout.snapshot(),
    );
    let (allocs0, bytes0) = crate::alloc::counts();
    driver.tracing = Some(Default::default());
    tracer.set_on(true);
    crate::alloc::set_counting(true);
    let mut mid = driver.open_loop(
        W::MID_QPS,
        Duration::from_secs_f64(secs * 0.3),
        &mut arrivals(args.seed, 3),
    );
    crate::alloc::set_counting(false);
    tracer.set_on(false);
    let (allocs1, bytes1) = crate::alloc::counts();
    let (os, ctxsw, runq_us, res) = (
        OsOpCounters::global().snapshot().since(&os0),
        ContextSwitches::sample_or_default().total().saturating_sub(ctx0.total()),
        SchedStat::sample_or_default().since(&sched0).run_delay.as_secs_f64() * 1e6,
        fanout.snapshot().since(&res0),
    );
    let threads = crate::procfs::threads();
    let tracing = driver.tracing.take().unwrap_or_default();
    drop(driver);
    for p in [
        &plain_answers,
        &warm,
        &peak,
        &peak2,
        &plain_low,
        &plain_mid,
        &traced_answers,
        &warm_traced,
        &mid,
    ] {
        tally.add(p);
    }
    let spans = tracer.take();
    let attribution = trace::attribute(&tracing.records, &spans);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-{}.tsv",
        W::NAME,
        args.seed
    ));
    match trace::write_tsv(&out, &tracing.records, &spans, &attribution.parents) {
        Ok(()) => println!("  spans written to {}", out.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", out.display()),
    }

    println!("{}", phase_line("low", &mut plain_low));
    println!("{}", phase_line("mid", &mut plain_mid));
    println!("{}", phase_line("traced", &mut mid));
    let q = mid.latencies_ns.len().max(1) as f64;
    let per_q = |n: f64| n / q;
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer && s.first);
    let plans: Vec<&Span> = of(Layer::Plan).collect();
    let merges: Vec<&Span> = of(Layer::Merge).collect();
    let leaves: Vec<&Span> = of(Layer::Leaf).collect();
    let codec = tracing.codec;
    let sum_servers = |f: &dyn Fn(&Server) -> u64| srv.iter().map(|s| f(s)).sum::<u64>() as f64;
    let reactors: Vec<_> = srv.iter().filter_map(|s| s.reactor()).map(|r| r.stats()).collect();
    let sum_reactors = |f: &dyn Fn(&musuite_telemetry::netpoll::ReactorStats) -> u64| {
        reactors.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let batches = sum_servers(&|s| s.stats().batching().batches());
    let flush_frac = |reason: FlushReason| {
        ratio(sum_servers(&|s| s.stats().batching().flushes(reason)), batches)
    };
    let mut leaf_service = LatencyHistogram::new();
    let mut leaf_block = LatencyHistogram::new();
    for leaf in deployed.cluster().leaf_servers() {
        leaf_service.merge(&leaf.stats().service_time());
        leaf_block.merge(&leaf.stats().breakdown().histogram(Stage::Block));
    }
    let midtier = deployed.cluster().midtier().stats();
    let leaf_calls =
        deployed.cluster().leaf_servers().iter().map(|l| l.stats().requests()).sum::<u64>();
    let replies_ok = tracer.replies_ok();
    let plain_p50 = us(quantile(&mut plain_mid.latencies_ns, 0.5));
    let traced_p50 = us(quantile(&mut mid.latencies_ns, 0.5));

    let mut m = Metrics::default();
    m.push("check.fail_frac", ratio(tally.failed as f64, tally.attempted as f64), "ratio");
    m.push("check.equivalent", f64::from(u8::from(equivalent)), "bool");
    m.push("loadgen.lag_p99_us", us(quantile(&mut plain_mid.lags_ns, 0.99)), "us");
    m.push("tail.low_p99_us", us(quantile(&mut plain_low.latencies_ns, 0.99)), "us");
    m.push("tail.mid_p99_us", us(quantile(&mut plain_mid.latencies_ns, 0.99)), "us");
    m.push(
        "loadgen.peak_2x_ratio",
        ratio(peak2.in_window as f64 / peak2.window_s, peak.in_window as f64 / peak.window_s),
        "ratio",
    );
    m.push("codec.req_bytes", ratio(codec.req_bytes as f64, codec.encodes as f64), "B");
    m.push("codec.resp_bytes", ratio(codec.resp_bytes as f64, codec.decodes as f64), "B");
    m.push("codec.encode_ns", ratio(codec.encode_ns as f64, codec.encodes as f64), "ns");
    m.push("codec.decode_ns", ratio(codec.decode_ns as f64, codec.decodes as f64), "ns");
    m.push("midtier.plan_p50_us", span_quantile_us(&plans, 0.5), "us");
    m.push("midtier.merge_p50_us", span_quantile_us(&merges, 0.5), "us");
    m.push(
        "midtier.fanout_width",
        ratio(plans.iter().map(|s| f64::from(s.width)).sum(), plans.len() as f64),
        "count",
    );
    m.push("leaf.kernel_p50_us", span_quantile_us(&leaves, 0.5), "us");
    m.push("leaf.kernel_p99_us", span_quantile_us(&leaves, 0.99), "us");
    m.push("leaf.calls_per_query", per_q(leaves.len() as f64), "count");
    m.push(
        "leaf.batch_members",
        ratio(leaves.iter().map(|s| f64::from(s.members)).sum(), leaves.len() as f64),
        "count",
    );
    m.push("mid.service_p50_us", hist_us(&midtier.service_time(), 0.5), "us");
    m.push("mid.service_p99_us", hist_us(&midtier.service_time(), 0.99), "us");
    for (stage, name) in STAGES {
        let h = midtier.breakdown().histogram(stage);
        m.push(format!("mid.stage.{name}_p50_us"), hist_us(&h, 0.5), "us");
        m.push(format!("mid.stage.{name}_p99_us"), hist_us(&h, 0.99), "us");
    }
    m.push("leafsrv.service_p50_us", hist_us(&leaf_service, 0.5), "us");
    m.push("leafsrv.block_p50_us", hist_us(&leaf_block, 0.5), "us");
    m.push("rpc.shed", sum_servers(&|s| s.stats().shed_total()), "count");
    m.push("rpc.expired", sum_servers(&|s| s.stats().deadline_expired()), "count");
    m.push("rpc.rejected", sum_servers(&|s| s.stats().rejected()), "count");
    m.push(
        "rpc.coalesce_saved_per_query",
        per_q(sum_servers(&|s| s.stats().coalesce().saved())),
        "count",
    );
    let sweeps = sum_reactors(&|r| r.sweeps());
    m.push("reactor.sweeps_per_query", per_q(sweeps), "count");
    m.push("reactor.parks_per_query", per_q(sum_reactors(&|r| r.parks())), "count");
    m.push("reactor.yields_per_query", per_q(sum_reactors(&|r| r.yields())), "count");
    m.push("reactor.frames_per_sweep", ratio(sum_reactors(&|r| r.frames()), sweeps), "ratio");
    m.push(
        "batch.occupancy_mean",
        ratio(sum_servers(&|s| s.stats().batching().members()), batches),
        "count",
    );
    m.push("batch.flush_full_frac", flush_frac(FlushReason::SizeFull), "ratio");
    m.push("batch.flush_delay_frac", flush_frac(FlushReason::DelayExpired), "ratio");
    m.push("batch.flush_drained_frac", flush_frac(FlushReason::QueueDrained), "ratio");
    m.push("fanout.hedges", res.get(ResilienceEvent::HedgeFired) as f64, "count");
    m.push("fanout.retries", res.get(ResilienceEvent::Retry) as f64, "count");
    m.push("fanout.breaker_open", res.get(ResilienceEvent::BreakerOpened) as f64, "count");
    m.push("fanout.useful_ratio", ratio(replies_ok as f64, leaf_calls as f64), "ratio");
    // Process-wide: every tier plus the load generator share this process.
    for (op, name) in OS_OPS {
        m.push(format!("os.{name}_per_query"), per_q(os.get(op) as f64), "count");
    }
    m.push("os.ctxsw_per_query", per_q(ctxsw as f64), "count");
    m.push("os.runq_delay_us_per_query", per_q(runq_us), "us");
    m.push("os.threads", threads as f64, "count");
    m.push("alloc.per_query", per_q((allocs1 - allocs0) as f64), "count");
    m.push("alloc.bytes_per_query", per_q((bytes1 - bytes0) as f64), "B");
    m.push("setup.data_s", data_s, "s");
    m.push("setup.launch_s", launch_s, "s");
    m.push("setup.preload_s", preload_s, "s");
    m.push("trace.e2e_us", attribution.e2e_us, "us");
    for (layer, value) in Layer::ALL.iter().zip(attribution.layer_us) {
        m.push(format!("trace.{}_us", layer.name()), value, "us");
    }
    m.push("trace.unattributed_us", attribution.unattributed_us, "us");
    m.push("trace.joined_frac", attribution.joined_frac, "ratio");
    m.push("trace.overhead_pct", ratio(traced_p50 - plain_p50, plain_p50) * 100.0, "%");
    finish(tally.failed == 0 && equivalent, &tally, &m)
}
