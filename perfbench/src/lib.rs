//! End-to-end and per-layer benchmark of three μSuite services.
//!
//! One invocation runs one workload against a freshly launched in-process
//! cluster and prints one JSON result line. The program is measured only
//! from outside, through public APIs: the service launchers,
//! `Cluster::launch`, `RpcClient::call_async_opts`, the servers' stats and
//! reactors, the fan-out counters, the process-wide OS-operation counters
//! and `/proc/self`.
//!
//! * `--trace 0` (the `perfbench` binary) is the timed run: the end-to-end
//!   metrics, with no wrappers and no counting allocator.
//! * `--trace 1` (the `perfbench-traced` binary) is the traced run: the same
//!   cluster rebuilt through `Cluster::launch` with the services' own
//!   handlers wrapped in timing adapters, checked to answer byte-for-byte
//!   like the untraced cluster, and reported layer by layer.

pub mod alloc;
pub mod args;
pub mod driver;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workloads;
