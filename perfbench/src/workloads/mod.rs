//! The three workloads: what each deploys, what it sends, and how each
//! answer is checked against a reference built in-process from the same
//! seed.

pub mod hdsearch;
pub mod router;
pub mod setalgebra;

use crate::trace::{TraceKey, Tracer};
use musuite_codec::{Decode, Encode};
use musuite_core::Cluster;
use musuite_hdsearch::HdSearchService;
use musuite_router::service::RouterService;
use musuite_rpc::RpcError;
use musuite_setalgebra::service::SetAlgebraService;
use std::sync::Arc;

/// Open-loop rate of the low-load phase, where wakeups dominate.
pub const LOW_QPS: f64 = 500.0;
/// Front-end connections the load generator spreads requests over.
pub const CONNECTIONS: usize = 2;
/// Requests kept outstanding per connection in the peak phase.
pub const WINDOW: usize = 32;

/// When one request was due, sent, and answered (ns since the epoch).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Scheduled send time.
    pub sched_ns: u64,
    /// Actual send time.
    pub sent_ns: u64,
    /// Arrival of the response at the client.
    pub done_ns: u64,
}

/// A deterministic request sequence plus the check of each answer.
pub trait Stream {
    /// Front-end request.
    type Req: Encode + TraceKey;
    /// Front-end response.
    type Resp: Decode;

    /// The next request and a tag that identifies it to `check`.
    fn next(&mut self) -> (Self::Req, u64);

    /// Whether `response` is a correct answer to the request tagged `tag`.
    fn check(&mut self, tag: u64, timing: Timing, response: &Self::Resp) -> bool;

    /// Called after every drained phase: wrong answers that show only
    /// against the history of earlier answers.
    fn finish(&mut self) -> u64 {
        0
    }
}

/// A workload: generated data, a deployment, and its reference answers.
pub trait Workload: Sized {
    /// The request sequence and checker.
    type Stream: Stream;
    /// Name on the command line.
    const NAME: &'static str;
    /// Open-loop rate of the mid-load phase: a constant near a third of the
    /// workload's peak throughput on the commit that defined the benchmark,
    /// never derived from the code under test.
    const MID_QPS: f64;

    /// Generates the data set from `seed`.
    fn generate(seed: u64) -> Self;
    /// Launches the cluster through the service's public launcher.
    fn launch(&self) -> Result<Deployed, RpcError>;
    /// Launches the same cluster through `Cluster::launch`, with the
    /// service's handlers wrapped in timing adapters.
    fn launch_traced(&self, tracer: &Arc<Tracer>) -> Result<Deployed, RpcError>;
    /// Loads state the requests expect to find.
    ///
    /// # Errors
    ///
    /// Returns a description of the first failed or wrong preload answer.
    fn preload(&self, _deployed: &Deployed) -> Result<(), String> {
        Ok(())
    }
    /// The set-up probe request.
    fn probe(&self) -> <Self::Stream as Stream>::Req;
    /// Builds the reference answers; `corrupt` perturbs one of them.
    fn prepare(&mut self, corrupt: bool);
    /// Whether `response` correctly answers the probe.
    fn check_probe(&self, response: &<Self::Stream as Stream>::Resp) -> bool;
    /// A fresh request sequence fixed by `seed` (after `prepare`).
    fn stream(&self, seed: u64) -> Self::Stream;
}

/// A running cluster, launched either way.
pub enum Deployed {
    /// Through `HdSearchService::launch_with`.
    HdSearch(HdSearchService),
    /// Through `RouterService::launch_with`.
    Router(RouterService),
    /// Through `SetAlgebraService::launch_with`.
    SetAlgebra(SetAlgebraService),
    /// Through `Cluster::launch` with traced handlers.
    Traced(Cluster),
}

impl Deployed {
    /// The cluster behind the deployment.
    pub fn cluster(&self) -> &Cluster {
        match self {
            Deployed::HdSearch(s) => s.cluster(),
            Deployed::Router(s) => s.cluster(),
            Deployed::SetAlgebra(s) => s.cluster(),
            Deployed::Traced(c) => c,
        }
    }
}

impl Drop for Deployed {
    fn drop(&mut self) {
        self.cluster().shutdown();
    }
}
