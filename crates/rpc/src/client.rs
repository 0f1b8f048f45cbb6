//! The RPC client: one asynchronous, callback-completed call primitive
//! with explicit in-flight state, and a thin blocking wrapper over it.
//!
//! Each client owns one TCP connection whose responses are picked up by
//! either a dedicated **response pick-up thread** (the paper's "resp.
//! pick-up thread: `<block>`" in Fig. 8) or a **shared reactor** that
//! sweeps many client connections from a fixed poller pool — so a wide
//! fan-out does not cost one thread per leaf. [`RpcClient::connect_with`]
//! picks between them. Either way, arriving responses are matched to
//! in-flight requests through a shared table keyed by request id and run
//! the call's completion callback in place. Many threads may issue calls
//! on one client concurrently; requests are multiplexed on the
//! connection.
//!
//! [`RpcClient::call_async_opts`] is the only request path: it registers
//! the callback, arms the call's deadline, and sends through the fault
//! shim. [`RpcClient::call_opts`] and [`RpcClient::call`] block on a
//! one-shot slot that the same callback fills.
//!
//! Response payloads are [`Bytes`] slices of the pick-up thread's read
//! buffer — they travel from the socket to the caller without being
//! copied. Requests are [`Payload`]s, so a fan-out can share one encoded
//! prefix across many calls by reference count instead of deep copy.
//!
//! In-flight hygiene: a call with a deadline registers it with a
//! lazily-spawned reaper thread that fails the overdue entry with
//! [`RpcError::TimedOut`] and removes it from the in-flight table —
//! without it, a leaf that never responds would leak its table entry and
//! callback forever.

use crate::buf::{ConnWriter, FrameAccumulator, Payload, PooledBuf};
use crate::error::RpcError;
use crate::fault::{ClientFaults, FaultKind};
use crate::reactor::{CloseReason, ConnDriver, Drive, Reactor};
use bytes::Bytes;
use musuite_check::atomic::{AtomicBool, AtomicU64, Ordering};
use musuite_check::sync::{Condvar, Mutex};
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::frame::FrameHeader;
use musuite_codec::{Frame, FrameKind, Priority, Status};
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::sync::{CountedCondvar, CountedMutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completion callback for [`RpcClient::call_async_opts`]; runs on the
/// response pick-up thread (or the reaper, for a deadline).
pub type Callback = Box<dyn FnOnce(Result<Bytes, RpcError>) + Send + 'static>;

/// The blocking wrapper's rendezvous: the call's callback fills it once
/// and the caller parks on it until then.
struct OneShot {
    result: CountedMutex<Option<Result<Bytes, RpcError>>>,
    ready: CountedCondvar,
}

impl OneShot {
    fn new() -> Arc<OneShot> {
        Arc::new(OneShot { result: CountedMutex::new(None), ready: CountedCondvar::new() })
    }

    fn complete(&self, result: Result<Bytes, RpcError>) {
        *self.result.lock() = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<Bytes, RpcError> {
        let mut guard = self.result.lock();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            self.ready.wait(&mut guard);
        }
    }
}

type InflightTable = Arc<CountedMutex<HashMap<u64, Callback>>>;

/// Min-heap of `(fire time, request id)` shared with the reaper thread;
/// entries are deadlines to enforce or fault-injected sends to release.
type DeadlineQueue = Arc<(Mutex<BinaryHeap<Reverse<(Instant, u64)>>>, Condvar)>;

/// A request held back by a [`FaultKind::Delay`] injection, released by
/// the reaper thread at `send_at`.
struct DelayedSend {
    send_at: Instant,
    method: u32,
    payload: Payload,
    deadline: Option<Instant>,
    priority: Priority,
}

type DelayedMap = Arc<Mutex<HashMap<u64, DelayedSend>>>;

type SharedWriter = Arc<ConnWriter>;

/// Remaining-budget wire encoding of an absolute deadline, computed at
/// the moment the frame leaves so queueing before the send decays it:
/// `None` encodes as 0 (no deadline); an already-expired deadline floors
/// at 1 µs so the receiver sees it as ~expired rather than unbounded.
fn budget_for(deadline: Option<Instant>) -> u32 {
    match deadline {
        None => 0,
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now()).as_micros();
            remaining.clamp(1, u128::from(u32::MAX)) as u32
        }
    }
}

/// Serializes and writes one frame; shared by the call path, the
/// reaper's delayed-send release (which is why the budget is derived
/// from the absolute deadline here, at the last moment), and one-way
/// notifications.
#[allow(clippy::too_many_arguments)]
fn write_frame(
    writer: &SharedWriter,
    closed: &AtomicBool,
    request_id: u64,
    method: u32,
    kind: FrameKind,
    payload: &Payload,
    deadline: Option<Instant>,
    priority: Priority,
    corrupt: bool,
) -> Result<(), RpcError> {
    if closed.load(Ordering::Acquire) {
        return Err(RpcError::ConnectionClosed);
    }
    let header = FrameHeader::new(kind, request_id, method, Status::Ok)
        .with_budget(budget_for(deadline), priority);
    // The payload's segments go on the wire without being joined; the
    // frame serializes into this connection's shared pending buffer and
    // may coalesce with competing requests into one socket write (the
    // writer accounts the actual `sendmsg` calls).
    if corrupt {
        writer.write_parts_corrupted(&header, &payload.parts())?;
    } else {
        writer.write_parts(&header, &payload.parts())?;
    }
    Ok(())
}

/// A connection to one RPC server.
///
/// # Examples
///
/// See [`crate`]-level documentation for an end-to-end example.
pub struct RpcClient {
    peer_addr: SocketAddr,
    writer: SharedWriter,
    next_id: AtomicU64,
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    read_half: TcpStream,
    deadlines: DeadlineQueue,
    delayed: DelayedMap,
    faults: Option<ClientFaults>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl RpcClient {
    /// Connects to `addr` and starts the response pick-up thread.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RpcClient, RpcError> {
        RpcClient::connect_with(addr, None, None)
    }

    /// Connects to `addr`, optionally attaching a per-leaf fault-injection
    /// view and a shared [`Reactor`]. An armed plan may refuse the connect
    /// outright or perturb subsequent sends. With a reactor, responses are
    /// picked up by its sweep instead of a dedicated thread: a fan-out
    /// registers all of its leaf connections (and their hedge/alternate
    /// replacements) with one reactor, so the client-side network thread
    /// count is the reactor's fixed poller count regardless of fan-out
    /// width. `connect_with(addr, None, None)` is [`RpcClient::connect`].
    ///
    /// # Errors
    ///
    /// Returns an error if the connection cannot be established, the
    /// fault plan refuses it, or the reactor is shutting down.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        faults: Option<ClientFaults>,
        reactor: Option<&Arc<Reactor>>,
    ) -> Result<RpcClient, RpcError> {
        if let Some(faults) = &faults {
            if faults.refuse_connect() {
                return Err(RpcError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "connection refused by fault plan",
                )));
            }
        }
        let stream = TcpStream::connect(addr)?;
        OsOpCounters::global().incr(OsOp::OpenAt);
        stream.set_nodelay(true)?;
        let peer_addr = stream.peer_addr()?;
        let read_half = stream.try_clone()?;
        let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let reader = match reactor {
            Some(reactor) => {
                // The reactor owns the read half; response matching runs
                // inside its sweep. No per-connection thread exists, so
                // there is nothing to join on drop.
                let driver =
                    ClientConnDriver { inflight: inflight.clone(), closed: closed.clone() };
                reactor.register(read_half.try_clone()?, Box::new(driver))?;
                None
            }
            None => Some(spawn_response_thread(
                read_half.try_clone()?,
                inflight.clone(),
                closed.clone(),
            )),
        };
        Ok(RpcClient {
            peer_addr,
            writer: Arc::new(ConnWriter::new(stream)),
            next_id: AtomicU64::new(1),
            inflight,
            closed,
            reader,
            read_half,
            deadlines: Arc::new((Mutex::new(BinaryHeap::new()), Condvar::new())),
            delayed: Arc::new(Mutex::new(HashMap::new())),
            faults,
            reaper: Mutex::new(None),
        })
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// Returns `true` once the connection has failed or been shut down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Sends a request through the fault shim. With no plan attached (the
    /// production path) this is a plain send; otherwise the plan may delay
    /// the frame (parked in `delayed`, released by the reaper), swallow it
    /// (stall — only a deadline completes the call), tear the connection
    /// down, or corrupt the frame on the wire so the receiver's checksum
    /// rejects it.
    fn dispatch(
        &self,
        request_id: u64,
        method: u32,
        payload: &Payload,
        deadline: Option<Instant>,
        priority: Priority,
    ) -> Result<(), RpcError> {
        let fault = self.faults.as_ref().and_then(ClientFaults::next_send_fault);
        let corrupt = match fault {
            None | Some(FaultKind::ConnectRefused) => false,
            Some(FaultKind::Corrupt) => true,
            Some(FaultKind::Delay(delay)) => {
                if self.is_closed() {
                    return Err(RpcError::ConnectionClosed);
                }
                let send_at = Instant::now() + delay;
                // The absolute deadline (not a budget snapshot) is parked
                // with the frame: the reaper re-derives the remaining
                // budget at release, so the hold-back decays it.
                self.delayed.lock().insert(
                    request_id,
                    DelayedSend { send_at, method, payload: payload.clone(), deadline, priority },
                );
                self.schedule(send_at, request_id);
                return Ok(());
            }
            Some(FaultKind::Stall) => {
                // The request is registered in flight but never leaves the
                // host: a silently wedged leaf. Callers without a deadline
                // will wait indefinitely — exactly the hazard deadlines
                // and hedging exist to bound.
                if self.is_closed() {
                    return Err(RpcError::ConnectionClosed);
                }
                return Ok(());
            }
            Some(FaultKind::Disconnect) => {
                self.shutdown();
                return Err(RpcError::ConnectionClosed);
            }
        };
        write_frame(
            &self.writer,
            &self.closed,
            request_id,
            method,
            FrameKind::Request,
            payload,
            deadline,
            priority,
            corrupt,
        )
    }

    /// Issues a blocking call and waits for the response payload;
    /// `call(m, p)` is `call_opts(m, p, None, Priority::Normal)`.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Remote`] for non-`Ok` response statuses,
    /// [`RpcError::ConnectionClosed`] if the connection drops mid-call, or
    /// an I/O error from the send path.
    pub fn call(&self, method: u32, payload: impl Into<Payload>) -> Result<Bytes, RpcError> {
        self.call_opts(method, payload, None, Priority::Normal)
    }

    /// Issues a blocking call with an optional deadline and an explicit
    /// priority class: [`RpcClient::call_async_opts`] with the caller
    /// parked on a one-shot slot until the callback fills it.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`], plus [`RpcError::TimedOut`] if no response
    /// arrives within `timeout`.
    pub fn call_opts(
        &self,
        method: u32,
        payload: impl Into<Payload>,
        timeout: Option<Duration>,
        priority: Priority,
    ) -> Result<Bytes, RpcError> {
        let slot = OneShot::new();
        let filler = slot.clone();
        self.call_async_opts(method, payload, timeout, priority, move |result| {
            filler.complete(result)
        });
        slot.wait()
    }

    /// Issues an asynchronous call; `callback` runs exactly once, on the
    /// response pick-up thread when the response (or a connection failure)
    /// arrives, on the reaper thread if `timeout` passes first (with
    /// [`RpcError::TimedOut`]), or on the calling thread if the send fails.
    ///
    /// This is the mid-tier's leaf-request primitive: the calling worker
    /// returns immediately and "proceeds to process successive requests"
    /// (paper §IV) while RPC state lives in the in-flight table. The
    /// deadline travels on the wire as a remaining budget (decayed at
    /// each hop) and the priority drives the server's admission gate.
    pub fn call_async_opts<F>(
        &self,
        method: u32,
        payload: impl Into<Payload>,
        timeout: Option<Duration>,
        priority: Priority,
        callback: F,
    ) where
        F: FnOnce(Result<Bytes, RpcError>) + Send + 'static,
    {
        let payload = payload.into();
        let deadline = timeout.map(|limit| Instant::now() + limit);
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inflight.lock().insert(request_id, Box::new(callback));
        if let Some(when) = deadline {
            self.schedule(when, request_id);
        }
        if let Err(e) = self.dispatch(request_id, method, &payload, deadline, priority) {
            // The entry may already be gone: a connection failure racing
            // this send completes it through `fail_all_inflight`.
            let pending = self.inflight.lock().remove(&request_id);
            if let Some(callback) = pending {
                callback(Err(e));
            }
        }
    }

    /// Registers a timed event for `request_id` with the lazily-spawned
    /// reaper thread: a call deadline to enforce, or a fault-delayed send
    /// to release (the reaper distinguishes them through `delayed`).
    fn schedule(&self, when: Instant, request_id: u64) {
        let (heap, cv) = &*self.deadlines;
        heap.lock().push(Reverse((when, request_id)));
        cv.notify_one();
        let mut reaper = self.reaper.lock();
        if reaper.is_none() {
            *reaper = Some(spawn_reaper_thread(
                self.deadlines.clone(),
                self.inflight.clone(),
                self.closed.clone(),
                self.delayed.clone(),
                self.writer.clone(),
            ));
        }
    }

    /// Sends a one-way notification: no response is expected, no in-flight
    /// state is kept, and the server invokes [`Service::notify`] instead
    /// of a request handler. Used for fire-and-forget telemetry such as
    /// click tracking — one of the microservice roles the paper's
    /// introduction lists. Fault rules act on requests only, so the frame
    /// is written directly.
    ///
    /// [`Service::notify`]: crate::service::Service::notify
    ///
    /// # Errors
    ///
    /// Returns send-path errors only; delivery is not acknowledged.
    pub fn notify(&self, method: u32, payload: impl Into<Payload>) -> Result<(), RpcError> {
        write_frame(
            &self.writer,
            &self.closed,
            0,
            method,
            FrameKind::OneWay,
            &payload.into(),
            None,
            Priority::Normal,
            false,
        )
    }

    /// Number of calls awaiting responses.
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Closes the connection; in-flight calls fail with
    /// [`RpcError::ConnectionClosed`]. Idempotent.
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = self.read_half.shutdown(Shutdown::Both);
        // Wake the reaper (if any) so it observes the closed flag.
        let (_, cv) = &*self.deadlines;
        cv.notify_all();
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.reaper.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient")
            .field("peer_addr", &self.peer_addr)
            .field("inflight", &self.inflight_len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Routes one arriving response frame to its in-flight entry: shared by
/// the dedicated pick-up thread and the reactor driver.
fn deliver_response(inflight: &InflightTable, frame: Frame) {
    if frame.header.kind != FrameKind::Response {
        return;
    }
    let pending = inflight.lock().remove(&frame.header.request_id);
    let result = if frame.header.status.is_ok() {
        Ok(frame.payload)
    } else {
        Err(RpcError::Remote {
            status: frame.header.status,
            detail: String::from_utf8_lossy(&frame.payload).into_owned(),
        })
    };
    // A `None` here means we raced with a timeout removal.
    if let Some(callback) = pending {
        callback(result);
    }
}

/// Fails everything still in flight; called once when the connection dies.
fn fail_all_inflight(inflight: &InflightTable) {
    let drained: Vec<Callback> = {
        let mut table = inflight.lock();
        table.drain().map(|(_, callback)| callback).collect()
    };
    for callback in drained {
        callback(Err(RpcError::ConnectionClosed));
    }
}

/// Per-connection protocol logic when responses are picked up by a shared
/// [`Reactor`]: the body of the response thread, minus the thread.
struct ClientConnDriver {
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
}

impl ConnDriver for ClientConnDriver {
    // Reached via dyn dispatch from the sweep thread; annotated at the
    // impl so musuite-analyze walks these bodies as nonblocking roots.
    #[musuite_marker::nonblocking]
    fn on_frame(&mut self, frame: Frame, _rx_start_ns: u64) -> Drive {
        deliver_response(&self.inflight, frame);
        Drive::Continue
    }

    #[musuite_marker::nonblocking]
    fn on_close(&mut self, _reason: CloseReason) {
        // Exactly-once by the reactor's registration ledger; callbacks for
        // every in-flight call fire here with `ConnectionClosed`.
        self.closed.store(true, Ordering::Release);
        fail_all_inflight(&self.inflight);
    }
}

fn spawn_response_thread(
    stream: TcpStream,
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
) -> JoinHandle<()> {
    OsOpCounters::global().incr(OsOp::Clone);
    Builder::new()
        .name("musuite-response".to_string())
        .spawn(move || {
            let counters = OsOpCounters::global();
            // One read buffer for the life of the connection; each
            // response payload is a zero-copy slice of it.
            let mut stream = stream;
            let mut acc = FrameAccumulator::new(PooledBuf::unpooled());
            loop {
                counters.incr(OsOp::EpollPwait);
                match acc.poll_frame(&mut stream) {
                    Ok(Some((frame, _))) => deliver_response(&inflight, frame),
                    // Only a read timeout yields `None`, and this socket
                    // has none.
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            closed.store(true, Ordering::Release);
            counters.incr(OsOp::Close);
            fail_all_inflight(&inflight);
        })
        .expect("spawn response thread") // lint: allow(expect): no connection without its pick-up thread
}

/// Reaps in-flight entries whose deadlines have passed and releases
/// fault-delayed sends. Parked on a condition variable until the earliest
/// timed event (or a new registration). A popped id is a delayed send if
/// `delayed` holds its entry and the hold-back has elapsed — the frame is
/// written now, late but intact; otherwise the id is an overdue deadline:
/// the in-flight entry is removed and completed with
/// [`RpcError::TimedOut`] (and any still-pending delayed send for it is
/// cancelled). Entries already completed by the response thread are simply
/// absent — the heap entry is then a no-op.
fn spawn_reaper_thread(
    deadlines: DeadlineQueue,
    inflight: InflightTable,
    closed: Arc<AtomicBool>,
    delayed: DelayedMap,
    writer: SharedWriter,
) -> JoinHandle<()> {
    OsOpCounters::global().incr(OsOp::Clone);
    Builder::new()
        .name("musuite-reaper".to_string())
        .spawn(move || {
            let (heap_lock, cv) = &*deadlines;
            let mut heap = heap_lock.lock();
            loop {
                if closed.load(Ordering::Acquire) {
                    break;
                }
                let Some(&Reverse((when, request_id))) = heap.peek() else {
                    cv.wait(&mut heap);
                    continue;
                };
                let now = Instant::now();
                if when > now {
                    cv.wait_for(&mut heap, when - now);
                    continue;
                }
                heap.pop();
                // Complete outside the heap lock: the callback may issue
                // follow-up calls that register new deadlines.
                drop(heap);
                let release = {
                    let mut map = delayed.lock();
                    match map.get(&request_id) {
                        // The hold-back elapsed: this pop releases the send.
                        Some(hold) if hold.send_at <= now => map.remove(&request_id),
                        // A deadline fired while the send is still held
                        // back: cancel it and reap the call below.
                        Some(_) => {
                            map.remove(&request_id);
                            None
                        }
                        None => None,
                    }
                };
                if let Some(hold) = release {
                    if inflight.lock().contains_key(&request_id) {
                        if let Err(e) = write_frame(
                            &writer,
                            &closed,
                            request_id,
                            hold.method,
                            FrameKind::Request,
                            &hold.payload,
                            hold.deadline,
                            hold.priority,
                            false,
                        ) {
                            let pending = inflight.lock().remove(&request_id);
                            if let Some(callback) = pending {
                                callback(Err(e));
                            }
                        }
                    }
                } else {
                    let pending = inflight.lock().remove(&request_id);
                    if let Some(callback) = pending {
                        callback(Err(RpcError::TimedOut));
                    }
                }
                heap = heap_lock.lock();
            }
        })
        .expect("spawn reaper thread") // lint: allow(expect): deadlines are unenforceable without it
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::Server;
    use crate::service::{RequestContext, Service};
    use std::sync::mpsc;

    struct Echo;
    impl Service for Echo {
        fn call(&self, mut ctx: RequestContext) {
            let bytes = ctx.take_payload();
            ctx.respond_ok(bytes);
        }
    }

    fn echo_server() -> Server {
        Server::spawn(ServerConfig::default(), Arc::new(Echo)).unwrap()
    }

    #[test]
    fn async_call_completes_on_response_thread() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        client.call_async_opts(4, b"async".to_vec(), None, Priority::Normal, move |result| {
            tx.send(result).unwrap();
        });
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), b"async");
        assert_eq!(client.inflight_len(), 0);
    }

    #[test]
    fn interleaved_async_calls_multiplex() {
        let server = echo_server();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let (tx, rx) = mpsc::channel();
        for i in 0..64u32 {
            let tx = tx.clone();
            client.call_async_opts(
                1,
                i.to_le_bytes().to_vec(),
                None,
                Priority::Normal,
                move |result| {
                    let bytes = result.unwrap();
                    let value = u32::from_le_bytes(bytes[..].try_into().unwrap());
                    tx.send(value).unwrap();
                },
            );
        }
        let mut seen: Vec<u32> =
            (0..64).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_sync_callers_share_client() {
        let server = echo_server();
        let client = Arc::new(RpcClient::connect(server.local_addr()).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let payload = (t << 16 | i).to_le_bytes().to_vec();
                    assert_eq!(client.call(9, payload.clone()).unwrap(), payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn server_shutdown_fails_inflight_calls() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        // Ensure the connection is live.
        client.call(1, b"warm".to_vec()).unwrap();
        server.shutdown();
        // Subsequent calls fail (either on send or via ConnectionClosed).
        std::thread::sleep(Duration::from_millis(50));
        let err = client.call(1, b"after".to_vec());
        assert!(err.is_err());
    }

    #[test]
    fn client_shutdown_is_idempotent_and_closes() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        client.shutdown();
        client.shutdown();
        assert!(client.is_closed());
        assert!(matches!(client.call(1, Vec::new()), Err(RpcError::ConnectionClosed)));
    }

    #[test]
    fn call_deadline_times_out_against_stuck_server() {
        // A listener that accepts but never responds.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keeper = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
        });
        let client = RpcClient::connect(addr).unwrap();
        let start = std::time::Instant::now();
        let err = client.call_opts(
            1,
            b"never".to_vec(),
            Some(Duration::from_millis(100)),
            Priority::Normal,
        );
        assert!(matches!(err, Err(RpcError::TimedOut)));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(client.inflight_len(), 0, "timed-out call must be deregistered");
    }

    #[test]
    fn async_deadline_reaps_stuck_request() {
        // A listener that accepts but never responds: without the reaper,
        // the async entry would sit in the in-flight table forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keeper = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
        });
        let client = RpcClient::connect(addr).unwrap();
        let (tx, rx) = mpsc::channel();
        let timeout = Some(Duration::from_millis(100));
        client.call_async_opts(1, b"never".to_vec(), timeout, Priority::Normal, move |r| {
            tx.send(r).unwrap();
        });
        assert_eq!(client.inflight_len(), 1);
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(result, Err(RpcError::TimedOut)));
        assert_eq!(client.inflight_len(), 0, "reaper must deregister the entry");
    }

    #[test]
    fn async_deadline_does_not_fire_on_fast_response() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        let timeout = Some(Duration::from_secs(30));
        client.call_async_opts(1, b"fast".to_vec(), timeout, Priority::Normal, move |r| {
            tx.send(r).unwrap();
        });
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), b"fast");
        assert_eq!(client.inflight_len(), 0);
        // The stale heap entry is harmless: its id is gone from the table.
    }

    #[test]
    fn deadline_budget_and_priority_ride_the_wire() {
        // A probe service reporting the budget and priority it observed.
        struct Probe;
        impl Service for Probe {
            fn call(&self, ctx: RequestContext) {
                let mut out = ctx.remaining_budget().to_le_bytes().to_vec();
                out.push(ctx.priority() as u8);
                ctx.respond_ok(out);
            }
        }
        let server = Server::spawn(ServerConfig::default(), Arc::new(Probe)).unwrap();
        let client = RpcClient::connect(server.local_addr()).unwrap();

        let reply = client
            .call_opts(1, b"p".to_vec(), Some(Duration::from_millis(500)), Priority::Critical)
            .unwrap();
        let observed = u32::from_le_bytes(reply[..4].try_into().unwrap());
        assert!(observed > 0, "server must observe a budget");
        assert!(observed <= 500_000, "observed budget must be below the front-end timeout");
        assert_eq!(reply[4], Priority::Critical as u8);

        // A plain call carries no budget and the default class.
        let reply = client.call(1, b"p".to_vec()).unwrap();
        assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), 0);
        assert_eq!(reply[4], Priority::Normal as u8);
    }

    #[test]
    fn connect_to_dead_port_errors() {
        // Bind-then-drop to find a port that is very likely closed.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        assert!(RpcClient::connect(addr).is_err());
    }

    #[test]
    fn payload_prefix_sharing_round_trips() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        let shared = Bytes::from(vec![7u8; 1024]);
        for suffix in 0u8..4 {
            let payload = Payload::with_suffix(shared.clone(), vec![suffix]);
            let reply = client.call(1, payload).unwrap();
            assert_eq!(reply.len(), 1025);
            assert_eq!(reply[..1024], [7u8; 1024][..]);
            assert_eq!(reply[1024], suffix);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let server = echo_server();
        let client = RpcClient::connect(server.local_addr()).unwrap();
        assert!(format!("{client:?}").contains("RpcClient"));
    }

    mod via_reactor {
        use super::*;
        use crate::reactor::ReactorConfig;

        #[test]
        fn reactor_client_round_trips_sync_and_async() {
            let server = echo_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            let client =
                RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap();
            assert_eq!(client.call(1, b"via".to_vec()).unwrap(), b"via");
            let (tx, rx) = mpsc::channel();
            client.call_async_opts(1, b"async-via".to_vec(), None, Priority::Normal, move |r| {
                tx.send(r).unwrap()
            });
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(reply, b"async-via");
            assert_eq!(client.inflight_len(), 0);
        }

        #[test]
        fn many_reactor_clients_share_a_fixed_poller_pool() {
            let server = echo_server();
            let reactor =
                Arc::new(Reactor::start(ReactorConfig { pollers: 2, ..ReactorConfig::default() }));
            let clients: Vec<_> = (0..8)
                .map(|_| {
                    RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).unwrap()
                })
                .collect();
            for (i, client) in clients.iter().enumerate() {
                assert_eq!(client.call(1, vec![i as u8]).unwrap(), vec![i as u8]);
            }
            assert_eq!(reactor.poller_count(), 2);
            assert_eq!(reactor.live_connections(), 8);
        }

        #[test]
        fn reactor_close_fails_inflight_calls() {
            // A server that accepts but never responds; tearing the client
            // down must complete the pending async call via the reactor's
            // on_close path, not leak it.
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let _keeper = std::thread::spawn(move || {
                let (_stream, _) = listener.accept().unwrap();
                std::thread::sleep(Duration::from_secs(2));
            });
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            let client = RpcClient::connect_with(addr, None, Some(&reactor)).unwrap();
            let (tx, rx) = mpsc::channel();
            client.call_async_opts(1, b"never".to_vec(), None, Priority::Normal, move |r| {
                tx.send(r).unwrap()
            });
            client.shutdown();
            let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(result, Err(RpcError::ConnectionClosed)), "got {result:?}");
        }

        #[test]
        fn register_on_shut_down_reactor_is_an_error() {
            let server = echo_server();
            let reactor = Arc::new(Reactor::start(ReactorConfig::default()));
            reactor.shutdown();
            assert!(RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).is_err());
        }
    }

    mod faults {
        use super::*;
        use crate::fault::FaultPlan;

        #[test]
        fn delay_fault_holds_the_frame_back_then_delivers() {
            let server = echo_server();
            let plan = FaultPlan::builder(11, 1).slow_leaf(0, Duration::from_millis(80)).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let start = Instant::now();
            let timeout = Some(Duration::from_secs(5));
            let reply = client.call_opts(1, b"late".to_vec(), timeout, Priority::Normal).unwrap();
            assert_eq!(reply, b"late");
            assert!(
                start.elapsed() >= Duration::from_millis(80),
                "delayed send must not arrive early: {:?}",
                start.elapsed()
            );
        }

        #[test]
        fn stall_fault_is_bounded_only_by_the_deadline() {
            let server = echo_server();
            let plan = FaultPlan::builder(12, 1)
                .rule(0, crate::fault::FaultRule::always(FaultKind::Stall))
                .build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let timeout = Some(Duration::from_millis(100));
            let err = client.call_opts(1, b"stuck".to_vec(), timeout, Priority::Normal);
            assert!(matches!(err, Err(RpcError::TimedOut)), "got {err:?}");
            assert_eq!(client.inflight_len(), 0);
        }

        #[test]
        fn disconnect_fault_tears_the_connection_down() {
            let server = echo_server();
            let plan = FaultPlan::builder(13, 1).dead_leaf(0).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            let err = client.call(1, b"dead".to_vec());
            assert!(matches!(err, Err(RpcError::ConnectionClosed)), "got {err:?}");
            assert!(client.is_closed());
            // Reconnects to a dead leaf are refused.
            let refused =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None);
            assert!(refused.is_err());
        }

        #[test]
        fn corrupt_fault_is_detected_never_returned_as_data() {
            let server = echo_server();
            let plan = FaultPlan::builder(14, 1).corrupting_leaf(0, 1).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            plan.arm();
            // The server's checksum rejects the frame and drops the
            // connection: the call must error, never echo corrupt bytes.
            let timeout = Some(Duration::from_secs(5));
            let err = client.call_opts(1, b"garble".to_vec(), timeout, Priority::Normal);
            assert!(err.is_err(), "corrupted request must not produce a reply");
            assert_eq!(plan.injected_of(FaultKind::Corrupt), 1);
        }

        #[test]
        fn disarmed_plan_is_transparent() {
            let server = echo_server();
            let plan = FaultPlan::builder(15, 1).dead_leaf(0).build();
            let client =
                RpcClient::connect_with(server.local_addr(), Some(plan.client_faults(0)), None)
                    .unwrap();
            let reply = client.call(1, b"fine".to_vec()).unwrap();
            assert_eq!(reply, b"fine");
            assert_eq!(plan.injected(), 0);
        }
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// Registers the blocking wrapper's completion exactly as `call_opts`
    /// does: a callback in the in-flight table that fills a one-shot slot.
    fn register_blocking(inflight: &InflightTable) -> Arc<OneShot> {
        let slot = OneShot::new();
        let filler = slot.clone();
        inflight.lock().insert(1, Box::new(move |result| filler.complete(result)));
        slot
    }

    /// Claims entry 1 the way the pick-up thread and the reaper do: remove
    /// under the table lock, complete outside it.
    fn claim(inflight: &InflightTable, outcome: Result<Bytes, RpcError>) -> bool {
        let pending = inflight.lock().remove(&1);
        match pending {
            Some(callback) => {
                callback(outcome);
                true
            }
            None => false,
        }
    }

    /// The response/deadline race on the blocking path: the pick-up thread
    /// delivers a response while the reaper fails the same call with
    /// `TimedOut`. In every interleaving the parked caller observes exactly
    /// one outcome — the loser finds the entry gone, so no late write ever
    /// lands in the slot after the caller has taken its result — and the
    /// table ends empty.
    #[test]
    fn response_vs_timeout_claims_entry_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
                let slot = register_blocking(&inflight);
                let responder = {
                    let inflight = inflight.clone();
                    thread::spawn(move || claim(&inflight, Ok(Bytes::from_static(b"late"))))
                };
                let reaper = {
                    let inflight = inflight.clone();
                    thread::spawn(move || claim(&inflight, Err(RpcError::TimedOut)))
                };
                let result = slot.wait();
                let responded = responder.join().unwrap();
                let reaped = reaper.join().unwrap();
                match result {
                    Ok(payload) => {
                        assert_eq!(&payload[..], b"late");
                        assert!(responded && !reaped, "a delivered response implies its claim");
                    }
                    Err(RpcError::TimedOut) => {
                        assert!(reaped && !responded, "a timeout implies the reaper's claim");
                    }
                    Err(other) => panic!("unexpected outcome: {other:?}"),
                }
                assert!(slot.result.lock().is_none(), "no second completion may land");
                assert!(inflight.lock().is_empty(), "entry must be deregistered either way");
            })
            .expect("every schedule must yield exactly one caller-visible outcome");
        assert!(report.iterations > 1, "both claim orders must be explored");
    }

    /// Responder and reaper race to claim the same entry: the table's
    /// exactly-once `remove` means the waiter sees exactly one completion,
    /// never two.
    #[test]
    fn reaper_and_responder_complete_exactly_once() {
        Checker::new()
            .check(|| {
                let inflight: InflightTable = Arc::new(CountedMutex::new(HashMap::new()));
                let slot = register_blocking(&inflight);
                let racer = |outcome: Result<Bytes, RpcError>| {
                    let inflight = inflight.clone();
                    move || claim(&inflight, outcome)
                };
                let responder = thread::spawn(racer(Ok(Bytes::from_static(b"r"))));
                let reaper = thread::spawn(racer(Err(RpcError::TimedOut)));

                let result = slot.wait();
                let claims =
                    usize::from(responder.join().unwrap()) + usize::from(reaper.join().unwrap());
                assert_eq!(claims, 1, "the entry must be claimed by exactly one thread");
                assert!(
                    matches!(result, Ok(_) | Err(RpcError::TimedOut)),
                    "waiter sees the claiming thread's outcome: {result:?}"
                );
                assert!(inflight.lock().is_empty());
            })
            .expect("no schedule may deliver a completion twice");
    }
}
