//! An epoll-driven readiness reactor: the paper's fixed network-poller pool.
//!
//! The mid-tier of Fig. 8 drives *all* of its connections from a small,
//! fixed set of network poller threads that block in `epoll_pwait` and
//! feed the dispatch queue — the thread count at the network edge is an
//! architectural constant, not a function of how many clients are
//! connected. This module reproduces that design: every registered socket
//! is switched to non-blocking mode and partitioned across `pollers`
//! *sweep threads*, each owning one epoll set (the hand-declared bindings
//! in `sys`, the workspace's only `unsafe`). A sweep thread waits in
//! `epoll_wait`, then services only the connections epoll reported, asking
//! each one's [`FrameAccumulator`] to absorb the bytes the kernel has
//! buffered; complete frames are handed to the connection's
//! [`ConnDriver`] (the server's dispatch path or the client's in-flight
//! completion path).
//!
//! How the thread waits follows [`WaitMode`], extending the paper's
//! block- vs poll-based trade-off to the network edge:
//!
//! * [`WaitMode::Block`] — `epoll_wait` until a socket is readable, or
//!   until the earliest idle deadline when `idle_timeout` is set: the
//!   paper's design, paying one wakeup per burst and no CPU while idle.
//! * [`WaitMode::Poll`] — `epoll_wait` with a zero timeout, then
//!   `yield_now` if nothing was ready: lowest latency, one core burned per
//!   poller.
//! * [`WaitMode::Adaptive`] — polls through `ADAPTIVE_SPIN_SWEEPS` (64)
//!   empty waits, then blocks like `Block`.
//!
//! Interest is level-triggered (`EPOLLIN | EPOLLRDHUP`, keyed by the
//! connection's slab index). Fairness: one connection may drain at most
//! `SWEEP_BUDGET` (32) frames per wakeup before the thread moves on, so a
//! chatty peer cannot starve its shard-mates; the accumulator never reads
//! past the frame it is assembling, so undrained bytes stay in the kernel
//! buffer and epoll reports the socket again on the next wait.
//!
//! Registration is lock-free for the sweeper in the steady state: new
//! connections land in the shard's [`Ledger`], and a byte written to the
//! shard's wake socket (a non-blocking `UnixStream` pair whose read end
//! sits in the epoll set) tells the sweeper to adopt them. After adoption
//! the connection is owned *exclusively* by its sweep thread — read
//! buffers are never shared. Deregistration happens either by the driver
//! (`Drive::Close`), by I/O error or EOF, by idle timeout, or by reactor
//! shutdown; in every case the driver's `on_close` runs exactly once (the
//! handoff between a racing `register` and `shutdown` is model-checked
//! under `musuite_check`).

use crate::buf::{BufferPool, FrameAccumulator, MAX_IDLE_READ_BUFFERS};
use crate::config::WaitMode;
use crate::error::RpcError;
use crate::sys::{Epoll, Event};
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::Mutex;
use musuite_check::thread::{Builder, JoinHandle};
use musuite_codec::Frame;
use musuite_telemetry::netpoll::ReactorStats;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max complete frames drained from one connection per wakeup.
const SWEEP_BUDGET: usize = 32;
/// Empty zero-timeout waits an `Adaptive` poller spins through before
/// it blocks.
const ADAPTIVE_SPIN_SWEEPS: u32 = 64;
/// Readiness reports taken per `epoll_wait`.
const EVENT_BATCH: usize = 64;
/// Epoll token of the shard's wake socket; connections use their slab
/// index.
const WAKE_TOKEN: u64 = u64::MAX;

/// What a [`ConnDriver`] tells the reactor after each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep sweeping this connection.
    Continue,
    /// Close the connection (driver-initiated hangup).
    Close,
}

/// Why a connection left the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer hung up, the stream errored, or the driver asked to close.
    Disconnect,
    /// No traffic within the configured idle timeout.
    Idle,
    /// The reactor is shutting down.
    Shutdown,
}

/// Per-connection protocol logic plugged into the reactor.
///
/// The reactor owns the socket's read half and the frame-assembly buffer;
/// the driver only sees complete frames. `on_close` is called exactly
/// once, whatever the connection's fate — it is where a server releases
/// conn-table state and a client fails its in-flight calls.
pub trait ConnDriver: Send {
    /// Handles one complete frame. `rx_start_ns` is the monotonic
    /// timestamp at which the frame's first byte arrived (for NetRx
    /// stage attribution).
    fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive;

    /// Final callback when the connection leaves the reactor.
    fn on_close(&mut self, reason: CloseReason);
}

/// Tuning for a [`Reactor`]; mirrors the server's network knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of sweep threads; registered sockets are partitioned
    /// round-robin across them.
    pub pollers: usize,
    /// How a sweep thread waits for readiness.
    pub wait_mode: WaitMode,
    /// Drop connections with no traffic for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig { pollers: 2, wait_mode: WaitMode::Block, idle_timeout: None }
    }
}

/// A connection waiting to be adopted by a sweep thread.
struct Registration {
    stream: TcpStream,
    driver: Box<dyn ConnDriver>,
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration").field("stream", &self.stream).finish()
    }
}

/// The registration mailbox between `register` callers and one sweep
/// thread.
///
/// Exactly-once handoff invariant (model-checked): an item accepted by
/// [`Ledger::submit`] is collected by *either* the sweeper's
/// [`Ledger::drain`] *or* the shutdown initiator's
/// [`Ledger::begin_shutdown`] — never both, never neither — because the
/// shutdown flag and the pending queue live under one lock. A submit that
/// loses the race observes the flag and returns the item to its caller.
#[derive(Debug)]
pub(crate) struct Ledger<T> {
    state: Mutex<LedgerState<T>>,
}

#[derive(Debug)]
struct LedgerState<T> {
    pending: Vec<T>,
    shutdown: bool,
}

impl<T> Ledger<T> {
    pub(crate) fn new() -> Ledger<T> {
        Ledger { state: Mutex::new(LedgerState { pending: Vec::new(), shutdown: false }) }
    }

    /// Hands `item` to the sweep thread; returns it if the ledger already
    /// shut down (the caller then owns cleanup).
    pub(crate) fn submit(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(item);
        }
        st.pending.push(item);
        Ok(())
    }

    /// Takes everything submitted since the last drain.
    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut self.state.lock().pending)
    }

    /// `true` once shutdown has begun.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Marks the ledger shut down and returns items no sweeper adopted.
    pub(crate) fn begin_shutdown(&self) -> Vec<T> {
        let mut st = self.state.lock();
        st.shutdown = true;
        std::mem::take(&mut st.pending)
    }
}

struct Shard {
    ledger: Arc<Ledger<Registration>>,
    /// Write end of the wake socket: one byte makes the sweeper look at
    /// its ledger.
    waker: UnixStream,
    sweeper: Mutex<Option<JoinHandle<()>>>,
}

impl Shard {
    /// Wakes the sweeper. A full socket already holds a pending wake, so
    /// a failed write loses nothing.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// A fixed pool of sweep threads multiplexing registered sockets — the
/// `SharedPollers` arm of [`NetworkModel`](crate::NetworkModel).
///
/// # Examples
///
/// ```no_run
/// use musuite_rpc::reactor::{ConnDriver, CloseReason, Drive, Reactor, ReactorConfig};
/// use musuite_codec::Frame;
///
/// struct Printer;
/// impl ConnDriver for Printer {
///     fn on_frame(&mut self, frame: Frame, _rx: u64) -> Drive {
///         println!("{} bytes", frame.payload.len());
///         Drive::Continue
///     }
///     fn on_close(&mut self, _reason: CloseReason) {}
/// }
///
/// # fn main() -> Result<(), musuite_rpc::RpcError> {
/// let reactor = Reactor::start(ReactorConfig::default());
/// let socket = std::net::TcpStream::connect("127.0.0.1:9000")?;
/// reactor.register(socket, Box::new(Printer))?;
/// # Ok(())
/// # }
/// ```
pub struct Reactor {
    shards: Vec<Shard>,
    next: AtomicUsize,
    stats: ReactorStats,
    live: Arc<AtomicUsize>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("pollers", &self.shards.len())
            .field("live", &self.live_connections())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Reactor {
    /// Spawns `config.pollers` sweep threads and returns the handle used
    /// to register connections.
    ///
    /// # Panics
    ///
    /// Panics if `config.pollers` is zero, or if the OS refuses a thread,
    /// an epoll set or a wake socket.
    pub fn start(config: ReactorConfig) -> Reactor {
        assert!(config.pollers > 0, "reactor needs at least one poller");
        let stats = ReactorStats::new();
        let live = Arc::new(AtomicUsize::new(0));
        let pool = BufferPool::new(MAX_IDLE_READ_BUFFERS);
        let shards = (0..config.pollers)
            .map(|i| {
                // Resource exhaustion at startup is unrecoverable,
                // matching the server's worker pool.
                let (epoll, waker, wake_rx) = open_shard_io().expect("reactor epoll set"); // lint: allow(expect)
                let ledger = Arc::new(Ledger::new());
                let sweeper = Sweeper {
                    epoll,
                    wake_rx,
                    ledger: ledger.clone(),
                    conns: Vec::new(),
                    free: Vec::new(),
                    pool: pool.clone(),
                    stats: stats.clone(),
                    live: live.clone(),
                    wait_mode: config.wait_mode,
                    idle_timeout: config.idle_timeout,
                };
                let handle = Builder::new()
                    .name(format!("musuite-reactor-{i}"))
                    .spawn(move || run_sweeper(sweeper))
                    .expect("spawn reactor sweeper"); // lint: allow(expect)
                Shard { ledger, waker, sweeper: Mutex::new(Some(handle)) }
            })
            .collect();
        Reactor { shards, next: AtomicUsize::new(0), stats, live, shutdown: AtomicBool::new(false) }
    }

    /// Switches `stream` to non-blocking mode and hands it to a sweep
    /// thread (round-robin). On success the reactor owns the read half
    /// for the connection's lifetime.
    ///
    /// # Errors
    ///
    /// [`RpcError::ShuttingDown`] if the reactor has shut down,
    /// [`RpcError::Io`] if the socket rejects non-blocking mode. In both
    /// cases the driver's `on_close` has already run.
    pub fn register(
        &self,
        stream: TcpStream,
        mut driver: Box<dyn ConnDriver>,
    ) -> Result<(), RpcError> {
        if let Err(e) = stream.set_nonblocking(true) {
            driver.on_close(CloseReason::Shutdown);
            return Err(RpcError::Io(e));
        }
        let shard = &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        match shard.ledger.submit(Registration { stream, driver }) {
            Ok(()) => {
                shard.wake();
                Ok(())
            }
            Err(mut reg) => {
                reg.driver.on_close(CloseReason::Shutdown);
                Err(RpcError::ShuttingDown)
            }
        }
    }

    /// Number of sweep threads — the server's entire network-thread
    /// budget in `SharedPollers` mode.
    pub fn poller_count(&self) -> usize {
        self.shards.len()
    }

    /// Connections currently owned by sweep threads.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Sweep/park/frame counters for this reactor.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Stops all sweep threads, closing every connection (drivers get
    /// `on_close(Shutdown)`) and refusing future registrations.
    /// Idempotent; joins the sweepers before returning.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            // Orphans were submitted but never adopted; close them here —
            // the sweeper will never see them.
            for mut reg in shard.ledger.begin_shutdown() {
                let _ = reg.stream.shutdown(Shutdown::Both);
                reg.driver.on_close(CloseReason::Shutdown);
            }
            shard.wake();
        }
        for shard in &self.shards {
            let handle = shard.sweeper.lock().take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A shard's epoll set, with the read end of its wake socket already
/// watched, plus that socket's write end and read end.
fn open_shard_io() -> std::io::Result<(Epoll, UnixStream, UnixStream)> {
    let (waker, wake_rx) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(&wake_rx, WAKE_TOKEN)?;
    Ok((epoll, waker, wake_rx))
}

/// A connection owned by one sweep thread.
struct Conn {
    stream: TcpStream,
    acc: FrameAccumulator,
    driver: Box<dyn ConnDriver>,
    last_activity: Instant,
}

impl Conn {
    /// Drains up to `SWEEP_BUDGET` frames; returns how many, and why the
    /// connection must close, if it must.
    fn drain(&mut self) -> (usize, Option<CloseReason>) {
        for taken in 0..SWEEP_BUDGET {
            match self.acc.poll_frame(&mut self.stream) {
                Ok(Some((frame, rx_start_ns))) => {
                    if self.driver.on_frame(frame, rx_start_ns) == Drive::Close {
                        return (taken + 1, Some(CloseReason::Disconnect));
                    }
                }
                Ok(None) => return (taken, None),
                Err(_) => return (taken, Some(CloseReason::Disconnect)),
            }
        }
        (SWEEP_BUDGET, None)
    }
}

/// Everything one sweep thread owns: its epoll set, the read end of its
/// wake socket, its registration ledger and its connections.
struct Sweeper {
    epoll: Epoll,
    wake_rx: UnixStream,
    ledger: Arc<Ledger<Registration>>,
    /// Slab of owned connections; a slot's index is its epoll token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    pool: BufferPool,
    stats: ReactorStats,
    live: Arc<AtomicUsize>,
    wait_mode: WaitMode,
    idle_timeout: Option<Duration>,
}

impl Sweeper {
    fn adopt(&mut self, reg: Registration) {
        self.stats.record_registered();
        self.live.fetch_add(1, Ordering::AcqRel);
        let conn = Conn {
            stream: reg.stream,
            acc: FrameAccumulator::new(self.pool.acquire()),
            driver: reg.driver,
            last_activity: Instant::now(),
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let added = self.epoll.add(&conn.stream, slot as u64);
        self.conns[slot] = Some(conn);
        if added.is_err() {
            self.close(slot, CloseReason::Disconnect);
        }
    }

    /// Deregisters and closes the connection in `slot`, if any. A slot
    /// freed while a wait's reports are being handled is reused only by a
    /// later adoption, so a stale report finds it empty.
    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        let _ = self.epoll.del(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.driver.on_close(reason);
        self.stats.record_closed();
        self.live.fetch_sub(1, Ordering::AcqRel);
        self.free.push(slot);
    }

    /// Services one readiness report.
    fn service(&mut self, slot: usize, now: Instant) -> usize {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return 0 };
        let (frames, close) = conn.drain();
        if frames > 0 {
            conn.last_activity = now;
        }
        if let Some(reason) = close {
            self.close(slot, reason);
        }
        frames
    }

    /// Closes connections idle for `timeout` and returns the earliest
    /// idle deadline left. A connection mid-frame is never reaped (a
    /// slow-trickling peer is active, just glacially so) and sets no
    /// deadline: it can only leave that state by completing a frame,
    /// which renews its activity.
    fn reap_idle(&mut self, timeout: Duration) -> Option<Instant> {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else { continue };
            if conn.acc.mid_frame() {
                continue;
            }
            let deadline = conn.last_activity + timeout;
            if deadline <= now {
                self.close(slot, CloseReason::Idle);
            } else {
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
        }
        next
    }
}

/// The sweep loop proper. A stuck sweeper stalls timers and frame
/// delivery for every connection on the shard, so everything reachable
/// from here must stay nonblocking — enforced statically by the
/// `musuite-analyze` reachability pass. The one place it sleeps is
/// `epoll_wait`, which any readiness, registration or shutdown cuts short.
#[musuite_marker::nonblocking]
fn run_sweeper(mut sweeper: Sweeper) {
    let mut events = [Event::EMPTY; EVENT_BATCH];
    let mut empty_waits: u32 = 0;
    loop {
        let next_idle = sweeper.idle_timeout.and_then(|t| sweeper.reap_idle(t));
        let sleep = match sweeper.wait_mode {
            WaitMode::Block => true,
            WaitMode::Poll => false,
            WaitMode::Adaptive => empty_waits >= ADAPTIVE_SPIN_SWEEPS,
        };
        let timeout = if sleep {
            sweeper.stats.record_park();
            next_idle.map(|d| d.saturating_duration_since(Instant::now()))
        } else {
            Some(Duration::ZERO)
        };
        let ready = sweeper.epoll.wait(&mut events, timeout).unwrap_or(0);
        let now = Instant::now();
        let mut drained: u64 = 0;
        let mut woken = false;
        for event in &events[..ready] {
            match event.token() {
                WAKE_TOKEN => woken = true,
                slot => drained += sweeper.service(slot as usize, now) as u64,
            }
        }
        sweeper.stats.record_sweep(drained);
        if woken {
            // Empty the wake socket before the ledger: a registration
            // racing this drain leaves its byte behind for the next wait.
            let mut sink = [0u8; 64];
            while matches!(sweeper.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            for reg in sweeper.ledger.drain() {
                sweeper.adopt(reg);
            }
            if sweeper.ledger.is_shutdown() {
                for slot in 0..sweeper.conns.len() {
                    sweeper.close(slot, CloseReason::Shutdown);
                }
                return;
            }
        }
        if ready > 0 {
            empty_waits = 0;
        } else {
            empty_waits = empty_waits.saturating_add(1);
            if !sleep {
                sweeper.stats.record_yield();
                musuite_check::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::frame::FrameHeader;
    use musuite_codec::{FrameKind, Status};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Forwards every event to an mpsc channel.
    struct Probe {
        frames: mpsc::Sender<Frame>,
        closes: mpsc::Sender<CloseReason>,
    }

    impl ConnDriver for Probe {
        fn on_frame(&mut self, frame: Frame, rx_start_ns: u64) -> Drive {
            assert!(rx_start_ns > 0);
            let _ = self.frames.send(frame);
            Drive::Continue
        }
        fn on_close(&mut self, reason: CloseReason) {
            let _ = self.closes.send(reason);
        }
    }

    fn probe() -> (Probe, mpsc::Receiver<Frame>, mpsc::Receiver<CloseReason>) {
        let (ftx, frx) = mpsc::channel();
        let (ctx, crx) = mpsc::channel();
        (Probe { frames: ftx, closes: ctx }, frx, crx)
    }

    #[test]
    fn frames_flow_through_all_wait_modes() {
        for wait_mode in [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive] {
            let reactor =
                Reactor::start(ReactorConfig { pollers: 2, wait_mode, ..ReactorConfig::default() });
            let (mut peer, reactor_side) = loopback_pair();
            let (driver, frames, _closes) = probe();
            // Bytes queued before adoption must be reported too.
            peer.write_all(&Frame::request(0, 3, vec![0u8; 100]).to_bytes()).unwrap();
            reactor.register(reactor_side, Box::new(driver)).unwrap();
            for id in 1..5u64 {
                peer.write_all(&Frame::request(id, 3, vec![id as u8; 100]).to_bytes()).unwrap();
            }
            for id in 0..5u64 {
                let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(frame.header.request_id, id, "in-order under {wait_mode:?}");
            }
            assert_eq!(reactor.live_connections(), 1);
            reactor.shutdown();
            assert_eq!(reactor.live_connections(), 0);
        }
    }

    #[test]
    fn idle_block_shard_sleeps_until_readiness() {
        let reactor = Reactor::start(ReactorConfig { pollers: 1, ..ReactorConfig::default() });
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let parks = reactor.stats().parks();
        assert!(parks <= 3, "an idle Block shard parked {parks} times in 200 ms");
        peer.write_all(&Frame::request(9, 1, Vec::new()).to_bytes()).unwrap();
        let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.header.request_id, 9);
    }

    #[test]
    fn peer_hangup_closes_with_disconnect() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        drop(peer);
        let reason = closes.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::Disconnect);
        assert_eq!(reactor.live_connections(), 0);
    }

    #[test]
    fn corrupt_bytes_close_the_connection() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        peer.write_all(&[0u8; 64]).unwrap();
        let reason = closes.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reason, CloseReason::Disconnect);
    }

    #[test]
    fn driver_close_verdict_is_honored() {
        struct OneShot {
            closes: mpsc::Sender<CloseReason>,
        }
        impl ConnDriver for OneShot {
            fn on_frame(&mut self, _frame: Frame, _rx: u64) -> Drive {
                Drive::Close
            }
            fn on_close(&mut self, reason: CloseReason) {
                let _ = self.closes.send(reason);
            }
        }
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (ctx, crx) = mpsc::channel();
        reactor.register(reactor_side, Box::new(OneShot { closes: ctx })).unwrap();
        peer.write_all(&Frame::request(1, 1, Vec::new()).to_bytes()).unwrap();
        assert_eq!(crx.recv_timeout(Duration::from_secs(5)).unwrap(), CloseReason::Disconnect);
    }

    #[test]
    fn idle_connections_are_reaped_mid_frame_spared() {
        let reactor = Reactor::start(ReactorConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..ReactorConfig::default()
        });
        let (mut idle_peer, idle_side) = loopback_pair();
        let (mut busy_peer, busy_side) = loopback_pair();
        let (idle_driver, _f1, idle_closes) = probe();
        let (busy_driver, _f2, busy_closes) = probe();
        reactor.register(idle_side, Box::new(idle_driver)).unwrap();
        reactor.register(busy_side, Box::new(busy_driver)).unwrap();
        // The busy peer keeps one frame perpetually half-sent: it must
        // not be reaped even though no *complete* frame ever arrives.
        let frame_bytes = Frame::request(1, 1, vec![7u8; 1000]).to_bytes();
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut sent = 0usize;
        let mut reap_reason = None;
        while Instant::now() < deadline {
            if sent < frame_bytes.len() - 1 {
                busy_peer.write_all(&frame_bytes[sent..sent + 1]).unwrap();
                sent += 1;
            }
            if reap_reason.is_none() {
                if let Ok(reason) = idle_closes.try_recv() {
                    reap_reason = Some(reason);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reap_reason, Some(CloseReason::Idle), "idle conn must be reaped");
        assert!(busy_closes.try_recv().is_err(), "mid-frame conn must survive");
        // The reaped socket is actually dead: the peer sees EOF.
        let mut scratch = [0u8; 8];
        use std::io::Read;
        idle_peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(idle_peer.read(&mut scratch).unwrap_or(0), 0);
        reactor.shutdown();
    }

    #[test]
    fn register_after_shutdown_is_refused_with_close() {
        let reactor = Reactor::start(ReactorConfig::default());
        reactor.shutdown();
        let (_peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        let err = reactor.register(reactor_side, Box::new(driver)).unwrap_err();
        assert!(matches!(err, RpcError::ShuttingDown));
        assert_eq!(closes.recv_timeout(Duration::from_secs(1)).unwrap(), CloseReason::Shutdown);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_exactly_once() {
        let reactor = Reactor::start(ReactorConfig { pollers: 1, ..ReactorConfig::default() });
        let (_peer, reactor_side) = loopback_pair();
        let (driver, _frames, closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        reactor.shutdown();
        reactor.shutdown();
        assert_eq!(closes.recv_timeout(Duration::from_secs(5)).unwrap(), CloseReason::Shutdown);
        assert!(closes.try_recv().is_err(), "on_close must run exactly once");
    }

    #[test]
    fn sweep_budget_bounds_per_conn_work_without_loss() {
        let reactor = Reactor::start(ReactorConfig { pollers: 1, ..ReactorConfig::default() });
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        let count = 20 * SWEEP_BUDGET as u64;
        let mut burst = Vec::new();
        for id in 0..count {
            burst.extend_from_slice(&Frame::request(id, 1, Vec::new()).to_bytes());
        }
        peer.write_all(&burst).unwrap();
        for id in 0..count {
            let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.header.request_id, id);
        }
        // The budget forced the burst across many sweeps.
        assert!(reactor.stats().sweeps() >= 20);
    }

    #[test]
    fn stats_observe_traffic_and_lifecycle() {
        let reactor = Reactor::start(ReactorConfig::default());
        let (mut peer, reactor_side) = loopback_pair();
        let (driver, frames, _closes) = probe();
        reactor.register(reactor_side, Box::new(driver)).unwrap();
        let header = FrameHeader::new(FrameKind::OneWay, 0, 2, Status::Ok);
        let frame = Frame { header, payload: bytes::Bytes::new() };
        peer.write_all(&frame.to_bytes()).unwrap();
        frames.recv_timeout(Duration::from_secs(5)).unwrap();
        let stats = reactor.stats().clone();
        assert_eq!(stats.registered(), 1);
        assert_eq!(stats.frames(), 1);
        assert!(stats.sweeps() >= 1);
        reactor.shutdown();
        assert_eq!(reactor.stats().closed(), 1);
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// The registration/shutdown handoff: a submit racing `begin_shutdown`
    /// and a sweeper `drain` must surface the item on exactly one side —
    /// sweeper, shutdown initiator, or (rejected) back to the registrant.
    #[test]
    fn registration_vs_shutdown_is_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let ledger = Arc::new(Ledger::new());
                let submitter = {
                    let ledger = ledger.clone();
                    thread::spawn(move || ledger.submit(7u32).is_ok())
                };
                let closer = {
                    let ledger = ledger.clone();
                    thread::spawn(move || ledger.begin_shutdown())
                };
                let swept = ledger.drain();
                let accepted = submitter.join().unwrap();
                let orphans = closer.join().unwrap();
                let leftovers = ledger.drain();
                let surfaced = swept.len() + orphans.len() + leftovers.len();
                assert_eq!(
                    surfaced,
                    usize::from(accepted),
                    "an accepted registration must surface exactly once \
                     (swept={swept:?} orphans={orphans:?} leftovers={leftovers:?})"
                );
                assert!(ledger.submit(8u32).is_err(), "post-shutdown submits must be refused");
            })
            .expect("no interleaving may lose or duplicate a registration");
        assert!(report.iterations > 1, "submit/shutdown orders must be explored");
    }

    /// Full close-exactly-once protocol: each party (sweeper, shutdown
    /// initiator, rejected registrant) closes what it owns; under every
    /// interleaving the driver is closed exactly once.
    #[test]
    fn driver_close_is_exactly_once_under_race() {
        use musuite_check::atomic::{AtomicUsize, Ordering};

        let report = Checker::new()
            .check(|| {
                let closes = Arc::new(AtomicUsize::new(0));
                let ledger: Arc<Ledger<Arc<AtomicUsize>>> = Arc::new(Ledger::new());
                let submitter = {
                    let ledger = ledger.clone();
                    let closes = closes.clone();
                    thread::spawn(move || {
                        if let Err(counter) = ledger.submit(closes) {
                            // Rejected: the registrant owns the close.
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                let sweeper = {
                    let ledger = ledger.clone();
                    thread::spawn(move || {
                        // Sweeper adopts, then (shutdown observed) closes.
                        for counter in ledger.drain() {
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                // Shutdown initiator closes the orphans.
                for counter in ledger.begin_shutdown() {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                submitter.join().unwrap();
                sweeper.join().unwrap();
                for counter in ledger.drain() {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                assert_eq!(closes.load(Ordering::SeqCst), 1, "driver closed exactly once");
            })
            .expect("no interleaving may close a driver zero or two times");
        assert!(report.iterations > 1);
    }
}
