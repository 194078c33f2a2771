//! Transport abstraction.
//!
//! DIET used CORBA; GridSolve and Ninf used raw sockets (with the
//! portability and descriptor-exhaustion problems the paper points out).
//! Here a small [`Duplex`] trait covers both of this crate's transports:
//!
//! * [`InProcTransport`] — crossbeam channels; zero-copy, deterministic,
//!   used by tests and the campaign simulator.
//! * [`TcpTransport`] — `std::net::TcpStream` with `[u32 length][payload]`
//!   frames.
//!
//! Server side, [`TcpServer`] runs in one of two modes: the legacy pooled
//! mode (`spawn`/`spawn_with_config`) hands each accepted connection to a
//! worker thread for its lifetime — simple, and what the blocking-handler
//! tests exercise — while the framed mode ([`TcpServer::spawn_framed`])
//! multiplexes every connection through the readiness-driven
//! [`reactor`](crate::reactor), so idle connections cost a buffer instead
//! of a thread. The live hierarchy serving path rides the framed mode.

use crate::codec::{decode_message, encode_message, Message};
use crate::error::DietError;
use crate::profile::Profile;
use crate::reactor::{self, ConnHandle, FrameBuf, Poller, ReactorShared, Waker};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional message channel.
pub trait Duplex: Send {
    fn send(&self, m: &Message) -> Result<(), DietError>;
    fn recv(&self) -> Result<Message, DietError>;
    /// Receive with a timeout; `Ok(None)` on expiry.
    fn recv_timeout(&self, d: Duration) -> Result<Option<Message>, DietError>;
}

// ---------------------------------------------------------------- in-process

/// One end of an in-process duplex pair.
pub struct InProcTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

/// Create a connected pair of in-process endpoints. Messages still pass
/// through the codec so the wire format is exercised identically to TCP.
pub fn inproc_pair() -> (InProcTransport, InProcTransport) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        InProcTransport { tx: atx, rx: brx },
        InProcTransport { tx: btx, rx: arx },
    )
}

/// Create a bounded pair (used to test back-pressure handling).
pub fn inproc_pair_bounded(cap: usize) -> (InProcTransport, InProcTransport) {
    let (atx, arx) = bounded(cap);
    let (btx, brx) = bounded(cap);
    (
        InProcTransport { tx: atx, rx: brx },
        InProcTransport { tx: btx, rx: arx },
    )
}

impl Duplex for InProcTransport {
    fn send(&self, m: &Message) -> Result<(), DietError> {
        self.tx
            .send(encode_message(m))
            .map_err(|_| DietError::Transport("peer disconnected".into()))
    }

    fn recv(&self) -> Result<Message, DietError> {
        let raw = self
            .rx
            .recv()
            .map_err(|_| DietError::Transport("peer disconnected".into()))?;
        decode_message(raw)
    }

    fn recv_timeout(&self, d: Duration) -> Result<Option<Message>, DietError> {
        match self.rx.recv_timeout(d) {
            Ok(raw) => Ok(Some(decode_message(raw)?)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(DietError::Transport("peer disconnected".into()))
            }
        }
    }
}

// ----------------------------------------------------------------------- tcp

/// Frames larger than this are rejected unless the limit is raised with
/// [`TcpTransport::with_max_frame`]. Generous enough for the campaign's
/// multi-megabyte initial-conditions files.
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;

/// A framed TCP endpoint.
///
/// Incoming bytes accumulate in an internal buffer that survives across
/// calls: a `recv_timeout` that expires in the middle of a frame keeps the
/// partial frame buffered and the next receive resumes exactly where the
/// stream left off. (The earlier implementation used `read_exact` straight
/// off the socket, so a mid-frame timeout silently discarded the consumed
/// prefix and desynchronised every later frame.)
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes read off the socket but not yet returned as a frame.
    rbuf: Mutex<RecvBuf>,
    /// Serialises writers: a frame too big for the socket buffer takes
    /// several writes, and a multiplexed connection has many concurrent
    /// senders whose frames must not interleave.
    wlock: Mutex<()>,
    max_frame: usize,
}

/// Receive-side state: the shared [`FrameBuf`] accumulator plus frames
/// already sliced out of it but not yet handed to a caller (one read burst
/// can complete several frames).
struct RecvBuf {
    fb: FrameBuf,
    pending: VecDeque<Bytes>,
}

impl TcpTransport {
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, DietError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| DietError::Transport(format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        Ok(Self::from_stream(stream))
    }

    pub fn from_stream(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        TcpTransport {
            stream,
            rbuf: Mutex::new(RecvBuf {
                fb: FrameBuf::new(DEFAULT_MAX_FRAME),
                pending: VecDeque::new(),
            }),
            wlock: Mutex::new(()),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Override the frame-size limit (both directions of a connection
    /// should agree on it).
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self.rbuf.lock().fb.set_max_frame(max_frame);
        self
    }

    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Sever the socket in both directions. `shutdown` acts on the socket
    /// itself, not this handle, so clones of the stream (e.g. a server's
    /// kill list) can't keep it half-open: the peer observes EOF
    /// immediately instead of waiting out its read deadline.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn write_frame(&self, payload: &[u8]) -> Result<(), DietError> {
        let _w = self.wlock.lock();
        reactor::write_frame(&mut &self.stream, payload, &mut 0)
            .map_err(|e| DietError::Transport(format!("write: {e}")))
    }

    /// Read one `[u32 length][payload]` frame.
    ///
    /// The length prefix is validated against `max_frame` *before* any body
    /// allocation, so a hostile or corrupted peer advertising a huge frame
    /// is rejected immediately instead of triggering an eager
    /// gigabyte-sized `vec![0; n]`. Complete frames come out of the shared
    /// [`FrameBuf`] as zero-copy slices of the receive buffer — a read
    /// burst that completes several frames slices them all at once and
    /// queues the extras for the next call; no per-frame `Vec` is built.
    /// A read that times out mid-frame leaves what arrived in the buffer.
    fn read_frame(&self) -> Result<Bytes, std::io::Error> {
        let mut rb = self.rbuf.lock();
        let rb = &mut *rb;
        let mut frames = Vec::new();
        loop {
            if let Some(f) = rb.pending.pop_front() {
                return Ok(f);
            }
            rb.fb.drain_frames(&mut frames)?;
            if !frames.is_empty() {
                rb.pending.extend(frames.drain(..));
                continue;
            }
            if rb.fb.read_from(&mut &self.stream, usize::MAX)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
        }
    }
}

impl Duplex for TcpTransport {
    fn send(&self, m: &Message) -> Result<(), DietError> {
        self.write_frame(&encode_message(m))
    }

    fn recv(&self) -> Result<Message, DietError> {
        let raw = self
            .read_frame()
            .map_err(|e| DietError::Transport(format!("read: {e}")))?;
        decode_message(raw)
    }

    fn recv_timeout(&self, d: Duration) -> Result<Option<Message>, DietError> {
        self.stream
            .set_read_timeout(Some(d))
            .map_err(|e| DietError::Transport(format!("set timeout: {e}")))?;
        let res = match self.read_frame() {
            Ok(raw) => decode_message(raw).map(Some),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(DietError::Transport(format!("read: {e}"))),
        };
        self.stream.set_read_timeout(None).ok();
        res
    }
}

/// Bind a listener, retrying transient failures with a short linear
/// backoff. Ephemeral binds (`127.0.0.1:0`) essentially never fail, but a
/// CI matrix running stages in parallel can transiently exhaust the
/// ephemeral range or race a socket in TIME_WAIT; a few retries make the
/// gate deterministic.
pub fn bind_with_retry(
    addr: impl ToSocketAddrs + Clone,
    attempts: u32,
) -> Result<TcpListener, DietError> {
    let mut last = None;
    for i in 0..attempts.max(1) {
        match TcpListener::bind(addr.clone()) {
            Ok(l) => return Ok(l),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10 * (i as u64 + 1)));
            }
        }
    }
    Err(DietError::Transport(format!(
        "bind: {} (after {attempts} attempts)",
        last.map(|e| e.to_string()).unwrap_or_default()
    )))
}

/// Sizing and fault hooks for a [`TcpServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads serving accepted connections. A connection occupies
    /// a worker for its lifetime (one pooled multiplexed connection per
    /// client carries many in-flight requests, so this bounds concurrent
    /// *clients*, not concurrent requests).
    pub workers: usize,
    /// Accepted connections waiting for a free worker. When this queue is
    /// full the server replies `Busy` (request id 0) and closes — explicit
    /// backpressure instead of an unbounded thread spray.
    pub accept_queue: usize,
    /// Optional fault injection consulted by the accept loop
    /// (`accept_delay`); per-request faults stay with the SeD's own plan.
    pub faults: Option<Arc<crate::faults::FaultPlan>>,
    /// Registry the reactor's instrumentation (tick latency, queue depths,
    /// drop counters) lands in. `None` keeps the metrics in a private
    /// throwaway registry — the loop is instrumented either way.
    pub obs: Option<Arc<obs::Obs>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            accept_queue: 64,
            faults: None,
            obs: None,
        }
    }
}

/// A TCP acceptor feeding a bounded worker pool.
///
/// The earlier implementation spawned an unbounded OS thread per
/// connection; under load the serving layer saturated long before the
/// hardware did. Now a fixed pool of `workers` threads drains an explicit
/// admission queue of `accept_queue` accepted connections, and overflow is
/// answered with a [`Message::Busy`] frame (request id 0) so clients back
/// off instead of piling up. Returns the bound local address (useful with
/// port 0) and a guard whose drop stops accepting. [`TcpServer::kill`]
/// additionally severs every live connection — the failure-injection hook
/// that simulates a host crash for fault-tolerance tests.
pub struct TcpServer {
    pub local_addr: std::net::SocketAddr,
    busy_rejections: Arc<AtomicU64>,
    inner: ServerInner,
}

enum ServerInner {
    /// Thread-per-connection pool: a worker owns each accepted socket for
    /// its whole lifetime. Kept for blocking handlers (tests, simple
    /// echo-style services).
    Pooled {
        stop: Arc<AtomicBool>,
        waker: Arc<Waker>,
        /// Live connections by id, for `kill` — pruned when the serving
        /// worker finishes with the socket (the pre-reactor version pushed
        /// into a `Vec` on accept and never removed, so a long-running
        /// server leaked one stream clone per connection ever accepted).
        conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    },
    /// Readiness-driven reactor: see [`crate::reactor`].
    Framed { reactor: Arc<ReactorShared> },
}

impl TcpServer {
    /// Spawn with the default pool sizing ([`ServerConfig::default`]).
    pub fn spawn(
        addr: impl ToSocketAddrs + Clone,
        handler: impl Fn(TcpTransport) + Send + Sync + 'static,
    ) -> Result<Self, DietError> {
        Self::spawn_with_config(addr, ServerConfig::default(), handler)
    }

    /// Spawn the readiness-driven serving core: one reactor thread owns the
    /// listener and every accepted socket; `cfg.workers` dispatch threads
    /// run `handler` on complete, already-decoded frames. The handler must
    /// not block on the peer — replies go through [`ConnHandle::send`],
    /// which queues them for the reactor to flush on writability.
    pub fn spawn_framed(
        addr: impl ToSocketAddrs + Clone,
        cfg: ServerConfig,
        handler: impl Fn(&ConnHandle, Message) + Send + Sync + 'static,
    ) -> Result<Self, DietError> {
        let listener = bind_with_retry(addr, 5)?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DietError::Transport(format!("local_addr: {e}")))?;
        let busy_rejections = Arc::new(AtomicU64::new(0));
        let reactor = reactor::spawn(listener, cfg, Arc::new(handler), busy_rejections.clone())?;
        Ok(TcpServer {
            local_addr,
            busy_rejections,
            inner: ServerInner::Framed { reactor },
        })
    }

    /// Spawn the pooled (thread-per-connection) server with explicit
    /// worker-pool sizing and fault hooks.
    pub fn spawn_with_config(
        addr: impl ToSocketAddrs + Clone,
        cfg: ServerConfig,
        handler: impl Fn(TcpTransport) + Send + Sync + 'static,
    ) -> Result<Self, DietError> {
        let listener = bind_with_retry(addr, 5)?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DietError::Transport(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DietError::Transport(format!("set_nonblocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker =
            Arc::new(Waker::new().map_err(|e| DietError::Transport(format!("waker: {e}")))?);
        let mut poller = Poller::new().map_err(|e| DietError::Transport(format!("poller: {e}")))?;
        poller
            .add(listener.as_raw_fd(), 0, true, false)
            .and_then(|_| poller.add(waker.fd(), 1, true, false))
            .map_err(|e| DietError::Transport(format!("poller register: {e}")))?;
        let handler = std::sync::Arc::new(handler);
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let busy_rejections = Arc::new(AtomicU64::new(0));

        // Admission queue: accepted sockets waiting for a worker.
        let (work_tx, work_rx) = bounded::<(u64, TcpStream)>(cfg.accept_queue.max(1));
        for _ in 0..cfg.workers.max(1) {
            let rx = work_rx.clone();
            let h = handler.clone();
            let worker_conns = conns.clone();
            std::thread::spawn(move || {
                // Exits when the acceptor drops its sender and the queue
                // drains.
                while let Ok((id, stream)) = rx.recv() {
                    let sock = stream.try_clone().ok();
                    h(TcpTransport::from_stream(stream));
                    // The kill list holds a clone of this stream, so
                    // dropping the transport alone would leave the socket
                    // open and the peer blocked on a read that can never
                    // complete — sever it explicitly, then prune the entry
                    // so the list tracks live connections only.
                    if let Some(s) = sock {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }
                    worker_conns.lock().remove(&id);
                }
            });
        }

        let accept_conns = conns.clone();
        let accept_busy = busy_rejections.clone();
        let accept_stop = stop.clone();
        let accept_waker = waker.clone();
        std::thread::spawn(move || {
            // Readiness-driven accept: the thread parks in `poller.wait`
            // until the listener has a pending connection or the waker is
            // poked at stop — no sleep-poll, no accept latency floor.
            let mut events = Vec::new();
            let mut next_id: u64 = 0;
            'acceptor: loop {
                events.clear();
                if poller.wait(&mut events, -1).is_err() {
                    break;
                }
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                for ev in &events {
                    if ev.token == 1 {
                        accept_waker.drain();
                        continue;
                    }
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if let Some(d) = cfg.faults.as_ref().and_then(|f| f.accept_delay())
                                {
                                    std::thread::sleep(d);
                                }
                                stream.set_nonblocking(false).ok();
                                let id = next_id;
                                next_id += 1;
                                if let Ok(clone) = stream.try_clone() {
                                    accept_conns.lock().insert(id, clone);
                                }
                                if let Err(full) = work_tx.try_send((id, stream)) {
                                    // Queue full: explicit backpressure.
                                    // Tell the client before closing so it
                                    // backs off rather than timing out.
                                    accept_busy.fetch_add(1, Ordering::Relaxed);
                                    accept_conns.lock().remove(&id);
                                    let stream = match full {
                                        crossbeam::channel::TrySendError::Full((_, s))
                                        | crossbeam::channel::TrySendError::Disconnected((_, s)) => {
                                            s
                                        }
                                    };
                                    let t = TcpTransport::from_stream(stream);
                                    let _ = t.send(&Message::Busy { request_id: 0 });
                                    t.shutdown();
                                }
                            }
                            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => break 'acceptor,
                        }
                    }
                }
            }
            // Dropping work_tx lets idle workers exit once the queue drains.
        });
        Ok(TcpServer {
            local_addr,
            busy_rejections,
            inner: ServerInner::Pooled { stop, waker, conns },
        })
    }

    pub fn stop(&self) {
        match &self.inner {
            ServerInner::Pooled { stop, waker, .. } => {
                stop.store(true, Ordering::Release);
                waker.wake();
            }
            ServerInner::Framed { reactor } => reactor.request_stop(),
        }
    }

    /// Connections refused with `Busy` because the admission queue was full.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Live connections the server currently tracks. In pooled mode this is
    /// the kill list (pruned as workers finish); in framed mode it is the
    /// reactor's registered-socket count. Either way it must track actual
    /// live peers, not every connection ever accepted.
    pub fn tracked_connections(&self) -> usize {
        match &self.inner {
            ServerInner::Pooled { conns, .. } => conns.lock().len(),
            ServerInner::Framed { reactor } => reactor.connections(),
        }
    }

    /// Simulate a crash: stop accepting and sever every live connection.
    /// In-flight requests on this server are lost, exactly as when the
    /// paper's Grid'5000 nodes died mid-campaign.
    pub fn kill(&self) {
        match &self.inner {
            ServerInner::Pooled { conns, .. } => {
                self.stop();
                for (_, s) in conns.lock().drain() {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
            }
            ServerInner::Framed { reactor } => reactor.request_kill(),
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ------------------------------------------------------------- multiplexing

/// Inner state shared between a [`MuxConn`]'s callers and its demux thread.
struct MuxInner {
    transport: TcpTransport,
    /// Waiters keyed by correlation id. The demux thread removes an entry
    /// when its reply arrives; a caller that times out removes its own.
    pending: Mutex<HashMap<u64, Sender<Result<Message, DietError>>>>,
    /// Set once the stream fails; the owning pool redials on next use.
    dead: AtomicBool,
    /// Requests currently awaiting replies, and the high-water mark —
    /// direct evidence that one connection really pipelines.
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
}

impl MuxInner {
    /// Fail every waiter and mark the connection dead.
    fn poison(&self, err: DietError) {
        self.dead.store(true, Ordering::Release);
        for (_, tx) in self.pending.lock().drain() {
            let _ = tx.send(Err(err.clone()));
        }
    }
}

/// A multiplexed client connection: many in-flight requests share one TCP
/// stream, correlated by request id.
///
/// Callers register a one-shot waiter under their correlation id, write the
/// request frame (the transport's write lock keeps frames whole), and block
/// on their private channel. A dedicated demux thread reads every incoming
/// frame and routes it to the waiter whose id it echoes; replies arriving
/// for ids nobody waits on (a caller timed out) are dropped harmlessly. On
/// any stream error the demux thread poisons all waiters with a retryable
/// transport error and marks the connection dead so the pool redials.
pub struct MuxConn {
    inner: Arc<MuxInner>,
}

impl MuxConn {
    pub fn connect(addr: SocketAddr) -> Result<Self, DietError> {
        let transport = TcpTransport::connect(addr)?;
        let inner = Arc::new(MuxInner {
            transport,
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            inflight_peak: AtomicU64::new(0),
        });
        let demux = inner.clone();
        std::thread::spawn(move || loop {
            match demux.transport.recv() {
                Ok(Message::Busy { request_id: 0 }) => {
                    // Connection-level rejection: the server's admission
                    // queue was full before any request was read. Every
                    // waiter backs off.
                    demux.poison(DietError::Busy);
                    break;
                }
                Ok(msg) => {
                    let rid = match &msg {
                        Message::CallReply { request_id, .. } => *request_id,
                        Message::DataReply { request_id, .. } => *request_id,
                        Message::SubmitReply { request_id, .. } => *request_id,
                        Message::EstimateBatch { request_id, .. } => *request_id,
                        Message::Busy { request_id } => *request_id,
                        Message::MetricsReplyRid { request_id, .. } => *request_id,
                        Message::PushAck { request_id } => *request_id,
                        Message::DagReply { request_id, .. } => *request_id,
                        Message::DagEvent { request_id, .. } => *request_id,
                        Message::SubmitTasksReply { request_id, .. } => *request_id,
                        Message::TaskStatusReply { request_id, .. } => *request_id,
                        Message::AttachReply { request_id, .. } => *request_id,
                        Message::ProgressReply { request_id, .. } => *request_id,
                        // Uncorrelated frames (Pong) have no waiter on a mux
                        // connection; drop them.
                        _ => 0,
                    };
                    if rid != 0 {
                        if let Some(tx) = demux.pending.lock().remove(&rid) {
                            let _ = tx.send(Ok(msg));
                        }
                    }
                }
                Err(e) => {
                    demux.poison(DietError::Transport(format!("mux demux: {e}")));
                    break;
                }
            }
        });
        Ok(MuxConn { inner })
    }

    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    /// Highest number of simultaneously outstanding requests this
    /// connection has carried.
    pub fn inflight_peak(&self) -> u64 {
        self.inner.inflight_peak.load(Ordering::Relaxed)
    }

    /// Send `m` (which must carry `request_id` as its correlation id) and
    /// wait up to `deadline` for the reply that echoes the id.
    pub fn request(
        &self,
        m: &Message,
        request_id: u64,
        deadline: Duration,
    ) -> Result<Message, DietError> {
        if self.is_dead() {
            return Err(DietError::Transport("mux connection closed".into()));
        }
        let (tx, rx) = bounded(1);
        {
            let mut pending = self.inner.pending.lock();
            pending.insert(request_id, tx);
            let now = self.inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
            self.inner.inflight_peak.fetch_max(now, Ordering::Relaxed);
        }
        let sent = self.inner.transport.send(m);
        if let Err(e) = sent {
            self.inner.pending.lock().remove(&request_id);
            self.inner.inflight.fetch_sub(1, Ordering::Relaxed);
            self.inner.dead.store(true, Ordering::Release);
            return Err(e);
        }
        let res = match rx.recv_timeout(deadline) {
            Ok(reply) => reply,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                // Remove our waiter; if the reply lands later the demux
                // thread finds no entry and drops it — the stream itself
                // stays healthy for other callers.
                self.inner.pending.lock().remove(&request_id);
                Err(DietError::Timeout {
                    after_secs: deadline.as_secs_f64(),
                })
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(DietError::Transport("mux demux thread gone".into()))
            }
        };
        self.inner.inflight.fetch_sub(1, Ordering::Relaxed);
        res
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Unblock the demux thread: it is parked in `recv` on this stream
        // and exits (poisoning any stragglers) once the socket dies.
        self.inner.transport.shutdown();
    }
}

// ------------------------------------------------------------------ sed pool

/// Client-side registry of SeD endpoints with one multiplexed connection
/// per label.
///
/// `call` sends a [`Message::Call`] through the label's shared [`MuxConn`]
/// and waits for the [`Message::CallReply`] echoing its correlation id, so
/// any number of threads pipeline over one stream. A timed-out request
/// merely abandons its waiter (the connection survives); a stream error
/// marks the connection dead and the next call redials. A `Busy` reply —
/// per-request or connection-level — surfaces as [`DietError::Busy`], the
/// caller's cue to back off without striking the (healthy) server.
#[derive(Default)]
pub struct TcpSedPool {
    endpoints: RwLock<HashMap<String, SocketAddr>>,
    muxes: Mutex<HashMap<String, Arc<MuxConn>>>,
    next_id: AtomicU64,
    dials: AtomicU64,
}

impl TcpSedPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) the address serving a SeD label.
    pub fn register(&self, label: &str, addr: SocketAddr) {
        self.endpoints.write().insert(label.to_string(), addr);
    }

    pub fn endpoint(&self, label: &str) -> Option<SocketAddr> {
        self.endpoints.read().get(label).copied()
    }

    /// Every registered label — the jobserver's machine pool enumerates
    /// these for its heartbeat probes.
    pub fn labels(&self) -> Vec<String> {
        self.endpoints.read().keys().cloned().collect()
    }

    /// The live multiplexed connection for `label`, dialing if absent or
    /// dead. Many callers share the returned connection concurrently.
    fn mux_for(&self, label: &str) -> Result<Arc<MuxConn>, DietError> {
        if let Some(mux) = self.muxes.lock().get(label) {
            if !mux.is_dead() {
                return Ok(mux.clone());
            }
        }
        let addr = self
            .endpoint(label)
            .ok_or_else(|| DietError::Transport(format!("no endpoint registered for {label}")))?;
        let fresh = Arc::new(MuxConn::connect(addr)?);
        let mut muxes = self.muxes.lock();
        // A concurrent caller may have redialed while we were connecting;
        // prefer whichever live connection is installed so everyone
        // converges on one stream per label. The discarded dial is not
        // counted: `dials` measures installed connections (pooling
        // effectiveness), and a lost install race still leaves every
        // caller pipelining on the one winning stream.
        if let Some(existing) = muxes.get(label) {
            if !existing.is_dead() {
                return Ok(existing.clone());
            }
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        muxes.insert(label.to_string(), fresh.clone());
        Ok(fresh)
    }

    /// Drop the pooled connection for `label` if it has died (the next
    /// call redials). Keeping a dead entry around is harmless; this just
    /// keeps the map tidy for long-lived clients.
    fn evict_if_dead(&self, label: &str) {
        let mut muxes = self.muxes.lock();
        if muxes.get(label).is_some_and(|m| m.is_dead()) {
            muxes.remove(label);
        }
    }

    /// Times this pool dialed a fresh connection — pipelining evidence:
    /// a saturating client should hold ~one dial per label.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// High-water mark of in-flight requests on `label`'s current
    /// connection (0 if none is pooled).
    pub fn peak_inflight(&self, label: &str) -> u64 {
        self.muxes
            .lock()
            .get(label)
            .map(|m| m.inflight_peak())
            .unwrap_or(0)
    }

    /// One remote call attempt against `label`, bounded by `deadline`.
    pub fn call(
        &self,
        label: &str,
        profile: Profile,
        deadline: Duration,
    ) -> Result<Profile, DietError> {
        self.call_traced(label, profile, deadline, obs::TraceCtx::default())
            .map(|(p, _, _)| p)
    }

    /// Like [`call`](Self::call), but carries a trace context inside the
    /// request frame (so server-side spans join the caller's trace) and
    /// returns the server-measured `(profile, queue_wait, solve)` timings
    /// from the reply.
    pub fn call_traced(
        &self,
        label: &str,
        profile: Profile,
        deadline: Duration,
        ctx: obs::TraceCtx,
    ) -> Result<(Profile, f64, f64), DietError> {
        let mux = self.mux_for(label)?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let call = Message::Call {
            request_id,
            ctx,
            profile,
        };
        let reply = mux.request(&call, request_id, deadline);
        match reply {
            Ok(Message::CallReply {
                queue_wait,
                solve,
                result,
                ..
            }) => result
                .map(|mut p| {
                    // The server leaves out arguments the solve did not
                    // replace; the profile just sent still has them.
                    if let Message::Call { profile: sent, .. } = call {
                        p.restore_unreturned(sent);
                    }
                    (p, queue_wait, solve)
                })
                .map_err(DietError::Rejected),
            Ok(Message::Busy { .. }) => Err(DietError::Busy),
            Ok(other) => Err(DietError::Transport(format!(
                "unexpected reply to call: {other:?}"
            ))),
            Err(e) => {
                self.evict_if_dead(label);
                Err(e)
            }
        }
    }

    /// Metrics dump from the server behind `label` (the `dump-metrics`
    /// request), riding the label's shared [`MuxConn`] like `Call` does — no
    /// extra connection, and concurrent dumps from many threads demux
    /// cleanly by request id. `what` selects the view
    /// (`""`/`"prometheus"`, `"chrome"`, `"topology"` on a collector).
    pub fn dump_metrics_correlated(
        &self,
        label: &str,
        what: &str,
        deadline: Duration,
    ) -> Result<String, DietError> {
        let mux = self.mux_for(label)?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let reply = mux.request(
            &Message::DumpMetricsRid {
                request_id,
                what: what.to_string(),
            },
            request_id,
            deadline,
        );
        match reply {
            Ok(Message::MetricsReplyRid { text, .. }) => Ok(text),
            Ok(Message::Busy { .. }) => Err(DietError::Busy),
            Ok(other) => Err(DietError::Transport(format!(
                "unexpected reply to dump-metrics: {other:?}"
            ))),
            Err(e) => {
                self.evict_if_dead(label);
                Err(e)
            }
        }
    }

    /// Pull the grid data item `id` from the SeD behind `label` — the wire
    /// leg of DAGDA's SeD-to-SeD transfer. Shares the label's multiplexed
    /// connection with in-flight calls; the correlation id pairs the reply.
    pub fn get_data(
        &self,
        label: &str,
        id: &str,
        deadline: Duration,
    ) -> Result<(crate::data::DietValue, crate::data::Persistence), DietError> {
        let mux = self.mux_for(label)?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let reply = mux.request(
            &Message::GetData {
                request_id,
                id: id.to_string(),
            },
            request_id,
            deadline,
        );
        match reply {
            Ok(Message::DataReply { result, .. }) => result.map_err(DietError::DataNotFound),
            Ok(Message::Busy { .. }) => Err(DietError::Busy),
            Ok(other) => Err(DietError::Transport(format!(
                "unexpected reply to get-data: {other:?}"
            ))),
            Err(e) => {
                self.evict_if_dead(label);
                Err(e)
            }
        }
    }

    /// Store `value` under `id` on the SeD behind `label` — the client-side
    /// leg of `store_data`. The server acks with an empty [`Message::DataReply`];
    /// a `Volatile` mode is rejected there (nothing to persist).
    pub fn put_data(
        &self,
        label: &str,
        id: &str,
        value: crate::data::DietValue,
        mode: crate::data::Persistence,
        deadline: Duration,
    ) -> Result<(), DietError> {
        let mux = self.mux_for(label)?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let reply = mux.request(
            &Message::PutData {
                request_id,
                id: id.to_string(),
                mode,
                value,
            },
            request_id,
            deadline,
        );
        match reply {
            Ok(Message::DataReply { result, .. }) => {
                result.map(|_| ()).map_err(DietError::Rejected)
            }
            Ok(Message::Busy { .. }) => Err(DietError::Busy),
            Ok(other) => Err(DietError::Transport(format!(
                "unexpected reply to put-data: {other:?}"
            ))),
            Err(e) => {
                self.evict_if_dead(label);
                Err(e)
            }
        }
    }
}

/// The pool doubles as the [`DataResolver`](crate::dagda::DataResolver) a
/// TCP-served SeD uses for SeD-to-SeD pulls: `fetch` is `get_data` with a
/// fixed transfer deadline.
impl crate::dagda::DataResolver for TcpSedPool {
    fn fetch(
        &self,
        sed: &str,
        id: &str,
    ) -> Result<(crate::data::DietValue, crate::data::Persistence), DietError> {
        self.get_data(sed, id, Duration::from_secs(30))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn inproc_roundtrip() {
        let (a, b) = inproc_pair();
        a.send(&Message::Ping).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Ping);
        b.send(&Message::Pong).unwrap();
        assert_eq!(a.recv().unwrap(), Message::Pong);
    }

    #[test]
    fn inproc_timeout_expires() {
        let (a, _b) = inproc_pair();
        let r = a.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn inproc_disconnect_detected() {
        let (a, b) = inproc_pair();
        drop(b);
        assert!(a.send(&Message::Ping).is_err());
        assert!(a.recv().is_err());
    }

    #[test]
    fn tcp_roundtrip_and_echo() {
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            while let Ok(m) = conn.recv() {
                match m {
                    Message::Ping => conn.send(&Message::Pong).unwrap(),
                    Message::Shutdown => break,
                    other => conn.send(&other).unwrap(),
                }
            }
        })
        .unwrap();

        let client = TcpTransport::connect(server.local_addr).unwrap();
        client.send(&Message::Ping).unwrap();
        assert_eq!(client.recv().unwrap(), Message::Pong);

        let m = Message::Submit {
            service: "ramsesZoom1".into(),
            request_id: 9,
            ctx: obs::TraceCtx::default(),
            exclude: vec![],
        };
        client.send(&m).unwrap();
        assert_eq!(client.recv().unwrap(), m);
        client.send(&Message::Shutdown).unwrap();
    }

    #[test]
    fn tcp_timeout_returns_none() {
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            // Never answer; just hold the connection open long enough.
            let _ = conn.recv_timeout(Duration::from_millis(300));
        })
        .unwrap();
        let client = TcpTransport::connect(server.local_addr).unwrap();
        let r = client.recv_timeout(Duration::from_millis(30)).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn tcp_mid_frame_timeout_keeps_stream_in_sync() {
        // Regression: a slow writer delivers the length prefix and part of
        // the body, the reader's timeout expires mid-frame, and the next
        // receive must still decode the frame — the old implementation
        // threw away the consumed prefix and desynchronised the stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let msg = Message::Submit {
                service: "ramsesZoom2".into(),
                request_id: 77,
                ctx: obs::TraceCtx::default(),
                exclude: vec![],
            };
            let payload = encode_message(&msg);
            s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            // First half now, second half after the reader's timeout.
            let half = payload.len() / 2;
            s.write_all(&payload[..half]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            s.write_all(&payload[half..]).unwrap();
            s.flush().unwrap();
            // Hold the connection open until the reader is done.
            std::thread::sleep(Duration::from_millis(300));
        });

        let client = TcpTransport::connect(addr).unwrap();
        // Expires while the frame is still partial…
        assert!(client
            .recv_timeout(Duration::from_millis(40))
            .unwrap()
            .is_none());
        // …but the stream resumes cleanly.
        let m = client.recv().unwrap();
        assert_eq!(
            m,
            Message::Submit {
                service: "ramsesZoom2".into(),
                request_id: 77,
                ctx: obs::TraceCtx::default(),
                exclude: vec![],
            }
        );
        writer.join().unwrap();
    }

    #[test]
    fn tcp_hostile_length_prefix_rejected_before_allocation() {
        // Regression: a corrupted or malicious peer advertising a ~4 GiB
        // frame used to trigger an eager `vec![0u8; n]`. The length must be
        // validated against the configured cap before any body allocation.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(&0xFFFF_FFF0u32.to_le_bytes()).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let client = TcpTransport::connect(addr).unwrap().with_max_frame(1 << 20);
        match client.recv() {
            Err(DietError::Transport(e)) => assert!(e.contains("oversized"), "{e}"),
            other => panic!("expected oversized-frame rejection, got {other:?}"),
        }
        writer.join().unwrap();
    }

    #[test]
    fn tcp_configured_max_frame_is_enforced() {
        // A frame one byte over the configured limit is rejected; the limit
        // itself is fine.
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            if let Ok(m) = conn.recv() {
                let _ = conn.send(&m);
            }
        })
        .unwrap();
        let big = Message::CallReply {
            request_id: 1,
            queue_wait: 0.0,
            solve: 0.0,
            result: Err("x".repeat(4096)),
        };
        let frame_len = encode_message(&big).len();
        let client = TcpTransport::connect(server.local_addr)
            .unwrap()
            .with_max_frame(frame_len - 1);
        client.send(&big).unwrap();
        assert!(matches!(client.recv(), Err(DietError::Transport(_))));
    }

    #[test]
    fn tcp_server_kill_severs_live_connections() {
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            // Echo until the connection dies.
            while let Ok(m) = conn.recv() {
                if conn.send(&m).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let client = TcpTransport::connect(server.local_addr).unwrap();
        client.send(&Message::Ping).unwrap();
        assert_eq!(client.recv().unwrap(), Message::Ping);
        server.kill();
        // The established connection is gone: the next exchange fails.
        let dead = client
            .send(&Message::Ping)
            .and_then(|_| client.recv())
            .and_then(|_| client.send(&Message::Ping))
            .and_then(|_| client.recv());
        assert!(dead.is_err(), "connection should be severed, got {dead:?}");
    }

    #[test]
    fn sed_pool_get_and_put_data_roundtrip() {
        use crate::data::{DietValue, Persistence};
        use crate::datamgr::DataManager;
        // A miniature data server: PutData retains, GetData serves.
        let dm = Arc::new(DataManager::new());
        let server_dm = dm.clone();
        let server = TcpServer::spawn("127.0.0.1:0", move |conn| {
            while let Ok(m) = conn.recv() {
                match m {
                    Message::PutData {
                        request_id,
                        id,
                        mode,
                        value,
                    } => {
                        server_dm.retain(&id, value, mode);
                        let _ = conn.send(&Message::DataReply {
                            request_id,
                            id,
                            result: Ok((DietValue::Null, mode)),
                        });
                    }
                    Message::GetData { request_id, id } => {
                        let result = server_dm.get_with_mode(&id).map_err(|e| e.to_string());
                        let _ = conn.send(&Message::DataReply {
                            request_id,
                            id,
                            result,
                        });
                    }
                    _ => break,
                }
            }
        })
        .unwrap();
        let pool = TcpSedPool::new();
        pool.register("owner", server.local_addr);
        let blob = DietValue::vec_f64(vec![1.5; 256]);
        pool.put_data(
            "owner",
            "ic",
            blob.clone(),
            Persistence::Sticky,
            Duration::from_secs(2),
        )
        .unwrap();
        let (got, mode) = pool
            .get_data("owner", "ic", Duration::from_secs(2))
            .unwrap();
        assert_eq!(got, blob);
        assert_eq!(mode, Persistence::Sticky);
        // A miss comes back as DataNotFound, not a transport error — the
        // puller's cue to fall back to client re-shipping.
        let miss = pool.get_data("owner", "nope", Duration::from_secs(2));
        assert!(matches!(miss, Err(DietError::DataNotFound(_))), "{miss:?}");
        // The resolver facade goes through the same path.
        use crate::dagda::DataResolver;
        let (again, _) = pool.fetch("owner", "ic").unwrap();
        assert_eq!(again, blob);
    }

    #[test]
    fn tcp_max_frame_applies_to_data_replies() {
        // Mirror of `tcp_configured_max_frame_is_enforced` for the new data
        // frames: an oversized DataReply is rejected by the length check.
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            if let Ok(m) = conn.recv() {
                let _ = conn.send(&m);
            }
        })
        .unwrap();
        let big = Message::DataReply {
            request_id: 1,
            id: "ic".into(),
            result: Ok((
                crate::data::DietValue::vec_f64(vec![0.25; 4096]),
                crate::data::Persistence::Persistent,
            )),
        };
        let frame_len = encode_message(&big).len();
        let client = TcpTransport::connect(server.local_addr)
            .unwrap()
            .with_max_frame(frame_len - 1);
        client.send(&big).unwrap();
        assert!(matches!(client.recv(), Err(DietError::Transport(_))));
    }

    #[test]
    fn mux_correlates_out_of_order_replies() {
        use crate::profile::ProfileDesc;
        // A server that batches two calls and answers them in REVERSE
        // order: only correlation-id routing can hand each caller its own
        // reply. The pool must pipeline both calls down one connection.
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            let mut batch = Vec::new();
            while let Ok(m) = conn.recv() {
                if let Message::Call {
                    request_id,
                    profile,
                    ..
                } = m
                {
                    batch.push((request_id, profile));
                    if batch.len() == 2 {
                        for (rid, p) in batch.drain(..).rev() {
                            let _ = conn.send(&Message::CallReply {
                                request_id: rid,
                                queue_wait: 0.0,
                                solve: 0.0,
                                result: Ok(p),
                            });
                        }
                    }
                }
            }
        })
        .unwrap();
        let pool = Arc::new(TcpSedPool::new());
        pool.register("sed/0", server.local_addr);
        let d = ProfileDesc::alloc("echo", -1, 0, 0);
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let pool = pool.clone();
                let d = d.clone();
                std::thread::spawn(move || {
                    let mut p = Profile::alloc(&d);
                    p.set(0, crate::data::DietValue::ScalarI32(i), Default::default())
                        .unwrap();
                    let got = pool
                        .call("sed/0", p.clone(), Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(got, p, "caller {i} got someone else's reply");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Both calls shared one dialed connection and overlapped on it.
        assert_eq!(pool.dials(), 1, "pipelining should not redial");
        assert!(
            pool.peak_inflight("sed/0") >= 2,
            "expected >=2 in-flight on one connection, got {}",
            pool.peak_inflight("sed/0")
        );
    }

    #[test]
    fn mux_timeout_keeps_connection_for_other_callers() {
        use crate::profile::ProfileDesc;
        // One request is swallowed (its caller times out), then the server
        // echoes everything else. The surviving connection must still pair
        // later replies correctly — no eviction, no desync.
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = hits.clone();
        let server = TcpServer::spawn("127.0.0.1:0", move |conn| {
            while let Ok(m) = conn.recv() {
                if let Message::Call {
                    request_id,
                    profile,
                    ..
                } = m
                {
                    if server_hits.fetch_add(1, Ordering::Relaxed) == 0 {
                        continue; // swallow the first request
                    }
                    let _ = conn.send(&Message::CallReply {
                        request_id,
                        queue_wait: 0.0,
                        solve: 0.0,
                        result: Ok(profile),
                    });
                }
            }
        })
        .unwrap();
        let pool = TcpSedPool::new();
        pool.register("sed/0", server.local_addr);
        let d = ProfileDesc::alloc("noop", -1, -1, 0);
        let p = Profile::alloc(&d);
        let r = pool.call("sed/0", p.clone(), Duration::from_millis(60));
        assert!(matches!(r, Err(DietError::Timeout { .. })), "{r:?}");
        let ok = pool
            .call("sed/0", p.clone(), Duration::from_secs(2))
            .unwrap();
        assert_eq!(ok, p);
        // The timed-out request did not cost the pooled connection.
        assert_eq!(pool.dials(), 1);
    }

    #[test]
    fn server_rejects_with_busy_when_admission_queue_full() {
        // One worker occupied forever + a single queue slot: the third
        // connection must be told Busy (request id 0) instead of hanging.
        let cfg = ServerConfig {
            workers: 1,
            accept_queue: 1,
            faults: None,
            obs: None,
        };
        let server = TcpServer::spawn_with_config("127.0.0.1:0", cfg, |conn| {
            // Hold the worker until the connection dies.
            while conn.recv().is_ok() {}
        })
        .unwrap();
        let held = TcpTransport::connect(server.local_addr).unwrap();
        // Let the worker dequeue `held` before the next connection arrives
        // (on a single-CPU host the worker may otherwise not be scheduled
        // until after the acceptor has processed every pending connect, in
        // which case the Busy would land on `_queued` instead).
        std::thread::sleep(Duration::from_millis(150));
        let _queued = TcpTransport::connect(server.local_addr).unwrap();
        // And let the acceptor park `_queued` in the admission queue.
        std::thread::sleep(Duration::from_millis(150));
        let rejected = TcpTransport::connect(server.local_addr).unwrap();
        match rejected.recv_timeout(Duration::from_secs(2)) {
            Ok(Some(Message::Busy { request_id: 0 })) => {}
            other => panic!("expected Busy(0), got {other:?}"),
        }
        assert!(server.busy_rejections() >= 1);
        drop(held);
    }

    #[test]
    fn bind_with_retry_binds_ephemeral_port() {
        let l = bind_with_retry("127.0.0.1:0", 3).unwrap();
        assert_ne!(l.local_addr().unwrap().port(), 0);
    }

    #[test]
    fn tcp_large_file_payload() {
        let server = TcpServer::spawn("127.0.0.1:0", |conn| {
            if let Ok(m) = conn.recv() {
                conn.send(&m).unwrap();
            }
        })
        .unwrap();
        let client = TcpTransport::connect(server.local_addr).unwrap();
        let desc = crate::profile::ramses_zoom1_desc();
        let mut p = crate::profile::Profile::alloc(&desc);
        p.set(
            0,
            crate::data::DietValue::File {
                name: "big.bin".into(),
                data: Bytes::from(vec![0xAB; 3 << 20]),
            },
            Default::default(),
        )
        .unwrap();
        p.set(
            1,
            crate::data::DietValue::ScalarI32(128),
            Default::default(),
        )
        .unwrap();
        let m = Message::Call {
            request_id: 1,
            ctx: obs::TraceCtx::default(),
            profile: p.clone(),
        };
        client.send(&m).unwrap();
        match client.recv().unwrap() {
            Message::Call { profile, .. } => assert_eq!(profile, p),
            other => panic!("unexpected {other:?}"),
        }
    }
}
