//! The TCP transport.
//!
//! DIET used CORBA; GridSolve and Ninf used raw sockets (with the
//! portability and descriptor-exhaustion problems the paper points out).
//! Here one [`TcpTransport`] carries `[u32 length][payload]` frames over a
//! `std::net::TcpStream`.
//!
//! Server side, [`TcpServer::spawn_framed`] serves every connection through
//! the readiness-driven [`reactor`](crate::reactor): an idle connection
//! costs a buffer instead of a thread, and handlers run on a bounded pool
//! of dispatch threads.
//!
//! Client side, every stub — [`TcpSedPool`], the remote-agent, jobserver
//! and telemetry clients — talks through a crate-private `Peer`: one
//! lazily dialed [`MuxConn`] to one address, its request ids, and the one
//! rule that a `Busy` reply is [`DietError::Busy`].

use crate::codec::{decode_message, encode_message, Message};
use crate::error::DietError;
use crate::profile::Profile;
use crate::reactor::{self, ConnHandle, FrameBuf, ReactorShared};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    pub fn send(&self, m: &Message) -> Result<(), DietError> {
        self.write_frame(&encode_message(m))
    }

    pub fn recv(&self) -> Result<Message, DietError> {
        let raw = self
            .read_frame()
            .map_err(|e| DietError::Transport(format!("read: {e}")))?;
        decode_message(raw)
    }

    /// Receive with a timeout; `Ok(None)` on expiry.
    pub fn recv_timeout(&self, d: Duration) -> Result<Option<Message>, DietError> {
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
    /// Dispatch threads running the handler on complete, decoded frames —
    /// the bound on requests handled at once, whatever the number of
    /// connections.
    pub workers: usize,
    /// Depth of the dispatch queue: frames read off any connection and
    /// waiting for a free worker. A frame that finds the queue full is
    /// answered `Busy{request_id}` echoing its own id — explicit
    /// backpressure, never an unbounded backlog.
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

/// A TCP server on the readiness-driven [`reactor`](crate::reactor): one
/// thread owns the listener and every connection, `cfg.workers` dispatch
/// threads run the handler, and a full dispatch queue is answered
/// [`Message::Busy`] per request so clients back off instead of piling up.
/// Its drop stops accepting; [`TcpServer::kill`] additionally severs every
/// live connection — the failure-injection hook that simulates a host
/// crash for fault-tolerance tests.
pub struct TcpServer {
    pub local_addr: std::net::SocketAddr,
    busy_rejections: Arc<AtomicU64>,
    reactor: Arc<ReactorShared>,
}

impl TcpServer {
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
            reactor,
        })
    }

    pub fn stop(&self) {
        self.reactor.request_stop();
    }

    /// Frames answered `Busy` because the dispatch queue was full.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Live connections the reactor currently has registered — actual live
    /// peers, not every connection ever accepted.
    pub fn tracked_connections(&self) -> usize {
        self.reactor.connections()
    }

    /// Simulate a crash: stop accepting and sever every live connection.
    /// In-flight requests on this server are lost, exactly as when the
    /// paper's Grid'5000 nodes died mid-campaign.
    pub fn kill(&self) {
        self.reactor.request_kill();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ------------------------------------------------------------- multiplexing

/// What a mux waiter receives: the reply and the instant the demux thread
/// read it, or the error that killed the stream.
type Reply = Result<(Message, Instant), DietError>;

/// Inner state shared between a [`MuxConn`]'s callers and its demux thread.
struct MuxInner {
    transport: TcpTransport,
    /// Waiters keyed by correlation id. The demux thread removes an entry
    /// when its reply arrives (and stamps when it did); a caller that
    /// times out removes its own.
    pending: Mutex<HashMap<u64, Sender<Reply>>>,
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
                Ok(msg) => {
                    // A reply whose caller timed out has no waiter; it is
                    // dropped.
                    let waiter = demux.pending.lock().remove(&msg.request_id());
                    if let Some(tx) = waiter {
                        let _ = tx.send(Ok((msg, Instant::now())));
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
        let until = Instant::now() + deadline;
        self.send(m, request_id)?
            .wait(until)
            .map(|(reply, _)| reply)
    }

    /// The first half of [`request`](Self::request): register a waiter for
    /// `request_id` and write `m`. The reply is collected from the returned
    /// [`Pending`], so one thread can have requests out on many connections
    /// at once and wait for all of them afterwards.
    pub(crate) fn send(&self, m: &Message, request_id: u64) -> Result<Pending, DietError> {
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
        // From here on the waiter is the `Pending`'s: dropping it on the
        // error path below deregisters it.
        let pending = Pending {
            mux: self.inner.clone(),
            request_id,
            rx,
            sent: Instant::now(),
            answered: false,
        };
        if let Err(e) = self.inner.transport.send(m) {
            self.inner.dead.store(true, Ordering::Release);
            return Err(e);
        }
        Ok(pending)
    }
}

/// A request already on the wire, waiting for the reply that echoes its id.
/// Dropped unanswered (deadline passed, or never waited on), it removes its
/// waiter: a reply landing later finds no entry and is dropped by the demux
/// thread — the stream itself stays healthy for other callers.
pub(crate) struct Pending {
    mux: Arc<MuxInner>,
    request_id: u64,
    rx: Receiver<Reply>,
    sent: Instant,
    answered: bool,
}

impl Pending {
    /// Wait until `until` for the reply; returns it with its round trip,
    /// from the send to the instant the demux thread read the reply (so a
    /// caller that waits on several requests in turn still measures each
    /// one's own).
    pub(crate) fn wait(mut self, until: Instant) -> Result<(Message, Duration), DietError> {
        let left = until.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(reply) => {
                self.answered = true;
                reply.map(|(msg, arrived)| (msg, arrived.saturating_duration_since(self.sent)))
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(DietError::Timeout {
                after_secs: self.sent.elapsed().as_secs_f64(),
            }),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(DietError::Transport("mux demux thread gone".into()))
            }
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if !self.answered {
            self.mux.pending.lock().remove(&self.request_id);
        }
        self.mux.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Unblock the demux thread: it is parked in `recv` on this stream
        // and exits (poisoning any stragglers) once the socket dies.
        self.inner.transport.shutdown();
    }
}

// ---------------------------------------------------------------------- peer

/// The client half every stub shares: one address, one lazily dialed
/// [`MuxConn`] to it (redialed once it dies), and the request ids for it.
pub(crate) struct Peer {
    addr: SocketAddr,
    mux: Mutex<Option<Arc<MuxConn>>>,
    next_id: AtomicU64,
    /// Connections this peer has dialed.
    dials: AtomicU64,
}

impl Peer {
    /// A peer for `addr`. Nothing is dialed until the first request, so a
    /// stub can be built before (or while) its server comes up.
    pub(crate) fn new(addr: SocketAddr) -> Peer {
        Peer {
            addr,
            mux: Mutex::new(None),
            next_id: AtomicU64::new(0),
            dials: AtomicU64::new(0),
        }
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live connection, dialing if there is none or it died. Many
    /// callers share the returned connection concurrently.
    fn mux(&self) -> Result<Arc<MuxConn>, DietError> {
        let mut slot = self.mux.lock();
        if let Some(mux) = slot.as_ref().filter(|m| !m.is_dead()) {
            return Ok(mux.clone());
        }
        let fresh = Arc::new(MuxConn::connect(self.addr)?);
        self.dials.fetch_add(1, Ordering::Relaxed);
        *slot = Some(fresh.clone());
        Ok(fresh)
    }

    /// Send the message `build` makes around a fresh request id and wait up
    /// to `deadline` for the reply echoing it. A `Busy` reply is
    /// [`DietError::Busy`] — the caller's cue to back off without blaming
    /// the (healthy) server.
    pub(crate) fn request(
        &self,
        build: impl FnOnce(u64) -> Message,
        deadline: Duration,
    ) -> Result<Message, DietError> {
        let until = Instant::now() + deadline;
        busy_is_error(self.send(build)?.wait(until)?.0)
    }

    /// The first half of [`request`](Self::request): put the message on the
    /// wire and return without waiting. Whoever waits on the [`Pending`]
    /// passes the reply through [`busy_is_error`].
    pub(crate) fn send(&self, build: impl FnOnce(u64) -> Message) -> Result<Pending, DietError> {
        let mux = self.mux()?;
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        mux.send(&build(request_id), request_id)
    }

    /// Liveness probe on this peer's shared connection: did the server
    /// answer a `Ping` within `timeout`? A `Busy` counts — the server did
    /// answer.
    pub(crate) fn ping(&self, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let reply = self.send(|request_id| Message::Ping { request_id });
        matches!(
            reply.and_then(|pending| pending.wait(until)),
            Ok((Message::Pong { .. } | Message::Busy { .. }, _))
        )
    }

    /// High-water mark of in-flight requests on the live connection (0 if
    /// there is none).
    fn peak_inflight(&self) -> u64 {
        self.mux
            .lock()
            .as_ref()
            .filter(|m| !m.is_dead())
            .map_or(0, |m| m.inflight_peak())
    }
}

/// A `Busy` reply as [`DietError::Busy`]; any other reply unchanged.
pub(crate) fn busy_is_error(reply: Message) -> Result<Message, DietError> {
    match reply {
        Message::Busy { .. } => Err(DietError::Busy),
        reply => Ok(reply),
    }
}

/// The error for a reply of the wrong kind to `what`.
pub(crate) fn unexpected(what: &str, reply: Message) -> DietError {
    DietError::Transport(format!("unexpected reply to {what}: {reply:?}"))
}

// ------------------------------------------------------------------ sed pool

/// Client-side registry of SeD endpoints: one `Peer` — one multiplexed
/// connection — per label.
///
/// `call` sends a [`Message::Call`] through the label's shared [`MuxConn`]
/// and waits for the [`Message::CallReply`] echoing its correlation id, so
/// any number of threads pipeline over one stream. A timed-out request
/// merely abandons its waiter (the connection survives); a stream error
/// marks the connection dead and the next call redials. A `Busy` reply
/// surfaces as [`DietError::Busy`], the caller's cue to back off without
/// striking the (healthy) server.
#[derive(Default)]
pub struct TcpSedPool {
    peers: RwLock<HashMap<String, Arc<Peer>>>,
}

impl TcpSedPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) the address serving a SeD label. A new
    /// address gets a new peer, so the next call dials it instead of
    /// reusing a live connection to the old one.
    pub fn register(&self, label: &str, addr: SocketAddr) {
        let mut peers = self.peers.write();
        let old = peers.get(label);
        if old.is_some_and(|p| p.addr == addr) {
            return;
        }
        let fresh = Peer::new(addr);
        // `dials` counts per label, across re-registrations.
        fresh.dials.store(
            old.map_or(0, |p| p.dials.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
        peers.insert(label.to_string(), Arc::new(fresh));
    }

    pub fn endpoint(&self, label: &str) -> Option<SocketAddr> {
        self.peers.read().get(label).map(|p| p.addr)
    }

    /// Every registered label: every SeD a call can reach, since
    /// [`call_traced`](Self::call_traced) refuses the others.
    pub fn labels(&self) -> Vec<String> {
        self.peers.read().keys().cloned().collect()
    }

    pub(crate) fn peer(&self, label: &str) -> Result<Arc<Peer>, DietError> {
        self.peers
            .read()
            .get(label)
            .cloned()
            .ok_or_else(|| DietError::Transport(format!("no endpoint registered for {label}")))
    }

    /// Times this pool dialed a fresh connection — pipelining evidence:
    /// a saturating client should hold ~one dial per label.
    pub fn dials(&self) -> u64 {
        let peers = self.peers.read();
        peers
            .values()
            .map(|p| p.dials.load(Ordering::Relaxed))
            .sum()
    }

    /// High-water mark of in-flight requests on `label`'s current
    /// connection (0 if none is pooled).
    pub fn peak_inflight(&self, label: &str) -> u64 {
        self.peers
            .read()
            .get(label)
            .map_or(0, |p| p.peak_inflight())
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
        // Refcounts, not copies: the server leaves out arguments the solve
        // did not replace, and this is where they come back from.
        let sent = profile.clone();
        let build = |request_id| Message::Call {
            request_id,
            ctx,
            profile,
        };
        match self.peer(label)?.request(build, deadline)? {
            Message::CallReply {
                queue_wait,
                solve,
                result,
                ..
            } => result
                .map(|mut p| {
                    p.restore_unreturned(sent);
                    (p, queue_wait, solve)
                })
                .map_err(DietError::Rejected),
            other => Err(unexpected("call", other)),
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
        let what = what.to_string();
        match self.peer(label)?.request(
            |request_id| Message::DumpMetricsRid { request_id, what },
            deadline,
        )? {
            Message::MetricsReplyRid { text, .. } => Ok(text),
            other => Err(unexpected("dump-metrics", other)),
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
        let id = id.to_string();
        match self
            .peer(label)?
            .request(|request_id| Message::GetData { request_id, id }, deadline)?
        {
            Message::DataReply { result, .. } => result.map_err(DietError::DataNotFound),
            other => Err(unexpected("get-data", other)),
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
        let build = |request_id| Message::PutData {
            request_id,
            id: id.to_string(),
            mode,
            value,
        };
        match self.peer(label)?.request(build, deadline)? {
            Message::DataReply { result, .. } => result.map(|_| ()).map_err(DietError::Rejected),
            other => Err(unexpected("put-data", other)),
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

    /// A blocking peer for one connection: accept it and hand it to `serve`.
    fn serve_one(serve: impl FnOnce(TcpTransport) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                serve(TcpTransport::from_stream(stream));
            }
        });
        addr
    }

    #[test]
    fn tcp_roundtrip_and_echo() {
        let addr = serve_one(|conn| {
            while let Ok(m) = conn.recv() {
                match m {
                    Message::Ping { request_id } => {
                        conn.send(&Message::Pong { request_id }).unwrap()
                    }
                    other => conn.send(&other).unwrap(),
                }
            }
        });

        let client = TcpTransport::connect(addr).unwrap();
        client.send(&Message::Ping { request_id: 3 }).unwrap();
        assert_eq!(client.recv().unwrap(), Message::Pong { request_id: 3 });

        let m = Message::Submit {
            service: "ramsesZoom1".into(),
            request_id: 9,
            ctx: obs::TraceCtx::default(),
            exclude: vec![],
        };
        client.send(&m).unwrap();
        assert_eq!(client.recv().unwrap(), m);
    }

    #[test]
    fn peer_ping_rides_one_connection_and_counts_busy_as_alive() {
        // Pong, then Busy, then silence: alive, alive (the server did
        // answer), dead — all three probes on the one dialed connection.
        let addr = serve_one(|conn| {
            let mut n = 0;
            while let Ok(Message::Ping { request_id }) = conn.recv() {
                n += 1;
                let _ = match n {
                    1 => conn.send(&Message::Pong { request_id }),
                    2 => conn.send(&Message::Busy { request_id }),
                    _ => Ok(()),
                };
            }
        });
        let peer = Peer::new(addr);
        assert!(peer.ping(Duration::from_secs(5)));
        assert!(peer.ping(Duration::from_secs(5)));
        assert!(!peer.ping(Duration::from_millis(50)));
        assert_eq!(peer.dials.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tcp_timeout_returns_none() {
        let addr = serve_one(|conn| {
            // Never answer; just hold the connection open long enough.
            let _ = conn.recv_timeout(Duration::from_millis(300));
        });
        let client = TcpTransport::connect(addr).unwrap();
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
        let addr = serve_one(|conn| {
            if let Ok(m) = conn.recv() {
                let _ = conn.send(&m);
            }
        });
        let big = Message::CallReply {
            request_id: 1,
            queue_wait: 0.0,
            solve: 0.0,
            result: Err("x".repeat(4096)),
        };
        let frame_len = encode_message(&big).len();
        let client = TcpTransport::connect(addr)
            .unwrap()
            .with_max_frame(frame_len - 1);
        client.send(&big).unwrap();
        assert!(matches!(client.recv(), Err(DietError::Transport(_))));
    }

    #[test]
    fn tcp_server_kill_severs_live_connections() {
        let server = TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), |h, m| {
            let _ = h.send(&m);
        })
        .unwrap();
        let client = TcpTransport::connect(server.local_addr).unwrap();
        let ping = Message::Ping { request_id: 1 };
        client.send(&ping).unwrap();
        assert_eq!(client.recv().unwrap(), ping);
        server.kill();
        // The established connection is gone: the next exchange fails.
        let dead = client
            .send(&ping)
            .and_then(|_| client.recv())
            .and_then(|_| client.send(&ping))
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
        let addr = serve_one(move |conn| {
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
        });
        let pool = TcpSedPool::new();
        pool.register("owner", addr);
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
        let addr = serve_one(|conn| {
            if let Ok(m) = conn.recv() {
                let _ = conn.send(&m);
            }
        });
        let big = Message::DataReply {
            request_id: 1,
            id: "ic".into(),
            result: Ok((
                crate::data::DietValue::vec_f64(vec![0.25; 4096]),
                crate::data::Persistence::Persistent,
            )),
        };
        let frame_len = encode_message(&big).len();
        let client = TcpTransport::connect(addr)
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
        let addr = serve_one(|conn| {
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
        });
        let pool = Arc::new(TcpSedPool::new());
        pool.register("sed/0", addr);
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
        let addr = serve_one(move |conn| {
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
        });
        let pool = TcpSedPool::new();
        pool.register("sed/0", addr);
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
    fn reregistering_a_label_routes_to_the_new_address() {
        // Regression: a live connection to the old address kept serving the
        // label after it was re-registered elsewhere.
        let answer_as = |name: &'static str| {
            TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), move |h, m| {
                let _ = h.send(&Message::CallReply {
                    request_id: m.request_id(),
                    queue_wait: 0.0,
                    solve: 0.0,
                    result: Err(name.to_string()),
                });
            })
            .unwrap()
        };
        let (a, b) = (answer_as("A"), answer_as("B"));
        let p = Profile::alloc(&crate::profile::ProfileDesc::alloc("who", -1, -1, 0));
        let served_by =
            |pool: &TcpSedPool| match pool.call("sed", p.clone(), Duration::from_secs(5)) {
                Err(DietError::Rejected(name)) => name,
                other => panic!("expected a named rejection, got {other:?}"),
            };
        let pool = TcpSedPool::new();
        pool.register("sed", a.local_addr);
        assert_eq!(served_by(&pool), "A");
        pool.register("sed", b.local_addr);
        assert_eq!(served_by(&pool), "B");
        assert_eq!(pool.dials(), 2);
    }

    #[test]
    fn server_rejects_with_busy_when_admission_queue_full() {
        // One wedged worker + one dispatch-queue slot: the request after the
        // queued one is answered Busy echoing its own id, on a connection
        // that stays open for the other two.
        let cfg = ServerConfig {
            workers: 1,
            accept_queue: 1,
            faults: None,
            obs: None,
        };
        let (started_tx, started_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let server = TcpServer::spawn_framed("127.0.0.1:0", cfg, move |h, m| {
            let request_id = m.request_id();
            if request_id == 1 {
                let _ = started_tx.send(());
                let _ = release_rx.recv(); // until the test drops `release_tx`
            }
            let text = String::new();
            let _ = h.send(&Message::MetricsReplyRid { request_id, text });
        })
        .unwrap();
        let client = TcpTransport::connect(server.local_addr).unwrap();
        let dump = |request_id| Message::DumpMetricsRid {
            request_id,
            what: String::new(),
        };
        client.send(&dump(1)).unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker never took request 1");
        client.send(&dump(2)).unwrap(); // waits in the one queue slot
        client.send(&dump(3)).unwrap(); // finds the queue full
        match client.recv_timeout(Duration::from_secs(5)) {
            Ok(Some(Message::Busy { request_id: 3 })) => {}
            other => panic!("expected Busy(3), got {other:?}"),
        }
        assert!(server.busy_rejections() >= 1);
        drop(release_tx);
        let mut answered: Vec<u64> = (0..2)
            .map(|_| client.recv().unwrap().request_id())
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, [1, 2], "the wedged and the queued request");
    }

    #[test]
    fn bind_with_retry_binds_ephemeral_port() {
        let l = bind_with_retry("127.0.0.1:0", 3).unwrap();
        assert_ne!(l.local_addr().unwrap().port(), 0);
    }

    #[test]
    fn tcp_large_file_payload() {
        let addr = serve_one(|conn| {
            if let Ok(m) = conn.recv() {
                conn.send(&m).unwrap();
            }
        });
        let client = TcpTransport::connect(addr).unwrap();
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
