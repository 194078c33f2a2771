//! The TCP transport.
//!
//! DIET used CORBA; GridSolve and Ninf used raw sockets (with the
//! portability and descriptor-exhaustion problems the paper points out).
//! Here one [`TcpTransport`] carries `[u32 length][payload]` frames over a
//! `std::net::TcpStream`.
//!
//! Server side, [`TcpServer::spawn_framed`] serves every connection through
//! the readiness-driven [`reactor`](crate::reactor): an idle connection
//! costs a buffer instead of a thread. The handler runs on the reactor
//! thread for the frames the frame table marks `inline` (`Ping`, `Call`,
//! `Submit`, `GetData`), unless it hands them back, and on a bounded pool
//! of dispatch threads for everything else.
//!
//! Client side, every stub — [`TcpSedPool`], the remote-agent, jobserver
//! and telemetry clients — talks through a crate-private `Peer`: one
//! lazily dialed [`MuxConn`] to one address, its request ids, and the one
//! rule that a `Busy` reply is [`DietError::Busy`]. A [`MuxConn`] has no
//! thread of its own: the callers waiting on it take turns reading the
//! socket (leader/follower), so a lone caller reads its own reply.

use crate::codec::{decode_message, encode_message, Message};
use crate::error::DietError;
use crate::profile::Profile;
use crate::reactor::{self, ConnHandle, FrameBuf, Lane, ReactorShared};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
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
/// can complete several frames), and the read timeout armed on the socket.
struct RecvBuf {
    fb: FrameBuf,
    pending: VecDeque<Bytes>,
    timeout: Option<Duration>,
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
                timeout: None,
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

    /// Read one `[u32 length][payload]` frame, waiting at most `timeout`
    /// (`None`: for as long as it takes).
    ///
    /// The length prefix is validated against `max_frame` *before* any body
    /// allocation, so a hostile or corrupted peer advertising a huge frame
    /// is rejected immediately instead of triggering an eager
    /// gigabyte-sized `vec![0; n]`. Complete frames come out of the shared
    /// [`FrameBuf`] as zero-copy slices of the receive buffer — a read
    /// burst that completes several frames slices them all at once and
    /// queues the extras for the next call; no per-frame `Vec` is built.
    /// A read that times out mid-frame leaves what arrived in the buffer.
    /// The socket's read timeout is set only when it changes.
    fn read_frame(&self, timeout: Option<Duration>) -> Result<Bytes, std::io::Error> {
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
            if rb.timeout != timeout {
                self.stream.set_read_timeout(timeout)?;
                rb.timeout = timeout;
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
            .read_frame(None)
            .map_err(|e| DietError::Transport(format!("read: {e}")))?;
        decode_message(raw)
    }

    /// Receive with a timeout; `Ok(None)` on expiry.
    pub fn recv_timeout(&self, d: Duration) -> Result<Option<Message>, DietError> {
        match self.read_frame(Some(d)) {
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
        }
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
    /// Dispatch threads running the handler on every frame it is not
    /// offered on the reactor thread, and on every message it hands back
    /// from there — the bound on blocking requests handled at once,
    /// whatever the number of connections.
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
/// thread owns the listener and every connection and serves the frames
/// that cannot block, `cfg.workers` dispatch threads run the handler on
/// the rest, and a full dispatch queue is answered
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
    /// run `handler` on complete, already-decoded frames. `handler` is told
    /// its [`Lane`] on every call. On [`Lane::Reactor`] — only for the
    /// frame table's `inline` frames — it answers if it can without
    /// blocking, or returns `Some(msg)` to hand the message to the pool;
    /// what it returns on [`Lane::Worker`] is dropped. It never blocks on
    /// the peer — replies go through [`ConnHandle::send`].
    pub fn spawn_framed(
        addr: impl ToSocketAddrs + Clone,
        cfg: ServerConfig,
        handler: impl Fn(&ConnHandle, Message, Lane) -> Option<Message> + Send + Sync + 'static,
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

/// One request awaiting its reply on a [`MuxConn`].
struct Waiter {
    /// The reply and the instant it was read off the socket, once someone
    /// has read it.
    reply: Option<(Message, Instant)>,
    /// The caller is asleep on `cv`.
    parked: bool,
    /// Notified by whoever reads the reply, by a leader leaving the socket
    /// with nobody reading it, and when the stream dies.
    cv: Arc<Condvar>,
}

/// What a [`MuxConn`]'s callers share under one lock.
#[derive(Default)]
struct MuxState {
    /// Waiters keyed by correlation id. Each caller removes its own when
    /// it leaves, answered or not.
    waiters: HashMap<u64, Waiter>,
    /// A caller is reading the socket: the leader. At most one at a time.
    reading: bool,
    /// The error that killed the stream, once one has.
    dead: Option<DietError>,
}

impl MuxState {
    /// The waiter of a request still pending: each caller removes its own
    /// only when it leaves.
    fn waiter(&mut self, request_id: u64) -> &mut Waiter {
        self.waiters
            .get_mut(&request_id)
            .expect("a pending request keeps its waiter until it leaves")
    }

    /// Fail every waiter at once and mark the connection dead; the owning
    /// peer redials on next use.
    fn poison(&mut self, err: DietError) {
        self.dead.get_or_insert(err);
        for w in self.waiters.values() {
            w.cv.notify_one();
        }
    }

    /// Wake one parked caller whose reply has not come, to read the socket
    /// in place of a leader that left.
    fn hand_off(&self) {
        if let Some(w) = self
            .waiters
            .values()
            .find(|w| w.parked && w.reply.is_none())
        {
            w.cv.notify_one();
        }
    }
}

/// State shared between a [`MuxConn`] and its [`Pending`] requests.
struct MuxInner {
    transport: TcpTransport,
    /// A std mutex: each waiter's condvar waits on it.
    state: StdMutex<MuxState>,
    /// Requests currently awaiting replies, and the high-water mark —
    /// direct evidence that one connection really pipelines.
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
}

impl MuxInner {
    fn state(&self) -> MutexGuard<'_, MuxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read the socket as leader until the reply to `me` is in, `until`
    /// passes or the stream fails, handing every other reply to its
    /// waiter on the way. Called with `reading` set and the lock released.
    fn lead(&self, me: u64, until: Instant) {
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            // Whole milliseconds, rounded up: a closed-loop caller's
            // deadlines then ask for the same socket timeout call after
            // call, and the transport arms it once.
            let left = Duration::from_millis(left.as_micros().div_ceil(1000) as u64);
            let read = self.transport.recv_timeout(left);
            let at = Instant::now();
            let mut st = self.state();
            match read {
                Ok(Some(msg)) => {
                    let id = msg.request_id();
                    // A reply whose caller already left is dropped.
                    if let Some(w) = st.waiters.get_mut(&id) {
                        w.reply = Some((msg, at));
                        if id == me {
                            return;
                        }
                        w.cv.notify_one();
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    let err = DietError::Transport(format!("mux read: {e}"));
                    st.poison(err);
                    return;
                }
            }
        }
    }
}

/// A multiplexed client connection: many in-flight requests share one TCP
/// stream, correlated by request id.
///
/// Callers register a waiter under their correlation id and write the
/// request frame (the transport's write lock keeps frames whole). No
/// thread of its own reads the socket: the callers do, leader/follower
/// style. A caller waiting for its reply reads the socket itself when no
/// one else is — a lone closed-loop caller reads its own reply, with no
/// thread in between. Replies it reads for other ids go to their waiters,
/// each through its own condvar; replies nobody waits on (a caller timed
/// out) are dropped. A leader that leaves — its reply came, its deadline
/// passed, or the stream died — hands reading to a caller still waiting.
/// A stream error fails every waiter at once with a retryable transport
/// error and marks the connection dead so the peer redials.
///
/// Nothing reads an idle connection, so a server that closes one is
/// noticed by the next request on it: that request fails with a
/// retryable transport error, and the one after it redials.
pub struct MuxConn {
    inner: Arc<MuxInner>,
}

impl MuxConn {
    pub fn connect(addr: SocketAddr) -> Result<Self, DietError> {
        let transport = TcpTransport::connect(addr)?;
        Ok(MuxConn {
            inner: Arc::new(MuxInner {
                transport,
                state: StdMutex::default(),
                inflight: AtomicU64::new(0),
                inflight_peak: AtomicU64::new(0),
            }),
        })
    }

    pub fn is_dead(&self) -> bool {
        self.inner.state().dead.is_some()
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
        let cv = Arc::new(Condvar::new());
        {
            let mut st = self.inner.state();
            if st.dead.is_some() {
                return Err(DietError::Transport("mux connection closed".into()));
            }
            let waiter = Waiter {
                reply: None,
                parked: false,
                cv: cv.clone(),
            };
            st.waiters.insert(request_id, waiter);
            let now = self.inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
            self.inner.inflight_peak.fetch_max(now, Ordering::Relaxed);
        }
        // From here on the waiter is the `Pending`'s: dropping it on the
        // error path below deregisters it.
        let pending = Pending {
            mux: self.inner.clone(),
            request_id,
            cv,
            sent: Instant::now(),
        };
        if let Err(e) = self.inner.transport.send(m) {
            // A stream that fails a write is dead for every caller on it;
            // the shutdown ends a leader's read at once.
            self.inner.state().poison(e.clone());
            self.inner.transport.shutdown();
            return Err(e);
        }
        Ok(pending)
    }
}

/// A request already on the wire, waiting for the reply that echoes its id.
/// Dropped without waiting, it removes its waiter: a reply landing later
/// finds no entry and is dropped by whoever reads it — the stream itself
/// stays healthy for other callers.
pub(crate) struct Pending {
    mux: Arc<MuxInner>,
    request_id: u64,
    cv: Arc<Condvar>,
    sent: Instant,
}

impl Pending {
    /// Wait until `until` for the reply, reading the socket while no other
    /// caller is; returns the reply with its round trip, from the send to
    /// the instant the reply was read off the socket. A caller that waits
    /// on several requests in turn, on several connections, reads each
    /// reply only when it comes to wait on it, and that read is the stamp.
    pub(crate) fn wait(self, until: Instant) -> Result<(Message, Duration), DietError> {
        let inner = &*self.mux;
        let mut st = inner.state();
        let out = loop {
            if let Some((msg, at)) = st.waiter(self.request_id).reply.take() {
                break Ok((msg, at.saturating_duration_since(self.sent)));
            }
            if let Some(e) = &st.dead {
                break Err(e.clone());
            }
            let now = Instant::now();
            if now >= until {
                break Err(DietError::Timeout {
                    after_secs: self.sent.elapsed().as_secs_f64(),
                });
            }
            if !st.reading {
                st.reading = true;
                drop(st);
                inner.lead(self.request_id, until);
                st = inner.state();
                st.reading = false;
                continue;
            }
            st.waiter(self.request_id).parked = true;
            st = self
                .cv
                .wait_timeout(st, until - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.waiter(self.request_id).parked = false;
        };
        st.waiters.remove(&self.request_id);
        if !st.reading {
            st.hand_off();
        }
        out
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        // `wait` already removed it; a request never waited on has not.
        self.mux.state().waiters.remove(&self.request_id);
        self.mux.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Fail fast whoever still waits: a leader parked in a read sees the
        // socket die and poisons every waiter.
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
        let server = TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), |h, m, _| {
            let _ = h.send(&m);
            None
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
            TcpServer::spawn_framed("127.0.0.1:0", ServerConfig::default(), move |h, m, _| {
                let _ = h.send(&Message::CallReply {
                    request_id: m.request_id(),
                    queue_wait: 0.0,
                    solve: 0.0,
                    result: Err(name.to_string()),
                });
                None
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
        let (started_tx, started_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (release_tx, release_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let release_rx = Mutex::new(release_rx);
        let server = TcpServer::spawn_framed("127.0.0.1:0", cfg, move |h, m, _| {
            let request_id = m.request_id();
            if request_id == 1 {
                let _ = started_tx.send(());
                let _ = release_rx.lock().recv(); // until the test drops `release_tx`
            }
            let text = String::new();
            let _ = h.send(&Message::MetricsReplyRid { request_id, text });
            None
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

    /// A correlated metrics dump, and the text its reply carries: which
    /// request it answers, spelled out.
    fn dump(request_id: u64) -> Message {
        Message::DumpMetricsRid {
            request_id,
            what: String::new(),
        }
    }

    fn answer(request_id: u64) -> Message {
        Message::MetricsReplyRid {
            request_id,
            text: format!("for {request_id}"),
        }
    }

    #[test]
    fn mux_callers_each_get_their_own_reply_in_reverse_order() {
        // Eight callers share one connection; the server answers only once
        // all eight are in, last first. Whoever reads the socket hands each
        // reply to its own caller.
        const N: u64 = 8;
        let addr = serve_one(|conn| {
            let ids: Vec<u64> = (0..N).map(|_| conn.recv().unwrap().request_id()).collect();
            for id in ids.into_iter().rev() {
                conn.send(&answer(id)).unwrap();
            }
            let _ = conn.recv();
        });
        let mux = Arc::new(MuxConn::connect(addr).unwrap());
        let callers: Vec<_> = (1..=N)
            .map(|id| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.request(&dump(id), id, Duration::from_secs(10)))
            })
            .collect();
        for (id, caller) in (1..=N).zip(callers) {
            assert_eq!(caller.join().unwrap().unwrap(), answer(id));
        }
        assert_eq!(mux.inflight_peak(), N);
    }

    #[test]
    fn a_leader_that_times_out_hands_reading_to_a_follower() {
        // Request 1 is never answered; request 2 is, 300 ms after it
        // arrives. Its caller starts once request 1 is on the server, so
        // request 1's caller is reading (or about to) and request 2's waits
        // as a follower, then takes over the reading when the leader's
        // 100 ms deadline passes.
        let (got_first, first_in) = std::sync::mpsc::channel();
        let addr = serve_one(move |conn| {
            assert_eq!(conn.recv().unwrap().request_id(), 1);
            got_first.send(()).unwrap();
            assert_eq!(conn.recv().unwrap().request_id(), 2);
            std::thread::sleep(Duration::from_millis(300));
            conn.send(&answer(2)).unwrap();
            let _ = conn.recv();
        });
        let mux = Arc::new(MuxConn::connect(addr).unwrap());
        let leader = {
            let mux = mux.clone();
            std::thread::spawn(move || mux.request(&dump(1), 1, Duration::from_millis(100)))
        };
        first_in.recv_timeout(Duration::from_secs(5)).unwrap();
        let t0 = Instant::now();
        let follower = mux.request(&dump(2), 2, Duration::from_secs(10));
        assert_eq!(follower.unwrap(), answer(2));
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        let led = leader.join().unwrap();
        assert!(matches!(led, Err(DietError::Timeout { .. })), "{led:?}");
        assert!(!mux.is_dead());
    }

    #[test]
    fn a_severed_stream_fails_every_waiter_before_its_deadline() {
        const N: u64 = 4;
        let addr = serve_one(|conn| {
            for _ in 0..N {
                conn.recv().unwrap();
            }
            conn.shutdown();
        });
        let mux = Arc::new(MuxConn::connect(addr).unwrap());
        let t0 = Instant::now();
        let callers: Vec<_> = (1..=N)
            .map(|id| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.request(&dump(id), id, Duration::from_secs(30)))
            })
            .collect();
        for caller in callers {
            let r = caller.join().unwrap();
            assert!(matches!(r, Err(DietError::Transport(_))), "{r:?}");
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        assert!(mux.is_dead());
    }

    #[test]
    fn an_idle_connection_its_server_closed_costs_one_retryable_error() {
        // The server answers one request per connection, then closes it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let conn = TcpTransport::from_stream(stream.unwrap());
                if let Ok(m) = conn.recv() {
                    conn.send(&answer(m.request_id())).unwrap();
                }
            }
        });
        let peer = Peer::new(addr);
        let ask = || peer.request(dump, Duration::from_secs(5));
        assert!(matches!(ask(), Ok(Message::MetricsReplyRid { .. })));
        // Closed while idle: nothing reads the connection, so the next
        // request is the one that finds out.
        std::thread::sleep(Duration::from_millis(50));
        let stale = ask();
        assert!(matches!(stale, Err(DietError::Transport(_))), "{stale:?}");
        assert!(crate::client::is_retryable(&stale.unwrap_err()));
        assert!(matches!(ask(), Ok(Message::MetricsReplyRid { .. })));
        assert_eq!(peer.dials.load(Ordering::Relaxed), 2);
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
