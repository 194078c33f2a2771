//! Readiness-driven serving core.
//!
//! The PR-5 server parked one OS worker thread per accepted connection for
//! the connection's whole lifetime, so a process could hold at most
//! `workers` peers — nowhere near the "thousands of SeDs across sites"
//! topology the roadmap targets. This module replaces that model with a
//! single reactor thread multiplexing every connection through an
//! `epoll`-style readiness loop (std + a thin FFI shim; no external deps):
//!
//! * An **idle connection costs a registered buffer**, not a thread. The
//!   reactor owns the listener and every accepted socket in non-blocking
//!   mode; `epoll_wait` wakes it only for sockets with work to do, so the
//!   wakeup cost is O(ready), not O(connections).
//! * **Reads are state machines.** Bytes accumulate in a per-connection
//!   [`FrameBuf`]; only once a complete `[u32 length][payload]` frame is
//!   buffered is it served. A peer that trickles one byte at a time (or
//!   never completes its header) costs buffer space, never a worker.
//! * **Two lanes.** The server has one handler, and each call tells it its
//!   [`Lane`]. A frame the codec's frame table marks `inline` (`Ping`,
//!   `Call`, `Submit`, `GetData`) is decoded on the reactor thread and
//!   offered to the handler there: a SeD admits a `Call` into its solve
//!   queue and answers a `GetData` from its data manager, an MA answers a
//!   `Submit` from its held estimates, and the reply goes out with no
//!   thread hop. A handler that might block hands the message
//!   back, and it joins the dispatch pool. Every other frame goes to the
//!   pool undecoded, so bulk data is never decoded on the reactor thread.
//!   A handler that panics, on either lane, closes the connection it was
//!   serving and nothing else (`diet_reactor_handler_panics_total`).
//! * **The receive path is zero-copy.** `FrameBuf` freezes its fill buffer
//!   into [`Bytes`] and hands out O(1) frame slices; the codec decodes
//!   strings and file blobs as further slices of the same allocation.
//! * **Replies are queued writes.** A handler calls [`ConnHandle::send`]
//!   from any thread; the frame is written straight to the socket when
//!   nothing is queued ahead of it, and otherwise lands in the
//!   connection's write queue for the reactor to flush when the socket is
//!   writable, registering for write-readiness only while bytes are
//!   actually queued. A read burst of several frames is served corked:
//!   every reply sent meanwhile, from the reactor or any other thread,
//!   joins the queue, and the reactor flushes it once the burst is
//!   served. A flush is one bounded `write_vectored` over the queued
//!   buffers, so a burst of small requests is answered in one syscall.
//!
//! Backpressure and failure semantics: a full dispatch queue answers
//! `Busy` echoing the frame's request id; `kill` severs every socket so peers
//! observe a crash; an oversized length prefix closes the connection
//! before any body byte is buffered; a closed peer is pruned from the
//! reactor's table immediately (the old kill-list grew without bound).

use crate::codec::{decode_message, encode_message, peek_request_id, runs_inline, Message};
use crate::error::DietError;
use crate::transport::{ServerConfig, DEFAULT_MAX_FRAME};
use bytes::Bytes;
use obs::{Counter, Gauge, Histogram, Obs, Registry};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// What one `read` asks for while a frame's header is not yet in: several
/// small frames arrive in one call, and a large frame's buffer carries at
/// most this much besides the frame.
const HEAD_CHUNK: usize = 4 << 10;

/// Bytes one connection may consume per readiness event before the reactor
/// moves on (level-triggered polling re-arms it). Keeps a firehose peer
/// from starving everyone else on the loop.
const READ_BUDGET: usize = 1 << 20;

/// Cap on queued-but-unsent reply bytes per connection. A peer that stops
/// reading while replies pile up is disconnected instead of ballooning the
/// server's memory.
const WRITE_QUEUE_CAP: usize = 64 << 20;

/// First-class reactor instrumentation (ISSUE 8): every counter here was
/// previously a silent drop or an unobservable loop property. Handles are
/// interned once at spawn so the hot loop touches only atomics.
pub(crate) struct ReactorMetrics {
    /// Wall time spent servicing one wakeup (accept + reads + dispatch +
    /// flushes) — the loop's scheduling latency floor for everyone on it.
    tick_seconds: Arc<Histogram>,
    /// Size of the last ready set handed back by the poller.
    ready_events: Arc<Gauge>,
    /// Frames sitting in the bounded dispatch queue awaiting a worker.
    dispatch_depth: Arc<Gauge>,
    /// Unsent reply bytes queued across all connections (the sum the
    /// 64 MiB per-connection cap bounds).
    write_queue_bytes: Arc<Gauge>,
    /// `Busy` answered because the dispatch queue was full.
    busy_rejections: Arc<Counter>,
    /// Peers severed because their write queue hit [`WRITE_QUEUE_CAP`].
    write_overflow_severed: Arc<Counter>,
    /// Connections cut off for advertising an oversized length prefix.
    oversized_frames: Arc<Counter>,
    /// Connections torn down abnormally (overflow, oversized frame, I/O
    /// error, kill, handler panic) — peer-initiated EOF is a normal close,
    /// not a sever.
    severed_conns: Arc<Counter>,
    /// Handler calls that panicked, on either lane. Each one closed the
    /// connection it was serving and nothing else.
    handler_panics: Arc<Counter>,
}

impl ReactorMetrics {
    fn new(reg: &Registry) -> Self {
        ReactorMetrics {
            tick_seconds: reg.histogram("diet_reactor_tick_seconds"),
            ready_events: reg.gauge("diet_reactor_ready_events"),
            dispatch_depth: reg.gauge("diet_reactor_dispatch_depth"),
            write_queue_bytes: reg.gauge("diet_reactor_write_queue_bytes"),
            busy_rejections: reg.counter("diet_reactor_busy_rejections_total"),
            write_overflow_severed: reg.counter("diet_reactor_write_overflow_severed_total"),
            oversized_frames: reg.counter("diet_reactor_oversized_frames_total"),
            severed_conns: reg.counter("diet_reactor_severed_conns_total"),
            handler_panics: reg.counter("diet_reactor_handler_panics_total"),
        }
    }
}

/// A readiness event: which registration fired and how.
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

// ------------------------------------------------------------------- poller
//
// Linux gets epoll: with thousands of idle connections on one core, a
// poll(2) scan would be O(n) per wakeup and eat the CPU the foreground
// workload is being benchmarked on. Other unixes fall back to poll(2).

#[cfg(target_os = "linux")]
mod sys {
    use super::Event;
    use std::io;
    use std::os::unix::io::RawFd;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(r: i32) -> io::Result<i32> {
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r)
        }
    }

    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(
            &mut self,
            op: i32,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut events = 0;
            if read {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if write {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        /// Block until a registered fd is ready (`timeout_ms < 0` blocks
        /// indefinitely), appending events to `out`. Errors and hangups
        /// report as readable so the read path observes them as EOF.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.buf[..n] {
                let events = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated the event buffer: grow so a big ready set
                // drains in one syscall next time.
                self.buf.resize(n * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::Event;
    use std::io;
    use std::os::unix::io::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// poll(2)-backed fallback: O(registered) per wakeup, fine for the
    /// modest fd counts non-Linux dev machines see in tests.
    pub struct Poller {
        reg: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller { reg: Vec::new() })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.reg.push((fd, token, read, write));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            for r in &mut self.reg {
                if r.0 == fd {
                    *r = (fd, token, read, write);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.reg.retain(|r| r.0 != fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .reg
                .iter()
                .map(|&(fd, _, read, write)| PollFd {
                    fd,
                    events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = loop {
                match unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) } {
                    -1 => {
                        let e = io::Error::last_os_error();
                        if e.kind() == io::ErrorKind::Interrupted {
                            continue;
                        }
                        return Err(e);
                    }
                    n => break n,
                }
            };
            if n <= 0 {
                return Ok(());
            }
            for (pfd, &(_, token, _, _)) in fds.iter().zip(&self.reg) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                });
            }
            Ok(())
        }
    }
}

pub(crate) use sys::Poller;

// -------------------------------------------------------------------- waker

/// Cross-thread wakeup for a thread parked in [`Poller::wait`]. std has no
/// pipe, so the wake channel is a self-connected loopback TCP pair; an
/// atomic coalesces bursts of wakes into one in-flight byte.
pub(crate) struct Waker {
    tx: TcpStream,
    rx: TcpStream,
    pending: AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true).ok();
        Ok(Waker {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Nudge the poller out of its wait. Coalesced: while a byte is already
    /// in flight further wakes are a single atomic read-modify-write.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Poller side: swallow pending wake bytes and re-arm. Level-triggered
    /// polling makes the ordering forgiving — a byte written after the
    /// drain simply triggers the next wait.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::Release);
    }

    /// The fd the poller registers (read side of the pair).
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

// ----------------------------------------------------------------- framebuf

/// Accumulates raw socket bytes and slices out complete
/// `[u32 length][payload]` frames with zero per-frame copies.
///
/// The completed prefix of the fill buffer is frozen into one [`Bytes`]
/// (an O(1) ownership transfer — the vendored `Bytes` is `Arc<Vec<u8>>`
/// backed) and each frame is an O(1) slice of it; only the partial tail of
/// an in-progress frame is carried over by copy, and that copy is bounded
/// by one frame. Length prefixes are validated against `max_frame` as soon
/// as the 4 header bytes arrive — before any body byte is waited for, so a
/// hostile peer advertising a gigabyte frame is rejected without any
/// allocation tracking it.
///
/// [`read_from`](Self::read_from) is how both receive loops fill it: once
/// a frame's header is in, the buffer is sized to that frame's end and the
/// socket is read straight into it, so a large frame is copied once, by the
/// kernel, into an allocation of its own size — which is what a value
/// decoded out of the frame (and kept by a data store) then pins.
pub struct FrameBuf {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameBuf {
    pub fn new(max_frame: usize) -> Self {
        FrameBuf {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Append raw bytes read off the socket.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Read from `r`, at most `limit` (> 0) bytes and never past the end of
    /// the frame in progress; `Ok(0)` is end of stream. While that frame's
    /// header is incomplete this is one `read` of up to [`HEAD_CHUNK`];
    /// after, it reads until the frame is whole, `limit` is spent or `r`
    /// fails — a `WouldBlock` or timeout comes back as the error, with the
    /// bytes that did arrive kept. An oversized header is the same error
    /// [`drain_frames`](Self::drain_frames) reports, and reserves nothing.
    /// Call `drain_frames` between reads, so that the next frame starts in
    /// a buffer of its own.
    pub fn read_from(&mut self, r: &mut impl Read, limit: usize) -> io::Result<usize> {
        match self.scan()?.1 {
            Some(frame_end) => {
                let missing = frame_end - self.buf.len();
                self.buf.reserve_exact(missing);
                // `read_to_end` fills spare capacity without zeroing it.
                r.take(missing.min(limit) as u64).read_to_end(&mut self.buf)
            }
            None => {
                let mut chunk = [0u8; HEAD_CHUNK];
                let n = r.read(&mut chunk[..HEAD_CHUNK.min(limit)])?;
                self.push(&chunk[..n]);
                Ok(n)
            }
        }
    }

    /// Change the frame-size cap (applies to frames not yet drained).
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Bytes buffered but not yet sliced into frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Walk the buffered frames: where the last complete one ends, and —
    /// once the header of the one after it is in — where that one will.
    /// `Err` on a length prefix over `max_frame`.
    fn scan(&self) -> io::Result<(usize, Option<usize>)> {
        let mut end = 0;
        loop {
            let rest = self.buf.len() - end;
            if rest < 4 {
                return Ok((end, None));
            }
            let n = u32::from_le_bytes(self.buf[end..end + 4].try_into().unwrap()) as usize;
            if n > self.max_frame {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oversized frame: {n} > max {}", self.max_frame),
                ));
            }
            if rest < 4 + n {
                return Ok((end, Some(end + 4 + n)));
            }
            end += 4 + n;
        }
    }

    /// Slice every complete frame into `out`. `Err` means the stream is
    /// unrecoverable (oversized length prefix) and the connection must be
    /// closed.
    pub fn drain_frames(&mut self, out: &mut Vec<Bytes>) -> io::Result<()> {
        let (end, _) = self.scan()?;
        if end == 0 {
            return Ok(());
        }
        // Freeze the complete prefix in O(1); the partial tail becomes the
        // next fill buffer.
        let tail = self.buf.split_off(end);
        let whole = Bytes::from(std::mem::replace(&mut self.buf, tail));
        let mut p = 0;
        while p < whole.len() {
            let n = u32::from_le_bytes(whole[p..p + 4].try_into().unwrap()) as usize;
            out.push(whole.slice(p + 4..p + 4 + n));
            p += 4 + n;
        }
        Ok(())
    }
}

/// Most buffers one vectored write is handed: well under any `IOV_MAX`,
/// and a queue of small replies still goes out in a few syscalls.
const MAX_IOV: usize = 64;

/// Send what is left of the frames `[u32 length][payload]`, one per
/// payload and back to back, after the first `*done` bytes of them:
/// prefixes and payloads go to the kernel together, up to [`MAX_IOV`]
/// buffers per vectored write, so frames that fit the socket are one
/// syscall and one segment. Returns once every frame is out or `w` fails —
/// `WouldBlock` included, with `*done` saying how far it got.
pub(crate) fn write_frames<P: AsRef<[u8]>>(
    w: &mut impl Write,
    payloads: &[P],
    done: &mut usize,
) -> io::Result<()> {
    let total: usize = payloads.iter().map(|p| 4 + p.as_ref().len()).sum();
    // Frame `first` starts `base` bytes into the wire.
    let (mut first, mut base) = (0, 0);
    while *done < total {
        while base + 4 + payloads[first].as_ref().len() <= *done {
            base += 4 + payloads[first].as_ref().len();
            first += 1;
        }
        let frames = &payloads[first..payloads.len().min(first + MAX_IOV / 2)];
        let mut heads = [[0u8; 4]; MAX_IOV / 2];
        for (head, p) in heads.iter_mut().zip(frames) {
            *head = (p.as_ref().len() as u32).to_le_bytes();
        }
        let mut slices = [IoSlice::new(&[]); MAX_IOV];
        let mut n = 0;
        let mut off = *done - base;
        for (head, p) in heads.iter().zip(frames) {
            let body = p.as_ref();
            if off < 4 {
                slices[n] = IoSlice::new(&head[off..]);
                n += 1;
            }
            if off.saturating_sub(4) < body.len() {
                slices[n] = IoSlice::new(&body[off.saturating_sub(4)..]);
                n += 1;
            }
            off = 0;
        }
        match w.write_vectored(&slices[..n]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => *done += k,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The buffers still to send of the frame `[u32 length][payload]` after its
/// first `done` bytes went out.
fn frame_rest(payload: Bytes, done: usize) -> impl Iterator<Item = Bytes> {
    let prefix = (payload.len() as u32).to_le_bytes();
    let head = (done < 4).then(|| Bytes::from(prefix[done..].to_vec()));
    let body = payload.slice(done.saturating_sub(4)..);
    head.into_iter().chain(Some(body).filter(|b| !b.is_empty()))
}

// -------------------------------------------------------------- conn handle

#[derive(Default)]
struct WriteQ {
    bufs: VecDeque<Bytes>,
    /// Bytes of `bufs[0]` already written to the socket.
    head: usize,
    /// Total unsent bytes across the queue.
    bytes: usize,
    /// The reactor is serving a read burst of several frames: every send
    /// queues, and the reactor flushes the queue once the burst is served.
    corked: bool,
}

impl WriteQ {
    /// Write the queue to `w` until it is empty or `w` fails (`WouldBlock`
    /// included), each attempt one vectored write of up to [`MAX_IOV`]
    /// buffers. What went out leaves the queue, even on failure.
    fn write_to(&mut self, w: &mut impl Write) -> io::Result<()> {
        while !self.bufs.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_IOV];
            let mut n = 0;
            for (slice, buf) in slices.iter_mut().zip(&self.bufs) {
                *slice = IoSlice::new(&buf[if n == 0 { self.head } else { 0 }..]);
                n += 1;
            }
            match w.write_vectored(&slices[..n]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.advance(k),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drop the first `k` queued bytes: they are on the wire.
    fn advance(&mut self, mut k: usize) {
        self.bytes -= k;
        while let Some(front) = self.bufs.front() {
            let left = front.len() - self.head;
            if k < left {
                self.head += k;
                return;
            }
            k -= left;
            self.head = 0;
            self.bufs.pop_front();
        }
    }
}

/// State shared between a connection's [`ConnHandle`]s (held by workers and
/// handler callbacks) and the reactor thread that owns the socket.
struct ConnShared {
    token: u64,
    peer: SocketAddr,
    /// A dup of the reactor-owned socket for the sender-side fast path:
    /// when the write queue is empty, `send` writes the frame here directly
    /// instead of paying a waker round-trip through the reactor. Every
    /// write — fast path and reactor flush alike — happens under the `wq`
    /// lock, so frames from concurrent senders never interleave.
    stream: TcpStream,
    wq: Mutex<WriteQ>,
    /// Set by the reactor once the socket is gone; sends fail fast after.
    closed: AtomicBool,
    /// Set by [`ConnHandle::close`]: the reactor flushes queued replies and
    /// then shuts the socket down.
    close_requested: AtomicBool,
}

/// A handle to one reactor-owned connection, cheap to clone and safe to use
/// from any thread. Sending writes straight to the (non-blocking) socket
/// while the queue is empty; anything the socket won't take is queued for
/// the reactor to flush on writability.
#[derive(Clone)]
pub struct ConnHandle {
    conn: Arc<ConnShared>,
    reactor: Arc<ReactorShared>,
}

impl ConnHandle {
    /// Deliver `m`: direct non-blocking write when nothing is queued ahead
    /// of it, queued for the reactor otherwise. Fails once the connection
    /// is closed or its write queue overflows [`WRITE_QUEUE_CAP`] (the
    /// peer stopped reading; it is disconnected rather than buffered
    /// without bound).
    pub fn send(&self, m: &Message) -> Result<(), DietError> {
        if self.conn.closed.load(Ordering::Acquire) {
            return Err(DietError::Transport("connection closed".into()));
        }
        let payload = encode_message(m);
        let total = 4 + payload.len();

        let mut wq = self.conn.wq.lock();
        // Re-check under the lock: prune() sets `closed` before reading the
        // queue's byte count, so bailing here keeps the reactor-wide
        // queued-bytes accounting exact (nothing queued after the snapshot).
        if self.conn.closed.load(Ordering::Acquire) {
            return Err(DietError::Transport("connection closed".into()));
        }
        if wq.bytes + total > WRITE_QUEUE_CAP {
            drop(wq);
            self.reactor.metrics.write_overflow_severed.inc();
            self.reactor.metrics.severed_conns.inc();
            self.close();
            return Err(DietError::Transport("write queue overflow".into()));
        }
        // Fast path: queue empty, no burst being served and no close
        // pending — write as much as the socket takes right now, from the
        // sender's thread.
        let mut done = 0;
        if wq.bufs.is_empty() && !wq.corked && !self.conn.close_requested.load(Ordering::Acquire) {
            match write_frames(&mut &self.conn.stream, &[&payload], &mut done) {
                Ok(()) => return Ok(()), // fully written, reactor never involved
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    drop(wq);
                    self.close();
                    return Err(DietError::Transport(format!("send: {e}")));
                }
            }
        }
        // Queue the remainder (possibly everything) for the reactor; the
        // payload Bytes is used as-is, no copy into a frame vec.
        let queued = total - done;
        wq.bufs.extend(frame_rest(payload, done));
        wq.bytes += queued;
        // Account while still holding the queue lock: prune() snapshots
        // `wq.bytes` under the same lock, so add and snapshot cannot cross.
        self.reactor
            .queued_total
            .fetch_add(queued as u64, Ordering::Relaxed);
        // A corked queue is flushed when its burst is served: no wake.
        let corked = wq.corked;
        drop(wq);
        if !corked {
            self.reactor.mark_dirty(self.conn.token);
        }
        Ok(())
    }

    /// Flush queued replies, then close the connection. Idempotent; safe
    /// from any thread.
    pub fn close(&self) {
        self.conn.close_requested.store(true, Ordering::Release);
        self.reactor.mark_dirty(self.conn.token);
    }

    /// Take the whole server down, as when its process dies: the listener
    /// closes (a redial is refused, not accepted and then severed) and
    /// every connection is severed. Safe from any thread.
    pub fn kill_server(&self) {
        self.reactor.request_kill();
    }

    /// Has the reactor torn this connection down?
    pub fn is_closed(&self) -> bool {
        self.conn.closed.load(Ordering::Acquire)
    }

    /// The remote peer (diagnostics).
    pub fn peer_addr(&self) -> SocketAddr {
        self.conn.peer
    }
}

// ------------------------------------------------------------------ reactor

/// Reactor-side state shared with [`TcpServer`](crate::transport::TcpServer)
/// and every [`ConnHandle`].
pub(crate) struct ReactorShared {
    waker: Waker,
    /// Tokens with freshly queued writes or close requests.
    dirty: Mutex<Vec<u64>>,
    stop: AtomicBool,
    kill: AtomicBool,
    conn_count: AtomicUsize,
    /// Unsent bytes queued across every connection, maintained O(1) at the
    /// send/flush/prune sites so the per-tick gauge update never iterates
    /// the connection table (which may hold thousands of idle conns).
    queued_total: AtomicU64,
    metrics: ReactorMetrics,
}

impl ReactorShared {
    fn mark_dirty(&self, token: u64) {
        self.dirty.lock().push(token);
        self.waker.wake();
    }

    /// Stop accepting; existing connections keep being served. The reactor
    /// exits once the last one closes.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Simulated crash: sever every connection and exit immediately.
    pub fn request_kill(&self) {
        self.kill.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Live connections currently registered with the reactor.
    pub fn connections(&self) -> usize {
        self.conn_count.load(Ordering::Acquire)
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_FIRST_CONN: u64 = 2;

struct Conn {
    stream: TcpStream,
    fb: FrameBuf,
    shared: Arc<ConnShared>,
    /// Registered for write-readiness (only while bytes are queued).
    want_write: bool,
}

/// Which thread a handler call runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The reactor thread, for a frame the frame table marks `inline`
    /// (`Ping`, `Call`, `Submit`, `GetData`). Every connection of the
    /// server waits while the handler runs, so a handler that might block
    /// hands the message back instead, and it goes to the dispatch pool.
    Reactor,
    /// A dispatch worker: any frame, and every message handed back.
    Worker,
}

/// The server's one handler. On [`Lane::Reactor`] it returns `Some(msg)` to
/// hand the message back to the dispatch pool; on [`Lane::Worker`] what it
/// returns is dropped.
pub(crate) type Handler = Arc<dyn Fn(&ConnHandle, Message, Lane) -> Option<Message> + Send + Sync>;

/// What a dispatch worker runs.
enum Work {
    /// A frame the reactor did not decode.
    Frame(Bytes),
    /// A message a reactor-lane handler handed back.
    Handed(Message),
}

/// Run `handler` on one message. A panic is contained to the connection it
/// was serving: that connection is closed and counted, the thread — the
/// reactor's or a worker's — carries on.
fn serve(handler: &Handler, handle: &ConnHandle, msg: Message, lane: Lane) -> Option<Message> {
    match catch_unwind(AssertUnwindSafe(|| handler(handle, msg, lane))) {
        Ok(back) => back,
        Err(_) => {
            let m = &handle.reactor.metrics;
            m.handler_panics.inc();
            m.severed_conns.inc();
            handle.close();
            None
        }
    }
}

/// Spawn the reactor thread plus `cfg.workers` dispatch workers for
/// `listener`. Frames the frame table marks `inline` are decoded on the
/// reactor thread and offered to `handler` there; every other frame, and
/// every message a reactor-lane call hands back, runs on a worker. The
/// returned [`ReactorShared`] is the control surface
/// (`stop`/`kill`/connection count).
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: ServerConfig,
    handler: Handler,
    busy_rejections: Arc<AtomicU64>,
) -> Result<Arc<ReactorShared>, DietError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| DietError::Transport(format!("set_nonblocking: {e}")))?;
    let waker = Waker::new().map_err(|e| DietError::Transport(format!("waker: {e}")))?;
    let mut poller = Poller::new().map_err(|e| DietError::Transport(format!("poller: {e}")))?;
    poller
        .add(listener.as_raw_fd(), TOK_LISTENER, true, false)
        .and_then(|_| poller.add(waker.fd(), TOK_WAKER, true, false))
        .map_err(|e| DietError::Transport(format!("poller register: {e}")))?;
    // Instrumentation lands in the injected registry when the server has
    // one; a throwaway Obs otherwise keeps the hot loop branchless.
    let obs = cfg
        .obs
        .clone()
        .unwrap_or_else(|| Arc::new(Obs::with_capacity(16)));
    let shared = Arc::new(ReactorShared {
        waker,
        dirty: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        kill: AtomicBool::new(false),
        conn_count: AtomicUsize::new(0),
        queued_total: AtomicU64::new(0),
        metrics: ReactorMetrics::new(&obs.metrics),
    });

    // Dispatch workers: complete frames only — no worker ever blocks on a
    // half-read socket. They share the bounded queue's one receiver, each
    // holding its lock only to take the next item. `depth` mirrors the
    // queue's occupancy for the dispatch-depth gauge (std's channel exposes
    // no len()).
    let depth = Arc::new(AtomicU64::new(0));
    let (work_tx, work_rx) = sync_channel::<(ConnHandle, Work)>(cfg.accept_queue.max(1));
    let work_rx = Arc::new(Mutex::new(work_rx));
    for _ in 0..cfg.workers.max(1) {
        let rx = work_rx.clone();
        let h = handler.clone();
        let depth = depth.clone();
        std::thread::spawn(move || loop {
            let next = rx.lock().recv();
            let Ok((handle, work)) = next else { break };
            depth.fetch_sub(1, Ordering::Relaxed);
            let msg = match work {
                Work::Handed(msg) => msg,
                Work::Frame(frame) => match decode_message(frame) {
                    Ok(msg) => msg,
                    // Garbage that framed correctly but does not
                    // decode: the stream is not trustworthy past this
                    // point.
                    Err(_) => {
                        handle.close();
                        continue;
                    }
                },
            };
            serve(&h, &handle, msg, Lane::Worker);
        });
    }

    let reactor = Reactor {
        poller,
        listener,
        shared: shared.clone(),
        conns: HashMap::new(),
        next_token: TOK_FIRST_CONN,
        handler,
        work_tx,
        depth,
        busy: busy_rejections,
        faults: cfg.faults.clone(),
        accepting: true,
        events: Vec::new(),
        frames: Vec::new(),
    };
    std::thread::spawn(move || reactor.run());
    Ok(shared)
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<ReactorShared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    handler: Handler,
    work_tx: SyncSender<(ConnHandle, Work)>,
    /// Occupancy of the bounded dispatch channel (inc on send, dec on
    /// worker receive).
    depth: Arc<AtomicU64>,
    busy: Arc<AtomicU64>,
    faults: Option<Arc<crate::faults::FaultPlan>>,
    accepting: bool,
    events: Vec<Event>,
    frames: Vec<Bytes>,
}

impl Reactor {
    fn run(mut self) {
        loop {
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            if self.poller.wait(&mut events, -1).is_err() {
                break;
            }
            // The tick clock starts once the poller hands work back: time
            // blocked waiting is idleness, not loop latency.
            let tick_start = Instant::now();
            if self.shared.kill.load(Ordering::Acquire) {
                break;
            }
            if self.shared.stop.load(Ordering::Acquire) && self.accepting {
                self.accepting = false;
                let _ = self.poller.delete(self.listener.as_raw_fd());
            }
            self.shared.metrics.ready_events.set(events.len() as f64);
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.shared.waker.drain(),
                    token => {
                        if ev.writable {
                            self.flush(token);
                        }
                        if ev.readable {
                            self.read_ready(token);
                        }
                    }
                }
            }
            self.events = events;
            // Writes and closes queued by handler threads since last wake.
            let dirty: Vec<u64> = std::mem::take(&mut *self.shared.dirty.lock());
            for token in dirty {
                self.flush(token);
            }
            let m = &self.shared.metrics;
            m.dispatch_depth
                .set(self.depth.load(Ordering::Relaxed) as f64);
            m.write_queue_bytes
                .set(self.shared.queued_total.load(Ordering::Relaxed) as f64);
            m.tick_seconds.observe(tick_start.elapsed().as_secs_f64());
            if !self.accepting && self.conns.is_empty() {
                break;
            }
        }
        // Kill or orderly exit: sever whatever is left so peers observe a
        // dead server instead of a silent one.
        let leftover = self.conns.len() as u64;
        if leftover > 0 {
            self.shared.metrics.severed_conns.add(leftover);
        }
        for (_, conn) in self.conns.drain() {
            conn.shared.closed.store(true, Ordering::Release);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.shared.conn_count.store(0, Ordering::Release);
        self.shared.queued_total.store(0, Ordering::Release);
        self.shared.metrics.write_queue_bytes.set(0.0);
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if let Some(d) = self.faults.as_ref().and_then(|f| f.accept_delay()) {
                        // The fault models a wedged host: the whole loop
                        // stalls, exactly like the process it simulates.
                        std::thread::sleep(d);
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let Ok(sender_stream) = stream.try_clone() else {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    let shared = Arc::new(ConnShared {
                        token,
                        peer,
                        stream: sender_stream,
                        wq: Mutex::new(WriteQ::default()),
                        closed: AtomicBool::new(false),
                        close_requested: AtomicBool::new(false),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fb: FrameBuf::new(DEFAULT_MAX_FRAME),
                            shared,
                            want_write: false,
                        },
                    );
                    self.shared.conn_count.fetch_add(1, Ordering::AcqRel);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut dead = false;
        let mut severed = false;
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let handle = {
            let Some(conn) = self.conns.get_mut(&token) else {
                self.frames = frames;
                return;
            };
            if conn.shared.close_requested.load(Ordering::Acquire) {
                // Closing: stop consuming input; flush() owns teardown.
                self.frames = frames;
                return;
            }
            let mut budget = READ_BUDGET;
            while budget > 0 {
                match conn.fb.read_from(&mut &conn.stream, budget) {
                    Ok(0) => {
                        // Peer-initiated EOF: a normal close, not a sever.
                        dead = true;
                        break;
                    }
                    Ok(n) => budget -= n,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        severed = true;
                        break;
                    }
                }
                if conn.fb.drain_frames(&mut frames).is_err() {
                    // Oversized length prefix: cut the peer off before any
                    // body accumulates. Frames already sliced die with it.
                    self.shared.metrics.oversized_frames.inc();
                    frames.clear();
                    dead = true;
                    severed = true;
                    break;
                }
            }
            ConnHandle {
                conn: conn.shared.clone(),
                reactor: self.shared.clone(),
            }
        };
        // A burst of several frames is served corked: their replies, and
        // any other thread's sends meanwhile, queue up and go out in one
        // flush after it.
        let corked = frames.len() > 1;
        if corked {
            handle.conn.wq.lock().corked = true;
        }
        for frame in frames.drain(..) {
            // A handler panic or an undecodable frame closed the
            // connection: what it sent after that is not served.
            if handle.conn.close_requested.load(Ordering::Acquire) {
                break;
            }
            let work = if runs_inline(&frame) {
                match decode_message(frame) {
                    Ok(msg) => match serve(&self.handler, &handle, msg, Lane::Reactor) {
                        None => continue,
                        Some(msg) => Work::Handed(msg),
                    },
                    Err(_) => {
                        handle.close();
                        break;
                    }
                }
            } else {
                Work::Frame(frame)
            };
            self.depth.fetch_add(1, Ordering::Relaxed);
            match self.work_tx.try_send((handle.clone(), work)) {
                Ok(()) => {}
                Err(TrySendError::Full((h, work))) => {
                    // Dispatch queue full: explicit backpressure per
                    // request, echoing its id so exactly that caller backs
                    // off.
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    self.busy.fetch_add(1, Ordering::Relaxed);
                    self.shared.metrics.busy_rejections.inc();
                    let request_id = match &work {
                        Work::Frame(frame) => peek_request_id(frame),
                        Work::Handed(msg) => msg.request_id(),
                    };
                    let _ = h.send(&Message::Busy { request_id });
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    dead = true;
                    break;
                }
            }
        }
        self.frames = frames;
        if corked {
            handle.conn.wq.lock().corked = false;
            self.flush(token);
        }
        if dead {
            if severed {
                self.shared.metrics.severed_conns.inc();
            }
            self.prune(token);
        }
    }

    /// Write queued bytes, a bounded `write_vectored` at a time, until the
    /// socket would block; toggle the write-readiness registration to match
    /// whether anything remains queued.
    fn flush(&mut self, token: u64) {
        let dead;
        let flushed;
        let mut toggle: Option<(RawFd, bool)> = None;
        if let Some(conn) = self.conns.get_mut(&token) {
            let mut wq = conn.shared.wq.lock();
            let before = wq.bytes;
            let written = wq.write_to(&mut &conn.stream);
            dead = written.is_err_and(|e| e.kind() != io::ErrorKind::WouldBlock);
            self.shared
                .queued_total
                .fetch_sub((before - wq.bytes) as u64, Ordering::Relaxed);
            flushed = wq.bufs.is_empty();
            drop(wq);
            if dead {
                // The peer died with replies still owed: an abnormal end.
                self.shared.metrics.severed_conns.inc();
            }
            if !dead {
                if !flushed && !conn.want_write {
                    conn.want_write = true;
                    toggle = Some((conn.stream.as_raw_fd(), true));
                } else if flushed && conn.want_write {
                    conn.want_write = false;
                    toggle = Some((conn.stream.as_raw_fd(), false));
                }
            }
        } else {
            return;
        }
        if let Some((fd, write)) = toggle {
            let _ = self.poller.modify(fd, token, true, write);
        }
        let close_req = self
            .conns
            .get(&token)
            .is_some_and(|c| c.shared.close_requested.load(Ordering::Acquire));
        if dead || (flushed && close_req) {
            self.prune(token);
        }
    }

    fn prune(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            conn.shared.closed.store(true, Ordering::Release);
            // Un-account reply bytes dying with the connection. `closed`
            // is set first, so a racing `send` either queued before (its
            // bytes are in this snapshot) or fails fast without queuing.
            let abandoned = conn.shared.wq.lock().bytes;
            if abandoned > 0 {
                self.shared
                    .queued_total
                    .fetch_sub(abandoned as u64, Ordering::Relaxed);
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpTransport;

    #[test]
    fn framebuf_slices_whole_frames_zero_copy() {
        let mut fb = FrameBuf::new(1 << 20);
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], &b""[..], &b"defgh"[..]] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        fb.push(&wire);
        let mut out = Vec::new();
        fb.drain_frames(&mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(&out[0][..], b"abc");
        assert_eq!(&out[1][..], b"");
        assert_eq!(&out[2][..], b"defgh");
        assert_eq!(fb.buffered(), 0);
        // Frames share one backing allocation: slices of the same freeze.
        // Frame 1 starts len("abc") + one 4-byte header past frame 0.
        assert_eq!(
            out[0].as_ptr() as usize + 3 + 4,
            out[1].as_ptr() as usize,
            "frame slices must come from one frozen buffer"
        );
    }

    #[test]
    fn framebuf_keeps_partial_tail() {
        let mut fb = FrameBuf::new(1 << 20);
        let payload = b"hello world";
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
        // Deliver one byte at a time: no frame until the last byte lands.
        let mut out = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            fb.push(std::slice::from_ref(b));
            fb.drain_frames(&mut out).unwrap();
            if i + 1 < wire.len() {
                assert!(out.is_empty(), "premature frame at byte {i}");
            }
        }
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0][..], &payload[..]);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn framebuf_partial_frame_after_complete_ones() {
        let mut fb = FrameBuf::new(1 << 20);
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"one");
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(b"partial body");
        fb.push(&wire);
        let mut out = Vec::new();
        fb.drain_frames(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0][..], b"one");
        // The in-progress frame's bytes carried over.
        assert_eq!(fb.buffered(), 4 + "partial body".len());
        // Completing it later yields the second frame.
        fb.push(&[b'x'; 100 - "partial body".len()]);
        fb.drain_frames(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].len(), 100);
    }

    #[test]
    fn framebuf_rejects_oversized_header_before_body() {
        let mut fb = FrameBuf::new(1024);
        // Header only — no body byte ever arrives, and none is needed to
        // reject.
        fb.push(&(usize::MAX as u32).to_le_bytes());
        let mut out = Vec::new();
        let err = fb.drain_frames(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.is_empty());
    }

    /// A non-blocking socket as the receive loops see one: bytes arrive in
    /// bursts, and a read past the end of a burst is `WouldBlock`.
    struct Bursty<'a> {
        wire: &'a [u8],
        bursts: std::iter::Cycle<std::slice::Iter<'a, usize>>,
        left: usize,
        /// Size of every `read` asked of it.
        asked: Vec<usize>,
    }

    impl<'a> Bursty<'a> {
        fn new(wire: &'a [u8], bursts: &'a [usize]) -> Self {
            Bursty {
                wire,
                bursts: bursts.iter().cycle(),
                left: 0,
                asked: Vec::new(),
            }
        }
    }

    impl Read for Bursty<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.asked.push(buf.len());
            if self.wire.is_empty() {
                return Ok(0);
            }
            if self.left == 0 {
                self.left = *self.bursts.next().unwrap();
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.left).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            self.left -= n;
            Ok(n)
        }
    }

    /// The reactor's receive loop, minus the socket: read until end of
    /// stream, slicing frames out after every read.
    fn receive_all(fb: &mut FrameBuf, r: &mut impl Read) -> io::Result<Vec<Bytes>> {
        let mut out = Vec::new();
        loop {
            match fb.read_from(r, READ_BUDGET) {
                Ok(0) => return Ok(out),
                Ok(_) => fb.drain_frames(&mut out)?,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn wire_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }
        wire
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// However the stream is cut into bursts — inside a header, inside a
        /// body, many frames to a burst — `read_from` yields the frames that
        /// `push` of the whole stream yields.
        #[test]
        fn read_from_yields_what_push_yields(
            sizes in proptest::collection::vec(
                proptest::prop_oneof![0usize..64, 0usize..6000, (1usize << 20)..(1 << 20) + 4096],
                1..6,
            ),
            bursts in proptest::collection::vec(
                proptest::prop_oneof![1usize..8, 1usize..5000, 1usize..(2 << 20)],
                1..12,
            ),
        ) {
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, n)| (0..*n).map(|j| (i * 131 + j * 7) as u8).collect())
                .collect();
            let wire = wire_of(&payloads);

            let mut pushed = Vec::new();
            let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
            fb.push(&wire);
            fb.drain_frames(&mut pushed).unwrap();

            let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
            let read = receive_all(&mut fb, &mut Bursty::new(&wire, &bursts)).unwrap();
            proptest::prop_assert_eq!(fb.buffered(), 0);
            proptest::prop_assert_eq!(read.len(), payloads.len());
            for ((r, p), want) in read.iter().zip(&pushed).zip(&payloads) {
                proptest::prop_assert!(r == p && r == want);
            }
        }
    }

    #[test]
    fn read_from_lands_a_frame_in_a_buffer_of_its_own_size() {
        // Small frames ahead of it, and one behind, in the same bursts.
        let n = (1 << 20) + 37;
        let wire = wire_of(&[vec![1; 20], vec![2; 300], vec![3; n], vec![4; 50]]);
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        let mut r = Bursty::new(&wire, &[200_000]);
        let mut out = Vec::new();
        let mut peak_capacity = 0;
        loop {
            match fb.read_from(&mut r, READ_BUDGET) {
                Ok(0) => break,
                Ok(_) => {
                    peak_capacity = peak_capacity.max(fb.buf.capacity());
                    fb.drain_frames(&mut out).unwrap();
                }
                Err(_) => {}
            }
        }
        assert_eq!(out.len(), 4);
        assert_eq!(out[2].len(), n);
        assert!(
            peak_capacity <= 4 + n + HEAD_CHUNK,
            "a {n}-byte frame sat in a {peak_capacity}-byte buffer"
        );
        // No read asked for more than the frame in progress still lacked,
        // and the body took a handful of reads, not one per 64 KiB.
        assert!(r.asked.iter().all(|a| *a <= n), "{:?}", r.asked);
        assert!(r.asked.len() < 40, "{} reads", r.asked.len());
    }

    #[test]
    fn read_from_reserves_nothing_for_an_oversized_prefix() {
        let mut wire = 0xFFFF_FFF0u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 64]);
        let mut fb = FrameBuf::new(1 << 20);
        let err = receive_all(&mut fb, &mut Bursty::new(&wire, &[3])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(fb.buf.capacity() <= HEAD_CHUNK, "{}", fb.buf.capacity());
        // Asked again, it refuses again rather than reading a body.
        let mut r = Bursty::new(&wire, &[64]);
        assert!(fb.read_from(&mut r, READ_BUDGET).is_err());
        assert!(r.asked.is_empty());
    }

    #[test]
    fn read_from_stops_at_its_byte_limit() {
        let wire = wire_of(&[vec![9; 100_000]]);
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        let mut r = Bursty::new(&wire, &[usize::MAX]);
        assert!(fb.read_from(&mut r, 10).is_err()); // first burst not in yet
        assert_eq!(fb.read_from(&mut r, 10).unwrap(), 10); // header chunk
        assert_eq!(fb.read_from(&mut r, 777).unwrap(), 777); // body
        assert_eq!(fb.buffered(), 787);
    }

    /// A writer that takes at most `cuts.next()` bytes per call; a cut of
    /// zero is a `WouldBlock`.
    struct Choppy<I> {
        out: Vec<u8>,
        cuts: I,
        calls: usize,
    }

    impl<I: Iterator<Item = usize>> Write for Choppy<I> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cuts.next().unwrap();
            if room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = self.out.len();
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_vectored_write_when_the_socket_takes_it() {
        let mut w = Choppy {
            out: Vec::new(),
            cuts: std::iter::repeat(usize::MAX),
            calls: 0,
        };
        write_frames(&mut w, &[b"payload"], &mut 0).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.out, wire_of(&[b"payload".to_vec()]));
    }

    #[test]
    fn short_writes_at_every_offset_keep_concurrent_frames_whole() {
        // Two senders share one writer under a lock, as callers of a mux
        // connection share `TcpTransport`'s; every write is cut to `cut`
        // bytes, so each frame is split inside its prefix and after it.
        for cut in 1..=8 {
            let w = Mutex::new(Choppy {
                out: Vec::new(),
                cuts: std::iter::repeat(cut),
                calls: 0,
            });
            std::thread::scope(|s| {
                for id in [0xAAu8, 0xBB] {
                    let w = &w;
                    s.spawn(move || {
                        for len in 0..40 {
                            write_frames(&mut *w.lock(), &[vec![id; len]], &mut 0).unwrap();
                        }
                    });
                }
            });
            let mut fb = FrameBuf::new(1 << 20);
            fb.push(&w.into_inner().out);
            let mut frames = Vec::new();
            fb.drain_frames(&mut frames).unwrap();
            assert_eq!((frames.len(), fb.buffered()), (80, 0), "cut {cut}");
            // Each sender's frames arrive whole and in the order it sent
            // them: lengths 0, 1, 2, … of its own byte.
            for id in [0xAAu8, 0xBB] {
                let lens: Vec<usize> = frames
                    .iter()
                    .filter(|f| f.first() == Some(&id))
                    .map(|f| f.iter().take_while(|b| **b == id).count())
                    .collect();
                assert_eq!(
                    lens,
                    (1..40).collect::<Vec<_>>(),
                    "cut {cut} sender {id:#x}"
                );
            }
            let framed: usize = frames.iter().map(Bytes::len).sum();
            assert_eq!(framed, 2 * (0..40).sum::<usize>(), "cut {cut}");
        }
    }

    #[test]
    fn a_batch_of_frames_is_one_vectored_write_per_thirty_two() {
        let payloads: Vec<Vec<u8>> = (1..=100).map(|n| vec![n as u8; n]).collect();
        let mut w = Choppy {
            out: Vec::new(),
            cuts: std::iter::repeat(usize::MAX),
            calls: 0,
        };
        write_frames(&mut w, &payloads, &mut 0).unwrap();
        assert_eq!(w.calls, 4);
        assert_eq!(w.out, wire_of(&payloads));
    }

    #[test]
    fn short_writes_at_every_offset_keep_a_batch_of_frames_whole() {
        let payloads: Vec<Vec<u8>> = (0..40).map(|n| vec![n as u8; n]).collect();
        for cut in 1..=9 {
            let mut w = Choppy {
                out: Vec::new(),
                cuts: std::iter::repeat(cut),
                calls: 0,
            };
            write_frames(&mut w, &payloads, &mut 0).unwrap();
            assert_eq!(w.out, wire_of(&payloads), "cut {cut}");
        }
    }

    /// A write queue as [`ConnHandle::send`] leaves it: a prefix buffer
    /// and a body buffer per frame.
    fn queue_of(payloads: &[Vec<u8>]) -> WriteQ {
        let mut wq = WriteQ::default();
        for p in payloads {
            wq.bytes += 4 + p.len();
            wq.bufs.extend(frame_rest(Bytes::from(p.clone()), 0));
        }
        wq
    }

    #[test]
    fn a_write_queue_goes_out_sixty_four_buffers_a_write() {
        let payloads: Vec<Vec<u8>> = (1..=100).map(|n| vec![n as u8; n]).collect();
        let mut wq = queue_of(&payloads);
        assert_eq!(wq.bufs.len(), 200);
        let mut w = Choppy {
            out: Vec::new(),
            cuts: std::iter::repeat(usize::MAX),
            calls: 0,
        };
        wq.write_to(&mut w).unwrap();
        assert_eq!(w.calls, 4);
        assert_eq!(w.out, wire_of(&payloads));
        assert_eq!((wq.bufs.len(), wq.head, wq.bytes), (0, 0, 0));
    }

    #[test]
    fn short_writes_at_every_offset_keep_queued_frames_whole_and_in_order() {
        // The socket takes `cut` bytes and then would block, over and over,
        // so every queued buffer is cut at every offset and each flush
        // resumes from what the last one left queued.
        let payloads: Vec<Vec<u8>> = (0..40).map(|n| vec![n as u8; n]).collect();
        for cut in 1..=9 {
            let mut wq = queue_of(&payloads);
            let total = wq.bytes;
            let mut w = Choppy {
                out: Vec::new(),
                cuts: [cut, 0].into_iter().cycle(),
                calls: 0,
            };
            while let Err(e) = wq.write_to(&mut w) {
                assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "cut {cut}");
                assert_eq!(wq.bytes + w.out.len(), total, "cut {cut}");
            }
            assert_eq!(w.out, wire_of(&payloads), "cut {cut}");
            assert_eq!((wq.bufs.len(), wq.bytes), (0, 0), "cut {cut}");
        }
    }

    /// A server that answers every `Ping` with a `Pong` on the reactor
    /// lane, after running `before` on it.
    fn ping_server(
        before: impl Fn(&ConnHandle, u64) + Send + Sync + 'static,
    ) -> crate::transport::TcpServer {
        let cfg = ServerConfig::default();
        crate::transport::TcpServer::spawn_framed("127.0.0.1:0", cfg, move |h, msg, _| {
            if let Message::Ping { request_id } = msg {
                before(h, request_id);
                h.send(&Message::Pong { request_id }).unwrap();
            }
            None
        })
        .unwrap()
    }

    /// A client that has written a `Ping` for each of `ids` in one write.
    fn ping_burst(addr: SocketAddr, ids: impl Iterator<Item = u64>) -> TcpTransport {
        let pings: Vec<Vec<u8>> = ids
            .map(|request_id| encode_message(&Message::Ping { request_id }).to_vec())
            .collect();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire_of(&pings)).unwrap();
        TcpTransport::from_stream(stream)
    }

    fn next_reply(conn: &TcpTransport) -> u64 {
        let reply = conn.recv_timeout(std::time::Duration::from_secs(5));
        reply.unwrap().expect("a reply within 5 s").request_id()
    }

    #[test]
    fn pings_in_one_write_get_their_pongs_in_order() {
        const N: u64 = 50;
        let server = ping_server(|_, _| {});
        let conn = ping_burst(server.local_addr, 1..=N);
        let got: Vec<u64> = (1..=N).map(|_| next_reply(&conn)).collect();
        assert_eq!(got, (1..=N).collect::<Vec<_>>());
        server.kill();
    }

    #[test]
    fn a_reply_another_thread_sends_during_a_corked_burst_goes_out() {
        // Serving ping 1 of the burst, the handler has another thread send
        // pong 1000 and waits until that send has returned: it joined the
        // corked queue, ahead of the burst's own replies, and leaves with
        // them.
        let server = ping_server(|h, id| {
            if id == 1 {
                let h = h.clone();
                std::thread::spawn(move || h.send(&Message::Pong { request_id: 1000 }))
                    .join()
                    .unwrap()
                    .unwrap();
            }
        });
        let conn = ping_burst(server.local_addr, 1..=3);
        let got: Vec<u64> = (0..4).map(|_| next_reply(&conn)).collect();
        assert_eq!(got, [1000, 1, 2, 3]);
        server.kill();
    }

    #[test]
    fn a_frame_cut_by_would_block_is_finished_from_the_queue() {
        // The fast path of `ConnHandle::send`: the socket takes `cut` bytes
        // and then no more; what went out plus what is queued is the frame.
        let payload = Bytes::from(b"0123456789".to_vec());
        for cut in 0..=8 {
            let mut w = Choppy {
                out: Vec::new(),
                cuts: [cut, 0].into_iter(),
                calls: 0,
            };
            let mut done = 0;
            let err = write_frames(&mut w, &[&payload], &mut done).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
            assert_eq!(done, cut);
            let mut sent = w.out;
            let rest: Vec<Bytes> = frame_rest(payload.clone(), done).collect();
            assert_eq!(rest.iter().map(Bytes::len).sum::<usize>(), 14 - cut);
            assert!(rest.iter().all(|b| !b.is_empty()));
            for b in &rest {
                sent.extend_from_slice(b);
            }
            assert_eq!(sent, wire_of(&[payload.to_vec()]), "cut {cut}");
        }
    }

    #[test]
    fn waker_coalesces_and_rearms() {
        let w = Waker::new().unwrap();
        w.wake();
        w.wake();
        w.wake();
        // Give loopback delivery a moment.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut buf = [0u8; 16];
        let n = (&w.rx).read(&mut buf).unwrap();
        assert_eq!(n, 1, "coalesced wakes must produce one in-flight byte");
        w.pending.store(false, Ordering::Release);
        w.wake();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!((&w.rx).read(&mut buf), Ok(1)));
    }
}
