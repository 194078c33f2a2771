//! Adversarial clients against the readiness-driven serving core: partial
//! frames, slow-loris holds, mid-frame disconnects, and hostile length
//! prefixes, and a herd of idle connections. The invariant under test is
//! that a misbehaving or silent peer costs the server one socket
//! registration — never a worker thread, never another connection's
//! latency, never an allocation sized by the attacker. Handlers misbehave
//! too: one that panics costs the connection it served, and one that
//! blocks never runs on the reactor thread.
//!
//! The tests run one at a time ([`serial`]): the idle-herd test counts the
//! process's threads, which a concurrently starting server would skew.

use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::transport::{MuxConn, ServerConfig, TcpServer, TcpTransport};
use diet_core::{ConnHandle, Lane, Obs};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held for the whole of each test in this file.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A length-prefixed wire frame for `m`.
fn frame_bytes(m: &Message) -> Vec<u8> {
    let payload = encode_message(m);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The probe every test sends, and the answer it expects.
const PING: Message = Message::Ping { request_id: 1 };
const PONG: Message = Message::Pong { request_id: 1 };

/// Blocking read of one frame off a raw socket.
fn read_frame(s: &mut TcpStream) -> std::io::Result<Message> {
    let mut hdr = [0u8; 4];
    s.read_exact(&mut hdr)?;
    let mut buf = vec![0u8; u32::from_le_bytes(hdr) as usize];
    s.read_exact(&mut buf)?;
    Ok(decode_message(Bytes::from(buf)).expect("server sent an undecodable frame"))
}

/// Ping-only echo server on the framed reactor core.
fn spawn_echo(workers: usize) -> TcpServer {
    TcpServer::spawn_framed(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            accept_queue: 8,
            faults: None,
            obs: None,
        },
        |handle: &ConnHandle, msg: Message, _| {
            if let Message::Ping { request_id } = msg {
                let _ = handle.send(&Message::Pong { request_id });
            }
            None
        },
    )
    .expect("bind echo server")
}

/// Poll `cond` until it holds or the deadline passes.
fn wait_for(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A frame trickled in one byte at a time must be assembled and answered
/// exactly as if it had arrived whole.
#[test]
fn one_byte_at_a_time_frames_are_assembled() {
    let _serial = serial();
    let server = spawn_echo(2);
    let mut s = TcpStream::connect(server.local_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 0..3 {
        for b in frame_bytes(&PING) {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply, PONG, "round {round}");
    }
    server.stop();
}

/// A peer that sends half a header and stalls forever must not occupy a
/// dispatch worker or delay other connections — with a single worker, a
/// second connection's ping still gets its pong while the loris holds.
#[test]
fn slow_loris_does_not_hold_the_only_worker() {
    let _serial = serial();
    let server = spawn_echo(1);
    let mut loris = TcpStream::connect(server.local_addr).unwrap();
    loris.write_all(&[0x08, 0x00]).unwrap(); // 2 of 4 header bytes, then silence
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let mut live = TcpStream::connect(server.local_addr).unwrap();
    live.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t0 = Instant::now();
    live.write_all(&frame_bytes(&PING)).unwrap();
    let reply = read_frame(&mut live).unwrap();
    assert_eq!(reply, PONG);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "pong took {:?} behind a slow-loris hold",
        t0.elapsed()
    );
    drop(loris);
    server.stop();
}

/// Disconnecting mid-frame must sever and prune that registration — the
/// tracked connection count returns to the live set, and service continues.
#[test]
fn mid_frame_disconnect_is_pruned() {
    let _serial = serial();
    let server = spawn_echo(2);
    {
        let mut s = TcpStream::connect(server.local_addr).unwrap();
        let frame = frame_bytes(&PING);
        s.write_all(&frame[..frame.len() - 2]).unwrap();
        s.flush().unwrap();
        wait_for("conn registration", Duration::from_secs(5), || {
            server.tracked_connections() == 1
        });
    } // dropped mid-frame
    wait_for("dead conn prune", Duration::from_secs(5), || {
        server.tracked_connections() == 0
    });

    let t = TcpTransport::connect(server.local_addr).unwrap();
    t.send(&PING).unwrap();
    assert_eq!(t.recv().unwrap(), PONG);
    server.stop();
}

/// A hostile length prefix (~4 GiB) must be rejected from the 4-byte header
/// alone — the connection is severed before any attacker-sized allocation,
/// and the server keeps serving everyone else.
#[test]
fn oversized_length_prefix_severs_before_allocation() {
    let _serial = serial();
    let server = spawn_echo(2);
    let mut s = TcpStream::connect(server.local_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&0xFFFF_FFF0u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    let mut buf = [0u8; 16];
    let severed = match s.read(&mut buf) {
        Ok(0) => true,  // clean FIN
        Ok(_) => false, // server answered a garbage header?!
        Err(_) => true, // reset
    };
    assert!(severed, "oversized header was not rejected");
    wait_for("hostile conn prune", Duration::from_secs(5), || {
        server.tracked_connections() == 0
    });

    let t = TcpTransport::connect(server.local_addr).unwrap();
    t.send(&PING).unwrap();
    assert_eq!(t.recv().unwrap(), PONG);
    server.stop();
}

/// Kernel-reported thread count of this process.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

/// Dial `addr` and prove the connection live with one ping/pong.
fn pinged(addr: SocketAddr) -> TcpTransport {
    let t = TcpTransport::connect(addr).expect("dial");
    t.send(&PING).expect("ping");
    match t.recv() {
        Ok(reply) if reply == PONG => t,
        other => panic!("expected Pong, got {other:?}"),
    }
}

/// Idle connections are registrations, not threads: growing a held-idle
/// herd from 1 to 256 adds no thread to the process, the server tracks
/// every member, and a foreground request and connect → ping → close churn
/// are still served under the herd.
#[test]
fn idle_connections_cost_no_threads() {
    let _serial = serial();
    let server = spawn_echo(4);
    let addr = server.local_addr;

    let mut herd = vec![pinged(addr)];
    assert_eq!(server.tracked_connections(), 1);
    let threads_at_one = process_threads();

    herd.extend((1..256).map(|_| pinged(addr)));
    assert_eq!(server.tracked_connections(), herd.len());
    let threads_at_herd = process_threads();
    // A thread per connection would add 255. The one thread allowed is the
    // test harness's: when the test that held `serial` before this one
    // ends, the harness may start the next test's (blocked) thread.
    assert!(
        threads_at_herd <= threads_at_one + 1,
        "threads grew {threads_at_one} -> {threads_at_herd} with {} idle connections",
        herd.len()
    );

    let foreground = pinged(addr);
    foreground.send(&PING).unwrap();
    assert_eq!(foreground.recv().unwrap(), PONG);
    for _ in 0..50 {
        drop(pinged(addr));
    }

    drop(herd);
    server.stop();
}

/// A client connection has no thread of its own either: dialing 64
/// `MuxConn`s, each carrying a request, adds no thread to the process —
/// every reply is read by the caller that waits for it.
#[test]
fn mux_connections_cost_no_threads() {
    let _serial = serial();
    let server = spawn_echo(4);
    let ping = |mux: &MuxConn| {
        let reply = mux.request(&PING, 1, Duration::from_secs(5));
        assert_eq!(reply.unwrap(), PONG);
    };
    let mut muxes = vec![MuxConn::connect(server.local_addr).unwrap()];
    ping(&muxes[0]);
    let threads_at_one = process_threads();
    for _ in 1..64 {
        let mux = MuxConn::connect(server.local_addr).unwrap();
        ping(&mux);
        muxes.push(mux);
    }
    assert_eq!(server.tracked_connections(), 64);
    // As in `idle_connections_cost_no_threads`: the one thread allowed is
    // the test harness's.
    let threads_at_64 = process_threads();
    assert!(
        threads_at_64 <= threads_at_one + 1,
        "threads grew {threads_at_one} -> {threads_at_64} with 64 mux connections"
    );
    for mux in &muxes {
        ping(mux);
    }
    drop(muxes);
    server.stop();
}

/// The server's EOF on `s`, within a few seconds: it closed the connection.
fn assert_closed(s: &mut TcpStream, what: &str) {
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    match s.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{what}: got {n} bytes instead of a close"),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("{what}: still open after 5 s")
        }
        Err(_) => {} // reset
    }
}

/// A handler that panics closes the connection it was serving and nothing
/// else, on either lane: nine panics on the worker lane — one more than the
/// pool has workers — and one on the reactor thread leave the server
/// answering a fresh connection, and each is counted.
#[test]
fn a_panicking_handler_costs_only_its_connection() {
    let _serial = serial();
    let obs = Arc::new(Obs::new());
    let cfg = ServerConfig {
        workers: 8,
        accept_queue: 8,
        faults: None,
        obs: Some(obs.clone()),
    };
    let server = TcpServer::spawn_framed("127.0.0.1:0", cfg, |handle, msg, _| {
        match msg {
            Message::Ping { request_id } => {
                let _ = handle.send(&Message::Pong { request_id });
            }
            // Never offered inline: a worker-lane panic.
            Message::DumpMetricsRid { .. } => panic!("poison frame on the worker lane"),
            // Offered inline: a reactor-lane panic.
            Message::Submit { .. } => panic!("poison frame on the reactor thread"),
            _ => {}
        }
        None
    })
    .unwrap();
    let worker_poison = Message::DumpMetricsRid {
        request_id: 7,
        what: String::new(),
    };
    let reactor_poison = Message::Submit {
        service: "poison".into(),
        request_id: 8,
        ctx: Default::default(),
        exclude: vec![],
    };
    for (i, poison) in std::iter::repeat_n(&worker_poison, 9)
        .chain([&reactor_poison])
        .enumerate()
    {
        let mut s = TcpStream::connect(server.local_addr).unwrap();
        s.write_all(&frame_bytes(poison)).unwrap();
        assert_closed(&mut s, &format!("poison frame {i}"));
    }
    assert_eq!(
        obs.metrics
            .counter_value("diet_reactor_handler_panics_total"),
        10
    );
    let t = pinged(server.local_addr);
    t.send(&PING).unwrap();
    assert_eq!(t.recv().unwrap(), PONG);
    server.stop();
}

/// A handler that may block hands its inline frame back and blocks only on
/// a worker: `Call` (offered inline) and `GetData` (never offered) each
/// sleep 500 ms, never on the thread that serves the reactor lane, and
/// pings on other connections are answered meanwhile in a small fraction
/// of that.
#[test]
fn a_blocking_handler_never_runs_inline() {
    let _serial = serial();
    const NAP: Duration = Duration::from_millis(500);
    // (frame kind, lane, thread) of every handler call and every nap.
    type Seen = Vec<(&'static str, Lane, std::thread::ThreadId)>;
    let seen: Arc<Mutex<Seen>> = Arc::default();
    let log = seen.clone();
    let (napping, naps) = std::sync::mpsc::channel();
    let cfg = ServerConfig {
        workers: 4,
        accept_queue: 8,
        faults: None,
        obs: None,
    };
    let server = TcpServer::spawn_framed("127.0.0.1:0", cfg, move |handle, msg, lane| {
        let note = |kind| {
            log.lock()
                .unwrap()
                .push((kind, lane, std::thread::current().id()))
        };
        let (kind, request_id) = match &msg {
            Message::Ping { request_id } => ("ping", *request_id),
            Message::Call { request_id, .. } => ("call", *request_id),
            Message::GetData { request_id, .. } => ("get", *request_id),
            _ => return None,
        };
        note(kind);
        if kind == "ping" {
            let _ = handle.send(&Message::Pong { request_id });
            return None;
        }
        if lane == Lane::Reactor {
            return Some(msg);
        }
        note("nap");
        napping.send(()).unwrap();
        std::thread::sleep(NAP);
        let _ = handle.send(&Message::Busy { request_id });
        None
    })
    .unwrap();

    let blocked = TcpTransport::connect(server.local_addr).unwrap();
    let call = |request_id| Message::Call {
        request_id,
        ctx: Default::default(),
        profile: diet_core::Profile::alloc(&diet_core::ProfileDesc::alloc("nap", -1, -1, 0)),
    };
    let get = |request_id| Message::GetData {
        request_id,
        id: "nap".into(),
    };
    for m in [call(1), call(2), get(3), get(4)] {
        blocked.send(&m).unwrap();
    }
    // Pings on fresh connections while all four naps run.
    for _ in 0..4 {
        naps.recv_timeout(Duration::from_secs(5)).unwrap();
    }
    let t0 = Instant::now();
    let mut slowest = Duration::ZERO;
    for _ in 0..10 {
        let t = Instant::now();
        drop(pinged(server.local_addr));
        slowest = slowest.max(t.elapsed());
    }
    assert!(
        t0.elapsed() < NAP / 2 && slowest < Duration::from_millis(100),
        "pings behind blocking handlers: slowest {slowest:?}, all ten {:?}",
        t0.elapsed()
    );
    let mut answered: Vec<u64> = (0..4)
        .map(|_| match blocked.recv().unwrap() {
            Message::Busy { request_id } => request_id,
            other => panic!("expected Busy, got {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, [1, 2, 3, 4]);

    let seen = seen.lock().unwrap().clone();
    let count = |kind: &str, lane: Lane| seen.iter().filter(|s| (s.0, s.1) == (kind, lane)).count();
    // Every ping ran inline; each call was offered inline, handed back and
    // napped on a worker; each get went straight to a worker.
    assert_eq!(count("ping", Lane::Reactor), 10, "{seen:?}");
    assert_eq!(count("call", Lane::Reactor), 2, "{seen:?}");
    assert_eq!(count("call", Lane::Worker), 2, "{seen:?}");
    assert_eq!(count("get", Lane::Reactor), 0, "{seen:?}");
    assert_eq!(count("get", Lane::Worker), 2, "{seen:?}");
    assert_eq!(count("nap", Lane::Worker), 4, "{seen:?}");
    // The reactor lane is one thread, and no nap ran on it.
    let reactor: std::collections::HashSet<_> = seen
        .iter()
        .filter(|s| s.1 == Lane::Reactor)
        .map(|s| s.2)
        .collect();
    assert_eq!(reactor.len(), 1, "{seen:?}");
    assert!(
        seen.iter().all(|s| s.0 != "nap" || !reactor.contains(&s.2)),
        "a nap ran on the reactor thread: {seen:?}"
    );
    server.stop();
}
