//! Adversarial clients against the readiness-driven serving core: partial
//! frames, slow-loris holds, mid-frame disconnects, and hostile length
//! prefixes, and a herd of idle connections. The invariant under test is
//! that a misbehaving or silent peer costs the server one socket
//! registration — never a worker thread, never another connection's
//! latency, never an allocation sized by the attacker.
//!
//! The tests run one at a time ([`serial`]): the idle-herd test counts the
//! process's threads, which a concurrently starting server would skew.

use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::transport::{ServerConfig, TcpServer, TcpTransport};
use diet_core::ConnHandle;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
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
        |handle: &ConnHandle, msg: Message| {
            if let Message::Ping { request_id } = msg {
                let _ = handle.send(&Message::Pong { request_id });
            }
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
