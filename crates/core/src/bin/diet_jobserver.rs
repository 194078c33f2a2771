//! Standalone campaign jobserver — the durable task-queue process.
//!
//! Usage:
//! `diet_jobserver --dir DIR --ma ADDR [--listen ADDR] [--sed LABEL=ADDR]...
//!                 [--workers N] [--snapshot-every N]
//!                 [--heartbeat-ms N] [--attempt-timeout-ms N] [--telemetry ADDR]`
//!
//! Recovers the campaign store under `DIR` (WAL + snapshot), connects to
//! the MA at `--ma` for finding, registers each `--sed LABEL=ADDR` pair in
//! its SeD pool for solving, and serves the campaign protocol
//! (SubmitTasks / AttachCampaign / CampaignProgress / TaskStatus) on
//! `--listen` (default `127.0.0.1:0`; the bound address is printed, so a
//! parent process can scrape it from stdout). Kill it at any point:
//! restarting with the same `--dir` resumes the campaigns — completed
//! tasks stay done, in-flight tasks are re-dispatched.
//!
//! `--snapshot-every N` (default 4096) is the floor on WAL records between
//! store snapshots; a snapshot also waits until the WAL has grown by the
//! last snapshot's size.

use diet_core::jobserver::{serve_jobserver_over_tcp, JobServer, JobServerConfig};
use diet_core::transport::{ServerConfig, TcpSedPool};
use diet_core::{Obs, RemoteAgentClient, TelemetryConfig, TelemetryFlusher};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: diet_jobserver --dir DIR --ma ADDR [--listen ADDR] [--sed LABEL=ADDR]...\n\
         \x20                     [--workers N] [--snapshot-every N]\n\
         \x20                     [--heartbeat-ms N] [--attempt-timeout-ms N] [--telemetry ADDR]\n\
         \n\
         --snapshot-every N  snapshot the store after at least N WAL records (default 4096)\n\
         \x20                   and at least the last snapshot's size in WAL bytes"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut dir = None;
    let mut ma_addr = None;
    let mut seds: Vec<(String, String)> = Vec::new();
    let mut workers = 4usize;
    let mut snapshot_every = 4096u64;
    let mut heartbeat_ms = 500u64;
    let mut attempt_timeout_ms = 10_000u64;
    let mut telemetry: Option<String> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut next = || argv.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--listen" => listen = next(),
            "--dir" => dir = Some(next()),
            "--ma" => ma_addr = Some(next()),
            "--sed" => {
                let spec = next();
                let Some((label, addr)) = spec.split_once('=') else {
                    usage()
                };
                seds.push((label.to_string(), addr.to_string()));
            }
            "--workers" => workers = next().parse().unwrap_or_else(|_| usage()),
            "--snapshot-every" => snapshot_every = next().parse().unwrap_or_else(|_| usage()),
            "--heartbeat-ms" => heartbeat_ms = next().parse().unwrap_or_else(|_| usage()),
            "--attempt-timeout-ms" => {
                attempt_timeout_ms = next().parse().unwrap_or_else(|_| usage())
            }
            "--telemetry" => telemetry = Some(next()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let Some(ma_addr) = ma_addr else { usage() };
    let ma_addr: std::net::SocketAddr = ma_addr.parse().unwrap_or_else(|e| {
        eprintln!("diet_jobserver: bad --ma address: {e}");
        std::process::exit(2);
    });

    let obs = Arc::new(Obs::new());
    let ma = RemoteAgentClient::with_timeout("ma", ma_addr, Duration::from_secs(5));
    let pool = Arc::new(TcpSedPool::new());
    for (label, addr) in &seds {
        match addr.parse() {
            Ok(a) => pool.register(label, a),
            Err(e) => {
                eprintln!("diet_jobserver: bad --sed address {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut cfg = JobServerConfig::new(&dir);
    cfg.workers = workers.max(1);
    cfg.snapshot_every = snapshot_every.max(1);
    cfg.retry.attempt_timeout = Duration::from_millis(attempt_timeout_ms.max(1));
    cfg.heartbeat = (heartbeat_ms > 0).then(|| Duration::from_millis(heartbeat_ms));

    let js = JobServer::spawn(cfg, ma, pool, obs.clone()).unwrap_or_else(|e| {
        eprintln!("diet_jobserver: cannot open store under {dir}: {e}");
        std::process::exit(1);
    });
    let server = serve_jobserver_over_tcp(
        js,
        &listen,
        ServerConfig {
            workers: 4,
            obs: Some(obs.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("diet_jobserver: cannot bind {listen}: {e}");
        std::process::exit(1);
    });

    let _flusher = telemetry.as_ref().and_then(|addr| {
        let collector: std::net::SocketAddr = addr.parse().ok()?;
        Some(TelemetryFlusher::spawn(
            obs.clone(),
            TelemetryConfig::new(collector, "jobserver", "jobserver/0")
                .interval(Duration::from_millis(500)),
        ))
    });

    // The parent (or operator) scrapes this line for the bound port.
    println!("diet_jobserver listening on {}", server.local_addr);

    // Serve until killed; dispatchers, heartbeat, and the reactor do the
    // work. Recovery after `kill -9` is the tested path.
    loop {
        std::thread::park();
    }
}
