//! Standalone telemetry collector — the deployment's LogCentral process.
//!
//! Usage: `diet_collector [--listen ADDR] [--workers N]`
//!
//! Binds the collector on `ADDR` (default `127.0.0.1:9464`, port 0 picks an
//! ephemeral port and prints it) and serves until killed. Every DIET
//! process configured with a `TelemetryFlusher` pointed here ships its
//! spans and metric deltas; scrape the merged state with a correlated
//! `DumpMetricsRid` request — `""`/`"prometheus"`, `"chrome"`, or
//! `"topology"`.

use diet_core::transport::ServerConfig;
use diet_core::{serve_collector_over_tcp, Collector};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!("usage: diet_collector [--listen ADDR] [--workers N]");
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:9464".to_string();
    let mut workers = 4usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--listen" => listen = argv.next().unwrap_or_else(|| usage()),
            "--workers" => {
                workers = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let collector = Arc::new(Collector::new());
    let server = serve_collector_over_tcp(
        collector,
        &listen,
        ServerConfig {
            workers: workers.max(1),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("diet_collector: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    println!("diet_collector listening on {}", server.local_addr);

    // Serve until killed; the reactor does all the work.
    loop {
        std::thread::park();
    }
}
