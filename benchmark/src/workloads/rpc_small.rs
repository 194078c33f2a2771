//! `rpc_small`: a closed loop of 4-byte `echo` calls, client → MA → LA → 2
//! SeDs. The kernels do nothing, so every microsecond is codec, reactor,
//! mux, client, agent, scheduler and hierarchy hop. A kernel or WAL change
//! must show no change here. The traced pass adds an open-loop phase at a
//! fixed rate, timed from each request's due time.

use super::{common_layers, rss_at_mark, Args, Completion, Report};
use crate::rig::{
    caller_clients, deploy_chain, echo_profile, echo_table, on_callers, repeat_setup,
    time_per_call, SplitMix64, Telemetry,
};
use crate::spans::SpanLog;
use crate::stats::Samples;
use diet_core::client::CallStats;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::deploy::TcpDeployment;
use diet_core::reactor::FrameBuf;
use diet_core::transport::{MuxConn, DEFAULT_MAX_FRAME};
use diet_core::{DietClient, RetryPolicy, TelemetryFlusher};
use obs::{SpanRecord, TraceCtx};
use std::time::{Duration, Instant};

const WARMUP_CALLS: usize = 2000;
/// Open-loop diagnostic: total offered rate and length.
const OPEN_RATE_PER_S: f64 = 2000.0;
const OPEN_SECONDS: f64 = 3.0;
const STALL_MS: f64 = 100.0;
/// Caller 0 reads the peak RSS after this many of its own calls.
const RSS_MARK: usize = 5000;

struct Rig {
    telemetry: Option<Telemetry>,
    d: TcpDeployment,
    /// One session per caller thread; they share the deployment's one
    /// multiplexed connection per endpoint.
    clients: Vec<DietClient>,
    flushers: Vec<TelemetryFlusher>,
}

impl Rig {
    fn up(trace: bool) -> Rig {
        let telemetry = trace.then(Telemetry::start);
        let d = deploy_chain(2, 2, echo_table, telemetry.as_ref());
        let (clients, flushers) = caller_clients(telemetry.as_ref());
        let rig = Rig {
            telemetry,
            d,
            clients,
            flushers,
        };
        on_callers(rig.clients.len(), |k| {
            for i in 0..WARMUP_CALLS / rig.clients.len() {
                rig.call(&rig.clients[k], i as i32).expect("warm-up call");
            }
        });
        rig
    }

    fn down(self) {
        drop(self.flushers);
        self.d.shutdown();
        if let Some(t) = self.telemetry {
            t.stop();
        }
    }

    fn call(&self, client: &DietClient, x: i32) -> Result<(i32, CallStats), String> {
        client
            .call_distributed(
                &self.d.ma_client,
                &self.d.pool,
                echo_profile(x),
                &RetryPolicy::default(),
            )
            .map_err(|e| e.to_string())
            .and_then(|(out, stats)| Ok((out.get_i32(1).map_err(|e| e.to_string())?, stats)))
    }
}

/// What one caller thread measured.
#[derive(Default)]
struct Caller {
    attempted: u64,
    failed: u64,
    wrong: u64,
    completions: Vec<Completion>,
    finding_us: Vec<f64>,
    send_us: Vec<f64>,
    queue_us: Vec<f64>,
    /// Open loop only: how late each request left, ms.
    late_ms: Vec<f64>,
    rss_mib: Option<f64>,
    spans: Vec<SpanRecord>,
}

/// One caller's loop. Closed loop when `interval` is `None`: the next
/// request leaves when the previous returned. Open loop otherwise: request
/// `i` is due at `start + i * interval` whatever happened to the others,
/// and its latency counts from then.
fn caller_loop(
    rig: &Rig,
    k: usize,
    mut rng: SplitMix64,
    start: Instant,
    length: Duration,
    interval: Option<Duration>,
    mut log: Option<SpanLog>,
) -> Caller {
    let mut c = Caller::default();
    let client = &rig.clients[k];
    let resource = format!("caller-{k}");
    let span_name = if interval.is_some() {
        "rpc.open_call"
    } else {
        "rpc.call"
    };
    let deadline = start + length;
    for i in 0u32.. {
        let due = match interval {
            None => Instant::now(),
            Some(step) => start + step * i,
        };
        if due >= deadline {
            break;
        }
        while Instant::now() < due {
            let ahead = due - Instant::now();
            if ahead > Duration::from_micros(200) {
                std::thread::sleep(ahead - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = Instant::now();
        if interval.is_some() {
            c.late_ms.push((sent - due).as_secs_f64() * 1e3);
        }
        let x = rng.next_i32();
        c.attempted += 1;
        match rig.call(client, x) {
            Err(_) => c.failed += 1,
            Ok((echoed, stats)) => {
                c.wrong += (echoed != x) as u64;
                c.completions.push(Completion::now(start, due));
                if k == 0 {
                    rss_at_mark(c.completions.len(), RSS_MARK, &mut c.rss_mib);
                }
                if let Some(log) = &mut log {
                    c.finding_us.push(stats.finding * 1e6);
                    c.send_us.push(stats.send * 1e6);
                    c.queue_us.push(stats.queue_wait * 1e6);
                    log.add_call(
                        span_name,
                        &resource,
                        stats.trace_id,
                        sent,
                        &[
                            ("client.finding", stats.finding),
                            ("client.send", stats.send),
                            ("sed.queue_wait", stats.queue_wait),
                            ("sed.solve", stats.solve),
                        ],
                    );
                }
            }
        }
    }
    c.spans = log.map(|l| l.records).unwrap_or_default();
    c
}

/// Run every caller for `length` and merge what they measured.
fn phase(
    rig: &Rig,
    seed: u64,
    length: Duration,
    interval: Option<Duration>,
    epoch: Option<Instant>,
    lane: u64,
) -> Caller {
    let start = Instant::now();
    let per_caller = on_callers(rig.clients.len(), |k| {
        let rng = SplitMix64::new(seed).fork(lane + k as u64);
        let log = epoch.map(|e| SpanLog::new(e, lane + k as u64));
        caller_loop(rig, k, rng, start, length, interval, log)
    });
    let mut all = Caller::default();
    for c in per_caller {
        all.attempted += c.attempted;
        all.failed += c.failed;
        all.wrong += c.wrong;
        all.completions.extend(c.completions);
        all.finding_us.extend(c.finding_us);
        all.send_us.extend(c.send_us);
        all.queue_us.extend(c.queue_us);
        all.late_ms.extend(c.late_ms);
        all.rss_mib = all.rss_mib.or(c.rss_mib);
        all.spans.extend(c.spans);
    }
    all
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let (rig, setup_s) = repeat_setup(|| Rig::up(args.trace), Rig::down);
    report.setup_s = setup_s;

    let span_epoch = args.trace.then_some(epoch);
    let closed = phase(
        &rig,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        None,
        span_epoch,
        0,
    );
    report.attempted = closed.attempted;
    report.failed = closed.failed;
    report.check(
        format!("every echo returned its input ({} wrong)", closed.wrong),
        closed.wrong == 0,
    );
    report.rss_mib = closed.rss_mib;
    report.completions = closed.completions;
    report.ops_per_completion = 1.0;
    report.close_phase();
    report.spans = closed.spans;

    if let Some(telemetry) = &rig.telemetry {
        report.layer(
            "client.finding_p50_us",
            Samples::new(closed.finding_us).median(),
        );
        report.layer("client.send_p50_us", Samples::new(closed.send_us).median());
        report.layer(
            "sed.queue_wait_p50_us",
            Samples::new(closed.queue_us).median(),
        );

        // ---- open loop: fixed arrival rate, latency from the due time -----
        let interval = Duration::from_secs_f64(rig.clients.len() as f64 / OPEN_RATE_PER_S);
        let open = phase(
            &rig,
            args.seed,
            Duration::from_secs_f64(OPEN_SECONDS),
            Some(interval),
            span_epoch,
            16,
        );
        report.check(
            format!(
                "open loop lost nothing ({} failed, {} wrong)",
                open.failed, open.wrong
            ),
            open.failed == 0 && open.wrong == 0,
        );
        let open_ms: Vec<f64> = open.completions.iter().map(|c| c.latency_ms).collect();
        let stalls = open_ms.iter().filter(|l| **l >= STALL_MS).count();
        let open_lat = Samples::new(open_ms);
        let (tail_pct, tail_ms) = open_lat.tail();
        report.notes.push(format!(
            "open loop: {} requests offered at {OPEN_RATE_PER_S}/s over {} callers, tail is p{tail_pct}",
            open_lat.count(),
            rig.clients.len()
        ));
        report.layer("client.open_p50_ms", open_lat.median());
        report.layer("client.open_tail_ms", tail_ms);
        report.layer("client.open_max_late_ms", Samples::new(open.late_ms).max());
        report.layer("client.open_stalls", stalls as f64);
        report.spans.extend(open.spans);

        probes(&mut report, &rig);
        assert_eq!(rig.d.flush_telemetry(), 0, "telemetry flush failed");
        for f in &rig.flushers {
            f.flush_now().expect("flush client telemetry");
        }
        report.layer(
            "agent.ma_finding_p50_us",
            telemetry
                .metrics()
                .hist_quantile("diet_ma_finding_seconds", 0.5)
                * 1e6,
        );
        common_layers(&mut report, telemetry, &rig.d.pool, &rig.d.seds);
    }
    rig.down();
    report
}

/// Timed loops over each layer's public functions, outermost hop last, on
/// the message this workload sends.
fn probes(report: &mut Report, rig: &Rig) {
    // --- codec: the Call frame of one echo request -------------------------
    let call = Message::Call {
        request_id: 7,
        ctx: TraceCtx::default(),
        profile: echo_profile(12345),
    };
    let frame = encode_message(&call);
    report.layer("codec.small_frame_bytes", frame.len() as f64);
    report.layer(
        "codec.encode_small_ns",
        time_per_call(|| encode_message(&call)) * 1e9,
    );
    report.layer(
        "codec.decode_small_ns",
        time_per_call(|| decode_message(frame.clone())) * 1e9,
    );

    // --- reactor: slicing a read burst of small frames ------------------------
    const BURST: usize = 1000;
    let mut burst = Vec::with_capacity(BURST * (frame.len() + 4));
    for _ in 0..BURST {
        burst.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        burst.extend_from_slice(&frame);
    }
    let mut frames = Vec::with_capacity(BURST);
    let per_burst = time_per_call(|| {
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        fb.push(&burst);
        frames.clear();
        fb.drain_frames(&mut frames).expect("well-formed burst");
        frames.len()
    });
    report.layer(
        "reactor.framebuf_small_mfps",
        BURST as f64 / per_burst / 1e6,
    );

    // --- transport: one mux round trip, then one SeD call, no agents ----------
    let label = rig.d.seds[0].config.label.clone();
    let addr = rig.d.pool.endpoint(&label).expect("SeD endpoint");
    let mux = MuxConn::connect(addr).expect("dial SeD");
    let mut rid = 0u64;
    report.layer(
        "transport.mux_rtt_us",
        time_per_call(|| {
            // The cheapest correlated exchange a SeD serves: a data lookup
            // that misses.
            rid += 1;
            let get = Message::GetData {
                request_id: rid,
                id: "absent".into(),
            };
            mux.request(&get, rid, Duration::from_secs(2))
                .expect("mux round trip")
        }) * 1e6,
    );
    report.layer(
        "transport.sed_call_us",
        time_per_call(|| {
            rig.d
                .pool
                .call(&label, echo_profile(1), Duration::from_secs(2))
                .expect("direct SeD call")
        }) * 1e6,
    );
    report.layer(
        "sed.submit_inproc_us",
        time_per_call(|| {
            rig.d.seds[0]
                .submit(echo_profile(1))
                .expect("in-process submit")
                .recv()
                .expect("in-process reply")
        }) * 1e6,
    );

    // --- agents: finding inside the MA, then over the wire at two depths --------
    report.layer(
        "agent.resolve_inproc_us",
        time_per_call(|| {
            rig.d
                .ma
                .resolve("echo", &[], &[], TraceCtx::default())
                .expect("in-process resolve")
        }) * 1e6,
    );
    let submit_us = |d: &TcpDeployment| {
        time_per_call(|| {
            d.ma_client
                .submit("echo", &[], TraceCtx::default())
                .expect("remote submit")
        }) * 1e6
    };
    report.layer("hierarchy.submit_d2_us", submit_us(&rig.d));
    // The same finding one hop shallower; the difference is the cost per hop.
    let d1 = deploy_chain(1, 2, echo_table, None);
    report.layer("hierarchy.submit_d1_us", submit_us(&d1));
    d1.shutdown();
}
