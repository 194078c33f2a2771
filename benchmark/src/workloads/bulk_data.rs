//! `bulk_data`: a closed loop of 1 MiB transfers. The codec, transport and
//! reactor layers that `rpc_small` drives frame-bound become byte-bound,
//! and the data managers (retain, LRU evict, checksum, replica catalog,
//! SeD-to-SeD pull) do the rest. Every iteration writes, pulls by
//! reference, reads back and makes one inline call: 6 MiB of payload.

use super::{common_layers, rss_at_mark, Args, Completion, Report};
use crate::rig::{
    caller_clients, on_callers, repeat_setup, time_per_call, FlatGrid, SplitMix64, Telemetry, MIB,
};
use crate::spans::SpanLog;
use crate::stats::Samples;
use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::dagda;
use diet_core::data::{DietValue, Persistence};
use diet_core::datamgr::DataManager;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::reactor::FrameBuf;
use diet_core::sed::{ServiceTable, SolveFn};
use diet_core::transport::DEFAULT_MAX_FRAME;
use diet_core::{DietClient, RetryPolicy, TelemetryFlusher};
use obs::{SpanRecord, TraceCtx};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOB_BYTES: usize = 1 << 20;
/// MiB of payload one iteration moves: put, SeD-to-SeD pull, the pull
/// call's OUT, get, inline IN, inline OUT.
const ITERATION_MIB: f64 = 6.0;
const SED_CAPACITY: u64 = 64 << 20;
/// Distinct seeded blobs each caller cycles through.
const BLOBS_PER_CALLER: usize = 4;
const WARMUP_ITERATIONS: usize = 8;
const DEADLINE: Duration = Duration::from_secs(10);
/// Caller 0 reads the peak RSS after this many of its own iterations.
const RSS_MARK: usize = 150;

/// Wrapping sum of the blob's little-endian 64-bit words: cheap enough to
/// leave the kernel doing nothing, strict enough to catch a wrong blob.
fn blob_sum(data: &[u8]) -> i64 {
    data.chunks_exact(8).fold(0i64, |sum, w| {
        sum.wrapping_add(i64::from_le_bytes(w.try_into().unwrap()))
    })
}

fn blobsum_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("blobsum", 0, 0, 2);
    d.set_arg(0, ArgTag::File).unwrap();
    d.set_arg(1, ArgTag::File).unwrap();
    d.set_arg(2, ArgTag::Scalar).unwrap();
    d
}

/// `blobsum`: a blob in (inline or by reference), the same blob and its
/// checksum out.
fn blobsum_table() -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let (_, data) = p.get_file(0)?;
        let (data, sum) = (data.clone(), blob_sum(data));
        let out = DietValue::File {
            name: "out".into(),
            data,
        };
        p.set(1, out, Persistence::Volatile)?;
        p.set(2, DietValue::ScalarI64(sum), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(blobsum_desc(), solve).unwrap();
    t
}

fn blobsum_profile(input: DietValue, mode: Persistence) -> Profile {
    let mut p = Profile::alloc(&blobsum_desc());
    p.set(0, input, mode).unwrap();
    p
}

fn file(name: &str, data: &Bytes) -> DietValue {
    DietValue::File {
        name: name.to_string(),
        data: data.clone(),
    }
}

struct Rig {
    telemetry: Option<Telemetry>,
    grid: FlatGrid,
    clients: Vec<DietClient>,
    flushers: Vec<TelemetryFlusher>,
}

impl Rig {
    fn up(trace: bool) -> Rig {
        let telemetry = trace.then(Telemetry::start);
        let grid = FlatGrid::deploy(2, SED_CAPACITY, blobsum_table, telemetry.as_ref());
        let (clients, flushers) = caller_clients(telemetry.as_ref());
        let rig = Rig {
            telemetry,
            grid,
            clients,
            flushers,
        };
        let blob = Bytes::from(SplitMix64::new(0).bytes(BLOB_BYTES));
        let sum = blob_sum(&blob);
        for i in 0..WARMUP_ITERATIONS {
            rig.iteration(
                i % rig.clients.len(),
                &format!("warm-{i}"),
                &blob,
                sum,
                None,
            )
            .expect("warm-up iteration");
        }
        rig
    }

    fn down(self) {
        drop(self.flushers);
        self.grid.shutdown();
        if let Some(t) = self.telemetry {
            t.stop();
        }
    }

    /// One iteration for caller `k`: write to the home SeD, pull on the
    /// other one by reference, read back from there, one inline call.
    /// Returns the four op times in seconds.
    fn iteration(
        &self,
        k: usize,
        id: &str,
        blob: &Bytes,
        sum: i64,
        mut log: Option<&mut SpanLog>,
    ) -> Result<[f64; 4], String> {
        let n = self.grid.seds.len();
        let (home, away) = (self.grid.label(k % n), self.grid.label((k + 1) % n));
        let pool = &self.grid.pool;
        let e = |e: diet_core::DietError| e.to_string();
        let check_reply = |reply: &Profile| -> Result<(), String> {
            let (_, out) = reply.get_file(1).map_err(e)?;
            let got = reply.get(2).ok().and_then(|v| match v {
                DietValue::ScalarI64(s) => Some(*s),
                _ => None,
            });
            if got != Some(sum) || blob_sum(out) != sum {
                return Err(format!("{id}: blob came back with the wrong checksum"));
            }
            Ok(())
        };
        let start = Instant::now();
        let mut times = [0.0; 4];
        let mut lap = start;
        let mut mark = |slot: usize, log: &mut Option<&mut SpanLog>, name: &'static str| {
            let now = Instant::now();
            times[slot] = (now - lap).as_secs_f64();
            if let Some(log) = log {
                let (s, e) = (log.ns(lap), log.ns(now));
                log.add(name, "client", 0, 0, s, e);
            }
            lap = now;
        };

        pool.put_data(home, id, file(id, blob), Persistence::Persistent, DEADLINE)
            .map_err(e)?;
        mark(0, &mut log, "bulk.put");

        let by_ref = blobsum_profile(DietValue::data_ref(id), Persistence::Persistent);
        let (reply, _, _) = pool
            .call_traced(away, by_ref, DEADLINE, TraceCtx::default())
            .map_err(e)?;
        check_reply(&reply)?;
        mark(1, &mut log, "bulk.pull_call");

        let (value, _) = pool.get_data(away, id, DEADLINE).map_err(e)?;
        if value.as_file().map(|(_, d)| blob_sum(d)) != Some(sum) {
            return Err(format!("{id}: read back the wrong blob"));
        }
        mark(2, &mut log, "bulk.get");

        let policy = RetryPolicy {
            attempt_timeout: DEADLINE,
            ..RetryPolicy::default()
        };
        let inline = blobsum_profile(file(id, blob), Persistence::Volatile);
        let (reply, _) = self.clients[k]
            .call_distributed(&self.grid.ma_client, pool, inline, &policy)
            .map_err(e)?;
        check_reply(&reply)?;
        mark(3, &mut log, "bulk.inline_call");
        Ok(times)
    }
}

#[derive(Default)]
struct Caller {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    completions: Vec<Completion>,
    op_s: [Vec<f64>; 4],
    rss_mib: Option<f64>,
    spans: Vec<SpanRecord>,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let (rig, setup_s) = repeat_setup(|| Rig::up(args.trace), Rig::down);
    report.setup_s = setup_s;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let per_caller = on_callers(rig.clients.len(), |k| {
        let mut rng = SplitMix64::new(args.seed).fork(k as u64);
        let blobs: Vec<(Bytes, i64)> = (0..BLOBS_PER_CALLER)
            .map(|_| {
                let b = Bytes::from(rng.bytes(BLOB_BYTES));
                let sum = blob_sum(&b);
                (b, sum)
            })
            .collect();
        let mut log = args.trace.then(|| SpanLog::new(epoch, k as u64));
        let mut c = Caller::default();
        for i in 0.. {
            let t = Instant::now();
            if t >= deadline {
                break;
            }
            let (blob, sum) = &blobs[i % blobs.len()];
            let id = format!("blob-{}-{k}-{i}", args.seed);
            c.attempted += 1;
            match rig.iteration(k, &id, blob, *sum, log.as_mut()) {
                Err(e) => {
                    c.failed += 1;
                    c.errors.push(e);
                }
                Ok(ops) => {
                    c.completions.push(Completion::now(start, t));
                    if k == 0 {
                        rss_at_mark(c.completions.len(), RSS_MARK, &mut c.rss_mib);
                    }
                    for (slot, secs) in ops.iter().enumerate() {
                        c.op_s[slot].push(*secs);
                    }
                }
            }
        }
        c.spans = log.map(|l| l.records).unwrap_or_default();
        c
    });

    let mut op_s: [Vec<f64>; 4] = Default::default();
    for c in per_caller {
        report.attempted += c.attempted;
        report.failed += c.failed;
        report.completions.extend(c.completions);
        report.rss_mib = report.rss_mib.or(c.rss_mib);
        report.spans.extend(c.spans);
        for e in c.errors.iter().take(3) {
            report.notes.push(format!("error: {e}"));
        }
        for (all, one) in op_s.iter_mut().zip(c.op_s) {
            all.extend(one);
        }
    }
    report.close_phase();
    report.ops_per_completion = ITERATION_MIB;
    report.check(
        "every blob came back with its checksum",
        report.failed == 0 && !report.completions.is_empty(),
    );
    report.notes.push(format!(
        "one op = 1 MiB of payload moved (throughput_per_s is goodput in MiB/s); latency = one iteration of put + pull-by-ref call + get + inline call ({ITERATION_MIB} MiB)"
    ));

    if let Some(telemetry) = &rig.telemetry {
        let [put, pull_call, get, inline] = op_s.map(|v| Samples::new(v).median());
        let blob_mib = BLOB_BYTES as f64 / MIB;
        report.layer("transport.put_mib_s", blob_mib / put);
        report.layer("transport.get_mib_s", blob_mib / get);
        report.layer("transport.inline_mib_s", 2.0 * blob_mib / inline);
        report.notes.push(format!(
            "op medians: put {:.3} ms, pull-by-ref call {:.3} ms, get {:.3} ms, inline call {:.3} ms",
            put * 1e3,
            pull_call * 1e3,
            get * 1e3,
            inline * 1e3
        ));
        probes(&mut report, &rig);
        rig.grid.flush_telemetry();
        for f in &rig.flushers {
            f.flush_now().expect("flush client telemetry");
        }
        let m = telemetry.metrics();
        let pulled_mib = m.counter("diet_data_pull_bytes_total") / MIB;
        report.layer(
            "sed.pull_mib_s",
            pulled_mib / m.hist("diet_data_pull_seconds").0.max(1e-9),
        );
        common_layers(&mut report, telemetry, &rig.grid.pool, &rig.grid.seds);
    }
    rig.down();
    report
}

/// Timed loops over the byte-bound layers' public functions on one of the
/// workload's own 1 MiB messages.
fn probes(report: &mut Report, rig: &Rig) {
    let blob = Bytes::from(SplitMix64::new(99).bytes(BLOB_BYTES));
    let value = file("probe", &blob);
    let blob_mib = BLOB_BYTES as f64 / MIB;

    // --- codec: the PutData frame of one blob ------------------------------
    let put = Message::PutData {
        request_id: 7,
        id: "probe".into(),
        mode: Persistence::Persistent,
        value: value.clone(),
    };
    let frame = encode_message(&put);
    report.layer(
        "codec.encode_bulk_mib_s",
        blob_mib / time_per_call(|| encode_message(&put)),
    );
    report.layer(
        "codec.decode_bulk_mib_s",
        blob_mib / time_per_call(|| decode_message(frame.clone())),
    );

    // --- reactor: assembling that frame from socket-sized reads ---------------
    let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&frame);
    let mut frames = Vec::new();
    report.layer(
        "reactor.framebuf_bulk_mib_s",
        blob_mib
            / time_per_call(|| {
                let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
                frames.clear();
                for chunk in wire.chunks(64 << 10) {
                    fb.push(chunk);
                    fb.drain_frames(&mut frames).expect("well-formed frame");
                }
                frames.len()
            }),
    );

    // --- datamgr: a store at capacity, every retain evicting ------------------
    let dm = DataManager::with_capacity(SED_CAPACITY);
    for i in 0..SED_CAPACITY as usize / BLOB_BYTES {
        dm.retain(&format!("fill-{i}"), value.clone(), Persistence::Persistent);
    }
    let mut i = 0u64;
    report.layer(
        "datamgr.retain_us",
        time_per_call(|| {
            i += 1;
            dm.retain(
                &format!("fresh-{i}"),
                value.clone(),
                Persistence::Persistent,
            )
        }) * 1e6,
    );
    let resident = format!("fresh-{i}");
    report.layer(
        "datamgr.get_us",
        time_per_call(|| dm.get(&resident).expect("resident id")) * 1e6,
    );

    // --- dagda: checksum of one blob, one lookup in the live catalog ------------
    report.layer(
        "dagda.checksum_mib_s",
        blob_mib / time_per_call(|| dagda::checksum(&value)),
    );
    let published = rig
        .grid
        .catalog
        .ids()
        .into_iter()
        .next()
        .expect("the workload published data");
    report.layer(
        "dagda.locate_ns",
        time_per_call(|| rig.grid.catalog.locate(&published)) * 1e9,
    );
}
