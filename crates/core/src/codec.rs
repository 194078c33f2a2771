//! Binary wire codec.
//!
//! DIET rode CORBA's CDR marshalling; we define our own compact framing so
//! the TCP transport is self-contained. Every message is
//! `[u32 length][u8 tag][payload]`; values and profiles use a tag-prefixed
//! recursive encoding. All integers are little-endian.

use crate::dag::{
    DagEventRec, DagInput, DagNodeOutcome, DagNodeSpec, DagNodeState, DagOutcome, WorkflowSpec,
};
use crate::data::{DietValue, Persistence};
use crate::error::DietError;
use crate::jobserver::{CampaignSummary, TaskEventRec, TaskPayload, TaskState, TaskStatusRec};
use crate::monitor::Estimate;
use crate::profile::Profile;
use bytes::{Buf, BufMut, ByteStr, Bytes, BytesMut};
use obs::{intern_name, Labels, MetricSnapshot, SpanRecord, TraceCtx};

/// Identity of the process a telemetry batch came from — the LogCentral
/// "component name" analogue. The collector keys its per-source health
/// table on `(role, label, pid)`; `site` groups components for the
/// topology snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessSource {
    /// Component kind: "ma", "la", "sed", "client", "collector".
    pub role: String,
    /// Component label, e.g. a SeD's `lyon/0` or an agent's site name.
    pub label: String,
    /// OS process id, distinguishing restarts of the same label.
    pub pid: u32,
    /// Deployment site this component belongs to (empty if none).
    pub site: String,
}

/// Control messages exchanged between client, agents and SeDs.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → MA: where can `service` run? (the "finding" phase).
    /// `ctx` joins the MA-side spans to the client's trace; `exclude`
    /// carries the labels a retrying client has just seen fail, so the
    /// hierarchy skips them when collecting estimates.
    Submit {
        service: String,
        request_id: u64,
        ctx: TraceCtx,
        exclude: Vec<String>,
    },
    /// MA → client: chosen server (label) or failure.
    SubmitReply {
        request_id: u64,
        server: Option<String>,
    },
    /// Agent → child agent: carry a submit one hop down the tree (or
    /// MA → MA federation when the local tree has no matching service).
    /// The child answers with an [`Message::EstimateBatch`] aggregating
    /// its whole subtree. `ttl` bounds further forwarding: an agent
    /// receiving `ttl == 0` consults only its own tree — forwarding loops
    /// between federated MAs die after one hop.
    Forward {
        request_id: u64,
        ctx: TraceCtx,
        service: String,
        exclude: Vec<String>,
        ttl: u8,
    },
    /// Child agent → parent: every estimate its subtree produced for the
    /// forwarded request (empty = nothing matches / everything excluded).
    EstimateBatch {
        request_id: u64,
        estimates: Vec<Estimate>,
    },
    /// Client → SeD: run this profile. `ctx` carries the trace context
    /// (16 bytes in the frame header, after the request id) so SeD-side
    /// spans join the client's trace; `ctx.trace_id == 0` disables tracing.
    Call {
        request_id: u64,
        ctx: TraceCtx,
        profile: Profile,
    },
    /// SeD → client: the completed profile (OUT args filled) or error
    /// status, plus the server-measured queue-wait and solve durations
    /// (seconds) so the client can decompose latency Figure-5 style.
    CallReply {
        request_id: u64,
        queue_wait: f64,
        solve: f64,
        result: Result<Profile, String>,
    },
    /// Liveness probe.
    Ping,
    Pong,
    /// Orderly shutdown of a worker.
    Shutdown,
    /// Ask a SeD for its Prometheus-style metrics dump (LogService analog).
    DumpMetrics,
    /// Reply to [`Message::DumpMetrics`]: text exposition of the registry.
    MetricsReply {
        text: String,
    },
    /// SeD ← SeD/client: fetch the value stored under `id` (DAGDA pull).
    /// `request_id` correlates the reply on a multiplexed connection.
    GetData {
        request_id: u64,
        id: String,
    },
    /// Reply to [`Message::GetData`] / ack for [`Message::PutData`]: the
    /// stored value with its persistence mode, or an error string. Echoes
    /// the requester's correlation id.
    DataReply {
        request_id: u64,
        id: String,
        result: Result<(DietValue, Persistence), String>,
    },
    /// Client → SeD: seed the server's store with `value` under `id` (the
    /// `store_data` entry point). Acked with a [`Message::DataReply`].
    PutData {
        request_id: u64,
        id: String,
        mode: Persistence,
        value: DietValue,
    },
    /// Server → client: admission rejected — the accept queue or the SeD's
    /// admission limit is full. `request_id == 0` means the connection
    /// itself was refused (no frame was read); nonzero echoes the rejected
    /// request so a multiplexed caller can back off and retry elsewhere.
    Busy {
        request_id: u64,
    },
    /// Any component → collector: a batch of completed spans drained from
    /// the sender's ring. Correlated (acked with [`Message::PushAck`]) so a
    /// flusher can confirm delivery over a shared mux connection. Span ids
    /// are process-unique only within `source`; the collector stitches
    /// across processes by `trace_id`.
    PushSpans {
        request_id: u64,
        source: ProcessSource,
        spans: Vec<SpanRecord>,
    },
    /// Any component → collector: metric *deltas* since the sender's last
    /// flush (counters/histograms ship increments, gauges ship the current
    /// value — see `obs::Registry::delta_since`). Acked with
    /// [`Message::PushAck`].
    PushMetricDeltas {
        request_id: u64,
        source: ProcessSource,
        deltas: Vec<(String, Labels, MetricSnapshot)>,
    },
    /// Collector → component: delivery ack for a push batch.
    PushAck {
        request_id: u64,
    },
    /// Correlated [`Message::DumpMetrics`]: carries a request id so it can
    /// ride a shared `MuxConn` like `Call` does, plus a selector — `""` or
    /// `"prometheus"` for the metrics text, `"chrome"` for the Chrome trace
    /// JSON, `"topology"` for the collector's plaintext hierarchy/health
    /// snapshot.
    DumpMetricsRid {
        request_id: u64,
        what: String,
    },
    /// Reply to [`Message::DumpMetricsRid`], echoing its correlation id.
    MetricsReplyRid {
        request_id: u64,
        text: String,
    },
    /// Client → MA: admit a workflow DAG for engine-side scheduling. `ctx`
    /// carries the workflow trace id every node span stitches under.
    SubmitDag {
        request_id: u64,
        ctx: TraceCtx,
        spec: WorkflowSpec,
    },
    /// MA → client: submission ack — the engine-assigned dag id, or a
    /// rejection string (validation failure, no engine at this MA, or an
    /// unknown dag id on a later [`Message::DagStatus`] poll).
    DagReply {
        request_id: u64,
        result: Result<u64, String>,
    },
    /// Client → MA: poll a dag's progress. `since` is the last event
    /// sequence number already seen (0 for everything).
    DagStatus {
        request_id: u64,
        dag_id: u64,
        since: u64,
    },
    /// MA → client: reply to [`Message::DagStatus`] — the events after the
    /// poll cursor plus, once the dag finished, its outcome. Only ever sent
    /// as a correlated reply (a shared mux would drop an unsolicited push).
    DagEvent {
        request_id: u64,
        dag_id: u64,
        events: Vec<DagEventRec>,
        outcome: Option<DagOutcome>,
    },
    /// Client → jobserver: create (or idempotently re-attach to) the
    /// campaign called `campaign`, seeding it with `tasks`. A name that
    /// already exists returns the existing campaign untouched, so a
    /// client that died mid-submit can simply resubmit.
    SubmitTasks {
        request_id: u64,
        campaign: String,
        tasks: Vec<TaskPayload>,
    },
    /// Jobserver → client: the campaign id and per-campaign task ids, or
    /// a rejection string.
    SubmitTasksReply {
        request_id: u64,
        result: Result<(u64, Vec<u64>), String>,
    },
    /// Client → jobserver: point-in-time status of one task.
    TaskStatus {
        request_id: u64,
        campaign_id: u64,
        task_id: u64,
    },
    /// Jobserver → client: reply to [`Message::TaskStatus`].
    TaskStatusReply {
        request_id: u64,
        result: Result<TaskStatusRec, String>,
    },
    /// Client → jobserver: look up a campaign by name (late-joining or
    /// reconnecting clients).
    AttachCampaign {
        request_id: u64,
        campaign: String,
    },
    /// Jobserver → client: the campaign's summary, or an unknown-name
    /// rejection.
    AttachReply {
        request_id: u64,
        result: Result<CampaignSummary, String>,
    },
    /// Client → jobserver: poll the progress feed; `cursor` is the last
    /// event sequence number already seen (0 for everything retained).
    CampaignProgress {
        request_id: u64,
        campaign_id: u64,
        cursor: u64,
    },
    /// Jobserver → client: summary plus the events after the cursor.
    ProgressReply {
        request_id: u64,
        result: Result<(CampaignSummary, Vec<TaskEventRec>), String>,
    },
}

const TAG_NULL: u8 = 0;
const TAG_I32: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_VF64: u8 = 5;
const TAG_VI32: u8 = 6;
const TAG_STR: u8 = 7;
const TAG_FILE: u8 = 8;
const TAG_DATAREF: u8 = 9;

const MSG_SUBMIT: u8 = 10;
const MSG_SUBMIT_REPLY: u8 = 11;
const MSG_CALL: u8 = 12;
const MSG_CALL_REPLY: u8 = 13;
const MSG_PING: u8 = 14;
const MSG_PONG: u8 = 15;
const MSG_SHUTDOWN: u8 = 16;
const MSG_DUMP_METRICS: u8 = 17;
const MSG_METRICS_REPLY: u8 = 18;
const MSG_GET_DATA: u8 = 19;
const MSG_DATA_REPLY: u8 = 20;
const MSG_PUT_DATA: u8 = 21;
const MSG_BUSY: u8 = 22;
const MSG_FORWARD: u8 = 23;
const MSG_ESTIMATE_BATCH: u8 = 24;
const MSG_PUSH_SPANS: u8 = 25;
const MSG_PUSH_METRIC_DELTAS: u8 = 26;
const MSG_PUSH_ACK: u8 = 27;
const MSG_DUMP_METRICS_RID: u8 = 28;
const MSG_METRICS_REPLY_RID: u8 = 29;
const MSG_SUBMIT_DAG: u8 = 30;
const MSG_DAG_REPLY: u8 = 31;
const MSG_DAG_STATUS: u8 = 32;
const MSG_DAG_EVENT: u8 = 33;
const MSG_SUBMIT_TASKS: u8 = 34;
const MSG_SUBMIT_TASKS_REPLY: u8 = 35;
const MSG_TASK_STATUS: u8 = 36;
const MSG_TASK_STATUS_REPLY: u8 = 37;
const MSG_ATTACH_CAMPAIGN: u8 = 38;
const MSG_ATTACH_REPLY: u8 = 39;
const MSG_CAMPAIGN_PROGRESS: u8 = 40;
const MSG_PROGRESS_REPLY: u8 = 41;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, DietError> {
    // One copy (slice -> String); validation happens on the borrowed slice
    // so no throwaway Vec is built for the error path.
    Ok(get_bytestr(buf)?.as_str().to_owned())
}

/// Zero-copy string decode: the returned [`ByteStr`] is an O(1) slice of
/// the frame's backing buffer, UTF-8 validated exactly once here.
fn get_bytestr(buf: &mut Bytes) -> Result<ByteStr, DietError> {
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated string length".into()));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(DietError::Codec("truncated string body".into()));
    }
    let raw = buf.copy_to_bytes(n);
    ByteStr::from_utf8(raw).map_err(|e| DietError::Codec(format!("utf8: {e}")))
}

fn put_value(buf: &mut BytesMut, v: &DietValue) {
    match v {
        DietValue::Null => buf.put_u8(TAG_NULL),
        DietValue::ScalarI32(x) => {
            buf.put_u8(TAG_I32);
            buf.put_i32_le(*x);
        }
        DietValue::ScalarI64(x) => {
            buf.put_u8(TAG_I64);
            buf.put_i64_le(*x);
        }
        DietValue::ScalarF64(x) => {
            buf.put_u8(TAG_F64);
            buf.put_f64_le(*x);
        }
        DietValue::ScalarChar(x) => {
            buf.put_u8(TAG_CHAR);
            buf.put_u8(*x);
        }
        DietValue::VectorF64(xs) => {
            buf.put_u8(TAG_VF64);
            buf.put_u32_le(xs.len() as u32);
            for x in xs.iter() {
                buf.put_f64_le(*x);
            }
        }
        DietValue::VectorI32(xs) => {
            buf.put_u8(TAG_VI32);
            buf.put_u32_le(xs.len() as u32);
            for x in xs.iter() {
                buf.put_i32_le(*x);
            }
        }
        DietValue::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        DietValue::File { name, data } => {
            buf.put_u8(TAG_FILE);
            put_str(buf, name);
            buf.put_u32_le(data.len() as u32);
            buf.put_slice(data);
        }
        DietValue::DataRef { id } => {
            buf.put_u8(TAG_DATAREF);
            put_str(buf, id);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<DietValue, DietError> {
    if buf.remaining() < 1 {
        return Err(DietError::Codec("truncated value tag".into()));
    }
    let need = |buf: &Bytes, n: usize| {
        if buf.remaining() < n {
            Err(DietError::Codec("truncated value body".into()))
        } else {
            Ok(())
        }
    };
    match buf.get_u8() {
        TAG_NULL => Ok(DietValue::Null),
        TAG_I32 => {
            need(buf, 4)?;
            Ok(DietValue::ScalarI32(buf.get_i32_le()))
        }
        TAG_I64 => {
            need(buf, 8)?;
            Ok(DietValue::ScalarI64(buf.get_i64_le()))
        }
        TAG_F64 => {
            need(buf, 8)?;
            Ok(DietValue::ScalarF64(buf.get_f64_le()))
        }
        TAG_CHAR => {
            need(buf, 1)?;
            Ok(DietValue::ScalarChar(buf.get_u8()))
        }
        TAG_VF64 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(buf, n * 8)?;
            Ok(DietValue::VectorF64(
                (0..n).map(|_| buf.get_f64_le()).collect(),
            ))
        }
        TAG_VI32 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(buf, n * 4)?;
            Ok(DietValue::VectorI32(
                (0..n).map(|_| buf.get_i32_le()).collect(),
            ))
        }
        // Zero-copy: the string payload stays a slice of the frame buffer.
        TAG_STR => Ok(DietValue::Str(get_bytestr(buf)?)),
        TAG_FILE => {
            let name = get_str(buf)?;
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(buf, n)?;
            Ok(DietValue::File {
                name,
                data: buf.copy_to_bytes(n),
            })
        }
        TAG_DATAREF => Ok(DietValue::DataRef { id: get_str(buf)? }),
        t => Err(DietError::Codec(format!("unknown value tag {t}"))),
    }
}

fn put_persistence(buf: &mut BytesMut, p: Persistence) {
    buf.put_u8(match p {
        Persistence::Volatile => 0,
        Persistence::Persistent => 1,
        Persistence::Sticky => 2,
    });
}

fn get_persistence(buf: &mut Bytes) -> Result<Persistence, DietError> {
    if buf.remaining() < 1 {
        return Err(DietError::Codec("truncated persistence".into()));
    }
    match buf.get_u8() {
        0 => Ok(Persistence::Volatile),
        1 => Ok(Persistence::Persistent),
        2 => Ok(Persistence::Sticky),
        t => Err(DietError::Codec(format!("unknown persistence {t}"))),
    }
}

fn put_str_list(buf: &mut BytesMut, xs: &[String]) {
    buf.put_u32_le(xs.len() as u32);
    for x in xs {
        put_str(buf, x);
    }
}

fn get_str_list(buf: &mut Bytes) -> Result<Vec<String>, DietError> {
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated string-list length".into()));
    }
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| get_str(buf)).collect()
}

/// Wire form of an [`Estimate`] — the payload the agent hierarchy ships
/// back up the tree in [`Message::EstimateBatch`] frames. `Option`s use
/// the codec's usual one-byte presence flag.
fn put_estimate(buf: &mut BytesMut, e: &Estimate) {
    put_str(buf, &e.server);
    buf.put_f64_le(e.speed_factor);
    buf.put_u64_le(e.free_memory);
    buf.put_u64_le(e.queue_length as u64);
    buf.put_u64_le(e.completed);
    match e.known_mean_duration {
        Some(d) => {
            buf.put_u8(1);
            buf.put_f64_le(d);
        }
        None => buf.put_u8(0),
    }
    buf.put_f64_le(e.probe_rtt);
    buf.put_u64_le(e.data_local_bytes);
    buf.put_u64_le(e.data_miss_bytes);
    match e.admission_limit {
        Some(cap) => {
            buf.put_u8(1);
            buf.put_u64_le(cap as u64);
        }
        None => buf.put_u8(0),
    }
}

fn get_estimate(buf: &mut Bytes) -> Result<Estimate, DietError> {
    let need = |buf: &Bytes, n: usize| {
        if buf.remaining() < n {
            Err(DietError::Codec("truncated estimate".into()))
        } else {
            Ok(())
        }
    };
    let server = get_str(buf)?;
    need(buf, 8 * 4 + 1)?;
    let speed_factor = buf.get_f64_le();
    let free_memory = buf.get_u64_le();
    let queue_length = buf.get_u64_le() as usize;
    let completed = buf.get_u64_le();
    let known_mean_duration = if buf.get_u8() == 1 {
        need(buf, 8)?;
        Some(buf.get_f64_le())
    } else {
        None
    };
    need(buf, 8 * 3 + 1)?;
    let probe_rtt = buf.get_f64_le();
    let data_local_bytes = buf.get_u64_le();
    let data_miss_bytes = buf.get_u64_le();
    let admission_limit = if buf.get_u8() == 1 {
        need(buf, 8)?;
        Some(buf.get_u64_le() as usize)
    } else {
        None
    };
    Ok(Estimate {
        server,
        speed_factor,
        free_memory,
        queue_length,
        completed,
        known_mean_duration,
        probe_rtt,
        data_local_bytes,
        data_miss_bytes,
        admission_limit,
    })
}

fn put_source(buf: &mut BytesMut, s: &ProcessSource) {
    put_str(buf, &s.role);
    put_str(buf, &s.label);
    buf.put_u32_le(s.pid);
    put_str(buf, &s.site);
}

fn get_source(buf: &mut Bytes) -> Result<ProcessSource, DietError> {
    let role = get_str(buf)?;
    let label = get_str(buf)?;
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated source pid".into()));
    }
    let pid = buf.get_u32_le();
    let site = get_str(buf)?;
    Ok(ProcessSource {
        role,
        label,
        pid,
        site,
    })
}

fn put_span(buf: &mut BytesMut, s: &SpanRecord) {
    buf.put_u64_le(s.trace_id);
    buf.put_u64_le(s.span_id);
    buf.put_u64_le(s.parent);
    put_str(buf, s.name);
    put_str(buf, &s.resource);
    buf.put_u64_le(s.start_ns);
    buf.put_u64_le(s.end_ns);
}

fn get_span(buf: &mut Bytes) -> Result<SpanRecord, DietError> {
    let need = |buf: &Bytes, n: usize| {
        if buf.remaining() < n {
            Err(DietError::Codec("truncated span".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 8 * 3)?;
    let trace_id = buf.get_u64_le();
    let span_id = buf.get_u64_le();
    let parent = buf.get_u64_le();
    // Span names are `&'static str`; intern_name maps the known phase
    // names to their static literals without leaking per-frame strings.
    let name = intern_name(get_bytestr(buf)?.as_str());
    let resource = get_str(buf)?;
    need(buf, 8 * 2)?;
    Ok(SpanRecord {
        trace_id,
        span_id,
        parent,
        name,
        resource,
        start_ns: buf.get_u64_le(),
        end_ns: buf.get_u64_le(),
    })
}

fn put_labels(buf: &mut BytesMut, labels: &Labels) {
    buf.put_u32_le(labels.len() as u32);
    for (k, v) in labels {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn get_labels(buf: &mut Bytes) -> Result<Labels, DietError> {
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated label count".into()));
    }
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| Ok((get_str(buf)?, get_str(buf)?))).collect()
}

const SNAP_COUNTER: u8 = 0;
const SNAP_GAUGE: u8 = 1;
const SNAP_HISTOGRAM: u8 = 2;

fn put_snapshot(buf: &mut BytesMut, snap: &MetricSnapshot) {
    match snap {
        MetricSnapshot::Counter(v) => {
            buf.put_u8(SNAP_COUNTER);
            buf.put_u64_le(*v);
        }
        MetricSnapshot::Gauge(v) => {
            buf.put_u8(SNAP_GAUGE);
            buf.put_f64_le(*v);
        }
        MetricSnapshot::Histogram {
            bounds,
            counts,
            sum,
            count,
        } => {
            buf.put_u8(SNAP_HISTOGRAM);
            buf.put_u32_le(bounds.len() as u32);
            for b in bounds {
                buf.put_f64_le(*b);
            }
            buf.put_u32_le(counts.len() as u32);
            for c in counts {
                buf.put_u64_le(*c);
            }
            buf.put_f64_le(*sum);
            buf.put_u64_le(*count);
        }
    }
}

fn get_snapshot(buf: &mut Bytes) -> Result<MetricSnapshot, DietError> {
    let need = |buf: &Bytes, n: usize| {
        if buf.remaining() < n {
            Err(DietError::Codec("truncated metric snapshot".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 1)?;
    match buf.get_u8() {
        SNAP_COUNTER => {
            need(buf, 8)?;
            Ok(MetricSnapshot::Counter(buf.get_u64_le()))
        }
        SNAP_GAUGE => {
            need(buf, 8)?;
            Ok(MetricSnapshot::Gauge(buf.get_f64_le()))
        }
        SNAP_HISTOGRAM => {
            need(buf, 4)?;
            let nb = buf.get_u32_le() as usize;
            need(buf, nb * 8)?;
            let bounds = (0..nb).map(|_| buf.get_f64_le()).collect();
            need(buf, 4)?;
            let nc = buf.get_u32_le() as usize;
            need(buf, nc * 8)?;
            let counts = (0..nc).map(|_| buf.get_u64_le()).collect();
            need(buf, 16)?;
            Ok(MetricSnapshot::Histogram {
                bounds,
                counts,
                sum: buf.get_f64_le(),
                count: buf.get_u64_le(),
            })
        }
        t => Err(DietError::Codec(format!("unknown snapshot kind {t}"))),
    }
}

/// Encode a profile (service, values, persistence).
pub fn encode_profile(buf: &mut BytesMut, p: &Profile) {
    put_str(buf, &p.service);
    buf.put_u32_le(p.values.len() as u32);
    for (v, m) in p.values.iter().zip(&p.persistence) {
        put_persistence(buf, *m);
        put_value(buf, v);
    }
}

/// Decode a profile.
pub fn decode_profile(buf: &mut Bytes) -> Result<Profile, DietError> {
    let service = get_str(buf)?;
    if buf.remaining() < 4 {
        return Err(DietError::Codec("truncated profile arity".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut values = Vec::with_capacity(n);
    let mut persistence = Vec::with_capacity(n);
    for _ in 0..n {
        persistence.push(get_persistence(buf)?);
        values.push(get_value(buf)?);
    }
    Ok(Profile {
        service,
        values,
        persistence,
    })
}

/// Encode a full message (without the outer length frame; transports add it).
pub fn encode_message(m: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match m {
        Message::Submit {
            service,
            request_id,
            ctx,
            exclude,
        } => {
            buf.put_u8(MSG_SUBMIT);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(ctx.trace_id);
            buf.put_u64_le(ctx.parent_span);
            put_str(&mut buf, service);
            put_str_list(&mut buf, exclude);
        }
        Message::Forward {
            request_id,
            ctx,
            service,
            exclude,
            ttl,
        } => {
            buf.put_u8(MSG_FORWARD);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(ctx.trace_id);
            buf.put_u64_le(ctx.parent_span);
            put_str(&mut buf, service);
            put_str_list(&mut buf, exclude);
            buf.put_u8(*ttl);
        }
        Message::EstimateBatch {
            request_id,
            estimates,
        } => {
            buf.put_u8(MSG_ESTIMATE_BATCH);
            buf.put_u64_le(*request_id);
            buf.put_u32_le(estimates.len() as u32);
            for e in estimates {
                put_estimate(&mut buf, e);
            }
        }
        Message::SubmitReply { request_id, server } => {
            buf.put_u8(MSG_SUBMIT_REPLY);
            buf.put_u64_le(*request_id);
            match server {
                Some(s) => {
                    buf.put_u8(1);
                    put_str(&mut buf, s);
                }
                None => buf.put_u8(0),
            }
        }
        Message::Call {
            request_id,
            ctx,
            profile,
        } => {
            buf.put_u8(MSG_CALL);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(ctx.trace_id);
            buf.put_u64_le(ctx.parent_span);
            encode_profile(&mut buf, profile);
        }
        Message::CallReply {
            request_id,
            queue_wait,
            solve,
            result,
        } => {
            buf.put_u8(MSG_CALL_REPLY);
            buf.put_u64_le(*request_id);
            buf.put_f64_le(*queue_wait);
            buf.put_f64_le(*solve);
            match result {
                Ok(p) => {
                    buf.put_u8(1);
                    encode_profile(&mut buf, p);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::Ping => buf.put_u8(MSG_PING),
        Message::Pong => buf.put_u8(MSG_PONG),
        Message::Shutdown => buf.put_u8(MSG_SHUTDOWN),
        Message::DumpMetrics => buf.put_u8(MSG_DUMP_METRICS),
        Message::MetricsReply { text } => {
            buf.put_u8(MSG_METRICS_REPLY);
            put_str(&mut buf, text);
        }
        Message::GetData { request_id, id } => {
            buf.put_u8(MSG_GET_DATA);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, id);
        }
        Message::DataReply {
            request_id,
            id,
            result,
        } => {
            buf.put_u8(MSG_DATA_REPLY);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, id);
            match result {
                Ok((v, mode)) => {
                    buf.put_u8(1);
                    put_persistence(&mut buf, *mode);
                    put_value(&mut buf, v);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::PutData {
            request_id,
            id,
            mode,
            value,
        } => {
            buf.put_u8(MSG_PUT_DATA);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, id);
            put_persistence(&mut buf, *mode);
            put_value(&mut buf, value);
        }
        Message::Busy { request_id } => {
            buf.put_u8(MSG_BUSY);
            buf.put_u64_le(*request_id);
        }
        Message::PushSpans {
            request_id,
            source,
            spans,
        } => {
            buf.put_u8(MSG_PUSH_SPANS);
            buf.put_u64_le(*request_id);
            put_source(&mut buf, source);
            buf.put_u32_le(spans.len() as u32);
            for s in spans {
                put_span(&mut buf, s);
            }
        }
        Message::PushMetricDeltas {
            request_id,
            source,
            deltas,
        } => {
            buf.put_u8(MSG_PUSH_METRIC_DELTAS);
            buf.put_u64_le(*request_id);
            put_source(&mut buf, source);
            buf.put_u32_le(deltas.len() as u32);
            for (name, labels, snap) in deltas {
                put_str(&mut buf, name);
                put_labels(&mut buf, labels);
                put_snapshot(&mut buf, snap);
            }
        }
        Message::PushAck { request_id } => {
            buf.put_u8(MSG_PUSH_ACK);
            buf.put_u64_le(*request_id);
        }
        Message::DumpMetricsRid { request_id, what } => {
            buf.put_u8(MSG_DUMP_METRICS_RID);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, what);
        }
        Message::MetricsReplyRid { request_id, text } => {
            buf.put_u8(MSG_METRICS_REPLY_RID);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, text);
        }
        Message::SubmitDag {
            request_id,
            ctx,
            spec,
        } => {
            buf.put_u8(MSG_SUBMIT_DAG);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(ctx.trace_id);
            buf.put_u64_le(ctx.parent_span);
            put_workflow_spec(&mut buf, spec);
        }
        Message::DagReply { request_id, result } => {
            buf.put_u8(MSG_DAG_REPLY);
            buf.put_u64_le(*request_id);
            match result {
                Ok(dag_id) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*dag_id);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::DagStatus {
            request_id,
            dag_id,
            since,
        } => {
            buf.put_u8(MSG_DAG_STATUS);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(*dag_id);
            buf.put_u64_le(*since);
        }
        Message::DagEvent {
            request_id,
            dag_id,
            events,
            outcome,
        } => {
            buf.put_u8(MSG_DAG_EVENT);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(*dag_id);
            buf.put_u32_le(events.len() as u32);
            for e in events {
                put_dag_event(&mut buf, e);
            }
            match outcome {
                Some(o) => {
                    buf.put_u8(1);
                    put_dag_outcome(&mut buf, o);
                }
                None => buf.put_u8(0),
            }
        }
        Message::SubmitTasks {
            request_id,
            campaign,
            tasks,
        } => {
            buf.put_u8(MSG_SUBMIT_TASKS);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, campaign);
            buf.put_u32_le(tasks.len() as u32);
            for t in tasks {
                encode_task_payload(&mut buf, t);
            }
        }
        Message::SubmitTasksReply { request_id, result } => {
            buf.put_u8(MSG_SUBMIT_TASKS_REPLY);
            buf.put_u64_le(*request_id);
            match result {
                Ok((cid, ids)) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*cid);
                    buf.put_u32_le(ids.len() as u32);
                    for id in ids {
                        buf.put_u64_le(*id);
                    }
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::TaskStatus {
            request_id,
            campaign_id,
            task_id,
        } => {
            buf.put_u8(MSG_TASK_STATUS);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(*campaign_id);
            buf.put_u64_le(*task_id);
        }
        Message::TaskStatusReply { request_id, result } => {
            buf.put_u8(MSG_TASK_STATUS_REPLY);
            buf.put_u64_le(*request_id);
            match result {
                Ok(rec) => {
                    buf.put_u8(1);
                    buf.put_u64_le(rec.task_id);
                    buf.put_u8(rec.state as u8);
                    buf.put_u32_le(rec.attempts);
                    put_str(&mut buf, &rec.sed);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::AttachCampaign {
            request_id,
            campaign,
        } => {
            buf.put_u8(MSG_ATTACH_CAMPAIGN);
            buf.put_u64_le(*request_id);
            put_str(&mut buf, campaign);
        }
        Message::AttachReply { request_id, result } => {
            buf.put_u8(MSG_ATTACH_REPLY);
            buf.put_u64_le(*request_id);
            match result {
                Ok(s) => {
                    buf.put_u8(1);
                    put_campaign_summary(&mut buf, s);
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
        Message::CampaignProgress {
            request_id,
            campaign_id,
            cursor,
        } => {
            buf.put_u8(MSG_CAMPAIGN_PROGRESS);
            buf.put_u64_le(*request_id);
            buf.put_u64_le(*campaign_id);
            buf.put_u64_le(*cursor);
        }
        Message::ProgressReply { request_id, result } => {
            buf.put_u8(MSG_PROGRESS_REPLY);
            buf.put_u64_le(*request_id);
            match result {
                Ok((summary, events)) => {
                    buf.put_u8(1);
                    put_campaign_summary(&mut buf, summary);
                    buf.put_u32_le(events.len() as u32);
                    for e in events {
                        put_task_event(&mut buf, e);
                    }
                }
                Err(e) => {
                    buf.put_u8(0);
                    put_str(&mut buf, e);
                }
            }
        }
    }
    buf.freeze()
}

/// Encode a jobserver task payload (also the WAL's on-disk encoding for
/// task bodies): a kind byte then a profile or a workflow spec.
pub fn encode_task_payload(buf: &mut BytesMut, p: &TaskPayload) {
    match p {
        TaskPayload::Call(profile) => {
            buf.put_u8(0);
            encode_profile(buf, profile);
        }
        TaskPayload::Dag(spec) => {
            buf.put_u8(1);
            put_workflow_spec(buf, spec);
        }
    }
}

/// Decode a jobserver task payload.
pub fn decode_task_payload(buf: &mut Bytes) -> Result<TaskPayload, DietError> {
    if buf.remaining() < 1 {
        return Err(DietError::Codec("truncated task payload kind".into()));
    }
    match buf.get_u8() {
        0 => Ok(TaskPayload::Call(decode_profile(buf)?)),
        1 => Ok(TaskPayload::Dag(get_workflow_spec(buf)?)),
        k => Err(DietError::Codec(format!("unknown task payload kind {k}"))),
    }
}

fn put_campaign_summary(buf: &mut BytesMut, s: &CampaignSummary) {
    buf.put_u64_le(s.campaign_id);
    put_str(buf, &s.name);
    buf.put_u64_le(s.total);
    buf.put_u64_le(s.done);
    buf.put_u64_le(s.failed);
    buf.put_u64_le(s.resubmissions);
    buf.put_u8(s.finished as u8);
}

fn get_campaign_summary(buf: &mut Bytes) -> Result<CampaignSummary, DietError> {
    if buf.remaining() < 8 {
        return Err(DietError::Codec("truncated campaign summary".into()));
    }
    let campaign_id = buf.get_u64_le();
    let name = get_str(buf)?;
    if buf.remaining() < 33 {
        return Err(DietError::Codec("truncated campaign summary tail".into()));
    }
    Ok(CampaignSummary {
        campaign_id,
        name,
        total: buf.get_u64_le(),
        done: buf.get_u64_le(),
        failed: buf.get_u64_le(),
        resubmissions: buf.get_u64_le(),
        finished: buf.get_u8() == 1,
    })
}

fn put_task_event(buf: &mut BytesMut, e: &TaskEventRec) {
    buf.put_u64_le(e.seq);
    buf.put_u64_le(e.task_id);
    buf.put_u8(e.state as u8);
    buf.put_u32_le(e.attempt);
    put_str(buf, &e.sed);
    buf.put_u64_le(e.ms);
}

fn get_task_event(buf: &mut Bytes) -> Result<TaskEventRec, DietError> {
    if buf.remaining() < 21 {
        return Err(DietError::Codec("truncated task event".into()));
    }
    let seq = buf.get_u64_le();
    let task_id = buf.get_u64_le();
    let state = TaskState::from_u8(buf.get_u8())
        .ok_or_else(|| DietError::Codec("bad task state".into()))?;
    let attempt = buf.get_u32_le();
    let sed = get_str(buf)?;
    if buf.remaining() < 8 {
        return Err(DietError::Codec("truncated task event tail".into()));
    }
    Ok(TaskEventRec {
        seq,
        task_id,
        state,
        attempt,
        sed,
        ms: buf.get_u64_le(),
    })
}

fn put_workflow_spec(buf: &mut BytesMut, spec: &WorkflowSpec) {
    put_str(buf, &spec.name);
    buf.put_u32_le(spec.nodes.len() as u32);
    for n in &spec.nodes {
        buf.put_u32_le(n.id);
        encode_profile(buf, &n.profile);
        buf.put_u32_le(n.deps.len() as u32);
        for d in &n.deps {
            buf.put_u32_le(*d);
        }
        buf.put_u32_le(n.inputs.len() as u32);
        for i in &n.inputs {
            buf.put_u32_le(i.arg);
            buf.put_u32_le(i.from_node);
            buf.put_u32_le(i.from_arg);
        }
        match &n.expander {
            Some(name) => {
                buf.put_u8(1);
                put_str(buf, name);
            }
            None => buf.put_u8(0),
        }
        buf.put_u32_le(n.params.len() as u32);
        for (k, v) in &n.params {
            put_str(buf, k);
            put_str(buf, v);
        }
        buf.put_u32_le(n.max_retries);
    }
}

fn get_workflow_spec(buf: &mut Bytes) -> Result<WorkflowSpec, DietError> {
    let need_u32 = |buf: &mut Bytes, what: &str| -> Result<u32, DietError> {
        if buf.remaining() < 4 {
            Err(DietError::Codec(format!("truncated {what}")))
        } else {
            Ok(buf.get_u32_le())
        }
    };
    let name = get_str(buf)?;
    let n_nodes = need_u32(buf, "workflow node count")? as usize;
    let mut nodes = Vec::with_capacity(n_nodes.min(1024));
    for _ in 0..n_nodes {
        let id = need_u32(buf, "dag node id")?;
        let profile = decode_profile(buf)?;
        let n_deps = need_u32(buf, "dag dep count")? as usize;
        let mut deps = Vec::with_capacity(n_deps.min(1024));
        for _ in 0..n_deps {
            deps.push(need_u32(buf, "dag dep")?);
        }
        let n_inputs = need_u32(buf, "dag input count")? as usize;
        let mut inputs = Vec::with_capacity(n_inputs.min(1024));
        for _ in 0..n_inputs {
            inputs.push(DagInput {
                arg: need_u32(buf, "dag input arg")?,
                from_node: need_u32(buf, "dag input node")?,
                from_arg: need_u32(buf, "dag input from-arg")?,
            });
        }
        if buf.remaining() < 1 {
            return Err(DietError::Codec("truncated expander flag".into()));
        }
        let expander = if buf.get_u8() == 1 {
            Some(get_str(buf)?)
        } else {
            None
        };
        let n_params = need_u32(buf, "dag param count")? as usize;
        let mut params = Vec::with_capacity(n_params.min(1024));
        for _ in 0..n_params {
            let k = get_str(buf)?;
            let v = get_str(buf)?;
            params.push((k, v));
        }
        let max_retries = need_u32(buf, "dag retry budget")?;
        nodes.push(DagNodeSpec {
            id,
            profile,
            deps,
            inputs,
            expander,
            params,
            max_retries,
        });
    }
    Ok(WorkflowSpec { name, nodes })
}

fn put_dag_event(buf: &mut BytesMut, e: &DagEventRec) {
    buf.put_u64_le(e.seq);
    buf.put_u32_le(e.node);
    buf.put_u8(e.state as u8);
    put_str(buf, &e.detail);
    buf.put_u64_le(e.at_ms);
}

fn get_dag_event(buf: &mut Bytes) -> Result<DagEventRec, DietError> {
    if buf.remaining() < 13 {
        return Err(DietError::Codec("truncated dag event".into()));
    }
    let seq = buf.get_u64_le();
    let node = buf.get_u32_le();
    let state = DagNodeState::from_u8(buf.get_u8())
        .ok_or_else(|| DietError::Codec("bad dag node state".into()))?;
    let detail = get_str(buf)?;
    if buf.remaining() < 8 {
        return Err(DietError::Codec("truncated dag event timestamp".into()));
    }
    Ok(DagEventRec {
        seq,
        node,
        state,
        detail,
        at_ms: buf.get_u64_le(),
    })
}

fn put_dag_outcome(buf: &mut BytesMut, o: &DagOutcome) {
    buf.put_u64_le(o.dag_id);
    buf.put_u8(o.ok as u8);
    buf.put_u64_le(o.makespan_ms);
    buf.put_u32_le(o.cancelled);
    buf.put_u32_le(o.nodes.len() as u32);
    for n in &o.nodes {
        buf.put_u32_le(n.node);
        put_str(buf, &n.service);
        put_str(buf, &n.sed);
        buf.put_i32_le(n.status);
        buf.put_u32_le(n.attempts);
        buf.put_u8(n.speculated as u8);
        buf.put_u64_le(n.duration_ms);
        buf.put_u32_le(n.outputs.len() as u32);
        for (arg, id) in &n.outputs {
            buf.put_u32_le(*arg);
            put_str(buf, id);
        }
        buf.put_u32_le(n.scalars.len() as u32);
        for (arg, v) in &n.scalars {
            buf.put_u32_le(*arg);
            buf.put_i64_le(*v);
        }
    }
}

fn get_dag_outcome(buf: &mut Bytes) -> Result<DagOutcome, DietError> {
    if buf.remaining() < 25 {
        return Err(DietError::Codec("truncated dag outcome".into()));
    }
    let dag_id = buf.get_u64_le();
    let ok = buf.get_u8() == 1;
    let makespan_ms = buf.get_u64_le();
    let cancelled = buf.get_u32_le();
    let n_nodes = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(n_nodes.min(1024));
    for _ in 0..n_nodes {
        if buf.remaining() < 4 {
            return Err(DietError::Codec("truncated node outcome".into()));
        }
        let node = buf.get_u32_le();
        let service = get_str(buf)?;
        let sed = get_str(buf)?;
        if buf.remaining() < 17 {
            return Err(DietError::Codec("truncated node outcome tail".into()));
        }
        let status = buf.get_i32_le();
        let attempts = buf.get_u32_le();
        let speculated = buf.get_u8() == 1;
        let duration_ms = buf.get_u64_le();
        if buf.remaining() < 4 {
            return Err(DietError::Codec("truncated output count".into()));
        }
        let n_out = buf.get_u32_le() as usize;
        let mut outputs = Vec::with_capacity(n_out.min(1024));
        for _ in 0..n_out {
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated output arg".into()));
            }
            let arg = buf.get_u32_le();
            outputs.push((arg, get_str(buf)?));
        }
        if buf.remaining() < 4 {
            return Err(DietError::Codec("truncated scalar count".into()));
        }
        let n_scalar = buf.get_u32_le() as usize;
        let mut scalars = Vec::with_capacity(n_scalar.min(1024));
        for _ in 0..n_scalar {
            if buf.remaining() < 12 {
                return Err(DietError::Codec("truncated scalar".into()));
            }
            let arg = buf.get_u32_le();
            scalars.push((arg, buf.get_i64_le()));
        }
        nodes.push(DagNodeOutcome {
            node,
            service,
            sed,
            status,
            attempts,
            speculated,
            duration_ms,
            outputs,
            scalars,
        });
    }
    Ok(DagOutcome {
        dag_id,
        ok,
        makespan_ms,
        cancelled,
        nodes,
    })
}

/// Cheap correlation-id peek on an undecoded frame: correlated messages
/// carry their request id LE at bytes `[1..9]` right after the tag byte.
/// The only remaining uncorrelated frames (Ping/Pong, Shutdown, and the
/// legacy dedicated-connection DumpMetrics/MetricsReply pair — use
/// [`Message::DumpMetricsRid`] on a mux) and frames too short to carry an
/// id return 0 — which is never a live request id.
pub fn peek_request_id(frame: &[u8]) -> u64 {
    if frame.len() < 9 {
        return 0;
    }
    match frame[0] {
        MSG_SUBMIT
        | MSG_SUBMIT_REPLY
        | MSG_CALL
        | MSG_CALL_REPLY
        | MSG_GET_DATA
        | MSG_DATA_REPLY
        | MSG_PUT_DATA
        | MSG_BUSY
        | MSG_FORWARD
        | MSG_ESTIMATE_BATCH
        | MSG_PUSH_SPANS
        | MSG_PUSH_METRIC_DELTAS
        | MSG_PUSH_ACK
        | MSG_DUMP_METRICS_RID
        | MSG_METRICS_REPLY_RID
        | MSG_SUBMIT_DAG
        | MSG_DAG_REPLY
        | MSG_DAG_STATUS
        | MSG_DAG_EVENT
        | MSG_SUBMIT_TASKS
        | MSG_SUBMIT_TASKS_REPLY
        | MSG_TASK_STATUS
        | MSG_TASK_STATUS_REPLY
        | MSG_ATTACH_CAMPAIGN
        | MSG_ATTACH_REPLY
        | MSG_CAMPAIGN_PROGRESS
        | MSG_PROGRESS_REPLY => u64::from_le_bytes(frame[1..9].try_into().unwrap()),
        _ => 0,
    }
}

/// Decode a message.
pub fn decode_message(mut buf: Bytes) -> Result<Message, DietError> {
    if buf.remaining() < 1 {
        return Err(DietError::Codec("empty message".into()));
    }
    let tag = buf.get_u8();
    let need_u64 = |buf: &mut Bytes| -> Result<u64, DietError> {
        if buf.remaining() < 8 {
            Err(DietError::Codec("truncated request id".into()))
        } else {
            Ok(buf.get_u64_le())
        }
    };
    match tag {
        MSG_SUBMIT => {
            let request_id = need_u64(&mut buf)?;
            let ctx = TraceCtx {
                trace_id: need_u64(&mut buf)?,
                parent_span: need_u64(&mut buf)?,
            };
            Ok(Message::Submit {
                request_id,
                ctx,
                service: get_str(&mut buf)?,
                exclude: get_str_list(&mut buf)?,
            })
        }
        MSG_FORWARD => {
            let request_id = need_u64(&mut buf)?;
            let ctx = TraceCtx {
                trace_id: need_u64(&mut buf)?,
                parent_span: need_u64(&mut buf)?,
            };
            let service = get_str(&mut buf)?;
            let exclude = get_str_list(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated forward ttl".into()));
            }
            Ok(Message::Forward {
                request_id,
                ctx,
                service,
                exclude,
                ttl: buf.get_u8(),
            })
        }
        MSG_ESTIMATE_BATCH => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated estimate count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let estimates = (0..n)
                .map(|_| get_estimate(&mut buf))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Message::EstimateBatch {
                request_id,
                estimates,
            })
        }
        MSG_SUBMIT_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated reply flag".into()));
            }
            let server = if buf.get_u8() == 1 {
                Some(get_str(&mut buf)?)
            } else {
                None
            };
            Ok(Message::SubmitReply { request_id, server })
        }
        MSG_CALL => {
            let request_id = need_u64(&mut buf)?;
            let ctx = TraceCtx {
                trace_id: need_u64(&mut buf)?,
                parent_span: need_u64(&mut buf)?,
            };
            Ok(Message::Call {
                request_id,
                ctx,
                profile: decode_profile(&mut buf)?,
            })
        }
        MSG_CALL_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 16 {
                return Err(DietError::Codec("truncated reply timings".into()));
            }
            let queue_wait = buf.get_f64_le();
            let solve = buf.get_f64_le();
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated result flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                Ok(decode_profile(&mut buf)?)
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::CallReply {
                request_id,
                queue_wait,
                solve,
                result,
            })
        }
        MSG_PING => Ok(Message::Ping),
        MSG_PONG => Ok(Message::Pong),
        MSG_SHUTDOWN => Ok(Message::Shutdown),
        MSG_DUMP_METRICS => Ok(Message::DumpMetrics),
        MSG_METRICS_REPLY => Ok(Message::MetricsReply {
            text: get_str(&mut buf)?,
        }),
        MSG_GET_DATA => {
            let request_id = need_u64(&mut buf)?;
            Ok(Message::GetData {
                request_id,
                id: get_str(&mut buf)?,
            })
        }
        MSG_DATA_REPLY => {
            let request_id = need_u64(&mut buf)?;
            let id = get_str(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated data reply flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                let mode = get_persistence(&mut buf)?;
                Ok((get_value(&mut buf)?, mode))
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::DataReply {
                request_id,
                id,
                result,
            })
        }
        MSG_PUT_DATA => {
            let request_id = need_u64(&mut buf)?;
            let id = get_str(&mut buf)?;
            let mode = get_persistence(&mut buf)?;
            Ok(Message::PutData {
                request_id,
                id,
                mode,
                value: get_value(&mut buf)?,
            })
        }
        MSG_BUSY => Ok(Message::Busy {
            request_id: need_u64(&mut buf)?,
        }),
        MSG_PUSH_SPANS => {
            let request_id = need_u64(&mut buf)?;
            let source = get_source(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated span count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let spans = (0..n)
                .map(|_| get_span(&mut buf))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Message::PushSpans {
                request_id,
                source,
                spans,
            })
        }
        MSG_PUSH_METRIC_DELTAS => {
            let request_id = need_u64(&mut buf)?;
            let source = get_source(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated delta count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let deltas = (0..n)
                .map(|_| {
                    let name = get_str(&mut buf)?;
                    let labels = get_labels(&mut buf)?;
                    let snap = get_snapshot(&mut buf)?;
                    Ok((name, labels, snap))
                })
                .collect::<Result<Vec<_>, DietError>>()?;
            Ok(Message::PushMetricDeltas {
                request_id,
                source,
                deltas,
            })
        }
        MSG_PUSH_ACK => Ok(Message::PushAck {
            request_id: need_u64(&mut buf)?,
        }),
        MSG_DUMP_METRICS_RID => {
            let request_id = need_u64(&mut buf)?;
            Ok(Message::DumpMetricsRid {
                request_id,
                what: get_str(&mut buf)?,
            })
        }
        MSG_METRICS_REPLY_RID => {
            let request_id = need_u64(&mut buf)?;
            Ok(Message::MetricsReplyRid {
                request_id,
                text: get_str(&mut buf)?,
            })
        }
        MSG_SUBMIT_DAG => {
            let request_id = need_u64(&mut buf)?;
            let ctx = TraceCtx {
                trace_id: need_u64(&mut buf)?,
                parent_span: need_u64(&mut buf)?,
            };
            Ok(Message::SubmitDag {
                request_id,
                ctx,
                spec: get_workflow_spec(&mut buf)?,
            })
        }
        MSG_DAG_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated dag reply flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                Ok(need_u64(&mut buf)?)
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::DagReply { request_id, result })
        }
        MSG_DAG_STATUS => Ok(Message::DagStatus {
            request_id: need_u64(&mut buf)?,
            dag_id: need_u64(&mut buf)?,
            since: need_u64(&mut buf)?,
        }),
        MSG_DAG_EVENT => {
            let request_id = need_u64(&mut buf)?;
            let dag_id = need_u64(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated dag event count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let events = (0..n)
                .map(|_| get_dag_event(&mut buf))
                .collect::<Result<Vec<_>, _>>()?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated dag outcome flag".into()));
            }
            let outcome = if buf.get_u8() == 1 {
                Some(get_dag_outcome(&mut buf)?)
            } else {
                None
            };
            Ok(Message::DagEvent {
                request_id,
                dag_id,
                events,
                outcome,
            })
        }
        MSG_SUBMIT_TASKS => {
            let request_id = need_u64(&mut buf)?;
            let campaign = get_str(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(DietError::Codec("truncated task count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let tasks = (0..n)
                .map(|_| decode_task_payload(&mut buf))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Message::SubmitTasks {
                request_id,
                campaign,
                tasks,
            })
        }
        MSG_SUBMIT_TASKS_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated submit-tasks flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                let cid = need_u64(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(DietError::Codec("truncated task id count".into()));
                }
                let n = buf.get_u32_le() as usize;
                let mut ids = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    ids.push(need_u64(&mut buf)?);
                }
                Ok((cid, ids))
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::SubmitTasksReply { request_id, result })
        }
        MSG_TASK_STATUS => Ok(Message::TaskStatus {
            request_id: need_u64(&mut buf)?,
            campaign_id: need_u64(&mut buf)?,
            task_id: need_u64(&mut buf)?,
        }),
        MSG_TASK_STATUS_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated task-status flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                let task_id = need_u64(&mut buf)?;
                if buf.remaining() < 5 {
                    return Err(DietError::Codec("truncated task status".into()));
                }
                let state = TaskState::from_u8(buf.get_u8())
                    .ok_or_else(|| DietError::Codec("bad task state".into()))?;
                let attempts = buf.get_u32_le();
                Ok(TaskStatusRec {
                    task_id,
                    state,
                    attempts,
                    sed: get_str(&mut buf)?,
                })
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::TaskStatusReply { request_id, result })
        }
        MSG_ATTACH_CAMPAIGN => {
            let request_id = need_u64(&mut buf)?;
            Ok(Message::AttachCampaign {
                request_id,
                campaign: get_str(&mut buf)?,
            })
        }
        MSG_ATTACH_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated attach flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                Ok(get_campaign_summary(&mut buf)?)
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::AttachReply { request_id, result })
        }
        MSG_CAMPAIGN_PROGRESS => Ok(Message::CampaignProgress {
            request_id: need_u64(&mut buf)?,
            campaign_id: need_u64(&mut buf)?,
            cursor: need_u64(&mut buf)?,
        }),
        MSG_PROGRESS_REPLY => {
            let request_id = need_u64(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DietError::Codec("truncated progress flag".into()));
            }
            let result = if buf.get_u8() == 1 {
                let summary = get_campaign_summary(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(DietError::Codec("truncated event count".into()));
                }
                let n = buf.get_u32_le() as usize;
                let events = (0..n)
                    .map(|_| get_task_event(&mut buf))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((summary, events))
            } else {
                Err(get_str(&mut buf)?)
            };
            Ok(Message::ProgressReply { request_id, result })
        }
        t => Err(DietError::Codec(format!("unknown message tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ramses_zoom2_desc, Profile};

    fn sample_profile() -> Profile {
        let d = ramses_zoom2_desc();
        let mut p = Profile::alloc(&d);
        p.set(
            0,
            DietValue::File {
                name: "n.nml".into(),
                data: Bytes::from_static(b"&RUN/"),
            },
            Persistence::Volatile,
        )
        .unwrap();
        p.set(1, DietValue::ScalarI32(128), Persistence::Persistent)
            .unwrap();
        p.set(2, DietValue::ScalarF64(100.0), Persistence::Sticky)
            .unwrap();
        p.set(3, DietValue::Str("cx".into()), Persistence::Volatile)
            .unwrap();
        p.set(4, DietValue::vec_f64(vec![1.0, 2.5]), Persistence::Volatile)
            .unwrap();
        p.set(5, DietValue::vec_i32(vec![-3, 7]), Persistence::Volatile)
            .unwrap();
        p.set(6, DietValue::ScalarChar(b'z'), Persistence::Volatile)
            .unwrap();
        p
    }

    #[test]
    fn profile_roundtrip() {
        let p = sample_profile();
        let mut buf = BytesMut::new();
        encode_profile(&mut buf, &p);
        let back = decode_profile(&mut buf.freeze()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn jobserver_frame_roundtrips() {
        let summary = CampaignSummary {
            campaign_id: 7,
            name: "zoom-sweep".into(),
            total: 100,
            done: 42,
            failed: 1,
            resubmissions: 5,
            finished: false,
        };
        let event = TaskEventRec {
            seq: 9,
            task_id: 3,
            state: TaskState::Done,
            attempt: 2,
            sed: "lyon/0".into(),
            ms: 123,
        };
        let spec = WorkflowSpec {
            name: "w".into(),
            nodes: vec![],
        };
        let msgs = vec![
            Message::SubmitTasks {
                request_id: 1,
                campaign: "camp".into(),
                tasks: vec![TaskPayload::Call(sample_profile()), TaskPayload::Dag(spec)],
            },
            Message::SubmitTasksReply {
                request_id: 2,
                result: Ok((7, vec![0, 1, 2])),
            },
            Message::SubmitTasksReply {
                request_id: 3,
                result: Err("nope".into()),
            },
            Message::TaskStatus {
                request_id: 4,
                campaign_id: 7,
                task_id: 3,
            },
            Message::TaskStatusReply {
                request_id: 5,
                result: Ok(TaskStatusRec {
                    task_id: 3,
                    state: TaskState::Dispatched,
                    attempts: 2,
                    sed: "lyon/1".into(),
                }),
            },
            Message::TaskStatusReply {
                request_id: 6,
                result: Err("unknown task".into()),
            },
            Message::AttachCampaign {
                request_id: 7,
                campaign: "camp".into(),
            },
            Message::AttachReply {
                request_id: 8,
                result: Ok(summary.clone()),
            },
            Message::AttachReply {
                request_id: 9,
                result: Err("unknown campaign".into()),
            },
            Message::CampaignProgress {
                request_id: 10,
                campaign_id: 7,
                cursor: 41,
            },
            Message::ProgressReply {
                request_id: 11,
                result: Ok((summary, vec![event])),
            },
            Message::ProgressReply {
                request_id: 12,
                result: Err("unknown campaign".into()),
            },
        ];
        for m in msgs {
            let enc = encode_message(&m);
            // Every jobserver frame is correlated: the id peeks out.
            assert_ne!(peek_request_id(&enc), 0, "{m:?}");
            let back = decode_message(enc).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn message_roundtrips() {
        let msgs = vec![
            Message::Submit {
                service: "ramsesZoom2".into(),
                request_id: 42,
                ctx: TraceCtx::default(),
                exclude: vec![],
            },
            Message::Submit {
                service: "ramsesZoom2".into(),
                request_id: 43,
                ctx: TraceCtx {
                    trace_id: 9,
                    parent_span: 4,
                },
                exclude: vec!["lyon/0".into(), "orsay-gdx/3".into()],
            },
            Message::Forward {
                request_id: 50,
                ctx: TraceCtx {
                    trace_id: 9,
                    parent_span: 4,
                },
                service: "ramsesZoom2".into(),
                exclude: vec!["lyon/0".into()],
                ttl: 1,
            },
            Message::Forward {
                request_id: 51,
                ctx: TraceCtx::default(),
                service: "echo".into(),
                exclude: vec![],
                ttl: 0,
            },
            Message::EstimateBatch {
                request_id: 50,
                estimates: vec![],
            },
            Message::EstimateBatch {
                request_id: 50,
                estimates: vec![
                    Estimate {
                        server: "toulouse-violette/0".into(),
                        speed_factor: 1.25,
                        free_memory: 1 << 34,
                        queue_length: 3,
                        completed: 812,
                        known_mean_duration: Some(417.5),
                        probe_rtt: 0.031,
                        data_local_bytes: 100 << 20,
                        data_miss_bytes: 0,
                        admission_limit: Some(16),
                    },
                    Estimate {
                        server: "lyon/1".into(),
                        speed_factor: 0.8,
                        ..Estimate::default()
                    },
                ],
            },
            Message::SubmitReply {
                request_id: 42,
                server: Some("toulouse-violette/0".into()),
            },
            Message::SubmitReply {
                request_id: 43,
                server: None,
            },
            Message::Call {
                request_id: 42,
                ctx: TraceCtx {
                    trace_id: 7,
                    parent_span: 99,
                },
                profile: sample_profile(),
            },
            Message::Call {
                request_id: 44,
                ctx: TraceCtx::default(),
                profile: sample_profile(),
            },
            Message::CallReply {
                request_id: 42,
                queue_wait: 0.125,
                solve: 2.5,
                result: Ok(sample_profile()),
            },
            Message::CallReply {
                request_id: 42,
                queue_wait: 0.0,
                solve: 0.0,
                result: Err("solve failed".into()),
            },
            Message::Ping,
            Message::Pong,
            Message::Shutdown,
            Message::DumpMetrics,
            Message::MetricsReply {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Message::GetData {
                request_id: 77,
                id: "ramsesZoom2#0".into(),
            },
            Message::DataReply {
                request_id: 77,
                id: "ramsesZoom2#0".into(),
                result: Ok((
                    DietValue::File {
                        name: "ic.dat".into(),
                        data: Bytes::from_static(b"\x00\x01\x02"),
                    },
                    Persistence::Persistent,
                )),
            },
            Message::DataReply {
                request_id: 78,
                id: "missing".into(),
                result: Err("persistent data not found: missing".into()),
            },
            Message::PutData {
                request_id: 79,
                id: "blob".into(),
                mode: Persistence::Sticky,
                value: DietValue::vec_f64(vec![0.5, -1.5]),
            },
            Message::Busy { request_id: 0 },
            Message::Busy { request_id: 81 },
            Message::PushSpans {
                request_id: 90,
                source: ProcessSource {
                    role: "sed".into(),
                    label: "lyon/0".into(),
                    pid: 4242,
                    site: "lyon".into(),
                },
                spans: vec![
                    SpanRecord {
                        trace_id: 7,
                        span_id: 2,
                        parent: 1,
                        name: "Execution",
                        resource: "lyon/0".into(),
                        start_ns: 1_000,
                        end_ns: 5_000,
                    },
                    SpanRecord {
                        trace_id: 7,
                        span_id: 3,
                        parent: 2,
                        name: "ResultReturn",
                        resource: "lyon/0".into(),
                        start_ns: 5_000,
                        end_ns: 5_500,
                    },
                ],
            },
            Message::PushSpans {
                request_id: 91,
                source: ProcessSource::default(),
                spans: vec![],
            },
            Message::PushMetricDeltas {
                request_id: 92,
                source: ProcessSource {
                    role: "client".into(),
                    label: "client".into(),
                    pid: 1,
                    site: String::new(),
                },
                deltas: vec![
                    (
                        "diet_client_requests_total".into(),
                        vec![],
                        MetricSnapshot::Counter(3),
                    ),
                    (
                        "diet_sed_queue_length".into(),
                        vec![("sed".into(), "lyon/0".into())],
                        MetricSnapshot::Gauge(2.0),
                    ),
                    (
                        "diet_client_finding_seconds".into(),
                        vec![],
                        MetricSnapshot::Histogram {
                            bounds: vec![0.1, 1.0],
                            counts: vec![1, 0, 2],
                            sum: 4.25,
                            count: 3,
                        },
                    ),
                ],
            },
            Message::PushAck { request_id: 90 },
            Message::DumpMetricsRid {
                request_id: 93,
                what: "topology".into(),
            },
            Message::DumpMetricsRid {
                request_id: 94,
                what: String::new(),
            },
            Message::MetricsReplyRid {
                request_id: 93,
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Message::SubmitDag {
                request_id: 95,
                ctx: TraceCtx {
                    trace_id: 11,
                    parent_span: 12,
                },
                spec: sample_workflow(),
            },
            Message::DagReply {
                request_id: 95,
                result: Ok(3),
            },
            Message::DagReply {
                request_id: 96,
                result: Err("cycle through nodes [0, 1]".into()),
            },
            Message::DagStatus {
                request_id: 97,
                dag_id: 3,
                since: 17,
            },
            Message::DagEvent {
                request_id: 97,
                dag_id: 3,
                events: vec![DagEventRec {
                    seq: 18,
                    node: 1,
                    state: DagNodeState::Running,
                    detail: "lyon/0".into(),
                    at_ms: 250,
                }],
                outcome: Some(DagOutcome {
                    dag_id: 3,
                    ok: true,
                    makespan_ms: 900,
                    cancelled: 0,
                    nodes: vec![DagNodeOutcome {
                        node: 1,
                        service: "ramsesZoom1".into(),
                        sed: "lyon/0".into(),
                        status: 0,
                        attempts: 2,
                        speculated: true,
                        duration_ms: 640,
                        outputs: vec![(2, "ramsesZoom1@d3.n1#2".into())],
                        scalars: vec![(3, 0)],
                    }],
                }),
            },
            Message::DagEvent {
                request_id: 98,
                dag_id: 4,
                events: vec![],
                outcome: None,
            },
        ];
        for m in msgs {
            let enc = encode_message(&m);
            let dec = decode_message(enc).unwrap();
            assert_eq!(dec, m);
        }
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let enc = encode_message(&Message::Call {
            request_id: 7,
            ctx: TraceCtx {
                trace_id: 3,
                parent_span: 5,
            },
            profile: sample_profile(),
        });
        for cut in [0, 1, 5, 9, 13, 21, enc.len() / 2, enc.len() - 1] {
            let sliced = enc.slice(0..cut);
            assert!(
                decode_message(sliced).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let raw = Bytes::from_static(&[99u8, 0, 0, 0]);
        assert!(matches!(decode_message(raw), Err(DietError::Codec(_))));
    }

    #[test]
    fn trace_context_survives_the_frame() {
        // The 16-byte trace header sits right after the request id, so a
        // relay that only reads the id still forwards the context intact.
        let ctx = TraceCtx {
            trace_id: 0xDEAD_BEEF_0B50_u64,
            parent_span: 12_345,
        };
        let enc = encode_message(&Message::Call {
            request_id: 1,
            ctx,
            profile: sample_profile(),
        });
        match decode_message(enc).unwrap() {
            Message::Call { ctx: back, .. } => assert_eq!(back, ctx),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn data_ref_value_roundtrip() {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &DietValue::data_ref("zoom/ic#0"));
        let v = get_value(&mut buf.freeze()).unwrap();
        assert_eq!(v.as_data_ref(), Some("zoom/ic#0"));
    }

    #[test]
    fn data_frames_detect_truncation() {
        let enc = encode_message(&Message::DataReply {
            request_id: 5,
            id: "ic".into(),
            result: Ok((DietValue::vec_i32(vec![1, 2, 3]), Persistence::Persistent)),
        });
        for cut in 0..enc.len() {
            assert!(
                decode_message(enc.slice(0..cut)).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn hierarchy_frames_detect_truncation() {
        // Forward and EstimateBatch travel agent-to-agent; cut them at
        // every byte boundary and none may decode (or panic).
        let frames = [
            encode_message(&Message::Forward {
                request_id: 5,
                ctx: TraceCtx {
                    trace_id: 2,
                    parent_span: 3,
                },
                service: "ramsesZoom2".into(),
                exclude: vec!["lyon/0".into()],
                ttl: 1,
            }),
            encode_message(&Message::EstimateBatch {
                request_id: 5,
                estimates: vec![Estimate {
                    server: "sophia/2".into(),
                    speed_factor: 1.0,
                    known_mean_duration: Some(12.5),
                    admission_limit: Some(4),
                    ..Estimate::default()
                }],
            }),
        ];
        for enc in frames {
            for cut in 0..enc.len() {
                assert!(
                    decode_message(enc.slice(0..cut)).is_err(),
                    "cut at {cut} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn telemetry_frames_detect_truncation() {
        // Push batches and the correlated dump pair travel on shared mux
        // connections; cut them at every byte and none may decode or panic.
        let src = ProcessSource {
            role: "sed".into(),
            label: "lyon/0".into(),
            pid: 7,
            site: "lyon".into(),
        };
        let frames = [
            encode_message(&Message::PushSpans {
                request_id: 5,
                source: src.clone(),
                spans: vec![SpanRecord {
                    trace_id: 1,
                    span_id: 2,
                    parent: 0,
                    name: "Queued",
                    resource: "lyon/0".into(),
                    start_ns: 10,
                    end_ns: 20,
                }],
            }),
            encode_message(&Message::PushMetricDeltas {
                request_id: 6,
                source: src,
                deltas: vec![
                    (
                        "c".into(),
                        vec![("k".into(), "v".into())],
                        MetricSnapshot::Counter(1),
                    ),
                    (
                        "h".into(),
                        vec![],
                        MetricSnapshot::Histogram {
                            bounds: vec![1.0],
                            counts: vec![0, 1],
                            sum: 2.0,
                            count: 1,
                        },
                    ),
                ],
            }),
            encode_message(&Message::DumpMetricsRid {
                request_id: 7,
                what: "chrome".into(),
            }),
            encode_message(&Message::MetricsReplyRid {
                request_id: 7,
                text: "x 1\n".into(),
            }),
        ];
        for enc in frames {
            for cut in 0..enc.len() {
                assert!(
                    decode_message(enc.slice(0..cut)).is_err(),
                    "cut at {cut} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn telemetry_frames_are_correlated() {
        // Every new telemetry frame must expose its id to peek_request_id
        // so the reactor's Busy-on-overflow path and the client mux demux
        // can route it without decoding.
        let frames = [
            (
                encode_message(&Message::PushSpans {
                    request_id: 41,
                    source: ProcessSource::default(),
                    spans: vec![],
                }),
                41,
            ),
            (
                encode_message(&Message::PushMetricDeltas {
                    request_id: 42,
                    source: ProcessSource::default(),
                    deltas: vec![],
                }),
                42,
            ),
            (encode_message(&Message::PushAck { request_id: 43 }), 43),
            (
                encode_message(&Message::DumpMetricsRid {
                    request_id: 44,
                    what: String::new(),
                }),
                44,
            ),
            (
                encode_message(&Message::MetricsReplyRid {
                    request_id: 45,
                    text: String::new(),
                }),
                45,
            ),
        ];
        for (enc, rid) in frames {
            assert_eq!(peek_request_id(&enc), rid);
        }
        // The legacy pair stays uncorrelated.
        assert_eq!(peek_request_id(&encode_message(&Message::DumpMetrics)), 0);
    }

    #[test]
    fn i64_value_roundtrip() {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &DietValue::ScalarI64(-1234567890123));
        let v = get_value(&mut buf.freeze()).unwrap();
        assert_eq!(v, DietValue::ScalarI64(-1234567890123));
    }

    fn sample_workflow() -> WorkflowSpec {
        let mut part1 = DagNodeSpec::new(0, sample_profile());
        part1.expander = Some("zoom_fanout".into());
        part1.params = vec![("max_zooms".into(), "4".into())];
        let mut part2 = DagNodeSpec::new(1, sample_profile());
        part2.deps = vec![0];
        part2.inputs = vec![DagInput {
            arg: 0,
            from_node: 0,
            from_arg: 7,
        }];
        part2.max_retries = 1;
        WorkflowSpec {
            name: "zoom".into(),
            nodes: vec![part1, part2],
        }
    }

    #[test]
    fn dag_frames_detect_truncation() {
        // Dag frames ride the same mux connections as everything else; cut
        // them at every byte boundary and none may decode or panic.
        let frames = [
            encode_message(&Message::SubmitDag {
                request_id: 5,
                ctx: TraceCtx {
                    trace_id: 2,
                    parent_span: 3,
                },
                spec: sample_workflow(),
            }),
            encode_message(&Message::DagReply {
                request_id: 6,
                result: Ok(9),
            }),
            encode_message(&Message::DagReply {
                request_id: 6,
                result: Err("no engine".into()),
            }),
            encode_message(&Message::DagStatus {
                request_id: 7,
                dag_id: 9,
                since: 3,
            }),
            encode_message(&Message::DagEvent {
                request_id: 7,
                dag_id: 9,
                events: vec![DagEventRec {
                    seq: 4,
                    node: 0,
                    state: DagNodeState::Done,
                    detail: "lyon/0".into(),
                    at_ms: 77,
                }],
                outcome: Some(DagOutcome {
                    dag_id: 9,
                    ok: false,
                    makespan_ms: 10,
                    cancelled: 1,
                    nodes: vec![DagNodeOutcome {
                        node: 0,
                        service: "s".into(),
                        sed: "x/0".into(),
                        status: -1,
                        attempts: 3,
                        speculated: false,
                        duration_ms: 5,
                        outputs: vec![(0, "s@d9.n0#0".into())],
                        scalars: vec![(1, -4)],
                    }],
                }),
            }),
        ];
        for enc in frames {
            for cut in 0..enc.len() {
                assert!(
                    decode_message(enc.slice(0..cut)).is_err(),
                    "cut at {cut} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn dag_frames_are_correlated() {
        // All four dag frames must expose their id to peek_request_id so
        // they demux off a shared client connection.
        let frames = [
            (
                encode_message(&Message::SubmitDag {
                    request_id: 51,
                    ctx: TraceCtx::default(),
                    spec: sample_workflow(),
                }),
                51,
            ),
            (
                encode_message(&Message::DagReply {
                    request_id: 52,
                    result: Ok(1),
                }),
                52,
            ),
            (
                encode_message(&Message::DagStatus {
                    request_id: 53,
                    dag_id: 1,
                    since: 0,
                }),
                53,
            ),
            (
                encode_message(&Message::DagEvent {
                    request_id: 54,
                    dag_id: 1,
                    events: vec![],
                    outcome: None,
                }),
                54,
            ),
        ];
        for (enc, rid) in frames {
            assert_eq!(peek_request_id(&enc), rid);
        }
    }

    #[test]
    fn bad_dag_state_byte_rejected() {
        let mut enc = BytesMut::new();
        enc.put_u8(MSG_DAG_EVENT);
        enc.put_u64_le(1); // request id
        enc.put_u64_le(1); // dag id
        enc.put_u32_le(1); // one event
        enc.put_u64_le(1); // seq
        enc.put_u32_le(0); // node
        enc.put_u8(200); // invalid state byte
        assert!(decode_message(enc.freeze()).is_err());
    }
}
