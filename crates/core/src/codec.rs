//! Binary wire codec.
//!
//! DIET rode CORBA's CDR marshalling, where a type is declared once and both
//! directions are derived from the declaration. This module does the same
//! in three layers, and every byte format in the crate — wire frames here,
//! WAL records and snapshots in `jobserver.rs` — is built from them:
//!
//! 1. **Primitives**: `Wire` impls for the integers and `f64`
//!    (little-endian), `bool` / `Option` / `Result` (one flag byte, where
//!    only `1` means present), strings and blobs (`[u32 len][bytes]`),
//!    lists (`[u32 n][items]`) and tuples. The bounds check (`need`), the
//!    bound on what a count off the wire may reserve (`reserve_for`) and
//!    the flag byte (`bool`) each exist exactly once, here.
//! 2. **Records**: `wire_records!` names each struct's fields once, in
//!    wire order.
//! 3. **Tagged unions**: `wire_enum!` maps a tag byte to a variant and
//!    its fields in wire order. The frame table at the bottom of this file
//!    is one; `encode_message`, `decode_message`, `peek_request_id` and
//!    `runs_inline` are all derived from it.
//!
//! A message on a socket is `[u32 length][u8 tag][fields]`; transports add
//! the length. To add a frame kind: add the [`Message`] variant, add one
//! row to the frame table under a tag that was never used (14 to 18 are
//! retired), and add a sample to `tests::samples()` with its golden line.
//! Every row's first field is its `request_id`. A row ends in `inline` when
//! the reactor may offer that frame to its handler on the reactor thread.

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
use std::sync::Arc;

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
    /// Liveness probe. Correlated like every other request, so it rides the
    /// prober's shared mux connection.
    Ping { request_id: u64 },
    /// Reply to [`Message::Ping`], echoing its correlation id.
    Pong { request_id: u64 },
    /// SeD ← SeD/client: fetch the value stored under `id` (DAGDA pull).
    /// `request_id` correlates the reply on a multiplexed connection.
    GetData { request_id: u64, id: String },
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
    /// Server → client: admission rejected — the server's dispatch queue or
    /// an agent's or SeD's admission limit is full. Echoes the rejected
    /// request's id so exactly that multiplexed caller backs off and retries.
    Busy { request_id: u64 },
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
    PushAck { request_id: u64 },
    /// Ask a component for a view of its telemetry (LogService analog).
    /// Correlated, so it rides a shared `MuxConn` like `Call` does; `what`
    /// selects the view — `""` or `"prometheus"` for the metrics text,
    /// `"chrome"` for the Chrome trace JSON, `"topology"` for the
    /// collector's plaintext hierarchy/health snapshot.
    DumpMetricsRid { request_id: u64, what: String },
    /// Reply to [`Message::DumpMetricsRid`], echoing its correlation id.
    MetricsReplyRid { request_id: u64, text: String },
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
    AttachCampaign { request_id: u64, campaign: String },
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

// -------------------------------------------------------------- primitives

/// A type with one byte format, declared once for both directions.
pub(crate) trait Wire: Sized {
    fn put(&self, buf: &mut BytesMut);
    fn get(buf: &mut Bytes) -> Result<Self, DietError>;
}

/// The one bounds check: nothing reads `n` bytes without asking here.
fn need(buf: &Bytes, n: usize) -> Result<(), DietError> {
    if buf.remaining() < n {
        return Err(DietError::Codec(format!(
            "truncated: {n} bytes wanted, {} left",
            buf.remaining()
        )));
    }
    Ok(())
}

macro_rules! wire_num {
    ($($t:ty: $put:ident / $get:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self)
            }
            fn get(buf: &mut Bytes) -> Result<Self, DietError> {
                need(buf, std::mem::size_of::<$t>())?;
                Ok(buf.$get())
            }
        }
    )*};
}
wire_num!(
    u8: put_u8 / get_u8,
    u32: put_u32_le / get_u32_le,
    u64: put_u64_le / get_u64_le,
    i32: put_i32_le / get_i32_le,
    i64: put_i64_le / get_i64_le,
    f64: put_f64_le / get_f64_le
);

/// Sizes and queue depths travel as `u64`.
impl Wire for usize {
    fn put(&self, buf: &mut BytesMut) {
        (*self as u64).put(buf)
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(u64::get(buf)? as usize)
    }
}

/// The one flag byte. Decoding is lenient the way it always was: only `1`
/// is true, so `Option` and `Result` read any other byte as `None` / `Err`.
impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        (*self as u8).put(buf)
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(u8::get(buf)? == 1)
    }
}

fn put_blob(buf: &mut BytesMut, bytes: &[u8]) {
    (bytes.len() as u32).put(buf);
    buf.put_slice(bytes);
}

/// `[u32 len][bytes]`. Decoding is zero-copy: the result is an O(1) slice
/// of the frame's backing buffer.
impl Wire for Bytes {
    fn put(&self, buf: &mut BytesMut) {
        put_blob(buf, self)
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        let n = u32::get(buf)? as usize;
        need(buf, n)?;
        Ok(buf.copy_to_bytes(n))
    }
}

/// A blob that is UTF-8, validated once and still a slice of the frame.
impl Wire for ByteStr {
    fn put(&self, buf: &mut BytesMut) {
        put_blob(buf, self.as_bytes())
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        ByteStr::from_utf8(Bytes::get(buf)?).map_err(|e| DietError::Codec(format!("utf8: {e}")))
    }
}

impl Wire for String {
    fn put(&self, buf: &mut BytesMut) {
        put_blob(buf, self.as_bytes())
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        // One copy (slice -> String), validated on the borrowed slice.
        Ok(ByteStr::get(buf)?.as_str().to_owned())
    }
}

/// Span names are `&'static str`; decoding interns them, so the known phase
/// names map to their literals without leaking per-frame strings.
impl Wire for &'static str {
    fn put(&self, buf: &mut BytesMut) {
        put_blob(buf, self.as_bytes())
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(intern_name(ByteStr::get(buf)?.as_str()))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(x) = self {
            x.put(buf);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Result<T, String> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_ok().put(buf);
        match self {
            Ok(x) => x.put(buf),
            Err(e) => e.put(buf),
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(if bool::get(buf)? {
            Ok(T::get(buf)?)
        } else {
            Err(String::get(buf)?)
        })
    }
}

/// What to reserve for `n` items when `n` came off the wire and is trusted
/// for nothing. An item is at least a byte on the wire, so an honest count
/// is at most what the frame still holds; and the reservation is kept within
/// 64 KiB of the frame's own size in memory, which is exact for every list
/// the live path sends and leaves longer ones to grow by doubling. A lying
/// count then fails on the first missing item instead of in the allocator.
fn reserve_for<T>(buf: &Bytes, n: usize) -> usize {
    let left = buf.remaining();
    n.min(left)
        .min((left + (64 << 10)) / std::mem::size_of::<T>().max(1))
}

/// `n` items, read into a vector reserved by `reserve_for`.
pub(crate) fn get_n<T: Wire>(buf: &mut Bytes, n: usize) -> Result<Vec<T>, DietError> {
    let mut out = Vec::with_capacity(reserve_for::<T>(buf, n));
    for _ in 0..n {
        out.push(T::get(buf)?);
    }
    Ok(out)
}

pub(crate) fn put_list<T: Wire>(buf: &mut BytesMut, xs: &[T]) {
    (xs.len() as u32).put(buf);
    for x in xs {
        x.put(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        put_list(buf, self)
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        let n = u32::get(buf)? as usize;
        get_n(buf, n)
    }
}

/// Dense vectors (`VectorF64`, `VectorI32`): a list of little-endian
/// numbers, the same bytes `put_list` writes, coded as one run. Encoding
/// reserves once and converts through a stack chunk; decoding checks the
/// whole run with one `need` (a lying count fails before anything is
/// allocated) and collects straight into the `Arc`.
macro_rules! wire_dense {
    ($($t:ty),*) => {$(
        impl Wire for Arc<[$t]> {
            fn put(&self, buf: &mut BytesMut) {
                const W: usize = std::mem::size_of::<$t>();
                (self.len() as u32).put(buf);
                buf.reserve(self.len() * W);
                let mut chunk = [0u8; 4096];
                for xs in self.chunks(chunk.len() / W) {
                    for (out, x) in chunk.chunks_exact_mut(W).zip(xs) {
                        out.copy_from_slice(&x.to_le_bytes());
                    }
                    buf.put_slice(&chunk[..xs.len() * W]);
                }
            }
            fn get(buf: &mut Bytes) -> Result<Self, DietError> {
                const W: usize = std::mem::size_of::<$t>();
                let n = u32::get(buf)? as usize;
                need(buf, n.saturating_mul(W))?;
                let xs = buf[..n * W]
                    .chunks_exact(W)
                    .map(|b| <$t>::from_le_bytes(b.try_into().expect("W-byte chunk")))
                    .collect();
                buf.advance(n * W);
                Ok(xs)
            }
        }
    )*};
}
wire_dense!(f64, i32);

macro_rules! wire_tuple {
    ($($T:ident . $i:tt),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            fn put(&self, buf: &mut BytesMut) {
                $(self.$i.put(buf);)+
            }
            fn get(buf: &mut Bytes) -> Result<Self, DietError> {
                Ok(($($T::get(buf)?,)+))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

// ----------------------------------------------------- records and unions

/// `impl Wire` for structs: each one's fields, named once, in wire order.
macro_rules! wire_records {
    ($($T:ident { $($f:ident),* })*) => {$(
        impl Wire for $T {
            fn put(&self, buf: &mut BytesMut) {
                $(self.$f.put(buf);)*
            }
            fn get(buf: &mut Bytes) -> Result<Self, DietError> {
                Ok($T { $($f: Wire::get(buf)?),* })
            }
        }
    )*};
}

/// `impl Wire` for an enum: `tag => Variant`, `tag => Variant(a, ..)` or
/// `tag => Variant { fields in wire order }`, one row per variant. A field
/// written `name as Codec` goes through `Codec::put` / `Codec::get` instead
/// of its type's own `Wire` impl.
macro_rules! wire_enum {
    (@put $buf:ident $f:ident) => { $f.put($buf) };
    (@put $buf:ident $f:ident $via:ident) => { $via::put($f, $buf) };
    (@get $buf:ident $($f:ident)?) => { $crate::codec::Wire::get($buf)? };
    (@get $buf:ident $f:ident $via:ident) => { $via::get($buf)? };
    ($T:ident { $(
        $tag:literal => $V:ident
            $(( $($t:ident),* ))?
            $({ $($f:ident $(as $via:ident)?),* $(,)? })?
    ),* $(,)? }) => {
        impl $crate::codec::Wire for $T {
            fn put(&self, buf: &mut bytes::BytesMut) {
                match self {$(
                    $T::$V $(( $($t),* ))? $({ $($f),* })? => {
                        $crate::codec::Wire::put(&($tag as u8), buf);
                        $($($t.put(buf);)*)?
                        $($(wire_enum!(@put buf $f $($via)?);)*)?
                    }
                )*}
            }
            fn get(buf: &mut bytes::Bytes) -> Result<Self, $crate::error::DietError> {
                Ok(match <u8 as $crate::codec::Wire>::get(buf)? {
                    $($tag => $T::$V
                        $(( $(wire_enum!(@get buf $t)),* ))?
                        $({ $($f: wire_enum!(@get buf $f $($via)?)),* })?,
                    )*
                    t => {
                        return Err($crate::error::DietError::Codec(format!(
                            concat!("unknown ", stringify!($T), " tag {}"),
                            t
                        )))
                    }
                })
            }
        }
    };
}
pub(crate) use wire_enum;

/// `impl Wire` and `from_u8` for a fieldless state enum: its byte is the
/// discriminant, which only the enum itself spells out.
macro_rules! wire_state {
    ($T:ident [ $($V:ident),* ]) => {
        impl $T {
            /// The state whose wire byte is `b`.
            pub fn from_u8(b: u8) -> Option<$T> {
                [$($T::$V),*].into_iter().find(|s| *s as u8 == b)
            }
        }
        // A variant left out of the list fails this match to build.
        const _: fn($T) = |s| match s { $($T::$V)|* => {} };
        impl Wire for $T {
            fn put(&self, buf: &mut BytesMut) {
                (*self as u8).put(buf)
            }
            fn get(buf: &mut Bytes) -> Result<Self, DietError> {
                $T::from_u8(u8::get(buf)?)
                    .ok_or_else(|| DietError::Codec(concat!("bad ", stringify!($T)).into()))
            }
        }
    };
}
wire_state!(TaskState[Pending, Dispatched, Done, Failed]);
wire_state!(DagNodeState[Pending, Ready, Placed, Running, Done, Failed, Cancelled]);

wire_enum!(Persistence {
    0 => Volatile,
    1 => Persistent,
    2 => Sticky,
});

// `Str` and `File` payloads stay slices of the frame (see `Wire for Bytes`),
// and a `File` goes out in one `put_slice`.
wire_enum!(DietValue {
    0 => Null,
    1 => ScalarI32(x),
    2 => ScalarI64(x),
    3 => ScalarF64(x),
    4 => ScalarChar(x),
    5 => VectorF64(xs),
    6 => VectorI32(xs),
    7 => Str(s),
    8 => File { name, data },
    9 => DataRef { id },
});

wire_enum!(MetricSnapshot {
    0 => Counter(v),
    1 => Gauge(v),
    2 => Histogram { bounds, counts, sum, count },
});

// Also the WAL's on-disk encoding for task bodies.
wire_enum!(TaskPayload {
    0 => Call(profile),
    1 => Dag(spec),
});

/// `[service][u32 n]` then `n` × `[mode][value]`, straight from and into the
/// two parallel vectors.
impl Wire for Profile {
    fn put(&self, buf: &mut BytesMut) {
        self.service.put(buf);
        (self.values.len() as u32).put(buf);
        for (mode, value) in self.persistence.iter().zip(&self.values) {
            mode.put(buf);
            value.put(buf);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        let service = String::get(buf)?;
        let n = u32::get(buf)? as usize;
        let cap = reserve_for::<(Persistence, DietValue)>(buf, n);
        let (mut persistence, mut values) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        for _ in 0..n {
            persistence.push(Wire::get(buf)?);
            values.push(Wire::get(buf)?);
        }
        Ok(Profile {
            service,
            values,
            persistence,
        })
    }
}

/// `DataReply`'s payload: `[mode][value]` on the wire like every other
/// stored value, `(value, mode)` in the enum.
struct Stored;

impl Stored {
    fn put(r: &Result<(DietValue, Persistence), String>, buf: &mut BytesMut) {
        r.is_ok().put(buf);
        match r {
            Ok((value, mode)) => {
                mode.put(buf);
                value.put(buf);
            }
            Err(e) => e.put(buf),
        }
    }
    fn get(buf: &mut Bytes) -> Result<Result<(DietValue, Persistence), String>, DietError> {
        let stored: Result<(Persistence, DietValue), String> = Wire::get(buf)?;
        Ok(stored.map(|(mode, value)| (value, mode)))
    }
}

wire_records! {
    TraceCtx { trace_id, parent_span }
    ProcessSource { role, label, pid, site }
    SpanRecord { trace_id, span_id, parent, name, resource, start_ns, end_ns }
    Estimate {
        server, speed_factor, free_memory, queue_length, completed, known_mean_duration,
        probe_rtt, data_local_bytes, data_miss_bytes, admission_limit
    }
    CampaignSummary { campaign_id, name, total, done, failed, resubmissions, finished }
    TaskEventRec { seq, task_id, state, attempt, sed, ms }
    TaskStatusRec { task_id, state, attempts, sed }
    DagInput { arg, from_node, from_arg }
    DagNodeSpec { id, profile, deps, inputs, expander, params, max_retries }
    WorkflowSpec { name, nodes }
    DagEventRec { seq, node, state, detail, at_ms }
    DagNodeOutcome {
        node, service, sed, status, attempts, speculated, duration_ms, outputs, scalars
    }
    DagOutcome { dag_id, ok, makespan_ms, cancelled, nodes }
}

// ------------------------------------------------------------- frame table

/// The frame table: `tag => Variant { request_id, other fields in wire
/// order }`, then `inline` on the rows whose handler the reactor may try on
/// its own thread. Generates `Wire for Message`, `Message::request_id` and
/// [`runs_inline`].
macro_rules! frame_table {
    (@tag $tag:literal inline) => { $tag };
    ($($tag:literal => $V:ident { request_id $($rest:tt)* } $($lane:ident)?),* $(,)?) => {
        wire_enum!(Message { $($tag => $V { request_id $($rest)* }),* });

        impl Message {
            /// The correlation id a reply echoes — what `peek_request_id`
            /// reads off an undecoded frame.
            pub(crate) fn request_id(&self) -> u64 {
                match self {
                    $(Message::$V { request_id, .. } => *request_id,)*
                }
            }
        }

        /// Tags of the rows marked `inline`.
        const INLINE_TAGS: &[u8] = &[$($(frame_table!(@tag $tag $lane),)?)*];

        #[cfg(test)]
        const ALL_TAGS: &[u8] = &[$($tag),*];
    };
}

frame_table! {
    10 => Submit { request_id, ctx, service, exclude } inline,
    11 => SubmitReply { request_id, server },
    12 => Call { request_id, ctx, profile } inline,
    13 => CallReply { request_id, queue_wait, solve, result },
    // 14 to 16 were the uncorrelated Ping / Pong / Shutdown and 17 and 18
    // the uncorrelated DumpMetrics / MetricsReply pair: retired, never to
    // be reused.
    19 => GetData { request_id, id },
    20 => DataReply { request_id, id, result as Stored },
    21 => PutData { request_id, id, mode, value },
    22 => Busy { request_id },
    23 => Forward { request_id, ctx, service, exclude, ttl },
    24 => EstimateBatch { request_id, estimates },
    25 => PushSpans { request_id, source, spans },
    26 => PushMetricDeltas { request_id, source, deltas },
    27 => PushAck { request_id },
    28 => DumpMetricsRid { request_id, what },
    29 => MetricsReplyRid { request_id, text },
    30 => SubmitDag { request_id, ctx, spec },
    31 => DagReply { request_id, result },
    32 => DagStatus { request_id, dag_id, since },
    33 => DagEvent { request_id, dag_id, events, outcome },
    34 => SubmitTasks { request_id, campaign, tasks },
    35 => SubmitTasksReply { request_id, result },
    36 => TaskStatus { request_id, campaign_id, task_id },
    37 => TaskStatusReply { request_id, result },
    38 => AttachCampaign { request_id, campaign },
    39 => AttachReply { request_id, result },
    40 => CampaignProgress { request_id, campaign_id, cursor },
    41 => ProgressReply { request_id, result },
    42 => Ping { request_id } inline,
    43 => Pong { request_id },
}

/// Encode a full message (without the outer length frame; transports add it).
pub fn encode_message(m: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    m.put(&mut buf);
    buf.freeze()
}

/// Decode a message.
pub fn decode_message(mut buf: Bytes) -> Result<Message, DietError> {
    Message::get(&mut buf)
}

/// Cheap correlation-id peek on an undecoded frame: every message carries
/// its request id LE at bytes `[1..9]` right after the tag byte. A frame too
/// short to carry one returns 0 — which is never a live request id.
pub fn peek_request_id(frame: &[u8]) -> u64 {
    match frame.get(1..9) {
        Some(id) => u64::from_le_bytes(id.try_into().expect("a 1..9 slice is 8 bytes")),
        None => 0,
    }
}

/// May the reactor decode this undecoded frame and offer it to its handler
/// on the reactor thread? Only the frame table's `inline` rows qualify: a
/// handler that can answer them without blocking does so there, and hands
/// the message back to the dispatch pool otherwise. Every other frame
/// (bulk `PutData` included) reaches the pool undecoded.
pub(crate) fn runs_inline(frame: &[u8]) -> bool {
    frame.first().is_some_and(|tag| INLINE_TAGS.contains(tag))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dag::{
        DagEventRec, DagInput, DagNodeOutcome, DagNodeSpec, DagNodeState, DagOutcome,
    };
    use crate::jobserver::TaskState;
    use std::collections::BTreeSet;

    /// Golden encodings produced by the hand-unrolled codec this file
    /// replaced: one `kind name hex` line each, in `samples()` order. The
    /// wire and the WAL must keep producing (and accepting) exactly these.
    pub(crate) fn golden(kind: &str) -> Vec<(String, Vec<u8>)> {
        include_str!("../tests/golden_wire.txt")
            .lines()
            .filter_map(|line| line.strip_prefix(kind)?.trim_start().split_once(' '))
            .map(|(name, hex)| {
                let byte = |i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex");
                (name.to_string(), (0..hex.len() / 2).map(byte).collect())
            })
            .collect()
    }

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every correlated sample carries this id, so it reads `01 02 .. 08`
    /// at bytes `[1..9]` of the golden frames.
    const RID: u64 = 0x0807_0605_0403_0201;

    /// One argument of every `DietValue` kind (vectors empty and not),
    /// cycling through every `Persistence`.
    pub(crate) fn sample_profile() -> Profile {
        let values = vec![
            DietValue::Null,
            DietValue::ScalarI32(128),
            DietValue::ScalarI64(-1234567890123),
            DietValue::ScalarF64(100.0),
            DietValue::ScalarChar(b'z'),
            DietValue::vec_f64(vec![1.0, 2.5]),
            DietValue::vec_f64(vec![]),
            DietValue::vec_i32(vec![-3, 7]),
            DietValue::vec_i32(vec![]),
            DietValue::Str("cx".into()),
            DietValue::File {
                name: "n.nml".into(),
                data: Bytes::from_static(b"&RUN/"),
            },
            DietValue::data_ref("zoom/ic#0"),
        ];
        let modes = [
            Persistence::Volatile,
            Persistence::Persistent,
            Persistence::Sticky,
        ];
        Profile {
            service: "ramsesZoom2".into(),
            persistence: (0..values.len()).map(|i| modes[i % 3]).collect(),
            values,
        }
    }

    fn empty_profile() -> Profile {
        Profile {
            service: "echo".into(),
            values: vec![],
            persistence: vec![],
        }
    }

    pub(crate) fn sample_workflow() -> WorkflowSpec {
        let mut part1 = DagNodeSpec::new(0, sample_profile());
        part1.expander = Some("zoom_fanout".into());
        part1.params = vec![("max_zooms".into(), "4".into())];
        let mut part2 = DagNodeSpec::new(1, empty_profile());
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

    /// At least one message per frame kind and, between them, both arms of
    /// every `Option`/`Result`/`bool` field, an empty and a non-empty list
    /// of every list field, and every value / persistence / metric / state
    /// kind. A kind sampled more than once gets a constructor whose
    /// arguments are what varies. `table_matches_golden_vectors` fails when
    /// a table row has no sample here.
    fn samples() -> Vec<Message> {
        let ctx = TraceCtx {
            trace_id: 9,
            parent_span: 4,
        };
        let source = ProcessSource {
            role: "sed".into(),
            label: "lyon/0".into(),
            pid: 4242,
            site: "lyon".into(),
        };
        let submit = |ctx, exclude| Message::Submit {
            service: "ramsesZoom2".into(),
            request_id: RID,
            ctx,
            exclude,
        };
        let submit_reply = |server| Message::SubmitReply {
            request_id: RID,
            server,
        };
        let forward = |ctx, service: &str, exclude, ttl| Message::Forward {
            request_id: RID,
            ctx,
            service: service.into(),
            exclude,
            ttl,
        };
        let estimates = |estimates| Message::EstimateBatch {
            request_id: RID,
            estimates,
        };
        let call = |ctx, profile| Message::Call {
            request_id: RID,
            ctx,
            profile,
        };
        let call_reply = |queue_wait, solve, result| Message::CallReply {
            request_id: RID,
            queue_wait,
            solve,
            result,
        };
        let data_reply = |id: &str, result| Message::DataReply {
            request_id: RID,
            id: id.into(),
            result,
        };
        let span = |span_id, parent, name, start_ns, end_ns| SpanRecord {
            trace_id: 7,
            span_id,
            parent,
            name,
            resource: "lyon/0".into(),
            start_ns,
            end_ns,
        };
        let push_spans = |source, spans| Message::PushSpans {
            request_id: RID,
            source,
            spans,
        };
        let histogram = |bounds, counts, sum, count| MetricSnapshot::Histogram {
            bounds,
            counts,
            sum,
            count,
        };
        let push_deltas = |source, deltas| Message::PushMetricDeltas {
            request_id: RID,
            source,
            deltas,
        };
        let submit_dag = |ctx, spec| Message::SubmitDag {
            request_id: RID,
            ctx,
            spec,
        };
        let dag_reply = |result| Message::DagReply {
            request_id: RID,
            result,
        };
        let dag_states = [
            DagNodeState::Pending,
            DagNodeState::Ready,
            DagNodeState::Placed,
            DagNodeState::Running,
            DagNodeState::Done,
            DagNodeState::Failed,
            DagNodeState::Cancelled,
        ];
        let dag_events = dag_states
            .into_iter()
            .enumerate()
            .map(|(i, state)| DagEventRec {
                seq: 18 + i as u64,
                node: 1,
                state,
                detail: "lyon/0".into(),
                at_ms: 250,
            });
        let outcome = |ok, nodes| DagOutcome {
            dag_id: 3,
            ok,
            makespan_ms: 900,
            cancelled: 1,
            nodes,
        };
        let dag_event = |dag_id, events, outcome| Message::DagEvent {
            request_id: RID,
            dag_id,
            events,
            outcome,
        };
        let submit_tasks = |tasks| Message::SubmitTasks {
            request_id: RID,
            campaign: "camp".into(),
            tasks,
        };
        let submit_tasks_reply = |result| Message::SubmitTasksReply {
            request_id: RID,
            result,
        };
        let task_status_reply = |result| Message::TaskStatusReply {
            request_id: RID,
            result,
        };
        let summary = |finished| CampaignSummary {
            campaign_id: 7,
            name: "zoom-sweep".into(),
            total: 100,
            done: 42,
            failed: 1,
            resubmissions: 5,
            finished,
        };
        let attach_reply = |result| Message::AttachReply {
            request_id: RID,
            result,
        };
        let task_event = |seq, state| TaskEventRec {
            seq,
            task_id: 3,
            state,
            attempt: 2,
            sed: "lyon/0".into(),
            ms: 123,
        };
        let progress_reply = |result| Message::ProgressReply {
            request_id: RID,
            result,
        };
        vec![
            submit(TraceCtx::default(), vec![]),
            submit(ctx, vec!["lyon/0".into(), "orsay-gdx/3".into()]),
            submit_reply(Some("toulouse-violette/0".into())),
            submit_reply(None),
            forward(ctx, "ramsesZoom2", vec!["lyon/0".into()], 1),
            forward(TraceCtx::default(), "echo", vec![], 0),
            estimates(vec![]),
            estimates(vec![
                Estimate {
                    server: "toulouse-violette/0".into(),
                    speed_factor: 1.25,
                    free_memory: 1 << 34,
                    queue_length: 3,
                    completed: 812,
                    known_mean_duration: Some(417.5),
                    probe_rtt: 0.031,
                    data_local_bytes: 100 << 20,
                    data_miss_bytes: 5,
                    admission_limit: Some(16),
                },
                Estimate {
                    server: "lyon/1".into(),
                    speed_factor: 0.8,
                    ..Estimate::default()
                },
            ]),
            call(ctx, sample_profile()),
            call(TraceCtx::default(), empty_profile()),
            call_reply(0.125, 2.5, Ok(sample_profile())),
            call_reply(0.0, 0.0, Err("solve failed".into())),
            Message::GetData {
                request_id: RID,
                id: "ramsesZoom2#0".into(),
            },
            data_reply(
                "ramsesZoom2#0",
                Ok((
                    DietValue::File {
                        name: "ic.dat".into(),
                        data: Bytes::from_static(b"\x00\x01\x02"),
                    },
                    Persistence::Persistent,
                )),
            ),
            data_reply("missing", Err("persistent data not found: missing".into())),
            Message::PutData {
                request_id: RID,
                id: "blob".into(),
                mode: Persistence::Sticky,
                value: DietValue::vec_f64(vec![0.5, -1.5]),
            },
            Message::Busy { request_id: RID },
            push_spans(
                source.clone(),
                vec![
                    span(2, 1, "Execution", 1_000, 5_000),
                    span(3, 2, "ResultReturn", 5_000, 5_500),
                ],
            ),
            push_spans(ProcessSource::default(), vec![]),
            push_deltas(
                source,
                vec![
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
                        histogram(vec![0.1, 1.0], vec![1, 0, 2], 4.25, 3),
                    ),
                    (
                        "diet_empty_seconds".into(),
                        vec![],
                        histogram(vec![], vec![], 0.0, 0),
                    ),
                ],
            ),
            push_deltas(ProcessSource::default(), vec![]),
            Message::PushAck { request_id: RID },
            Message::DumpMetricsRid {
                request_id: RID,
                what: "topology".into(),
            },
            Message::MetricsReplyRid {
                request_id: RID,
                text: "# TYPE x counter\nx 1\n".into(),
            },
            submit_dag(ctx, sample_workflow()),
            submit_dag(
                TraceCtx::default(),
                WorkflowSpec {
                    name: "w".into(),
                    nodes: vec![],
                },
            ),
            dag_reply(Ok(3)),
            dag_reply(Err("cycle through nodes [0, 1]".into())),
            Message::DagStatus {
                request_id: RID,
                dag_id: 3,
                since: 17,
            },
            dag_event(
                3,
                dag_events.collect(),
                Some(outcome(
                    true,
                    vec![
                        DagNodeOutcome {
                            node: 1,
                            service: "ramsesZoom1".into(),
                            sed: "lyon/0".into(),
                            status: 0,
                            attempts: 2,
                            speculated: true,
                            duration_ms: 640,
                            outputs: vec![(2, "ramsesZoom1@d3.n1#2".into())],
                            scalars: vec![(3, -4)],
                        },
                        DagNodeOutcome {
                            node: 2,
                            status: -1,
                            ..DagNodeOutcome::default()
                        },
                    ],
                )),
            ),
            dag_event(4, vec![], None),
            dag_event(5, vec![], Some(outcome(false, vec![]))),
            submit_tasks(vec![
                TaskPayload::Call(sample_profile()),
                TaskPayload::Dag(sample_workflow()),
            ]),
            submit_tasks(vec![]),
            submit_tasks_reply(Ok((7, vec![0, 1, 2]))),
            submit_tasks_reply(Ok((8, vec![]))),
            submit_tasks_reply(Err("nope".into())),
            Message::TaskStatus {
                request_id: RID,
                campaign_id: 7,
                task_id: 3,
            },
            task_status_reply(Ok(TaskStatusRec {
                task_id: 3,
                state: TaskState::Dispatched,
                attempts: 2,
                sed: "lyon/1".into(),
            })),
            task_status_reply(Err("unknown task".into())),
            Message::AttachCampaign {
                request_id: RID,
                campaign: "camp".into(),
            },
            attach_reply(Ok(summary(true))),
            attach_reply(Err("unknown campaign".into())),
            Message::CampaignProgress {
                request_id: RID,
                campaign_id: 7,
                cursor: 41,
            },
            progress_reply(Ok((
                summary(false),
                vec![
                    task_event(9, TaskState::Pending),
                    task_event(10, TaskState::Dispatched),
                    task_event(11, TaskState::Done),
                    task_event(12, TaskState::Failed),
                ],
            ))),
            progress_reply(Ok((summary(true), vec![]))),
            progress_reply(Err("unknown campaign".into())),
            Message::Ping { request_id: RID },
            Message::Pong { request_id: RID },
        ]
    }

    /// The one table test: for every sample the encoder still produces the
    /// golden bytes, the decoder maps them back, every strict prefix is
    /// rejected, and the request id peeks out of the frame, agreeing with
    /// `Message::request_id` — and every row of the frame table has a
    /// sample.
    #[test]
    fn table_matches_golden_vectors() {
        let samples = samples();
        let golden = golden("msg");
        assert_eq!(samples.len(), golden.len(), "samples vs golden lines");
        let mut tags = BTreeSet::new();
        for (m, (name, bytes)) in samples.iter().zip(&golden) {
            assert!(format!("{m:?}").starts_with(name.as_str()), "{name}: {m:?}");
            let enc = encode_message(m);
            assert_eq!(hex(&enc), hex(bytes), "{name}: wire bytes changed");
            assert_eq!(&decode_message(enc.clone()).unwrap(), m, "{name}");
            for cut in 0..enc.len() {
                assert!(
                    decode_message(enc.slice(0..cut)).is_err(),
                    "{name}: cut at {cut} decoded successfully"
                );
            }
            assert_eq!(peek_request_id(&enc), RID, "{name}");
            assert_eq!(m.request_id(), peek_request_id(&enc), "{name}");
            tags.insert(enc[0]);
        }
        let rows: BTreeSet<u8> = ALL_TAGS.iter().copied().collect();
        assert_eq!(tags, rows, "a frame-table row has no sample");
    }

    /// The reactor offers exactly the table's `inline` rows to its handler.
    #[test]
    fn only_ping_call_and_submit_run_inline() {
        let inline: BTreeSet<String> = samples()
            .iter()
            .filter(|m| runs_inline(&encode_message(m)))
            .map(|m| {
                format!("{m:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let want: BTreeSet<String> = ["Call", "Ping", "Submit"].map(String::from).into();
        assert_eq!(inline, want);
        assert!(!runs_inline(&[]));
    }

    #[test]
    fn unknown_tags_rejected() {
        // 14 to 18 are retired tags: never reused, and decoded neither bare
        // nor carrying an id.
        for tag in [99u8, 14, 15, 16, 17, 18] {
            for raw in [vec![tag], vec![tag, 0, 0, 0, 0, 0, 0, 0, 0]] {
                assert!(matches!(
                    decode_message(Bytes::from(raw)),
                    Err(DietError::Codec(_))
                ));
            }
        }
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
        assert_eq!(enc[9..17], ctx.trace_id.to_le_bytes());
        match decode_message(enc).unwrap() {
            Message::Call { ctx: back, .. } => assert_eq!(back, ctx),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn bad_dag_state_byte_rejected() {
        let mut enc = vec![33u8]; // DagEvent
        enc.extend_from_slice(&1u64.to_le_bytes()); // request id
        enc.extend_from_slice(&1u64.to_le_bytes()); // dag id
        enc.extend_from_slice(&1u32.to_le_bytes()); // one event
        enc.extend_from_slice(&1u64.to_le_bytes()); // seq
        enc.extend_from_slice(&0u32.to_le_bytes()); // node
        enc.push(200); // invalid state byte
        assert!(decode_message(Bytes::from(enc)).is_err());
    }

    /// `[service ""][arity 0xFFFF_FFFF]`: a profile that claims four
    /// billion arguments and carries none.
    pub(crate) const HUGE_ARITY_PROFILE: [u8; 8] = [0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF];

    #[test]
    fn untrusted_counts_are_rejected_not_reserved() {
        // A count off the wire bounds nothing: each of these used to ask the
        // allocator for 4 Gi elements and abort the process.
        let rid = 7u64.to_le_bytes();
        let one = 1u32.to_le_bytes();
        let empty = 0u32.to_le_bytes();
        let frames: [Vec<&[u8]>; 3] = [
            // Call: [12][rid][ctx;16][profile] — the 33-byte frame.
            vec![&[12], &rid, &[0; 16], &HUGE_ARITY_PROFILE],
            // SubmitDag: [30][rid][ctx;16][name ""][1 node][id][profile]
            vec![
                &[30],
                &rid,
                &[0; 16],
                &empty,
                &one,
                &empty,
                &HUGE_ARITY_PROFILE,
            ],
            // SubmitTasks: [34][rid][campaign ""][1 task][kind Call][profile]
            vec![&[34], &rid, &empty, &one, &[0], &HUGE_ARITY_PROFILE],
        ];
        for parts in frames {
            let frame = parts.concat();
            assert!(matches!(
                decode_message(Bytes::from(frame)),
                Err(DietError::Codec(_))
            ));
        }
        assert_eq!(1 + 8 + 16 + HUGE_ARITY_PROFILE.len(), 33);
    }

    #[test]
    fn bulk_payloads_decode_as_slices_of_the_frame() {
        let file = DietValue::File {
            name: "ic.dat".into(),
            data: Bytes::from(vec![7u8; 4096]),
        };
        for value in [file, DietValue::Str("x".repeat(4096).into())] {
            let frame = encode_message(&Message::PutData {
                request_id: 1,
                id: "blob".into(),
                mode: Persistence::Persistent,
                value,
            });
            let span = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
            let payload = match decode_message(frame.clone()).unwrap() {
                Message::PutData {
                    value: DietValue::File { data, .. },
                    ..
                } => data.as_ptr(),
                Message::PutData {
                    value: DietValue::Str(s),
                    ..
                } => s.as_ptr(),
                other => panic!("decoded {other:?}"),
            };
            assert!(span.contains(&(payload as usize)), "payload was copied");
        }
    }

    /// `value` as `Wire` writes it, frozen.
    fn wire_bytes<T: Wire>(value: &T) -> Bytes {
        let mut buf = BytesMut::new();
        value.put(&mut buf);
        buf.freeze()
    }

    proptest::proptest! {
        /// Dense vectors round-trip bit for bit, in exactly the bytes the
        /// element-by-element list coding wrote, and every strict prefix of
        /// a run is rejected.
        #[test]
        fn dense_vectors_roundtrip_as_lists(
            fs in proptest::collection::vec(proptest::prelude::any::<f64>(), 0..1200),
            is in proptest::collection::vec(proptest::prelude::any::<i32>(), 0..1200),
        ) {
            let (fs_arc, is_arc): (Arc<[f64]>, Arc<[i32]>) = (fs.clone().into(), is.clone().into());
            let (f_enc, i_enc) = (wire_bytes(&fs_arc), wire_bytes(&is_arc));
            proptest::prop_assert_eq!(&f_enc, &wire_bytes(&fs));
            proptest::prop_assert_eq!(&i_enc, &wire_bytes(&is));
            let f_back = <Arc<[f64]>>::get(&mut f_enc.clone()).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&f_back), bits(&fs));
            proptest::prop_assert_eq!(&*<Arc<[i32]>>::get(&mut i_enc.clone()).unwrap(), &is[..]);
            for cut in 0..f_enc.len() {
                proptest::prop_assert!(<Arc<[f64]>>::get(&mut f_enc.slice(..cut)).is_err());
            }
            for cut in 0..i_enc.len() {
                proptest::prop_assert!(<Arc<[i32]>>::get(&mut i_enc.slice(..cut)).is_err());
            }
        }
    }

    /// A vector whose count claims more than the frame holds fails on the
    /// one bounds check, which comes before the `Arc` is allocated: an
    /// allocation for 4 Gi elements would abort the process instead.
    #[test]
    fn dense_vector_with_a_lying_count_fails_before_allocating() {
        for n in [u32::MAX, 1 << 20, 3] {
            let mut frame = n.to_le_bytes().to_vec();
            frame.extend_from_slice(&[0u8; 16]);
            assert!(matches!(
                <Arc<[f64]>>::get(&mut Bytes::from(frame.clone())),
                Err(DietError::Codec(_))
            ));
            let want_i32 = n != 3; // three i32s fit in 16 bytes
            assert_eq!(
                <Arc<[i32]>>::get(&mut Bytes::from(frame)).is_err(),
                want_i32,
                "{n} i32s"
            );
        }
    }
}
