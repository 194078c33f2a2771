//! Durable campaign jobserver: a crash-recoverable task queue in front of
//! the MA hierarchy.
//!
//! The paper's zoom campaigns are long: part 1 plus one part-2 run per
//! detected halo, times hundreds of parameter points. The in-memory
//! campaign driver loses everything when the submitting process dies, so
//! this module adds the batch-queue layer every production middleware
//! grows: a standalone process ([`JobServer`], served by
//! [`serve_jobserver_over_tcp`] or the `diet_jobserver` binary) that
//! accepts campaign submissions over the wire, owns the per-task state
//! machine (`Pending → Dispatched → Done | Failed{attempt}`), and drives
//! execution through the existing machinery — finding via the MA
//! hierarchy's `Submit`, solving via the [`TcpSedPool`], DAG payloads via
//! the MA's workflow engine.
//!
//! # Durability
//!
//! Every state transition is appended to a write-ahead log before it is
//! applied: CRC-framed records (`[u32 len][u32 crc32][payload]`, payload
//! led by a monotone LSN) in `wal.log` under the server's data directory.
//! Once the log has paid for it, the whole store is compacted into
//! `snapshot.bin` (written to a temp file, fsynced, atomically renamed)
//! and the log is truncated. Paid for means at least `snapshot_every`
//! records and at least the last snapshot's size in bytes appended since
//! that snapshot, so compaction writes no more bytes than the log does
//! however large the store grows, and recovery replays at most about one
//! snapshot's worth of log. The snapshot remembers the last LSN it
//! absorbed so a crash between rename and truncate replays no record
//! twice. On startup the
//! server loads the snapshot, replays the log tail — tolerating a torn
//! final record, which is truncated away — and re-queues any task that
//! was `Dispatched` when the process died. `Done` work is never
//! recomputed.
//!
//! The log is flushed (not fsynced) per record: the tested failure mode
//! is process death (`kill -9`), which the OS page cache survives.
//! Power-loss durability would want an `fsync` knob; the crash test in
//! `tests/jobserver_crash.rs` kills the process, not the host.
//!
//! # Dispatch
//!
//! Each dispatcher thread has up to a window of tasks out at once: it
//! sends the findings of up to 32 pending calls to the MA before waiting on
//! any, then sends their calls one lane per SeD found, with one call on
//! the wire per lane. Each task's dispatch is logged just before its call
//! goes out. A SeD thus queues at most one call per dispatcher, as before
//! the window. The window starts at one task and grows only while the
//! SeDs' time for its calls stays below the findings' round trips, so
//! solve-scale calls are dispatched one at a time. A task's retries,
//! exclusions and outcome still run through the client's one retry loop.
//! A DAG payload closes the window and runs on its own.
//!
//! # Clients
//!
//! Any number of [`JobClient`]s attach to a campaign by name
//! ([`Message::AttachCampaign`]) and poll a resumable event cursor
//! ([`Message::CampaignProgress`]); submission is idempotent by campaign
//! name, so a client that dies mid-submit can simply resubmit and be
//! handed the existing campaign.

use crate::client::{is_retryable, retry_loop, RetryPolicy, Route};
use crate::codec::{self, wire_enum, Message, Wire};
use crate::dag::WorkflowSpec;
use crate::error::DietError;
use crate::hierarchy::{RemoteAgentClient, SentSubmit};
use crate::monitor::{MissTally, Periodic};
use crate::profile::Profile;
use crate::transport::{unexpected, Peer, SentCall, ServerConfig, TcpSedPool, TcpServer};
use bytes::{Bytes, BytesMut};
use obs::{Obs, Span};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------- types

/// Lifecycle of one task in a campaign. Transitions are logged before
/// they are applied; the numeric values are the wire/WAL encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskState {
    /// Queued, waiting for a dispatcher (also the re-queued state after a
    /// failed attempt or a dead-SeD recovery).
    Pending = 0,
    /// Handed to the hierarchy: a dispatcher resolved a SeD and is
    /// waiting on the solve.
    Dispatched = 1,
    /// Solve succeeded; the task will never run again.
    Done = 2,
    /// Terminally failed (attempt budget exhausted or a non-retryable
    /// rejection).
    Failed = 3,
}

/// What a task executes: a single GridRPC call resolved through the MA,
/// or a whole workflow DAG admitted into the MA's engine (the multi-stage
/// task shape — part-1-then-fan-out as one queue entry).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPayload {
    Call(Profile),
    Dag(WorkflowSpec),
}

impl TaskPayload {
    /// Service name shown in status rows ("dag:<name>" for workflows).
    pub fn service(&self) -> String {
        match self {
            TaskPayload::Call(p) => p.service.clone(),
            TaskPayload::Dag(s) => format!("dag:{}", s.name),
        }
    }
}

/// One entry in a campaign's progress feed: a state transition with the
/// monotone per-campaign sequence number clients use as a poll cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEventRec {
    pub seq: u64,
    pub task_id: u64,
    pub state: TaskState,
    /// Dispatch attempts so far (after this transition applied).
    pub attempt: u32,
    /// SeD label involved ("" when none — e.g. a failure before resolve).
    pub sed: String,
    /// Solve duration for `Done` (milliseconds); 0 otherwise.
    pub ms: u64,
}

/// Aggregate view of a campaign, returned by attach and every progress
/// poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    pub campaign_id: u64,
    pub name: String,
    pub total: u64,
    pub done: u64,
    pub failed: u64,
    /// Dispatches beyond each task's first — the live analogue of the
    /// simulator's resubmission count.
    pub resubmissions: u64,
    /// Every task reached a terminal state.
    pub finished: bool,
}

/// Point-in-time status of a single task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStatusRec {
    pub task_id: u64,
    pub state: TaskState,
    pub attempts: u32,
    pub sed: String,
}

// ------------------------------------------------------------------- crc32

/// CRC-32 (IEEE, reflected, poly 0xEDB88320) — the framing checksum for
/// WAL records and the snapshot body. Table built on first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- job log

/// Append-only CRC-framed record log. Each record is
/// `[u32 len][u32 crc32(payload)][payload]`, little-endian. Reading stops
/// at the first short or corrupt record (a torn tail from a crash), and
/// [`JobLog::open`] truncates the file back to the last good boundary so
/// fresh appends never follow garbage.
pub struct JobLog {
    file: File,
    path: PathBuf,
    records: u64,
    bytes: u64,
    /// The framed batch being written. Kept from one append to the next
    /// (up to `FRAMES_KEPT` bytes), so a batch allocates nothing once the
    /// buffer has grown to its size.
    frames: Vec<u8>,
}

/// Capacity of `JobLog::frames` kept after a write.
const FRAMES_KEPT: usize = 1 << 20;

/// Records larger than this are rejected on append and treated as
/// corruption on read — a length-field bit flip must not allocate gigabytes.
pub const MAX_WAL_RECORD: usize = 64 << 20;

impl JobLog {
    /// Open (creating if absent) the log at `path`, scan it, truncate any
    /// torn tail, and position for appending. Returns the log plus the
    /// records that survived the scan.
    pub fn open(path: impl Into<PathBuf>) -> Result<(JobLog, Vec<Vec<u8>>), DietError> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(DietError::Transport(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        let (records, good_len) = scan_records(&bytes);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| DietError::Transport(format!("open {}: {e}", path.display())))?;
        file.set_len(good_len)
            .and_then(|_| file.seek(SeekFrom::End(0)))
            .map_err(|e| DietError::Transport(format!("truncate {}: {e}", path.display())))?;
        let n = records.len() as u64;
        Ok((
            JobLog {
                file,
                path,
                records: n,
                bytes: good_len,
                frames: Vec::new(),
            },
            records,
        ))
    }

    /// Append one record (length + CRC framing) and flush it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DietError> {
        self.append_all([payload])
    }

    /// Append `payloads` in order as consecutive records with one write,
    /// and flush them to the OS. The bytes are those of one
    /// [`append`](Self::append) per payload. None is written when one
    /// exceeds the cap; a failed write truncates the log back to where the
    /// batch began, so none of it is found on reopen either.
    pub fn append_all<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
    ) -> Result<(), DietError> {
        let frames = &mut self.frames;
        frames.clear();
        let mut records = 0;
        for payload in payloads {
            let payload = payload.as_ref();
            if payload.len() > MAX_WAL_RECORD {
                return Err(DietError::Rejected(format!(
                    "wal record of {} bytes exceeds the {} byte cap",
                    payload.len(),
                    MAX_WAL_RECORD
                )));
            }
            frames.reserve(8 + payload.len());
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(payload).to_le_bytes());
            frames.extend_from_slice(payload);
            records += 1;
        }
        let written = self.file.write_all(frames).and_then(|_| self.file.flush());
        let len = frames.len() as u64;
        frames.clear();
        frames.shrink_to(FRAMES_KEPT);
        if let Err(e) = written {
            let _ = self
                .file
                .set_len(self.bytes)
                .and_then(|_| self.file.seek(SeekFrom::End(0)));
            return Err(DietError::Transport(format!("wal append: {e}")));
        }
        self.records += records;
        self.bytes += len;
        Ok(())
    }

    /// Records appended (or recovered) through this handle's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Length of the log in bytes: the good prefix found at open plus every
    /// frame appended since (zero after a reset).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Truncate the log to empty — called right after a snapshot absorbed
    /// everything. A crash before this truncate is safe: replay skips
    /// records at or below the snapshot's LSN.
    pub fn reset(&mut self) -> Result<(), DietError> {
        self.file
            .set_len(0)
            .and_then(|_| self.file.seek(SeekFrom::Start(0)))
            .map_err(|e| DietError::Transport(format!("wal reset: {e}")))?;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parse `[len][crc][payload]` frames out of `bytes`; stop at the first
/// short, oversized, or CRC-mismatching record. Returns the good records
/// and the byte offset just past the last one.
pub fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len > MAX_WAL_RECORD || bytes.len() - off - 8 < len {
            break;
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        off += 8 + len;
    }
    (records, off as u64)
}

// -------------------------------------------------------------- wal records

/// One logged mutation. `Transition.attempts` is the absolute value after
/// the transition (not a delta), so replay is insensitive to how the
/// attempt was produced.
#[derive(Debug, Clone, PartialEq)]
enum WalRec {
    CampaignCreate {
        cid: u64,
        name: String,
    },
    TaskAdd {
        cid: u64,
        tid: u64,
        payload: TaskPayload,
    },
    Transition {
        cid: u64,
        tid: u64,
        state: TaskState,
        attempts: u32,
        sed: String,
        ms: u64,
        note: String,
    },
}

// On disk a record is `[u64 lsn][u8 kind][fields]`.
wire_enum!(WalRec {
    1 => CampaignCreate { cid, name },
    2 => TaskAdd { cid, tid, payload },
    3 => Transition { cid, tid, state, attempts, sed, ms, note },
});

fn encode_wal_rec(lsn: u64, rec: &WalRec) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    lsn.put(&mut buf);
    rec.put(&mut buf);
    buf.to_vec()
}

fn decode_wal_rec(payload: &[u8]) -> Result<(u64, WalRec), DietError> {
    Wire::get(&mut Bytes::copy_from_slice(payload))
}

// --------------------------------------------------------------- job store

/// Tuning for the durable store.
#[derive(Debug, Clone)]
pub struct JobStoreConfig {
    /// Floor on the records appended between snapshots. A snapshot is
    /// taken once this many records *and* at least the last snapshot's
    /// size in WAL bytes have been appended since it.
    pub snapshot_every: u64,
    /// Progress events kept in memory per campaign; older entries fall off
    /// the feed (the summary stays exact — events are a bounded stream,
    /// not the source of truth).
    pub events_cap: usize,
}

impl Default for JobStoreConfig {
    fn default() -> Self {
        JobStoreConfig {
            snapshot_every: 4096,
            events_cap: 1 << 17,
        }
    }
}

struct TaskRec {
    payload: TaskPayload,
    state: TaskState,
    attempts: u32,
    /// Requeue generation — bumped on every return to `Pending`, checked
    /// by every mutation so a dispatcher holding a stale claim (its task
    /// was requeued by the heartbeat while it was still running) cannot
    /// corrupt the newer attempt. Live-only; rebuilt as 0 on recovery.
    epoch: u32,
    sed: String,
}

struct Campaign {
    id: u64,
    name: String,
    tasks: Vec<TaskRec>,
    events: VecDeque<TaskEventRec>,
    next_seq: u64,
    resubmissions: u64,
    done: u64,
    failed: u64,
}

impl Campaign {
    fn summary(&self) -> CampaignSummary {
        let total = self.tasks.len() as u64;
        CampaignSummary {
            campaign_id: self.id,
            name: self.name.clone(),
            total,
            done: self.done,
            failed: self.failed,
            resubmissions: self.resubmissions,
            finished: total > 0 && self.done + self.failed == total,
        }
    }
}

struct StoreInner {
    campaigns: Vec<Campaign>,
    by_name: HashMap<String, u64>,
    wal: JobLog,
    next_lsn: u64,
    /// Records appended since the last snapshot (replayed ones at open).
    since_snapshot: u64,
    /// Size of `snapshot.bin` as last written or loaded (0 when none).
    snapshot_bytes: u64,
    /// The records being logged, kept from one batch to the next like
    /// `JobLog::frames`.
    batch: Vec<WalRec>,
}

/// A popped queue entry: the dispatcher's claim on one task attempt.
#[derive(Debug, Clone)]
pub struct PoppedTask {
    pub campaign_id: u64,
    pub task_id: u64,
    /// Claim token — every subsequent [`JobStore`] mutation for this task
    /// must present it, and is dropped as stale if the task was requeued
    /// meanwhile.
    pub epoch: u32,
    pub payload: TaskPayload,
}

/// What [`JobStore::fail`] did with the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// The claim was stale (task already requeued/finished) — dropped.
    Stale,
    /// Logged the failure and put the task back on the queue.
    Requeued,
    /// Attempt budget exhausted (or non-retryable): terminally failed.
    Terminal,
}

/// The durable campaign store: WAL + snapshot + in-memory state + the
/// pending-task queue dispatchers block on.
pub struct JobStore {
    dir: PathBuf,
    cfg: JobStoreConfig,
    inner: Mutex<StoreInner>,
    // The queue pair uses std sync types: the vendored parking_lot has no
    // Condvar, and the store lock (parking_lot) never nests inside it.
    queue: StdMutex<VecDeque<(u64, u64, u32)>>,
    queue_cv: StdCondvar,
    /// Set by [`close`](Self::close), under the queue lock: waiting
    /// dispatchers return at once instead of sleeping out their wait, and
    /// the jobserver's rounds see it as their stop flag.
    closed: AtomicBool,
    obs: Arc<Obs>,
    /// Tasks whose `Dispatched` state was recovered (re-queued) at open.
    recovered_inflight: u64,
    /// Tasks recovered already `Done` at open — never recomputed.
    recovered_done: u64,
}

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_MAGIC: u32 = 0x4453_4A31; // "1JSD" LE = "DJS1" on disk

impl JobStore {
    /// Open the store under `dir` (created if missing): load the
    /// snapshot, replay the WAL tail, truncate any torn record, and
    /// re-queue recovered work.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: JobStoreConfig,
        obs: Arc<Obs>,
    ) -> Result<Arc<JobStore>, DietError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DietError::Transport(format!("create {}: {e}", dir.display())))?;

        let mut campaigns: Vec<Campaign> = Vec::new();
        let mut by_name = HashMap::new();
        let mut last_lsn = 0u64;
        let mut snapshot_bytes = 0u64;
        if let Some((snap_lsn, snap_campaigns, snap_bytes)) =
            load_snapshot(&dir.join(SNAPSHOT_FILE))?
        {
            last_lsn = snap_lsn;
            campaigns = snap_campaigns;
            snapshot_bytes = snap_bytes;
            for c in &campaigns {
                by_name.insert(c.name.clone(), c.id);
            }
        }

        let (wal, records) = JobLog::open(dir.join(WAL_FILE))?;
        let mut inner = StoreInner {
            campaigns,
            by_name,
            wal,
            next_lsn: last_lsn + 1,
            since_snapshot: 0,
            snapshot_bytes,
            batch: Vec::new(),
        };
        let mut replayed = 0u64;
        for raw in &records {
            // A record that frames correctly but decodes badly is treated
            // like a torn tail: stop replaying, keep the prefix.
            let Ok((lsn, rec)) = decode_wal_rec(raw) else {
                break;
            };
            if lsn < inner.next_lsn {
                continue; // absorbed by the snapshot before the crash
            }
            apply_rec(&mut inner, rec, &cfg);
            inner.next_lsn = lsn + 1;
            replayed += 1;
        }
        inner.since_snapshot = replayed;

        let store = JobStore {
            dir,
            cfg,
            inner: Mutex::new(inner),
            queue: StdMutex::new(VecDeque::new()),
            queue_cv: StdCondvar::new(),
            closed: AtomicBool::new(false),
            obs,
            recovered_inflight: 0,
            recovered_done: 0,
        };
        let mut store = store;
        store.recover_queue()?;
        let store = Arc::new(store);
        store
            .obs
            .metrics
            .counter("diet_jobserver_wal_replayed_total")
            .add(replayed);
        store
            .obs
            .metrics
            .counter("diet_jobserver_recovered_inflight_total")
            .add(store.recovered_inflight);
        store
            .obs
            .metrics
            .counter("diet_jobserver_recovered_done_total")
            .add(store.recovered_done);
        Ok(store)
    }

    /// Re-queue every `Pending` task and demote every `Dispatched` one
    /// (its dispatcher died with the process) back to `Pending`.
    fn recover_queue(&mut self) -> Result<(), DietError> {
        let mut inner = self.inner.lock();
        let mut queue = self.queue.lock().unwrap();
        let mut demote = Vec::new();
        for c in &inner.campaigns {
            for (tid, t) in c.tasks.iter().enumerate() {
                match t.state {
                    TaskState::Pending => queue.push_back((c.id, tid as u64, t.epoch)),
                    TaskState::Dispatched => {
                        demote.push((c.id, tid as u64));
                        self.recovered_inflight += 1;
                    }
                    TaskState::Done => self.recovered_done += 1,
                    TaskState::Failed => {}
                }
            }
        }
        for (cid, tid) in demote {
            let attempts = {
                let c = &inner.campaigns[(cid - 1) as usize];
                c.tasks[tid as usize].attempts
            };
            let rec = WalRec::Transition {
                cid,
                tid,
                state: TaskState::Pending,
                attempts,
                sed: String::new(),
                ms: 0,
                note: "recovered in-flight".into(),
            };
            log_and_apply(&mut inner, rec, &self.cfg)?;
            let epoch = inner.campaigns[(cid - 1) as usize].tasks[tid as usize].epoch;
            queue.push_back((cid, tid, epoch));
        }
        Ok(())
    }

    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// In-flight `Dispatched` tasks re-queued during the last open.
    pub fn recovered_inflight(&self) -> u64 {
        self.recovered_inflight
    }

    /// Tasks loaded already `Done` during the last open.
    pub fn recovered_done(&self) -> u64 {
        self.recovered_done
    }

    // ------------------------------------------------------------ clients

    /// Create (or idempotently re-attach to) the campaign called `name`.
    /// A name that already exists returns the existing campaign id and
    /// task ids without adding anything — the resubmit-after-client-crash
    /// path.
    pub fn submit(
        &self,
        name: &str,
        payloads: Vec<TaskPayload>,
    ) -> Result<(u64, Vec<u64>), DietError> {
        if name.is_empty() {
            return Err(DietError::Rejected(
                "campaign name must be non-empty".into(),
            ));
        }
        let mut inner = self.inner.lock();
        if let Some(&cid) = inner.by_name.get(name) {
            let n = inner.campaigns[(cid - 1) as usize].tasks.len() as u64;
            return Ok((cid, (0..n).collect()));
        }
        if payloads.is_empty() {
            return Err(DietError::Rejected("empty campaign".into()));
        }
        let cid = inner.campaigns.len() as u64 + 1;
        let n = payloads.len() as u64;
        // The campaign and all its tasks go to the WAL in one write.
        let create = WalRec::CampaignCreate {
            cid,
            name: name.to_string(),
        };
        let adds = (0..)
            .zip(payloads)
            .map(|(tid, payload)| WalRec::TaskAdd { cid, tid, payload });
        log_and_apply_all(&mut inner, std::iter::once(create).chain(adds), &self.cfg)?;
        let ids: Vec<u64> = (0..n).collect();
        let fresh = ids.iter().map(|&tid| (cid, tid, 0u32));
        self.obs
            .metrics
            .counter("diet_jobserver_campaigns_total")
            .inc();
        self.obs
            .metrics
            .counter("diet_jobserver_tasks_total")
            .add(ids.len() as u64);
        drop(inner);
        let mut queue = self.queue.lock().unwrap();
        queue.extend(fresh);
        drop(queue);
        self.queue_cv.notify_all();
        Ok((cid, ids))
    }

    /// Summary for the campaign called `name`, if any.
    pub fn attach(&self, name: &str) -> Option<CampaignSummary> {
        let inner = self.inner.lock();
        let cid = *inner.by_name.get(name)?;
        Some(inner.campaigns[(cid - 1) as usize].summary())
    }

    pub fn summary(&self, cid: u64) -> Option<CampaignSummary> {
        let inner = self.inner.lock();
        Some(campaign(&inner, cid)?.summary())
    }

    pub fn campaigns(&self) -> Vec<CampaignSummary> {
        let inner = self.inner.lock();
        inner.campaigns.iter().map(|c| c.summary()).collect()
    }

    /// Events with `seq > cursor` (bounded per poll) plus the current
    /// summary. Unknown campaign ids are rejected.
    pub fn progress(
        &self,
        cid: u64,
        cursor: u64,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        const MAX_EVENTS_PER_POLL: usize = 4096;
        let inner = self.inner.lock();
        let c = campaign(&inner, cid)
            .ok_or_else(|| DietError::Rejected(format!("unknown campaign {cid}")))?;
        let events = c
            .events
            .iter()
            .filter(|e| e.seq > cursor)
            .take(MAX_EVENTS_PER_POLL)
            .cloned()
            .collect();
        Ok((c.summary(), events))
    }

    pub fn task_status(&self, cid: u64, tid: u64) -> Option<TaskStatusRec> {
        let inner = self.inner.lock();
        let t = campaign(&inner, cid)?.tasks.get(tid as usize)?;
        Some(TaskStatusRec {
            task_id: tid,
            state: t.state,
            attempts: t.attempts,
            sed: t.sed.clone(),
        })
    }

    // --------------------------------------------------------- dispatchers

    /// Block up to `wait` for a pending task; returns the claim (with its
    /// payload cloned out), or `None` on timeout or once the jobserver has
    /// shut the store's queue. Entries whose epoch went stale while queued
    /// are skipped.
    pub fn next_task(&self, wait: Duration) -> Option<PoppedTask> {
        let deadline = Instant::now() + wait;
        let mut queue = self.queue.lock().unwrap();
        loop {
            if self.is_closed() {
                return None;
            }
            while let Some((cid, tid, epoch)) = queue.pop_front() {
                // Validate under the store lock: the task must still be
                // Pending at this epoch (not re-queued again, not finished).
                let inner = self.inner.lock();
                if let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) {
                    if t.state == TaskState::Pending && t.epoch == epoch {
                        return Some(PoppedTask {
                            campaign_id: cid,
                            task_id: tid,
                            epoch,
                            payload: t.payload.clone(),
                        });
                    }
                }
                drop(inner);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (q, res) = self.queue_cv.wait_timeout(queue, deadline - now).unwrap();
            queue = q;
            if res.timed_out() && queue.is_empty() {
                return None;
            }
        }
    }

    /// Log one dispatch attempt: the claim's task moves (or stays) in
    /// `Dispatched` aimed at `sed`, and `attempts` increments. `prior`
    /// is `None` for the first resolve of this claim (task must still be
    /// `Pending`) or `Some(attempts)` when re-resolving after a retryable
    /// call failure (task must still be `Dispatched` at that count).
    /// Returns the new attempt count, or `None` if the claim is stale.
    pub fn dispatched(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        prior: Option<u32>,
        sed: &str,
    ) -> Option<u32> {
        let mut inner = self.inner.lock();
        let t = campaign(&inner, cid)?.tasks.get(tid as usize)?;
        let valid = t.epoch == epoch
            && match prior {
                None => t.state == TaskState::Pending,
                Some(a) => t.state == TaskState::Dispatched && t.attempts == a,
            };
        if !valid {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return None;
        }
        let attempts = t.attempts + 1;
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Dispatched,
            attempts,
            sed: sed.to_string(),
            ms: 0,
            note: String::new(),
        };
        if log_and_apply(&mut inner, rec, &self.cfg).is_err() {
            return None;
        }
        self.obs
            .metrics
            .counter("diet_jobserver_dispatches_total")
            .inc();
        if attempts > 1 {
            self.obs
                .metrics
                .counter("diet_jobserver_resubmissions_total")
                .inc();
        }
        Some(attempts)
    }

    /// Record a successful solve for the claimed attempt. Returns `false`
    /// (and changes nothing) if the claim went stale.
    pub fn complete(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        attempt: u32,
        sed: &str,
        ms: u64,
    ) -> bool {
        let mut inner = self.inner.lock();
        let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) else {
            return false;
        };
        if t.epoch != epoch || t.state != TaskState::Dispatched || t.attempts != attempt {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return false;
        }
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Done,
            attempts: attempt,
            sed: sed.to_string(),
            ms,
            note: String::new(),
        };
        if log_and_apply(&mut inner, rec, &self.cfg).is_err() {
            return false;
        }
        self.obs
            .metrics
            .counter("diet_jobserver_tasks_done_total")
            .inc();
        self.obs
            .metrics
            .histogram("diet_jobserver_task_ms")
            .observe(ms as f64);
        true
    }

    /// Record a failed attempt. Unless `force_terminal`, the task is
    /// re-queued while its attempt/requeue budget (`max_attempts`) lasts.
    pub fn fail(
        &self,
        cid: u64,
        tid: u64,
        epoch: u32,
        note: &str,
        max_attempts: u32,
        force_terminal: bool,
    ) -> FailOutcome {
        let mut inner = self.inner.lock();
        let Some(t) = campaign(&inner, cid).and_then(|c| c.tasks.get(tid as usize)) else {
            return FailOutcome::Stale;
        };
        let claim_ok =
            t.epoch == epoch && matches!(t.state, TaskState::Pending | TaskState::Dispatched);
        if !claim_ok {
            self.obs
                .metrics
                .counter("diet_jobserver_stale_outcomes_total")
                .inc();
            return FailOutcome::Stale;
        }
        let attempts = t.attempts;
        let sed = t.sed.clone();
        // The budget bounds both resolve attempts and requeue rounds, so a
        // task that can never even resolve (no server ever found) still
        // terminates.
        let terminal = force_terminal || attempts >= max_attempts || t.epoch + 1 >= max_attempts;
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Failed,
            attempts,
            sed,
            ms: 0,
            note: note.to_string(),
        };
        if log_and_apply(&mut inner, rec, &self.cfg).is_err() {
            return FailOutcome::Stale;
        }
        if terminal {
            self.obs
                .metrics
                .counter("diet_jobserver_tasks_failed_total")
                .inc();
            return FailOutcome::Terminal;
        }
        let rec = WalRec::Transition {
            cid,
            tid,
            state: TaskState::Pending,
            attempts,
            sed: String::new(),
            ms: 0,
            note: "requeued".into(),
        };
        if log_and_apply(&mut inner, rec, &self.cfg).is_err() {
            return FailOutcome::Stale;
        }
        let epoch = campaign(&inner, cid).unwrap().tasks[tid as usize].epoch;
        drop(inner);
        self.obs
            .metrics
            .counter("diet_jobserver_requeues_total")
            .inc();
        self.queue.lock().unwrap().push_back((cid, tid, epoch));
        self.queue_cv.notify_one();
        FailOutcome::Requeued
    }

    /// Return every task currently `Dispatched` at `label` to the queue —
    /// the heartbeat's dead-SeD recovery. Late outcomes from the dead
    /// dispatch are dropped by the epoch guard. Returns how many tasks
    /// moved.
    pub fn requeue_dead_sed(&self, label: &str) -> usize {
        let mut inner = self.inner.lock();
        let mut hits = Vec::new();
        for c in &inner.campaigns {
            for (tid, t) in c.tasks.iter().enumerate() {
                if t.state == TaskState::Dispatched && t.sed == label {
                    hits.push((c.id, tid as u64));
                }
            }
        }
        let mut moved = Vec::new();
        for (cid, tid) in &hits {
            let attempts = campaign(&inner, *cid).unwrap().tasks[*tid as usize].attempts;
            let rec = WalRec::Transition {
                cid: *cid,
                tid: *tid,
                state: TaskState::Pending,
                attempts,
                sed: String::new(),
                ms: 0,
                note: format!("sed {label} dead"),
            };
            if log_and_apply(&mut inner, rec, &self.cfg).is_ok() {
                let epoch = campaign(&inner, *cid).unwrap().tasks[*tid as usize].epoch;
                moved.push((*cid, *tid, epoch));
            }
        }
        drop(inner);
        if !moved.is_empty() {
            self.obs
                .metrics
                .counter("diet_jobserver_requeues_total")
                .add(moved.len() as u64);
            let n = moved.len();
            let mut queue = self.queue.lock().unwrap();
            queue.extend(moved);
            drop(queue);
            self.queue_cv.notify_all();
            return n;
        }
        0
    }

    pub fn pending(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Stop handing out work: every `next_task` waiting now or called later
    /// returns `None` at once. The store stays readable and writable, so
    /// claims already out still log their outcomes.
    fn close(&self) {
        let _queue = self
            .queue
            .lock()
            .expect("a dispatcher panicked holding the queue");
        self.closed.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Whether [`close`](Self::close) was called — a jobserver's stop flag.
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    // ----------------------------------------------------------- snapshot

    /// Compact to a snapshot once the WAL has paid for one: at least
    /// `snapshot_every` records and at least the last snapshot's size in
    /// bytes appended since it. A snapshot rewrites the whole store, so
    /// tying it to log growth keeps the bytes written by compaction within
    /// the bytes logged (amortised O(1) per record, not O(history)), at the
    /// price of a replay of up to one snapshot's worth of log on recovery.
    /// Returns whether a snapshot was taken.
    pub fn maybe_snapshot(&self) -> Result<bool, DietError> {
        let due = {
            let inner = self.inner.lock();
            inner.since_snapshot >= self.cfg.snapshot_every
                && inner.wal.bytes() >= inner.snapshot_bytes
        };
        if due {
            self.snapshot_now()?;
        }
        Ok(due)
    }

    /// Write the full state to `snapshot.bin` (tmp + fsync + atomic
    /// rename) and truncate the WAL.
    pub fn snapshot_now(&self) -> Result<(), DietError> {
        let mut inner = self.inner.lock();
        let body = encode_snapshot(inner.next_lsn - 1, &inner.campaigns);
        let tmp = self.dir.join("snapshot.tmp");
        let path = self.snapshot_path();
        let header = snapshot_header(&body);
        let mut f = File::create(&tmp)
            .map_err(|e| DietError::Transport(format!("create {}: {e}", tmp.display())))?;
        f.write_all(&header)
            .and_then(|_| f.write_all(&body))
            .and_then(|_| f.sync_data())
            .map_err(|e| DietError::Transport(format!("write snapshot: {e}")))?;
        drop(f);
        std::fs::rename(&tmp, &path)
            .map_err(|e| DietError::Transport(format!("rename snapshot: {e}")))?;
        inner.wal.reset()?;
        inner.since_snapshot = 0;
        inner.snapshot_bytes = (header.len() + body.len()) as u64;
        self.obs
            .metrics
            .counter("diet_jobserver_snapshots_total")
            .inc();
        Ok(())
    }
}

fn campaign(inner: &StoreInner, cid: u64) -> Option<&Campaign> {
    if cid == 0 {
        return None;
    }
    inner.campaigns.get((cid - 1) as usize)
}

/// Append to the WAL, then mutate in-memory state — write-ahead order, so
/// a crash after the append replays to exactly the state we are about to
/// expose.
fn log_and_apply(
    inner: &mut StoreInner,
    rec: WalRec,
    cfg: &JobStoreConfig,
) -> Result<(), DietError> {
    log_and_apply_all(inner, [rec], cfg)
}

/// Log `recs` under consecutive LSNs with one WAL write, then apply them in
/// order: write-ahead holds for the batch as a whole, and a batch the log
/// refused leaves memory untouched.
fn log_and_apply_all(
    inner: &mut StoreInner,
    recs: impl IntoIterator<Item = WalRec>,
    cfg: &JobStoreConfig,
) -> Result<(), DietError> {
    let mut batch = std::mem::take(&mut inner.batch);
    batch.extend(recs);
    let first = inner.next_lsn;
    let payloads = (first..)
        .zip(&batch)
        .map(|(lsn, rec)| encode_wal_rec(lsn, rec));
    let logged = inner.wal.append_all(payloads);
    if logged.is_ok() {
        inner.next_lsn = first + batch.len() as u64;
        inner.since_snapshot += batch.len() as u64;
        for rec in batch.drain(..) {
            apply_rec(inner, rec, cfg);
        }
    }
    batch.clear();
    batch.shrink_to(BATCH_KEPT);
    inner.batch = batch;
    logged
}

/// Capacity of `StoreInner::batch` kept after a batch.
const BATCH_KEPT: usize = 4096;

/// Apply one record to in-memory state. Shared verbatim between the live
/// path and replay so recovery reconstructs exactly the live state.
fn apply_rec(inner: &mut StoreInner, rec: WalRec, cfg: &JobStoreConfig) {
    match rec {
        WalRec::CampaignCreate { cid, name } => {
            // Ids are dense (index + 1); replay re-creates them in order.
            debug_assert_eq!(cid, inner.campaigns.len() as u64 + 1);
            inner.by_name.insert(name.clone(), cid);
            inner.campaigns.push(Campaign {
                id: cid,
                name,
                tasks: Vec::new(),
                events: VecDeque::new(),
                next_seq: 1,
                resubmissions: 0,
                done: 0,
                failed: 0,
            });
        }
        WalRec::TaskAdd { cid, tid, payload } => {
            if let Some(c) = inner.campaigns.get_mut((cid - 1) as usize) {
                debug_assert_eq!(tid, c.tasks.len() as u64);
                c.tasks.push(TaskRec {
                    payload,
                    state: TaskState::Pending,
                    attempts: 0,
                    epoch: 0,
                    sed: String::new(),
                });
            }
        }
        WalRec::Transition {
            cid,
            tid,
            state,
            attempts,
            sed,
            ms,
            ..
        } => {
            let Some(c) = inner.campaigns.get_mut((cid - 1) as usize) else {
                return;
            };
            let Some(t) = c.tasks.get_mut(tid as usize) else {
                return;
            };
            // Symmetric counter maintenance: a Failed that is later
            // requeued (Failed → Pending in the log) un-counts itself.
            match t.state {
                TaskState::Done => c.done -= 1,
                TaskState::Failed => c.failed -= 1,
                _ => {}
            }
            if state == TaskState::Pending && t.state != TaskState::Pending {
                t.epoch += 1;
            }
            if state == TaskState::Dispatched && attempts > 1 {
                c.resubmissions += 1;
            }
            t.state = state;
            t.attempts = attempts;
            if !sed.is_empty() || state == TaskState::Pending {
                t.sed = sed.clone();
            }
            match state {
                TaskState::Done => c.done += 1,
                TaskState::Failed => c.failed += 1,
                _ => {}
            }
            let ev = TaskEventRec {
                seq: c.next_seq,
                task_id: tid,
                state,
                attempt: attempts,
                sed,
                ms,
            };
            c.next_seq += 1;
            c.events.push_back(ev);
            while c.events.len() > cfg.events_cap {
                c.events.pop_front();
            }
        }
    }
}

/// A task as a snapshot holds it: `[state][attempts][sed][payload]`. The
/// claim epoch is live-only and restarts at 0.
impl Wire for TaskRec {
    fn put(&self, buf: &mut BytesMut) {
        self.state.put(buf);
        self.attempts.put(buf);
        self.sed.put(buf);
        self.payload.put(buf);
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        Ok(TaskRec {
            state: Wire::get(buf)?,
            attempts: Wire::get(buf)?,
            sed: Wire::get(buf)?,
            payload: Wire::get(buf)?,
            epoch: 0,
        })
    }
}

/// `[id][name][next_seq][resubmissions][u64 n][tasks]`. The done/failed
/// counters are recounted from the tasks; the event feed is not kept.
impl Wire for Campaign {
    fn put(&self, buf: &mut BytesMut) {
        self.id.put(buf);
        self.name.put(buf);
        self.next_seq.put(buf);
        self.resubmissions.put(buf);
        self.tasks.len().put(buf);
        for t in &self.tasks {
            t.put(buf);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, DietError> {
        let id = Wire::get(buf)?;
        let name = Wire::get(buf)?;
        let next_seq = Wire::get(buf)?;
        let resubmissions = Wire::get(buf)?;
        let n_tasks = Wire::get(buf)?;
        let tasks: Vec<TaskRec> = codec::get_n(buf, n_tasks)?;
        let count = |state| tasks.iter().filter(|t| t.state == state).count() as u64;
        Ok(Campaign {
            id,
            name,
            done: count(TaskState::Done),
            failed: count(TaskState::Failed),
            tasks,
            events: VecDeque::new(),
            next_seq,
            resubmissions,
        })
    }
}

/// What precedes the body in `snapshot.bin`: `[u32 magic][u32 len][u32 crc]`.
fn snapshot_header(body: &[u8]) -> BytesMut {
    let mut header = BytesMut::with_capacity(12);
    (SNAPSHOT_MAGIC, body.len() as u32, crc32(body)).put(&mut header);
    header
}

/// The snapshot body: `[u64 last_lsn][u32 n][campaigns]`.
fn encode_snapshot(last_lsn: u64, campaigns: &[Campaign]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    last_lsn.put(&mut buf);
    codec::put_list(&mut buf, campaigns);
    buf.to_vec()
}

/// Load and CRC-check the snapshot; a missing, short, or corrupt file is
/// treated as "no snapshot" (the WAL alone still recovers everything
/// since the last successful compaction... which is exactly when a valid
/// snapshot would exist, so in practice corruption here means starting
/// from whatever the WAL holds). A good one comes back as
/// `(last_lsn, campaigns, file size)`.
fn load_snapshot(path: &Path) -> Result<Option<(u64, Vec<Campaign>, u64)>, DietError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DietError::Transport(format!("read snapshot: {e}"))),
    };
    let size = bytes.len() as u64;
    let mut buf = Bytes::from(bytes);
    let Ok((magic, len, crc)) = <(u32, u32, u32)>::get(&mut buf) else {
        return Ok(None);
    };
    let len = len as usize;
    if magic != SNAPSHOT_MAGIC || buf.len() < len || crc32(&buf[..len]) != crc {
        return Ok(None);
    }
    // Framing said the body was intact; if it still does not parse, treat
    // it like a missing snapshot rather than refusing to start.
    let body: Option<(u64, Vec<Campaign>)> = Wire::get(&mut buf.slice(..len)).ok();
    Ok(body.map(|(lsn, campaigns)| (lsn, campaigns, size)))
}

// ------------------------------------------------------------ machine pool

/// Heartbeat-aware view of the SeD fleet the jobserver dispatches to: every
/// label registered in the [`TcpSedPool`], probed on its own pooled
/// connection, and declared dead after `miss_threshold` consecutive silent
/// probes.
pub(crate) struct MachinePool {
    pool: Arc<TcpSedPool>,
    misses: Mutex<MissTally>,
    dead: Mutex<HashSet<String>>,
    obs: Arc<Obs>,
}

impl MachinePool {
    fn new(pool: Arc<TcpSedPool>, obs: Arc<Obs>) -> MachinePool {
        MachinePool {
            pool,
            misses: Mutex::default(),
            dead: Mutex::default(),
            obs,
        }
    }

    /// Labels currently considered dead — excluded from resolution.
    fn dead_labels(&self) -> Vec<String> {
        self.dead.lock().iter().cloned().collect()
    }

    /// Probe every label registered in the pool. Returns the labels that
    /// just crossed the death threshold.
    fn probe_all(&self, timeout: Duration, miss_threshold: u32) -> Vec<String> {
        let metrics = &self.obs.metrics;
        let mut newly_dead = Vec::new();
        for label in self.pool.labels() {
            let alive = self.pool.peer(&label).is_ok_and(|p| p.ping(timeout));
            if alive {
                self.misses.lock().hit(&label);
                if self.dead.lock().remove(&label) {
                    metrics
                        .counter("diet_jobserver_machines_revived_total")
                        .inc();
                }
            } else if self.misses.lock().miss(&label, miss_threshold)
                && self.dead.lock().insert(label.clone())
            {
                metrics.counter("diet_jobserver_machines_dead_total").inc();
                newly_dead.push(label);
            }
        }
        newly_dead
    }
}

// -------------------------------------------------------------- job server

/// Tuning for a [`JobServer`].
#[derive(Debug, Clone)]
pub struct JobServerConfig {
    /// Data directory for the WAL and snapshots.
    pub dir: PathBuf,
    /// Dispatcher threads draining the queue. Each has up to a window of
    /// 32 cheap plain-call tasks out at once (their findings together, one
    /// call per SeD at a time); a DAG task holds its thread alone.
    pub workers: usize,
    /// Resolve/solve policy for one dispatch round (per-attempt deadline,
    /// in-round retries, backoff shape) — the `call_with_retry` knobs.
    pub retry: RetryPolicy,
    /// Task-level budget: total dispatch attempts (and requeue rounds)
    /// before a task fails terminally.
    pub max_task_attempts: u32,
    /// Store compaction floor: at least this many WAL records between
    /// snapshots, and at least the last snapshot's size in WAL bytes (see
    /// [`JobStoreConfig::snapshot_every`]).
    pub snapshot_every: u64,
    /// Probe the SeD fleet this often (`None` disables the heartbeat).
    pub heartbeat: Option<Duration>,
    /// Per-probe reply deadline.
    pub heartbeat_timeout: Duration,
    /// Consecutive missed probes before a machine is declared dead.
    pub heartbeat_misses: u32,
    /// Poll interval for DAG task payloads.
    pub dag_poll: Duration,
    /// Give up on a DAG payload after this long.
    pub dag_timeout: Duration,
}

impl JobServerConfig {
    pub fn new(dir: impl Into<PathBuf>) -> JobServerConfig {
        JobServerConfig {
            dir: dir.into(),
            workers: 4,
            retry: RetryPolicy {
                attempt_timeout: Duration::from_secs(10),
                max_retries: 3,
                backoff_base: Duration::from_millis(20),
                backoff_cap: Duration::from_millis(500),
                jitter: 0.5,
            },
            max_task_attempts: 8,
            snapshot_every: 4096,
            heartbeat: Some(Duration::from_millis(500)),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 2,
            dag_poll: Duration::from_millis(50),
            dag_timeout: Duration::from_secs(120),
        }
    }
}

/// Most `Call` claims one dispatcher takes at once: their findings go to
/// the MA together, and their calls go out one lane per SeD found. A
/// dispatcher starts at one claim and doubles its window after each window
/// whose calls were cheap next to their findings (see `run_window`).
const WINDOW: usize = 32;

/// A claim's dispatch round: which task, and what the round has logged.
struct Round {
    cid: u64,
    tid: u64,
    epoch: u32,
    /// The attempt count of the round's last logged dispatch (`None`
    /// before the first).
    prior: Option<u32>,
    /// Stopping, or the heartbeat requeued the task under us: the claim
    /// replays (or already replayed) elsewhere, so record nothing.
    abandoned: bool,
}

impl Round {
    fn new(claim: &PoppedTask) -> Round {
        Round {
            cid: claim.campaign_id,
            tid: claim.task_id,
            epoch: claim.epoch,
            prior: None,
            abandoned: false,
        }
    }
}

/// One `Call` claim of a window, with what was fetched for its first
/// attempt.
struct Flight<'a> {
    round: Round,
    profile: Profile,
    /// Frames the claim's whole round.
    span: Span<'a>,
    /// When the claim's round began: the send of its first finding.
    started: Instant,
    /// The first finding: a SeD label, or why there was none.
    found: Result<String, DietError>,
    /// The first attempt's outcome and how long it took, when the finding
    /// found a SeD.
    first: Option<(Solved, Duration)>,
}

/// The claims of a window found for one SeD. Their calls go out one at a
/// time: the next when the last one's reply is in.
struct Lane<'a> {
    label: String,
    queue: VecDeque<Flight<'a>>,
}

/// A lane's call on the wire: the lane, the claim, the sent call and when
/// it was sent.
type Launched<'a> = (usize, Flight<'a>, Result<SentCall, DietError>, Instant);

/// What one attempt returns: the solved profile, its queue wait and its
/// solve time, as the SeD measured them.
type Solved = Result<(Profile, f64, f64), DietError>;

/// The remote MA as one claim's finding route, its first finding already
/// fetched with the window's.
struct Ahead<'a> {
    ma: &'a RemoteAgentClient,
    store: &'a JobStore,
    first: Cell<Option<Result<String, DietError>>>,
}

impl Route for Ahead<'_> {
    type Target = String;
    fn find(
        &self,
        service: &str,
        data_ids: &[String],
        exclude: &[String],
        ctx: obs::TraceCtx,
    ) -> Result<String, DietError> {
        if let Some(found) = self.first.take() {
            return found;
        }
        // Stopping: no further finding, and nothing retries a rejection.
        if self.store.is_closed() {
            return Err(DietError::Rejected("stopping".into()));
        }
        self.ma.find(service, data_ids, exclude, ctx)
    }
    fn label(label: &String) -> &str {
        label
    }
    fn report(&self, label: &String, ok: bool) {
        self.ma.report(label, ok)
    }
}

/// The campaign jobserver: durable store + dispatcher pool + heartbeat,
/// executing through a remote MA (finding) and the SeD pool (solving).
pub struct JobServer {
    store: Arc<JobStore>,
    ma: Arc<RemoteAgentClient>,
    pool: Arc<TcpSedPool>,
    machines: MachinePool,
    obs: Arc<Obs>,
    cfg: JobServerConfig,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The fleet probe, when `cfg.heartbeat` is set.
    heartbeat: Option<Periodic>,
}

impl JobServer {
    /// Open (recovering) the store under `cfg.dir` and start the
    /// dispatcher and heartbeat threads.
    pub fn spawn(
        cfg: JobServerConfig,
        ma: Arc<RemoteAgentClient>,
        pool: Arc<TcpSedPool>,
        obs: Arc<Obs>,
    ) -> Result<Arc<JobServer>, DietError> {
        let store = JobStore::open(
            &cfg.dir,
            JobStoreConfig {
                snapshot_every: cfg.snapshot_every,
                ..JobStoreConfig::default()
            },
            obs.clone(),
        )?;
        let machines = MachinePool::new(pool.clone(), obs.clone());
        let js = Arc::new_cyclic(|me: &Weak<JobServer>| {
            let heartbeat = cfg.heartbeat.map(|interval| {
                let me = me.clone();
                Periodic::spawn(interval, move || {
                    if let Some(js) = me.upgrade() {
                        js.heartbeat_tick();
                    }
                })
            });
            JobServer {
                store,
                ma,
                pool,
                machines,
                obs,
                cfg,
                threads: Mutex::new(Vec::new()),
                heartbeat,
            }
        });
        let threads = (0..js.cfg.workers.max(1))
            .map(|_| {
                let me = js.clone();
                std::thread::spawn(move || me.dispatch_loop())
            })
            .collect();
        *js.threads.lock() = threads;
        Ok(js)
    }

    pub fn store(&self) -> &Arc<JobStore> {
        &self.store
    }

    /// Stop dispatchers and the heartbeat; in-flight attempts finish.
    pub fn shutdown(&self) {
        self.store.close();
        if let Some(heartbeat) = &self.heartbeat {
            heartbeat.stop();
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn dispatch_loop(&self) {
        let mut size = 1;
        while !self.store.is_closed() {
            // A window: the `Call` claims pending now, up to `size`, the
            // first of them waited for. A `Dag` claim closes the window and
            // runs after it.
            let mut calls = Vec::new();
            let mut dag = None;
            let mut wait = Duration::from_millis(100);
            while calls.len() < size {
                let Some(claim) = self.store.next_task(wait) else {
                    break;
                };
                wait = Duration::ZERO;
                match claim.payload.clone() {
                    TaskPayload::Call(profile) => calls.push((Round::new(&claim), profile)),
                    TaskPayload::Dag(spec) => {
                        dag = Some((claim, spec));
                        break;
                    }
                }
            }
            if !calls.is_empty() {
                size = if self.run_window(calls) {
                    (size * 2).min(WINDOW)
                } else {
                    1
                };
            }
            if let Some((claim, spec)) = dag {
                let span = self.task_span();
                self.run_dag(&claim, spec, span.ctx());
            }
            let _ = self.store.maybe_snapshot();
        }
    }

    fn heartbeat_tick(&self) {
        let newly_dead = self
            .machines
            .probe_all(self.cfg.heartbeat_timeout, self.cfg.heartbeat_misses);
        for label in newly_dead {
            let moved = self.store.requeue_dead_sed(&label);
            if moved > 0 {
                self.obs
                    .metrics
                    .counter("diet_jobserver_redispatch_total")
                    .add(moved as u64);
            }
        }
    }

    /// The span that frames one task's dispatch round, in a trace of its
    /// own.
    fn task_span(&self) -> Span<'_> {
        let tracer = &self.obs.tracer;
        tracer.span(tracer.new_trace(), 0, "task", "jobserver")
    }

    /// One dispatch round for a window of plain calls. Every claim's
    /// finding goes to the MA before any answer is waited on. The calls
    /// then go out in one lane per SeD found, each lane with one call on
    /// the wire at a time. So the findings and the calls to different SeDs
    /// overlap on the wire, while a SeD still queues at most one call per
    /// dispatcher, and no call's deadline is spent behind its siblings in
    /// the SeD's queue. Each claim then runs its round through `run_call`.
    ///
    /// Returns whether the window paid: some call was served, and the
    /// SeDs' own time for the served calls (queue wait plus solve, as
    /// their replies report) was less than the findings' round trips.
    /// Otherwise a window saves little, and its findings go stale while
    /// their claims wait in a lane: a load-aware MA sends the whole window
    /// to the SeD that looked idle when it was asked.
    fn run_window(&self, calls: Vec<(Round, Profile)>) -> bool {
        let exclude = self.machines.dead_labels();
        let asked: Vec<_> = calls
            .into_iter()
            .map(|(round, profile)| {
                let started = Instant::now();
                let span = self.task_span();
                let answer = self.ma.send_submit(&profile.service, &exclude, span.ctx());
                (round, profile, span, started, answer)
            })
            .collect();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut later = Vec::new();
        let mut finding = 0.0;
        for (round, profile, span, started, answer) in asked {
            let found = answer.and_then(SentSubmit::wait).and_then(|server| {
                server.ok_or_else(|| DietError::NoServerAvailable(profile.service.clone()))
            });
            finding += started.elapsed().as_secs_f64();
            let label = found.as_ref().ok().cloned();
            let flight = Flight {
                round,
                profile,
                span,
                started,
                found,
                first: None,
            };
            let Some(label) = label else {
                later.push(flight);
                continue;
            };
            match lanes.iter_mut().find(|lane| lane.label == label) {
                Some(lane) => lane.queue.push_back(flight),
                None => lanes.push(Lane {
                    label,
                    queue: VecDeque::from([flight]),
                }),
            }
        }
        // Replies are waited on in the order the calls went out, so each
        // wait starts before its own deadline and a reply that came in
        // time is never read as late. A claim whose first attempt was
        // served finishes at once; any other backs off only once every
        // reply is in.
        let mut out: VecDeque<_> = (0..lanes.len())
            .filter_map(|k| self.launch_next(&mut lanes, k))
            .collect();
        let mut solving = None;
        while let Some((k, mut flight, call, t0)) = out.pop_front() {
            flight.first = Some((call.and_then(SentCall::wait), t0.elapsed()));
            out.extend(self.launch_next(&mut lanes, k));
            if let Some((Ok((_, queue_wait, solve)), _)) = flight.first {
                *solving.get_or_insert(0.0) += queue_wait + solve;
                self.run_call(flight);
            } else {
                later.push(flight);
            }
        }
        for flight in later {
            // Stopping: the rest stay claimed in the WAL and replay on
            // restart.
            if self.store.is_closed() {
                break;
            }
            self.run_call(flight);
        }
        solving.is_some_and(|solving| solving < finding)
    }

    /// Launch the next claim of lane `k`, if it has one.
    fn launch_next<'a>(&self, lanes: &mut [Lane<'a>], k: usize) -> Option<Launched<'a>> {
        let Lane { label, queue } = &mut lanes[k];
        let mut flight = queue.pop_front()?;
        let t0 = Instant::now();
        let profile = flight.profile.clone();
        let call = self.launch(&mut flight.round, label, profile, flight.span.ctx());
        Some((k, flight, call, t0))
    }

    /// Log a dispatch of the round's claim to `label`, then put its `Call`
    /// on the wire: no call goes out before its `Dispatched` record is
    /// written. Stopping, or a claim gone stale, abandons the round.
    fn launch(
        &self,
        round: &mut Round,
        label: &str,
        profile: Profile,
        ctx: obs::TraceCtx,
    ) -> Result<SentCall, DietError> {
        if self.store.is_closed() {
            round.abandoned = true;
            return Err(DietError::Rejected("stopping".into()));
        }
        let Some(attempt) =
            self.store
                .dispatched(round.cid, round.tid, round.epoch, round.prior, label)
        else {
            round.abandoned = true;
            return Err(DietError::Rejected("stale claim".into()));
        };
        round.prior = Some(attempt);
        let timeout = self.cfg.retry.attempt_timeout;
        self.pool.send_call(label, profile, timeout, ctx)
    }

    /// A claim's dispatch round: the client's retry loop over the remote
    /// MA and the SeD pool, with the store's bookkeeping in its attempt —
    /// each attempt is launched as a logged dispatch, and a success
    /// completes the task. The first attempt takes the finding and the
    /// outcome fetched with the window. What the store owns (the
    /// cross-round budget and the requeue) stays here.
    fn run_call(&self, flight: Flight) {
        let Flight {
            mut round,
            profile,
            span,
            started,
            found,
            mut first,
        } = flight;
        let route = Ahead {
            ma: &self.ma,
            store: &self.store,
            first: Cell::new(Some(found)),
        };
        // No per-attempt spans: the task span frames the round, and three
        // more spans a task would fill the tracer's ring four times as fast.
        let (result, _) = retry_loop(
            &route,
            None,
            span.ctx(),
            &profile,
            &self.cfg.retry,
            self.machines.dead_labels(),
            |label: &String, p, ctx| {
                let (out, took) = first.take().unwrap_or_else(|| {
                    let t0 = Instant::now();
                    let out = self.launch(&mut round, label, p, ctx);
                    (out.and_then(SentCall::wait), t0.elapsed())
                });
                let out = out?;
                let attempt = round.prior.expect("a served call was launched");
                let ms = took.as_millis() as u64;
                let (cid, tid, epoch) = (round.cid, round.tid, round.epoch);
                self.store.complete(cid, tid, epoch, attempt, label, ms);
                Ok(out)
            },
            |_, _| false,
        );
        match result {
            Err(_) if round.abandoned || self.store.is_closed() => {}
            Ok(_) => self
                .obs
                .metrics
                .histogram("diet_jobserver_dispatch_ms")
                .observe(started.elapsed().as_millis() as f64),
            // An exhausted round requeues while the task's budget lasts;
            // anything else would fail the same way on any server.
            Err(e) => {
                let terminal = !matches!(e, DietError::RetriesExhausted { .. });
                let max = self.cfg.max_task_attempts;
                self.store.fail(
                    round.cid,
                    round.tid,
                    round.epoch,
                    &e.to_string(),
                    max,
                    terminal,
                );
            }
        }
    }

    /// A DAG payload: admit the workflow into the MA's engine and poll to
    /// completion. The engine owns node-level retries; a failed outcome is
    /// terminal here.
    fn run_dag(&self, claim: &PoppedTask, spec: WorkflowSpec, ctx: obs::TraceCtx) {
        let Some(attempt) =
            self.store
                .dispatched(claim.campaign_id, claim.task_id, claim.epoch, None, "dag")
        else {
            return;
        };
        let dag_id = match self.ma.submit_dag(&spec, ctx) {
            Ok(id) => id,
            Err(e) => {
                let terminal = !is_retryable(&e) && !matches!(e, DietError::Busy);
                self.store.fail(
                    claim.campaign_id,
                    claim.task_id,
                    claim.epoch,
                    &format!("dag admit: {e}"),
                    self.cfg.max_task_attempts,
                    terminal,
                );
                return;
            }
        };
        let t0 = Instant::now();
        let mut since = 0u64;
        loop {
            if self.store.is_closed() {
                return;
            }
            if t0.elapsed() > self.cfg.dag_timeout {
                self.store.fail(
                    claim.campaign_id,
                    claim.task_id,
                    claim.epoch,
                    "dag timed out",
                    self.cfg.max_task_attempts,
                    false,
                );
                return;
            }
            match self.ma.dag_status(dag_id, since) {
                Ok((events, outcome)) => {
                    if let Some(last) = events.last() {
                        since = last.seq;
                    }
                    if let Some(o) = outcome {
                        if o.ok {
                            self.store.complete(
                                claim.campaign_id,
                                claim.task_id,
                                claim.epoch,
                                attempt,
                                "dag",
                                o.makespan_ms,
                            );
                        } else {
                            self.store.fail(
                                claim.campaign_id,
                                claim.task_id,
                                claim.epoch,
                                "dag failed",
                                self.cfg.max_task_attempts,
                                true,
                            );
                        }
                        return;
                    }
                }
                Err(e) if is_retryable(&e) || matches!(e, DietError::Busy) => {}
                Err(e) => {
                    self.store.fail(
                        claim.campaign_id,
                        claim.task_id,
                        claim.epoch,
                        &format!("dag poll: {e}"),
                        self.cfg.max_task_attempts,
                        true,
                    );
                    return;
                }
            }
            std::thread::sleep(self.cfg.dag_poll);
        }
    }
}

// ------------------------------------------------------------------ serving

/// Serve a [`JobServer`]'s client protocol on `addr` with the reactor
/// core: SubmitTasks / AttachCampaign / CampaignProgress / TaskStatus,
/// plus Ping and the correlated metrics dump.
pub fn serve_jobserver_over_tcp(
    js: Arc<JobServer>,
    addr: impl std::net::ToSocketAddrs + Clone,
    cfg: ServerConfig,
) -> Result<TcpServer, DietError> {
    let obs = js.obs.clone();
    TcpServer::spawn_framed(addr, cfg, move |h, msg, _| {
        let reply = match msg {
            Message::SubmitTasks {
                request_id,
                campaign,
                tasks,
            } => Message::SubmitTasksReply {
                request_id,
                result: js.store.submit(&campaign, tasks).map_err(|e| e.to_string()),
            },
            Message::AttachCampaign {
                request_id,
                campaign,
            } => Message::AttachReply {
                request_id,
                result: js
                    .store
                    .attach(&campaign)
                    .ok_or_else(|| format!("unknown campaign {campaign:?}")),
            },
            Message::CampaignProgress {
                request_id,
                campaign_id,
                cursor,
            } => Message::ProgressReply {
                request_id,
                result: js
                    .store
                    .progress(campaign_id, cursor)
                    .map_err(|e| e.to_string()),
            },
            Message::TaskStatus {
                request_id,
                campaign_id,
                task_id,
            } => Message::TaskStatusReply {
                request_id,
                result: js
                    .store
                    .task_status(campaign_id, task_id)
                    .ok_or_else(|| format!("unknown task {campaign_id}/{task_id}")),
            },
            Message::Ping { request_id } => Message::Pong { request_id },
            Message::DumpMetricsRid { request_id, .. } => Message::MetricsReplyRid {
                request_id,
                text: obs.metrics.render_prometheus(),
            },
            _ => return None,
        };
        let _ = h.send(&reply);
        None
    })
}

// ------------------------------------------------------------------- client

/// Client stub for a jobserver: one lazily-dialed multiplexed connection,
/// redialed when dead, shared by any number of threads.
pub struct JobClient {
    peer: Peer,
    timeout: Duration,
}

impl JobClient {
    pub fn connect(addr: SocketAddr) -> Arc<JobClient> {
        Self::with_timeout(addr, Duration::from_secs(5))
    }

    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Arc<JobClient> {
        Arc::new(JobClient {
            peer: Peer::new(addr),
            timeout,
        })
    }

    /// Liveness probe on this client's shared connection: did the
    /// jobserver answer within `timeout`?
    pub fn ping(&self, timeout: Duration) -> bool {
        self.peer.ping(timeout)
    }

    /// Submit (or idempotently re-attach to) a campaign; returns the
    /// campaign id and the per-campaign task ids.
    pub fn submit_tasks(
        &self,
        campaign: &str,
        tasks: Vec<TaskPayload>,
    ) -> Result<(u64, Vec<u64>), DietError> {
        let build = |request_id| Message::SubmitTasks {
            request_id,
            campaign: campaign.to_string(),
            tasks,
        };
        match self.peer.request(build, self.timeout)? {
            Message::SubmitTasksReply { result, .. } => result.map_err(DietError::Rejected),
            other => Err(unexpected("submit_tasks", other)),
        }
    }

    pub fn attach(&self, campaign: &str) -> Result<CampaignSummary, DietError> {
        let build = |request_id| Message::AttachCampaign {
            request_id,
            campaign: campaign.to_string(),
        };
        match self.peer.request(build, self.timeout)? {
            Message::AttachReply { result, .. } => result.map_err(DietError::Rejected),
            other => Err(unexpected("attach", other)),
        }
    }

    /// Poll the progress feed from `cursor` (0 = from the start of what
    /// the server retains). Returns the summary and events with
    /// `seq > cursor`; advance the cursor to the last event's `seq`.
    pub fn progress(
        &self,
        campaign_id: u64,
        cursor: u64,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        let build = |request_id| Message::CampaignProgress {
            request_id,
            campaign_id,
            cursor,
        };
        match self.peer.request(build, self.timeout)? {
            Message::ProgressReply { result, .. } => result.map_err(DietError::Rejected),
            other => Err(unexpected("progress", other)),
        }
    }

    pub fn task_status(&self, campaign_id: u64, task_id: u64) -> Result<TaskStatusRec, DietError> {
        let build = |request_id| Message::TaskStatus {
            request_id,
            campaign_id,
            task_id,
        };
        match self.peer.request(build, self.timeout)? {
            Message::TaskStatusReply { result, .. } => result.map_err(DietError::Rejected),
            other => Err(unexpected("task_status", other)),
        }
    }

    /// Poll until the campaign finishes (every task terminal), collecting
    /// the whole event feed from cursor 0. Transport errors are retried
    /// within the deadline — the server may be restarting mid-campaign.
    pub fn wait(
        &self,
        campaign_id: u64,
        poll: Duration,
        timeout: Duration,
    ) -> Result<(CampaignSummary, Vec<TaskEventRec>), DietError> {
        let deadline = Instant::now() + timeout;
        let mut cursor = 0u64;
        let mut events = Vec::new();
        loop {
            match self.progress(campaign_id, cursor) {
                Ok((summary, batch)) => {
                    if let Some(last) = batch.last() {
                        cursor = last.seq;
                    }
                    events.extend(batch);
                    if summary.finished {
                        return Ok((summary, events));
                    }
                }
                Err(DietError::Rejected(e)) => return Err(DietError::Rejected(e)),
                Err(_) => {} // server restarting; keep polling
            }
            if Instant::now() >= deadline {
                return Err(DietError::Timeout {
                    after_secs: timeout.as_secs_f64(),
                });
            }
            std::thread::sleep(poll);
        }
    }
}

// -------------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DietValue;
    use crate::profile::ProfileDesc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "diet-jobserver-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn call_payload(x: i32) -> TaskPayload {
        let mut d = ProfileDesc::alloc("echo", 0, 0, 1);
        d.set_arg(0, crate::profile::ArgTag::Scalar).unwrap();
        d.set_arg(1, crate::profile::ArgTag::Scalar).unwrap();
        let mut p = Profile::alloc(&d);
        p.set(
            0,
            DietValue::ScalarI32(x),
            crate::data::Persistence::Volatile,
        )
        .unwrap();
        TaskPayload::Call(p)
    }

    fn store(dir: &Path) -> Arc<JobStore> {
        JobStore::open(dir, JobStoreConfig::default(), Arc::new(Obs::new())).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A batch is the bytes of one `append` per record, in one write; a
    /// batch holding an oversized record writes none of them.
    #[test]
    fn append_all_writes_what_appending_each_would() {
        let dir = tmpdir("wal-batch");
        let records: [&[u8]; 3] = [b"alpha", b"", b"beta-beta"];
        let (mut one_by_one, _) = JobLog::open(dir.join("each.log")).unwrap();
        for r in records {
            one_by_one.append(r).unwrap();
        }
        let (mut batched, _) = JobLog::open(dir.join("batch.log")).unwrap();
        batched.append_all(records).unwrap();
        assert_eq!(
            std::fs::read(dir.join("batch.log")).unwrap(),
            std::fs::read(dir.join("each.log")).unwrap()
        );
        assert_eq!(
            (batched.records(), batched.bytes()),
            (one_by_one.records(), one_by_one.bytes())
        );

        let huge = vec![0u8; MAX_WAL_RECORD + 1];
        let refused = [b"gamma".as_slice(), &huge];
        assert!(batched.append_all(refused).is_err());
        assert_eq!(batched.records(), 3);
        let (_, recovered) = JobLog::open(dir.join("batch.log")).unwrap();
        assert_eq!(recovered, records.map(<[u8]>::to_vec));
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = tmpdir("wal");
        let path = dir.join("t.log");
        {
            let (mut log, recovered) = JobLog::open(&path).unwrap();
            assert!(recovered.is_empty());
            log.append(b"alpha").unwrap();
            log.append(b"beta-beta").unwrap();
        }
        // Corrupt the tail: append garbage that frames as a record start.
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3, 4, 42]);
        std::fs::write(&path, &bytes).unwrap();
        let (log, recovered) = JobLog::open(&path).unwrap();
        assert_eq!(recovered, vec![b"alpha".to_vec(), b"beta-beta".to_vec()]);
        assert_eq!(log.records(), 2);
        // The torn tail was truncated away.
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, good);
    }

    #[test]
    fn submit_is_idempotent_by_name() {
        let dir = tmpdir("idem");
        let s = store(&dir);
        let (cid, ids) = s
            .submit("camp", vec![call_payload(1), call_payload(2)])
            .unwrap();
        let (cid2, ids2) = s.submit("camp", vec![call_payload(1)]).unwrap();
        assert_eq!(cid, cid2);
        assert_eq!(ids, ids2);
        assert_eq!(s.summary(cid).unwrap().total, 2);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn state_machine_and_recovery() {
        let dir = tmpdir("recover");
        let cid;
        {
            let s = store(&dir);
            let (c, ids) = s
                .submit(
                    "camp",
                    vec![call_payload(1), call_payload(2), call_payload(3)],
                )
                .unwrap();
            cid = c;
            assert_eq!(ids, vec![0, 1, 2]);
            // Task 0: dispatched and done.
            let t0 = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t0.task_id, t0.epoch, None, "lyon/0")
                .unwrap();
            assert!(s.complete(cid, t0.task_id, t0.epoch, a, "lyon/0", 7));
            // Task 1: dispatched, then the process "crashes" mid-flight.
            let t1 = s.next_task(Duration::from_millis(10)).unwrap();
            s.dispatched(cid, t1.task_id, t1.epoch, None, "lyon/1")
                .unwrap();
            // Task 2 stays pending.
        }
        let s = store(&dir);
        assert_eq!(s.recovered_done(), 1);
        assert_eq!(s.recovered_inflight(), 1);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 1);
        assert_eq!(sum.failed, 0);
        // Both the in-flight and the pending task are queued again; the
        // done task is not.
        let mut queued = Vec::new();
        while let Some(t) = s.next_task(Duration::from_millis(10)) {
            queued.push(t.task_id);
        }
        queued.sort_unstable();
        assert_eq!(queued, vec![1, 2]);
        let st = s.task_status(cid, 0).unwrap();
        assert_eq!(st.state, TaskState::Done);
        assert_eq!(st.sed, "lyon/0");
    }

    #[test]
    fn stale_claims_are_dropped() {
        let dir = tmpdir("stale");
        let s = store(&dir);
        let (cid, _) = s.submit("camp", vec![call_payload(1)]).unwrap();
        let t = s.next_task(Duration::from_millis(10)).unwrap();
        let a = s.dispatched(cid, 0, t.epoch, None, "lyon/0").unwrap();
        // Heartbeat decides lyon/0 died and requeues the task.
        assert_eq!(s.requeue_dead_sed("lyon/0"), 1);
        // The original dispatcher's outcome is now stale.
        assert!(!s.complete(cid, 0, t.epoch, a, "lyon/0", 5));
        assert_eq!(
            s.fail(cid, 0, t.epoch, "late", 8, false),
            FailOutcome::Stale
        );
        // The requeued claim works fine.
        let t2 = s.next_task(Duration::from_millis(10)).unwrap();
        assert_ne!(t2.epoch, t.epoch);
        let a2 = s.dispatched(cid, 0, t2.epoch, None, "lyon/1").unwrap();
        assert_eq!(a2, 2);
        assert!(s.complete(cid, 0, t2.epoch, a2, "lyon/1", 5));
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 1);
        assert_eq!(sum.resubmissions, 1);
        assert!(sum.finished);
    }

    #[test]
    fn fail_budget_terminates() {
        let dir = tmpdir("budget");
        let s = store(&dir);
        let (cid, _) = s.submit("camp", vec![call_payload(1)]).unwrap();
        let max = 3u32;
        let mut rounds = 0;
        loop {
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            s.dispatched(cid, 0, t.epoch, None, "lyon/0").unwrap();
            rounds += 1;
            match s.fail(cid, 0, t.epoch, "boom", max, false) {
                FailOutcome::Requeued => continue,
                FailOutcome::Terminal => break,
                FailOutcome::Stale => panic!("claim can't be stale here"),
            }
        }
        assert_eq!(rounds, max as usize);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.failed, 1);
        assert!(sum.finished);
        assert_eq!(s.task_status(cid, 0).unwrap().state, TaskState::Failed);
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = tmpdir("snap");
        let cid;
        {
            let s = store(&dir);
            let (c, _) = s
                .submit("camp", (0..10).map(call_payload).collect())
                .unwrap();
            cid = c;
            for _ in 0..4 {
                let t = s.next_task(Duration::from_millis(10)).unwrap();
                let a = s
                    .dispatched(cid, t.task_id, t.epoch, None, "sed/0")
                    .unwrap();
                assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/0", 3));
            }
            s.snapshot_now().unwrap();
            // Post-snapshot activity lands in the fresh WAL tail.
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t.task_id, t.epoch, None, "sed/1")
                .unwrap();
            assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/1", 3));
            assert!(s.snapshot_path().exists());
        }
        let s = store(&dir);
        let sum = s.summary(cid).unwrap();
        assert_eq!(sum.done, 5);
        assert_eq!(sum.total, 10);
        assert_eq!(s.recovered_done(), 5);
        // Progress cursors: events regenerated from the tail only, but
        // sequence numbers continue from the snapshot's next_seq.
        let (_, events) = s.progress(cid, 0).unwrap();
        assert!(!events.is_empty());
        assert!(events.first().unwrap().seq > 1);
    }

    /// Drive one store through `campaigns` campaigns of ten tasks, asking
    /// for a snapshot after every submit and every task the way the
    /// dispatchers do. Each `on_check` sees the store right after a
    /// `maybe_snapshot`; returns `(snapshot sizes, WAL bytes appended)`.
    fn run_campaigns(
        s: &JobStore,
        first: usize,
        campaigns: usize,
        mut on_check: impl FnMut(&StoreInner),
    ) -> (Vec<u64>, u64) {
        let mut sizes = Vec::new();
        let mut appended = 0;
        let mut check = |sizes: &mut Vec<u64>, appended: &mut u64| {
            let before = s.inner.lock().wal.bytes();
            if s.maybe_snapshot().unwrap() {
                *appended += before;
                sizes.push(s.inner.lock().snapshot_bytes);
            }
            on_check(&s.inner.lock());
        };
        for c in first..first + campaigns {
            let (cid, _) = s
                .submit(&format!("c{c}"), (0..10).map(call_payload).collect())
                .unwrap();
            check(&mut sizes, &mut appended);
            while let Some(t) = s.next_task(Duration::ZERO) {
                let a = s
                    .dispatched(cid, t.task_id, t.epoch, None, "sed/0")
                    .unwrap();
                assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/0", 1));
                check(&mut sizes, &mut appended);
            }
        }
        (sizes, appended + s.inner.lock().wal.bytes())
    }

    /// The trigger: a snapshot waits for `snapshot_every` records and for
    /// the WAL to have grown by the last snapshot's size, so compaction
    /// writes no more than the log does and snapshots thin out as the
    /// store grows; the log stays within one snapshot plus the floor.
    #[test]
    fn snapshots_are_paid_for_by_wal_growth() {
        const FLOOR: u64 = 16;
        let dir = tmpdir("amortised");
        let cfg = JobStoreConfig {
            snapshot_every: FLOOR,
            ..JobStoreConfig::default()
        };
        let open = || JobStore::open(&dir, cfg.clone(), Arc::new(Obs::new())).unwrap();
        let s = open();
        // The largest frame this run logs (every field is fixed-width but
        // the campaign name), so `FLOOR` records are at most `floor_bytes`.
        let frame = |rec: WalRec| 8 + encode_wal_rec(u64::MAX, &rec).len() as u64;
        let max_frame = [
            frame(WalRec::CampaignCreate {
                cid: 400,
                name: "c399".into(),
            }),
            frame(WalRec::TaskAdd {
                cid: 400,
                tid: 9,
                payload: call_payload(0),
            }),
            frame(WalRec::Transition {
                cid: 400,
                tid: 9,
                state: TaskState::Done,
                attempts: 1,
                sed: "sed/0".into(),
                ms: 1,
                note: String::new(),
            }),
        ]
        .into_iter()
        .max()
        .unwrap();
        let floor_bytes = FLOOR * max_frame;
        let mut bounded = |inner: &StoreInner| {
            let wal = inner.wal.bytes();
            assert!(
                inner.since_snapshot < FLOOR || wal < inner.snapshot_bytes,
                "a due snapshot was not taken: {} records, {wal} B of WAL, last snapshot {} B",
                inner.since_snapshot,
                inner.snapshot_bytes
            );
            assert!(wal <= inner.snapshot_bytes.max(floor_bytes));
        };
        let (quarter, wal_quarter) = run_campaigns(&s, 0, 100, &mut bounded);
        let (rest, wal_rest) = run_campaigns(&s, 100, 300, &mut bounded);
        let sizes: Vec<u64> = quarter.iter().chain(&rest).copied().collect();
        let (n, total) = (sizes.len(), sizes.iter().sum::<u64>());
        let wal = wal_quarter + wal_rest;
        // Every snapshot but the last was paid for by the log growth that
        // triggered the next one.
        assert!(n > 2, "only {n} snapshots");
        assert!(
            total - sizes[n - 1] <= wal,
            "snapshots wrote {total} B against {wal} B of WAL"
        );
        // 4× the records take far fewer than 4× the snapshots (the floor
        // alone would take 12 400 / 16 = 775).
        assert!(
            n < 2 * quarter.len(),
            "{} snapshots after 100 campaigns, {n} after 400",
            quarter.len()
        );
        // The log on disk: within the last snapshot plus the floor.
        let wal_len = std::fs::metadata(s.wal_path()).unwrap().len();
        let snap_len = std::fs::metadata(s.snapshot_path()).unwrap().len();
        assert_eq!(snap_len, sizes[n - 1]);
        assert!(wal_len <= snap_len.max(floor_bytes));

        // Reopening: the same summaries, and the counters are seeded from
        // disk, so the next snapshot is neither immediate nor forgotten.
        let summaries = s.campaigns();
        drop(s);
        let s = open();
        assert_eq!(s.campaigns(), summaries);
        {
            let inner = s.inner.lock();
            assert_eq!(inner.snapshot_bytes, snap_len);
            assert_eq!(inner.wal.bytes(), wal_len);
        }
        let due = {
            let inner = s.inner.lock();
            inner.since_snapshot >= FLOOR && inner.wal.bytes() >= inner.snapshot_bytes
        };
        assert_eq!(s.maybe_snapshot().unwrap(), due);
        assert!(!due, "the last check before the reopen left a snapshot due");
    }

    #[test]
    fn events_paginate_by_cursor() {
        let dir = tmpdir("cursor");
        let s = store(&dir);
        let (cid, _) = s
            .submit("camp", vec![call_payload(1), call_payload(2)])
            .unwrap();
        for _ in 0..2 {
            let t = s.next_task(Duration::from_millis(10)).unwrap();
            let a = s
                .dispatched(cid, t.task_id, t.epoch, None, "sed/0")
                .unwrap();
            assert!(s.complete(cid, t.task_id, t.epoch, a, "sed/0", 1));
        }
        let (sum, all) = s.progress(cid, 0).unwrap();
        assert!(sum.finished);
        assert_eq!(all.len(), 4); // 2 × (Dispatched, Done)
        let mid = all[1].seq;
        let (_, rest) = s.progress(cid, mid).unwrap();
        assert_eq!(rest.len(), 2);
        assert!(rest.iter().all(|e| e.seq > mid));
    }

    fn wal_samples() -> Vec<(u64, WalRec)> {
        use crate::codec::tests::{sample_profile, sample_workflow};
        let transition = |state, ms, note: &str| WalRec::Transition {
            cid: 3,
            tid: 0,
            state,
            attempts: 1,
            sed: "sophia/2".into(),
            ms,
            note: note.into(),
        };
        vec![
            (
                10,
                WalRec::CampaignCreate {
                    cid: 3,
                    name: "gamma".into(),
                },
            ),
            (
                11,
                WalRec::TaskAdd {
                    cid: 3,
                    tid: 0,
                    payload: TaskPayload::Call(sample_profile()),
                },
            ),
            (
                12,
                WalRec::TaskAdd {
                    cid: 3,
                    tid: 1,
                    payload: TaskPayload::Dag(sample_workflow()),
                },
            ),
            (13, transition(TaskState::Dispatched, 0, "")),
            (14, transition(TaskState::Done, 41, "ok")),
        ]
    }

    /// Two campaigns as a snapshot at LSN 9 holds them: every task state,
    /// both payload kinds.
    fn snapshot_sample() -> Vec<Campaign> {
        let task = |payload, state, attempts, sed: &str| TaskRec {
            payload,
            state,
            attempts,
            epoch: 0,
            sed: sed.into(),
        };
        let campaign = |id, name: &str, tasks, next_seq, resubmissions, done, failed| Campaign {
            id,
            name: name.into(),
            tasks,
            events: VecDeque::new(),
            next_seq,
            resubmissions,
            done,
            failed,
        };
        vec![
            campaign(
                1,
                "alpha",
                vec![
                    task(call_payload(1), TaskState::Done, 1, "lyon/0"),
                    task(call_payload(2), TaskState::Dispatched, 2, "lyon/1"),
                    task(call_payload(3), TaskState::Pending, 0, ""),
                ],
                6,
                1,
                1,
                0,
            ),
            campaign(
                2,
                "beta",
                vec![task(
                    TaskPayload::Dag(crate::codec::tests::sample_workflow()),
                    TaskState::Failed,
                    3,
                    "",
                )],
                4,
                2,
                0,
                1,
            ),
        ]
    }

    /// The WAL and snapshot halves of the golden-vector file: the encoders
    /// still produce the committed bytes, the decoders map them back, and
    /// a job directory made of exactly those bytes opens to the same
    /// campaigns, states and attempts.
    #[test]
    fn golden_wal_and_snapshot_bytes_open_as_a_job_directory() {
        use crate::codec::tests::{golden, hex};
        let golden_wal = golden("wal");
        let samples = wal_samples();
        assert_eq!(samples.len(), golden_wal.len());
        let dir = tmpdir("golden");
        let (mut log, _) = JobLog::open(dir.join(WAL_FILE)).unwrap();
        for ((lsn, rec), (name, bytes)) in samples.iter().zip(&golden_wal) {
            assert!(format!("{rec:?}").starts_with(name.as_str()), "{name}");
            assert_eq!(hex(&encode_wal_rec(*lsn, rec)), hex(bytes), "{name}");
            assert_eq!(decode_wal_rec(bytes).unwrap(), (*lsn, rec.clone()));
            for cut in 0..bytes.len() {
                assert!(decode_wal_rec(&bytes[..cut]).is_err(), "{name} cut {cut}");
            }
            log.append(bytes).unwrap();
        }
        let (_, body) = &golden("snapshot")[0];
        assert_eq!(hex(&encode_snapshot(9, &snapshot_sample())), hex(body));

        let snap = [&snapshot_header(body)[..], body].concat();
        std::fs::write(dir.join(SNAPSHOT_FILE), snap).unwrap();
        drop(log);
        let s = store(&dir);
        let status = |cid, tid| {
            let t = s.task_status(cid, tid).unwrap();
            (t.state, t.attempts, t.sed)
        };
        // Snapshot state, with alpha's in-flight task demoted on open.
        assert_eq!(status(1, 0), (TaskState::Done, 1, "lyon/0".into()));
        assert_eq!(status(1, 1), (TaskState::Pending, 2, String::new()));
        assert_eq!(status(1, 2), (TaskState::Pending, 0, String::new()));
        assert_eq!(status(2, 0), (TaskState::Failed, 3, String::new()));
        let alpha = s.summary(1).unwrap();
        assert_eq!(
            (alpha.name.as_str(), alpha.total, alpha.done),
            ("alpha", 3, 1)
        );
        assert_eq!(alpha.resubmissions, 1);
        let beta = s.summary(2).unwrap();
        assert_eq!((beta.failed, beta.finished), (1, true));
        // The WAL tail replayed on top of it.
        assert_eq!(status(3, 0), (TaskState::Done, 1, "sophia/2".into()));
        assert_eq!(status(3, 1), (TaskState::Pending, 0, String::new()));
        assert_eq!(s.summary(3).unwrap().name, "gamma");
        assert_eq!((s.recovered_done(), s.recovered_inflight()), (2, 1));
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn wal_record_with_a_lying_count_is_a_torn_tail_not_an_abort() {
        // [lsn 3][kind TaskAdd][cid 1][tid 1][payload kind Call][profile]:
        // intact framing, a profile claiming 4 Gi arguments inside.
        let mut bad = 3u64.to_le_bytes().to_vec();
        bad.push(2);
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(0);
        bad.extend_from_slice(&crate::codec::tests::HUGE_ARITY_PROFILE);
        assert!(matches!(decode_wal_rec(&bad), Err(DietError::Codec(_))));

        let dir = tmpdir("lying");
        let create = WalRec::CampaignCreate {
            cid: 1,
            name: "camp".into(),
        };
        let add = WalRec::TaskAdd {
            cid: 1,
            tid: 0,
            payload: call_payload(1),
        };
        let (mut log, _) = JobLog::open(dir.join(WAL_FILE)).unwrap();
        for payload in [encode_wal_rec(1, &create), encode_wal_rec(2, &add), bad] {
            log.append(&payload).unwrap();
        }
        drop(log);
        // The records before it replay; the bad one is where the log ends.
        let s = store(&dir);
        assert_eq!(s.summary(1).unwrap().total, 1);
        assert_eq!(s.pending(), 1);
    }
}
