//! # diet-core — a GridRPC middleware in Rust
//!
//! A re-implementation of the DIET middleware architecture the paper builds
//! on: "DIET is built upon the client/agent/server paradigm": **clients**
//! submit problems, a hierarchy of **agents** (one Master Agent, several
//! Local Agents) routes each request to the best **Server Daemon (SeD)**,
//! which runs the registered solve function and ships results back.
//!
//! Where the original used CORBA (omniORB) for its messaging layer, this
//! crate provides its own transport ([`transport`]): framed TCP built on
//! `std::net`, multiplexed per peer. The observable middleware behaviour — typed profiles with
//! IN/INOUT/OUT arguments, service registration, hierarchy traversal,
//! scheduling, data staging — matches the paper's Section 4 walk-through.
//!
//! Module map:
//!
//! * [`data`] — typed values and persistence modes (`DIET_VOLATILE`, …).
//! * [`profile`] — problem profiles: the `diet_profile_desc_t` analog.
//! * [`codec`] — binary wire codec for profiles and control messages.
//! * [`transport`] — framed TCP connections, servers and mux clients.
//! * [`monitor`] — per-SeD load estimates (the FAST/CoRI role).
//! * [`sched`] — plug-in schedulers (the paper's reference \[2\] extension).
//! * [`sed`] — the Server Daemon: service table + worker loop.
//! * [`agent`] — Master/Local Agent hierarchy and request routing.
//! * [`client`] — the GridRPC-style client API (`diet_call` analog).
//! * [`datamgr`] — persistent data management on the server side (bounded
//!   LRU store, sticky pinning).
//! * [`dagda`] — hierarchy-wide data management (DAGDA analog): replica
//!   catalog at the MA, SeD-to-SeD pull resolution, locality accounting.
//! * [`dag`] — the MA-DAG workflow engine: typed task DAGs submitted over
//!   the wire, scheduled node-by-node inside the hierarchy with
//!   data-locality placement, retry, and straggler speculation.
//! * [`jobserver`] — durable campaign jobserver: a crash-recoverable
//!   task queue (WAL + snapshots) dispatching through the hierarchy.
//! * [`deploy`] — deployment descriptions mapping a hierarchy onto a
//!   platform, following the paper's Grid'5000 deployment.
//! * [`error`] — the crate's error type.
//! * [`faults`] — failure injection hooks for fault-tolerance testing.
//! * [`telemetry`] — per-process background flusher shipping spans and
//!   metric deltas to the collector (the LogComponent role).
//! * [`collector`] — the LogCentral analogue: merges every process's
//!   telemetry into one registry/trace store and serves Prometheus,
//!   Chrome-trace, and topology views.
//!
//! Observability (the LogService/VizDIET analogue) comes from the vendored
//! std-only [`obs`] crate: every component owns an [`obs::Obs`] (tracer +
//! metrics registry), trace context crosses the wire inside `Call` frames
//! ([`codec::Message::Call`]), and a deployment that wants one unified view
//! either injects a single shared `Arc<Obs>` via the `*_with_obs`
//! constructors (single-process) or runs a [`collector::Collector`] that
//! distributed components report to over TCP ([`telemetry`]).

pub mod agent;
pub mod client;
pub mod codec;
pub mod collector;
pub mod config;
pub mod dag;
pub mod dagda;
pub mod data;
pub mod datamgr;
pub mod deploy;
pub mod error;
pub mod faults;
pub mod gridrpc;
pub mod hierarchy;
pub mod jobserver;
pub mod monitor;
pub mod naming;
pub mod probe;
pub mod profile;
pub mod reactor;
pub mod sched;
pub mod sed;
pub mod telemetry;
pub mod transport;

pub use agent::{AgentNode, HeartbeatMonitor, MasterAgent};
pub use client::{CallHandle, CallStats, DagHandle, DietClient, RetryPolicy};
pub use codec::ProcessSource;
pub use collector::{serve_collector_over_tcp, Collector, SourceHealth};
pub use config::DietConfig;
pub use dag::{
    DagEngine, DagEngineConfig, DagEventRec, DagExpander, DagInput, DagNodeOutcome, DagNodeSpec,
    DagNodeState, DagOutcome, ExpandCtx, WorkflowSpec,
};
pub use dagda::{DataResolver, ReplicaCatalog, ReplicaInfo};
pub use data::{BaseType, DietValue, Persistence};
pub use datamgr::DataManager;
pub use deploy::TelemetrySpec;
pub use error::DietError;
pub use faults::{FaultAction, FaultPlan};
pub use gridrpc::{grpc_initialize, FunctionHandle, GridRpcSession};
pub use hierarchy::{
    serve_agent_over_tcp_at, serve_ma_over_tcp, serve_ma_over_tcp_with_dag, serve_sed_over_tcp,
    AgentConfig, RemoteAgentClient,
};
pub use jobserver::{
    serve_jobserver_over_tcp, CampaignSummary, FailOutcome, JobClient, JobLog, JobServer,
    JobServerConfig, JobStore, JobStoreConfig, TaskEventRec, TaskPayload, TaskState, TaskStatusRec,
};
pub use monitor::Estimate;
pub use naming::NameServer;
pub use obs::{Obs, TraceCtx};
pub use profile::{ArgDesc, ArgMode, Profile, ProfileDesc};
pub use reactor::ConnHandle;
pub use sched::{DataLocal, MinQueue, RandomSched, RoundRobin, Scheduler, WeightedSpeed};
pub use sed::{SedConfig, SedHandle, ServiceTable};
pub use telemetry::{TelemetryConfig, TelemetryFlusher};
