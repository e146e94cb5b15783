//! Long-lived multi-tenant paging server for the parallel-paging engine.
//!
//! This crate turns the single-shot simulation engine into a service:
//!
//! - [`protocol`] — the length-prefixed, digest-chained wire format
//!   (`b"ppwf"` frames in the mould of the WAL checkpoint log), with
//!   allocation-disciplined decoding that maps every malformed input onto
//!   a typed error.
//! - [`tenant`] — per-tenant sessions: each batch runs under the existing
//!   [`Supervisor`](parapage::sched::Supervisor) with per-epoch WAL
//!   checkpoints, so injected kills are absorbed and live migration rides
//!   the `snapshot()/restore()` path — with byte-identical replies either
//!   way.
//! - [`server`] — the `parapage serve` daemon: TCP accept loop, admission
//!   control (tenant cap, request budgets, connection-cap load shedding),
//!   per-connection session threads with read deadlines, and idle-tenant
//!   expiry to checkpointed state.
//! - [`client`] — a blocking protocol client over a [`chaosnet`]
//!   transport.
//! - [`chaosnet`] — [`FaultyTransport`]: deterministic transport fault
//!   injection (partial writes, stalls, mid-frame cuts, slow-loris),
//!   decided by the pure [`parapage::conform::NetFaultPlan`] model.
//! - [`resilient`] — [`ResilientClient`]: reconnect with jittered capped
//!   backoff, session re-attach, and reply replay — byte-identical reply
//!   streams through transport chaos, or a typed error.
//! - [`netchaos`] — the `parapage chaos --net` matrix: every fault kind ×
//!   cut point × tenant count, checked byte-for-byte against a clean run.
//! - [`drive`](mod@drive) — the `parapage drive` load driver: concurrent tenants,
//!   deterministic workloads, throughput and latency percentiles, and
//!   retry/reconnect/shed accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaosnet;
pub mod client;
pub mod drive;
pub mod netchaos;
pub mod protocol;
pub mod resilient;
pub mod server;
pub mod tenant;

pub use chaosnet::FaultyTransport;
pub use client::Client;
pub use drive::{drive, DriveCfg, DriveReport, LatencyUs};
pub use netchaos::net_chaos_matrix;
pub use protocol::{
    error_code, Frame, ServerStats, TenantConfig, WireError, WireState, MAX_FRAME, PROTO_VERSION,
};
pub use resilient::{ClientError, ResilientClient, RetryCounters, RetryOpts};
pub use server::{serve, ServeOpts, ServerHandle};
pub use tenant::{policy_known, TenantOpts, TenantSession};
