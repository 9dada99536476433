//! The multi-host campaign fabric: shard a campaign's cell list across
//! hosts, merge the per-shard stores back into the canonical single-host
//! store byte-for-byte, or skip the batch choreography entirely and run a
//! lease-based `stabcon serve` daemon that hands cells to connecting
//! workers.
//!
//! Everything rests on two properties the store already has:
//!
//! * **cell records are order-independent and pure** — a cell line is a
//!   deterministic function of its [`crate::cell::CellSpec`] alone (trial
//!   seeds derive from the cell seed), so any host produces the identical
//!   bytes for any cell; and
//! * **the header fingerprints the whole grid** — two stores with equal
//!   headers were expanded from the same spec, so their cell sets are
//!   comparable by id.
//!
//! Sharding the cell list therefore shards the whole results table:
//! [`ShardSelection`] picks a disjoint slice per host,
//! [`merge::merge_stores`] validates fingerprints + disjoint/complete
//! coverage and re-sorts cells into canonical cell-index order, and the
//! result is byte-identical to the store one host would have written.
//!
//! The [`serve`] daemon is the online version of the same contract: it
//! leases cell ids to workers over the line-oriented [`protocol`], re-leases
//! cells whose worker died (deterministic seeds make a re-run exact), and
//! appends results to the store in canonical order, so a completed serve
//! store is *also* byte-identical to the single-host run.
//!
//! The fabric is WAN-hardened end to end: workers reconnect with capped
//! jittered backoff and resubmit completed results idempotently, lease
//! heartbeats ([`Msg::Renew`]) keep slow-but-alive cells from being
//! re-leased, the serve store honors an explicit fsync policy and repairs
//! torn tails atomically on resume, and the [`chaos`] proxy injects
//! deterministic WAN faults between the two so the byte-identity contract
//! is pinned under fire, not just in fair weather.
//!
//! There is one server loop and one worker loop. The daemon always holds
//! a durable multi-campaign [`queue::JobQueue`] (`stabcon-fabric/2`:
//! submissions over the wire with per-client admission quotas, FIFO
//! activation, round-robin leasing across running campaigns, a live status
//! endpoint, and a crash-replayable `stabcon-jobs/1` journal). A
//! single-campaign [`Server`] is that same loop with its campaign admitted
//! as the only job and no journal. On the worker side, [`run_worker`]
//! (pinned to one campaign by the `/1` handshake) and [`run_worker_any`]
//! (any campaign, per-job descriptors in `/2` leases) are entry points
//! into one reconnect loop and one session loop. The `/1` frames and the
//! version-negotiating handshake remain because the benchmark's probes
//! and `served-cells` workload speak them.

pub mod chaos;
pub mod client;
pub mod merge;
pub mod protocol;
pub mod queue;
pub mod serve;
pub mod shard;
pub mod worker;

pub use chaos::{fault_for, ChaosProxy, ChaosSpec, Fault};
pub use client::{cancel_job, query_status, submit_campaign, JobInfo, QueueStatus, SubmitOutcome};
pub use merge::{merge_stores, MergeOutcome};
pub use protocol::{Msg, SpecDescriptor, FABRIC_SCHEMA, FABRIC_SCHEMA_V2};
pub use queue::{
    job_store_path, jobs_journal_path, open_journal, JobQueue, JobState, JournalEvent, QueueConfig,
    Rejection, JOBS_SCHEMA,
};
pub use serve::{
    Ingest, Parked, QueueOutcome, QueueServeConfig, QueueServer, ServeConfig, ServeOutcome,
    ServeState, Server,
};
pub use shard::{shard_store_path, ShardSelection};
pub use worker::{request_drain, run_worker, run_worker_any, WorkerConfig, WorkerOutcome};
