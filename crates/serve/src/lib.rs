//! `satpg-serve` — the persistent ATPG service daemon.
//!
//! The batch flow re-parses the circuit and rebuilds its synchronous
//! abstraction on every invocation.  This crate keeps a `satpg` process
//! resident: a std-only daemon (TCP or Unix-domain socket, JSON-lines
//! wire protocol — see [`proto`]) that
//!
//! * accepts circuit submissions — a bundled **benchmark** by name, a
//!   generated **family** spec, or inline **`.g`/`.ckt` text**;
//! * schedules them as jobs on a bounded queue with **backpressure**
//!   (a full queue answers `rejected` instead of buffering without
//!   limit) and a fixed executor pool, each job running the
//!   fault-parallel engine with its own worker count;
//! * **streams telemetry** while a job runs: stage transitions,
//!   per-worker stats (searches, steals, broadcast drops, BDD
//!   GC sweeps/reclaimed/peak), discovered tests, and the final
//!   machine-readable report;
//! * keeps a **cross-request cache** ([`cache`]) of parsed netlists and
//!   constructed CSSGs keyed by content hash with an LRU bound, so a
//!   repeated or batched submission skips reconstruction — the
//!   dominant cost for large circuits — with hit/miss counters
//!   surfaced in `status` and per-job events.
//!
//! Reports are *identical* to the serial [`satpg_core::run_atpg`] for
//! the same configuration (the engine's deterministic-merge guarantee),
//! so a daemon answer is as trustworthy as a batch run.  Per-job BDD
//! managers die with their job and respect `gc_threshold` while alive,
//! which keeps daemon-lifetime memory bounded.
//!
//! On top of the single-daemon service sits the **fleet** layer
//! ([`fleet`]): a coordinator partitions one campaign's fault classes
//! across peer daemons over the same wire protocol (`enlist` /
//! `shard_submit` / `broadcast`), requeues shards lost to peer failures,
//! and closes with the engine's deterministic merge — so the fleet
//! report stays byte-identical to a serial run under any peer count and
//! any failure pattern.  [`testing`] ships the fault-injection proxy the
//! integration suite uses to prove exactly that.

pub mod cache;
pub mod client;
pub mod fleet;
pub mod job;
mod net;
pub mod proto;
mod server;
pub mod testing;

pub use client::{Client, ClientError, SubmitOutcome};
pub use fleet::{run_fleet, run_fleet_built, FleetConfig, FleetOutcome, FleetStats};
pub use job::{family_default_size, job_atpg_config, resolve_circuit};
pub use proto::{CircuitSpec, JobSpec, Request, ShardSpec};
pub use server::{ServeConfig, Server};
