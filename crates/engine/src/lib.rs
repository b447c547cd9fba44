//! `satpg-engine` — fault-parallel ATPG orchestration.
//!
//! The serial flow in `satpg-core` targets one fault at a time.  This
//! crate scales the campaign across `N` workers in the shared-nothing
//! shape the per-store sharding of modern BDD packages uses, one level
//! up — at the fault-campaign level:
//!
//! * the collapsed fault list is **sharded** round-robin across
//!   per-worker deques with **work stealing** ([`shard`]);
//! * every worker shares the read-only [`satpg_core::Cssg`] and circuit;
//!   with the opt-in [`EngineConfig::symbolic_audit`] it also owns a
//!   **private [`satpg_bdd::Manager`]** that replays its discoveries
//!   symbolically ([`audit`]);
//! * a test found by one worker is **broadcast**: when the flow
//!   fault-simulates (`AtpgConfig::fault_sim`), before each pop every
//!   worker fault-simulates the tests logged since its last look against
//!   its pending faults and drops the ones they already cover, skipping
//!   their three-phase searches;
//! * that class-search loop is [`search_classes`], and it is the only
//!   one: a fleet peer (`satpg-serve`) runs it too, over a one-deque
//!   [`shard::ShardedQueues`] holding its shard and a test log its
//!   coordinator's relays append to;
//! * results are merged by a **deterministic serial replay** over the
//!   resumable stages of [`satpg_core::stages`], so the final
//!   [`EngineReport`] carries fault records and tests *identical* to the
//!   serial [`satpg_core::run_atpg`] report, regardless of worker count,
//!   steal order or broadcast timing.
//!
//! The determinism argument: the three-phase verdict of a class is a pure
//! function of `(circuit, cssg, fault, config)`.  Workers merely
//! *precompute* verdicts; the merge replays the exact serial control flow
//! (class order, test interning, fault-simulation cascade), consuming a
//! precomputed verdict where one exists and recomputing on the spot where
//! broadcasting skipped a class the serial flow would have targeted.
//!
//! # Example
//!
//! ```
//! use satpg_engine::{run_engine, EngineConfig};
//!
//! let ckt = satpg_netlist::library::muller_pipeline2();
//! let cfg = EngineConfig { workers: 2, ..EngineConfig::paper() };
//! let out = run_engine(&ckt, &cfg).unwrap();
//! let serial = satpg_core::run_atpg(&ckt, &cfg.atpg).unwrap();
//! assert_eq!(out.report.records, serial.records);
//! assert_eq!(out.report.tests, serial.tests);
//! ```

pub mod audit;
mod run;
pub mod shard;

pub use run::{
    merge_partial, prepare_campaign, reports_identical, run_engine, run_engine_on,
    run_engine_on_streaming, search_classes, Campaign, EngineConfig, EngineEvent, EngineReport,
    EngineSink, NullSink, PartialMerge, WorkerStats,
};
