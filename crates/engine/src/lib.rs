//! `satpg-engine` — fault-parallel ATPG orchestration.
//!
//! The serial flow in `satpg-core` targets one fault at a time.  This
//! crate scales the campaign across `N` workers in the shared-nothing
//! shape the per-store sharding of modern BDD packages uses, one level
//! up — at the fault-campaign level:
//!
//! * the collapsed fault list is **sharded** round-robin across
//!   per-worker deques with **work stealing** ([`shard`]);
//! * worker 0 is the **calling thread**: it starts searching at once,
//!   the other workers run on scoped threads and steal what is left
//!   when they start, and a one-worker campaign starts no thread;
//! * every worker shares the read-only [`satpg_core::Cssg`] and circuit;
//!   with the opt-in [`EngineConfig::symbolic_audit`] it also owns a
//!   **private [`satpg_bdd::Manager`]** that replays its discoveries
//!   symbolically ([`audit`]);
//! * a test found by one worker is **broadcast**: when the flow
//!   fault-simulates (`AtpgConfig::fault_sim`), before each pop every
//!   worker fault-simulates the tests logged since its last look against
//!   its pending faults and drops the ones they already cover, skipping
//!   their three-phase searches.  A test logged again (another class's
//!   search found it too) is simulated only against the pending classes
//!   no earlier copy screened, so each worker simulates each (test,
//!   class) pair at most once;
//! * that class-search loop is [`search_classes`], and it is the only
//!   one: a fleet peer (`satpg-serve`) runs it too, over a one-deque
//!   [`shard::ShardedQueues`] holding its shard and a test log its
//!   coordinator's relays append to;
//! * the campaign is [`satpg_core::stages::Campaign`], the serial flow's
//!   own stage sequence: workers only *precompute* three-phase verdicts,
//!   and `Campaign::finish` replays the serial targeted stage over them
//!   (the **merge**), so the final [`EngineReport`] carries fault
//!   records and tests *identical* to the serial
//!   [`satpg_core::run_atpg`] report, regardless of worker count, steal
//!   order or broadcast timing.  `crates/core/DESIGN.md`, "One campaign,
//!   three verdict sources", has the argument.
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
    reports_identical, run_engine, run_engine_on, run_engine_on_streaming, search_classes,
    EngineConfig, EngineEvent, EngineReport, EngineSink, NullSink, WorkerStats,
};
