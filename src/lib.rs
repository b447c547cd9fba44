//! `satpg` — synchronous test pattern generation for asynchronous
//! circuits.
//!
//! A production-grade reproduction of Roig, Cortadella, Peña, Pastor,
//! *Automatic Generation of Synchronous Test Patterns for Asynchronous
//! Circuits* (DAC 1997).  The umbrella crate re-exports the workspace:
//!
//! * [`netlist`] — gate-level circuits under the unbounded inertial
//!   gate-delay model;
//! * [`bdd`] — the ROBDD engine behind the symbolic traversal;
//! * [`sim`] — ternary, 64-lane parallel-ternary and exhaustive
//!   interleaving simulation;
//! * [`stg`] — signal transition graphs, state graphs and logic
//!   synthesis (the benchmark substrate);
//! * [`core`] — the CSSG synchronous abstraction and the serial ATPG flow;
//! * [`engine`] — the fault-parallel orchestration engine (sharded
//!   workers, work stealing, test broadcasting, deterministic merge);
//! * [`serve`] — the persistent service daemon (job scheduling,
//!   cross-request symbolic caching, streaming telemetry);
//! * [`trace`] — hierarchical span tracing, the process-wide metrics
//!   registry, and the Chrome trace-event exporter behind `--trace-out`.
//!
//! # Quickstart
//!
//! ```
//! use satpg::prelude::*;
//!
//! let ckt = satpg::netlist::library::c_element();
//! let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
//! assert_eq!(report.coverage(), 100.0);
//! ```

pub use satpg_bdd as bdd;
pub use satpg_core as core;
pub use satpg_engine as engine;
pub use satpg_netlist as netlist;
pub use satpg_serve as serve;
pub use satpg_sim as sim;
pub use satpg_stg as stg;
pub use satpg_trace as trace;

/// The commonly used items in one import.
pub mod prelude {
    pub use satpg_core::{
        build_cssg, fault_simulate, input_stuck_faults, output_stuck_faults, random_tpg, run_atpg,
        three_phase, validate_test, AtpgConfig, AtpgReport, Cssg, CssgConfig, Fault, FaultModel,
        FaultStatus, Phase, RandomTpgConfig, TestSequence, ThreePhaseConfig, Verdict,
    };
    pub use satpg_engine::{run_engine, EngineConfig, EngineReport, WorkerStats};
    pub use satpg_netlist::{pattern_count, Bits, Circuit, CircuitBuilder, GateKind, Pattern};
    pub use satpg_sim::{
        ternary_settle, CapPolicy, Injection, Settle, SettleStats, Settler, SettlerConfig, Site,
        TernaryOutcome,
    };
    pub use satpg_stg::{parse_g, synth, StateGraph};
}
