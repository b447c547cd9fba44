//! Simulation engines for asynchronous circuits under the unbounded
//! inertial gate-delay model.
//!
//! Three engines, mirroring §2/§5.4 of Roig et al. (DAC 1997):
//!
//! * [`ternary_settle`] — Eichelberger's three-valued simulation
//!   (algorithms A and B).  Conservative but polynomial: if the settled
//!   state is fully definite, the applied input vector is race-free and
//!   oscillation-free and *every* interleaving reaches that state.
//! * [`PlaneState`] — the same ternary analysis, bit-parallel over 64
//!   machines at once (the good circuit plus 63 faulty ones), the engine
//!   behind random TPG and fault simulation.
//! * [`Settler`] — the unified settling engine: exhaustive interleaving
//!   exploration (the k-bounded settling analysis that *defines* the
//!   CSSG) with partial-order reduction over commuting gate switchings
//!   and adaptive caps ([`CapPolicy`]).  With POR off
//!   ([`SettlerConfig::por`]) it is the naive reference walk, also
//!   usable as a nondeterministic oracle to validate emitted tests
//!   against any gate delays.  It runs on a kernel compiled per
//!   (circuit, injection) into word-mask gates; [`ternary_settle`],
//!   [`eval_gate_ternary`], [`eval_gate_inj`] and [`is_excited_inj`]
//!   are the scalar reference its tests compare against.
//!
//! Faults never modify a netlist: every engine accepts an [`Injection`]
//! that forces gate input pins or gate outputs to constants, so the same
//! [`satpg_netlist::Circuit`] serves the good machine and all faulty ones.

mod inject;
mod kernel;
mod packed;
mod parallel;
mod settler;
mod ternary;

pub use inject::{eval_gate_inj, is_excited_inj, Force, Injection, Site};
pub use parallel::{parallel_settle, ParallelInjection, PlaneState, LANES};
pub use settler::{CapPolicy, SetSettle, Settle, SettleStats, Settler, SettlerConfig};
pub use ternary::{
    eval_gate_ternary, ternary_settle, ternary_settle_from, TernaryOutcome, Trit, TritVec,
};
