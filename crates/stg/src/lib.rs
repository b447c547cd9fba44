//! Signal Transition Graphs (STGs) and logic synthesis of asynchronous
//! controllers.
//!
//! This crate is the benchmark substrate for the DAC'97 reproduction: the
//! paper evaluates its ATPG on controllers synthesized by **Petrify**
//! (speed-independent, Table 1) and **SIS** (hazard-free bounded-delay,
//! Table 2) from the classic asynchronous benchmark specifications.  Those
//! tools and netlists are not redistributable, so this crate provides the
//! whole pipeline from scratch:
//!
//! * [`Stg`] — safe Petri nets labeled with signal transitions, parsed
//!   from the standard `.g` (astg) format ([`parse_g`]);
//! * [`StateGraph`] — the token game, reachability, consistency and
//!   output-persistency checking;
//! * [`csc`] — unique/complete state coding checks;
//! * [`cover`] — a two-level logic minimizer over ON/OFF point sets
//!   (primes as minimal transversals of the OFF-set differences, then
//!   greedy covering; unlisted points are don't-cares);
//! * [`synth`] — netlist generation: one complex gate per output signal
//!   (the Petrify stand-in) or a two-level AND-OR network with optional
//!   hazard-covering redundant cubes (the SIS stand-in);
//! * [`suite`] — a reconstructed benchmark suite using the paper's
//!   circuit names.
//!
//! # Example
//!
//! ```
//! use satpg_stg::{parse_g, StateGraph, synth};
//!
//! let stg = parse_g(satpg_stg::suite::source("seq4").unwrap()).unwrap();
//! let sg = StateGraph::build(&stg).unwrap();
//! let ckt = synth::complex_gate(&stg, &sg).unwrap();
//! assert!(ckt.is_stable(ckt.initial_state()));
//! ```

pub mod cover;
pub mod csc;
mod error;
pub mod families;
mod model;
mod parser;
mod sg;
pub mod suite;
pub mod synth;

pub use error::StgError;
pub use model::{NodeId, SignalClass, SignalIdx, Stg, TransitionId};
pub use parser::parse_g;
pub use sg::{SgState, StateGraph};

/// Convenient alias for results in this crate.
pub type Result<T> = std::result::Result<T, StgError>;
