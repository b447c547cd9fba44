//! A from-scratch ROBDD (reduced ordered binary decision diagram) package.
//!
//! This is the symbolic substrate the DAC'97 flow uses for state-graph
//! traversal (the paper cites Coudert/Berthet/Madre-style functional-vector
//! verification and Burch et al. symbolic model checking).  It provides the
//! operations that symbolic reachability and CSSG construction need:
//!
//! * hash-consed node storage with an operation cache,
//! * `and`/`or`/`xor`/`not`/`ite`,
//! * existential/universal quantification and the fused relational
//!   product [`Manager::and_exists`],
//! * monotone variable remapping ([`Manager::remap`]) for moving
//!   predicates between the interleaved current/next/auxiliary variable
//!   frames,
//! * model enumeration, counting and cube extraction,
//! * a one-pass builder for minterm sets ([`Manager::minterms`]).
//!
//! Nodes are immortal: a manager never frees a node, so handles need no
//! rooting and memory is released by dropping the manager.  Both users,
//! the §4.2 symbolic CSSG reference and the engine's opt-in audit, own
//! a manager for one bounded computation (see `DESIGN.md`).
//!
//! Variable order is fixed: variable index *is* level (no dynamic
//! reordering; callers choose a good static interleaving).
//!
//! # Example
//!
//! ```
//! use satpg_bdd::Manager;
//!
//! let mut m = Manager::new(4);
//! let (a, b) = (m.var(0), m.var(1));
//! let f = m.and(a, b);
//! let g = m.exists(f, &[1]);
//! assert_eq!(g, a); // ∃b. a∧b = a
//! ```

mod hash;
mod manager;
mod sat;

pub use manager::{Bdd, Manager};
