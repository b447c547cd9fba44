//! Parameterized benchmark families at the specification level.
//!
//! The bundled suite reconstructs the paper's fixed benchmark set; these
//! generators produce *scalable* specifications so throughput work (the
//! fault-parallel engine, the scaling benches) has workloads of any size:
//!
//! * [`sequencer`] — a 1-request chain of `k` acknowledge stages;
//! * [`dme_ring`] — a token ring of `n` cells granting a shared request
//!   line round-robin, the daisy-chain shape of distributed
//!   mutual-exclusion (DME) controllers.
//!
//! Each generator emits standard `.g` source (so the artifacts are
//! inspectable and replayable through any front-end) and parses it back
//! through the normal pipeline — generated families get exactly the same
//! validation as the bundled suite.

use crate::model::Stg;
use crate::parser::parse_g;
use crate::Result;
use std::fmt::Write as _;

/// `.g` source of a `k`-stage sequencer: `r+ a1+ … ak+ r- a1- … ak-`.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn sequencer_source(stages: usize) -> String {
    assert!(stages > 0, "sequencer needs at least one stage");
    let mut out = String::new();
    let _ = writeln!(out, "# generated: {stages}-stage sequencer");
    let _ = writeln!(out, ".model seq-gen{stages}");
    let _ = writeln!(out, ".inputs r");
    let names: Vec<String> = (1..=stages).map(|i| format!("a{i}")).collect();
    let _ = writeln!(out, ".outputs {}", names.join(" "));
    let _ = writeln!(out, ".graph");
    let ring: Vec<String> = std::iter::once("r+".to_string())
        .chain(names.iter().map(|n| format!("{n}+")))
        .chain(std::iter::once("r-".to_string()))
        .chain(names.iter().map(|n| format!("{n}-")))
        .collect();
    for (i, t) in ring.iter().enumerate() {
        let next = &ring[(i + 1) % ring.len()];
        let _ = writeln!(out, "{t} {next}");
    }
    let _ = writeln!(out, ".marking {{ <{}-,r+> }}", names[stages - 1]);
    let _ = writeln!(out, ".end");
    out
}

/// Parses the [`sequencer_source`] specification.
///
/// # Errors
///
/// Never fails for valid `stages`; the signature matches the parser's.
pub fn sequencer(stages: usize) -> Result<Stg> {
    parse_g(&sequencer_source(stages))
}

/// `.g` source of an `n`-cell DME-style token ring.
///
/// One request line `r` is granted round-robin: the cell holding the
/// token (`t<i>`) answers the next request with its grant (`g<i>`),
/// passes the token on while the grant is still up (so every state code
/// stays unique), then releases.  Per cell the cycle is
/// `r+ → g<i>+ → r- → t<i+1>+ → t<i>- → g<i>- → r+ …`, closing after `n`
/// cells.  All grants and tokens are observable outputs.
///
/// # Panics
///
/// Panics if `cells < 2` (a one-cell ring degenerates) or `cells > 6`
/// (the family's size cap, which keeps a ring's `2 · cells + 1` signals
/// within the synthesis backends' 16-signal bound).
pub fn dme_ring_source(cells: usize) -> String {
    assert!((2..=6).contains(&cells), "dme_ring supports 2..=6 cells");
    let mut out = String::new();
    let _ = writeln!(out, "# generated: {cells}-cell DME token ring");
    let _ = writeln!(out, ".model dme-gen{cells}");
    let _ = writeln!(out, ".inputs r");
    let mut names: Vec<String> = (1..=cells).map(|i| format!("g{i}")).collect();
    names.extend((1..=cells).map(|i| format!("t{i}")));
    let _ = writeln!(out, ".outputs {}", names.join(" "));
    let _ = writeln!(out, ".graph");
    for i in 1..=cells {
        let next = i % cells + 1;
        // `r` fires once per cell: instance i-1 of each direction.
        let (rp, rm) = if i == 1 {
            ("r+".to_string(), "r-".to_string())
        } else {
            (format!("r+/{}", i - 1), format!("r-/{}", i - 1))
        };
        let _ = writeln!(out, "{rp} g{i}+");
        let _ = writeln!(out, "g{i}+ {rm}");
        let _ = writeln!(out, "{rm} t{next}+");
        let _ = writeln!(out, "t{next}+ t{i}-");
        let _ = writeln!(out, "t{i}- g{i}-");
        let succ = if next == 1 {
            "r+".to_string()
        } else {
            format!("r+/{next_i}", next_i = next - 1)
        };
        let _ = writeln!(out, "g{i}- {succ}");
    }
    let _ = writeln!(out, ".marking {{ <g{cells}-,r+> }}");
    let _ = writeln!(out, ".init t1=1");
    let _ = writeln!(out, ".end");
    out
}

/// Parses the [`dme_ring_source`] specification.
///
/// # Errors
///
/// Never fails for valid `cells`; the signature matches the parser's.
pub fn dme_ring(cells: usize) -> Result<Stg> {
    parse_g(&dme_ring_source(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::check_csc;
    use crate::sg::StateGraph;
    use crate::synth::complex_gate;

    fn validate(stg: &Stg) -> StateGraph {
        let sg = StateGraph::build(stg).unwrap();
        check_csc(stg, &sg).unwrap();
        sg.check_initial_quiescent(stg).unwrap();
        sg.check_output_persistent(stg).unwrap();
        sg
    }

    #[test]
    fn sequencers_validate_and_scale() {
        for k in 1..=6 {
            let stg = sequencer(k).unwrap();
            let sg = validate(&stg);
            assert_eq!(sg.states().len(), 2 * (k + 1), "pure cycle length");
            let ckt = complex_gate(&stg, &sg).unwrap();
            assert!(ckt.is_stable(ckt.initial_state()));
            assert_eq!(ckt.num_inputs(), 1);
        }
    }

    #[test]
    fn dme_rings_validate_and_scale() {
        for n in 2..=5 {
            let stg = dme_ring(n).unwrap();
            let sg = validate(&stg);
            // Six transitions per cell, one state each (pure cycle).
            assert_eq!(sg.states().len(), 6 * n);
            let ckt = complex_gate(&stg, &sg).unwrap();
            assert!(ckt.is_stable(ckt.initial_state()));
            // Token starts at cell 1.
            let t1 = ckt.signal_by_name("t1").unwrap();
            assert!(ckt.initial_state().get(t1.index()));
        }
    }

    #[test]
    fn dme_ring_runs_the_full_atpg_flow() {
        // The engine-scaling workload must actually flow end to end.
        let stg = dme_ring(3).unwrap();
        let sg = StateGraph::build(&stg).unwrap();
        let ckt = complex_gate(&stg, &sg).unwrap();
        // CSSG construction is exercised downstream (satpg-core is not a
        // dependency of this crate); here we check the circuit substrate.
        assert!(ckt.num_gates() > 6);
        assert!(ckt.outputs().len() == 6);
    }

    #[test]
    fn generated_sources_are_reparseable_text() {
        let src = dme_ring_source(4);
        assert!(src.contains(".model dme-gen4"));
        assert!(src.contains("r+/3"));
        let stg = parse_g(&src).unwrap();
        assert_eq!(stg.num_signals(), 9);
    }

    #[test]
    #[should_panic(expected = "2..=6")]
    fn oversized_ring_is_rejected() {
        dme_ring_source(8);
    }
}
