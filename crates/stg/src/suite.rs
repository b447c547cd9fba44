//! The reconstructed benchmark suite.
//!
//! The DAC'97 paper evaluates on the classic asynchronous-synthesis
//! benchmark set (`alloc-outbound` … `vbe6a`).  The original Petrify/SIS
//! netlists are not redistributable, so this module carries hand-written
//! STG reconstructions with the same names, interface sizes and
//! controller styles; see `DESIGN.md` for the substitution rationale.
//! Every specification is validated (consistency, safeness, CSC,
//! quiescent reset, output persistency) by this module's tests.

use crate::model::Stg;
use crate::parser::parse_g;
use crate::Result;

macro_rules! suite {
    ($(($name:literal, $file:literal, $redundant:expr),)*) => {
        /// Names of all benchmarks, in the paper's table order.
        pub const NAMES: &[&str] = &[$($name),*];

        /// The `.g` source of a benchmark.
        pub fn source(name: &str) -> Option<&'static str> {
            match name {
                $($name => Some(include_str!(concat!("../benchmarks/", $file))),)*
                _ => None,
            }
        }

        /// Whether the benchmark is one of the three whose bounded-delay
        /// implementation carries redundant hazard covers in Table 2
        /// (`trimos-send`, `vbe10b`, `vbe6a`).
        pub fn is_redundant(name: &str) -> bool {
            match name {
                $($name => $redundant,)*
                _ => false,
            }
        }
    };
}

suite![
    ("alloc-outbound", "alloc-outbound.g", false),
    ("atod", "atod.g", false),
    ("chu150", "chu150.g", false),
    ("converta", "converta.g", false),
    ("dff", "dff.g", false),
    ("ebergen", "ebergen.g", false),
    ("hazard", "hazard.g", false),
    ("master-read", "master-read.g", false),
    ("mmu", "mmu.g", false),
    ("mp-forward-pkt", "mp-forward-pkt.g", false),
    ("nak-pa", "nak-pa.g", false),
    ("nowick", "nowick.g", false),
    ("ram-read-sbuf", "ram-read-sbuf.g", false),
    ("rcv-setup", "rcv-setup.g", false),
    ("rpdft", "rpdft.g", false),
    ("sbuf-ram-write", "sbuf-ram-write.g", false),
    ("sbuf-send-ctl", "sbuf-send-ctl.g", false),
    ("sbuf-send-pkt2", "sbuf-send-pkt2.g", false),
    ("seq4", "seq4.g", false),
    ("trimos-send", "trimos-send.g", true),
    ("vbe10b", "vbe10b.g", true),
    ("vbe5b", "vbe5b.g", false),
    ("vbe6a", "vbe6a.g", true),
];

/// Parses a benchmark by name.
///
/// # Errors
///
/// Returns [`crate::StgError::UnknownSignal`]-style parse errors only if a
/// bundled file is corrupt; unknown names yield a parse error.
pub fn load(name: &str) -> Result<Stg> {
    match source(name) {
        Some(src) => parse_g(src),
        None => Err(crate::StgError::Parse {
            line: 0,
            msg: format!("unknown benchmark `{name}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::check_csc;
    use crate::sg::StateGraph;
    use crate::synth::{complex_gate, two_level, Redundancy};

    #[test]
    fn every_benchmark_is_well_formed() {
        for &name in NAMES {
            let stg = load(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stg.name(), name, "model name matches");
            let sg = StateGraph::build(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sg.states().len() >= 6, "{name}: trivially small");
            check_csc(&stg, &sg).unwrap_or_else(|e| panic!("{name}: {e}"));
            sg.check_initial_quiescent(&stg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sg.check_output_persistent(&stg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn every_benchmark_synthesizes_both_styles() {
        for &name in NAMES {
            let stg = load(name).unwrap();
            let sg = StateGraph::build(&stg).unwrap();
            let si = complex_gate(&stg, &sg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                si.is_stable(si.initial_state()),
                "{name}: SI reset unstable"
            );
            let style = if is_redundant(name) {
                Redundancy::AllPrimes
            } else {
                Redundancy::None
            };
            let bd = two_level(&stg, &sg, style).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                bd.is_stable(bd.initial_state()),
                "{name}: 2L reset unstable"
            );
            assert!(
                bd.num_gates() >= si.num_gates(),
                "{name}: decomposition should not shrink"
            );
        }
    }

    #[test]
    fn suite_covers_the_paper_table() {
        assert_eq!(NAMES.len(), 23);
        for n in ["master-read", "trimos-send", "vbe10b", "vbe6a", "dff"] {
            assert!(NAMES.contains(&n));
        }
        assert!(is_redundant("trimos-send"));
        assert!(is_redundant("vbe10b"));
        assert!(is_redundant("vbe6a"));
        assert!(!is_redundant("dff"));
        assert!(load("no-such-benchmark").is_err());
    }

    #[test]
    fn synthesized_circuits_follow_their_specification() {
        // Walk each SI circuit along one specified firing sequence and
        // confirm every settled state matches the SG code.  The exact
        // interleaving analysis is used rather than ternary simulation:
        // ternary is conservative on binate covers and may report Φ for
        // transitions that are in fact confluent.
        use satpg_sim::{CapPolicy, Injection, Settler, SettlerConfig};
        for &name in NAMES {
            let stg = load(name).unwrap();
            let sg = StateGraph::build(&stg).unwrap();
            let ckt = complex_gate(&stg, &sg).unwrap();
            let mut settler = Settler::new(
                &ckt,
                &Injection::none(),
                &SettlerConfig {
                    cap: CapPolicy::Fixed(1 << 16),
                    por: false,
                    ..SettlerConfig::for_circuit(&ckt)
                },
            );
            // Follow input transitions: apply each SG input edge as a
            // pattern; outputs must settle to the SG's code.
            let mut sg_state = sg.initial();
            let mut ckt_state = ckt.initial_state().clone();
            let inputs = stg.signals_of_class(crate::model::SignalClass::Input);
            for _step in 0..24 {
                // Find an enabled input edge, fire it.
                let Some(&(t, succ)) = sg
                    .edges(sg_state)
                    .iter()
                    .find(|&&(t, _)| inputs.contains(&stg.transitions()[t.0 as usize].signal))
                else {
                    // Outputs must fire first: advance the SG until an
                    // input edge is available.
                    let Some(&(_, succ)) = sg.edges(sg_state).first() else {
                        break;
                    };
                    sg_state = succ;
                    continue;
                };
                let _ = t;
                sg_state = succ;
                // Advance the SG past all output firings (the circuit does
                // them on its own while settling).
                loop {
                    let next = sg
                        .edges(sg_state)
                        .iter()
                        .find(|&&(t, _)| !inputs.contains(&stg.transitions()[t.0 as usize].signal));
                    match next {
                        Some(&(_, succ)) => sg_state = succ,
                        None => break,
                    }
                }
                // The circuit pattern: the SG code restricted to inputs.
                let code = sg.states()[sg_state].code;
                let mut pattern = 0u64;
                for (pi, &s) in inputs.iter().enumerate() {
                    if code & (1 << s) != 0 {
                        pattern |= 1 << pi;
                    }
                }
                let out = settler.settle(&ckt_state, pattern);
                let settled = out
                    .confluent()
                    .unwrap_or_else(|| panic!("{name}: specified transition not confluent"))
                    .clone();
                // Every STG signal value must match the settled circuit.
                for s in 0..stg.num_signals() {
                    let sig = ckt.signal_by_name(stg.signal_name(s)).unwrap();
                    assert_eq!(
                        settled.get(sig.index()),
                        code & (1 << s) != 0,
                        "{name}: signal {} after step",
                        stg.signal_name(s)
                    );
                }
                ckt_state = settled;
            }
        }
    }
}
