//! The paper's Figure 1: why asynchronous circuits cannot be tested with
//! arbitrary vectors.  Circuit (a) shows *non-confluence* — the settled
//! state depends on internal gate delays; circuit (b) shows *oscillation*.
//! Ternary simulation (Eichelberger) flags both conservatively; the
//! exhaustive interleaving analysis exhibits the actual outcomes; the
//! CSSG prunes exactly the offending vectors.
//!
//! Run with `cargo run --example nonconfluence_oscillation`.

use satpg::prelude::*;

fn analyze(ckt: &satpg::netlist::Circuit, pattern: u64, label: &str) {
    println!("--- {} + pattern {:02b} ({label})", ckt.name(), pattern);
    match ternary_settle(ckt, ckt.initial_state(), pattern, &Injection::none()) {
        TernaryOutcome::Definite(state) => println!("  ternary: definite {state}"),
        TernaryOutcome::Uncertain(tv) => {
            println!(
                "  ternary: {} signals stuck at Φ (conservative alarm)",
                tv.num_unknown()
            )
        }
    }
    // The exact k-bounded analysis: the naive walk, no ternary shortcut.
    let cfg = SettlerConfig {
        cap: CapPolicy::Fixed(1 << 16),
        por: false,
        ternary_fast_path: false,
        ..SettlerConfig::for_circuit(ckt)
    };
    match Settler::new(ckt, &Injection::none(), &cfg).settle(ckt.initial_state(), pattern) {
        Settle::Confluent(s) => println!("  exact: confluent to {s}"),
        Settle::NonConfluent(states) => {
            println!(
                "  exact: NON-CONFLUENT — {} possible stable outcomes:",
                states.len()
            );
            for s in states {
                println!("    outputs {:b} in state {s}", ckt.output_values(&s));
            }
        }
        Settle::Unstable(states) => {
            println!(
                "  exact: OSCILLATING — {} states still switching at k",
                states.len()
            )
        }
        Settle::Truncated => println!("  exact: overflow"),
    }
}

fn main() {
    let fig1a = satpg::netlist::library::figure1a();
    // From the stable state AB = 01, switching to AB = 10 races.
    analyze(&fig1a, 0b01, "the racing vector of Fig. 1(a)");
    analyze(&fig1a, 0b11, "a benign vector");

    let fig1b = satpg::netlist::library::figure1b();
    analyze(&fig1b, 0b01, "the oscillating vector of Fig. 1(b)");
    analyze(&fig1b, 0b10, "a benign vector");

    // The CSSG keeps only the usable vectors (Fig. 2's pruning).
    for ckt in [fig1a, fig1b] {
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        println!(
            "{}: CSSG keeps {} edges over {} stable states (pruned {} racing, {} oscillating)",
            ckt.name(),
            cssg.num_edges(),
            cssg.num_states(),
            cssg.pruned_nonconfluent(),
            cssg.pruned_unstable(),
        );
    }
}
