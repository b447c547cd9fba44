//! Circuit resolution: from a wire-level [`CircuitSpec`] to a parsed,
//! validated [`Circuit`].  Every failure path returns a message (with
//! the parser's line number where one exists) — submissions are
//! untrusted input and must never panic the daemon.

use crate::proto::{CircuitSpec, JobSpec};
use satpg_core::{AtpgConfig, CssgConfig, FaultModel, RandomTpgConfig, ThreePhaseConfig};
use satpg_netlist::{parse_ckt, Circuit};
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{parse_g, suite, StateGraph, Stg};

fn synth(stg: &Stg, style: &str) -> Result<Circuit, String> {
    let sg = StateGraph::build(stg).map_err(|e| e.to_string())?;
    match style {
        "si" => complex_gate(stg, &sg).map_err(|e| e.to_string()),
        "2l" => two_level(stg, &sg, Redundancy::None).map_err(|e| e.to_string()),
        "2lr" => two_level(stg, &sg, Redundancy::AllPrimes).map_err(|e| e.to_string()),
        other => Err(format!("unknown style `{other}` (si|2l|2lr)")),
    }
}

/// The generated families: `(name, default size, min size, max size)`.
/// The one table behind `satpg gen`, the CLI's `--family` and the
/// daemon's family specs.  The caps are resource guards, not
/// representation limits: patterns and states are multi-word, so
/// arbiter widths past 63 are legal — such jobs just need an explicit
/// `pattern_budget`.
const FAMILIES: [(&str, usize, usize, usize); 4] = [
    ("muller", 4, 1, 128),
    ("dme", 3, 2, 6),
    ("arbiter", 4, 2, 128),
    ("seq", 4, 1, 15),
];

fn family_entry(name: &str) -> Result<(usize, usize, usize), String> {
    FAMILIES
        .iter()
        .find(|f| f.0 == name)
        .map(|&(_, default, lo, hi)| (default, lo, hi))
        .ok_or_else(|| format!("unknown family `{name}` (muller|dme|arbiter|seq)"))
}

/// The size a family is built at when none is given.
///
/// # Errors
///
/// The unknown-family message [`resolve_circuit`] would give.
pub fn family_default_size(name: &str) -> Result<usize, String> {
    family_entry(name).map(|f| f.0)
}

/// Builds a generated-family circuit: `muller`/`arbiter` at netlist
/// level, `dme`/`seq` through the STG pipeline.
fn family(name: &str, size: usize) -> Result<Circuit, String> {
    let (_, lo, hi) = family_entry(name)?;
    if !(lo..=hi).contains(&size) {
        return Err(format!("{name} size {size} out of range ({lo}..={hi})"));
    }
    let stg = match name {
        "muller" => return Ok(satpg_netlist::families::muller_pipeline(size)),
        "arbiter" => return Ok(satpg_netlist::families::arbiter_tree(size)),
        "dme" => satpg_stg::families::dme_ring(size),
        _ => satpg_stg::families::sequencer(size),
    };
    synth(&stg.map_err(|e| e.to_string())?, "si")
}

/// Builds the circuit a spec names.
///
/// # Errors
///
/// A human-readable message: parse errors (line-numbered), unknown
/// benchmark/family names, out-of-range sizes, synthesis failures.
pub fn resolve_circuit(spec: &CircuitSpec) -> Result<Circuit, String> {
    match spec {
        CircuitSpec::Bench { name, style } => {
            let stg = suite::load(name).map_err(|e| format!("{name}: {e}"))?;
            synth(&stg, style).map_err(|e| format!("{name}: {e}"))
        }
        CircuitSpec::Family { name, size } => family(name, *size),
        CircuitSpec::InlineG { text, style } => {
            let stg = parse_g(text).map_err(|e| e.to_string())?;
            synth(&stg, style)
        }
        CircuitSpec::InlineCkt { text } => parse_ckt(text).map_err(|e| e.to_string()),
    }
}

/// The flow configuration a job spec denotes for `ckt` — the single
/// definition shared by the daemon's engine path, a fleet coordinator
/// and its peer shards.  Byte-identical fleet reports depend on every
/// node deriving the *same* `AtpgConfig` from the same spec, so this
/// must stay the only place that mapping lives.
pub fn job_atpg_config(spec: &JobSpec, ckt: &Circuit) -> AtpgConfig {
    AtpgConfig {
        cssg: CssgConfig {
            k: spec.k,
            pattern_budget: spec.pattern_budget,
            ..CssgConfig::default()
        },
        random: if spec.no_random {
            None
        } else {
            Some(RandomTpgConfig {
                pattern_parallel: spec.pp_random,
                ..Default::default()
            })
        },
        fault_model: if spec.output_model {
            FaultModel::OutputStuckAt
        } else {
            FaultModel::InputStuckAt
        },
        collapse: spec.collapse,
        fault_sim: true,
        three_phase: ThreePhaseConfig::scaled(ckt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_spec_kinds() {
        let bench = resolve_circuit(&CircuitSpec::Bench {
            name: "converta".into(),
            style: "si".into(),
        })
        .unwrap();
        assert_eq!(bench.name(), "converta");
        let fam = resolve_circuit(&CircuitSpec::Family {
            name: "muller".into(),
            size: 3,
        })
        .unwrap();
        assert!(fam.num_gates() > 0);
        let g = resolve_circuit(&CircuitSpec::InlineG {
            text: suite::source("seq4").unwrap().to_string(),
            style: "si".into(),
        })
        .unwrap();
        assert_eq!(g.name(), "seq4");
        let ckt = resolve_circuit(&CircuitSpec::InlineCkt {
            text: "circuit inv\ninputs A:a\noutputs y\ngate y = not(a)\nsettle\n".into(),
        })
        .unwrap();
        assert_eq!(ckt.name(), "inv");
    }

    #[test]
    fn errors_carry_context_not_panics() {
        let e = resolve_circuit(&CircuitSpec::Bench {
            name: "no-such".into(),
            style: "si".into(),
        })
        .unwrap_err();
        assert!(e.contains("no-such"));
        let e = resolve_circuit(&CircuitSpec::Family {
            name: "muller".into(),
            size: 10_000,
        })
        .unwrap_err();
        assert!(e.contains("out of range"));
        assert_eq!(family_default_size("dme"), Ok(3));
        assert!(family_default_size("nope")
            .unwrap_err()
            .contains("unknown family"));
        let e = resolve_circuit(&CircuitSpec::InlineG {
            text: ".model m\n.bogus\n".into(),
            style: "si".into(),
        })
        .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = resolve_circuit(&CircuitSpec::InlineCkt {
            text: "circuit x\nnonsense\n".into(),
        })
        .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }
}
