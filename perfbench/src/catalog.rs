//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("faults_per_s", "faults/s"),
    ("coverage_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).  A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stg.synth_us", "us"),
    ("stg.sg_states", "count"),
    ("netlist.parse_us", "us"),
    ("cssg.build_us", "us"),
    ("cssg.states", "count"),
    ("cssg.edges", "count"),
    ("cssg.pruned_nonconfluent", "count"),
    ("sim.settle_states", "count"),
    ("sim.por_pruned_ratio", "ratio"),
    ("cssg.ns_per_settle_state", "ns"),
    ("random.us", "us"),
    ("random.passes", "count"),
    ("random.patterns", "count"),
    ("random.resolved_ratio", "ratio"),
    ("three_phase.us", "us"),
    ("three_phase.calls", "count"),
    ("three_phase.detect_ratio", "ratio"),
    ("fsim.us", "us"),
    ("fsim.credits", "count"),
    ("engine.campaign_us", "us"),
    ("engine.parallel_us", "us"),
    ("engine.merge_us", "us"),
    ("engine.worker_busy_ratio", "ratio"),
    ("engine.stolen", "count"),
    ("engine.broadcast_drops", "count"),
    ("engine.merge_fallbacks", "count"),
    ("engine.audit_us", "us"),
    ("bdd.peak_nodes", "count"),
    ("bdd.audit_failures", "count"),
    ("serve.connect_us", "us"),
    ("serve.accepted_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.cssg_hit_ratio", "ratio"),
    ("serve.circuit_hit_ratio", "ratio"),
    ("serve.events_per_job", "events/job"),
    ("serve.events_dropped", "count"),
    ("serve.rejected", "count"),
    ("fleet.overhead_ratio", "ratio"),
    ("fleet.shards", "count"),
    ("fleet.remote_verdicts", "count"),
    ("fleet.broadcasts_relayed", "count"),
    ("fleet.retries", "count"),
    ("fleet.merge_fallbacks", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_core::json::Json;

    fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(PER_LAYER));
    }
}
