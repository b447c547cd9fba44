//! Golden digests of the timing-free serial report.
//!
//! Each entry is the FNV-1a 64 digest of `run_atpg(..).to_json_value(false)`
//! rendered on one line: every verdict, test and CSSG counter, including
//! the settle-work counters `cssg.settle_states` and `cssg.por_pruned`.
//! A change to the settler, the CSSG build or any ATPG stage that moves a
//! single byte of any report moves its digest, so performance work on
//! those layers can prove it changed nothing else.
//!
//! The quick tier covers the 23 bundled benchmarks in all three synthesis
//! styles under `AtpgConfig::paper()` and the smaller generated families
//! under `AtpgConfig::scaled`, with the random stage on and off; the
//! `#[ignore]`d release tier covers the families too slow for a debug
//! run:
//!
//! ```text
//! cargo test --release --test report_digests -- --include-ignored
//! ```
//!
//! On a mismatch the failure message lists every row as source, ready to
//! paste back once a report change is intended and reviewed.

use satpg::core::{run_atpg, AtpgConfig};
use satpg::netlist::Circuit;
use satpg::serve::cache::fnv64;
use satpg::serve::{resolve_circuit, CircuitSpec};
use satpg::stg::suite;

/// Synthesis styles, in the column order of [`BENCH`].
const STYLES: [&str; 3] = ["si", "2l", "2lr"];

/// Per bundled benchmark: the `si`, `2l` and `2lr` report digests under
/// `AtpgConfig::paper()`.
#[rustfmt::skip]
const BENCH: &[(&str, [u64; 3])] = &[
    ("alloc-outbound", [0x89434cb92efbbf18, 0xa7c6e4268bf002d5, 0xa7c6e4268bf002d5]),
    ("atod", [0x203af4b16456ea9a, 0xbc9554f2655290eb, 0xbc9554f2655290eb]),
    ("chu150", [0x4d703bce88d0e6b8, 0x7c1000aea98c9616, 0x7c1000aea98c9616]),
    ("converta", [0xb4e1c96ec7161208, 0x71ade691a21a76bb, 0x71ade691a21a76bb]),
    ("dff", [0x815fabb36448ff2a, 0x309c0ff83ff3b96d, 0x309c0ff83ff3b96d]),
    ("ebergen", [0xfe29036d2bbf2d56, 0x2bc7029050600b15, 0x2bc7029050600b15]),
    ("hazard", [0x108de4e25b1608a4, 0x2886603409f5599e, 0x2886603409f5599e]),
    ("master-read", [0x1eda02a6443a7245, 0x7b7ef8bc0c8cf946, 0x990897bd3ba9bb77]),
    ("mmu", [0xf301fb281a0be97b, 0xf224f2ce5472b5cc, 0xf224f2ce5472b5cc]),
    ("mp-forward-pkt", [0xbed2e3f42b65b39f, 0xd620f0332c8f2bc3, 0xd620f0332c8f2bc3]),
    ("nak-pa", [0x908675c7c812e12a, 0x8b6a5b2ebe6375f0, 0x8b6a5b2ebe6375f0]),
    ("nowick", [0xde2201310172df90, 0x110d7c73799f0ce3, 0x110d7c73799f0ce3]),
    ("ram-read-sbuf", [0xef284d75266f5436, 0x41b80dff45d48a9f, 0x41b80dff45d48a9f]),
    ("rcv-setup", [0x39ea6ce9dcfaf037, 0xb96c56e6a6916ea5, 0xb96c56e6a6916ea5]),
    ("rpdft", [0xf66539f745179db0, 0x0b9eb69cf0d66593, 0x0b9eb69cf0d66593]),
    ("sbuf-ram-write", [0xba8843dfda9239c4, 0xc8e175b8d4d4c4f5, 0xc8e175b8d4d4c4f5]),
    ("sbuf-send-ctl", [0xd41186e53da46afd, 0x97817027d88076b2, 0x97817027d88076b2]),
    ("sbuf-send-pkt2", [0x96a9be63e6356307, 0xf34742f3afccbc2a, 0xf34742f3afccbc2a]),
    ("seq4", [0xd7acba5662ddcfa5, 0xaecdb8e887ad7c3c, 0xaecdb8e887ad7c3c]),
    ("trimos-send", [0x7787d7de20dc1cd9, 0xd12bc53a5fd0d6ea, 0x8f471f34658bf990]),
    ("vbe10b", [0x3dc6945d58fbc69e, 0x64714f7b0d3707ef, 0xcf0bf99f5f89d497]),
    ("vbe5b", [0x4496426bea396882, 0x876ccf72e594b98c, 0x876ccf72e594b98c]),
    ("vbe6a", [0x5e4724a4dc53aa2a, 0x2ef687d05f7a048b, 0x5aa99a38618b23fb]),
];

/// Generated families under `AtpgConfig::scaled` (quick tier).  The
/// random stage covers 23 of dme-3's 44 faults, 23 of muller-6's 40
/// and 17 of arbiter-4's 22.
const FAMILY_QUICK: &[(&str, usize, u64)] = &[
    ("seq", 6, 0x105c479796a15763),
    ("seq", 8, 0x417f93a8f55e4327),
    ("dme", 3, 0xc3826b2ce41d8e96),
    ("dme", 4, 0x542c27eed95ae927),
    ("muller", 6, 0x90891cff4455b4dc),
    ("muller", 10, 0x8bd88d4963a5a7f0),
    ("muller", 12, 0x8b8d5449e465d9cc),
    ("muller", 16, 0x4da1fd08e8b55f70),
    ("arbiter", 4, 0x67a513daf7bf6d7e),
];

/// Generated families under `AtpgConfig::scaled` with the random stage
/// off (quick tier), so every fault class reaches the three-phase
/// search.  Coverage is 93.18% on dme-3 and 100% on the others, with
/// nothing aborted.  `tests/search_set.rs` shows that a one-worker
/// engine searches exactly the classes these reports attribute to the
/// three-phase search, untestability or an abort.
const FAMILY_NO_RANDOM: &[(&str, usize, u64)] = &[
    ("dme", 3, 0x2e4b70af3b183f2c),
    ("muller", 6, 0xc33192c5c588e88c),
    ("arbiter", 4, 0xf3fd1eac0c9c8a8b),
    ("muller", 10, 0x6b1e8be929110a0f),
];

/// Generated families under `AtpgConfig::scaled` (release tier).
const FAMILY_RELEASE: &[(&str, usize, u64)] = &[
    ("dme", 5, 0xa68035a474307ea4),
    ("muller", 19, 0xc2bf96b714475a25),
    ("muller", 22, 0xbacc3f2acd079c68),
    ("arbiter", 5, 0x7cee5d9637bd28b3),
    ("arbiter", 6, 0x31a08c26dff5855b),
];

/// The flow configuration a table runs its circuits under.
type Config = fn(&Circuit) -> AtpgConfig;

/// `AtpgConfig::scaled` with the random stage off.
fn no_random(ckt: &Circuit) -> AtpgConfig {
    AtpgConfig {
        random: None,
        ..AtpgConfig::scaled(ckt)
    }
}

/// The digest of the timing-free report for `spec`; a flow error is
/// digested as its message, so a circuit that stops failing also shows.
fn digest(spec: &CircuitSpec, config: Config) -> u64 {
    let ckt = resolve_circuit(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
    let text = match run_atpg(&ckt, &config(&ckt)) {
        Ok(report) => report.to_json_value(false).render(),
        Err(e) => format!("error: {e}"),
    };
    fnv64(text.as_bytes())
}

fn family_spec(name: &str, size: usize) -> CircuitSpec {
    CircuitSpec::Family {
        name: name.to_string(),
        size,
    }
}

/// Asserts `got == want`, listing every row as source on a mismatch.
fn assert_rows(what: &str, got: &[String], want: &[String]) {
    if got != want {
        panic!(
            "{what}: report digests moved; recomputed table:\n{}",
            got.join("\n")
        );
    }
}

fn check_families(
    what: &str,
    config: Config,
    table: &[(&str, usize, u64)],
    sizes: &[(&str, usize)],
) {
    let row = |name: &str, size: usize, d: u64| format!("    (\"{name}\", {size}, {d:#018x}),");
    let got: Vec<String> = sizes
        .iter()
        .map(|&(name, size)| row(name, size, digest(&family_spec(name, size), config)))
        .collect();
    let want: Vec<String> = table.iter().map(|&(n, s, d)| row(n, s, d)).collect();
    assert_rows(what, &got, &want);
}

#[test]
fn bundled_benchmarks_in_every_style() {
    let row = |name: &str, d: [u64; 3]| {
        format!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2]
        )
    };
    let got: Vec<String> = suite::NAMES
        .iter()
        .map(|&name| {
            let d = STYLES.map(|style| {
                let spec = CircuitSpec::Bench {
                    name: name.to_string(),
                    style: style.to_string(),
                };
                digest(&spec, |_| AtpgConfig::paper())
            });
            row(name, d)
        })
        .collect();
    let want: Vec<String> = BENCH.iter().map(|&(n, d)| row(n, d)).collect();
    assert_rows("bundled benchmarks", &got, &want);
}

#[test]
fn generated_families_quick_tier() {
    check_families(
        "generated families (quick tier)",
        AtpgConfig::scaled,
        FAMILY_QUICK,
        &[
            ("seq", 6),
            ("seq", 8),
            ("dme", 3),
            ("dme", 4),
            ("muller", 6),
            ("muller", 10),
            ("muller", 12),
            ("muller", 16),
            ("arbiter", 4),
        ],
    );
}

#[test]
fn generated_families_without_random_stage() {
    check_families(
        "generated families without the random stage",
        no_random,
        FAMILY_NO_RANDOM,
        &[("dme", 3), ("muller", 6), ("arbiter", 4), ("muller", 10)],
    );
}

#[test]
#[ignore = "release tier: run with --release -- --include-ignored"]
fn generated_families_release_tier() {
    check_families(
        "generated families (release tier)",
        AtpgConfig::scaled,
        FAMILY_RELEASE,
        &[
            ("dme", 5),
            ("muller", 19),
            ("muller", 22),
            ("arbiter", 5),
            ("arbiter", 6),
        ],
    );
}
