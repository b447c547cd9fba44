//! The identity matrix: every execution path of a campaign against one
//! table of golden report digests.
//!
//! The paper's tests hold for any assignment of gate delays (§5), and
//! the reproduction extends that promise to its own execution paths: a
//! campaign's timing-free report is the same bytes however it runs.
//! Each row below is a [`JobSpec`] carrying the FNV-64 digest of its
//! timing-free report JSON (settle counters included; a flow error
//! digests as `error: <message>`).  Each column is one execution path:
//! `satpg table`'s config, serial (`report_digests`), CSSG shards 2–4,
//! the engine on one worker (`search_set`) and on 2–4 plus audited
//! (`identity`), traced, the naive walk with POR off in both settling
//! layers (`settler_por_identity`), the campaign's targeted-stage
//! replay with every verdict precomputed (`merge`), one daemon, and the
//! fleet on 1–4 peers (one peer in one shard: `search_set`);
//! `identity_matrix` runs the rest and the whole `#[ignore]`d release
//! tier.  Every cell hashes to its row's digest, except a naive cell,
//! whose records, tests and totals equal the serial cell's (its settle
//! work differs by design).
//! The one-worker engine cell also pins the whole `EngineReport`.
//!
//! Report digests cannot see how a shard merge numbers CSSG states, so
//! a second table pins a structural digest per (circuit, `CssgConfig`)
//! across the serial POR build, the naive build and shards 1–4.  When
//! digests move, the serial, engine and structure tests print their
//! rows as source, to paste back once the change is intended and
//! reviewed.

// Each suite includes this module and runs its own columns.
#![allow(dead_code)]

use satpg::core::stages::{targeted_stage, Campaign};
use satpg::core::{
    build_cssg, build_cssg_sharded, faults_for, run_atpg, run_atpg_on, three_phase, AtpgConfig,
    AtpgReport, CapPolicy, CoreError, Cssg, CssgConfig, Fault, FaultStatus, Phase,
};
use satpg::engine::{run_engine, EngineConfig, EngineReport};
use satpg::netlist::Circuit;
use satpg::serve::cache::fnv64;
use satpg::serve::testing::{start_daemon, timing_free_report};
use satpg::serve::{
    job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, Client, ClientError, FleetConfig,
    JobSpec, ServeConfig,
};
use satpg::stg::suite;
use std::fmt::Write;
use std::sync::{OnceLock, PoisonError, RwLock};

/// Quick-tier report rows: `(job, report digest, one-worker engine
/// digest)`.  A job is `<benchmark> <si|2l|2lr>` or `<family>-<size>`,
/// then any of `no-random`, `output-model` and `collapse` ([`job`]).
/// A benchmark's digest serves `AtpgConfig::paper()` (the `table`
/// column) and the daemon's configuration alike: their reports are
/// byte-identical on every bundled circuit.
#[rustfmt::skip]
pub const QUICK: &[(&str, u64, u64)] = &[
    ("alloc-outbound si", 0x89434cb92efbbf18, 0xa62bb21e6764a459),
    ("alloc-outbound si no-random", 0xc3f66f2ca2395548, 0xf207097920d01b34),
    ("alloc-outbound 2l", 0xa7c6e4268bf002d5, 0x73ab922124f08e5c),
    ("alloc-outbound 2l no-random", 0xa624c88434bc54bb, 0xc5bc329f17a0e9bb),
    ("alloc-outbound 2lr", 0xa7c6e4268bf002d5, 0x73ab922124f08e5c),
    ("alloc-outbound 2lr no-random", 0xa624c88434bc54bb, 0xc5bc329f17a0e9bb),
    ("atod si", 0x203af4b16456ea9a, 0xb046bd010a1fb837),
    ("atod si no-random", 0xb3a4604ac3005eaa, 0x463203d9bbce735e),
    ("atod 2l", 0xbc9554f2655290eb, 0x99a922411efcb93e),
    ("atod 2l no-random", 0x729c5a55b611c4f1, 0xf678645a9ee110f1),
    ("atod 2lr", 0xbc9554f2655290eb, 0x99a922411efcb93e),
    ("atod 2lr no-random", 0x729c5a55b611c4f1, 0xf678645a9ee110f1),
    ("chu150 si", 0x4d703bce88d0e6b8, 0x4218c91771af693f),
    ("chu150 si no-random", 0x9092f0307f203a3a, 0x22ad7ec4d3fad43a),
    ("chu150 2l", 0x7c1000aea98c9616, 0xda3d30110de59811),
    ("chu150 2l no-random", 0x944996b765adcf4f, 0xe93e15ab8854fedc),
    ("chu150 2lr", 0x7c1000aea98c9616, 0xda3d30110de59811),
    ("chu150 2lr no-random", 0x944996b765adcf4f, 0xe93e15ab8854fedc),
    ("converta si", 0xb4e1c96ec7161208, 0x3842e5a941c64817),
    ("converta si no-random", 0xe9a6742c7ace2380, 0xa9deb56598a60c68),
    ("converta 2l", 0x71ade691a21a76bb, 0x9f729b0e9e237538),
    ("converta 2l no-random", 0x8117a86ceb74f719, 0xbc9e30c42cf99db5),
    ("converta 2lr", 0x71ade691a21a76bb, 0x9f729b0e9e237538),
    ("converta 2lr no-random", 0x8117a86ceb74f719, 0xbc9e30c42cf99db5),
    ("dff si", 0x815fabb36448ff2a, 0xbf97571405c7d0ef),
    ("dff si no-random", 0xe830750ce144ccc6, 0xec20058f404dd972),
    ("dff 2l", 0x309c0ff83ff3b96d, 0x39f2f99a93c107b0),
    ("dff 2l no-random", 0x98dac1faeddbc21d, 0x69422559222a5491),
    ("dff 2lr", 0x309c0ff83ff3b96d, 0x39f2f99a93c107b0),
    ("dff 2lr no-random", 0x98dac1faeddbc21d, 0x69422559222a5491),
    ("ebergen si", 0xfe29036d2bbf2d56, 0xb1daa9d7f9ebbb63),
    ("ebergen si no-random", 0xe3e143aa7a625ac2, 0x978376b56cf6f69c),
    ("ebergen 2l", 0x2bc7029050600b15, 0x4d41a45cf2f912ec),
    ("ebergen 2l no-random", 0xc099b386e837516f, 0x62cc7b0fa2ad4451),
    ("ebergen 2lr", 0x2bc7029050600b15, 0x4d41a45cf2f912ec),
    ("ebergen 2lr no-random", 0xc099b386e837516f, 0x62cc7b0fa2ad4451),
    ("hazard si", 0x108de4e25b1608a4, 0xfefb0edf27b6bde4),
    ("hazard si no-random", 0xd4212cbea89ae6a8, 0xf1fe4881b1f50d72),
    ("hazard 2l", 0x2886603409f5599e, 0x891706ed95648da6),
    ("hazard 2l no-random", 0x79822a46f6959bf8, 0xf0aa708b7772bdee),
    ("hazard 2lr", 0x2886603409f5599e, 0x891706ed95648da6),
    ("hazard 2lr no-random", 0x79822a46f6959bf8, 0xf0aa708b7772bdee),
    ("master-read si", 0x1eda02a6443a7245, 0xc94774b46684c967),
    ("master-read si no-random", 0xb5577679c14161a2, 0xfda4f1eba8468508),
    ("master-read 2l", 0x7b7ef8bc0c8cf946, 0x7989faf3adeda9ea),
    ("master-read 2l no-random", 0x09ad1ffbfab4763f, 0x14ce0503431fcadc),
    ("master-read 2lr", 0x990897bd3ba9bb77, 0xb9f5d8237abe9940),
    ("master-read 2lr no-random", 0x6c8d3253355fa712, 0x40e95c8934de0a50),
    ("mmu si", 0xf301fb281a0be97b, 0xd2599594cb49d2d2),
    ("mmu si no-random", 0x6ea8a736c4806b41, 0x2dad99c49b4811f5),
    ("mmu 2l", 0xf224f2ce5472b5cc, 0x1b142ba65d22e699),
    ("mmu 2l no-random", 0xf57b52ece6e928a4, 0x977ffda2c8b4cdf4),
    ("mmu 2lr", 0xf224f2ce5472b5cc, 0x1b142ba65d22e699),
    ("mmu 2lr no-random", 0xf57b52ece6e928a4, 0x977ffda2c8b4cdf4),
    ("mp-forward-pkt si", 0xbed2e3f42b65b39f, 0x6831faa0fa3d2359),
    ("mp-forward-pkt si no-random", 0x533c765b18a850fe, 0x6314efacf295898c),
    ("mp-forward-pkt 2l", 0xd620f0332c8f2bc3, 0x19e675a6de944205),
    ("mp-forward-pkt 2l no-random", 0x9534edf90e7c8102, 0x3eb59db9999bcf42),
    ("mp-forward-pkt 2lr", 0xd620f0332c8f2bc3, 0x19e675a6de944205),
    ("mp-forward-pkt 2lr no-random", 0x9534edf90e7c8102, 0x3eb59db9999bcf42),
    ("nak-pa si", 0x908675c7c812e12a, 0x35105462dcf2a865),
    ("nak-pa si no-random", 0x932c75ed31c33cec, 0xea019775616c5140),
    ("nak-pa 2l", 0x8b6a5b2ebe6375f0, 0xd400d03e9ccb2557),
    ("nak-pa 2l no-random", 0x58709ac58a0f2449, 0x0fa9094d72641f6e),
    ("nak-pa 2lr", 0x8b6a5b2ebe6375f0, 0xd400d03e9ccb2557),
    ("nak-pa 2lr no-random", 0x58709ac58a0f2449, 0x0fa9094d72641f6e),
    ("nowick si", 0xde2201310172df90, 0x3615f593024415e3),
    ("nowick si no-random", 0x65c52ebbad58a4ba, 0x06ba4c76fcdf859a),
    ("nowick 2l", 0x110d7c73799f0ce3, 0x78ba83740d54de5f),
    ("nowick 2l no-random", 0x2666bbbb45ec5872, 0x54222552427d1975),
    ("nowick 2lr", 0x110d7c73799f0ce3, 0x78ba83740d54de5f),
    ("nowick 2lr no-random", 0x2666bbbb45ec5872, 0x54222552427d1975),
    ("ram-read-sbuf si", 0xef284d75266f5436, 0x091ad8bdd9d841e1),
    ("ram-read-sbuf si no-random", 0x0c4edec7b1f51aee, 0xa31add06ca6fdf9c),
    ("ram-read-sbuf 2l", 0x41b80dff45d48a9f, 0xa09c3b351cb4f354),
    ("ram-read-sbuf 2l no-random", 0x9cec392f5e6992fd, 0x396654369a1a4553),
    ("ram-read-sbuf 2lr", 0x41b80dff45d48a9f, 0xa09c3b351cb4f354),
    ("ram-read-sbuf 2lr no-random", 0x9cec392f5e6992fd, 0x396654369a1a4553),
    ("rcv-setup si", 0x39ea6ce9dcfaf037, 0xd18cd19db80e57af),
    ("rcv-setup si no-random", 0xf191c7aedd6d368d, 0x4b1510ddb4faafe7),
    ("rcv-setup 2l", 0xb96c56e6a6916ea5, 0xf180225821751135),
    ("rcv-setup 2l no-random", 0xd2f14257787af9eb, 0x867e2cde73eeb2c9),
    ("rcv-setup 2lr", 0xb96c56e6a6916ea5, 0xf180225821751135),
    ("rcv-setup 2lr no-random", 0xd2f14257787af9eb, 0x867e2cde73eeb2c9),
    ("rpdft si", 0xf66539f745179db0, 0x3a5ff0294285ba45),
    ("rpdft si no-random", 0x45c0c79242691598, 0x70e21b13181c6f46),
    ("rpdft 2l", 0x0b9eb69cf0d66593, 0xac5d84ecc9f7a692),
    ("rpdft 2l no-random", 0xb1ee96d0fa9882c1, 0xe48fe2c7735e4817),
    ("rpdft 2lr", 0x0b9eb69cf0d66593, 0xac5d84ecc9f7a692),
    ("rpdft 2lr no-random", 0xb1ee96d0fa9882c1, 0xe48fe2c7735e4817),
    ("sbuf-ram-write si", 0xba8843dfda9239c4, 0xfb2dddbf7419f577),
    ("sbuf-ram-write si no-random", 0x4f43befc9f167f6d, 0x4e9ae00d2d0a5865),
    ("sbuf-ram-write 2l", 0xc8e175b8d4d4c4f5, 0x3715be7dc8d54c92),
    ("sbuf-ram-write 2l no-random", 0xb0038fce8270bd38, 0xb4c82a2b26df9ca8),
    ("sbuf-ram-write 2lr", 0xc8e175b8d4d4c4f5, 0x3715be7dc8d54c92),
    ("sbuf-ram-write 2lr no-random", 0xb0038fce8270bd38, 0xb4c82a2b26df9ca8),
    ("sbuf-send-ctl si", 0xd41186e53da46afd, 0x8a12f81af28eb980),
    ("sbuf-send-ctl si no-random", 0xc9ea604f214eabc3, 0xcd2ac5cb532c1bff),
    ("sbuf-send-ctl 2l", 0x97817027d88076b2, 0xb124d5fad3f6b05b),
    ("sbuf-send-ctl 2l no-random", 0x85d6a6aa26e0fe82, 0x4200e45596134cf2),
    ("sbuf-send-ctl 2lr", 0x97817027d88076b2, 0xb124d5fad3f6b05b),
    ("sbuf-send-ctl 2lr no-random", 0x85d6a6aa26e0fe82, 0x4200e45596134cf2),
    ("sbuf-send-pkt2 si", 0x96a9be63e6356307, 0xfe55a3ce4be0543e),
    ("sbuf-send-pkt2 si no-random", 0x42c2b9b31da37c78, 0x621bd4dfaa5a359a),
    ("sbuf-send-pkt2 2l", 0xf34742f3afccbc2a, 0x65cf92add33dd6ef),
    ("sbuf-send-pkt2 2l no-random", 0x95d246d2997f70e3, 0xadc689251ffe9905),
    ("sbuf-send-pkt2 2lr", 0xf34742f3afccbc2a, 0x65cf92add33dd6ef),
    ("sbuf-send-pkt2 2lr no-random", 0x95d246d2997f70e3, 0xadc689251ffe9905),
    ("seq4 si", 0xd7acba5662ddcfa5, 0x2ca0b25b2db9ac68),
    ("seq4 si no-random", 0x8a9f380da86f503f, 0xf0d1b862c65d7ce5),
    ("seq4 2l", 0xaecdb8e887ad7c3c, 0x4310939449ff5f79),
    ("seq4 2l no-random", 0x1cdc5d7550dde404, 0x77e918c5351077a2),
    ("seq4 2lr", 0xaecdb8e887ad7c3c, 0x4310939449ff5f79),
    ("seq4 2lr no-random", 0x1cdc5d7550dde404, 0x77e918c5351077a2),
    ("trimos-send si", 0x7787d7de20dc1cd9, 0x660d3be28ce24876),
    ("trimos-send si no-random", 0x1ff66f394e358292, 0xc7679433bd7860af),
    ("trimos-send 2l", 0xd12bc53a5fd0d6ea, 0xbf1b1fb0e6faabf5),
    ("trimos-send 2l no-random", 0xea1a67fd37ea3556, 0xe0d6263ba0c826bb),
    ("trimos-send 2lr", 0x8f471f34658bf990, 0xaa65b1492ff7b4f5),
    ("trimos-send 2lr no-random", 0x9b17a79428314a21, 0x8849dc012d8fb80f),
    ("vbe10b si", 0x3dc6945d58fbc69e, 0xc07c45b39659321d),
    ("vbe10b si no-random", 0x23628c0961ed759f, 0x6385c99004d07204),
    ("vbe10b 2l", 0x64714f7b0d3707ef, 0xb3456d48cd42a948),
    ("vbe10b 2l no-random", 0x553b9f5d37884949, 0x0b7249206acc638e),
    ("vbe10b 2lr", 0xcf0bf99f5f89d497, 0x985c6938f272031a),
    ("vbe10b 2lr no-random", 0xb74726920e772a4c, 0xe0515eb96322fab6),
    ("vbe5b si", 0x4496426bea396882, 0x2f01454cf6067a80),
    ("vbe5b si no-random", 0x546c2df29cc67522, 0xf380e86f7426e046),
    ("vbe5b 2l", 0x876ccf72e594b98c, 0x3e554bad0b5fad32),
    ("vbe5b 2l no-random", 0x56a54deeb932fe5a, 0xbaea894037feebea),
    ("vbe5b 2lr", 0x876ccf72e594b98c, 0x3e554bad0b5fad32),
    ("vbe5b 2lr no-random", 0x56a54deeb932fe5a, 0xbaea894037feebea),
    ("vbe6a si", 0x5e4724a4dc53aa2a, 0xc96ab21993be6d4b),
    ("vbe6a si no-random", 0xbd6ab3527cd5837b, 0xaf627c7acd860952),
    ("vbe6a 2l", 0x2ef687d05f7a048b, 0x91b03a1d32f357ce),
    ("vbe6a 2l no-random", 0x3ce49e2b16e429cd, 0xdac5753bdb048a48),
    ("vbe6a 2lr", 0x5aa99a38618b23fb, 0xe4958b2640becc18),
    ("vbe6a 2lr no-random", 0x420acdc49c885aa0, 0x0baf1bd6882dd47c),
    ("seq-6", 0x105c479796a15763, 0x02aa2fa7b2e98d2c),
    ("seq-6 no-random", 0x6557ed9e9fa2e1bd, 0xb3d0cbb4003f202e),
    ("seq-8", 0x417f93a8f55e4327, 0x8a08d5045a7d0558),
    ("seq-8 no-random", 0x6bc2ff7ba690917f, 0xa37e2116fa4d3d68),
    ("dme-3", 0xc3826b2ce41d8e96, 0x63a7fe1ea9456bd5),
    ("dme-3 no-random", 0x2e4b70af3b183f2c, 0x468122d80244ba05),
    ("dme-4", 0x542c27eed95ae927, 0xb688df428d52c5bd),
    ("dme-4 no-random", 0x1506492b3d7c5373, 0x97f3bc22ae5f8789),
    ("muller-6", 0x90891cff4455b4dc, 0xbd4f11a048cea7ad),
    ("muller-6 no-random", 0xc33192c5c588e88c, 0x360329cbc6ae3480),
    ("muller-10", 0x8bd88d4963a5a7f0, 0x2965fb1823cc4b13),
    ("muller-10 no-random", 0x6b1e8be929110a0f, 0xe33400b51643fba3),
    ("muller-12", 0x8b8d5449e465d9cc, 0x58059d6d1cda5bee),
    ("muller-12 no-random", 0xae8e0c788db36720, 0x584f7103868166a5),
    ("muller-16", 0x4da1fd08e8b55f70, 0x3b4816b49c4cfb6e),
    ("muller-16 no-random", 0xfa39c87f8ceab298, 0xc1cda0dc11b759fa),
    ("arbiter-4", 0x67a513daf7bf6d7e, 0x450efb5fce97e241),
    ("arbiter-4 no-random", 0xf3fd1eac0c9c8a8b, 0x139addc76af2113e),
    ("converta si output-model", 0xd3c52ce94a1ed5fe, 0x275e3ce775f1ec41),
    ("converta si collapse", 0xb4e1c96ec7161208, 0x3842e5a941c64817),
    ("master-read si output-model", 0x7aefa93c56d25511, 0x00a72a3854b2bac6),
    ("master-read si collapse", 0x1eda02a6443a7245, 0xc94774b46684c967),
    ("vbe6a si output-model", 0x8fe5e240940cb8b5, 0x9243015a61480b22),
    ("vbe6a si collapse", 0x5e4724a4dc53aa2a, 0xc96ab21993be6d4b),
];

/// Release-tier report rows: the families too slow for a debug run.
#[rustfmt::skip]
pub const RELEASE: &[(&str, u64, u64)] = &[
    ("dme-5", 0xa68035a474307ea4, 0xbe12a57481bf42cb),
    ("dme-5 no-random", 0x748c74017ec664c6, 0x4a99fc0aedae4457),
    ("muller-19", 0xc2bf96b714475a25, 0x619695f54ef2095a),
    ("muller-19 no-random", 0x6e2e45adec54e7b6, 0xb437b1ec39b426c9),
    ("muller-22", 0xbacc3f2acd079c68, 0x117288eec6b871c7),
    ("muller-22 no-random", 0xd4747d78989221c5, 0x1f50e5b04eb2db7e),
    ("arbiter-5", 0x7cee5d9637bd28b3, 0xc507ee2454dd6af6),
    ("arbiter-5 no-random", 0x38e76ec87de25482, 0x4d25e3fd924f6822),
    ("arbiter-6", 0x31a08c26dff5855b, 0x762e5989ea2b02bb),
    ("arbiter-6 no-random", 0xf22b8b67590a1ee4, 0xbc36866e53a4f5f4),
];

/// Fault-simulation work on the family rows: `(row, simulations the
/// serial targeted stage runs, simulations the one-worker engine's
/// backlog screening runs)`.  Both are one per distinct test a
/// three-phase search found, however many classes it was found for.
pub const FSIM_WORK: &[(&str, u64, u64)] = &[
    ("muller-10", 3, 3),
    ("muller-16", 3, 3),
    ("muller-22", 3, 3),
    ("dme-3", 7, 7),
    ("dme-5", 11, 11),
];

/// Structure rows: `(circuit, CSSG configuration, structural digest)`,
/// the configurations named as [`cssg_config`] names them.
#[rustfmt::skip]
pub const STRUCTURE: &[(&str, &str, u64)] = &[
    ("alloc-outbound si", "default", 0xe293f4bc894f37d2),
    ("atod si", "default", 0xe293f4bc894f37d2),
    ("chu150 si", "default", 0x4e200801d053392b),
    ("converta si", "default", 0xa047199955a8b278),
    ("dff si", "default", 0x28fefccec785a3ea),
    ("ebergen si", "default", 0xa047199955a8b278),
    ("hazard si", "default", 0xa047199955a8b278),
    ("master-read si", "default", 0x4173fa97422d76d2),
    ("mmu si", "default", 0xe293f4bc894f37d2),
    ("mp-forward-pkt si", "default", 0x88252db612e03ed5),
    ("nak-pa si", "default", 0x4e200801d053392b),
    ("nowick si", "default", 0xb0bae4abe233eae9),
    ("ram-read-sbuf si", "default", 0xe293f4bc894f37d2),
    ("rcv-setup si", "default", 0xa047199955a8b278),
    ("rpdft si", "default", 0xa047199955a8b278),
    ("sbuf-ram-write si", "default", 0xf9bb0d3e06d87176),
    ("sbuf-send-ctl si", "default", 0xe293f4bc894f37d2),
    ("sbuf-send-pkt2 si", "default", 0x4173fa97422d76d2),
    ("seq4 si", "default", 0xa047199955a8b278),
    ("trimos-send si", "default", 0xa968bd69978c3fc4),
    ("vbe10b si", "default", 0xa968bd69978c3fc4),
    ("vbe5b si", "default", 0xa047199955a8b278),
    ("vbe6a si", "default", 0xa968bd69978c3fc4),
    ("muller-8", "default", 0xdeb76cb1d284cafb),
    ("muller-11", "default", 0x9650e7558a3ecdf8),
    ("arbiter-4", "default", 0x8bff7ae4a22b0739),
    ("dme-3", "default", 0x540b0014dba6cd83),
    ("seq-6", "default", 0x09739850e3cccfb6),
    ("muller-6", "exact", 0xe33e7b9d14bf421c),
    ("muller-6", "exact k=5", 0x9f30c2b0e98e1f18),
    ("arbiter-4", "exact", 0x8bff7ae4a22b0739),
    ("arbiter-4", "exact k=5", 0xc16524170d25a798),
    ("converta si", "exact", 0xa047199955a8b278),
    ("converta si", "exact k=5", 0xc918bde2115a52b8),
    ("dff si", "exact", 0x28fefccec785a3ea),
    ("dff si", "exact k=5", 0xd2c7ab533c1d4caa),
    ("mmu si", "exact", 0xe293f4bc894f37d2),
    ("mmu si", "exact k=5", 0xcf046abc1c9a60ef),
    ("muller-6", "exact k=3", 0x0626366be783f186),
    ("muller-6", "fast k=2", 0x145cec44704b2af9),
    ("arbiter-4", "exact k=3", 0xa9bb454a13995fd8),
    ("arbiter-4", "fast k=2", 0x2ed9fd7eada6bdd8),
    ("muller-6", "truncating", 0xaeb2299ceea938c3),
    ("arbiter-5", "truncating", 0x3b04a8f8dc6d253e),
];

/// Release-tier structure rows: every build takes about a second or
/// more in a debug run.
#[rustfmt::skip]
pub const STRUCTURE_RELEASE: &[(&str, &str, u64)] = &[
    ("arbiter-6", "default", 0xbe56d3d633e570f9),
    ("muller-14", "default", 0x5b334c5fbf0cf54b),
    ("muller-16", "default", 0xe06e958975d20c8d),
    ("arbiter-7", "default", 0xdfbf9a2b41913991),
];

/// The CSSG configurations the structure rows name.  `truncating` is
/// the naive exact walk under a cap tight enough to cut settles short.
pub fn cssg_config(name: &str) -> CssgConfig {
    let exact = CssgConfig {
        ternary_fast_path: false,
        ..CssgConfig::default()
    };
    let k = |k| CssgConfig {
        k: Some(k),
        ..exact
    };
    match name {
        "default" => CssgConfig::default(),
        "exact" => exact,
        "exact k=5" => k(5),
        "exact k=3" => k(3),
        "fast k=2" => CssgConfig {
            k: Some(2),
            ..CssgConfig::default()
        },
        "truncating" => CssgConfig {
            settle_cap: CapPolicy::Fixed(8),
            por: false,
            ..exact
        },
        other => panic!("unknown CSSG configuration `{other}`"),
    }
}

/// Whether a row label names a bundled benchmark (not a family).
pub fn is_bench_label(label: &str) -> bool {
    suite::NAMES.contains(&label.split(' ').next().unwrap_or_default())
}

/// The job a row label names.
pub fn job(label: &str) -> JobSpec {
    let mut words = label.split(' ');
    let first = words.next().expect("a circuit");
    let circuit = if is_bench_label(label) {
        CircuitSpec::Bench {
            name: first.to_string(),
            style: words.next().expect("a synthesis style").to_string(),
        }
    } else {
        let (name, size) = first.rsplit_once('-').expect("<family>-<size>");
        CircuitSpec::Family {
            name: name.to_string(),
            size: size.parse().expect("a family size"),
        }
    };
    let mut spec = JobSpec::new(circuit);
    for knob in words {
        match knob {
            "no-random" => spec.no_random = true,
            "output-model" => spec.output_model = true,
            "collapse" => spec.collapse = true,
            other => panic!("unknown knob `{other}` in `{label}`"),
        }
    }
    spec
}

/// One report row.
pub struct Row {
    pub label: &'static str,
    pub spec: JobSpec,
    /// Digest of the timing-free report.
    pub report: u64,
    /// Digest of the one-worker engine's whole timing-free `EngineReport`.
    pub engine: u64,
}

impl Row {
    pub fn circuit(&self) -> Circuit {
        resolve_circuit(&self.spec.circuit).unwrap_or_else(|e| panic!("{}: {e}", self.label))
    }

    /// Whether the row is a benchmark in synthesis style `style`.
    pub fn is_bench(&self, style: &str) -> bool {
        matches!(&self.spec.circuit, CircuitSpec::Bench { style: s, .. } if s == style)
    }

    /// Whether the row is a generated family.
    pub fn is_family(&self) -> bool {
        matches!(self.spec.circuit, CircuitSpec::Family { .. })
    }

    /// Whether the row's circuit (its label's first word) is one of `circuits`.
    pub fn is_one_of(&self, circuits: &[&str]) -> bool {
        circuits.contains(&self.label.split(' ').next().unwrap_or_default())
    }

    /// No knob set: the plain campaign.
    pub fn is_plain(&self) -> bool {
        !(self.spec.no_random || self.spec.output_model || self.spec.collapse)
    }

    /// The output fault model or fault collapsing: the knob rows.
    pub fn has_fault_knob(&self) -> bool {
        self.spec.output_model || self.spec.collapse
    }
}

/// The quick rows `keep` selects; at least one.
pub fn quick_rows(keep: impl Fn(&Row) -> bool) -> Vec<Row> {
    let slice: Vec<Row> = rows(QUICK).into_iter().filter(keep).collect();
    assert!(!slice.is_empty(), "no row selected");
    slice
}

pub fn rows(table: &'static [(&'static str, u64, u64)]) -> Vec<Row> {
    table
        .iter()
        .map(|&(label, report, engine)| Row {
            label,
            spec: job(label),
            report,
            engine,
        })
        .collect()
}

/// What a cell renders: the timing-free report JSON, or the flow's
/// error message.
pub type Out = Result<String, String>;

pub fn render(report: Result<AtpgReport, CoreError>) -> Out {
    report
        .map(|r| r.to_json_value(false).render())
        .map_err(|e| e.to_string())
}

pub fn digest(out: &Out) -> u64 {
    match out {
        Ok(json) => fnv64(json.as_bytes()),
        Err(e) => fnv64(format!("error: {e}").as_bytes()),
    }
}

/// Three-phase searches, untestability proofs and aborts: the classes
/// the serial flow resolves by a search.
pub fn searched_serially(report: &AtpgReport) -> usize {
    report.covered_by(Phase::ThreePhase) + report.untestable() + report.aborted()
}

/// Held shared by every untraced cell (and pin) and exclusively by a
/// traced one, so nothing untraced runs while the process-wide
/// collector is installed.  It guards no data, so a poisoned lock is
/// still good.
pub static TRACE: RwLock<()> = RwLock::new(());

pub fn untraced<T>(cell: impl FnOnce() -> T) -> T {
    let _shared = TRACE.read().unwrap_or_else(PoisonError::into_inner);
    cell()
}

/// Four daemons for the whole test process: the first serves the
/// `daemon` column, and the first `n` are an `n`-peer fleet.  Their
/// accept loops are never joined; they end with the process.
pub fn daemons() -> &'static [String] {
    static ADDRS: OnceLock<Vec<String>> = OnceLock::new();
    ADDRS.get_or_init(|| {
        (0..4)
            .map(|_| start_daemon(ServeConfig::default()).0)
            .collect()
    })
}

/// The cells that missed their golden, reported together.
#[derive(Default)]
pub struct Misses(Vec<String>);

impl Misses {
    pub fn check(&mut self, row: &str, column: &str, got: u64, golden: u64) {
        if got != golden {
            let miss = format!("{row} × {column}: {got:#018x}, golden {golden:#018x}");
            self.0.push(miss);
        }
    }

    /// Panics listing every miss, followed by `table()` when given.
    pub fn assert_none(self, table: impl FnOnce() -> String) {
        if !self.0.is_empty() {
            panic!(
                "{} cells moved:\n{}\n{}",
                self.0.len(),
                self.0.join("\n"),
                table()
            );
        }
    }
}

pub fn serial(row: &Row, ckt: &Circuit) -> Out {
    untraced(|| render(run_atpg(ckt, &job_atpg_config(&row.spec, ckt))))
}

pub fn engine(row: &Row, ckt: &Circuit, w: usize, audit: bool) -> Result<EngineReport, String> {
    let cfg = EngineConfig {
        atpg: job_atpg_config(&row.spec, ckt),
        workers: w,
        symbolic_audit: audit,
    };
    run_engine(ckt, &cfg).map_err(|e| e.to_string())
}

/// `run_atpg` with its CSSG from `build` and its report from `run`.
pub fn on_cssg(
    ckt: &Circuit,
    cfg: &AtpgConfig,
    build: impl FnOnce(&CssgConfig) -> Result<Cssg, CoreError>,
    run: impl FnOnce(&Cssg, &[Fault]) -> AtpgReport,
) -> Out {
    untraced(|| {
        let cssg = build(&cfg.cssg).map_err(|e| e.to_string())?;
        if cssg.num_edges() == 0 {
            return Err(CoreError::NoValidVectors.to_string());
        }
        Ok(run(&cssg, &faults_for(ckt, cfg.fault_model))
            .to_json_value(false)
            .render())
    })
}

/// The rows as source, recomputed from the serial and one-worker
/// engine cells.
pub fn recomputed(rows: &[Row]) -> String {
    let mut table = String::from("recomputed rows:\n");
    for row in rows {
        let ckt = row.circuit();
        let engine = untraced(|| engine(row, &ckt, 1, false));
        let engine = digest(&engine.map(|e| e.to_json_value(false).render()));
        let report = digest(&serial(row, &ckt));
        let _ = writeln!(
            table,
            "    (\"{}\", {report:#018x}, {engine:#018x}),",
            row.label
        );
    }
    table
}

pub fn serial_cells(rows: &[Row], misses: &mut Misses) {
    for row in rows {
        misses.check(
            row.label,
            "serial",
            digest(&serial(row, &row.circuit())),
            row.report,
        );
    }
}

pub fn shard_cells(rows: &[Row], misses: &mut Misses) {
    for row in rows {
        let ckt = row.circuit();
        let cfg = job_atpg_config(&row.spec, &ckt);
        for shards in 2..=4 {
            let out = on_cssg(
                &ckt,
                &cfg,
                |c| build_cssg_sharded(&ckt, c, shards),
                |cssg, faults| run_atpg_on(&ckt, cssg, faults, &cfg, 0).expect("the flow runs"),
            );
            misses.check(
                row.label,
                &format!("shards {shards}"),
                digest(&out),
                row.report,
            );
        }
    }
}

/// Checks each [`FSIM_WORK`] row: the serial targeted stage's
/// simulation count and the one-worker engine's screening count.  The
/// counts reach only the metrics registry in a product run, so the
/// serial stages run here one by one.
pub fn fsim_work_cells() {
    for &(label, targeted, screened) in FSIM_WORK {
        let spec = job(label);
        let ckt = resolve_circuit(&spec.circuit).expect("the circuit resolves");
        let cfg = job_atpg_config(&spec, &ckt);
        let got = untraced(|| {
            let cssg = build_cssg(&ckt, &cfg.cssg).expect("the CSSG builds");
            let faults = faults_for(&ckt, cfg.fault_model);
            let mut campaign = Campaign::prepare(&ckt, &cssg, &faults, &cfg);
            let queue: Vec<usize> = (0..campaign.plan.len()).collect();
            targeted_stage(
                &ckt,
                &cssg,
                &campaign.plan,
                cfg.fault_sim,
                &queue,
                &mut campaign.state,
                &mut |_, f| three_phase(&ckt, &cssg, f, &cfg.three_phase),
            )
        });
        assert_eq!(got, targeted, "{label}: serial targeted-stage simulations");
        let one = EngineConfig {
            atpg: cfg,
            workers: 1,
            ..EngineConfig::default()
        };
        let e = untraced(|| run_engine(&ckt, &one)).expect("the engine runs");
        let got: u64 = e.workers.iter().map(|w| w.screen_sims).sum();
        assert_eq!(got, screened, "{label}: one-worker screening simulations");
    }
}

/// `run_engine` on each of `workers` workers, audit off.  Every cell
/// checks the workers' telemetry: no more workers than requested, one
/// search per parallel verdict, a merge recomputation only where a
/// broadcast dropped something, and, with the random stage off, some
/// worker left with work.  The one-worker cell also pins the whole
/// `EngineReport` and searches exactly the serial set, so the merge
/// re-searches nothing.
pub fn engine_cells(rows: &[Row], workers: &[usize], misses: &mut Misses) {
    for row in rows {
        let ckt = row.circuit();
        for &w in workers {
            let out = untraced(|| engine(row, &ckt, w, false));
            if let Ok(e) = &out {
                let ctx = format!("{} × engine w{w}", row.label);
                let searched: usize = e.workers.iter().map(|s| s.searched).sum();
                let drops: usize = e.workers.iter().map(|s| s.broadcast_drops).sum();
                assert!(e.workers.len() <= w, "{ctx}: worker count");
                assert!(
                    !(row.spec.no_random && e.workers.is_empty()),
                    "{ctx}: the random stage is off, so work is left for the engine"
                );
                assert_eq!(searched, e.parallel_verdicts, "{ctx}: searches");
                assert!(e.merge_fallbacks <= drops + searched, "{ctx}: fallbacks");
                if w == 1 {
                    assert_eq!(searched, searched_serially(&e.report), "{ctx}: search set");
                    assert_eq!(e.merge_fallbacks, 0, "{ctx}: merge fallbacks");
                    let whole = Ok(e.to_json_value(false).render());
                    misses.check(
                        row.label,
                        "engine w1 EngineReport",
                        digest(&whole),
                        row.engine,
                    );
                }
            }
            let out = out.map(|e| e.report.to_json_value(false).render());
            misses.check(row.label, &format!("engine w{w}"), digest(&out), row.report);
        }
    }
}

/// The audited engine on the random-off rows (so every class reaches a
/// worker): 1–4 workers on `si` benchmarks, 1 and 3 on the rest.  No
/// test may fail the audit, and every worker that found a test must
/// have built a relation, so an engine that ignores the opt-in fails.
pub fn audited_cells(rows: &[Row], misses: &mut Misses) {
    for row in rows.iter().filter(|r| r.spec.no_random) {
        let ckt = row.circuit();
        let workers: &[usize] = if row.is_bench("si") {
            &[1, 2, 3, 4]
        } else {
            &[1, 3]
        };
        for &w in workers {
            let column = format!("audited engine w{w}");
            let out = untraced(|| engine(row, &ckt, w, true));
            for s in out.iter().flat_map(|e| &e.workers) {
                assert_eq!(s.audit_failures, 0, "{} × {column}", row.label);
                assert!(
                    s.tests_found == 0 || s.bdd_peak_unique > 0,
                    "{} × {column}: worker {} audited nothing",
                    row.label,
                    s.worker
                );
            }
            let out = out.map(|e| e.report.to_json_value(false).render());
            misses.check(row.label, &column, digest(&out), row.report);
        }
    }
}

/// The naive walk costs seconds on these rows in a debug build.
pub const SLOW_NAIVE: [&str; 2] = ["muller-12", "muller-16"];

/// POR off in both settling layers: the naive CSSG build must complete
/// untruncated, and the records, tests and totals equal the serial
/// cell's.
pub fn naive_cells(rows: &[Row]) {
    let verdicts = |r: AtpgReport| {
        let json = r.to_json_value(false);
        (
            r.cssg_truncated,
            ["records", "tests", "totals"].map(|k| json.get(k).cloned()),
        )
    };
    for row in rows {
        let ckt = row.circuit();
        let default = job_atpg_config(&row.spec, &ckt);
        let mut naive = default.clone();
        naive.cssg.por = false;
        naive.three_phase.por = false;
        let (d, n) = untraced(|| (run_atpg(&ckt, &default), run_atpg(&ckt, &naive)));
        let n = n.map(verdicts).map_err(|e| e.to_string());
        let truncated = matches!(&n, Ok((t, _)) if *t > 0);
        assert!(!truncated, "{}: the naive build must complete", row.label);
        let d = d.map(verdicts).map_err(|e| e.to_string());
        assert_eq!(d, n, "{} × naive", row.label);
    }
}

/// The campaign's targeted-stage replay with every verdict
/// precomputed: each class the random stage leaves open gets its
/// `three_phase` verdict up front, as if engine workers or fleet peers
/// had delivered all of them, and [`Campaign::finish`] must hit the
/// row's digest without searching a class itself.
pub fn merge_cells(rows: &[Row], misses: &mut Misses) {
    for row in rows {
        let ckt = row.circuit();
        let cfg = job_atpg_config(&row.spec, &ckt);
        let out = on_cssg(
            &ckt,
            &cfg,
            |c| build_cssg(&ckt, c),
            |cssg, faults| {
                let campaign = Campaign::prepare(&ckt, cssg, faults, &cfg);
                let mut verdicts: Vec<Option<FaultStatus>> = vec![None; campaign.plan.len()];
                for ci in campaign.state.open_classes() {
                    let fault = &campaign.plan.classes()[ci].representative;
                    verdicts[ci] = Some(three_phase(&ckt, cssg, fault, &cfg.three_phase));
                }
                let done = campaign.finish(0, 0, &mut |ci| verdicts[ci].take());
                assert_eq!(done.searched, 0, "{} × merge: searched", row.label);
                done.report
            },
        );
        misses.check(
            row.label,
            "merge with every verdict precomputed",
            digest(&out),
            row.report,
        );
    }
}

pub fn daemon_cells(rows: &[Row], misses: &mut Misses) {
    let mut client = Client::connect(&daemons()[0]).expect("the daemon accepts");
    for row in rows {
        let out = untraced(|| match client.submit(row.spec.clone()) {
            Ok(done) => Ok(timing_free_report(&done.report)),
            Err(ClientError::Job(e)) => Err(e),
            Err(e) => panic!("{} × daemon: {e}", row.label),
        });
        misses.check(row.label, "daemon", digest(&out), row.report);
    }
}

/// `run_fleet` over each of `peers` peer counts with `chunk` classes a
/// shard.  One peer taking the campaign in one shard searches exactly
/// the serial set, so the merge re-searches nothing.
pub fn fleet_cells(rows: &[Row], peers: &[usize], chunk: usize, misses: &mut Misses) {
    for row in rows {
        for &n in peers {
            let column = match chunk {
                usize::MAX => format!("fleet {n}p one shard"),
                _ => format!("fleet {n}p chunk {chunk}"),
            };
            let fc = FleetConfig {
                peers: daemons()[..n].to_vec(),
                chunk,
                ..FleetConfig::default()
            };
            let out = untraced(|| run_fleet(&row.spec, &fc));
            if let Ok(f) = &out {
                let s = &f.stats;
                assert_eq!(s.peers, n, "{} × {column}: peers enlisted", row.label);
                if n == 1 && chunk == usize::MAX {
                    assert!(s.shards <= 1, "{} × {column}: one shard at most", row.label);
                    let searched = searched_serially(&f.report);
                    assert_eq!(s.remote_verdicts, searched, "{} × {column}", row.label);
                    assert_eq!(s.merge_fallbacks, 0, "{} × {column}", row.label);
                }
            }
            let out = out.map(|f| f.report.to_json_value(false).render());
            misses.check(row.label, &column, digest(&out), row.report);
        }
    }
}

/// Builds each circuit (a row label) under the default configuration
/// on a budget of four threads and checks how many it ran on: helpers
/// join a build once its own settling work passes a threshold, which
/// depends on the circuit and configuration alone.
pub fn build_threads_cells(circuits: &[&str], threads: usize) {
    for &circuit in circuits {
        let ckt = resolve_circuit(&job(circuit).circuit).expect("the circuit resolves");
        let cssg = untraced(|| build_cssg_sharded(&ckt, &CssgConfig::default(), 4))
            .expect("the CSSG builds");
        assert_eq!(cssg.build_threads(), threads, "{circuit} at a budget of 4");
    }
}

/// The structural digest of a CSSG: its transition bound and input
/// count, the state vector and every edge list in order, and the
/// pruning, truncation and skip counters.  The settle-work counters are
/// left out: they differ between a POR and a naive build by design.
pub fn structure(cssg: &Cssg) -> u64 {
    let mut text = format!(
        "k {} inputs {} nonconfluent {} unstable {} truncated {} skipped {}\n",
        cssg.k(),
        cssg.num_inputs(),
        cssg.pruned_nonconfluent(),
        cssg.pruned_unstable(),
        cssg.pruned_truncated(),
        cssg.patterns_skipped()
    );
    for (s, state) in cssg.states().iter().enumerate() {
        let _ = write!(text, "{state}:");
        for (pattern, to) in cssg.edges(s) {
            let _ = write!(text, " {pattern}>{to}");
        }
        text.push('\n');
    }
    fnv64(text.as_bytes())
}

/// The rows of `table` that `keep(circuit, configuration)` selects:
/// the serial build under the row's configuration; with POR on, the
/// naive build, which must complete untruncated; and shards 1–4.  A
/// build runs on one thread or on its whole budget, and each selected
/// configuration with a generated-family row must have one built with
/// helpers, so the helper path stays exercised (no bundled benchmark
/// builds long enough to get them).
pub fn structure_cells(table: &[(&str, &str, u64)], keep: impl Fn(&str, &str) -> bool) {
    let mut misses = Misses::default();
    let mut got = Vec::new();
    let mut helped = std::collections::BTreeMap::new();
    for &(circuit, config, golden) in table.iter().filter(|r| keep(r.0, r.1)) {
        let row = format!("{circuit} {config}");
        let ckt = resolve_circuit(&job(circuit).circuit).expect("the circuit resolves");
        let cfg = cssg_config(config);
        let build = |cfg: &CssgConfig, shards| {
            untraced(|| build_cssg_sharded(&ckt, cfg, shards)).expect("the CSSG builds")
        };
        let serial = untraced(|| build_cssg(&ckt, &cfg)).expect("the CSSG builds");
        if !cfg.por {
            assert!(
                serial.pruned_truncated() > 0,
                "{row}: the cap must truncate"
            );
        }
        got.push(format!(
            "    (\"{circuit}\", \"{config}\", {:#018x}),",
            structure(&serial)
        ));
        misses.check(&row, "serial", structure(&serial), golden);
        if cfg.por {
            let naive = build(&CssgConfig { por: false, ..cfg }, 1);
            assert_eq!(
                naive.pruned_truncated(),
                0,
                "{row}: the naive walk must complete"
            );
            misses.check(&row, "naive", structure(&naive), golden);
        }
        let mut threads_seen = 1;
        for shards in 1..=4 {
            let column = format!("shards {shards}");
            let built = build(&cfg, shards);
            let threads = built.build_threads();
            assert!(
                threads == 1 || threads == shards,
                "{row} × {column}: built on {threads} threads"
            );
            threads_seen = threads_seen.max(threads);
            misses.check(&row, &column, structure(&built), golden);
        }
        if !is_bench_label(circuit) {
            *helped.entry(config).or_insert(false) |= threads_seen > 1;
        }
    }
    assert!(!got.is_empty(), "no structure row selected");
    misses.assert_none(|| format!("recomputed rows:\n{}", got.join("\n")));
    for (config, helped) in helped {
        assert!(helped, "{config}: no family row built with helpers");
    }
}
