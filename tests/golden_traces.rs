//! Golden-trace verification: record-replay is **bit-exact**.
//!
//! Each pinned scenario has two committed artifacts under `tests/golden/`:
//! `NAME.scn` (the canonical scenario text) and `NAME.trace` (the recorded
//! run trace). The test re-runs the scenario **from the committed file**
//! and requires the rendered trace to equal the committed trace
//! byte-for-byte — any change to the schedule, the RNG streams, the
//! protocol rules or the state projection shows up here as a digest
//! divergence with a located first-differing record.
//!
//! Regenerate after an *intentional* execution change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```

use ssmdst::graph::Graph;
use ssmdst::scenario::{corpus, engine, scn, TopologySpec};
use ssmdst::sim::{Digest, RunTrace};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned corpus scenarios: all three daemons, an
/// arbitrary-configuration start, churn, and a partition — the regions of
/// the scenario space most likely to catch a determinism regression.
fn golden_names() -> &'static [&'static str] {
    &[
        "converge-gnp-sync",
        "converge-scalefree-adversarial",
        "corrupt-start-total",
        "corrupt-start-partial-adversarial",
        "edge-churn-async",
        "partition-heal-cycle",
    ]
}

#[test]
fn golden_traces_replay_bit_for_bit() {
    let dir = golden_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for name in golden_names() {
        let scenario = corpus::by_name(name).expect("golden name must be in the corpus");
        let scn_path = dir.join(format!("{name}.scn"));
        let trace_path = dir.join(format!("{name}.trace"));

        if regen {
            let (_, trace) = engine::run_traced_any(&scenario);
            std::fs::write(&scn_path, scenario.canonical()).expect("write .scn");
            std::fs::write(&trace_path, trace.render()).expect("write .trace");
            eprintln!("regenerated {name}.scn + {name}.trace");
            continue;
        }

        // The committed .scn must be the canonical rendering of the corpus
        // entry — corpus and artifact cannot drift apart silently.
        let scn_text = std::fs::read_to_string(&scn_path)
            .unwrap_or_else(|e| panic!("{}: {e} (run GOLDEN_REGEN=1 once)", scn_path.display()));
        assert_eq!(
            scn_text,
            scenario.canonical(),
            "{name}.scn is not the canonical rendering of the corpus entry"
        );

        // Replay from the FILE, not the in-process value: this is the path
        // a failure report travels.
        let parsed = scn::parse(&scn_text).expect("committed .scn parses");
        assert_eq!(parsed, scenario, "parse must reconstruct the scenario");
        let (_, replayed) = engine::run_traced_any(&parsed);

        let golden_text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("{}: {e} (run GOLDEN_REGEN=1 once)", trace_path.display()));
        let golden = RunTrace::parse(&golden_text).expect("committed .trace parses");
        if let Some(divergence) = golden.first_divergence(&replayed) {
            panic!(
                "golden trace {name} DIVERGED: {divergence}\n\
                 If the execution change is intentional, regenerate with \
                 GOLDEN_REGEN=1 cargo test --test golden_traces"
            );
        }
        // Byte-for-byte, not just structurally equal.
        assert_eq!(
            replayed.render(),
            golden_text,
            "{name}: rendered trace must equal the committed bytes"
        );
    }
}

/// Replay determinism holds within a process too: two back-to-back runs of
/// the same scenario value produce identical traces.
#[test]
fn replay_is_deterministic_in_process() {
    let scenario = corpus::by_name("corrupt-start-total").unwrap();
    let (_, a) = engine::run_traced_any(&scenario);
    let (_, b) = engine::run_traced_any(&scenario);
    assert_eq!(a, b);
    engine::verify_replay(&scenario, &a).expect("replay verifies");
}

/// `(n, m, FNV-1a over n, m and the sorted edge list)`: the structural
/// fingerprint `crates/bench/tests/committed_rows.rs` pins the X instances
/// with.
fn fingerprint(g: &Graph) -> (usize, usize, u64) {
    let mut d = Digest::new();
    d.write_u64(g.n() as u64);
    d.write_u64(g.m() as u64);
    // `edges()` is the canonical list: `u < v`, lexicographically sorted.
    for &(u, v) in g.edges() {
        d.write_u32(u);
        d.write_u32(v);
    }
    (g.n(), g.m(), d.value())
}

/// Every corpus topology — the goldens' included — is pinned by
/// fingerprint, so a generator drift fails here with the instance named
/// rather than as a trace divergence or a moved corpus outcome.
#[test]
fn golden_topologies_are_pinned() {
    let family = |family: &str, n, seed| TopologySpec::Family {
        family: family.to_string(),
        n,
        seed,
    };
    // One pin per distinct topology; several corpus entries share one.
    // `spider n=12` builds an 11-node spider.
    let pins = [
        (family("gnp-sparse", 10, 1), (10, 17, 0x42ff_be1f_b5e6_7a42)),
        (family("gnp-sparse", 10, 4), (10, 16, 0x16b5_2f26_f871_4569)),
        (family("gnp-sparse", 12, 3), (12, 32, 0x3daa_3a68_92de_574c)),
        (family("gnp-dense", 10, 2), (10, 13, 0x7353_d710_34d7_e5c4)),
        (family("scale-free", 10, 2), (10, 17, 0x540b_43c5_d6a0_2927)),
        (family("ham-chords", 12, 3), (12, 35, 0x012d_cac7_8871_18e0)),
        (family("spider", 12, 1), (11, 10, 0x6af6_924b_9d5a_30d6)),
        (family("grid", 9, 1), (9, 12, 0x3211_9971_91f7_12a0)),
        (
            TopologySpec::StarRing { n: 8 },
            (8, 14, 0x66da_0125_805e_4263),
        ),
        (TopologySpec::Cycle { n: 8 }, (8, 8, 0xd338_754d_1721_7915)),
        (
            TopologySpec::Cycle { n: 10 },
            (10, 10, 0x2044_f4a0_e73b_ac05),
        ),
        (
            TopologySpec::Cycle { n: 15 },
            (15, 15, 0x2555_585b_eaba_add5),
        ),
        (
            TopologySpec::MultiHub { hubs: 3, spokes: 4 },
            (15, 30, 0x498c_d015_4b66_74cb),
        ),
        (
            TopologySpec::CompleteBipartite { a: 4, b: 2 },
            (6, 8, 0x24a5_c5ca_1f65_fd2b),
        ),
    ];
    for scn in corpus::corpus() {
        assert!(
            pins.iter().any(|(spec, _)| *spec == scn.topology),
            "{}: topology {:?} has no fingerprint pin",
            scn.name,
            scn.topology
        );
    }
    for (spec, pin) in &pins {
        let got = fingerprint(&spec.build());
        assert_eq!(got, *pin, "{spec:?}: fingerprint (n, m, {:#018x})", got.2);
    }
}
