//! The curated scenario corpus: the regression surface the conformance
//! tests and the CI smoke job sweep.
//!
//! Every entry is small enough to run in a debug-build test yet covers one
//! distinct region of the scenario space — a topology family, a daemon, an
//! arbitrary-configuration start, a churn shape, or a mid-flight fault.
//! Corpus names are stable identifiers: `ssmdst replay` accepts a corpus
//! name anywhere it accepts a `.scn` path.

use crate::spec::{
    CorruptSpec, EventAction, ProtocolSpec, Scenario, ScenarioEvent, SchedSpec, Timing,
    TopologySpec,
};
use ssmdst_graph::generators::GraphFamily;
use ssmdst_sim::{ChurnEvent, TopologyPlan};

/// Default per-phase round cap for corpus entries.
const MAX_ROUNDS: u64 = 60_000;

/// The full corpus, in stable order with unique stable names.
pub fn corpus() -> Vec<Scenario> {
    // Plain convergence (one per daemon) + structured instances with
    // known optima.
    let mut scns = vec![
        Scenario::converge(
            "converge-gnp-sync",
            TopologySpec::family(GraphFamily::GnpSparse, 10, 1),
            SchedSpec::Synchronous,
            MAX_ROUNDS,
        ),
        Scenario::converge(
            "converge-gnp-async",
            TopologySpec::family(GraphFamily::GnpSparse, 10, 1),
            SchedSpec::RandomAsync { seed: 7 },
            MAX_ROUNDS,
        ),
        Scenario::converge(
            "converge-scalefree-adversarial",
            TopologySpec::family(GraphFamily::ScaleFree, 10, 2),
            SchedSpec::Adversarial { seed: 11 },
            MAX_ROUNDS,
        ),
        Scenario::converge(
            "converge-ham-chords",
            TopologySpec::family(GraphFamily::HamiltonianChords, 12, 3),
            SchedSpec::Synchronous,
            MAX_ROUNDS,
        ),
        Scenario::converge(
            "converge-spider",
            TopologySpec::family(GraphFamily::Spider, 12, 1),
            SchedSpec::RandomAsync { seed: 5 },
            MAX_ROUNDS,
        ),
        Scenario::converge(
            "converge-grid",
            TopologySpec::family(GraphFamily::Grid, 9, 1),
            SchedSpec::Synchronous,
            MAX_ROUNDS,
        ),
    ];

    // --- Arbitrary-configuration starts (the paper's Definition 1). ---
    let mut total_reset = Scenario::converge(
        "corrupt-start-total",
        TopologySpec::family(GraphFamily::GnpSparse, 10, 1),
        SchedSpec::Synchronous,
        MAX_ROUNDS,
    );
    total_reset.init_corrupt = Some(CorruptSpec {
        fraction: 1.0,
        drop: 1.0,
        seed: 5,
    });
    scns.push(total_reset);

    let mut partial_garbage = Scenario::converge(
        "corrupt-start-partial-adversarial",
        TopologySpec::family(GraphFamily::GnpDense, 10, 2),
        SchedSpec::Adversarial { seed: 3 },
        MAX_ROUNDS,
    );
    partial_garbage.init_corrupt = Some(CorruptSpec {
        fraction: 0.5,
        drop: 0.0,
        seed: 8,
    });
    scns.push(partial_garbage);

    // --- Stabilize, corrupt, re-stabilize (experiment F2's regime). ---
    let mut recover = Scenario::converge(
        "fault-after-stable",
        TopologySpec::StarRing { n: 8 },
        SchedSpec::Synchronous,
        MAX_ROUNDS,
    );
    recover.events = vec![ScenarioEvent::stable(EventAction::Fault(CorruptSpec {
        fraction: 0.5,
        drop: 0.5,
        seed: 9,
    }))];
    scns.push(recover);

    // --- A mid-flight fault: corruption lands before first convergence. ---
    let mut midflight = Scenario::converge(
        "fault-mid-flight",
        TopologySpec::family(GraphFamily::GnpSparse, 10, 4),
        SchedSpec::RandomAsync { seed: 13 },
        MAX_ROUNDS,
    );
    midflight.events = vec![ScenarioEvent {
        timing: Timing::Round(5),
        action: EventAction::Fault(CorruptSpec {
            fraction: 0.3,
            drop: 0.0,
            seed: 2,
        }),
    }];
    scns.push(midflight);

    // --- Topology churn: edge remove/insert, crash/rejoin, partition. ---
    let mut edge_churn = Scenario::converge(
        "edge-churn-async",
        TopologySpec::Cycle { n: 8 },
        SchedSpec::RandomAsync { seed: 3 },
        MAX_ROUNDS,
    );
    edge_churn.events = vec![
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RemoveEdge(0, 1))),
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::InsertEdge(0, 1))),
    ];
    scns.push(edge_churn);

    let mut crash_rejoin = Scenario::converge(
        "crash-rejoin-star-ring",
        TopologySpec::StarRing { n: 8 },
        SchedSpec::Synchronous,
        MAX_ROUNDS,
    );
    crash_rejoin.events = vec![
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::CrashNode(3))),
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RejoinNode(3))),
    ];
    scns.push(crash_rejoin);

    let mut split_heal = Scenario::converge(
        "partition-heal-cycle",
        TopologySpec::Cycle { n: 10 },
        SchedSpec::Synchronous,
        MAX_ROUNDS,
    );
    let cut = vec![(0, 1), (5, 6)];
    split_heal.events = vec![
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::Partition(cut.clone()))),
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::Heal(cut))),
    ];
    scns.push(split_heal);

    // --- The gauntlet: corruption at birth plus seeded mixed churn. ---
    let topo = TopologySpec::family(GraphFamily::GnpSparse, 10, 1);
    let g = topo.build();
    let mut gauntlet = Scenario::converge(
        "gauntlet-corrupt-churn",
        topo,
        SchedSpec::Adversarial { seed: 17 },
        MAX_ROUNDS,
    );
    gauntlet.init_corrupt = Some(CorruptSpec {
        fraction: 1.0,
        drop: 1.0,
        seed: 23,
    });
    gauntlet.events = TopologyPlan::edge_churn(&g, 1, 4)
        .events
        .into_iter()
        .map(|e| ScenarioEvent::stable(EventAction::Churn(e)))
        .collect();
    scns.push(gauntlet);

    // --- Non-MDST workloads: the flood/echo leader election through the
    // --- same scenarios/replay/campaign machinery (protocol registry). ---
    let mut flood = Scenario::converge(
        "flood-echo-leader",
        TopologySpec::family(GraphFamily::GnpSparse, 12, 3),
        SchedSpec::RandomAsync { seed: 5 },
        MAX_ROUNDS,
    );
    flood.protocol = ProtocolSpec::FloodEcho;
    scns.push(flood);

    let mut flood_gauntlet = Scenario::converge(
        "flood-echo-reelect",
        TopologySpec::Cycle { n: 10 },
        SchedSpec::Adversarial { seed: 7 },
        MAX_ROUNDS,
    );
    flood_gauntlet.protocol = ProtocolSpec::FloodEcho;
    flood_gauntlet.init_corrupt = Some(CorruptSpec {
        fraction: 1.0,
        drop: 0.5,
        seed: 13,
    });
    // Crash the elected minimum (ghost-claim flush), then bring it back.
    flood_gauntlet.events = vec![
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::CrashNode(0))),
        ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RejoinNode(0))),
    ];
    scns.push(flood_gauntlet);

    for text in STORM_HARVEST {
        #[expect(
            clippy::expect_used,
            reason = "compile-time literals, covered by the round-trip test"
        )]
        let scn = crate::scn::parse(text)
            .expect("harvested corpus entries are storm-emitted canonical .scn text");
        scns.push(scn);
    }

    scns
}

/// Storm-harvested corpus entries: the top coverage-gain survivors of a
/// long fixed-seed storm (`ssmdst storm --seed 7 --execs 1300 --distill`),
/// kept verbatim as the canonical `.scn` text the storm wrote (only the
/// `name` line is rewritten to a stable descriptive identifier; the
/// original storm id is noted per entry). Each one covers coverage
/// features none of the hand-written entries reach.
const STORM_HARVEST: &[&str] = &[
    // storm-7-1145 (+54 features): partial-corrupt multi-hub under an
    // async daemon, hit by partitions, repeated fault bursts, churn and
    // a final total wipe.
    "# ssmdst scenario v1\n\
     name = storm-multihub-gauntlet\n\
     topology = multi-hub hubs=3 spokes=4\n\
     scheduler = async:177\n\
     config = default\n\
     init = fraction=0.5 drop=0 seed=3563\n\
     stop = max-rounds=60000 quiet=auto\n\
     event = round:303 churn partition(5-7)\n\
     event = stable fault fraction=1 drop=0 seed=1488\n\
     event = round:21 churn rejoin(3)\n\
     event = stable fault fraction=0.1 drop=0.5 seed=8028\n\
     event = stable churn +edge(7,8)\n\
     event = round:82 churn crash(5)\n\
     event = round:201 fault fraction=0.25 drop=0 seed=8969\n\
     event = stable fault fraction=1 drop=1 seed=5832\n",
    // storm-7-723 (+38 features): mid-flight fault bursts racing a
    // partition on the synchronous daemon, then crash after recovery.
    "# ssmdst scenario v1\n\
     name = storm-partition-fault-race\n\
     topology = family:gnp-sparse n=10 seed=1\n\
     scheduler = sync\n\
     config = default\n\
     stop = max-rounds=60000 quiet=auto\n\
     event = round:389 churn partition(5-7)\n\
     event = round:9 fault fraction=0.25 drop=1 seed=5170\n\
     event = stable fault fraction=1 drop=0 seed=1488\n\
     event = round:250 fault fraction=0.25 drop=0 seed=2184\n\
     event = round:21 churn rejoin(3)\n\
     event = stable churn crash(5)\n",
    // storm-7-569 (+26 features): a partition cutting a complete
    // bipartite instance, total corruption while split, then crash.
    "# ssmdst scenario v1\n\
     name = storm-bipartite-partition\n\
     topology = complete-bipartite a=4 b=2\n\
     scheduler = async:177\n\
     config = default\n\
     stop = max-rounds=60000 quiet=auto\n\
     event = stable churn partition(1-5)\n\
     event = stable fault fraction=1 drop=0 seed=1488\n\
     event = round:21 churn rejoin(3)\n\
     event = round:172 churn crash(5)\n",
    // storm-7-198 (+12 features): flood-echo leader crash plus a fault
    // burst before the late rejoin (non-MDST churn coverage).
    "# ssmdst scenario v1\n\
     name = storm-flood-echo-crash-burst\n\
     protocol = flood-echo\n\
     topology = cycle n=10\n\
     scheduler = adversarial:7\n\
     config = default\n\
     init = fraction=1 drop=0.5 seed=13\n\
     stop = max-rounds=60000 quiet=auto\n\
     event = stable churn crash(0)\n\
     event = stable fault fraction=0.25 drop=1 seed=6236\n\
     event = round:175 churn rejoin(0)\n",
    // storm-7-1291 (+2 features, unique cycle-n=15 signatures): the full
    // event storm replayed on a larger odd cycle.
    "# ssmdst scenario v1\n\
     name = storm-cycle-event-storm\n\
     topology = cycle n=15\n\
     scheduler = async:177\n\
     config = default\n\
     stop = max-rounds=60000 quiet=auto\n\
     event = round:303 churn partition(5-7)\n\
     event = stable fault fraction=1 drop=0 seed=1488\n\
     event = round:21 churn rejoin(3)\n\
     event = stable fault fraction=0.1 drop=0.5 seed=8028\n\
     event = stable churn +edge(7,8)\n\
     event = round:82 churn crash(5)\n\
     event = round:201 fault fraction=0.25 drop=0 seed=8969\n\
     event = stable fault fraction=1 drop=1 seed=5832\n",
];

/// Look up a corpus entry by its stable name.
pub fn by_name(name: &str) -> Option<Scenario> {
    corpus().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_stable() {
        let scns = corpus();
        assert!(scns.len() >= 12, "corpus should stay broad");
        let mut names: Vec<&str> = scns.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scns.len(), "duplicate corpus names");
        assert!(by_name("corrupt-start-total").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    /// The storm-harvested entries stay in the corpus (they carry
    /// coverage features none of the hand-written entries reach) and
    /// kept their event payloads through the literal → parse path.
    #[test]
    fn storm_harvest_is_present_and_eventful() {
        for name in [
            "storm-multihub-gauntlet",
            "storm-partition-fault-race",
            "storm-bipartite-partition",
            "storm-flood-echo-crash-burst",
            "storm-cycle-event-storm",
        ] {
            let scn = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!scn.events.is_empty(), "{name} lost its events");
        }
        assert_eq!(
            by_name("storm-flood-echo-crash-burst").unwrap().protocol,
            ProtocolSpec::FloodEcho
        );
    }

    #[test]
    fn corpus_round_trips_through_scn_text() {
        for scn in corpus() {
            let text = scn.canonical();
            let parsed = crate::scn::parse(&text)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", scn.name));
            assert_eq!(parsed, scn, "{} round trip", scn.name);
        }
    }

    #[test]
    fn gauntlet_has_real_churn_events() {
        let g = by_name("gauntlet-corrupt-churn").unwrap();
        assert!(!g.events.is_empty(), "seeded churn plan must be non-empty");
    }

    /// The corpus covers more than one protocol, and the non-MDST entries
    /// carry their registry line through the `.scn` round trip.
    #[test]
    fn corpus_spans_protocols() {
        let flood: Vec<Scenario> = corpus()
            .into_iter()
            .filter(|s| s.protocol == ProtocolSpec::FloodEcho)
            .collect();
        assert!(flood.len() >= 2, "non-MDST coverage must stay");
        for s in flood {
            assert!(
                s.canonical().contains("protocol = flood-echo"),
                "{}",
                s.name
            );
        }
    }
}
