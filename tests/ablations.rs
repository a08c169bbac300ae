//! Integration: the ablation configurations A1 and A2 (ARCHITECTURE.md,
//! "Modelling deviations") remain correct (self-stabilizing, tree-valid);
//! the experiment harness measures their performance cost separately.

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::prelude::*;
use ssmdst::sim::faults::{inject, FaultPlan};

/// A1: strict paper-style R2 still converges to a legitimate configuration.
#[test]
fn strict_mode_converges() {
    let g = GraphFamily::GnpSparse.generate(12, 1);
    let net = build_network(&g, Config::strict(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(300_000)
        .build();
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged(), "strict mode stuck");
    assert!(oracle::is_legitimate(&g, session.network()));
}

/// A1: strict mode also recovers from corruption.
#[test]
fn strict_mode_recovers_from_faults() {
    let g = GraphFamily::Grid.generate(9, 1);
    let net = build_network(&g, Config::strict(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::RandomAsync { seed: 4 })
        .horizon(300_000)
        .build();
    inject(session.network_mut(), FaultPlan::total(5));
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    assert!(oracle::try_extract_tree(&g, session.network()).is_some());
}

/// A2: with Deblock disabled the protocol still stabilizes to a valid
/// spanning tree (the quality guarantee, not safety, is what degrades).
#[test]
fn no_deblock_still_safe() {
    for fam in [GraphFamily::GnpDense, GraphFamily::ScaleFree] {
        let g = fam.generate(12, 2);
        let net = build_network(&g, Config::without_deblock(g.n()));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged(), "{}", fam.label());
        let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
        t.validate(&g).unwrap();
    }
}

/// A2: Deblock never *hurts* quality — with it enabled the final degree is
/// less than or equal to the no-deblock run on the same instance.
#[test]
fn deblock_never_hurts_quality() {
    for seed in [3u64, 4, 5] {
        let g = GraphFamily::GnpDense.generate(12, seed);
        let run = |cfg: Config| {
            let net = build_network(&g, cfg);
            let mut session = Session::from_network(net)
                .scheduler(Scheduler::Synchronous)
                .horizon(150_000)
                .build();
            let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
            assert!(out.converged());
            oracle::try_extract_tree(&g, session.network())
                .expect("tree")
                .max_degree()
        };
        let with = run(Config::for_n(g.n()));
        let without = run(Config::without_deblock(g.n()));
        assert!(
            with <= without,
            "seed {seed}: deblock degraded quality ({with} > {without})"
        );
    }
}
