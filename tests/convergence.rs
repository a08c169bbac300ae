//! Integration: the protocol converges on every workload family to a valid
//! spanning tree within one of the optimal degree (paper Theorem 2).

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::graph::{exact_mdst, SolveBudget};
use ssmdst::prelude::*;

/// Run to quiescence and return (converged, tree degree).
fn converge(g: &ssmdst::graph::Graph, sched: Scheduler) -> (bool, Option<u32>) {
    let net = build_network(g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(sched)
        .horizon(150_000)
        .build();
    let quiet = quiet_window(g.n());
    let out = session.run_to_quiescence(quiet, oracle::projection);
    let tree = oracle::try_extract_tree(g, session.network());
    if let Some(t) = &tree {
        t.validate(g).expect("extracted tree must validate");
    }
    (out.converged(), tree.map(|t| t.max_degree()))
}

#[test]
fn all_families_reach_delta_star_plus_one() {
    for fam in GraphFamily::all() {
        for seed in [1u64, 2] {
            let g = fam.generate(12, seed);
            let (conv, deg) = converge(&g, Scheduler::Synchronous);
            assert!(conv, "{} seed {seed}: no convergence", fam.label());
            let deg = deg.expect("terminal state must be a tree");
            let ds = fam
                .known_delta_star(&g)
                .or_else(|| exact_mdst(&g, SolveBudget::default()).delta_star())
                .expect("ground truth for n=12");
            assert!(
                deg <= ds + 1,
                "{} seed {seed}: deg {deg} > Δ*+1 = {}",
                fam.label(),
                ds + 1
            );
        }
    }
}

#[test]
fn random_async_daemon_converges_on_every_family() {
    for fam in GraphFamily::all() {
        let g = fam.generate(10, 3);
        let (conv, deg) = converge(&g, Scheduler::RandomAsync { seed: 5 });
        assert!(conv, "{}: async no convergence", fam.label());
        assert!(deg.is_some(), "{}: async terminal not a tree", fam.label());
    }
}

#[test]
fn adversarial_daemon_converges_on_every_family() {
    for fam in GraphFamily::all() {
        let g = fam.generate(10, 3);
        let (conv, deg) = converge(&g, Scheduler::Adversarial { seed: 5 });
        assert!(conv, "{}: adversarial no convergence", fam.label());
        assert!(deg.is_some());
    }
}

#[test]
fn star_with_ring_collapses_to_optimal_range() {
    let g = ssmdst::graph::generators::structured::star_with_ring(16).unwrap();
    let (conv, deg) = converge(&g, Scheduler::Synchronous);
    assert!(conv);
    assert!(deg.unwrap() <= 3, "Δ* = 2, got {:?}", deg); // Δ*+1 = 3
}

#[test]
fn forced_spider_stays_at_forced_degree() {
    // Every hub edge is a bridge: the protocol must not thrash trying to
    // improve the unimprovable.
    let g = ssmdst::graph::generators::gadgets::spider(5, 3).unwrap();
    let (conv, deg) = converge(&g, Scheduler::Synchronous);
    assert!(conv);
    assert_eq!(deg, Some(5));
}

#[test]
fn deterministic_same_seed_same_result() {
    let g = GraphFamily::GnpDense.generate(14, 9);
    let run = || {
        let net = build_network(&g, Config::for_n(g.n()));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::RandomAsync { seed: 42 })
            .horizon(150_000)
            .build();
        let _ = session.run_to_quiescence(96, oracle::projection);
        (
            oracle::projection(session.network()),
            session.network().metrics.total_sent,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn trivial_networks() {
    // Two nodes: one edge, trivially optimal.
    let g = ssmdst::graph::graph::graph_from_edges(2, &[(0, 1)]);
    let (conv, deg) = converge(&g, Scheduler::Synchronous);
    assert!(conv);
    assert_eq!(deg, Some(1));
    // Triangle: Δ* = 2.
    let g = ssmdst::graph::generators::structured::cycle(3).unwrap();
    let (conv, deg) = converge(&g, Scheduler::Synchronous);
    assert!(conv);
    assert_eq!(deg, Some(2));
}
