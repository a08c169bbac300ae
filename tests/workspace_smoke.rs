//! Workspace smoke test: every facade re-export is reachable through the
//! `ssmdst` crate, and the README/lib.rs quickstart actually runs. This is
//! the cheapest tier-1 canary — if the workspace wiring (crate names, path
//! deps, `pub use` surface) regresses, this file fails to *compile*.

use ssmdst::prelude::*;

/// Every module alias resolves and exposes its headline items. The bodies
/// exercise one real call per crate so the re-export is linked, not just
/// name-resolved.
#[test]
fn facade_reexports_are_reachable() {
    // ssmdst::graph == ssmdst_graph
    let g: ssmdst::graph::Graph =
        ssmdst::graph::generators::structured::star_with_ring(8).expect("star_with_ring generates");
    assert_eq!(g.n(), 8);
    assert!(ssmdst::graph::is_connected(&g));
    let lb = ssmdst::graph::degree_lower_bound(&g);
    assert!(lb >= 2);

    // ssmdst::baselines == ssmdst_baselines
    let t = ssmdst::baselines::bfs_spanning_tree(&g, 0).expect("bfs tree");
    t.validate(&g).expect("valid spanning tree");

    // ssmdst::core == ssmdst_core (type path and constructor)
    let cfg: ssmdst::core::Config = ssmdst::core::Config::for_n(g.n());
    let net = ssmdst::core::build_network(&g, cfg);
    assert_eq!(net.n(), g.n());

    // ssmdst::sim == ssmdst_sim
    let mut session = ssmdst::sim::Session::from_network(net)
        .scheduler(ssmdst::sim::Scheduler::Synchronous)
        .horizon(10_000)
        .build();
    let out = session.run_to_quiescence(64, ssmdst::core::oracle::projection);
    assert!(out.converged());
}

/// The prelude glob covers the names the examples and docs lean on.
#[test]
fn prelude_surface_is_complete() {
    // Types from all four crates are importable through one glob.
    let g: Graph = GraphBuilder::new(3)
        .edge(0, 1)
        .unwrap()
        .edge(1, 2)
        .unwrap()
        .build();
    let _: SpanningTree = bfs_spanning_tree(&g, 0).unwrap();
    let _: SpanningTree = random_spanning_tree(&g, 7).unwrap();
    let (t, _stats) = fr_mdst(&g, bfs_spanning_tree(&g, 0).unwrap());
    t.validate(&g).unwrap();

    let net: Network<MdstNode> = build_network(&g, Config::for_n(g.n()));
    let mut session: Session<MdstNode> = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .build();
    let out: RunOutcome = session.run_until(
        1_000,
        &mut stop_when(|net: &Network<MdstNode>, _| oracle::all_tree_stabilized(net)),
    );
    assert!(out.converged());
    let (_, ()): (Runner<MdstNode>, ()) = session.into_parts();
}

/// The lib.rs quickstart, verbatim as a compiled test (the doctest runs it
/// too — `cargo test --doc` — but doctests can be skipped by test filters,
/// so the canary also lives here).
#[test]
fn quickstart_runs_to_low_degree() {
    let g = ssmdst::graph::generators::structured::star_with_ring(8).unwrap();
    let net = ssmdst::core::build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(10_000)
        .build();
    let out = session.run_until(
        10_000,
        &mut stop_when(|net: &Network<MdstNode>, _| {
            ssmdst::core::oracle::current_degree(&g, net)
                .map(|d| d <= 3)
                .unwrap_or(false)
        }),
    );
    assert!(out.converged());
}
