//! Integration: the simultaneous-improvement behaviour (the paper's
//! headline difference from Blin–Butelle [3]) on the multi-hub gadget.

use ssmdst::core::oracle;
use ssmdst::graph::generators::gadgets::multi_hub;
use ssmdst::prelude::*;

/// Every hub of the gadget starts at maximum degree; the protocol must
/// lower all of them and converge within Δ*+1 (Δ* ≤ 3 by construction).
#[test]
fn multi_hub_all_hubs_reduced() {
    let hubs = 4;
    let g = multi_hub(hubs, 5).unwrap();
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(200_000)
        .build();
    let out = session.run_to_quiescence(6 * g.n() as u64, oracle::projection);
    assert!(out.converged());
    let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
    assert!(
        t.max_degree() <= 4,
        "hubs not reduced: deg {}",
        t.max_degree()
    );
    // Specifically, every hub's tree degree dropped below its graph degree.
    let degs = t.degrees();
    for h in 0..hubs {
        let hub = (h * 6) as u32;
        assert!(
            degs[hub as usize] < g.degree(hub) as u32,
            "hub {hub} untouched"
        );
    }
}

/// Two hubs on opposite sides are vertex-disjoint: both improvements can be
/// in flight concurrently and total time must be far below the serialized
/// sum (which would be ≥ #improvements · diameter).
#[test]
fn disjoint_improvements_overlap_in_time() {
    let g = multi_hub(6, 5).unwrap();
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(400_000)
        .build();
    let quiet = 6 * g.n() as u64;
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged());
    let conv = session.round() - quiet;
    // Fair comparison: the serialized model of [3] makes FR's swaps one
    // per phase and pays a refresh (diameter) plus one search period per
    // phase.
    let t0 = SpanningTree::from_bfs(&g, 0).unwrap();
    let diam = ssmdst::graph::traversal::diameter(&g).unwrap() as u64;
    let solver = ssmdst::exact::Solver::builder().settle_budget(0).build();
    let serialized = solver.solve_from(&g, t0).pivots * (diam + 2 * g.n() as u64);
    assert!(
        conv < serialized,
        "no concurrency: {conv} rounds ≥ serialized {serialized}"
    );
}

/// Under the random-async daemon the gadget also converges (concurrency is
/// not an artifact of lockstep rounds).
#[test]
fn multi_hub_converges_async() {
    let g = multi_hub(3, 4).unwrap();
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::RandomAsync { seed: 7 })
        .horizon(200_000)
        .build();
    let out = session.run_to_quiescence(6 * g.n() as u64, oracle::projection);
    assert!(out.converged());
    let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
    assert!(t.max_degree() <= 4);
}
