//! Dynamic-topology acceptance: after **each** churn event of a fault plan
//! (edge removal/insertion, node crash/rejoin, partition/heal), the
//! protocol must re-stabilize to per-component spanning trees of degree
//! ≤ Δ* + 1 on the *current* live topology — under every daemon.
//!
//! This is the convergence-under-perturbation regime: the constraint set
//! changes out from under the protocol, and self-stabilization (the paper's
//! Definition 1, with churn playing the role of the transient fault) is
//! what brings the tree back.

use ssmdst::core::{churn, oracle};
use ssmdst::graph::generators::random::gnp_connected;
use ssmdst::graph::SolveBudget;
use ssmdst::prelude::*;
use ssmdst::sim::faults::{apply_churn, ChurnEvent, TopologyPlan};

fn budget() -> SolveBudget {
    SolveBudget { max_nodes: 500_000 }
}

/// Run to quiescence and assert the component-wise tree bound.
fn assert_reconverges(session: &mut Session<MdstNode>, context: &dyn std::fmt::Display) {
    let n = session.network().n();
    let out = session.run_to_quiescence(ssmdst::sim::quiet_window(n), oracle::projection);
    assert!(out.converged(), "no quiescence after {context}");
    let reports = churn::check_reconvergence(session.network(), budget())
        .unwrap_or_else(|e| panic!("after {context}: {e}"));
    for r in &reports {
        assert!(
            r.within_one,
            "after {context}: component {:?} degree {} vs Δ* {:?} (lb {})",
            r.nodes, r.degree, r.delta_star, r.lower
        );
    }
}

fn gauntlet_under(sched: Scheduler) {
    let g = gnp_connected(12, 0.3, 2026);
    let plan = TopologyPlan::gauntlet(&g, 5);
    assert!(
        plan.events.len() >= 6,
        "gauntlet too small: {:?}",
        plan.events
    );
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(sched)
        .horizon(60_000)
        .build();
    assert_reconverges(&mut session, &"initial convergence");
    for ev in &plan.events {
        apply_churn(session.network_mut(), ev);
        assert_reconverges(&mut session, ev);
    }
    // The plan is symmetric (every removal is healed, every crash rejoined):
    // the final topology is the original graph, spanned by a single tree.
    let final_reports = churn::check_reconvergence(session.network(), budget()).unwrap();
    assert_eq!(final_reports.len(), 1, "final topology reconnected");
    assert_eq!(final_reports[0].nodes.len(), g.n());
}

#[test]
fn gauntlet_reconverges_under_synchronous() {
    gauntlet_under(Scheduler::Synchronous);
}

#[test]
fn gauntlet_reconverges_under_random_async() {
    gauntlet_under(Scheduler::RandomAsync { seed: 9 });
}

#[test]
fn gauntlet_reconverges_under_adversarial() {
    gauntlet_under(Scheduler::Adversarial { seed: 9 });
}

/// Inserting a brand-new edge (one that was never in the host graph) must
/// also be absorbed: the new fundamental cycle is search fodder, and if it
/// offers an improvement the tree degree may only go down.
#[test]
fn new_edge_insertion_is_absorbed() {
    let g = ssmdst::graph::generators::structured::star_with_ring(10).unwrap();
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(60_000)
        .build();
    assert_reconverges(&mut session, &"initial convergence");
    let before = oracle::current_degree(&g, session.network()).unwrap();
    // Wire two ring nodes that are not adjacent in the host graph.
    let ev = ChurnEvent::InsertEdge(2, 6);
    let applied = apply_churn(session.network_mut(), &ev);
    assert_eq!(applied, 1, "edge {ev} must be new");
    assert_reconverges(&mut session, &ev);
    let g_now = session.network().current_graph();
    let after = oracle::current_degree(&g_now, session.network()).unwrap();
    assert!(after <= before, "degree regressed: {before} -> {after}");
}
