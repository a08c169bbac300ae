//! Integration: Definition 1 — convergence from arbitrary configurations
//! and closure of the legitimate set.

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::prelude::*;
use ssmdst::sim::faults::{inject, FaultPlan};

/// Convergence: start from total garbage (every node corrupted, channels
/// emptied) and reach a legitimate configuration.
#[test]
fn converges_from_total_corruption() {
    for fam in [
        GraphFamily::GnpSparse,
        GraphFamily::Grid,
        GraphFamily::ScaleFree,
    ] {
        let g = fam.generate(12, 4);
        let net = build_network(&g, Config::for_n(g.n()));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::RandomAsync { seed: 8 })
            .horizon(150_000)
            .build();
        inject(session.network_mut(), FaultPlan::total(13));
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged(), "{}: stuck after corruption", fam.label());
        assert!(
            oracle::is_legitimate(&g, session.network()),
            "{}: terminal state not legitimate",
            fam.label()
        );
    }
}

/// Convergence from many distinct corrupted initial states (different
/// adversary seeds → different garbage).
#[test]
fn converges_from_many_garbage_states() {
    let g = GraphFamily::GnpSparse.generate(10, 2);
    for adversary_seed in 0..8u64 {
        let net = build_network(&g, Config::for_n(g.n()));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        inject(session.network_mut(), FaultPlan::total(adversary_seed));
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged(), "adversary seed {adversary_seed}");
        assert!(oracle::is_legitimate(&g, session.network()));
    }
}

/// Closure: once legitimate, the configuration stays legitimate (the tree
/// and dmax never change again; searches are pure reads).
#[test]
fn legitimate_configurations_are_closed() {
    let g = GraphFamily::GnpDense.generate(12, 6);
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(150_000)
        .build();
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    let before = oracle::projection(session.network());
    // Run a long time past convergence: nothing may change.
    let _ = session.run_until(5_000, &mut ());
    assert_eq!(before, oracle::projection(session.network()));
    assert!(oracle::is_legitimate(&g, session.network()));
}

/// Partial corruption at every fraction recovers, and the recovered degree
/// is never worse than the guarantee.
#[test]
fn recovers_from_partial_corruption_at_all_fractions() {
    let g = GraphFamily::GnpSparse.generate(14, 5);
    let lb = ssmdst::graph::degree_lower_bound(&g);
    for frac in [0.1f64, 0.3, 0.7] {
        let net = build_network(&g, Config::for_n(g.n()));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged());
        inject(session.network_mut(), FaultPlan::partial(frac, 21));
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged(), "fraction {frac}");
        let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
        // deg ≤ Δ*+1 and Δ* is at least the combinatorial lower bound; the
        // exact solver confirms Δ* ≤ lb+1 on these instances, so lb+2 is a
        // safe envelope.
        assert!(t.max_degree() <= lb + 2, "fraction {frac}: degraded");
    }
}

/// Corrupting in-flight messages only (no node state) is harmless.
#[test]
fn survives_message_loss_bursts() {
    let g = GraphFamily::Geometric.generate(12, 7);
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::RandomAsync { seed: 2 })
        .horizon(150_000)
        .build();
    for _ in 0..5 {
        let _ = session.run_until(50, &mut ());
        session.network_mut().clear_channels();
    }
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    assert!(oracle::is_legitimate(&g, session.network()));
}

/// The fault-recovery path also works under the adversarial daemon.
#[test]
fn recovery_under_adversarial_daemon() {
    let g = GraphFamily::Hypercube.generate(16, 0);
    let net = build_network(&g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Adversarial { seed: 17 })
        .horizon(200_000)
        .build();
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    inject(session.network_mut(), FaultPlan::total(3));
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    assert!(oracle::is_legitimate(&g, session.network()));
}
