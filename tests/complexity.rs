//! Integration: the paper's complexity claims hold as *testable envelopes*
//! (the experiment harness measures the constants; these tests pin the
//! asymptotic shape so regressions fail CI).

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::prelude::*;

fn run(g: &ssmdst::graph::Graph) -> Session<ssmdst::core::MdstNode> {
    let net = build_network(g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(150_000)
        .build();
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    assert!(out.converged());
    session
}

/// `O(δ log n)` memory: measured bits within a fixed constant of δ·lg n.
#[test]
fn memory_within_constant_of_delta_log_n() {
    for n in [12usize, 24] {
        let g = GraphFamily::GnpSparse.generate(n, 3);
        let session = run(&g);
        let bits = oracle::max_state_bits(session.network());
        let b = (usize::BITS - (g.n() - 1).leading_zeros()) as usize;
        let bound = g.max_degree() * b;
        assert!(
            bits <= 20 * bound,
            "n={n}: {bits} bits > 20·δ·lg n = {}",
            20 * bound
        );
    }
}

/// `O(n log n)` message length: the largest message within a fixed constant
/// of n·lg n bits.
#[test]
fn message_length_within_constant_of_n_log_n() {
    for n in [12usize, 24] {
        let g = GraphFamily::GnpSparse.generate(n, 3);
        let session = run(&g);
        let bits = session.network().metrics.max_message_bits();
        let bound = (g.n() as f64) * (g.n() as f64).log2();
        assert!(
            (bits as f64) <= 6.0 * bound,
            "n={n}: {bits} bits > 6·n·lg n = {:.0}",
            6.0 * bound
        );
    }
}

/// Convergence rounds stay inside the paper's `O(m n² log n)` bound with
/// an explicit (very generous) constant of 1 — the bound is loose by
/// orders of magnitude, so hitting it would indicate a livelock.
#[test]
fn rounds_within_paper_bound() {
    for fam in [GraphFamily::GnpSparse, GraphFamily::ScaleFree] {
        let g = fam.generate(20, 4);
        let net = build_network(&g, Config::for_n(g.n()));
        let bound = (g.m() as f64) * (g.n() as f64).powi(2) * (g.n() as f64).log2();
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(bound as u64)
            .build();
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged(), "{} exceeded the paper bound", fam.label());
    }
}

/// Steady state is message-finite per round: after convergence, per-round
/// traffic is dominated by gossip, bounded by O(m) + search traffic.
#[test]
fn steady_state_traffic_is_bounded() {
    let g = GraphFamily::GnpSparse.generate(16, 5);
    let mut session = run(&g);
    let before = session.network().metrics.total_sent;
    let rounds = 100;
    let _ = session.run_until(rounds, &mut ());
    let per_round = (session.network().metrics.total_sent - before) / rounds;
    // 2m InfoMsg per round + searches; the cap below is ~6x observed.
    let cap = (2 * g.m() as u64) * 10;
    assert!(
        per_round <= cap,
        "steady state sends {per_round}/round > cap {cap}"
    );
}

/// The quiescence detector's convergence-round measurement is monotone
/// with instance size on a fixed family (sanity of the T2 experiment).
#[test]
fn convergence_rounds_scale_sanely() {
    let small = {
        let g = GraphFamily::Grid.generate(9, 1);
        let net = build_network(&g, Config::for_n(g.n()));
        let mut s = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        let _ = s.run_to_quiescence(64, oracle::projection);
        s.round()
    };
    let large = {
        let g = GraphFamily::Grid.generate(36, 1);
        let net = build_network(&g, Config::for_n(g.n()));
        let mut s = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        let _ = s.run_to_quiescence(6 * 36, oracle::projection);
        s.round()
    };
    assert!(large > small, "{large} vs {small}");
}
