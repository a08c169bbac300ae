//! Quickstart: build a session, run the protocol, watch the degree drop.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ssmdst::graph::generators::structured::star_with_ring;
use ssmdst::prelude::*;

fn main() {
    // A hub node connected to everyone, plus a ring: the worst case for a
    // naive (BFS) tree — hub degree n−1 — while the optimal spanning tree
    // is a Hamiltonian path (Δ* = 2).
    let n = 24;
    let g = star_with_ring(n).expect("valid parameters");
    println!("graph: n={} m={} Δ(G)={}", g.n(), g.m(), g.max_degree());

    // What a naive tree looks like.
    let bfs = SpanningTree::from_bfs(&g, 0).expect("connected");
    println!("BFS tree degree: {}", bfs.max_degree());

    // Run the self-stabilizing protocol from a clean reset: a Session
    // stopped by a named condition that doubles as the progress narrator
    // (one oracle computation per round).
    let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
        .scheduler(Scheduler::Synchronous)
        .horizon(200_000)
        .build();
    let mut last = None;
    let out = session.run_until(
        200_000,
        &mut stop_when(|net: &Network<MdstNode>, round: u64| {
            let deg = oracle::current_degree(&g, net);
            if deg != last {
                if let Some(d) = deg {
                    println!("round {round:>6}: deg(T) = {d}");
                }
                last = deg;
            }
            deg == Some(2)
        }),
    );

    assert!(out.converged(), "expected convergence to the optimum");
    let t = oracle::try_extract_tree(&g, session.network()).expect("spanning tree");
    t.validate(&g).expect("valid spanning tree");
    println!(
        "converged in {} rounds: deg(T) = {} (Δ* = 2, guarantee ≤ Δ*+1 = 3)",
        session.round(),
        t.max_degree()
    );
    println!(
        "messages: {} total, largest {} bits",
        session.network().metrics.total_sent,
        session.network().metrics.max_message_bits()
    );
}
