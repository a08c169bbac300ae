//! Peer-to-peer overlay scenario (the paper's second motivation): a
//! scale-free overlay where high-degree peers relay disproportionate
//! traffic for others. A minimum-degree spanning tree spreads the relay
//! load; this example compares every baseline on the same overlay and then
//! runs the distributed protocol under an adversarial daemon.
//!
//! ```text
//! cargo run --release --example p2p_overlay
//! ```

use ssmdst::exact::Solver;
use ssmdst::graph::generators::random::barabasi_albert;
use ssmdst::prelude::*;

fn main() {
    let n = 64;
    let g = barabasi_albert(n, 2, 2024);
    println!(
        "overlay: n={} m={} max peer degree {}",
        g.n(),
        g.m(),
        g.max_degree()
    );

    // Centralized baselines (require a global view the P2P system lacks).
    let bfs = SpanningTree::from_bfs(&g, 0).unwrap();
    let dfs = SpanningTree::from_dfs(&g, 0).unwrap();
    let rnd = SpanningTree::random(&g, 1).unwrap();
    let greedy = SpanningTree::greedy_min_degree(&g, 1).unwrap();
    // Sequential Fürer–Raghavachari: the exact engine with settling off.
    let fr = Solver::builder()
        .settle_budget(0)
        .build()
        .solve_from(&g, bfs.clone());
    println!("\nspanning-tree relay load (max tree degree):");
    println!("  BFS tree        : {}", bfs.max_degree());
    println!("  DFS tree        : {}", dfs.max_degree());
    println!("  random tree     : {}", rnd.max_degree());
    println!("  greedy tree     : {}", greedy.max_degree());
    println!(
        "  Fürer–Raghavachari: {} ({} swaps, {} phases)",
        fr.tree.max_degree(),
        fr.pivots,
        fr.pivots + 1
    );
    println!(
        "  serialized [3]  : {} ({} one-swap phases)",
        fr.tree.max_degree(),
        fr.pivots
    );

    // The self-stabilizing protocol: fully distributed, one-hop
    // communication only, adversarially scheduled — a Session with the
    // canonical quiescence predicate.
    let quiet = quiet_window(g.n());
    let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
        .scheduler(Scheduler::Adversarial { seed: 5 })
        .horizon(600_000)
        .build();
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged(), "protocol must stabilize");
    let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
    println!(
        "  ssmdst (distributed, adversarial daemon): {}",
        t.max_degree()
    );
    println!(
        "\nstabilized in ~{} rounds, {} messages ({} Search / {} Remove)",
        session.round() - quiet,
        session.network().metrics.total_sent,
        session.network().metrics.kind("Search").sent,
        session.network().metrics.kind("Remove").sent,
    );
    // The distributed result must match the centralized FR within 1.
    assert!(t.max_degree() <= fr.tree.max_degree() + 1);
}
