//! Export the before/after trees as Graphviz DOT files for inspection:
//!
//! ```text
//! cargo run --release --example visualize_tree
//! dot -Tsvg before.dot -o before.svg && dot -Tsvg after.dot -o after.svg
//! ```
//!
//! Tree edges are drawn bold blue, non-tree edges dashed gray, and
//! maximum-degree tree nodes filled red — the "before" picture shows the
//! BFS hub, the "after" picture the protocol's balanced tree.

use ssmdst::graph::dot::to_dot;
use ssmdst::graph::generators::gadgets::multi_hub;
use ssmdst::graph::stats::{leaf_count, max_degree_count, tree_degrees};
use ssmdst::prelude::*;
use std::fs;

fn main() -> std::io::Result<()> {
    let g = multi_hub(3, 5).expect("valid gadget");
    println!("multi-hub gadget: n={} m={}", g.n(), g.m());

    let before = SpanningTree::from_bfs(&g, 0).expect("connected");
    fs::write("before.dot", to_dot(&g, Some(&before)))?;
    let s = tree_degrees(&before);
    println!(
        "before (BFS): deg(T)={} ({} max-degree nodes, {} leaves) -> before.dot",
        s.max,
        max_degree_count(&before),
        leaf_count(&before)
    );

    let quiet = quiet_window(g.n());
    let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
        .scheduler(Scheduler::Synchronous)
        .horizon(200_000)
        .build();
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged());
    let after = oracle::try_extract_tree(&g, session.network()).expect("tree");
    fs::write("after.dot", to_dot(&g, Some(&after)))?;
    let s = tree_degrees(&after);
    println!(
        "after (ssmdst, ~{} rounds): deg(T)={} ({} max-degree nodes, {} leaves) -> after.dot",
        session.round() - quiet,
        s.max,
        max_degree_count(&after),
        leaf_count(&after)
    );
    Ok(())
}
