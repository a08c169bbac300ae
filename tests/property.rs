//! Property-based integration tests (proptest): the paper's guarantees hold
//! on *randomly generated* graphs, initial states and fault patterns — not
//! just on the hand-picked fixtures.

use proptest::prelude::*;
use ssmdst::core::oracle;
use ssmdst::graph::generators::random::gnp_connected;
use ssmdst::graph::{exact_mdst, Graph, SolveBudget};
use ssmdst::prelude::*;
use ssmdst::sim::faults::{inject, FaultPlan};

/// Strategy: a connected random graph with 4..=12 nodes.
fn small_graph() -> impl Strategy<Value = Graph> {
    (4usize..=12, 0.15f64..0.8, 0u64..1000).prop_map(|(n, p, seed)| gnp_connected(n, p, seed))
}

fn converge(g: &Graph, sched: Scheduler) -> Option<u32> {
    let net = build_network(g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(sched)
        .horizon(80_000)
        .build();
    let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
    if !out.converged() {
        return None;
    }
    oracle::try_extract_tree(g, session.network()).map(|t| {
        t.validate(g).expect("tree validates");
        t.max_degree()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 2 as a property: random graph → deg(T) ≤ Δ* + 1.
    #[test]
    fn random_graphs_reach_delta_star_plus_one(g in small_graph()) {
        let deg = converge(&g, Scheduler::Synchronous)
            .expect("must converge to a spanning tree");
        let ds = exact_mdst(&g, SolveBudget::default())
            .delta_star()
            .expect("small instances are solvable");
        prop_assert!(deg <= ds + 1, "deg {deg} > Δ*+1 = {}", ds + 1);
        prop_assert!(deg >= ds, "deg {deg} beat the optimum {ds}?!");
    }

    /// Definition 1 as a property: random graph + random corruption →
    /// convergence to a legitimate configuration.
    #[test]
    fn random_corruption_recovers(g in small_graph(), fault_seed in 0u64..1000) {
        let net = build_network(&g, Config::for_n(g.n()));
        let mut session = Session::from_network(net).scheduler(Scheduler::RandomAsync { seed: fault_seed }).horizon(80_000).build();
        inject(session.network_mut(), FaultPlan::total(fault_seed));
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        prop_assert!(out.converged());
        prop_assert!(oracle::is_legitimate(&g, session.network()));
    }

    /// The sequential FR baseline satisfies the same bound on random
    /// graphs (cross-checks both FR and the exact solver).
    #[test]
    fn fr_baseline_within_one_on_random_graphs(g in small_graph(), tree_seed in 0u64..100) {
        let t0 = SpanningTree::random(&g, tree_seed).unwrap();
        let solver = ssmdst::exact::Solver::builder().settle_budget(0).build();
        let t = solver.solve_from(&g, t0).tree;
        t.validate(&g).unwrap();
        let ds = exact_mdst(&g, SolveBudget::default()).delta_star().unwrap();
        prop_assert!(t.max_degree() <= ds + 1);
    }

    /// Random swap sequences keep a spanning tree a spanning tree (the
    /// surgery underlying the whole reduction module).
    #[test]
    fn random_swap_sequences_preserve_trees(
        g in small_graph(),
        seeds in proptest::collection::vec(0usize..1_000_000, 0..12),
    ) {
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        for s in seeds {
            // Pick a pseudo-random non-tree edge and a removable cycle edge.
            let non_tree: Vec<_> = g
                .edges()
                .iter()
                .copied()
                .filter(|&(u, v)| !t.is_tree_edge(u, v))
                .collect();
            if non_tree.is_empty() {
                break;
            }
            let (u, v) = non_tree[s % non_tree.len()];
            let path = t.tree_path(u, v).to_vec();
            // Remove an edge adjacent to a pseudo-random interior node.
            if path.len() < 3 {
                continue;
            }
            let i = 1 + (s / 7) % (path.len() - 2);
            t.pivot((u, v), (path[i], path[i + 1]));
            t.validate(&g).expect("swap broke the tree");
        }
    }
}
