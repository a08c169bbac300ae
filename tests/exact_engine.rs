//! Property-based differential for the exact-Δ* engine (`ssmdst::exact`):
//! the certified interval agrees with the independent branch-and-bound
//! oracle and brackets the Fürer–Raghavachari baseline on random and
//! structured small-n families (the 256-case sweep), and the incremental
//! re-solver is outcome-identical to a from-scratch solve after every
//! prefix of a random churn chain.

use proptest::prelude::*;
use ssmdst::exact::{CompSolution, IncrementalSolver, Solver, NONE};
use ssmdst::graph::generators::random::{gnp_connected, gnp_connected_sparse};
use ssmdst::graph::generators::structured;
use ssmdst::graph::{
    bfs_distances, biconnectivity, exact_mdst, Graph, NodeId, SolveBudget, SpanningTree,
};
use ssmdst::sim::Digest;

/// A small instance from a mix of families: connected G(n, p) most of the
/// time, plus the structured shapes whose optima are known stress cases
/// (cycles: Δ* = 2; star-rings: hub vs ring tension; complete bipartite:
/// every improvement is endpoint-blocked).
fn small_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        5 => (4usize..=12, 0.15f64..0.8, 0u64..1000)
            .prop_map(|(n, p, seed)| gnp_connected(n, p, seed)),
        1 => (4usize..=12).prop_map(|n| structured::cycle(n).expect("n >= 3")),
        1 => (5usize..=12).prop_map(|n| structured::star_with_ring(n).expect("n >= 4")),
        1 => (2usize..=4, 2usize..=5)
            .prop_map(|(a, b)| structured::complete_bipartite(a, b).expect("a, b >= 1")),
    ]
}

fn solver() -> Solver {
    Solver::builder().settle_max_n(64).build()
}

/// Rebuild the incremental solver's current topology into a fresh
/// instance — the from-scratch reference the warm path must match.
fn from_scratch(inc: &IncrementalSolver) -> IncrementalSolver {
    let mut fresh = IncrementalSolver::new(inc.n(), solver());
    for v in 0..inc.n() as u32 {
        if !inc.is_alive(v) {
            fresh.crash(v);
        }
    }
    for u in 0..inc.n() as u32 {
        for &v in inc.neighbors(u) {
            if u < v {
                fresh.insert_edge(u, v);
            }
        }
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The differential sweep: on every instance the engine settles, its
    /// Δ* equals the branch-and-bound oracle's, its witness re-verifies
    /// independently against the raw graph, and the FR baseline lands in
    /// `[Δ*, Δ* + 1]` (Fürer–Raghavachari's guarantee, checked against
    /// *our* Δ*).
    #[test]
    fn engine_matches_branch_and_bound_and_brackets_fr(g in small_graph()) {
        let sol = solver().solve(&g);
        prop_assert!(sol.exact(), "small instances must settle");
        let oracle = exact_mdst(&g, SolveBudget::default())
            .delta_star()
            .expect("small instances are solvable");
        prop_assert_eq!(sol.lower, oracle, "engine vs branch-and-bound");
        prop_assert!(
            sol.witness.certifies(&g) + 1 >= sol.lower,
            "witness certifies {} but interval claims lower {}",
            sol.witness.certifies(&g),
            sol.lower
        );
        let t0 = SpanningTree::from_bfs(&g, 0).expect("connected");
        let fr = Solver::builder().settle_budget(0).build().solve_from(&g, t0);
        let deg = fr.tree.max_degree();
        prop_assert!(oracle <= deg && deg <= oracle + 1, "FR degree {deg} vs Δ* {oracle}");
    }

    /// The incremental contract: after every prefix of a random churn
    /// chain (edge remove/insert, crash/rejoin), the warm re-solve's
    /// per-component outcome — membership and certified interval — is
    /// identical to a from-scratch solve of the same topology.
    #[test]
    fn incremental_matches_from_scratch_across_churn_chains(
        g in small_graph(),
        ops in proptest::collection::vec((0u8..4, 0usize..1000, 0usize..1000), 1..10),
    ) {
        let mut inc = IncrementalSolver::from_graph(&g, solver());
        inc.solve_all();
        for (op, a, b) in ops {
            let n = inc.n() as u32;
            let alive: Vec<u32> = (0..n).filter(|&v| inc.is_alive(v)).collect();
            match op {
                0 => {
                    // Remove a present edge (may split the component).
                    let edges: Vec<(u32, u32)> = alive
                        .iter()
                        .flat_map(|&u| {
                            inc.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v))
                        })
                        .collect();
                    if let Some(&(u, v)) = edges.get(a % edges.len().max(1)) {
                        inc.remove_edge(u, v);
                    }
                }
                1 => {
                    // Insert an edge between two live vertices.
                    let u = alive[a % alive.len()];
                    let v = alive[b % alive.len()];
                    if u != v {
                        inc.insert_edge(u.min(v), u.max(v));
                    }
                }
                2 => {
                    // Crash a live vertex, keeping at least one alive.
                    if alive.len() > 1 {
                        inc.crash(alive[a % alive.len()]);
                    }
                }
                _ => {
                    // Rejoin a dead vertex to a nonempty set of live ones.
                    let dead: Vec<u32> = (0..n).filter(|&v| !inc.is_alive(v)).collect();
                    if let (Some(&v), false) = (dead.get(a % dead.len().max(1)), alive.is_empty()) {
                        let mut nbrs: Vec<u32> =
                            (0..=b % alive.len()).map(|i| alive[i]).collect();
                        nbrs.dedup();
                        inc.rejoin(v);
                        for &w in &nbrs {
                            inc.insert_edge(v, w);
                        }
                    }
                }
            }
            let warm = inc.solve_all();
            let cold = from_scratch(&inc).solve_all();
            prop_assert_eq!(warm.len(), cold.len(), "component count diverged");
            for (w, c) in warm.iter().zip(&cold) {
                prop_assert_eq!(&w.members, &c.members, "membership diverged");
                prop_assert_eq!(w.lower, c.lower, "lower bound diverged");
                prop_assert_eq!(w.upper, c.upper, "upper bound diverged");
                prop_assert_eq!(w.exact(), c.exact(), "settledness diverged");
            }
        }
    }
}

/// Fold every field of one `solve_all` result into `d`.
fn fold(d: &mut Digest, sols: &[CompSolution]) {
    d.write_u64(sols.len() as u64);
    for s in sols {
        d.write_u64(s.members.len() as u64);
        s.members.iter().for_each(|&v| d.write_u32(v));
        d.write_u32(s.lower);
        d.write_u32(s.upper);
        s.tree.iter().for_each(|&p| d.write_u32(p));
        d.write_u32(s.root);
        d.write_u32(s.witness.claimed());
        d.write_u64(s.witness.set().len() as u64);
        s.witness.set().iter().for_each(|&v| d.write_u32(v));
        d.write_u32(u32::from(s.settled));
    }
}

/// The edges of the solved forest (the engine's next basis), canonical
/// `(min, max)` in original ids, ascending.
fn basis_edges(sols: &[CompSolution]) -> Vec<(NodeId, NodeId)> {
    let mut out: Vec<(NodeId, NodeId)> = sols
        .iter()
        .flat_map(|s| {
            s.tree
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p != NONE && p as usize != i)
                .map(|(i, &p)| {
                    let (v, w) = (s.members[i], s.members[p as usize]);
                    (v.min(w), v.max(w))
                })
        })
        .collect();
    out.sort_unstable();
    out
}

/// Bit-identity pin for the incremental engine: a fixed churn chain on a
/// 2000-vertex sparse graph — remove/insert pairs of basis and non-basis
/// edges, a bridge cut and re-insert (split, then merge), a crash and a
/// rejoin, a multi-edge partition and its heal — with every field of every
/// `solve_all` result and the final work counters folded into one digest.
/// Any change to membership, intervals, trees, roots, witnesses, the warm
/// basis a re-solve starts from, or the cache/warm/cold/pivot accounting
/// moves the digest.
#[test]
fn incremental_churn_chain_is_pinned_bit_for_bit() {
    /// Recorded before the engine's mirror and membership rework; the
    /// rework must reproduce it exactly.
    const PINNED: u64 = 0x83d2_0929_5206_9a3a;
    let n = 2000;
    let g = gnp_connected_sparse(n, 8.0 / n as f64, 3);
    let mut inc = IncrementalSolver::from_graph(&g, Solver::default());
    let mut d = Digest::new();
    let mut sols = inc.solve_all();
    fold(&mut d, &sols);
    let step = |inc: &mut IncrementalSolver, d: &mut Digest| {
        let s = inc.solve_all();
        fold(d, &s);
        s
    };
    // Remove/insert pairs: three basis edges, then three non-basis edges,
    // each picked from the basis current at the time of the removal.
    for k in 0..6usize {
        let basis = basis_edges(&sols);
        let (u, v) = if k < 3 {
            basis[(k * 677 + 11) % basis.len()]
        } else {
            let rest: Vec<_> = g
                .edges()
                .iter()
                .copied()
                .filter(|e| basis.binary_search(e).is_err())
                .collect();
            rest[(k * 389 + 5) % rest.len()]
        };
        assert!(inc.remove_edge(u, v), "pair {k}: ({u}, {v}) present");
        step(&mut inc, &mut d);
        assert!(inc.insert_edge(u, v), "pair {k}: ({u}, {v}) absent");
        sols = step(&mut inc, &mut d);
    }
    // A bridge cut splits the component; its re-insert merges it back.
    let bridges = biconnectivity(&g).bridges;
    assert!(!bridges.is_empty(), "the instance has a bridge");
    let (u, v) = bridges[bridges.len() / 2];
    inc.remove_edge(u, v);
    assert!(step(&mut inc, &mut d).len() >= 2, "a bridge cut splits");
    inc.insert_edge(u, v);
    assert_eq!(step(&mut inc, &mut d).len(), 1, "the re-insert merges");
    // A crash of a well-connected vertex, then its rejoin.
    let hub = (0..n as NodeId)
        .max_by_key(|&v| g.degree(v))
        .expect("n > 0");
    assert!(inc.crash(hub));
    step(&mut inc, &mut d);
    assert!(inc.rejoin(hub));
    for &w in g.neighbors(hub) {
        assert!(inc.insert_edge(hub, w));
    }
    step(&mut inc, &mut d);
    // Partition off the radius-2 ball around vertex 0, then heal it.
    let dist = bfs_distances(&g, 0);
    let cut: Vec<(NodeId, NodeId)> = g
        .edges()
        .iter()
        .copied()
        .filter(|&(a, b)| (dist[a as usize] <= 2) != (dist[b as usize] <= 2))
        .collect();
    assert!(cut.len() > 1, "a multi-edge partition");
    cut.iter()
        .for_each(|&(a, b)| assert!(inc.remove_edge(a, b)));
    sols = step(&mut inc, &mut d);
    assert!(sols.len() >= 2, "the partition splits");
    // Churn outside the ball while it is cut off: the ball's component is
    // served from the cache.
    let basis = basis_edges(&sols);
    let (a, b) = *g
        .edges()
        .iter()
        .find(|&&(a, b)| {
            dist[a as usize] > 3 && dist[b as usize] > 3 && basis.binary_search(&(a, b)).is_err()
        })
        .expect("a non-basis edge outside the ball");
    inc.remove_edge(a, b);
    step(&mut inc, &mut d);
    inc.insert_edge(a, b);
    step(&mut inc, &mut d);
    cut.iter()
        .for_each(|&(a, b)| assert!(inc.insert_edge(a, b)));
    assert_eq!(step(&mut inc, &mut d).len(), 1, "the heal merges");
    let st = inc.stats();
    for c in [st.cache_hits, st.warm_starts, st.cold_starts, st.pivots] {
        d.write_u64(c);
    }
    assert!(st.cache_hits > 0 && st.cold_starts > 0, "{st:?}");
    assert_eq!(
        d.value(),
        PINNED,
        "incremental churn chain digest moved ({st:?})"
    );
}
