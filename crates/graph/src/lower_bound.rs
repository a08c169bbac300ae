//! Combinatorial lower bounds on the optimal spanning-tree degree `Δ*`.
//!
//! For a vertex set `S`, removing `S` from `G` leaves `c(G−S)` components.
//! Any spanning tree must contain at least `c(G−S) + |S| − 1` edges incident
//! to `S` (each component needs an attachment, and `S` itself must be
//! internally connected through them), so some vertex of `S` has tree degree
//! at least `⌈(c(G−S) + |S| − 1) / |S|⌉`. Maximizing over `S` gives the
//! classic witness lower bound — the same structure as the forest argument
//! in Fürer–Raghavachari's Theorem 1, which the paper inherits.
//!
//! Exhausting all `S` is exponential; we evaluate all singletons, all pairs
//! up to a size threshold, and a greedy heuristic set built from high-degree
//! vertices. The result is always a *valid* lower bound, just not always the
//! tightest.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Number of connected components of `G − S` (nodes in `removed` are
/// skipped). `removed` must be a boolean mask of length `n`.
fn components_without(g: &Graph, removed: &[bool]) -> usize {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut comps = 0;
    let mut q = VecDeque::new();
    for s in 0..n {
        if removed[s] || seen[s] {
            continue;
        }
        comps += 1;
        seen[s] = true;
        q.push_back(s as NodeId);
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                let wi = w as usize;
                if !removed[wi] && !seen[wi] {
                    seen[wi] = true;
                    q.push_back(w);
                }
            }
        }
    }
    comps
}

/// The witness bound `⌈(c(G−S) + |S| − 1) / |S|⌉` for one explicit `S`.
///
/// Returns 0 for an empty `S` (no information).
pub fn vertex_removal_bound(g: &Graph, s: &[NodeId]) -> u32 {
    if s.is_empty() {
        return 0;
    }
    let mut removed = vec![false; g.n()];
    for &v in s {
        removed[v as usize] = true;
    }
    let c = components_without(g, &removed);
    let k = s.len();
    ((c + k - 1) as u32).div_ceil(k as u32)
}

/// Best lower bound on `Δ*` over singletons, (for small graphs) pairs and
/// a greedy high-degree set; floored by the trivial bounds (`1` for any
/// edge, `2` once `n ≥ 3`).
///
/// The bridge count at `v` (every bridge is in every spanning tree) needs
/// no term of its own: the far ends of the `b` bridges at `v` lie in `b`
/// distinct components of `G − v`, so the singleton bound `c(G − v)` is
/// already `≥ b`.
pub fn degree_lower_bound(g: &Graph) -> u32 {
    let n = g.n();
    if n <= 1 {
        return 0;
    }
    let mut best = if n == 2 { 1 } else { 2 };
    // Singletons: catches stars, spiders and all cut-vertex forcing.
    for v in 0..n as u32 {
        best = best.max(vertex_removal_bound(g, &[v]));
    }
    // Pairs on small graphs: catches double-broom-style forcing.
    if n <= 64 {
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                best = best.max(vertex_removal_bound(g, &[u, v]));
            }
        }
    }
    // Greedy: repeatedly add the highest-degree remaining vertex and check.
    let mut by_degree: Vec<NodeId> = (0..n as u32).collect();
    by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut s: Vec<NodeId> = Vec::new();
    for &v in by_degree.iter().take(n.min(16)) {
        s.push(v);
        best = best.max(vertex_removal_bound(g, &s));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gadgets, structured};
    use crate::graph::graph_from_edges;
    use crate::mdst_exact::{exact_mdst, SolveBudget};

    #[test]
    fn star_bound_is_tight() {
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(vertex_removal_bound(&g, &[0]), 5);
        assert_eq!(degree_lower_bound(&g), 5);
    }

    #[test]
    fn spider_bound_is_tight() {
        let g = gadgets::spider(4, 3).unwrap();
        assert_eq!(degree_lower_bound(&g), 4);
    }

    #[test]
    fn path_bound_is_trivial_two() {
        let g = structured::path(8).unwrap();
        assert_eq!(degree_lower_bound(&g), 2);
    }

    #[test]
    fn two_node_graph() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert_eq!(degree_lower_bound(&g), 1);
    }

    #[test]
    fn empty_set_gives_zero() {
        let g = structured::path(4).unwrap();
        assert_eq!(vertex_removal_bound(&g, &[]), 0);
    }

    #[test]
    fn complete_bipartite_pair_bound() {
        // K_{2,7}: removing both left nodes leaves 7 components:
        // ⌈(7+1)/2⌉ = 4 = Δ*.
        let g = structured::complete_bipartite(2, 7).unwrap();
        assert_eq!(degree_lower_bound(&g), 4);
    }

    #[test]
    fn bound_never_exceeds_exact_optimum() {
        let instances: Vec<crate::graph::Graph> = vec![
            structured::grid(3, 3).unwrap(),
            structured::star_with_ring(8).unwrap(),
            gadgets::double_broom(3, 2).unwrap(),
            gadgets::hamiltonian_with_chords(10, 12, 1),
            structured::complete_bipartite(3, 7).unwrap(),
        ];
        for g in &instances {
            let lb = degree_lower_bound(g);
            let ds = exact_mdst(g, SolveBudget::default())
                .delta_star()
                .expect("small instance");
            assert!(lb <= ds, "lb {lb} > Δ* {ds}");
        }
    }
}
