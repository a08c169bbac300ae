//! Exact minimum-degree spanning tree via a degree-bounded decision
//! procedure with branch-and-bound.
//!
//! Computing `Δ*` is NP-hard (the paper reduces from Hamiltonian path), so
//! the solver is budgeted: it explores at most [`SolveBudget::max_nodes`]
//! search nodes per decision and reports `Unknown` when exhausted. The
//! experiment harness uses it on small/medium instances as ground truth for
//! the `deg(T) ≤ Δ* + 1` guarantee (Theorem 2), and falls back to the
//! [`crate::lower_bound`] module beyond that.

use crate::graph::{Graph, NodeId};
use crate::lower_bound::degree_lower_bound;
use crate::spanning_tree::SpanningTree;
use crate::union_find::UnionFind;

/// Search budget for one decision-procedure invocation.
#[derive(Debug, Clone, Copy)]
pub struct SolveBudget {
    /// Maximum number of branch-and-bound nodes to expand.
    pub max_nodes: u64,
}

impl Default for SolveBudget {
    fn default() -> Self {
        // Enough for dense graphs up to ~n=24 and sparse ones far beyond.
        SolveBudget {
            max_nodes: 5_000_000,
        }
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactMdst {
    /// `Δ*` determined exactly, with a witness tree achieving it.
    Exact {
        delta_star: u32,
        witness: SpanningTree,
    },
    /// Budget exhausted; `Δ*` lies in `[lower, upper]` (upper has a witness).
    Bounded {
        lower: u32,
        upper: u32,
        witness: SpanningTree,
    },
}

impl ExactMdst {
    /// The optimal degree if known exactly.
    pub fn delta_star(&self) -> Option<u32> {
        match self {
            ExactMdst::Exact { delta_star, .. } => Some(*delta_star),
            ExactMdst::Bounded { .. } => None,
        }
    }

    /// Best-known lower bound on `Δ*`.
    pub fn lower(&self) -> u32 {
        match self {
            ExactMdst::Exact { delta_star, .. } => *delta_star,
            ExactMdst::Bounded { lower, .. } => *lower,
        }
    }

    /// Best-known upper bound on `Δ*` (witnessed).
    pub fn upper(&self) -> u32 {
        match self {
            ExactMdst::Exact { delta_star, .. } => *delta_star,
            ExactMdst::Bounded { upper, .. } => *upper,
        }
    }

    /// A spanning tree achieving [`ExactMdst::upper`].
    pub fn witness(&self) -> &SpanningTree {
        match self {
            ExactMdst::Exact { witness, .. } | ExactMdst::Bounded { witness, .. } => witness,
        }
    }
}

struct Searcher<'g> {
    g: &'g Graph,
    cap: u32,
    deg: Vec<u32>,
    nodes_left: u64,
    chosen: Vec<(NodeId, NodeId)>,
}

/// Outcome of a bounded decision search.
enum Found {
    Yes,
    No,
    Budget,
}

impl<'g> Searcher<'g> {
    /// Does a spanning tree with `max degree ≤ cap` exist?
    ///
    /// Branches on the lexicographically first *usable* edge (connects two
    /// components, both endpoints under the cap): include it or discard it
    /// permanently. Pruning: fail when the number of remaining usable edges
    /// cannot connect the remaining components, or when some component has
    /// no usable incident edge at all.
    fn decide(&mut self, uf: &mut UnionFind, from: usize, picked: usize) -> Found {
        if self.nodes_left == 0 {
            return Found::Budget;
        }
        self.nodes_left -= 1;
        let n = self.g.n();
        if picked == n - 1 {
            return Found::Yes;
        }
        let need = (n - 1) - picked;
        // First usable edge at index >= from; also count usable edges for
        // the connectivity prune.
        let mut first: Option<usize> = None;
        let mut usable = 0usize;
        for (i, &(u, v)) in self.g.edges().iter().enumerate().skip(from) {
            if self.deg[u as usize] < self.cap
                && self.deg[v as usize] < self.cap
                && uf.find(u) != uf.find(v)
            {
                usable += 1;
                if first.is_none() {
                    first = Some(i);
                }
                if usable >= need && first.is_some() && usable > need {
                    // Counting beyond `need` only matters for the prune; we
                    // can stop once both facts are established. (Keep
                    // counting is O(m), acceptable; break for speed.)
                    break;
                }
            }
        }
        if usable < need {
            return Found::No;
        }
        #[expect(
            clippy::expect_used,
            reason = "the usable < need early return above guarantees a hit"
        )]
        let i = first.expect("usable >= need >= 1");
        let (u, v) = self.g.edges()[i];

        // Branch 1: include edge i.
        let snapshot_uf = uf.clone();
        uf.union(u, v);
        self.deg[u as usize] += 1;
        self.deg[v as usize] += 1;
        self.chosen.push((u, v));
        match self.decide(uf, i + 1, picked + 1) {
            Found::Yes => return Found::Yes,
            Found::Budget => return Found::Budget,
            Found::No => {}
        }
        self.chosen.pop();
        self.deg[u as usize] -= 1;
        self.deg[v as usize] -= 1;
        *uf = snapshot_uf;

        // Branch 2: permanently discard edge i.
        self.decide(uf, i + 1, picked)
    }
}

/// Decide whether `g` admits a spanning tree of maximum degree ≤ `cap`,
/// returning a witness on success. `None` means the budget was exhausted
/// (answer unknown).
pub fn has_spanning_tree_with_max_degree(
    g: &Graph,
    cap: u32,
    budget: SolveBudget,
) -> Option<Option<SpanningTree>> {
    if g.n() == 0 {
        return Some(None);
    }
    if g.n() == 1 {
        #[expect(clippy::expect_used, reason = "single-node tree is always well-formed")]
        return Some(Some(
            SpanningTree::from_parents(g, 0, vec![0]).expect("trivial tree"),
        ));
    }
    if cap == 0 || !crate::traversal::is_connected(g) {
        return Some(None);
    }
    let mut s = Searcher {
        g,
        cap,
        deg: vec![0; g.n()],
        nodes_left: budget.max_nodes,
        chosen: Vec::with_capacity(g.n() - 1),
    };
    let mut uf = UnionFind::new(g.n());
    match s.decide(&mut uf, 0, 0) {
        Found::Yes => {
            let t = SpanningTree::from_edge_list(g, &s.chosen);
            #[expect(
                clippy::expect_used,
                reason = "a decision witness spans by construction"
            )]
            Some(Some(t.expect("edge list formed a spanning tree")))
        }
        Found::No => Some(None),
        Found::Budget => None,
    }
}

/// Compute `Δ*` exactly (budget permitting).
///
/// Strategy: start from the combinatorial lower bound and raise the cap
/// until the decision procedure finds a witness. If a decision exhausts its
/// budget the result degrades to [`ExactMdst::Bounded`] using a BFS tree as
/// the witnessed upper bound.
///
/// # Panics
/// Panics if the graph is empty or disconnected (no spanning tree exists).
pub fn exact_mdst(g: &Graph, budget: SolveBudget) -> ExactMdst {
    assert!(g.n() >= 1, "exact_mdst: empty graph");
    if g.n() == 1 {
        #[expect(clippy::expect_used, reason = "single-node tree is always well-formed")]
        let witness = SpanningTree::from_parents(g, 0, vec![0]).expect("trivial");
        return ExactMdst::Exact {
            delta_star: 0,
            witness,
        };
    }
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics`: disconnected graphs have no spanning tree to witness"
    )]
    let fallback = SpanningTree::from_bfs(g, 0).expect("connected graph");
    let lb = degree_lower_bound(g);
    let ub_start = fallback.max_degree();
    let mut cap = lb;
    loop {
        if cap >= ub_start {
            // The BFS tree already witnesses `cap`; it must be optimal since
            // every smaller cap failed.
            return ExactMdst::Exact {
                delta_star: ub_start,
                witness: fallback,
            };
        }
        match has_spanning_tree_with_max_degree(g, cap, budget) {
            Some(Some(witness)) => {
                return ExactMdst::Exact {
                    delta_star: cap,
                    witness,
                }
            }
            Some(None) => cap += 1,
            None => {
                return ExactMdst::Bounded {
                    lower: cap.max(lb),
                    upper: ub_start,
                    witness: fallback,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gadgets, structured};
    use crate::graph::graph_from_edges;

    fn delta_star(g: &Graph) -> u32 {
        exact_mdst(g, SolveBudget::default())
            .delta_star()
            .expect("budget sufficient for test instance")
    }

    #[test]
    fn path_is_its_own_mdst() {
        let g = structured::path(6).unwrap();
        assert_eq!(delta_star(&g), 2);
    }

    #[test]
    fn cycle_has_delta_star_two() {
        let g = structured::cycle(7).unwrap();
        assert_eq!(delta_star(&g), 2);
    }

    #[test]
    fn complete_graph_has_hamiltonian_path() {
        let g = structured::complete(7).unwrap();
        assert_eq!(delta_star(&g), 2);
    }

    #[test]
    fn star_is_forced() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(delta_star(&g), 4);
    }

    #[test]
    fn star_with_ring_drops_to_two() {
        let g = structured::star_with_ring(8).unwrap();
        assert_eq!(delta_star(&g), 2);
    }

    #[test]
    fn spider_is_forced_to_leg_count() {
        let g = gadgets::spider(4, 2).unwrap();
        assert_eq!(delta_star(&g), 4);
        let g = gadgets::spider(3, 3).unwrap();
        assert_eq!(delta_star(&g), 3);
    }

    #[test]
    fn hamiltonian_chords_has_delta_star_two() {
        for seed in 0..3 {
            let g = gadgets::hamiltonian_with_chords(12, 15, seed);
            assert_eq!(delta_star(&g), 2, "seed {seed}");
        }
    }

    #[test]
    fn complete_bipartite_formula() {
        // K_{2,5}: left nodes absorb 5 right nodes + the link: ⌈4/2⌉+1 = 3.
        let g = structured::complete_bipartite(2, 5).unwrap();
        assert_eq!(delta_star(&g), 3);
        // K_{1,4} is a star.
        let g = structured::complete_bipartite(1, 4).unwrap();
        assert_eq!(delta_star(&g), 4);
    }

    #[test]
    fn witness_achieves_reported_degree() {
        let g = structured::grid(3, 3).unwrap();
        let res = exact_mdst(&g, SolveBudget::default());
        let ds = res.delta_star().unwrap();
        assert_eq!(res.witness().max_degree(), ds);
        res.witness().validate(&g).unwrap();
        assert_eq!(ds, 2); // 3x3 grid has a Hamiltonian path
    }

    #[test]
    fn decision_procedure_rejects_below_optimum() {
        let g = gadgets::spider(4, 2).unwrap();
        assert_eq!(
            has_spanning_tree_with_max_degree(&g, 3, SolveBudget::default()),
            Some(None)
        );
        assert!(
            has_spanning_tree_with_max_degree(&g, 4, SolveBudget::default())
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let g = structured::complete(10).unwrap();
        // Absurdly small budget: must give up, not answer wrongly.
        let res = has_spanning_tree_with_max_degree(&g, 2, SolveBudget { max_nodes: 3 });
        assert!(res.is_none());
        let res = exact_mdst(&g, SolveBudget { max_nodes: 3 });
        assert!(res.delta_star().is_none());
        assert!(res.lower() <= res.upper());
    }

    #[test]
    fn single_node_and_edge() {
        let g = crate::graph::GraphBuilder::new(1).build();
        assert_eq!(delta_star(&g), 0);
        let g = graph_from_edges(2, &[(0, 1)]);
        assert_eq!(delta_star(&g), 1);
    }

    #[test]
    fn disconnected_graph_has_no_spanning_tree() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            has_spanning_tree_with_max_degree(&g, 3, SolveBudget::default()),
            Some(None)
        );
    }
}
