//! Sequential Fürer–Raghavachari local improvement — the `Δ* + 1`
//! approximation the paper's distributed algorithm emulates (its references
//! [8, 9]).
//!
//! An adapter over [`ssmdst_exact::Solver`] with settling off: the solver's
//! improvement loop is FR local search itself (one improving swap per
//! phase; blockers of degree `k − 1` are relieved on demand, the paper's
//! `Deblock`). The proof that its fixpoint has `deg(T) ≤ Δ* + 1` lives once,
//! in the [`ssmdst_exact::solve`] module doc; the test suite checks the
//! bound against the exact solver on every generator family.

use ssmdst_exact::Solver;
use ssmdst_graph::{Graph, SpanningTree};

/// Statistics from an [`fr_mdst`] run, used by the T5/F3 experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrStats {
    /// Edge swaps applied (the solver's pivots).
    pub swaps: u64,
    /// Improvement phases: one per swap, plus the final phase that finds
    /// no improvement.
    pub phases: u64,
}

/// Run FR local improvement from `initial` until no maximum-degree node can
/// be reduced. Returns the improved tree and run statistics.
pub fn fr_mdst(g: &Graph, initial: SpanningTree) -> (SpanningTree, FrStats) {
    let solver = Solver::builder().settle_budget(0).build();
    let sol = solver.solve_from(g, initial);
    let stats = FrStats {
        swaps: sol.pivots,
        phases: sol.pivots + 1,
    };
    (sol.tree, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_trees::{bfs_spanning_tree, random_spanning_tree};
    use ssmdst_graph::generators::{gadgets, structured, GraphFamily};
    use ssmdst_graph::{exact_mdst, SolveBudget};

    fn check_within_one(g: &Graph, t: &SpanningTree) {
        let res = exact_mdst(g, SolveBudget::default());
        let ds = res.delta_star().expect("test instance solvable");
        assert!(
            t.max_degree() <= ds + 1,
            "FR degree {} exceeds Δ*+1 = {}",
            t.max_degree(),
            ds + 1
        );
        t.validate(g).unwrap();
    }

    #[test]
    fn star_with_ring_reduced_to_near_optimal() {
        let g = structured::star_with_ring(12).unwrap();
        let t0 = bfs_spanning_tree(&g, 0).unwrap();
        assert_eq!(t0.max_degree(), 11);
        let (t, stats) = fr_mdst(&g, t0);
        assert!(t.max_degree() <= 3, "got {}", t.max_degree());
        assert!(stats.swaps >= 8);
        check_within_one(&g, &t);
    }

    #[test]
    fn within_one_on_all_families_small() {
        // n ∈ {1, 2, 3} take the solver's trivial and floor exits: the
        // tree must convert back unchanged, with no swap.
        let degenerate = [
            structured::path(1),
            structured::path(2),
            structured::complete(3),
        ];
        let graphs = GraphFamily::all()
            .iter()
            .map(|fam| fam.generate(14, 11))
            .chain(degenerate.into_iter().map(Result::unwrap));
        for g in graphs {
            let t0 = bfs_spanning_tree(&g, 0).unwrap();
            let (t, stats) = fr_mdst(&g, t0);
            check_within_one(&g, &t);
            if g.n() <= 3 {
                assert_eq!(stats.swaps, 0, "n = {}", g.n());
            }
        }
    }

    #[test]
    fn within_one_from_random_initial_trees() {
        for seed in 0..5 {
            let g = gadgets::hamiltonian_with_chords(14, 20, seed);
            let t0 = random_spanning_tree(&g, seed).unwrap();
            let (t, _) = fr_mdst(&g, t0);
            assert!(t.max_degree() <= 3, "seed {seed}: {}", t.max_degree());
        }
    }

    #[test]
    fn forced_spider_cannot_improve() {
        let g = gadgets::spider(4, 2).unwrap();
        let t0 = bfs_spanning_tree(&g, 0).unwrap();
        let (t, stats) = fr_mdst(&g, t0);
        // The hub's edges are bridges: no swaps exist at all.
        assert_eq!(t.max_degree(), 4);
        assert_eq!(stats.swaps, 0);
    }

    #[test]
    fn complete_graph_reaches_degree_two_or_three() {
        let g = structured::complete(10).unwrap();
        let t0 = bfs_spanning_tree(&g, 0).unwrap(); // star, degree 9
        let (t, _) = fr_mdst(&g, t0);
        assert!(t.max_degree() <= 3, "got {}", t.max_degree());
    }

    #[test]
    fn stats_phases_positive_and_tree_stable_on_rerun() {
        let g = structured::grid(4, 4).unwrap();
        let t0 = bfs_spanning_tree(&g, 0).unwrap();
        let (t1, s1) = fr_mdst(&g, t0);
        assert!(s1.phases >= 1);
        // Running again from the fixed point must be a no-op.
        let (t2, s2) = fr_mdst(&g, t1.clone());
        assert_eq!(t1.edge_set(), t2.edge_set());
        assert_eq!(s2.swaps, 0);
    }
}
