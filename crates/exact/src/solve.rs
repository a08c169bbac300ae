//! The certified-interval solver: local improvement over a
//! [`SpanningTree`] plus an independently checkable lower-bound witness,
//! with optional exact settling at small `n`.
//!
//! Computing `Δ*` is NP-hard, so "exact at scale" means **certified
//! interval**: the solver returns a tree of degree `U` and a [`Witness`]
//! certifying `Δ* ≥ L`, with `U ≤ L + 1` at every improvement fixpoint
//! (the Fürer–Raghavachari phase theorem: when no single swap relieves a
//! maximum-degree vertex, the still-blocked vertex set certifies
//! `Δ* ≥ k − 1`). A judge that accepts `deg ≤ L + 1` is therefore sound
//! (`L ≤ Δ*`) and — whenever `L = Δ*` — complete.
//!
//! The improvement phase mirrors Fürer–Raghavachari's forest argument
//! directly: mark every vertex of degree `≥ k − 1`, grow a union-find
//! forest over the unmarked tree edges, and process non-tree edges whose
//! endpoints lie in different forest components. The basis cycle of such
//! an edge must pass through a marked vertex; if one has degree `k` the
//! edge is an **improvement** (swap it in, drop a cycle edge at the hot
//! vertex — degree `k` count strictly decreases), otherwise every marked
//! cycle vertex has degree `k − 1` and is **unmarked** (it could be
//! relieved on demand), merging the cycle into one component. At the
//! fixpoint the still-marked set is the blocking witness. Each phase
//! pivots on the first improvement in ascending edge order.
//!
//! This loop is the workspace's one Fürer–Raghavachari local search; the
//! sequential baselines (`ssmdst-baselines`) run it with settling off. The
//! proof, once:
//!
//! * **Termination.** An improvement's endpoints are unmarked (degree
//!   `≤ k − 2`) and the dropped edge touches a degree-`k` vertex, so each
//!   pivot removes one degree-`k` vertex and creates none. Degree-`k`
//!   vertices are never unmarked, so at most `n` pivots happen per `k`,
//!   and `k` only falls.
//! * **Within one.** Let `W` be the final marked set (every vertex of
//!   degree `≥ k − 1`). At the fixpoint no non-tree edge joins two
//!   components of `T − W`, so `c(G − W) = c(T − W) =: c`. Every
//!   spanning tree needs `c + |W| − 1` edges incident to `W` to connect
//!   the `c` components and `W`. `T` has exactly that many, and at least
//!   `|W|(k − 1) − (|W| − 1)` of them (the degree sum over `W` minus the
//!   at most `|W| − 1` tree edges inside `W`). So every spanning tree has
//!   a vertex of `W` with degree `≥ ⌈(|W|(k − 2) + 1) / |W|⌉ = k − 1`:
//!   `Δ* ≥ deg(T) − 1`, which the removal-set [`Witness`] on `W`
//!   certifies.
//!
//! Settling: when the interval is still open (`L < U`) and the instance
//! is small enough, the branch-and-bound decision oracle
//! ([`ssmdst_graph::has_spanning_tree_with_max_degree`]) either produces
//! a strictly better tree (adopt it, keep improving) or proves `Δ* = U`.
//! This is what makes the engine bit-exact against
//! [`ssmdst_graph::exact_mdst`] on every small instance while staying
//! witness-only (and fast) at `n = 10k+`.

use crate::witness::{floor_bound, Witness};
use ssmdst_graph::{
    has_spanning_tree_with_max_degree, lower_bound, Graph, NodeId, SolveBudget, SpanningTree,
    UnionFind,
};

/// A certified solve result: `lower ≤ Δ* ≤ upper`, with `tree` achieving
/// `upper` and `witness` certifying `lower` (up to settling, see
/// [`Solution::settled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Certified lower bound on `Δ*`.
    pub lower: u32,
    /// Achieved upper bound: the max degree of `tree`.
    pub upper: u32,
    /// The witnessing spanning tree.
    pub tree: SpanningTree,
    /// The checkable lower-bound certificate. `witness.claimed()` equals
    /// `lower` unless the decision oracle settled the last gap, in which
    /// case it certifies `lower − 1` and `settled` is set.
    pub witness: Witness,
    /// Whether the final `lower` step came from the branch-and-bound
    /// decision oracle rather than the removal-set witness.
    pub settled: bool,
    /// Pivots applied by the improvement loop (solver work measure).
    pub pivots: u64,
}

impl Solution {
    /// Whether `Δ*` is known exactly.
    pub fn exact(&self) -> bool {
        self.lower == self.upper
    }

    /// `Δ*` when the interval is closed.
    pub fn delta_star(&self) -> Option<u32> {
        self.exact().then_some(self.lower)
    }
}

/// Configured solver. Build via [`Solver::builder`]; every solve is
/// deterministic, so equal configurations replay equal solves.
#[derive(Debug, Clone)]
pub struct Solver {
    settle_budget: u64,
    settle_max_n: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::builder().build()
    }
}

/// Builder for [`Solver`]: the settling knobs.
#[derive(Debug, Clone)]
pub struct SolverBuilder {
    settle_budget: u64,
    settle_max_n: usize,
}

impl SolverBuilder {
    /// Branch-and-bound node budget for settling open intervals
    /// (`0` disables settling entirely).
    pub fn settle_budget(mut self, budget: u64) -> Self {
        self.settle_budget = budget;
        self
    }

    /// Largest `n` the settling oracle is invoked on; above it the solver
    /// stays witness-only (default 64).
    pub fn settle_max_n(mut self, n: usize) -> Self {
        self.settle_max_n = n;
        self
    }

    /// Finalize.
    pub fn build(self) -> Solver {
        Solver {
            settle_budget: self.settle_budget,
            settle_max_n: self.settle_max_n,
        }
    }
}

/// Result of one improvement phase.
enum Phase {
    /// A pivot was applied; the tree changed.
    Applied,
    /// Fixpoint: no eligible improvement; the still-marked blocking set.
    Blocked(Vec<NodeId>),
}

impl Solver {
    /// Start building a solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder {
            settle_budget: 500_000,
            settle_max_n: 64,
        }
    }

    /// Solve a connected graph from a cold (BFS) start.
    ///
    /// # Panics
    /// Panics if `g` is empty or disconnected (no spanning tree exists).
    pub fn solve(&self, g: &Graph) -> Solution {
        assert!(g.n() >= 1, "exact::solve: empty graph");
        // lint: allow(no-panic-in-library) — documented `# Panics`: a disconnected graph has no spanning tree
        let tree = SpanningTree::from_bfs(g, 0).expect("exact::solve: disconnected graph");
        self.solve_from(g, tree)
    }

    /// Solve starting from an existing spanning tree of `g` — the warm
    /// start the incremental engine uses after repairing its forest.
    pub fn solve_from(&self, g: &Graph, mut tree: SpanningTree) -> Solution {
        let n = g.n();
        let mut pivots = 0u64;
        let cut = best_cut_bound(g);
        let mut settled = false;
        let (lower, witness) = loop {
            let blocking = self.improve(g, &mut tree, &mut pivots);
            let k = tree.max_degree();
            // Best set-certifiable bound: floor < articulation < blocking.
            let mut w = Witness::floor(n);
            if let Some((v, c)) = cut {
                if c > w.claimed() {
                    w = Witness::removal_set(vec![v], c);
                }
            }
            if let Some(set) = blocking {
                let b = lower_bound::vertex_removal_bound(g, &set);
                if b > w.claimed() {
                    w = Witness::removal_set(set, b);
                }
            }
            debug_assert!(w.verify(g), "produced witness must self-verify");
            debug_assert!(w.claimed() <= k, "lower bound above achieved degree");
            if w.claimed() >= k {
                break (k, w);
            }
            // Open interval: settle on small instances, else certify what
            // the witness gives (`k − 1` at a true fixpoint).
            if self.settle_budget > 0 && n <= self.settle_max_n {
                let budget = SolveBudget {
                    max_nodes: self.settle_budget,
                };
                match has_spanning_tree_with_max_degree(g, k - 1, budget) {
                    Some(Some(better)) => {
                        // A strictly better tree exists: adopt and keep
                        // improving (k strictly decreases, so this loop
                        // terminates).
                        tree = better;
                        continue;
                    }
                    Some(None) => {
                        settled = true;
                        break (k, w);
                    }
                    None => break (w.claimed(), w),
                }
            } else {
                break (w.claimed(), w);
            }
        };
        Solution {
            lower,
            upper: tree.max_degree(),
            tree,
            witness,
            settled,
            pivots,
        }
    }

    /// Run improvement phases until a fixpoint.
    /// Returns the blocking set of the final phase, or `None` when the
    /// tree already meets the connectivity floor (nothing to certify
    /// beyond it).
    fn improve(&self, g: &Graph, tree: &mut SpanningTree, pivots: &mut u64) -> Option<Vec<NodeId>> {
        let floor = floor_bound(tree.n());
        loop {
            let k = tree.max_degree();
            if k <= floor {
                return None;
            }
            match run_phase(g, tree, k, pivots) {
                Phase::Applied => continue,
                Phase::Blocked(set) => return Some(set),
            }
        }
    }
}

/// One Fürer–Raghavachari phase at degree target `k`: either applies the
/// first improvement in ascending edge order, or reaches the phase
/// fixpoint and returns the blocking set.
///
/// Kept out of line: inlined into `Solver::improve`, the scratch solve of
/// `G(5000, 8/n)` ran about 15% slower (x86-64, release build).
#[inline(never)]
fn run_phase(g: &Graph, tree: &mut SpanningTree, k: u32, pivots: &mut u64) -> Phase {
    let n = tree.n();
    let root = tree.root();
    let mut marked = vec![false; n];
    for v in 0..n as u32 {
        marked[v as usize] = tree.deg(v) >= k - 1;
    }
    // Forest components of T − marked.
    let mut uf = UnionFind::new(n);
    for v in 0..n as u32 {
        if v != root {
            let p = tree.parent(v);
            if !marked[v as usize] && !marked[p as usize] {
                uf.union(v, p);
            }
        }
    }
    let mut path_buf: Vec<u32> = Vec::new();
    loop {
        let mut merged = false;
        for &(u, v) in g.edges() {
            if tree.is_tree_edge(u, v)
                || marked[u as usize]
                || marked[v as usize]
                || uf.find(u) == uf.find(v)
            {
                continue;
            }
            // The basis cycle crosses two forest components, so it passes
            // through at least one marked vertex.
            path_buf.clear();
            path_buf.extend_from_slice(tree.tree_path(u, v));
            let hot = path_buf
                .iter()
                .position(|&x| marked[x as usize] && tree.deg(x) == k);
            if let Some(i) = hot {
                // Relieve the degree-k vertex: swap `{u,v}` in, drop the
                // cycle edge between it and its path predecessor (`i ≥ 1`
                // because `u` is unmarked).
                let w = path_buf[i];
                tree.pivot((u, v), (w, path_buf[i - 1]));
                *pivots += 1;
                return Phase::Applied;
            } else {
                // Every marked cycle vertex has degree k − 1: each could
                // be relieved by this very edge if it ever mattered, so
                // unmark them and fuse the cycle into one component.
                for &x in &path_buf {
                    marked[x as usize] = false;
                }
                for win in path_buf.windows(2) {
                    uf.union(win[0], win[1]);
                }
                merged = true;
            }
        }
        if !merged {
            break;
        }
    }
    Phase::Blocked(
        (0..n as u32)
            .filter(|&v| marked[v as usize])
            .collect::<Vec<_>>(),
    )
}

/// Best singleton cut bound via articulation points: one iterative DFS
/// yields `c(G − v)` for every vertex; the removal formula for `S = {v}`
/// is exactly that component count. Returns the best `(v, c)` with
/// `c ≥ 3` (the floor already certifies 2), smallest `v` on ties.
fn best_cut_bound(g: &Graph) -> Option<(NodeId, u32)> {
    let n = g.n();
    if n < 3 {
        return None;
    }
    const UNSET: u32 = u32::MAX;
    let mut disc = vec![0u32; n]; // 0 = unvisited, timestamps from 1
    let mut low = vec![0u32; n];
    let mut parent = vec![UNSET; n];
    let mut split_children = vec![0u32; n];
    let mut root_children = 0u32;
    let mut timer = 1u32;
    disc[0] = 1;
    low[0] = 1;
    timer += 1;
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
        let nbrs = g.neighbors(v);
        if *idx < nbrs.len() {
            let w = nbrs[*idx];
            *idx += 1;
            if disc[w as usize] == 0 {
                parent[w as usize] = v;
                disc[w as usize] = timer;
                low[w as usize] = timer;
                timer += 1;
                stack.push((w, 0));
            } else if w != parent[v as usize] {
                low[v as usize] = low[v as usize].min(disc[w as usize]);
            }
        } else {
            stack.pop();
            let p = parent[v as usize];
            if p == UNSET {
                continue;
            }
            low[p as usize] = low[p as usize].min(low[v as usize]);
            if p == 0 {
                root_children += 1;
            } else if low[v as usize] >= disc[p as usize] {
                split_children[p as usize] += 1;
            }
        }
    }
    let mut best: Option<(NodeId, u32)> = None;
    for v in 0..n as u32 {
        let c = if v == 0 {
            root_children
        } else {
            1 + split_children[v as usize]
        };
        if c >= 3 && best.map(|(_, bc)| c > bc).unwrap_or(true) {
            best = Some((v, c));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::generators::{gadgets, random, structured};
    use ssmdst_graph::graph::graph_from_edges;
    use ssmdst_graph::{exact_mdst, SpanningTree};

    fn check(g: &Graph, solver: &Solver) -> Solution {
        let sol = solver.solve(g);
        assert!(sol.lower <= sol.upper, "interval inverted");
        assert!(sol.witness.verify(g), "witness must re-verify");
        // Recount the degrees on a fresh rebuild, not the pivoted cache.
        let t = SpanningTree::from_parents(g, sol.tree.root(), sol.tree.parents().to_vec())
            .expect("valid tree");
        assert_eq!(t.max_degree(), sol.upper, "upper must be achieved");
        sol
    }

    #[test]
    fn agrees_with_branch_and_bound_on_named_instances() {
        let instances: Vec<Graph> = vec![
            structured::path(6).unwrap(),
            structured::cycle(7).unwrap(),
            structured::complete(7).unwrap(),
            structured::star_with_ring(8).unwrap(),
            structured::grid(3, 3).unwrap(),
            structured::complete_bipartite(2, 5).unwrap(),
            graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
            gadgets::spider(4, 2).unwrap(),
            gadgets::spider(3, 3).unwrap(),
            gadgets::double_broom(3, 2).unwrap(),
            gadgets::hamiltonian_with_chords(12, 15, 0),
        ];
        let solver = Solver::default();
        for g in &instances {
            let sol = check(g, &solver);
            let ds = exact_mdst(g, SolveBudget::default())
                .delta_star()
                .expect("small instance");
            assert!(sol.exact(), "settled small instance must be exact");
            assert_eq!(sol.delta_star(), Some(ds), "n={} m={}", g.n(), g.m());
        }
    }

    #[test]
    fn interval_width_is_at_most_one_without_settling() {
        // The FR phase theorem, empirically: witness-only solves certify
        // within one of the achieved tree everywhere.
        let solver = Solver::builder().settle_budget(0).build();
        for seed in 0..20 {
            let g = random::gnp_connected(16, 0.25, seed);
            let sol = check(&g, &solver);
            assert!(
                sol.upper - sol.lower <= 1,
                "seed {seed}: [{}, {}]",
                sol.lower,
                sol.upper
            );
        }
    }

    #[test]
    fn solver_runs_are_replayable() {
        let g = random::gnp_connected(18, 0.25, 3);
        let solver = Solver::default();
        let a = solver.solve(&g);
        let b = solver.solve(&g);
        assert_eq!(a, b, "same configuration must replay identically");
    }

    #[test]
    fn warm_start_settles_to_the_same_bounds() {
        let g = random::gnp_connected(15, 0.3, 9);
        let solver = Solver::default();
        let cold = solver.solve(&g);
        // Warm-start from a deliberately bad star-ish DFS tree.
        let t = SpanningTree::from_bfs(&g, (g.n() - 1) as u32).unwrap();
        let warm = solver.solve_from(&g, t);
        assert_eq!(cold.lower, warm.lower);
        assert_eq!(cold.upper, warm.upper);
        assert!(warm.witness.verify(&g));
    }

    #[test]
    fn star_needs_no_settling() {
        let g = graph_from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        let solver = Solver::builder().settle_budget(0).build();
        let sol = check(&g, &solver);
        assert_eq!(sol.delta_star(), Some(6));
        assert_eq!(sol.witness.set(), &[0], "hub is the witness");
        assert!(!sol.settled);
    }

    #[test]
    fn articulation_bound_finds_the_spider_hub() {
        let g = gadgets::spider(5, 2).unwrap();
        assert_eq!(best_cut_bound(&g), Some((0, 5)));
        let g = structured::cycle(8).unwrap();
        assert_eq!(best_cut_bound(&g), None, "no articulation in a cycle");
    }

    #[test]
    fn trivial_sizes() {
        let g = ssmdst_graph::GraphBuilder::new(1).build();
        let sol = Solver::default().solve(&g);
        assert_eq!(sol.delta_star(), Some(0));
        let g = graph_from_edges(2, &[(0, 1)]);
        let sol = Solver::default().solve(&g);
        assert_eq!(sol.delta_star(), Some(1));
    }
}
