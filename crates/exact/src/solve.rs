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
//! directly: mark every vertex of degree `≥ k − 1`, grow a forest over
//! the unmarked tree edges, and process non-tree edges whose endpoints
//! lie in different forest components. The basis cycle of such an edge
//! must pass through a marked vertex; if one has degree `k` the edge is an
//! **improvement** (swap it in, drop a cycle edge at the hot vertex),
//! otherwise every marked cycle vertex has degree `k − 1` and is
//! **unmarked** (it could be relieved on demand), merging the cycle into
//! one component. At the fixpoint the still-marked set is the blocking
//! witness. Each phase pivots on the first improvement in ascending edge
//! order.
//!
//! A phase costs the work it does, not `O(n + m)`:
//!
//! * **Derived marking.** [`Solver`] keeps one phase state per solve; a
//!   phase starts by bumping a `u32` stamp. `v` is marked iff
//!   `deg(v) ≥ k − 1` and `v` has no union-find entry written under the
//!   current stamp. A vertex of degree `≥ k − 1` first gets an entry when
//!   a merge unmarks it (path compression only writes entries of non-root
//!   vertices, and a marked vertex is a root), so the stamp doubles as
//!   "unmarked in this phase".
//! * **Lazy union-find over `T − marked₀`.** An unstamped entry's parent
//!   is its tree parent when both have degree `≤ k − 2`, and itself
//!   otherwise; stamped entries override that, and finds compress paths by
//!   writing stamped entries. **Invariant: every root is its component's
//!   top** (its shallowest vertex). The initial components are connected
//!   subtrees rooted at their tops. A merge adds a tree path, so every
//!   component stays a connected subtree, and the merge hangs every root
//!   under the root of the element holding the cycle's LCA, which is the
//!   merged component's top.
//! * **Row sweep.** The canonical edge list is the upper half of the CSR
//!   rows read in order, so walking `u` ascending over
//!   `neighbors(u)[partition_point(< u)..]` visits exactly `g.edges()` in
//!   order. A marked `u` skips its row: none of its edges is eligible, so
//!   nothing in the row can unmark it. Every edge re-reads the live
//!   marking, so an endpoint a merge unmarked earlier in the sweep is seen
//!   exactly as a full scan of `g.edges()` sees it.
//! * **Compressed cycle walk.** By the invariant, the components the basis
//!   cycle of `{u, v}` crosses form two chains, `find(u)`,
//!   `find(parent(top))`, … and the same from `v`, which meet at the LCA's
//!   component `m`. Advancing the side with the deeper top (both on a tie)
//!   finds `m` without visiting the vertices inside components. Only
//!   marked singletons can have degree `k`, so scanning the u-side
//!   elements in climb order, then `m`, then the v-side elements in
//!   reverse meets the hot vertices in path order. The edge dropped at the
//!   first one, `w`, is `(w, previous u-side top)` on the u side or at
//!   `m`, and `(w, parent(w))` on the v side: the edge a walk of the full
//!   path names.
//! * **Degree target.** A count of degree-`k` vertices survives across
//!   pivots; `k` is recomputed only when the count reaches zero.
//!
//! This loop is the workspace's one Fürer–Raghavachari local search. With
//! settling off (`settle_budget(0)`), [`Solver::solve_from`] *is* the
//! sequential FR baseline of experiment T5, and its pivot count drives the
//! serialized-\[3\] model of experiment F3 (one swap per phase). The
//! proof, once:
//!
//! * **Termination.** Every phase is finite: a sweep that merges nothing
//!   ends it, and every merge joins at least two components. A pivot
//!   lowers the hot vertex from `k` to `k − 1` and raises only the new
//!   edge's endpoints, which are unmarked and so end at degree `≤ k`: `k`
//!   never rises. A pivot need not lower the count of degree-`k` vertices,
//!   though. An endpoint unmarked since the phase began has degree
//!   `≤ k − 2` and stays below `k`, but one unmarked by a merge has degree
//!   `k − 1` and reaches `k` (`gnp_connected(7, 0.4, 1414)` has such a
//!   degree-neutral pivot). Fürer–Raghavachari's propagation, which
//!   relieves that endpoint first, restores the counting argument; this
//!   loop does not propagate, so its termination is observed on every
//!   instance the tests and benchmarks run, not proven.
//! * **Within one.** Let `W` be the final marked set (each vertex of
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
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics`: a disconnected graph has no spanning tree"
        )]
        let tree = SpanningTree::from_bfs(g, 0).expect("exact::solve: disconnected graph");
        self.solve_from(g, tree)
    }

    /// Solve starting from an existing spanning tree of `g`: the
    /// protocol's own tree when the scenario judge certifies a component,
    /// or the incremental engine's repaired basis.
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
        let mut phase = PhaseState::new(tree);
        loop {
            if phase.k <= floor {
                return None;
            }
            match phase.run(g, tree, pivots) {
                Phase::Applied => continue,
                Phase::Blocked(set) => return Some(set),
            }
        }
    }
}

/// The Fürer–Raghavachari phase state one solve reuses across all its
/// phases: the stamped lazy union-find (which also carries the marking),
/// the climb buffers, and the degree target with its count. See the
/// module doc for the mechanics and the root-is-top invariant.
struct PhaseState {
    /// Degree target: `tree.max_degree()`.
    k: u32,
    /// Number of vertices of tree degree `k`.
    at_k: usize,
    /// The current phase's stamp; an entry is live iff `seen[v] == stamp`.
    stamp: u32,
    /// Stamp under which `up[v]` was last written.
    seen: Vec<u32>,
    /// Union-find parent, valid while `seen[v] == stamp`.
    up: Vec<NodeId>,
    /// Component roots climbed from the non-tree edge's lower endpoint.
    u_side: Vec<NodeId>,
    /// Component roots climbed from its upper endpoint.
    v_side: Vec<NodeId>,
}

impl PhaseState {
    fn new(tree: &SpanningTree) -> Self {
        let n = tree.n();
        let mut s = PhaseState {
            k: 0,
            at_k: 0,
            stamp: 0,
            seen: vec![0; n],
            up: vec![0; n],
            u_side: Vec::new(),
            v_side: Vec::new(),
        };
        s.retarget(tree);
        s
    }

    fn retarget(&mut self, tree: &SpanningTree) {
        self.k = tree.max_degree();
        self.at_k = tree.degrees().iter().filter(|&&d| d == self.k).count();
    }

    /// One phase at degree target `k`: either applies the first
    /// improvement in ascending edge order, or reaches the phase fixpoint
    /// and returns the blocking set. Same pivots as the full-rebuild
    /// reference phase in the tests.
    fn run(&mut self, g: &Graph, tree: &mut SpanningTree, pivots: &mut u64) -> Phase {
        debug_assert_eq!(self.k, tree.max_degree(), "stale degree target");
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let Some(((u, v), (w, z))) = self.find_improvement(g, tree) else {
            let blocking = (0..tree.n() as NodeId)
                .filter(|&x| self.marked(tree, x))
                .collect();
            return Phase::Blocked(blocking);
        };
        let k = self.k;
        let at_k = |t: &SpanningTree| [u, v, w, z].iter().filter(|&&x| t.deg(x) == k).count();
        // `[u, v, w, z]` may repeat a vertex (`z` can be `u` or `v`), but a
        // repeated vertex's degree does not change, so it cancels out.
        let before = at_k(tree);
        tree.pivot((u, v), (w, z));
        *pivots += 1;
        self.at_k = self.at_k + at_k(tree) - before;
        if self.at_k == 0 {
            self.retarget(tree);
        }
        Phase::Applied
    }

    /// Sweep the non-tree edges in `g.edges()` order, merging components
    /// along blocked cycles, until an improvement `((u, v), (w, z))` turns
    /// up (insert `{u, v}`, drop `{w, z}`) or a sweep merges nothing.
    fn find_improvement(
        &mut self,
        g: &Graph,
        tree: &SpanningTree,
    ) -> Option<((NodeId, NodeId), (NodeId, NodeId))> {
        let n = tree.n() as NodeId;
        loop {
            let mut merged = false;
            for u in 0..n {
                if self.marked(tree, u) {
                    continue;
                }
                let row = g.neighbors(u);
                for &v in &row[row.partition_point(|&x| x < u)..] {
                    if self.marked(tree, v) || tree.is_tree_edge(u, v) {
                        continue;
                    }
                    let (mut a, mut b) = (self.find(tree, u), self.find(tree, v));
                    if a == b {
                        continue;
                    }
                    // Climb both chains of components to the LCA's, `m`.
                    self.u_side.clear();
                    self.v_side.clear();
                    while a != b {
                        let (da, db) = (tree.depth(a), tree.depth(b));
                        if da >= db {
                            self.u_side.push(a);
                            a = self.find(tree, tree.parent(a));
                        }
                        if db >= da {
                            self.v_side.push(b);
                            b = self.find(tree, tree.parent(b));
                        }
                    }
                    let m = a;
                    // The first degree-k vertex in path order. The first
                    // element is `u`'s component, whose root is unmarked
                    // and never hot, so `prev` is a real predecessor by
                    // the time a hot vertex on the u side or at `m` reads it.
                    let mut prev = u;
                    for &x in self.u_side.iter().chain(std::iter::once(&m)) {
                        if tree.deg(x) == self.k {
                            return Some(((u, v), (x, prev)));
                        }
                        prev = x;
                    }
                    for &x in self.v_side.iter().rev() {
                        if tree.deg(x) == self.k {
                            return Some(((u, v), (x, tree.parent(x))));
                        }
                    }
                    // Every marked cycle vertex has degree k − 1: each
                    // could be relieved by this very edge if it ever
                    // mattered, so unmark them and fuse the cycle's
                    // components under the merged top `m`.
                    let sides = self.u_side.iter().chain(&self.v_side);
                    for &x in sides.chain(std::iter::once(&m)) {
                        self.seen[x as usize] = self.stamp;
                        self.up[x as usize] = m;
                    }
                    merged = true;
                }
            }
            if !merged {
                return None;
            }
        }
    }

    /// Whether `v` is still marked in this phase.
    #[inline]
    fn marked(&self, tree: &SpanningTree, v: NodeId) -> bool {
        tree.deg(v) + 1 >= self.k && self.seen[v as usize] != self.stamp
    }

    /// `v`'s union-find parent: its stamped entry, else the lazy one.
    #[inline]
    fn parent(&self, tree: &SpanningTree, v: NodeId) -> NodeId {
        if self.seen[v as usize] == self.stamp {
            return self.up[v as usize];
        }
        let p = tree.parent(v);
        if tree.deg(v) + 2 <= self.k && tree.deg(p) + 2 <= self.k {
            p
        } else {
            v
        }
    }

    /// The root (and, by the invariant, the top) of `v`'s component, with
    /// full path compression.
    fn find(&mut self, tree: &SpanningTree, v: NodeId) -> NodeId {
        let mut r = v;
        loop {
            let p = self.parent(tree, r);
            if p == r {
                break;
            }
            r = p;
        }
        let mut x = v;
        while x != r {
            let next = self.parent(tree, x);
            self.hang(x, r);
            x = next;
        }
        r
    }

    /// Write `x`'s union-find entry for this phase.
    #[inline]
    fn hang(&mut self, x: NodeId, parent: NodeId) {
        self.seen[x as usize] = self.stamp;
        self.up[x as usize] = parent;
    }
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
    use proptest::prelude::*;
    use ssmdst_graph::generators::{gadgets, random, structured, GraphFamily};
    use ssmdst_graph::graph::graph_from_edges;
    use ssmdst_graph::{exact_mdst, SpanningTree, UnionFind};

    /// The reference phase: one Fürer–Raghavachari phase at degree target
    /// `k` that rebuilds its marking and union-find and scans every edge.
    /// `PhaseState::run` must make exactly its pivots.
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

    /// Step `PhaseState` and the reference phase side by side from `start`
    /// until the fixpoint, asserting after every phase that both applied
    /// the same pivot or blocked on the same set. Returns the pivot count.
    fn phases_side_by_side(g: &Graph, start: SpanningTree) -> Result<u64, TestCaseError> {
        let floor = floor_bound(g.n());
        let (mut fast, mut slow) = (start.clone(), start);
        let mut phase = PhaseState::new(&fast);
        let (mut fast_pivots, mut pivots) = (0u64, 0u64);
        loop {
            let k = slow.max_degree();
            let at_k = slow.degrees().iter().filter(|&&d| d == k).count();
            prop_assert_eq!((phase.k, phase.at_k), (k, at_k), "after {} pivots", pivots);
            if k <= floor {
                return Ok(pivots);
            }
            match (
                phase.run(g, &mut fast, &mut fast_pivots),
                run_phase(g, &mut slow, k, &mut pivots),
            ) {
                (Phase::Applied, Phase::Applied) => {
                    prop_assert_eq!(fast.parents(), slow.parents(), "pivot {}", pivots);
                }
                (Phase::Blocked(a), Phase::Blocked(b)) => {
                    prop_assert_eq!(a, b, "blocking set after {} pivots", pivots);
                    return Ok(pivots);
                }
                _ => prop_assert!(false, "phase outcomes differ after {} pivots", pivots),
            }
        }
    }

    fn phase_graphs() -> impl Strategy<Value = Graph> {
        prop_oneof![
            (4usize..=300, 0.02f64..0.2, 0u64..100_000)
                .prop_map(|(n, p, seed)| random::gnp_connected(n, p, seed)),
            (4usize..=300, 1.0f64..8.0, 0u64..100_000).prop_map(|(n, c, seed)| {
                random::gnp_connected_sparse(n, (c / n as f64).min(0.5), seed)
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stamped phase makes exactly the reference phase's pivots,
        /// cold from a BFS tree and warm from the BFS tree of another root.
        #[test]
        fn phase_matches_the_reference_phase(
            g in phase_graphs(),
            roots in (0u32..300, 1u32..300),
        ) {
            let n = g.n() as u32;
            let (cold, warm) = (roots.0 % n, (roots.0 + roots.1) % n);
            for root in [cold, warm] {
                phases_side_by_side(&g, SpanningTree::from_bfs(&g, root).unwrap())?;
            }
        }
    }

    #[test]
    fn a_pivot_onto_a_merged_vertex_is_degree_neutral() {
        // The smallest instance found whose pivot raises an endpoint that
        // a merge unmarked (degree k − 1) to k: that phase relieves one
        // degree-k vertex and creates another.
        let g = random::gnp_connected(7, 0.4, 1414);
        assert_eq!((g.n(), g.m()), (7, 8));
        let at_k = |t: &SpanningTree, k| t.degrees().iter().filter(|&&d| d == k).count();
        let mut tree = SpanningTree::from_bfs(&g, 0).unwrap();
        let (mut pivots, mut neutral) = (0u64, 0);
        loop {
            let k = tree.max_degree();
            if k <= floor_bound(g.n()) {
                break;
            }
            let before = at_k(&tree, k);
            match run_phase(&g, &mut tree, k, &mut pivots) {
                Phase::Applied => neutral += usize::from(at_k(&tree, k) == before),
                Phase::Blocked(_) => break,
            }
        }
        assert_eq!((pivots, neutral), (2, 1));
        let solver = Solver::builder().settle_budget(0).build();
        assert_eq!(solver.solve(&g).pivots, 2);
    }

    #[test]
    fn phase_matches_the_reference_phase_on_pinned_instances() {
        // (8, 0.3, 183) pivots onto a merge-unmarked endpoint that is also
        // the dropped edge's end, so its degree does not rise; (7, 0.4,
        // 1414) has the degree-neutral pivot.
        for (n, p, seed, pivots) in [(8, 0.3, 183, 2), (7, 0.4, 1414, 2)] {
            let g = random::gnp_connected(n, p, seed);
            let start = SpanningTree::from_bfs(&g, 0).unwrap();
            assert_eq!(phases_side_by_side(&g, start).unwrap(), pivots);
        }
    }

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

    /// Sequential FR: `solve_from` with settling off.
    fn fr(g: &Graph, start: SpanningTree) -> Solution {
        Solver::builder()
            .settle_budget(0)
            .build()
            .solve_from(g, start)
    }

    fn check_within_one(g: &Graph, t: &SpanningTree) {
        let ds = exact_mdst(g, SolveBudget::default())
            .delta_star()
            .expect("test instance solvable");
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
        let t0 = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t0.max_degree(), 11);
        let sol = fr(&g, t0);
        assert!(sol.tree.max_degree() <= 3, "got {}", sol.tree.max_degree());
        // One pivot lowers the hub by at most one: 11 → ≤ 3 takes ≥ 8.
        assert!(sol.pivots >= 8);
        check_within_one(&g, &sol.tree);
    }

    #[test]
    fn fr_within_one_on_all_families_small() {
        // n ∈ {1, 2, 3} take the solver's trivial and floor exits: the
        // tree must come back unchanged, with no swap.
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
            let sol = fr(&g, SpanningTree::from_bfs(&g, 0).unwrap());
            check_within_one(&g, &sol.tree);
            if g.n() <= 3 {
                assert_eq!(sol.pivots, 0, "n = {}", g.n());
            }
        }
    }

    #[test]
    fn fr_within_one_from_random_initial_trees() {
        for seed in 0..5 {
            let g = gadgets::hamiltonian_with_chords(14, 20, seed);
            let sol = fr(&g, SpanningTree::random(&g, seed).unwrap());
            let d = sol.tree.max_degree();
            assert!(d <= 3, "seed {seed}: {d}");
        }
    }

    #[test]
    fn forced_spider_cannot_improve() {
        let g = gadgets::spider(4, 2).unwrap();
        let sol = fr(&g, SpanningTree::from_bfs(&g, 0).unwrap());
        // The hub's edges are bridges: no swaps exist at all.
        assert_eq!(sol.tree.max_degree(), 4);
        assert_eq!(sol.pivots, 0);
    }

    #[test]
    fn complete_graph_reaches_degree_two_or_three() {
        let g = structured::complete(10).unwrap();
        let star = SpanningTree::from_bfs(&g, 0).unwrap(); // degree 9
        let d = fr(&g, star).tree.max_degree();
        assert!(d <= 3, "got {d}");
    }

    #[test]
    fn fr_rerun_from_its_fixpoint_is_a_no_op() {
        let g = structured::grid(4, 4).unwrap();
        let first = fr(&g, SpanningTree::from_bfs(&g, 0).unwrap());
        let again = fr(&g, first.tree.clone());
        assert_eq!(first.tree.edge_set(), again.tree.edge_set());
        assert_eq!(again.pivots, 0);
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
