//! Rooted spanning trees: validation, degrees, tree paths and the
//! fundamental-cycle pivot.
//!
//! This is the *centralized* view of the structure the distributed protocol
//! maintains with per-node `parent` pointers, and the workspace's one tree
//! type. The oracle extracts the protocol's global state into a
//! [`SpanningTree`] to check legitimacy, and the exact engine
//! (`ssmdst-exact`) runs its Fürer–Raghavachari improvement loop on it.
//!
//! Beside the parent vector the tree keeps flat `depth` and `deg` arrays
//! and intrusive first-child / next-sibling / prev-sibling threading, in
//! the network-simplex style. [`SpanningTree::tree_path`] walks the
//! fundamental cycle of a non-tree edge by depth-matched parent climbs in
//! `O(cycle)`, and [`SpanningTree::pivot`] (insert a non-tree edge, remove
//! a tree edge on its cycle) costs `O(path + re-hung subtree)`: the
//! threading gives each subtree as a pointer walk, so only the re-hung
//! vertices are relabelled.
//!
//! The naive constructors ([`SpanningTree::from_bfs`],
//! [`SpanningTree::from_dfs`], [`SpanningTree::random`],
//! [`SpanningTree::greedy_min_degree`]) are the arbitrary start trees of
//! the experiments and the comparison points of experiment T5.

use crate::error::GraphError;
use crate::generators::random::rng;
use crate::graph::{Graph, NodeId};
use crate::union_find::UnionFind;
use rand::seq::SliceRandom;

/// Sentinel for "no node" in the child-list threading.
const NONE: NodeId = u32::MAX;

/// A spanning tree of a host [`Graph`], stored as a rooted parent vector.
///
/// Invariants (enforced by [`SpanningTree::from_parents`], kept by
/// [`SpanningTree::pivot`]):
/// * `parent[root] == root`, every other node's parent edge exists in the
///   host graph,
/// * following parents from any node reaches `root` (no cycles),
/// * consequently the tree spans all `n` nodes with `n − 1` edges,
/// * `depth`, `deg` and the child threading describe that parent vector.
///
/// Equality compares the root and the parent vector only: the sibling
/// order and the scratch buffers depend on the pivot history, not on the
/// tree.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<NodeId>,
    /// Depth of each node (root = 0).
    depth: Vec<u32>,
    /// Tree degree of each node.
    deg: Vec<u32>,
    /// Head of each node's child list (`NONE` for leaves).
    first_child: Vec<NodeId>,
    /// Next sibling in the parent's child list (`NONE` at the tail).
    next_sib: Vec<NodeId>,
    /// Previous sibling (`NONE` at the head): O(1) unlink on pivot.
    prev_sib: Vec<NodeId>,
    /// Scratch stack for the cycle walk and subtree relabelling.
    stack: Vec<NodeId>,
    /// Scratch buffer [`SpanningTree::tree_path`] writes into.
    path: Vec<NodeId>,
}

impl PartialEq for SpanningTree {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root && self.parent == other.parent
    }
}

impl Eq for SpanningTree {}

impl SpanningTree {
    /// Validate a parent vector against its host graph, building the
    /// depth, degree and child-list arrays on the way. O(n log Δ).
    pub fn from_parents(g: &Graph, root: NodeId, parent: Vec<NodeId>) -> Result<Self, GraphError> {
        check_root(g, root)?;
        let n = g.n();
        if parent.len() != n {
            return Err(GraphError::NotASpanningTree("parent vector length != n"));
        }
        if parent[root as usize] != root {
            return Err(GraphError::NotASpanningTree("parent[root] != root"));
        }
        let mut t = SpanningTree {
            root,
            parent,
            depth: vec![0; n],
            deg: vec![0; n],
            first_child: vec![NONE; n],
            next_sib: vec![NONE; n],
            prev_sib: vec![NONE; n],
            stack: Vec::new(),
            path: Vec::new(),
        };
        for v in g.nodes() {
            let p = t.parent[v as usize];
            if v == root {
                continue;
            }
            if p as usize >= n {
                return Err(GraphError::NotASpanningTree("parent out of range"));
            }
            if p == v {
                return Err(GraphError::NotASpanningTree("non-root self-parent"));
            }
            if !g.has_edge(v, p) {
                return Err(GraphError::NotASpanningTree("parent edge not in graph"));
            }
            t.deg[v as usize] += 1;
            t.deg[p as usize] += 1;
            t.link_child(p, v);
        }
        // Every non-root node has one parent, so the nodes the child lists
        // reach from the root are those whose parent chain ends there; any
        // other node sits on or below a parent cycle.
        if t.relabel_depths(root, 0) != n {
            return Err(GraphError::NotASpanningTree("parent cycle"));
        }
        Ok(t)
    }

    /// Breadth-first tree rooted at `root` (each node's parent is its
    /// BFS discoverer, neighbours scanned in ascending order): what the
    /// protocol's spanning-tree module (rules R1/R2) converges to when
    /// `root` is the minimum ID.
    pub fn from_bfs(g: &Graph, root: NodeId) -> Result<Self, GraphError> {
        check_root(g, root)?;
        let parent = crate::traversal::bfs_tree(g, root);
        if parent.contains(&NONE) {
            return Err(GraphError::Disconnected);
        }
        Self::from_parents(g, root, parent)
    }

    /// Depth-first tree rooted at `root`, smallest neighbour first. It
    /// tends to long paths, so low degree on dense graphs: a strong naive
    /// baseline.
    pub fn from_dfs(g: &Graph, root: NodeId) -> Result<Self, GraphError> {
        check_root(g, root)?;
        let mut parent = vec![NONE; g.n()];
        // Parents are assigned at *pop* time: that is what makes this a true
        // DFS tree (long paths) rather than a BFS-like star on dense graphs.
        let mut stack = vec![(root, root)];
        while let Some((v, p)) = stack.pop() {
            if parent[v as usize] != NONE {
                continue;
            }
            parent[v as usize] = p;
            for &w in g.neighbors(v).iter().rev() {
                if parent[w as usize] == NONE {
                    stack.push((w, v));
                }
            }
        }
        if parent.contains(&NONE) {
            return Err(GraphError::Disconnected);
        }
        Self::from_parents(g, root, parent)
    }

    /// Kruskal over a seeded shuffle of the edge list, rooted at 0. Not
    /// uniform over all spanning trees, but unbiased enough to act as an
    /// arbitrary start tree.
    pub fn random(g: &Graph, seed: u64) -> Result<Self, GraphError> {
        let mut edges = g.edges().to_vec();
        edges.shuffle(&mut rng(seed));
        let mut uf = UnionFind::new(g.n());
        edges.retain(|&(u, v)| uf.union(u, v));
        Self::from_edge_list(g, &edges)
    }

    /// Greedy degree-aware Kruskal, rooted at 0: always take the usable
    /// edge whose endpoints have the smallest `(max, sum)` of current tree
    /// degrees, ties broken by a seeded shuffle. A classic heuristic that
    /// often lands within 1–2 of `Δ*` without any improvement machinery.
    pub fn greedy_min_degree(g: &Graph, seed: u64) -> Result<Self, GraphError> {
        let mut remaining = g.edges().to_vec();
        remaining.shuffle(&mut rng(seed));
        let mut uf = UnionFind::new(g.n());
        let mut deg = vec![0u32; g.n()];
        let mut picked = Vec::with_capacity(g.n().saturating_sub(1));
        while picked.len() + 1 < g.n() {
            let mut best: Option<(usize, (u32, u32))> = None;
            for (i, &(u, v)) in remaining.iter().enumerate() {
                if uf.find(u) == uf.find(v) {
                    continue;
                }
                let (du, dv) = (deg[u as usize], deg[v as usize]);
                let key = (du.max(dv), du + dv);
                if best.map(|(_, bk)| key < bk).unwrap_or(true) {
                    best = Some((i, key));
                }
            }
            let Some((i, _)) = best else {
                return Err(GraphError::Disconnected);
            };
            let (u, v) = remaining.swap_remove(i);
            uf.union(u, v);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
            picked.push((u, v));
        }
        Self::from_edge_list(g, &picked)
    }

    /// Root an edge list at node 0, finding children depth-first in list
    /// order. `Disconnected` unless the edges connect all of `g`.
    pub(crate) fn from_edge_list(
        g: &Graph,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, GraphError> {
        check_root(g, 0)?;
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.n()];
        for &(u, v) in edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut parent = vec![NONE; g.n()];
        parent[0] = 0;
        let mut stack = vec![0];
        while let Some(v) = stack.pop() {
            for &w in &adj[v as usize] {
                if parent[w as usize] == NONE {
                    parent[w as usize] = v;
                    stack.push(w);
                }
            }
        }
        if parent.contains(&NONE) {
            return Err(GraphError::Disconnected);
        }
        Self::from_parents(g, 0, parent)
    }

    /// Root of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v` (`root`'s parent is itself).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Borrow the raw parent vector.
    #[inline]
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Depth of `v` (root = 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v as usize]
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Tree degree of `v`, O(1).
    #[inline]
    pub fn deg(&self, v: NodeId) -> u32 {
        self.deg[v as usize]
    }

    /// Tree degree of each node.
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.deg
    }

    /// Whether `{u, v}` is a tree edge.
    #[inline]
    pub fn is_tree_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (self.parent[u as usize] == v || self.parent[v as usize] == u)
    }

    /// `deg(T) = max_v deg_T(v)` — the quantity the paper minimizes.
    pub fn max_degree(&self) -> u32 {
        self.deg.iter().copied().max().unwrap_or(0)
    }

    /// Nodes of maximum tree degree (the set `S` in FR Theorem 1).
    pub fn max_degree_nodes(&self) -> Vec<NodeId> {
        let k = self.max_degree();
        (0..self.n() as NodeId)
            .filter(|&v| self.deg[v as usize] == k)
            .collect()
    }

    /// The `n − 1` tree edges in canonical `(min, max)` form, sorted.
    pub fn edge_set(&self) -> Vec<(NodeId, NodeId)> {
        let mut es: Vec<(NodeId, NodeId)> = (0..self.parent.len() as u32)
            .filter(|&v| self.parent[v as usize] != v)
            .map(|v| {
                let p = self.parent[v as usize];
                if v < p {
                    (v, p)
                } else {
                    (p, v)
                }
            })
            .collect();
        es.sort_unstable();
        es
    }

    /// Unique tree path from `u` to `v` inclusive, via the lowest common
    /// ancestor. For a non-tree edge `{u, v}` this is its fundamental
    /// cycle `C_e` minus the edge itself. Depth-matched parent climbs make
    /// it O(1) per step, O(path) in total. The slice lives in a scratch
    /// buffer that the next `tree_path` or [`SpanningTree::pivot`] reuses.
    pub fn tree_path(&mut self, u: NodeId, v: NodeId) -> &[NodeId] {
        self.path.clear();
        self.stack.clear();
        let (mut a, mut b) = (u, v);
        self.path.push(a);
        // `stack` collects the b-side, to be appended reversed.
        self.stack.push(b);
        while self.depth[a as usize] > self.depth[b as usize] {
            a = self.parent[a as usize];
            self.path.push(a);
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            b = self.parent[b as usize];
            self.stack.push(b);
        }
        while a != b {
            a = self.parent[a as usize];
            self.path.push(a);
            b = self.parent[b as usize];
            self.stack.push(b);
        }
        // `path` ends at the LCA; append the b-side, skipping its LCA copy.
        self.stack.pop();
        while let Some(x) = self.stack.pop() {
            self.path.push(x);
        }
        &self.path
    }

    /// Pivot: insert non-tree edge `{u, v}` and remove tree edge `{w, z}`,
    /// which must lie on the fundamental cycle of `{u, v}`.
    ///
    /// The component cut off by removing `{w, z}` (the one *not* containing
    /// the root) is re-rooted at whichever of `u`/`v` lies inside it and
    /// re-hung under the other endpoint — the parent re-orientation the
    /// protocol's `Remove`/`Back`/`Reverse` messages perform, applied
    /// atomically. Only that component is relabelled.
    ///
    /// # Panics
    /// Panics if `{w, z}` is not a tree edge or `{u, v}` already is one.
    pub fn pivot(&mut self, (u, v): (NodeId, NodeId), (w, z): (NodeId, NodeId)) {
        assert!(
            self.is_tree_edge(w, z),
            "pivot: {{{w},{z}}} is not a tree edge"
        );
        assert!(
            !self.is_tree_edge(u, v),
            "pivot: {{{u},{v}}} is already a tree edge"
        );
        // Child side of the removed edge roots the detached component B.
        let b_root = if self.parent[w as usize] == z { w } else { z };
        self.unlink_child(self.parent[b_root as usize], b_root);
        self.parent[b_root as usize] = b_root;
        // The inserted endpoint inside B reaches b_root by parent walks.
        let (inside, outside) = if self.reaches(u, b_root) {
            (u, v)
        } else {
            debug_assert!(self.reaches(v, b_root), "pivot: edge not on cycle");
            (v, u)
        };
        // Re-root B at `inside`: reverse the parent chain inside → b_root.
        // Two passes — unlink every chain link while the sibling pointers
        // still describe the old child lists, then relink in reverse
        // (link_child rewrites the sibling data the unlink pass consumes).
        let mut cur = inside;
        while cur != b_root {
            let p = self.parent[cur as usize];
            self.unlink_child(p, cur);
            cur = p;
        }
        let mut prev = inside;
        let mut cur = self.parent[inside as usize];
        while prev != b_root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = prev;
            self.link_child(prev, cur);
            prev = cur;
            cur = next;
        }
        // Hang B under `outside` and fix the bookkeeping.
        self.parent[inside as usize] = outside;
        self.link_child(outside, inside);
        self.deg[w as usize] -= 1;
        self.deg[z as usize] -= 1;
        self.deg[u as usize] += 1;
        self.deg[v as usize] += 1;
        let base = self.depth[outside as usize] + 1;
        self.relabel_depths(inside, base);
    }

    /// Whether following parents from `x` reaches `stop` before the tree
    /// root.
    fn reaches(&self, mut x: NodeId, stop: NodeId) -> bool {
        loop {
            if x == stop {
                return true;
            }
            let p = self.parent[x as usize];
            if p == x {
                return false;
            }
            x = p;
        }
    }

    /// Push `c` onto `p`'s child list (O(1)).
    fn link_child(&mut self, p: NodeId, c: NodeId) {
        let head = self.first_child[p as usize];
        self.next_sib[c as usize] = head;
        self.prev_sib[c as usize] = NONE;
        if head != NONE {
            self.prev_sib[head as usize] = c;
        }
        self.first_child[p as usize] = c;
    }

    /// Remove `c` from `p`'s child list (O(1) via the sibling links).
    fn unlink_child(&mut self, p: NodeId, c: NodeId) {
        let prev = self.prev_sib[c as usize];
        let next = self.next_sib[c as usize];
        if prev == NONE {
            self.first_child[p as usize] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sib[next as usize] = prev;
        }
        self.next_sib[c as usize] = NONE;
        self.prev_sib[c as usize] = NONE;
    }

    /// Set `depth[top] = base` and relabel its subtree via the threading.
    /// Returns the subtree's size.
    fn relabel_depths(&mut self, top: NodeId, base: u32) -> usize {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        self.depth[top as usize] = base;
        stack.push(top);
        let mut size = 0;
        while let Some(x) = stack.pop() {
            size += 1;
            let d = self.depth[x as usize] + 1;
            let mut c = self.first_child[x as usize];
            while c != NONE {
                self.depth[c as usize] = d;
                stack.push(c);
                c = self.next_sib[c as usize];
            }
        }
        self.stack = stack;
        size
    }

    /// Re-validate the parent vector against the host graph (used by tests
    /// and after pivot sequences).
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        SpanningTree::from_parents(g, self.root, self.parent.clone()).map(|_| ())
    }
}

/// `Empty` or `NodeOutOfRange` unless `root` is a node of `g`.
fn check_root(g: &Graph, root: NodeId) -> Result<(), GraphError> {
    if g.n() == 0 {
        return Err(GraphError::Empty);
    }
    if root as usize >= g.n() {
        return Err(GraphError::NodeOutOfRange {
            node: root,
            n: g.n() as u32,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gadgets, random, structured};
    use crate::graph::graph_from_edges;

    /// 0-1-2-3 path plus chord {0,3}: a 4-cycle.
    fn square() -> Graph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    /// Walk the child threading from the root: it must visit every node
    /// once, thread each child under its parent with consistent sibling
    /// links, and agree with the cached depths and degrees.
    fn audit(t: &SpanningTree) {
        let n = t.n();
        let mut seen = vec![false; n];
        let mut deg = vec![0u32; n];
        let mut stack = vec![t.root()];
        while let Some(x) = stack.pop() {
            assert!(!seen[x as usize], "threading revisits {x}");
            seen[x as usize] = true;
            let (mut prev, mut c) = (NONE, t.first_child[x as usize]);
            while c != NONE {
                assert_eq!(t.parent(c), x, "{c} threaded under {x}");
                assert_eq!(t.prev_sib[c as usize], prev, "prev link of {c}");
                assert_eq!(t.depth(c), t.depth(x) + 1, "depth of {c}");
                deg[x as usize] += 1;
                deg[c as usize] += 1;
                stack.push(c);
                (prev, c) = (c, t.next_sib[c as usize]);
            }
        }
        assert!(seen.iter().all(|&s| s), "threading does not span");
        assert_eq!(t.degrees(), deg, "degree cache out of sync");
    }

    /// The tree path by naive ancestor lists: `u` up to the first common
    /// ancestor, then down to `v`.
    fn lca_path(t: &SpanningTree, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let ancestors = |mut x: NodeId| {
            let mut up = vec![x];
            while t.parent(x) != x {
                x = t.parent(x);
                up.push(x);
            }
            up
        };
        let (up_u, mut up_v) = (ancestors(u), ancestors(v));
        let i = up_u.iter().position(|x| up_v.contains(x)).unwrap();
        let j = up_v.iter().position(|&x| x == up_u[i]).unwrap();
        up_v.truncate(j);
        up_u[..=i]
            .iter()
            .chain(up_v.iter().rev())
            .copied()
            .collect()
    }

    /// Pivot every non-tree edge of `g` in ascending order (dropping the
    /// first edge of its cycle) until `max` pivots, auditing after each.
    fn pivot_chain(g: &Graph, t: &mut SpanningTree, max: usize) -> usize {
        let mut pivots = 0;
        for &(u, v) in g.edges() {
            if pivots == max {
                break;
            }
            if t.is_tree_edge(u, v) {
                continue;
            }
            let path = t.tree_path(u, v);
            let (w, z) = (path[0], path[1]);
            t.pivot((u, v), (w, z));
            audit(t);
            t.validate(g).unwrap();
            pivots += 1;
        }
        pivots
    }

    #[test]
    fn from_bfs_builds_valid_tree() {
        let g = square();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.root(), 0);
        t.validate(&g).unwrap();
        assert_eq!(t.edge_set().len(), 3);
        assert_eq!(t.depth(0), 0);
    }

    #[test]
    fn grid_bfs_build_matches_reference_tree() {
        // On a grid the BFS tree's depths are the BFS distances, and the
        // threading describes the parent vector.
        let g = structured::grid(4, 4).unwrap();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.parents(), crate::traversal::bfs_tree(&g, 0));
        let dist = crate::traversal::bfs_distances(&g, 0);
        for v in g.nodes() {
            assert_eq!(t.depth(v), dist[v as usize], "depth of {v}");
        }
        audit(&t);
        t.validate(&g).unwrap();
    }

    #[test]
    fn from_parents_rejects_cycles() {
        let g = square();
        // Root 0 is fine but 2 and 3 parent each other (both edges exist in
        // the square), forming a 2-cycle unreachable from the root.
        let err = SpanningTree::from_parents(&g, 0, vec![0, 2, 3, 2]).unwrap_err();
        assert_eq!(err, GraphError::NotASpanningTree("parent cycle"));
    }

    #[test]
    fn from_parents_validates_a_deep_path_in_linear_time() {
        // A 100 000-node path rooted at its far end: one ancestor chain of
        // depth n − 1, quadratic for a walk that rescans its chain per step.
        let n = 100_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let parent: Vec<u32> = (0..n).map(|v| (v + 1).min(n - 1)).collect();
        let t = SpanningTree::from_parents(&g, n - 1, parent).unwrap();
        assert_eq!(t.depth(0), n - 1);
        assert_eq!(t.depth(n - 1), 0);
    }

    #[test]
    fn from_parents_rejects_a_long_unreachable_cycle() {
        // Ring 0..n with root 0; nodes 1..n parent their successor and
        // n − 1 wraps to 1, so the cycle 1 → 2 → … → n − 1 → 1 never
        // reaches the root.
        let n = 5_000u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .map(|v| (v, (v + 1) % n))
            .chain([(1, n - 1)])
            .collect();
        let g = graph_from_edges(n as usize, &edges);
        let parent: Vec<u32> = (0..n)
            .map(|v| match v {
                0 => 0,
                v if v == n - 1 => 1,
                v => v + 1,
            })
            .collect();
        let err = SpanningTree::from_parents(&g, 0, parent).unwrap_err();
        assert_eq!(err, GraphError::NotASpanningTree("parent cycle"));
    }

    #[test]
    fn from_parents_rejects_non_graph_edges() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let err = SpanningTree::from_parents(&g, 0, vec![0, 0, 0]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NotASpanningTree("parent edge not in graph")
        );
    }

    #[test]
    fn from_parents_rejects_bad_root() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert!(SpanningTree::from_parents(&g, 0, vec![1, 0]).is_err()); // parent[root] != root
        assert!(SpanningTree::from_parents(&g, 5, vec![0, 0]).is_err());
    }

    #[test]
    fn degrees_and_max_degree() {
        // Star with center 0.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.degrees(), [3, 1, 1, 1]);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.max_degree_nodes(), vec![0]);
        assert_eq!(t.deg(0), 3);
        assert_eq!(t.deg(2), 1);
    }

    #[test]
    fn tree_path_through_lca() {
        // Path 0-1-2-3 rooted at 0.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.tree_path(3, 0), [3, 2, 1, 0]);
        assert_eq!(t.tree_path(0, 3), [0, 1, 2, 3]);
        assert_eq!(t.tree_path(2, 2), [2]);
    }

    #[test]
    fn tree_path_between_siblings() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.tree_path(3, 4), [3, 1, 0, 2, 4]);
    }

    #[test]
    fn tree_path_is_the_fundamental_cycle() {
        // The one non-tree edge of a cycle's BFS tree closes the full ring.
        let g = structured::cycle(9).unwrap();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        let (u, v) = g
            .edges()
            .iter()
            .copied()
            .find(|&(u, v)| !t.is_tree_edge(u, v))
            .unwrap();
        let ring = t.tree_path(u, v).to_vec();
        assert_eq!(ring.len(), 9);
        assert_eq!((ring[0], ring[8]), (u, v));
        assert!(ring.windows(2).all(|e| t.is_tree_edge(e[0], e[1])));
        // Every tree path equals the naive LCA path, before and after a
        // chain of pivots.
        let g = random::gnp_connected(12, 0.4, 7);
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        for round in 0..2 {
            for u in g.nodes() {
                for v in g.nodes() {
                    let want = lca_path(&t, u, v);
                    assert_eq!(t.tree_path(u, v), want, "round {round}: {u}..{v}");
                }
            }
            pivot_chain(&g, &mut t, 8);
        }
    }

    #[test]
    fn fundamental_cycle_of_chord() {
        let g = square();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        // BFS from 0 visits 1 and 3 at depth 1; tree edges {0,1},{0,3},{1,2}.
        assert!(!t.is_tree_edge(2, 3));
        assert_eq!(t.tree_path(2, 3), [2, 1, 0, 3]);
    }

    #[test]
    fn swap_keeps_spanning_tree_and_changes_edges() {
        let g = square();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        let before = t.edge_set();
        // Non-tree edge is {2,3}; remove {0,3} from its cycle.
        assert!(!t.is_tree_edge(2, 3));
        t.pivot((2, 3), (0, 3));
        t.validate(&g).unwrap();
        audit(&t);
        let after = t.edge_set();
        assert_ne!(before, after);
        assert!(t.is_tree_edge(2, 3));
        assert!(!t.is_tree_edge(0, 3));
    }

    #[test]
    fn swap_updates_depths() {
        // Path 0-1-2-3-4 with chord {0,4}.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        // BFS from 0 adopts both 1 and 4 as children; non-tree edge is {2,3}.
        assert!(!t.is_tree_edge(2, 3));
        t.pivot((2, 3), (3, 4));
        t.validate(&g).unwrap();
        // 3 now hangs off 2: depth(3) = depth(2) + 1 = 3.
        assert_eq!(t.depth(3), t.depth(2) + 1);
        assert_eq!(t.depth(3), 3);
        assert_eq!((t.deg(3), t.deg(4), t.deg(2)), (1, 1, 2));
    }

    #[test]
    #[should_panic(expected = "not a tree edge")]
    fn swap_rejects_non_tree_removal() {
        let g = square();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        t.pivot((2, 3), (2, 3));
    }

    #[test]
    fn pivot_chain_matches_fresh_rebuild() {
        // Up to 8 pivots, each dropping the cycle edge entering the path's
        // second vertex; the incrementally kept depths and degrees must
        // equal a validated rebuild of the same parent vector.
        let g = random::gnp_connected(12, 0.4, 7);
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        let mut pivots = 0;
        for &(u, v) in g.edges() {
            if pivots == 8 {
                break;
            }
            if t.is_tree_edge(u, v) {
                continue;
            }
            let path = t.tree_path(u, v);
            let (w, z) = (path[0], path[1]);
            let mut expected = t.edge_set();
            expected.retain(|&e| e != (w.min(z), w.max(z)));
            expected.push((u.min(v), u.max(v)));
            expected.sort_unstable();
            t.pivot((u, v), (w, z));
            t.validate(&g).unwrap();
            assert_eq!(t.edge_set(), expected, "after pivot {u}-{v}");
            let fresh = SpanningTree::from_parents(&g, t.root(), t.parents().to_vec()).unwrap();
            for x in g.nodes() {
                assert_eq!(t.depth(x), fresh.depth(x), "depth of {x}");
                assert_eq!(t.deg(x), fresh.deg(x), "degree of {x}");
            }
            audit(&t);
            pivots += 1;
        }
        assert!(pivots >= 4, "instance too sparse to exercise pivots");
    }

    #[test]
    fn child_threading_spans_the_tree() {
        let g = structured::star_with_ring(8).unwrap();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        audit(&t);
        assert!(pivot_chain(&g, &mut t, 8) >= 4, "too few pivots exercised");
    }

    #[test]
    fn equality_ignores_child_order() {
        // Triangle, tree 0 ← 1 ← 2. Two pivot sequences reach the star at
        // 0, linking 0's children in opposite orders.
        let g = graph_from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let start = SpanningTree::from_parents(&g, 0, vec![0, 0, 1]).unwrap();
        let mut a = start.clone();
        a.pivot((0, 2), (1, 2));
        let mut b = start;
        b.pivot((0, 2), (0, 1));
        b.pivot((0, 1), (1, 2));
        assert_eq!(a.parents(), [0, 0, 0]);
        assert_eq!(b.parents(), [0, 0, 0]);
        assert_ne!(a.first_child, b.first_child, "child order must differ");
        audit(&a);
        audit(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn single_node_tree() {
        let g = crate::graph::GraphBuilder::new(1).build();
        let t = SpanningTree::from_parents(&g, 0, vec![0]).unwrap();
        assert_eq!(t.max_degree(), 0);
        assert!(t.edge_set().is_empty());
    }

    #[test]
    fn rooted_constructors_reject_out_of_range_roots() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let out = GraphError::NodeOutOfRange { node: 3, n: 3 };
        assert_eq!(SpanningTree::from_bfs(&g, 3), Err(out.clone()));
        assert_eq!(SpanningTree::from_dfs(&g, 3), Err(out));
        let empty = crate::graph::GraphBuilder::new(0).build();
        assert_eq!(SpanningTree::from_bfs(&empty, 0), Err(GraphError::Empty));
        assert_eq!(SpanningTree::from_dfs(&empty, 0), Err(GraphError::Empty));
        assert_eq!(SpanningTree::random(&empty, 0), Err(GraphError::Empty));
        assert_eq!(
            SpanningTree::greedy_min_degree(&empty, 0),
            Err(GraphError::Empty)
        );
    }

    /// FNV-1a over the little-endian bytes of a parent vector.
    fn fnv1a(parents: &[NodeId]) -> u64 {
        parents
            .iter()
            .flat_map(|p| p.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn naive_tree_parent_vectors_are_pinned() {
        // Fingerprints of the DFS (roots 0 and 5), random and greedy (seed
        // 9) parent vectors: a change to the RNG draws or the traversal
        // order moves them, and with them the start trees of T5 and the
        // tests.
        let pins = [
            (
                random::gnp_connected(40, 0.15, 7),
                [
                    0x1b2b_bc67_eb0d_4ab7,
                    0xcdf8_53e1_1e5a_c781,
                    0x9289_5b18_ac72_c380,
                    0x0569_ecf1_919f_cf43,
                ],
            ),
            (
                gadgets::hamiltonian_with_chords(30, 40, 3),
                [
                    0x4a81_fc36_16f5_6fbb,
                    0xc1a9_b693_2783_22cc,
                    0x536d_12fc_f924_169f,
                    0xef9d_bdcc_4db6_ab33,
                ],
            ),
        ];
        for (g, [dfs0, dfs5, random9, greedy9]) in pins {
            let fp = |t: SpanningTree| fnv1a(t.parents());
            assert_eq!(fp(SpanningTree::from_dfs(&g, 0).unwrap()), dfs0);
            assert_eq!(fp(SpanningTree::from_dfs(&g, 5).unwrap()), dfs5);
            assert_eq!(fp(SpanningTree::random(&g, 9).unwrap()), random9);
            assert_eq!(fp(SpanningTree::greedy_min_degree(&g, 9).unwrap()), greedy9);
        }
    }

    #[test]
    fn bfs_tree_on_star_ring_has_hub_degree() {
        let g = structured::star_with_ring(10).unwrap();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        // BFS from the hub keeps all spokes: the pathological case.
        assert_eq!(t.max_degree(), 9);
    }

    #[test]
    fn random_tree_is_valid_and_seeded() {
        let g = gadgets::hamiltonian_with_chords(20, 25, 3);
        let a = SpanningTree::random(&g, 5).unwrap();
        let b = SpanningTree::random(&g, 5).unwrap();
        a.validate(&g).unwrap();
        assert_eq!(a.edge_set(), b.edge_set());
        let c = SpanningTree::random(&g, 6).unwrap();
        assert_ne!(a.edge_set(), c.edge_set());
    }

    #[test]
    fn dfs_tree_on_complete_graph_is_a_path() {
        let g = structured::complete(8).unwrap();
        let t = SpanningTree::from_dfs(&g, 0).unwrap();
        assert_eq!(t.max_degree(), 2);
        t.validate(&g).unwrap();
    }

    #[test]
    fn greedy_tree_beats_bfs_on_star_ring() {
        let g = structured::star_with_ring(12).unwrap();
        let bfs = SpanningTree::from_bfs(&g, 0).unwrap();
        let greedy = SpanningTree::greedy_min_degree(&g, 1).unwrap();
        greedy.validate(&g).unwrap();
        assert!(greedy.max_degree() < bfs.max_degree());
        assert!(greedy.max_degree() <= 3);
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(SpanningTree::random(&g, 0).is_err());
        assert!(SpanningTree::from_dfs(&g, 0).is_err());
        assert!(SpanningTree::greedy_min_degree(&g, 0).is_err());
    }

    #[test]
    fn all_baselines_span_the_same_node_set() {
        let g = structured::grid(4, 4).unwrap();
        for t in [
            SpanningTree::from_bfs(&g, 0).unwrap(),
            SpanningTree::random(&g, 2).unwrap(),
            SpanningTree::from_dfs(&g, 3).unwrap(),
            SpanningTree::greedy_min_degree(&g, 4).unwrap(),
        ] {
            t.validate(&g).unwrap();
            assert_eq!(t.edge_set().len(), 15);
        }
    }
}
