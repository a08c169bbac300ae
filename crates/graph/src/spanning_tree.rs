//! Rooted spanning trees: validation, degrees, tree paths, fundamental
//! cycles and edge swaps.
//!
//! This is the *centralized* view of the structure the distributed protocol
//! maintains with per-node `parent` pointers. The oracle extracts the
//! protocol's global state into a [`SpanningTree`] to check legitimacy, and
//! the baselines (Fürer–Raghavachari, local search) operate on it directly.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// A spanning tree of a host [`Graph`], stored as a rooted parent vector.
///
/// Invariants (enforced by [`SpanningTree::from_parents`]):
/// * `parent[root] == root`, every other node's parent edge exists in the
///   host graph,
/// * following parents from any node reaches `root` (no cycles),
/// * consequently the tree spans all `n` nodes with `n − 1` edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<NodeId>,
    /// Depth of each node (root = 0); kept consistent by all mutators.
    depth: Vec<u32>,
}

impl SpanningTree {
    /// Validate a parent vector against its host graph.
    pub fn from_parents(g: &Graph, root: NodeId, parent: Vec<NodeId>) -> Result<Self, GraphError> {
        let n = g.n();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if parent.len() != n {
            return Err(GraphError::NotASpanningTree("parent vector length != n"));
        }
        if root as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: root,
                n: n as u32,
            });
        }
        if parent[root as usize] != root {
            return Err(GraphError::NotASpanningTree("parent[root] != root"));
        }
        for v in g.nodes() {
            let p = parent[v as usize];
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
        }
        // Depth computation doubles as acyclicity/reachability check. The
        // nodes of the chain being walked hold `ON_CHAIN`, so meeting one
        // again is a cycle: O(1) per step, O(n) in total.
        const UNKNOWN: u32 = u32::MAX;
        const ON_CHAIN: u32 = u32::MAX - 1;
        let mut depth = vec![UNKNOWN; n];
        depth[root as usize] = 0;
        let mut chain = Vec::new();
        for v in g.nodes() {
            if depth[v as usize] != UNKNOWN {
                continue;
            }
            // Walk up until a node of known depth; record the chain.
            chain.clear();
            let mut x = v;
            while depth[x as usize] == UNKNOWN {
                depth[x as usize] = ON_CHAIN;
                chain.push(x);
                x = parent[x as usize];
            }
            if depth[x as usize] == ON_CHAIN {
                return Err(GraphError::NotASpanningTree("parent cycle"));
            }
            let mut d = depth[x as usize];
            for &c in chain.iter().rev() {
                d += 1;
                depth[c as usize] = d;
            }
        }
        Ok(SpanningTree {
            root,
            parent,
            depth,
        })
    }

    /// Build from a BFS parent vector as returned by
    /// [`crate::traversal::bfs_tree`].
    pub fn from_bfs(g: &Graph, root: NodeId) -> Result<Self, GraphError> {
        let parent = crate::traversal::bfs_tree(g, root);
        if parent.contains(&u32::MAX) {
            return Err(GraphError::Disconnected);
        }
        Self::from_parents(g, root, parent)
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

    /// Whether `{u, v}` is a tree edge.
    pub fn is_tree_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (self.parent[u as usize] == v || self.parent[v as usize] == u)
    }

    /// Tree degree of each node.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.parent.len()];
        for v in 0..self.parent.len() as u32 {
            let p = self.parent[v as usize];
            if p != v {
                deg[v as usize] += 1;
                deg[p as usize] += 1;
            }
        }
        deg
    }

    /// Tree degree of one node. O(1) amortized callers should prefer
    /// [`SpanningTree::degrees`].
    pub fn degree_of(&self, v: NodeId) -> u32 {
        let mut d = 0;
        for u in 0..self.parent.len() as u32 {
            if u != v && self.parent[u as usize] == v {
                d += 1;
            }
        }
        if self.parent[v as usize] != v {
            d += 1;
        }
        d
    }

    /// `deg(T) = max_v deg_T(v)` — the quantity the paper minimizes.
    pub fn max_degree(&self) -> u32 {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Nodes of maximum tree degree (the set `S` in FR Theorem 1).
    pub fn max_degree_nodes(&self) -> Vec<NodeId> {
        let deg = self.degrees();
        let k = *deg.iter().max().unwrap_or(&0);
        deg.iter()
            .enumerate()
            .filter(|&(_, &d)| d == k)
            .map(|(i, _)| i as NodeId)
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

    /// Children of each node (adjacency of the rooted tree, minus parents).
    pub fn children_lists(&self) -> Vec<Vec<NodeId>> {
        let mut ch: Vec<Vec<NodeId>> = vec![Vec::new(); self.parent.len()];
        for v in 0..self.parent.len() as u32 {
            let p = self.parent[v as usize];
            if p != v {
                ch[p as usize].push(v);
            }
        }
        ch
    }

    /// Unique tree path from `u` to `v` inclusive, via the lowest common
    /// ancestor. O(depth).
    pub fn tree_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let (mut a, mut b) = (u, v);
        let mut up_a = vec![a];
        let mut up_b = vec![b];
        while self.depth[a as usize] > self.depth[b as usize] {
            a = self.parent[a as usize];
            up_a.push(a);
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            b = self.parent[b as usize];
            up_b.push(b);
        }
        while a != b {
            a = self.parent[a as usize];
            up_a.push(a);
            b = self.parent[b as usize];
            up_b.push(b);
        }
        // up_a ends at the LCA; append up_b reversed, skipping the LCA.
        up_b.pop();
        up_a.extend(up_b.into_iter().rev());
        up_a
    }

    /// The fundamental cycle of non-tree edge `{u, v}`: the tree path
    /// `u..=v`. Closing it with `{u, v}` yields the cycle `C_e` of the paper.
    ///
    /// # Panics
    /// Panics (in debug) if `{u, v}` is a tree edge.
    pub fn fundamental_cycle_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        debug_assert!(!self.is_tree_edge(u, v), "{{u,v}} must be a non-tree edge");
        self.tree_path(u, v)
    }

    /// Swap non-tree edge `{u, v}` in and tree edge `{w, z}` out.
    ///
    /// `{w, z}` must lie on the fundamental cycle of `{u, v}`. The component
    /// cut off by removing `{w, z}` (the one *not* containing the root) is
    /// re-rooted at whichever of `u`/`v` lies inside it — exactly the parent
    /// re-orientation the protocol's `Remove`/`Back`/`Reverse` messages
    /// perform, applied atomically. Depths are recomputed for the re-hung
    /// component.
    pub fn swap(&mut self, (u, v): (NodeId, NodeId), (w, z): (NodeId, NodeId)) {
        assert!(
            self.is_tree_edge(w, z),
            "swap: {{{w},{z}}} is not a tree edge"
        );
        assert!(
            !self.is_tree_edge(u, v),
            "swap: {{{u},{v}}} is already a tree edge"
        );
        // Child side of the removed edge = root of the cut component B.
        let b_root = if self.parent[w as usize] == z { w } else { z };
        debug_assert!(
            self.parent[b_root as usize] == if b_root == w { z } else { w },
            "swap: {{{w},{z}}} endpoints are not parent-linked"
        );
        // Detach B.
        self.parent[b_root as usize] = b_root;
        // Which endpoint of the inserted edge is inside B?
        let (inside, outside) = if self.reaches(u, b_root) {
            (u, v)
        } else {
            debug_assert!(self.reaches(v, b_root), "swap edge not on the cycle");
            (v, u)
        };
        // Re-root B at `inside`: reverse parents along inside -> b_root.
        let mut prev = inside;
        let mut cur = self.parent[inside as usize];
        self.parent[inside as usize] = outside;
        while prev != b_root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = prev;
            prev = cur;
            cur = next;
        }
        self.recompute_depths_from(inside);
    }

    /// Whether following parents from `x` reaches `stop` before the tree
    /// root. Helper for [`SpanningTree::swap`].
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

    /// Recompute `depth` for the subtree hanging at `top` (after a re-hang).
    fn recompute_depths_from(&mut self, top: NodeId) {
        let ch = self.children_lists();
        let base = if self.parent[top as usize] == top {
            0
        } else {
            self.depth[self.parent[top as usize] as usize] + 1
        };
        let mut stack = vec![(top, base)];
        while let Some((v, d)) = stack.pop() {
            self.depth[v as usize] = d;
            for &c in &ch[v as usize] {
                stack.push((c, d + 1));
            }
        }
    }

    /// Re-validate the invariants against the host graph (used by tests and
    /// after swap sequences).
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        SpanningTree::from_parents(g, self.root, self.parent.clone()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    /// 0-1-2-3 path plus chord {0,3}: a 4-cycle.
    fn square() -> Graph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
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
        assert_eq!(t.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.max_degree_nodes(), vec![0]);
        assert_eq!(t.degree_of(0), 3);
        assert_eq!(t.degree_of(2), 1);
    }

    #[test]
    fn tree_path_through_lca() {
        // Path 0-1-2-3 rooted at 0.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.tree_path(3, 0), vec![3, 2, 1, 0]);
        assert_eq!(t.tree_path(0, 3), vec![0, 1, 2, 3]);
        assert_eq!(t.tree_path(2, 2), vec![2]);
    }

    #[test]
    fn tree_path_between_siblings() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(t.tree_path(3, 4), vec![3, 1, 0, 2, 4]);
    }

    #[test]
    fn fundamental_cycle_of_chord() {
        let g = square();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        // BFS from 0 visits 1 and 3 at depth 1; tree edges {0,1},{0,3},{1,2}.
        let path = t.fundamental_cycle_path(2, 3);
        assert_eq!(path.first(), Some(&2));
        assert_eq!(path.last(), Some(&3));
        assert!(path.len() >= 3);
    }

    #[test]
    fn swap_keeps_spanning_tree_and_changes_edges() {
        let g = square();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        let before = t.edge_set();
        // Non-tree edge is {2,3}; remove {0,3} from its cycle.
        assert!(!t.is_tree_edge(2, 3));
        t.swap((2, 3), (0, 3));
        t.validate(&g).unwrap();
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
        t.swap((2, 3), (3, 4));
        t.validate(&g).unwrap();
        // 3 now hangs off 2: depth(3) = depth(2) + 1 = 3.
        assert_eq!(t.depth(3), t.depth(2) + 1);
        assert_eq!(t.depth(3), 3);
    }

    #[test]
    #[should_panic(expected = "not a tree edge")]
    fn swap_rejects_non_tree_removal() {
        let g = square();
        let mut t = SpanningTree::from_bfs(&g, 0).unwrap();
        t.swap((2, 3), (2, 3));
    }

    #[test]
    fn single_node_tree() {
        let g = crate::graph::GraphBuilder::new(1).build();
        let t = SpanningTree::from_parents(&g, 0, vec![0]).unwrap();
        assert_eq!(t.max_degree(), 0);
        assert!(t.edge_set().is_empty());
    }
}
