//! Immutable simple undirected graph in CSR (compressed sparse row) form.
//!
//! The representation is tuned for the access patterns of the protocol
//! simulator and the solvers:
//!
//! * `neighbors(v)` returns a sorted slice (the protocol iterates a node's
//!   neighborhood on every `InfoMsg`) — one contiguous window of a single
//!   flat array, not a per-node heap allocation,
//! * a canonical edge list `edges()` with stable [`EdgeId`]s (the degree
//!   reduction module is driven by non-tree edges),
//! * O(log δ) adjacency tests via binary search,
//! * **directed-adjacency slot ids** ([`Graph::slot_of`]): every directed
//!   edge `(v, w)` owns the index of `w` inside the flat adjacency array.
//!   Slot ids are dense (`0..2m`), stable for the lifetime of the graph,
//!   and ordered lexicographically by `(v, w)` — the message fabric in
//!   `ssmdst-sim` addresses its FIFO channels by slot (`channel[slot]`)
//!   instead of through an ordered map.

use crate::error::GraphError;
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
#[expect(
    clippy::disallowed_types,
    reason = "membership-only duplicate probe in GraphBuilder; never iterated"
)]
use std::collections::HashSet;

/// Dense node identifier, `0..n`.
pub type NodeId = u32;

/// Index into the canonical edge list of a [`Graph`].
pub type EdgeId = u32;

/// A simple undirected graph.
///
/// Construct through [`GraphBuilder`], [`Graph::from_sorted_rows`] or the
/// [`crate::generators`] module.
/// Instances are immutable: the protocol treats the topology as static, as
/// the paper does ("we consider a static topology").
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct Graph {
    n: u32,
    /// CSR row offsets: node `v`'s neighbors (and directed slots) live at
    /// `adj[row_ptr[v] .. row_ptr[v + 1]]`. Length `n + 1`.
    row_ptr: Vec<u32>,
    /// Flat sorted adjacency: the concatenation of every node's sorted
    /// neighbor list. An index into this array is a directed slot id.
    adj: Vec<NodeId>,
    /// Canonical edge list with `u < v`, sorted lexicographically.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node identifiers.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Sorted neighbors of `v` — a contiguous CSR row.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.row_ptr[v as usize] as usize..self.row_ptr[v as usize + 1] as usize]
    }

    /// Degree of `v` in the graph (not in any tree).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]) as usize
    }

    /// Maximum degree δ of the network.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree of the network.
    pub fn min_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge. O(log δ).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && u < self.n && self.neighbors(u).binary_search(&v).is_ok()
    }

    // ------------------------------------------------------------------
    // Directed-adjacency slots (the message-fabric addressing scheme)
    // ------------------------------------------------------------------

    /// Number of directed-adjacency slots (`2m`). Slot ids are dense in
    /// `0..directed_slots()` and lexicographic in `(source, target)`.
    #[inline]
    pub fn directed_slots(&self) -> usize {
        self.adj.len()
    }

    /// The directed slot id of `(v, w)` if `{v, w}` is an edge: CSR row
    /// offset plus the binary-search position of `w` in `v`'s row. O(log δ).
    #[inline]
    pub fn slot_of(&self, v: NodeId, w: NodeId) -> Option<u32> {
        if v >= self.n {
            return None;
        }
        self.neighbors(v)
            .binary_search(&w)
            .ok()
            .map(|i| self.row_ptr[v as usize] + i as u32)
    }

    /// The first directed slot owned by `v`; `v`'s slots are the contiguous
    /// range `row_start(v) .. row_start(v) + degree(v)`, aligned with
    /// [`Graph::neighbors`].
    #[inline]
    pub fn row_start(&self, v: NodeId) -> u32 {
        self.row_ptr[v as usize]
    }

    /// Endpoints `(source, target)` of directed slot `s`. The source is
    /// recovered by binary search over the row offsets (O(log n)); the hot
    /// paths in the simulator keep their own O(1) slot tables instead.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn slot_endpoints(&self, s: u32) -> (NodeId, NodeId) {
        let target = self.adj[s as usize];
        let source = self.row_ptr.partition_point(|&off| off <= s) - 1;
        (source as NodeId, target)
    }

    /// Canonical edge list: pairs `(u, v)` with `u < v`, lexicographically
    /// sorted. Indexing this slice by [`EdgeId`] is stable for the lifetime
    /// of the graph.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The [`EdgeId`] of `{u, v}` if present. O(log m).
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.binary_search(&key).ok().map(|i| i as EdgeId)
    }

    /// Endpoints of edge `e` as `(u, v)` with `u < v`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e as usize]
    }

    /// Sum of degrees == 2m; sanity invariant used by property tests.
    pub fn degree_sum(&self) -> usize {
        self.adj.len()
    }

    /// Assemble a graph straight from its adjacency rows, one per node in
    /// id order, in O(n + m) with no hashing or sorting.
    ///
    /// The rows must already be a simple undirected graph's CSR: each row
    /// strictly ascending (so deduplicated), loop-free, in range, and
    /// symmetric (`w` in row `v` iff `v` in row `w`). Under that contract
    /// the result is `==` to what [`GraphBuilder`] builds from the same
    /// edges, because the canonical edge list is the upper half of the
    /// rows read in order. Checked builds verify the contract.
    pub fn from_sorted_rows<R>(rows: impl IntoIterator<Item = R>) -> Graph
    where
        R: IntoIterator<Item = NodeId>,
    {
        let mut row_ptr = vec![0u32];
        let mut adj: Vec<NodeId> = Vec::new();
        let mut edges = Vec::new();
        for (v, row) in rows.into_iter().enumerate() {
            let v = v as NodeId;
            for w in row {
                if w > v {
                    edges.push((v, w));
                }
                adj.push(w);
            }
            row_ptr.push(adj.len() as u32);
        }
        // The offsets above are u32: a wrapped one would corrupt every slot
        // address, so an oversized graph must fail loudly in every build.
        assert!(
            adj.len() <= u32::MAX as usize,
            "2m overflows the u32 CSR offsets"
        );
        let g = Graph {
            n: (row_ptr.len() - 1) as u32,
            row_ptr,
            adj,
            edges,
        };
        debug_assert!(
            g.nodes().all(|v| {
                let row = g.neighbors(v);
                row.windows(2).all(|w| w[0] < w[1])
                    && row.iter().all(|&w| w != v && g.has_edge(w, v))
            }),
            "from_sorted_rows: rows are not a sorted, loop-free, symmetric CSR"
        );
        g
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use ssmdst_graph::GraphBuilder;
/// let g = GraphBuilder::new(4)
///     .edge(0, 1).unwrap()
///     .edge(1, 2).unwrap()
///     .edge(2, 3).unwrap()
///     .edge(3, 0).unwrap()
///     .build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert!(g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(NodeId, NodeId)>,
    /// O(1) duplicate probe over canonical keys (`u < v` packed into a
    /// `u64`), so randomized generators can stage E edges in O(E) expected
    /// time instead of the O(E²) a per-insert linear scan would cost.
    #[expect(
        clippy::disallowed_types,
        reason = "probed with `contains`/`insert` only; iteration order can't leak"
    )]
    staged: HashSet<u64>,
}

/// Canonical `u64` key for the undirected edge `{u, v}`.
#[inline]
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

impl GraphBuilder {
    /// Start a graph on `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large");
        GraphBuilder {
            n: n as u32,
            edges: Vec::new(),
            #[expect(
                clippy::disallowed_types,
                reason = "same membership-only set as the field above"
            )]
            staged: HashSet::new(),
        }
    }

    /// Add the undirected edge `{u, v}`; rejects self-loops, duplicates and
    /// out-of-range endpoints. Consumes and returns `self` for chaining.
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Result<Self, GraphError> {
        self.add_edge(u, v)?;
        Ok(self)
    }

    /// Add an edge through a mutable reference (generator-friendly form).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for &x in &[u, v] {
            if x >= self.n {
                return Err(GraphError::NodeOutOfRange { node: x, n: self.n });
            }
        }
        let key = if u < v { (u, v) } else { (v, u) };
        // Precise eager duplicate errors stay, but at O(1) expected cost: a
        // hash probe replaces the old linear `edges.contains` scan that made
        // randomized-generator builds O(E²). `build` still sorts + dedups as
        // a belt-and-suspenders pass, so the canonical edge list is correct
        // even if this probe is ever bypassed.
        if !self.staged.insert(edge_key(u, v)) {
            return Err(GraphError::DuplicateEdge { u: key.0, v: key.1 });
        }
        self.edges.push(key);
        Ok(())
    }

    /// Add an edge, silently ignoring duplicates. Used by randomized
    /// generators where collision is expected.
    pub fn add_edge_dedup(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        match self.add_edge(u, v) {
            Ok(()) | Err(GraphError::DuplicateEdge { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Current number of (deduplicated) edges staged in the builder.
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into an immutable [`Graph`]: sort + dedup the canonical
    /// edge list, then assemble the CSR arrays in two counting passes
    /// (O(n + m), no per-node allocations).
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.n as usize;
        // Index-width contract (checked builds): the CSR offsets and the
        // directed slot ids are u32, so the directed edge count `2m` must
        // fit. At the 10M-node scale a sparse instance has `2m` in the
        // tens of millions — three orders of magnitude of headroom — but
        // an overflow here would silently wrap `row_ptr` and corrupt every
        // slot address, so it must be a loud checked-build failure.
        debug_assert!(
            self.edges.len() <= (u32::MAX / 2) as usize,
            "directed slot count 2m = {} overflows the u32 CSR offsets",
            2 * self.edges.len()
        );
        let mut row_ptr = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            row_ptr[u as usize + 1] += 1;
            row_ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut adj = vec![0 as NodeId; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Rows come out sorted for free: row `v` is filled from the
        // lexicographically sorted edge list, so it first receives the `w`s
        // of all edges `(w, v)` with `w < v` (ascending in `w`), then the
        // `x`s of all edges `(v, x)` with `x > v` (ascending in `x`).
        debug_assert!((0..n).all(|v| {
            adj[row_ptr[v] as usize..row_ptr[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        Graph {
            n: self.n,
            row_ptr,
            adj,
            edges: self.edges,
        }
    }
}

/// Convenience constructor from an edge list; used pervasively in tests.
///
/// # Panics
/// Panics on invalid edges — tests want loud failures.
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` test helper; loud failure is the contract"
        )]
        b.add_edge(u, v)
            .unwrap_or_else(|e| panic!("bad edge ({u},{v}): {e}"));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn single_node() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn triangle_basic_queries() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn edge_ids_are_canonical_and_stable() {
        let g = graph_from_edges(4, &[(2, 3), (0, 1), (1, 3)]);
        // Sorted canonical list: (0,1), (1,3), (2,3)
        assert_eq!(g.edges(), &[(0, 1), (1, 3), (2, 3)]);
        assert_eq!(g.edge_id(3, 1), Some(1));
        assert_eq!(g.edge_id(3, 2), Some(2));
        assert_eq!(g.edge_id(0, 2), None);
        assert_eq!(g.endpoints(0), (0, 1));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let err = GraphBuilder::new(2).edge(1, 1).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let err = GraphBuilder::new(2).edge(0, 2).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn builder_rejects_duplicate_in_either_orientation() {
        let err = GraphBuilder::new(3)
            .edge(0, 1)
            .unwrap()
            .edge(1, 0)
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn dedup_add_ignores_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_dedup(0, 1).unwrap();
        b.add_edge_dedup(1, 0).unwrap();
        b.add_edge_dedup(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = graph_from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn slots_are_dense_lexicographic_and_roundtrip() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(g.directed_slots(), 2 * g.m());
        // Slot ids enumerate (source, target) lexicographically.
        let mut expected = 0u32;
        for v in g.nodes() {
            assert_eq!(g.row_start(v), expected);
            for &w in g.neighbors(v) {
                assert_eq!(g.slot_of(v, w), Some(expected));
                assert_eq!(g.slot_endpoints(expected), (v, w));
                expected += 1;
            }
        }
        assert_eq!(expected as usize, g.directed_slots());
        // Non-edges and out-of-range sources have no slot.
        assert_eq!(g.slot_of(0, 2), None);
        assert_eq!(g.slot_of(0, 0), None);
        assert_eq!(g.slot_of(9, 0), None);
    }

    #[test]
    fn slot_endpoints_skip_isolated_nodes() {
        // Node 1 is isolated: its empty CSR row must not confuse the
        // slot-to-source recovery.
        let g = graph_from_edges(4, &[(0, 2), (2, 3)]);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.slot_endpoints(0), (0, 2));
        assert_eq!(g.slot_endpoints(1), (2, 0));
        assert_eq!(g.slot_endpoints(2), (2, 3));
        assert_eq!(g.slot_endpoints(3), (3, 2));
    }

    /// Regression: staging E edges must be O(E) expected, not O(E²). The
    /// old per-insert `Vec::contains` scan made this complete-graph build
    /// (~180k edges, plus 180k duplicate probes) take on the order of
    /// 10¹⁰ comparisons — far beyond any test timeout; with the hash probe
    /// it finishes in well under a second even unoptimized.
    #[test]
    fn large_build_is_linear_not_quadratic() {
        let n: u32 = 600;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v).unwrap();
            }
        }
        // Duplicate probes are O(1) too, in both orientations.
        for u in 0..n {
            for v in (u + 1)..n {
                assert!(b.add_edge_dedup(v, u).is_ok());
            }
        }
        let m = (n as usize) * (n as usize - 1) / 2;
        assert_eq!(b.staged_edges(), m);
        let g = b.build();
        assert_eq!(g.m(), m);
        assert_eq!(g.max_degree(), n as usize - 1);
    }
}
