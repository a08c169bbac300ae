//! Incremental re-solve: keep a basis (spanning forest) and the component
//! partition alive across churn, and re-judge only what the churn touched.
//!
//! The [`IncrementalSolver`] mirrors the live topology as one strictly
//! ascending `Vec<NodeId>` row per vertex — the row a CSR [`Graph`] holds —
//! plus the last solved basis (a global parent forest) and the component of
//! every live vertex. Churn events ([`IncrementalSolver::insert_edge`],
//! [`IncrementalSolver::remove_edge`], [`IncrementalSolver::crash`],
//! [`IncrementalSolver::rejoin`]) update the rows in `O(deg)`, clear only
//! the forest links the event invalidated, and mark the touched vertices
//! dirty.
//!
//! [`IncrementalSolver::solve_all`] re-solves the components holding a
//! dirty vertex and serves the rest from the per-component cache.
//! Membership persists between calls; the union-find regroup over the whole
//! mirror runs only after an event that can change it:
//!
//! * a crash;
//! * a rejoin;
//! * an insert joining two components;
//! * the removal of a basis edge. The basis spans every component, so only
//!   losing one of its edges can split one.
//!
//! Non-basis removals and inserts inside one component keep the partition.
//!
//! A dirty component's local graph is built by [`Graph::from_sorted_rows`]
//! straight from its mirror rows, relabelled through a reusable
//! global→local table. The table is monotone on the ascending member list,
//! so relabelled rows stay sorted and the local graph is the one
//! [`ssmdst_graph::GraphBuilder`] would build. The stored forest is then
//! repaired (re-root + link through the lexicographically smallest crossing
//! edges) and the component re-solved from that warm basis, falling back
//! to a cold BFS start only when churn shredded the forest. Solved trees
//! are written back as the next basis, so long churn chains stay
//! incremental throughout.
//!
//! One warm re-judge of `G(5000, 8/n)` after a single edge event (seed 1,
//! instrumented build, mean of 1536 re-judges, 2-vCPU shared host),
//! against the earlier engine that kept `BTreeSet` rows, regrouped on
//! every call and rebuilt the local graph through `GraphBuilder`:
//!
//! | stage | before | now |
//! |---|---|---|
//! | component regroup | 0.50 ms | 0.05 ms (195 of 1536 calls regroup) |
//! | local graph build | 2.56 ms | 0.33 ms |
//! | basis repair | 0.60 ms | 0.24 ms |
//! | solver (`solve_from`) | 0.92 ms | 1.00 ms |
//! | whole `solve_all` | 4.63 ms | 1.66 ms |
//!
//! The solver's share is mostly the articulation-point DFS of the cut
//! bound, whose result depends on the whole graph. In the benchmark's
//! traced `exact-churn` pass (seed 1, 513 `solve_all` calls)
//! `exact.solve_all_ms` fell from 3068 to 1263 ms, about what the
//! untraced pass saved (3.06 s to 1.33 s).
//!
//! Everything is keyed and iterated in ascending vertex order (sorted rows
//! and member lists, `BTreeSet`/`BTreeMap`), so replays are
//! bit-deterministic regardless of event history representation.

use std::collections::{BTreeMap, BTreeSet};

use crate::solve::{Solution, Solver};
use crate::witness::Witness;
use ssmdst_graph::{Graph, NodeId, SpanningTree, UnionFind};

/// Sentinel for "no node": a dead or unlinked vertex in the basis forest.
pub const NONE: NodeId = u32::MAX;

/// The certified solve of one live component, in **component-local**
/// vertex ids (indices into [`CompSolution::members`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompSolution {
    /// Original vertex ids of the component, ascending.
    pub members: Vec<NodeId>,
    /// Certified lower bound on the component's `Δ*`.
    pub lower: u32,
    /// Achieved tree degree (upper bound on `Δ*`).
    pub upper: u32,
    /// Component-local parent vector of the solved tree.
    pub tree: Vec<NodeId>,
    /// Component-local root of the solved tree.
    pub root: NodeId,
    /// Component-local lower-bound certificate (use
    /// [`Witness::relabeled`] with `members` for original ids).
    pub witness: Witness,
    /// Whether the final lower-bound step came from the branch-and-bound
    /// settling oracle (the witness then certifies one less than `lower`).
    pub settled: bool,
}

impl CompSolution {
    /// Whether the component's `Δ*` is known exactly.
    pub fn exact(&self) -> bool {
        self.lower == self.upper
    }

    /// `Δ*` when the interval is closed.
    pub fn delta_star(&self) -> Option<u32> {
        self.exact().then_some(self.lower)
    }

    /// The certificate translated to original vertex ids.
    pub fn witness_original(&self) -> Witness {
        self.witness.relabeled(&self.members)
    }
}

/// Work counters — how much of the [`IncrementalSolver::solve_all`] runs
/// so far was served incrementally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Components answered straight from the cache.
    pub cache_hits: u64,
    /// Components re-solved from a repaired prior basis.
    pub warm_starts: u64,
    /// Components re-solved from a fresh BFS tree.
    pub cold_starts: u64,
    /// Improvement pivots performed across all solves.
    pub pivots: u64,
    /// `solve_all` calls that recomputed the component partition because
    /// an event could have changed it.
    pub regroups: u64,
}

/// Incremental certified-`Δ*` engine over a churning topology.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    solver: Solver,
    alive: Vec<bool>,
    /// Mirror adjacency: one strictly ascending row per vertex.
    adj: Vec<Vec<NodeId>>,
    /// Last solved basis: global parent forest (`NONE` = dead or unlinked;
    /// a root parents itself).
    basis: Vec<NodeId>,
    /// Component of each live vertex, as its smallest member (the cache
    /// key). Stale for dead vertices and while `regroup` is set.
    comp: Vec<NodeId>,
    /// Whether an event since the last `solve_all` may have changed the
    /// component partition.
    regroup: bool,
    /// Reusable global→local relabelling table; holds the local ids of
    /// the component being solved, stale entries elsewhere.
    local: Vec<NodeId>,
    /// Vertices touched by churn since the last `solve_all`.
    dirty: BTreeSet<NodeId>,
    /// Per-component cache, keyed by smallest member id.
    cache: BTreeMap<NodeId, CompSolution>,
    stats: Stats,
}

impl IncrementalSolver {
    /// An engine over `n` vertices with no edges, all alive.
    pub fn new(n: usize, solver: Solver) -> Self {
        IncrementalSolver {
            solver,
            alive: vec![true; n],
            adj: vec![Vec::new(); n],
            basis: vec![NONE; n],
            comp: vec![NONE; n],
            regroup: true,
            local: vec![NONE; n],
            dirty: (0..n as u32).collect(),
            cache: BTreeMap::new(),
            stats: Stats::default(),
        }
    }

    /// An engine seeded from a static graph (all vertices alive).
    pub fn from_graph(g: &Graph, solver: Solver) -> Self {
        let mut inc = IncrementalSolver::new(g.n(), solver);
        for &(u, v) in g.edges() {
            inc.insert_edge(u, v);
        }
        inc
    }

    /// Universe size (including crashed vertices).
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Whether `v` is currently live.
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Current neighbors of `v` in the mirror, ascending.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.alive.len() && (v as usize) < self.alive.len() && u != v
    }

    /// Mirror an edge insertion. Returns whether the mirror changed
    /// (`false` for self-loops, out-of-range ids, crashed endpoints or
    /// already-present edges — matching the simulator's semantics).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u, v) || !self.alive[u as usize] || !self.alive[v as usize] {
            return false;
        }
        if !insert_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        insert_sorted(&mut self.adj[v as usize], u);
        // The forest is linked lazily at solve time; an edge between two
        // components merges them.
        self.regroup |= self.comp[u as usize] != self.comp[v as usize];
        self.dirty.insert(u);
        self.dirty.insert(v);
        true
    }

    /// Mirror an edge removal. Returns whether the mirror changed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u, v) || !remove_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        remove_sorted(&mut self.adj[v as usize], u);
        // Only a basis edge can be a component's last link between the
        // two sides.
        if self.basis[u as usize] == v {
            self.basis[u as usize] = NONE;
            self.regroup = true;
        }
        if self.basis[v as usize] == u {
            self.basis[v as usize] = NONE;
            self.regroup = true;
        }
        self.dirty.insert(u);
        self.dirty.insert(v);
        true
    }

    /// Sync one edge of the mirror to an externally observed presence —
    /// the convenient driver when following a network's ground truth.
    pub fn set_edge(&mut self, u: NodeId, v: NodeId, present: bool) -> bool {
        if present {
            self.insert_edge(u, v)
        } else {
            self.remove_edge(u, v)
        }
    }

    /// Mirror a crash: the vertex leaves the topology with all incident
    /// edges. Returns whether the mirror changed.
    pub fn crash(&mut self, v: NodeId) -> bool {
        if (v as usize) >= self.alive.len() || !self.alive[v as usize] {
            return false;
        }
        for w in std::mem::take(&mut self.adj[v as usize]) {
            remove_sorted(&mut self.adj[w as usize], v);
            if self.basis[w as usize] == v {
                self.basis[w as usize] = NONE;
            }
            self.dirty.insert(w);
        }
        self.basis[v as usize] = NONE;
        self.alive[v as usize] = false;
        self.regroup = true;
        self.dirty.insert(v);
        true
    }

    /// Mirror a rejoin: the vertex comes back with edges to the given
    /// still-live neighbors. Returns whether the mirror changed.
    pub fn rejoin(&mut self, v: NodeId, neighbors: &[NodeId]) -> bool {
        if (v as usize) >= self.alive.len() || self.alive[v as usize] {
            return false;
        }
        self.alive[v as usize] = true;
        self.basis[v as usize] = NONE;
        self.regroup = true;
        self.dirty.insert(v);
        for &w in neighbors {
            self.insert_edge(v, w);
        }
        true
    }

    /// Solve every live component, incrementally: cached where untouched,
    /// warm-started from the repaired basis where dirty. Results come in
    /// ascending order of smallest member id; the solved trees become the
    /// next basis.
    pub fn solve_all(&mut self) -> Vec<CompSolution> {
        let groups = self.regroup.then(|| self.regroup());
        // Keys of the components holding a dirty vertex.
        let touched: BTreeSet<NodeId> = self
            .dirty
            .iter()
            .filter(|&&v| self.alive[v as usize])
            .map(|&v| self.comp[v as usize])
            .collect();
        self.dirty.clear();
        let mut prev = std::mem::take(&mut self.cache);
        let mut out = Vec::new();
        match groups {
            Some(groups) => {
                for members in groups {
                    let key = members[0];
                    let entry = match prev.remove(&key) {
                        Some(hit) if !touched.contains(&key) && hit.members == members => Ok(hit),
                        _ => Err(members),
                    };
                    self.serve(entry, &mut out);
                }
            }
            // The partition is unchanged, so the cache holds every live
            // component; re-solve the touched ones with their members.
            None => {
                for (key, hit) in prev {
                    let entry = if touched.contains(&key) {
                        Err(hit.members)
                    } else {
                        Ok(hit)
                    };
                    self.serve(entry, &mut out);
                }
            }
        }
        out
    }

    /// Recompute the live components of the mirror and `comp`. Returns the
    /// member lists, ascending, in ascending order of smallest member —
    /// the order of the simulator's `live_components`.
    fn regroup(&mut self) -> Vec<Vec<NodeId>> {
        self.stats.regroups += 1;
        self.regroup = false;
        let n = self.alive.len();
        let mut uf = UnionFind::new(n);
        for (v, row) in self.adj.iter().enumerate() {
            let v = v as NodeId;
            for &w in &row[row.partition_point(|&w| w < v)..] {
                uf.union(v, w);
            }
        }
        // Scanning in ascending order opens each group at its smallest
        // member, so groups come out sorted by key.
        let mut group_of = vec![NONE; n];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for v in 0..n as NodeId {
            if !self.alive[v as usize] {
                continue;
            }
            let r = uf.find(v) as usize;
            if group_of[r] == NONE {
                group_of[r] = groups.len() as u32;
                groups.push(Vec::new());
            }
            let members = &mut groups[group_of[r] as usize];
            members.push(v);
            self.comp[v as usize] = members[0];
        }
        groups
    }

    /// Emit one component: a cache hit as is, or a fresh solve of the
    /// given members whose tree becomes the component's basis.
    fn serve(&mut self, entry: Result<CompSolution, Vec<NodeId>>, out: &mut Vec<CompSolution>) {
        let sol = match entry {
            Ok(hit) => {
                self.stats.cache_hits += 1;
                hit
            }
            Err(members) => {
                let sol = self.solve_component(members);
                for (&v, &p) in sol.members.iter().zip(&sol.tree) {
                    self.basis[v as usize] = if p == NONE {
                        NONE
                    } else {
                        sol.members[p as usize]
                    };
                }
                sol
            }
        };
        out.push(sol.clone());
        self.cache.insert(sol.members[0], sol);
    }

    /// Solve one component: build its local graph from the mirror rows,
    /// repair the prior basis into a spanning tree of it (or fall back to
    /// BFS), run the solver.
    fn solve_component(&mut self, members: Vec<NodeId>) -> CompSolution {
        for (i, &v) in members.iter().enumerate() {
            self.local[v as usize] = i as NodeId;
        }
        let (adj, local) = (&self.adj, &self.local);
        let sub = Graph::from_sorted_rows(
            members
                .iter()
                .map(|&v| adj[v as usize].iter().map(|&w| local[w as usize])),
        );
        let solution = match self.repair_basis(&members, &sub) {
            Some(tree) => {
                self.stats.warm_starts += 1;
                self.solver.solve_from(&sub, tree)
            }
            None => {
                self.stats.cold_starts += 1;
                self.solver.solve(&sub)
            }
        };
        self.stats.pivots += solution.pivots;
        let Solution {
            lower,
            upper,
            tree,
            witness,
            settled,
            ..
        } = solution;
        CompSolution {
            members,
            lower,
            upper,
            root: tree.root(),
            tree: tree.parents().to_vec(),
            witness,
            settled,
        }
    }

    /// Try to repair the stored basis into a spanning tree of the
    /// component's local graph `sub` (component-local ids, read from the
    /// relabelling table). Valid forest links are kept; fragments are
    /// re-rooted and linked through the smallest crossing mirror edges.
    /// Returns `None` when no usable links survive a cheaper full rebuild,
    /// or when the repaired parent vector is not a spanning tree of `sub`.
    fn repair_basis(&self, members: &[NodeId], sub: &Graph) -> Option<SpanningTree> {
        let k = members.len();
        if k <= 1 {
            return SpanningTree::from_parents(sub, 0, vec![0; k]).ok();
        }
        let local = |v: NodeId| self.local[v as usize];
        // Collect surviving links: parent must be a live member and the
        // edge must still exist in the mirror.
        let mut parents = vec![NONE; k];
        let mut kept = 0usize;
        for (i, &v) in members.iter().enumerate() {
            let p = self.basis[v as usize];
            if p == NONE || self.adj[v as usize].binary_search(&p).is_err() {
                continue;
            }
            let j = local(p);
            if members.get(j as usize) == Some(&p) {
                parents[i] = j;
                kept += 1;
            }
        }
        if kept * 2 < k {
            return None; // mostly shredded — BFS rebuild is cheaper
        }
        // The surviving links form a forest (they were a forest before
        // churn and we only removed links), unless a rejoin recycled ids
        // into a stale cycle; verify acyclicity while grouping fragments.
        let mut uf = UnionFind::new(k);
        for (i, &p) in parents.iter().enumerate() {
            if p != NONE && !uf.union(i as u32, p) {
                return None; // stale cycle — basis unusable
            }
        }
        // Link fragments through the smallest crossing edges, re-rooting
        // the absorbed fragment onto its crossing endpoint.
        if uf.components() > 1 {
            for (i, &v) in members.iter().enumerate() {
                let row = &self.adj[v as usize];
                for &w in &row[row.partition_point(|&w| w < v)..] {
                    let j = local(w);
                    if uf.find(i as u32) != uf.find(j) {
                        reroot(&mut parents, j);
                        parents[j as usize] = i as u32;
                        uf.union(i as u32, j);
                    }
                }
            }
            if uf.components() > 1 {
                return None; // mirror disagrees with grouping — rebuild
            }
        }
        // The union above verified acyclicity, so some vertex has no parent.
        let root = parents.iter().position(|&p| p == NONE)? as NodeId;
        parents[root as usize] = root; // self-parent, the tree convention
        SpanningTree::from_parents(sub, root, parents).ok()
    }
}

/// Insert `w` into the strictly ascending `row`; `false` if present.
fn insert_sorted(row: &mut Vec<NodeId>, w: NodeId) -> bool {
    match row.binary_search(&w) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, w);
            true
        }
    }
}

/// Remove `w` from the strictly ascending `row`; `false` if absent.
fn remove_sorted(row: &mut Vec<NodeId>, w: NodeId) -> bool {
    match row.binary_search(&w) {
        Ok(at) => {
            row.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Reverse the parent chain above `v` so that `v` becomes the root of
/// its fragment.
fn reroot(parents: &mut [NodeId], v: NodeId) {
    let mut cur = v;
    let mut prev = NONE;
    while cur != NONE {
        let next = parents[cur as usize];
        parents[cur as usize] = prev;
        prev = cur;
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::generators::{random, structured};
    use ssmdst_graph::graph::graph_from_edges;

    fn engine(g: &ssmdst_graph::Graph) -> IncrementalSolver {
        IncrementalSolver::from_graph(g, Solver::default())
    }

    #[test]
    fn static_solve_matches_direct_solver() {
        let g = random::gnp_connected(20, 0.2, 5);
        let mut inc = engine(&g);
        let sols = inc.solve_all();
        assert_eq!(sols.len(), 1);
        let direct = Solver::default().solve(&g);
        assert_eq!(sols[0].lower, direct.lower);
        assert_eq!(sols[0].upper, direct.upper);
        assert!(sols[0].witness.verify(&g), "local ids == original here");
    }

    #[test]
    fn only_partition_changing_events_regroup() {
        // A connected 16-vertex graph plus two isolated vertices.
        let g = random::gnp_connected(16, 0.4, 3);
        let mut inc = engine(&graph_from_edges(18, g.edges()));
        let sols = inc.solve_all();
        assert_eq!((sols.len(), inc.stats().regroups), (3, 1));
        let basis: Vec<(NodeId, NodeId)> = (0..16u32)
            .map(|v| (v, sols[0].tree[v as usize]))
            .filter(|&(v, p)| p != v)
            .map(|(v, p)| (v.min(p), v.max(p)))
            .collect();
        let chord = *g
            .edges()
            .iter()
            .find(|e| !basis.contains(e))
            .expect("a non-basis edge");
        let absent = (0..16u32)
            .flat_map(|u| (u + 1..16).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("a non-edge");
        // Run one event, re-judge, and return how many regroups it cost
        // and whether the re-judge warm-started the big component.
        let mut judge = |event: &dyn Fn(&mut IncrementalSolver) -> bool| {
            let before = inc.stats();
            assert!(event(&mut inc));
            inc.solve_all();
            let after = inc.stats();
            (
                after.regroups - before.regroups,
                after.warm_starts > before.warm_starts,
            )
        };
        let (u, v) = chord;
        assert_eq!(
            judge(&|e| e.remove_edge(u, v)),
            (0, true),
            "non-basis removal"
        );
        assert_eq!(judge(&|e| e.insert_edge(u, v)), (0, true), "insert inside");
        let (u, v) = absent;
        assert_eq!(
            judge(&|e| e.insert_edge(u, v)),
            (0, true),
            "new edge inside"
        );
        let (u, v) = basis[0];
        assert_eq!(judge(&|e| e.remove_edge(u, v)).0, 1, "basis-edge removal");
        assert_eq!(judge(&|e| e.insert_edge(0, 16)).0, 1, "insert across");
        assert_eq!(judge(&|e| e.crash(17)).0, 1, "crash");
        assert_eq!(judge(&|e| e.rejoin(17, &[3, 5])).0, 1, "rejoin");
        // Whatever path each re-judge took, the engine agrees with a
        // fresh one on the final topology.
        let mut fresh = IncrementalSolver::new(18, Solver::default());
        for x in 0..18u32 {
            for &w in inc.neighbors(x) {
                fresh.insert_edge(x, w);
            }
        }
        let (a, b) = (inc.solve_all(), fresh.solve_all());
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(
                (&a.members, a.lower, a.upper),
                (&b.members, b.lower, b.upper)
            );
        }
    }

    #[test]
    fn untouched_components_hit_the_cache() {
        // Two disjoint cycles; churn only the second.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5));
        }
        for i in 0..5u32 {
            edges.push((5 + i, 5 + (i + 1) % 5));
        }
        let g = graph_from_edges(10, &edges);
        let mut inc = engine(&g);
        let first = inc.solve_all();
        assert_eq!(first.len(), 2);
        let before = inc.stats();
        inc.remove_edge(5, 6);
        let second = inc.solve_all();
        let after = inc.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1, "cycle 0 cached");
        assert_eq!(second.len(), 2);
        assert_eq!(second[0], first[0], "untouched component is bit-equal");
        assert_eq!(second[1].upper, 2, "second cycle became a path");
    }

    #[test]
    fn reroot_reverses_a_chain() {
        // 0 ← 1 ← 2 ← 3 (parents point left); re-root at 3.
        let mut parents = vec![NONE, 0, 1, 2];
        reroot(&mut parents, 3);
        assert_eq!(parents, vec![1, 2, 3, NONE]);
    }

    #[test]
    fn crash_and_rejoin_round_trip() {
        let g = structured::star_with_ring(8).unwrap();
        let mut inc = engine(&g);
        let base = inc.solve_all();
        assert_eq!(base.len(), 1);
        let nbrs = inc.neighbors(0).to_vec();
        assert!(inc.crash(0));
        assert!(!inc.crash(0), "double crash is a no-op");
        let crashed = inc.solve_all();
        assert!(crashed.iter().all(|c| !c.members.contains(&0)));
        assert!(inc.rejoin(0, &nbrs));
        let back = inc.solve_all();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].members.len(), 8);
        assert_eq!(back[0].lower, base[0].lower);
        assert_eq!(back[0].upper, base[0].upper);
    }

    #[test]
    fn edge_churn_chain_tracks_scratch_solves() {
        let g = random::gnp_connected(16, 0.25, 11);
        let mut inc = engine(&g);
        inc.solve_all();
        // Remove a batch of edges, insert some back, compare each step
        // against a from-scratch engine on the same mirror.
        let edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        for (step, &(u, v)) in edges.iter().take(6).enumerate() {
            if step % 2 == 0 {
                inc.remove_edge(u, v);
            } else {
                inc.insert_edge(u, v);
            }
            let incs = inc.solve_all();
            let mut scratch = IncrementalSolver::new(inc.n(), Solver::default());
            for x in 0..inc.n() as u32 {
                for &w in inc.neighbors(x) {
                    scratch.insert_edge(x, w);
                }
            }
            let scr = scratch.solve_all();
            // Both paths settle small components exactly, so the
            // certified outcome must be bit-identical (trees/witnesses
            // may legitimately differ between warm and cold starts).
            assert_eq!(incs.len(), scr.len(), "step {step}");
            for (a, b) in incs.iter().zip(&scr) {
                assert_eq!(a.members, b.members, "step {step}");
                assert_eq!((a.lower, a.upper), (b.lower, b.upper), "step {step}");
                assert!(a.exact() && b.exact(), "step {step}: small n settles");
            }
        }
        assert!(inc.stats().warm_starts > 0, "chain must warm-start");
    }

    #[test]
    fn out_of_range_and_degenerate_events_are_rejected() {
        let g = structured::path(4).unwrap();
        let mut inc = engine(&g);
        assert!(!inc.insert_edge(0, 0), "self loop");
        assert!(!inc.insert_edge(0, 99), "out of range");
        assert!(!inc.remove_edge(0, 3), "absent edge");
        assert!(!inc.rejoin(1, &[]), "rejoin of a live vertex");
        inc.crash(2);
        assert!(!inc.insert_edge(1, 2), "edge to a crashed vertex");
    }
}
