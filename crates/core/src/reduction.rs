//! Module 4 — degree reduction (paper §3.2.4, Figures 1, 2, 4, 5).
//!
//! When a `Search` token closes the fundamental cycle of `{a, b}` at `b`,
//! `Action_on_Cycle` classifies it:
//!
//! * the cycle interior contains a node `w` with `deg(w) = dmax` and the
//!   endpoints satisfy `max(deg(a), deg(b)) ≤ dmax − 2` (Eq. 1) → `{a, b}`
//!   is an **improving edge**: a `Remove` travels the cycle to delete a tree
//!   edge at `w`, the reversed arc is re-oriented (`Flip`), and distances
//!   are repaired (`DistChain`/`DistFlood`);
//! * an endpoint has degree exactly `dmax − 1` → it is **blocking**; a
//!   `Deblock` flood asks the tree to lower the blocker's degree first
//!   (searches re-launched with `idblock`; cycles through the blocker with
//!   light endpoints then improve it);
//! * otherwise the cycle is useless and nothing happens.
//!
//! Commit discipline (ARCHITECTURE.md, "Modelling deviations", deviation
//! 5): everything up to the moment the `Remove` reaches the target edge is
//! freely droppable (freshness guards at every hop); from the commit on,
//! the `Flip`/`DistChain` choreography runs unguarded to completion,
//! exactly as the paper requires ("otherwise the tree partitions").

use crate::messages::{DistChain, Flip, Msg, PathEntry, Remove, Search};
use crate::node::MdstNode;
use crate::NodeId;
use ssmdst_sim::Outbox;

impl MdstNode {
    /// `Action_on_Cycle` (paper Figure 1, lines 5–21), executed at the
    /// cycle-closing endpoint `b == self` with `m.path = [a, p1, …, p_last]`
    /// the tree path from `a` to `b`'s tree-predecessor.
    pub(crate) fn action_on_cycle(&mut self, m: Search, out: &mut Outbox<Msg>) {
        let Search {
            init,
            idblock,
            path,
            ..
        } = m;
        let dmax = self.st.dmax;
        if dmax < 3 || path.len() < 2 {
            return; // nothing improvable / degenerate cycle
        }
        let deg_a = path[0].1;
        let deg_b = self.st.deg;
        let ends_max = deg_a.max(deg_b);
        // Interior of the cycle: everything on the tree path except `a`
        // (b is the closer and also an endpoint).
        let interior = &path[1..];
        match idblock {
            None => {
                let Some(&(_, d_int)) = interior.iter().max_by_key(|&&(id, d)| (d, id)) else {
                    return;
                };
                if d_int != dmax {
                    return; // no max-degree node on this cycle
                }
                if ends_max + 2 <= dmax {
                    // Improving edge (Eq. 1): target the min-ID interior
                    // node of maximum degree, as the paper does.
                    #[expect(
                        clippy::expect_used,
                        reason = "this branch is taken only when an interior node hits dmax"
                    )]
                    let w = interior
                        .iter()
                        .filter(|&&(_, d)| d == dmax)
                        .map(|&(id, _)| id)
                        .min()
                        .expect("d_int == dmax implies a witness");
                    self.send_remove(init, dmax, w, &path, out);
                } else if ends_max + 1 == dmax && self.cfg.enable_deblock {
                    self.start_deblock(init, deg_a, deg_b, self.cfg.deblock_ttl, out);
                }
            }
            Some((idb, ttl)) => {
                // Deblock context: the cycle must route through the blocking
                // node with its blocking degree still current.
                let Some(&(_, d_idb)) = interior.iter().find(|&&(id, _)| id == idb) else {
                    return;
                };
                if d_idb + 1 != dmax {
                    return; // no longer blocking (someone already fixed it)
                }
                if ends_max + 1 < dmax {
                    // Paper line 19: endpoints strictly below dmax − 1.
                    self.send_remove(init, dmax - 1, idb, &path, out);
                } else if ends_max + 1 == dmax && ttl > 0 && self.cfg.enable_deblock {
                    self.start_deblock(init, deg_a, deg_b, ttl - 1, out);
                }
            }
        }
    }

    /// Emit a `Remove` for the cycle of `init = {a, b}` targeting a tree
    /// edge incident to `w` (paper's `Improve`, Figure 1 lines 26–27).
    fn send_remove(
        &mut self,
        init: (NodeId, NodeId),
        deg_max: u32,
        w: NodeId,
        path: &[PathEntry],
        out: &mut Outbox<Msg>,
    ) {
        // Full cycle node order: [a, p1, …, p_last, b].
        let mut cycle: Vec<NodeId> = path.iter().map(|&(id, _)| id).collect();
        cycle.push(self.st.id);
        let Some(i) = cycle.iter().position(|&x| x == w) else {
            return;
        };
        if i == 0 || i + 1 == cycle.len() {
            return; // endpoints are never valid targets
        }
        if self.busy_blocked() {
            return; // an improvement already runs through this node
        }
        self.st.busy = cycle.len() as u32 + 4;
        // Choose which side of `w` to cut: prefer the higher-degree
        // neighbor on the cycle (spreads the relief), ties toward higher ID.
        let deg_at = |idx: usize| -> u32 {
            if idx < path.len() {
                path[idx].1
            } else {
                self.st.deg
            }
        };
        let left_key = (deg_at(i - 1), cycle[i - 1]);
        let right_key = (deg_at(i + 1), cycle[i + 1]);
        let z_idx = if left_key >= right_key { i - 1 } else { i + 1 };
        out.send(
            init.0,
            Msg::Remove(Box::new(Remove {
                init,
                deg_max,
                w_idx: i,
                z_idx,
                cycle,
                dmax: self.st.dmax,
                dist_a: 0, // stamped by `a` on first hop
                dist_b: self.st.distance,
                pos: 0,
            })),
        );
    }

    /// `Remove` hop (paper Figure 2, lines 3–14): relay with freshness
    /// guards until the maximum-degree node `w`, then commit there.
    pub(crate) fn handle_remove(&mut self, mut m: Box<Remove>, out: &mut Outbox<Msg>) {
        // Structural sanity (corruption guards): w is interior, z adjacent.
        let len = m.cycle.len();
        if len < 3
            || len > self.cfg.max_path_len + 1
            || m.pos >= len
            || m.w_idx == 0
            || m.w_idx + 1 >= len
            || (m.z_idx != m.w_idx - 1 && m.z_idx != m.w_idx + 1)
            || m.cycle[m.pos] != self.st.id
            || m.pos > m.w_idx
        {
            return;
        }
        // Freshness: any change in dmax or local instability aborts the
        // improvement before commit (paper: stale Removes are discarded).
        // The busy latch additionally rejects a second improvement while
        // one is already moving through this node — overlapping flips
        // would cross and corrupt the tree, costing a full re-election.
        if !self.st.locally_stabilized() || self.st.dmax != m.dmax || self.busy_blocked() {
            return;
        }
        self.st.busy = len as u32 + 4;
        if m.pos == 0 {
            // We are `a`: the inserted edge must still be a non-tree edge.
            if self.st.is_tree_edge(m.init.1) || !self.st.is_neighbor(m.init.1) {
                return;
            }
            m.dist_a = self.st.distance;
        }
        if m.pos == m.w_idx {
            self.commit_remove(*m, out);
            return;
        }
        let next = m.cycle[m.pos + 1];
        if !self.st.is_tree_edge(next) {
            return; // path edge vanished: stale
        }
        m.pos += 1;
        out.send(next, Msg::Remove(m));
    }

    /// Commit point (`target_remove` in the paper), executed at the
    /// maximum-degree node `w = cycle[w_idx]` itself: its *own* (fresh)
    /// degree must still be `deg_max`; then the tree edge `{w, z}` is
    /// deleted and the cut component re-anchored on the inserted edge.
    ///
    /// One rule covers the four orientations (`z = w ± 1`, and `z` is `w`'s
    /// parent or child). The side of the cut edge away from the root is cut
    /// off: `w`'s side if `z` is its parent, `z`'s side if `z` is its child.
    /// The flip walks that side's cycle arc away from the cut edge, in
    /// direction `dir`, and stops at the inserted-edge endpoint the arc
    /// ends in (`a` for `dir = −1`, `b` for `+1`), which re-anchors on the
    /// other endpoint.
    fn commit_remove(&mut self, m: Remove, out: &mut Outbox<Msg>) {
        let Remove {
            init: (a, b),
            deg_max,
            w_idx,
            z_idx,
            cycle,
            dist_a,
            dist_b,
            ..
        } = m;
        let z = cycle[z_idx];
        let s = &self.st;
        // Degree freshness on *local* state — the whole point of
        // committing at w (a stale mirror must never fire a swap).
        if !s.is_neighbor(z) || s.deg != deg_max {
            return;
        }
        let (dir, origin, pos) = if s.parent == z {
            // Removing my parent edge: my side is cut off, and I flip first,
            // onto my cycle-neighbor away from z.
            let dir = step(z_idx, w_idx);
            let pos = w_idx.wrapping_add_signed(dir as isize);
            let next = cycle[pos];
            if !s.is_neighbor(next) {
                return;
            }
            self.st.parent = next;
            self.st.recompute_derived();
            (dir, w_idx, pos)
        } else if s.view(z).parent == s.id {
            // Removing my child edge: the cut component is z's side, and z
            // flips first.
            (step(w_idx, z_idx), z_idx, z_idx)
        } else {
            return; // neither orientation holds: the edge is already gone — stale, drop
        };
        let (end, anchor, anchor_dist) = if dir < 0 {
            (0, b, dist_b)
        } else {
            (cycle.len() - 1, a, dist_a)
        };
        out.send(
            cycle[pos],
            Msg::Flip(Box::new(Flip {
                cycle,
                pos,
                dir,
                end,
                origin,
                anchor_dist,
                anchor,
            })),
        );
    }

    /// `Flip` hop: unconditional parent re-orientation along the reversed
    /// arc (paper's `Reverse_Orientation`; runs to completion).
    pub(crate) fn handle_flip(&mut self, mut m: Box<Flip>, out: &mut Outbox<Msg>) {
        // `origin` is the cut-adjacent end of the flipped arc: the walk
        // position always lies between `end` (terminal) and `origin`.
        if !flip_indices_valid(&m.cycle, m.pos, m.dir, m.end, self.cfg.max_path_len)
            || m.cycle[m.pos] != self.st.id
            || m.origin >= m.cycle.len()
            || !in_arc(m.pos as i32, m.end as i32, m.origin as i32)
        {
            return;
        }
        // A flip in progress makes this region off-limits to new Removes.
        self.st.busy = self.st.busy.max(m.cycle.len() as u32 + 4);
        if m.pos == m.end {
            // Terminal endpoint of the inserted edge: adopt the anchor.
            if !self.st.is_neighbor(m.anchor) {
                return; // corrupt; stabilization will clean up
            }
            self.st.parent = m.anchor;
            self.st.distance = m.anchor_dist.saturating_add(1);
            self.st.recompute_derived();
            // Repair distances back along the flipped arc (terminal → cut-
            // adjacent origin); the chain is empty if the origin is not
            // behind the terminal.
            let back = -m.dir;
            let behind = in_arc(m.pos as i32 + back as i32, m.pos as i32, m.origin as i32);
            let chain_end = if behind { m.origin } else { m.pos };
            let chain = Box::new(DistChain {
                cycle: m.cycle,
                pos: m.pos,
                dir: back,
                end: chain_end,
                dist: self.st.distance,
            });
            self.dist_chain(chain, None, out);
            return;
        }
        // Interior flip: each arc node adopts the next node toward the
        // terminal, because the terminal is the new local root of the cut
        // component.
        let toward_terminal = m.pos.wrapping_add_signed(m.dir as isize);
        let next_parent = m.cycle[toward_terminal];
        if !self.st.is_neighbor(next_parent) {
            return; // corrupt cycle vector; stabilization will clean up
        }
        self.st.parent = next_parent;
        self.st.recompute_derived();
        m.pos = toward_terminal;
        out.send(next_parent, Msg::Flip(m));
    }

    /// `DistChain` hop: adopt the corrected distance and keep walking the
    /// flipped arc (paper's `UpdateDist` along the reversed path).
    pub(crate) fn handle_dist_chain(
        &mut self,
        from: NodeId,
        m: Box<DistChain>,
        out: &mut Outbox<Msg>,
    ) {
        if !flip_indices_valid(&m.cycle, m.pos, m.dir, m.end, self.cfg.max_path_len)
            || m.cycle[m.pos] != self.st.id
        {
            return;
        }
        if self.st.parent == from {
            self.st.distance = m.dist.saturating_add(1);
            self.st.recompute_derived();
        }
        self.dist_chain(m, Some(from), out);
    }

    /// The distance-repair chain at `c.cycle[c.pos]`, walking `c.dir`
    /// toward `c.end` (shared by the `Flip` terminal and every `DistChain`
    /// hop): forward the same chain to the next arc node if it is a
    /// neighbor, then flood `DistFlood` into every other child except
    /// `from`.
    fn dist_chain(&self, mut c: Box<DistChain>, from: Option<NodeId>, out: &mut Outbox<Msg>) {
        let next_pos = c.pos.wrapping_add_signed(c.dir as isize);
        let next = (c.pos != c.end)
            .then(|| c.cycle[next_pos])
            .filter(|&u| self.st.is_neighbor(u));
        if let Some(u) = next {
            c.pos = next_pos;
            c.dist = self.st.distance;
            out.send(u, Msg::DistChain(c));
        }
        self.flood_dist_to_children([from, next], out);
    }

    /// `DistFlood`: child-side distance repair (subtree flood).
    pub(crate) fn handle_dist_flood(&mut self, from: NodeId, dist: u32, out: &mut Outbox<Msg>) {
        if self.st.parent != from {
            return; // only meaningful coming from my parent
        }
        let new = dist.saturating_add(1);
        if self.st.distance == new {
            return; // nothing changed: stop the flood here
        }
        self.st.distance = new;
        self.flood_dist_to_children([Some(from), None], out);
    }

    /// Send `DistFlood` to all (mirror-)children except `skip`.
    fn flood_dist_to_children(&self, skip: [Option<NodeId>; 2], out: &mut Outbox<Msg>) {
        for u in self.st.children() {
            if !skip.contains(&Some(u)) {
                out.send(
                    u,
                    Msg::DistFlood {
                        dist: self.st.distance,
                    },
                );
            }
        }
    }

    /// Start the deblocking of a blocking endpoint (paper Figure 1,
    /// `Deblock`, lines 28–30): the higher-degree blocked endpoint
    /// broadcasts; if the remote endpoint `a` is the blocker, it is told to.
    fn start_deblock(
        &mut self,
        init: (NodeId, NodeId),
        deg_a: u32,
        deg_b: u32,
        ttl: u8,
        out: &mut Outbox<Msg>,
    ) {
        let dmax = self.st.dmax;
        if deg_b + 1 == dmax {
            // I (b) am blocking: flood my tree neighborhood (throttled so a
            // search storm does not re-flood every period).
            let my_id = self.st.id;
            if self.st.deblock_cooldown.get(my_id).unwrap_or(0) == 0 {
                self.st
                    .deblock_cooldown
                    .insert(my_id, self.cfg.deblock_cooldown);
                self.broadcast_deblock(my_id, None, ttl, out);
            }
        }
        if deg_a + 1 == dmax && deg_a >= deg_b {
            // Tell `a` (over the physical non-tree link) to deblock itself.
            out.send(
                init.0,
                Msg::Deblock {
                    idblock: init.0,
                    ttl,
                    dmax,
                },
            );
        }
    }

    /// Receive a `Deblock` flood (paper Figure 2 line 22 + `Broadcast`).
    pub(crate) fn handle_deblock(
        &mut self,
        from: NodeId,
        idblock: NodeId,
        ttl: u8,
        dmax: u32,
        out: &mut Outbox<Msg>,
    ) {
        if !self.cfg.enable_deblock
            || !self.st.locally_stabilized()
            || self.st.dmax != dmax
            || self.st.dmax < 3
        {
            return;
        }
        // Throttle repeated floods for the same blocker.
        if self.st.deblock_cooldown.get(idblock).unwrap_or(0) > 0 {
            return;
        }
        self.st
            .deblock_cooldown
            .insert(idblock, self.cfg.deblock_cooldown);
        if idblock == self.st.id {
            // I am the blocker being notified (endpoint case): broadcast.
            self.broadcast_deblock(self.st.id, Some(from), ttl, out);
            return;
        }
        self.broadcast_deblock(idblock, Some(from), ttl, out);
        // Work on the blocker's behalf: search my non-tree edges with the
        // blocking context attached.
        let first = self.st.neighbors.partition_point(|&u| u <= self.st.id);
        for i in first..self.st.neighbors.len() {
            let u = self.st.neighbors[i];
            if !self.st.is_tree_edge_at(i) && u != idblock {
                self.start_search(u, Some((idblock, ttl)), out);
            }
        }
    }

    /// Forward a `Deblock` over all tree edges except `skip` (tree flood).
    fn broadcast_deblock(
        &mut self,
        idblock: NodeId,
        skip: Option<NodeId>,
        ttl: u8,
        out: &mut Outbox<Msg>,
    ) {
        let dmax = self.st.dmax;
        for (i, &u) in self.st.neighbors.iter().enumerate() {
            if Some(u) == skip || !self.st.is_tree_edge_at(i) {
                continue;
            }
            out.send(u, Msg::Deblock { idblock, ttl, dmax });
        }
    }
}

/// Shared index validation for `Flip`/`DistChain` walks.
fn flip_indices_valid(cycle: &[NodeId], pos: usize, dir: i8, end: usize, cap: usize) -> bool {
    if cycle.len() < 2 || cycle.len() > cap + 1 || pos >= cycle.len() || end >= cycle.len() {
        return false;
    }
    match dir {
        1 => pos <= end,
        -1 => pos >= end,
        _ => false,
    }
}

/// The walk direction from index `from` to the adjacent index `to`.
fn step(from: usize, to: usize) -> i8 {
    if to > from {
        1
    } else {
        -1
    }
}

/// Whether `x` lies on the inclusive walk from `from_` to `to`.
fn in_arc(x: i32, from_: i32, to: i32) -> bool {
    if from_ <= to {
        (from_..=to).contains(&x)
    } else {
        (to..=from_).contains(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::oracle;
    use ssmdst_graph::generators::structured;
    use ssmdst_sim::{stop_when, Network, Scheduler, Session};

    #[test]
    fn flip_indices_validation() {
        let cyc = vec![0u32, 1, 2, 3];
        assert!(flip_indices_valid(&cyc, 1, 1, 3, 10));
        assert!(flip_indices_valid(&cyc, 2, -1, 0, 10));
        assert!(!flip_indices_valid(&cyc, 3, 1, 2, 10)); // pos past end
        assert!(!flip_indices_valid(&cyc, 0, -1, 2, 10));
        assert!(!flip_indices_valid(&cyc, 9, 1, 3, 10)); // out of range
        assert!(!flip_indices_valid(&cyc, 1, 0, 3, 10)); // bad dir
        assert!(!flip_indices_valid(&cyc, 1, 1, 3, 2)); // over cap
    }

    #[test]
    fn in_arc_both_orientations() {
        assert!(in_arc(2, 0, 3));
        assert!(in_arc(2, 3, 0));
        assert!(!in_arc(4, 0, 3));
        assert!(in_arc(0, 0, 0));
    }

    /// The flagship end-to-end test: on star-with-ring the BFS-ish tree has
    /// hub degree n−1 and the reduction must drive it down to ≤ 3 (Δ*+1).
    #[test]
    fn star_with_ring_degree_collapses() {
        let n = 8;
        let g = structured::star_with_ring(n).unwrap();
        let net = crate::build_network(&g, Config::for_n(n));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let out = session.run_until(
            6000,
            &mut stop_when(|net: &Network<MdstNode>, _| {
                oracle::try_extract_tree(&g, net)
                    .map(|t| t.max_degree() <= 3)
                    .unwrap_or(false)
            }),
        );
        assert!(
            out.converged(),
            "hub degree stuck at {:?}",
            oracle::try_extract_tree(&g, session.network()).map(|t| t.max_degree())
        );
    }

    /// After reduction stabilizes the structure must still be a spanning
    /// tree with consistent dmax everywhere.
    #[test]
    fn reduction_preserves_tree_invariants() {
        let g = structured::star_with_ring(8).unwrap();
        let net = crate::build_network(&g, Config::for_n(8));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(4000)
            .build();
        let _ = session.run_until(
            6000,
            &mut stop_when(|net: &Network<MdstNode>, _| {
                oracle::try_extract_tree(&g, net)
                    .map(|t| t.max_degree() <= 3)
                    .unwrap_or(false)
            }),
        );
        // Let it settle, then validate global invariants.
        let settle = session.run_to_quiescence(64, oracle::projection);
        assert!(settle.converged());
        let t = oracle::try_extract_tree(&g, session.network()).expect("spanning tree");
        t.validate(&g).unwrap();
        assert!(oracle::dmax_agrees(session.network(), t.max_degree()));
    }

    /// With Deblock disabled (ablation A2) the protocol still terminates
    /// and still produces a spanning tree (possibly of higher degree).
    #[test]
    fn without_deblock_still_stabilizes() {
        let g = structured::star_with_ring(8).unwrap();
        let net = crate::build_network(&g, Config::without_deblock(8));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(8000)
            .build();
        let out = session.run_to_quiescence(64, oracle::projection);
        assert!(out.converged());
        let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
        t.validate(&g).unwrap();
    }

    /// A `Remove` for the cycle `[0, 1, 2, 3]` with dmax snapshot 0,
    /// committing at `cycle[w_idx]` and addressed to `cycle[pos]`.
    fn remove_msg(w_idx: usize, z_idx: usize, pos: usize) -> Box<Remove> {
        Box::new(Remove {
            init: (0, 3),
            deg_max: 3,
            w_idx,
            z_idx,
            cycle: vec![0, 1, 2, 3],
            dmax: 0,
            dist_a: 0,
            dist_b: 0,
            pos,
        })
    }

    /// A Remove with a stale dmax snapshot must be dropped before commit.
    #[test]
    fn stale_remove_is_dropped() {
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(
            Box::new(Remove {
                dmax: 99, // stale
                ..*remove_msg(1, 2, 1)
            }),
            &mut out,
        );
        assert!(out.is_empty());
    }

    /// Corrupt Remove geometry (pos past commit node) is dropped.
    #[test]
    fn corrupt_remove_geometry_dropped() {
        let mut n = crate::MdstNode::new(2, &[1, 3], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(remove_msg(1, 2, 2), &mut out);
        assert!(out.is_empty());
    }

    /// A z index not adjacent to w is corrupt and dropped.
    #[test]
    fn corrupt_z_index_dropped() {
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(remove_msg(1, 3, 1), &mut out);
        assert!(out.is_empty());
    }

    /// Build a stabilized middle node of a path 0-1-2 with dmax 3 so that
    /// deblock/flip handlers can be unit-tested in isolation.
    fn stabilized_mid() -> crate::MdstNode {
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        n.st.root = 0;
        n.st.parent = 0;
        n.st.distance = 1;
        for (u, parent, distance) in [(0u32, 0u32, 0u32), (2, 1, 2)] {
            n.st.set_view(
                u,
                crate::state::NbrView {
                    root: 0,
                    parent,
                    distance,
                    dmax: 3,
                    deg: 1,
                    subtree_max: 2,
                    color: true,
                },
            );
        }
        n.st.recompute_derived();
        n.st.dmax = 3;
        n.st.color = true;
        n
    }

    #[test]
    fn deblock_flood_forwards_over_tree_edges() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        n.handle_deblock(0, 9, 2, 3, &mut out);
        // Forwarded to the other tree neighbor (2); node 1 initiates no
        // search (no non-tree edges here).
        assert_eq!(out.len(), 1);
        let drained = out.messages().to_vec();
        assert_eq!(drained[0].0, 2);
        assert!(matches!(
            drained[0].1,
            Msg::Deblock {
                idblock: 9,
                ttl: 2,
                ..
            }
        ));
    }

    #[test]
    fn deblock_is_throttled_per_blocker() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        n.handle_deblock(0, 9, 2, 3, &mut out);
        assert_eq!(out.len(), 1);
        let mut out2 = Outbox::new();
        n.handle_deblock(0, 9, 2, 3, &mut out2);
        assert!(out2.is_empty(), "repeat flood must be throttled");
        // A different blocker is not throttled.
        let mut out3 = Outbox::new();
        n.handle_deblock(0, 7, 2, 3, &mut out3);
        assert_eq!(out3.len(), 1);
    }

    #[test]
    fn deblock_dropped_when_stale_or_disabled() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        n.handle_deblock(0, 9, 2, 99, &mut out); // stale dmax
        assert!(out.is_empty());
        let mut n = stabilized_mid();
        n.cfg.enable_deblock = false;
        let mut out = Outbox::new();
        n.handle_deblock(0, 9, 2, 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dist_flood_only_from_parent_and_stops_at_fixpoint() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        // From non-parent: ignored.
        n.handle_dist_flood(2, 7, &mut out);
        assert!(out.is_empty());
        assert_eq!(n.st.distance, 1);
        // From parent: adopt and forward to child 2.
        n.handle_dist_flood(0, 7, &mut out);
        assert_eq!(n.st.distance, 8);
        assert_eq!(out.len(), 1);
        // Same value again: fixpoint, no re-flood (loop guard).
        let mut out2 = Outbox::new();
        n.handle_dist_flood(0, 7, &mut out2);
        assert!(out2.is_empty());
    }

    /// The `Remove` that commits at node 2 of the cycle `[0, 1, 2, 3, 4]`
    /// (`a = 0`, `b = 4`), cutting the edge to `cycle[z_idx]`.
    fn commit_msg(z_idx: usize) -> Msg {
        Msg::Remove(Box::new(Remove {
            init: (0, 4),
            deg_max: 3,
            w_idx: 2,
            z_idx,
            cycle: vec![0, 1, 2, 3, 4],
            dmax: 3,
            dist_a: 7,
            dist_b: 9,
            pos: 2,
        }))
    }

    /// `(pos, dir, end, origin, anchor, anchor_dist)` of a `Flip`.
    fn flip_fields(m: &Msg) -> (usize, i8, usize, usize, NodeId, u32) {
        match m {
            Msg::Flip(f) => (f.pos, f.dir, f.end, f.origin, f.anchor, f.anchor_dist),
            other => panic!("expected a Flip, got {other:?}"),
        }
    }

    /// Node 2 of the cycle, locally stabilized at dmax 3 with neighbors
    /// `[1, 3, 5]`: its parent is `parent`, and `children` point at it.
    fn commit_node(parent: NodeId, children: &[NodeId]) -> crate::MdstNode {
        let mut n = crate::MdstNode::new(2, &[1, 3, 5], Config::for_n(8));
        n.st.root = 0;
        n.st.parent = parent;
        n.st.distance = 5;
        for u in [1, 3, 5] {
            let (p, distance) = if u == parent {
                (0, 4)
            } else if children.contains(&u) {
                (2, 6)
            } else {
                (0, 4)
            };
            n.st.set_view(
                u,
                crate::state::NbrView {
                    root: 0,
                    parent: p,
                    distance,
                    dmax: 3,
                    deg: 2,
                    subtree_max: 2,
                    color: true,
                },
            );
        }
        n.st.recompute_derived();
        assert!(n.st.locally_stabilized());
        n
    }

    /// The commit rule over its four orientations (the cut edge on either
    /// side of `w`, as `w`'s parent or child edge): the committing node's
    /// new parent and the exact `Flip` it sends.
    #[test]
    fn commit_orientations_send_the_exact_flip() {
        use ssmdst_sim::Automaton;
        // (w's parent, z_idx) → (w's new parent, Flip recipient,
        // (pos, dir, end, origin, anchor, anchor_dist)).
        let table = [
            // z = w + 1 is w's parent: w re-parents toward a.
            ((3, 3), (1, 1, (1, -1, 0, 2, 4, 9))),
            // z = w + 1 is w's child: z's side re-roots at b.
            ((1, 3), (1, 3, (3, 1, 4, 3, 0, 7))),
            // z = w − 1 is w's parent: w re-parents toward b.
            ((1, 1), (3, 3, (3, 1, 4, 2, 0, 7))),
            // z = w − 1 is w's child: z's side re-roots at a.
            ((3, 1), (3, 1, (1, -1, 0, 1, 4, 9))),
        ];
        for ((parent, z_idx), (new_parent, to, flip)) in table {
            let children: Vec<NodeId> = [1, 3, 5].into_iter().filter(|&u| u != parent).collect();
            let mut n = commit_node(parent, &children);
            assert_eq!(n.st.deg, 3);
            let mut out = Outbox::new();
            n.receive(1, commit_msg(z_idx), &mut out);
            let case = (parent, z_idx);
            assert_eq!(n.st.parent, new_parent, "{case:?}: new parent");
            let sent = out.messages();
            assert_eq!(sent.len(), 1, "{case:?}: one Flip");
            assert_eq!(sent[0].0, to, "{case:?}: recipient");
            assert_eq!(flip_fields(&sent[0].1), flip, "{case:?}: Flip fields");
        }
    }

    /// A commit whose cut edge is no longer a tree edge (neither `w`'s
    /// parent nor child edge) is stale: it sends nothing and changes
    /// nothing beyond the relay latch every fresh hop takes.
    #[test]
    fn stale_commit_sends_nothing() {
        use ssmdst_sim::Automaton;
        // Node 3 is a neighbor but not a tree neighbor of node 2.
        let mut n = commit_node(1, &[5]);
        let mut before = n.st.clone();
        before.busy = 5 + 4;
        let mut out = Outbox::new();
        n.receive(1, commit_msg(3), &mut out);
        assert!(out.is_empty());
        assert_eq!(n.st, before);
    }

    /// A `Flip` walking toward index 0 (`dir = -1`).
    fn flip_msg(
        cycle: Vec<NodeId>,
        pos: usize,
        end: usize,
        origin: usize,
        anchor_dist: u32,
        anchor: NodeId,
    ) -> Box<Flip> {
        Box::new(Flip {
            cycle,
            pos,
            dir: -1,
            end,
            origin,
            anchor_dist,
            anchor,
        })
    }

    #[test]
    fn flip_interior_reorients_and_forwards() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        // Cycle [0,1,2,3] reversed toward index 0; node 1 at pos 1.
        n.handle_flip(flip_msg(vec![0, 1, 2, 3], 1, 0, 2, 5, 3), &mut out);
        assert_eq!(n.st.parent, 0, "interior flip adopts the next-to-terminal");
        let drained = out.messages().to_vec();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 0);
        assert!(matches!(&drained[0].1, Msg::Flip(f) if f.pos == 0));
        assert!(n.st.busy > 0, "flip marks the region busy");
    }

    #[test]
    fn flip_terminal_adopts_anchor_and_starts_chain() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        // Terminal at pos==end==1, arc origin 2 lies beyond: chain goes to 2.
        // Anchor must be a neighbor (0 here).
        n.handle_flip(flip_msg(vec![2, 1, 2], 1, 1, 2, 9, 0), &mut out);
        assert_eq!(n.st.parent, 0);
        assert_eq!(n.st.distance, 10);
        let drained = out.messages().to_vec();
        assert!(drained
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, Msg::DistChain(_))));
    }

    #[test]
    fn flip_with_non_neighbor_anchor_is_dropped() {
        let mut n = stabilized_mid();
        let before = n.st.parent;
        let mut out = Outbox::new();
        n.handle_flip(flip_msg(vec![9, 1], 1, 1, 1, 4, 9), &mut out);
        assert_eq!(n.st.parent, before);
        assert!(out.is_empty());
    }
}
