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

use crate::messages::{Msg, PathEntry};
use crate::node::MdstNode;
use crate::NodeId;
use ssmdst_sim::Outbox;

impl MdstNode {
    /// `Action_on_Cycle` (paper Figure 1, lines 5–21), executed at the
    /// cycle-closing endpoint `b == self` with `path = [a, p1, …, p_last]`
    /// the tree path from `a` to `b`'s tree-predecessor.
    pub(crate) fn action_on_cycle(
        &mut self,
        init: (NodeId, NodeId),
        idblock: Option<(NodeId, u8)>,
        path: Vec<PathEntry>,
        out: &mut Outbox<Msg>,
    ) {
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
                    let w = interior
                        .iter()
                        .filter(|&&(_, d)| d == dmax)
                        .map(|&(id, _)| id)
                        .min()
                        .expect("d_int == dmax implies a witness"); // lint: allow(no-panic-in-library) — this branch is taken only when an interior node hits dmax
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
            Msg::Remove {
                init,
                deg_max,
                w_idx: i,
                z_idx,
                cycle,
                dmax: self.st.dmax,
                dist_a: 0, // stamped by `a` on first hop
                dist_b: self.st.distance,
                pos: 0,
            },
        );
    }

    /// `Remove` hop (paper Figure 2, lines 3–14): relay with freshness
    /// guards until the maximum-degree node `w`, then commit there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_remove(
        &mut self,
        _from: NodeId,
        init: (NodeId, NodeId),
        deg_max: u32,
        w_idx: usize,
        z_idx: usize,
        cycle: Vec<NodeId>,
        dmax: u32,
        mut dist_a: u32,
        dist_b: u32,
        pos: usize,
        out: &mut Outbox<Msg>,
    ) {
        // Structural sanity (corruption guards): w is interior, z adjacent.
        if cycle.len() < 3
            || cycle.len() > self.cfg.max_path_len + 1
            || pos >= cycle.len()
            || w_idx == 0
            || w_idx + 1 >= cycle.len()
            || (z_idx != w_idx - 1 && z_idx != w_idx + 1)
            || cycle[pos] != self.st.id
            || pos > w_idx
        {
            return;
        }
        // Freshness: any change in dmax or local instability aborts the
        // improvement before commit (paper: stale Removes are discarded).
        // The busy latch additionally rejects a second improvement while
        // one is already moving through this node — overlapping flips
        // would cross and corrupt the tree, costing a full re-election.
        if !self.st.locally_stabilized() || self.st.dmax != dmax || self.busy_blocked() {
            return;
        }
        self.st.busy = cycle.len() as u32 + 4;
        if pos == 0 {
            // We are `a`: the inserted edge must still be a non-tree edge.
            if self.st.is_tree_edge(init.1) || !self.st.is_neighbor(init.1) {
                return;
            }
            dist_a = self.st.distance;
        }
        if pos == w_idx {
            self.commit_remove(init, deg_max, w_idx, z_idx, cycle, dist_a, dist_b, out);
            return;
        }
        let next = cycle[pos + 1];
        if !self.st.is_tree_edge(next) {
            return; // path edge vanished: stale
        }
        out.send(
            next,
            Msg::Remove {
                init,
                deg_max,
                w_idx,
                z_idx,
                cycle,
                dmax,
                dist_a,
                dist_b,
                pos: pos + 1,
            },
        );
    }

    /// Commit point (`target_remove` in the paper), executed at the
    /// maximum-degree node `w = cycle[w_idx]` itself: its *own* (fresh)
    /// degree must still be `deg_max`; then the tree edge `{w, z}` is
    /// deleted and the cut component re-anchored on the inserted edge.
    #[allow(clippy::too_many_arguments)]
    fn commit_remove(
        &mut self,
        init: (NodeId, NodeId),
        deg_max: u32,
        w_idx: usize,
        z_idx: usize,
        cycle: Vec<NodeId>,
        dist_a: u32,
        dist_b: u32,
        out: &mut Outbox<Msg>,
    ) {
        let z = cycle[z_idx];
        let s = &self.st;
        if !s.is_neighbor(z) || !s.is_tree_edge(z) {
            return;
        }
        // Degree freshness on *local* state — the whole point of
        // committing at w (a stale mirror must never fire a swap).
        if s.deg != deg_max {
            return;
        }
        let k = cycle.len() - 1; // index of b
        let (a, b) = init;
        if z_idx == w_idx + 1 {
            if s.parent == z {
                // Removing my parent edge: the cut component is my side,
                // [0..=w_idx], containing `a`. Re-root it at `a`: reverse
                // the arc w → a; `a` re-anchors on `b`.
                let prev = cycle[w_idx - 1];
                if !s.is_neighbor(prev) {
                    return;
                }
                self.st.parent = prev;
                self.st.recompute_derived();
                out.send(
                    prev,
                    Msg::Flip {
                        cycle,
                        pos: w_idx - 1,
                        dir: -1,
                        end: 0,
                        origin: w_idx,
                        anchor_dist: dist_b,
                        anchor: b,
                    },
                );
            } else if s.view(z).parent == s.id {
                // Removing my child edge toward b's side: the cut component
                // is [w_idx+1..=k], containing `b`. Re-root it at `b`.
                out.send(
                    z,
                    Msg::Flip {
                        cycle,
                        pos: w_idx + 1,
                        dir: 1,
                        end: k,
                        origin: w_idx + 1,
                        anchor_dist: dist_a,
                        anchor: a,
                    },
                );
            }
        } else {
            // z = cycle[w_idx - 1]: the mirrored cases.
            if s.parent == z {
                // Removing my parent edge toward a's side: the cut
                // component is [w_idx..=k], containing `b` (and me).
                // Re-root it at `b`: I flip toward b first.
                let next = cycle[w_idx + 1];
                if !s.is_neighbor(next) {
                    return;
                }
                self.st.parent = next;
                self.st.recompute_derived();
                out.send(
                    next,
                    Msg::Flip {
                        cycle,
                        pos: w_idx + 1,
                        dir: 1,
                        end: k,
                        origin: w_idx,
                        anchor_dist: dist_a,
                        anchor: a,
                    },
                );
            } else if s.view(z).parent == s.id {
                // Removing my child edge toward a's side: the cut component
                // is [0..=w_idx-1], containing `a`. Re-root it at `a`.
                out.send(
                    z,
                    Msg::Flip {
                        cycle,
                        pos: w_idx - 1,
                        dir: -1,
                        end: 0,
                        origin: w_idx - 1,
                        anchor_dist: dist_b,
                        anchor: b,
                    },
                );
            }
        }
        // Neither orientation holds: the edge is already gone — stale, drop.
    }

    /// `Flip` hop: unconditional parent re-orientation along the reversed
    /// arc (paper's `Reverse_Orientation`; runs to completion).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_flip(
        &mut self,
        cycle: Vec<NodeId>,
        pos: usize,
        dir: i8,
        end: usize,
        origin: usize,
        anchor_dist: u32,
        anchor: NodeId,
        out: &mut Outbox<Msg>,
    ) {
        // `origin` is the cut-adjacent end of the flipped arc: the walk
        // position always lies between `end` (terminal) and `origin`.
        if !flip_indices_valid(&cycle, pos, dir, end, self.cfg.max_path_len)
            || cycle[pos] != self.st.id
            || origin >= cycle.len()
            || !in_arc(pos as i32, end as i32, origin as i32)
        {
            return;
        }
        // A flip in progress makes this region off-limits to new Removes.
        self.st.busy = self.st.busy.max(cycle.len() as u32 + 4);
        if pos == end {
            // Terminal endpoint of the inserted edge: adopt the anchor.
            if !self.st.is_neighbor(anchor) {
                return; // corrupt; stabilization will clean up
            }
            self.st.parent = anchor;
            self.st.distance = anchor_dist.saturating_add(1);
            self.st.recompute_derived();
            // Repair distances back along the flipped arc (terminal → cut-
            // adjacent origin), flooding each node's off-arc subtree.
            let back = -(dir as i32);
            let chain_pos = pos as i32 + back;
            let has_chain = in_arc(chain_pos, pos as i32, origin as i32) && origin != pos;
            if has_chain {
                let nxt = cycle[chain_pos as usize];
                if self.st.is_neighbor(nxt) {
                    out.send(
                        nxt,
                        Msg::DistChain {
                            cycle: cycle.clone(),
                            pos: chain_pos as usize,
                            dir: back as i8,
                            end: origin,
                            dist: self.st.distance,
                        },
                    );
                }
            }
            let exclude = if has_chain {
                vec![cycle[chain_pos as usize]]
            } else {
                vec![]
            };
            self.flood_dist_to_children(&exclude, out);
            return;
        }
        // Interior flip: each arc node adopts the next node toward the
        // terminal, because the terminal is the new local root of the cut
        // component.
        let toward_terminal = (pos as i32 + dir as i32) as usize;
        let next_parent = cycle[toward_terminal];
        if !self.st.is_neighbor(next_parent) {
            return; // corrupt cycle vector; stabilization will clean up
        }
        self.st.parent = next_parent;
        self.st.recompute_derived();
        out.send(
            next_parent,
            Msg::Flip {
                cycle,
                pos: toward_terminal,
                dir,
                end,
                origin,
                anchor_dist,
                anchor,
            },
        );
    }

    /// `DistChain` hop: adopt the corrected distance and keep walking the
    /// flipped arc (paper's `UpdateDist` along the reversed path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_dist_chain(
        &mut self,
        from: NodeId,
        cycle: Vec<NodeId>,
        pos: usize,
        dir: i8,
        end: usize,
        dist: u32,
        out: &mut Outbox<Msg>,
    ) {
        if !flip_indices_valid(&cycle, pos, dir, end, self.cfg.max_path_len)
            || cycle[pos] != self.st.id
        {
            return;
        }
        if self.st.parent == from {
            self.st.distance = dist.saturating_add(1);
            self.st.recompute_derived();
        }
        let mut exclude = vec![from];
        if pos != end {
            let nxt_i = (pos as i32 + dir as i32) as usize;
            let nxt = cycle[nxt_i];
            if self.st.is_neighbor(nxt) {
                out.send(
                    nxt,
                    Msg::DistChain {
                        cycle: cycle.clone(),
                        pos: nxt_i,
                        dir,
                        end,
                        dist: self.st.distance,
                    },
                );
                exclude.push(nxt);
            }
        }
        self.flood_dist_to_children(&exclude, out);
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
        self.flood_dist_to_children(&[from], out);
    }

    /// Send `DistFlood` to all (mirror-)children except `exclude`.
    fn flood_dist_to_children(&self, exclude: &[NodeId], out: &mut Outbox<Msg>) {
        for u in self.st.children() {
            if !exclude.contains(&u) {
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
            if self.st.deblock_cooldown.get(&my_id).copied().unwrap_or(0) == 0 {
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
        if self.st.deblock_cooldown.get(&idblock).copied().unwrap_or(0) > 0 {
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
        let id = self.st.id;
        let nbrs = self.st.neighbors.clone();
        for u in nbrs {
            if id < u && !self.st.is_tree_edge(u) && u != idblock {
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
        let nbrs = self.st.neighbors.clone();
        for u in nbrs {
            if Some(u) == skip || !self.st.is_tree_edge(u) {
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

    /// A Remove with a stale dmax snapshot must be dropped before commit.
    #[test]
    fn stale_remove_is_dropped() {
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(
            0,
            (0, 3),
            3,
            1,
            2,
            vec![0, 1, 2, 3],
            99, // stale
            0,
            0,
            1,
            &mut out,
        );
        assert!(out.is_empty());
    }

    /// Corrupt Remove geometry (pos past commit node) is dropped.
    #[test]
    fn corrupt_remove_geometry_dropped() {
        let mut n = crate::MdstNode::new(2, &[1, 3], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(1, (0, 3), 3, 1, 2, vec![0, 1, 2, 3], 0, 0, 0, 2, &mut out);
        assert!(out.is_empty());
    }

    /// A z index not adjacent to w is corrupt and dropped.
    #[test]
    fn corrupt_z_index_dropped() {
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        let mut out = Outbox::new();
        n.handle_remove(0, (0, 3), 3, 1, 3, vec![0, 1, 2, 3], 0, 0, 0, 1, &mut out);
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
            n.st.nbr.insert(
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

    #[test]
    fn flip_interior_reorients_and_forwards() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        // Cycle [0,1,2,3] reversed toward index 0; node 1 at pos 1.
        n.handle_flip(vec![0, 1, 2, 3], 1, -1, 0, 2, 5, 3, &mut out);
        assert_eq!(n.st.parent, 0, "interior flip adopts the next-to-terminal");
        let drained = out.messages().to_vec();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 0);
        assert!(matches!(drained[0].1, Msg::Flip { pos: 0, .. }));
        assert!(n.st.busy > 0, "flip marks the region busy");
    }

    #[test]
    fn flip_terminal_adopts_anchor_and_starts_chain() {
        let mut n = stabilized_mid();
        let mut out = Outbox::new();
        // Terminal at pos==end==1, arc origin 2 lies beyond: chain goes to 2.
        // Anchor must be a neighbor (0 here).
        n.handle_flip(vec![2, 1, 2], 1, -1, 1, 2, 9, 0, &mut out);
        assert_eq!(n.st.parent, 0);
        assert_eq!(n.st.distance, 10);
        let drained = out.messages().to_vec();
        assert!(drained
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, Msg::DistChain { .. })));
    }

    #[test]
    fn flip_with_non_neighbor_anchor_is_dropped() {
        let mut n = stabilized_mid();
        let before = n.st.parent;
        let mut out = Outbox::new();
        n.handle_flip(vec![9, 1], 1, -1, 1, 1, 4, 9, &mut out);
        assert_eq!(n.st.parent, before);
        assert!(out.is_empty());
    }
}
