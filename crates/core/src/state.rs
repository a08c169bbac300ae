//! Per-node protocol state and the paper's predicates (§3.1).
//!
//! In the send/receive atomicity model every node keeps a *mirror* of each
//! neighbor's variables ([`NbrView`]), refreshed by `InfoMsg`; all predicates
//! are evaluated against the mirrors, never against live remote state.
//!
//! Layout: the mirrors are a `Vec` aligned with the sorted neighbor list —
//! `nbr[i]` is the mirror of `neighbors[i]` — so the predicates are single
//! linear passes with no per-neighbor lookups, and a step allocates nothing.

use crate::NodeId;

/// Mirrored copy of one neighbor's advertised variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbrView {
    /// Neighbor's root estimate.
    pub root: NodeId,
    /// Neighbor's parent pointer.
    pub parent: NodeId,
    /// Neighbor's distance-to-root estimate.
    pub distance: u32,
    /// Neighbor's `dmax` (tree max-degree estimate).
    pub dmax: u32,
    /// Neighbor's own tree degree.
    pub deg: u32,
    /// Neighbor's aggregated subtree max degree (PIF feedback value).
    pub subtree_max: u32,
    /// Neighbor's color bit (dmax-agreement witness).
    pub color: bool,
}

impl NbrView {
    /// A blank mirror used before the first `InfoMsg` arrives (and by the
    /// corruption adversary).
    pub fn unknown(of: NodeId) -> Self {
        NbrView {
            root: of,
            parent: of,
            distance: 0,
            dmax: 0,
            deg: 0,
            subtree_max: 0,
            color: false,
        }
    }
}

/// A small map from node id to a countdown, stored as a `Vec` sorted by
/// id. The throttle tables hold at most δ (search) or a handful (deblock)
/// entries, so a sorted `Vec` beats a tree map. Iteration is in key
/// order, which executions depend on: `corrupt` draws one random value per
/// entry in that order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cooldowns(Vec<(NodeId, u32)>);

impl Cooldowns {
    /// Number of entries (oracle T4 counts them).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn find(&self, key: NodeId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The countdown stored for `key`, if any.
    pub fn get(&self, key: NodeId) -> Option<u32> {
        self.find(key).ok().map(|i| self.0[i].1)
    }

    /// Set the countdown for `key`, inserting it if absent.
    pub(crate) fn insert(&mut self, key: NodeId, value: u32) {
        match self.find(key) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    /// The countdown for `key`, first inserting `value` if absent.
    pub(crate) fn get_or_insert(&mut self, key: NodeId, value: u32) -> &mut u32 {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (key, value));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Every countdown, in key order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.0.iter_mut().map(|(_, c)| c)
    }

    /// Keep only the entries for which `keep(key, countdown)` holds.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(NodeId, u32) -> bool) {
        self.0.retain(|&(k, c)| keep(k, c));
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// The local variables of the paper (§3.1) plus derived values and
/// throttling counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    /// This node's identifier (also its unique ID for tie-breaking).
    pub id: NodeId,
    /// Sorted neighbor list, kept in sync with the live topology by the
    /// simulator's topology-change hook (edge churn, crashes, rejoins).
    pub neighbors: Vec<NodeId>,

    // ------ the paper's variables ------
    /// `root_v`: ID of the believed tree root.
    pub root: NodeId,
    /// `parent_v`: parent pointer (== `id` iff self-rooted).
    pub parent: NodeId,
    /// `distance_v`: hop distance to the root along parents.
    pub distance: u32,
    /// `dmax_v`: local estimate of `deg(T)`.
    pub dmax: u32,
    /// `deg_v`: own tree degree (derived from parents, cached).
    pub deg: u32,
    /// `color_tree_v`: true iff `dmax` agreed with all mirrors when last
    /// recomputed.
    pub color: bool,
    /// PIF feedback: max tree degree in this node's subtree (incl. self).
    pub subtree_max: u32,

    /// Distance ceiling (≈ n + 2): a valid tree never produces distances at
    /// or above it, so root claims carried with such distances are fake
    /// (they can only originate in parent cycles) and must not be adopted.
    pub dist_ceiling: u32,

    // ------ mirrors ------
    /// Neighbor mirrors: `nbr[i]` mirrors `neighbors[i]` (same length,
    /// same order).
    pub nbr: Vec<NbrView>,

    // ------ throttles (not part of the verified state) ------
    /// Remaining ticks before re-launching a `Search` per non-tree neighbor.
    pub search_cooldown: Cooldowns,
    /// Remaining ticks ignoring repeated `Deblock` floods per blocking id.
    pub deblock_cooldown: Cooldowns,
    /// Remaining ticks during which this node refuses to relay *new*
    /// `Remove` requests because an improvement is already moving through
    /// it. Serializes overlapping improvements (whose flips would otherwise
    /// cross and corrupt the tree) while leaving vertex-disjoint
    /// improvements fully concurrent — the paper's concurrency claim.
    pub busy: u32,
    /// Search launches performed so far; feeds the deterministic cooldown
    /// jitter that de-synchronizes retries (a perfectly periodic retry
    /// schedule can replay the same improvement collision forever under
    /// the synchronous daemon).
    pub launch_counter: u64,
}

impl NodeState {
    /// Fresh post-reset state: self-rooted, no tree edges believed.
    pub fn new(id: NodeId, neighbors: &[NodeId]) -> Self {
        NodeState {
            id,
            neighbors: neighbors.to_vec(),
            root: id,
            parent: id,
            distance: 0,
            dmax: 0,
            deg: 0,
            color: false,
            subtree_max: 0,
            dist_ceiling: u32::MAX,
            nbr: neighbors.iter().map(|&u| NbrView::unknown(u)).collect(),
            search_cooldown: Cooldowns::default(),
            deblock_cooldown: Cooldowns::default(),
            busy: 0,
            launch_counter: 0,
        }
    }

    /// Replace the neighbor list (topology churn): mirrors of staying
    /// neighbors are kept, new neighbors get blank mirrors, and mirrors and
    /// search cooldowns of departed neighbors are dropped.
    pub(crate) fn set_neighbors(&mut self, neighbors: &[NodeId]) {
        let old = std::mem::replace(&mut self.neighbors, neighbors.to_vec());
        let old_nbr = std::mem::take(&mut self.nbr);
        self.nbr = neighbors
            .iter()
            .map(|&u| match old.binary_search(&u) {
                Ok(i) => old_nbr[i],
                Err(_) => NbrView::unknown(u),
            })
            .collect();
        self.search_cooldown
            .retain(|u, _| neighbors.binary_search(&u).is_ok());
    }

    /// Position of neighbor `u` in `neighbors` (and of its mirror in
    /// `nbr`), or `None` if `u` is not a neighbor.
    pub(crate) fn mirror_index(&self, u: NodeId) -> Option<usize> {
        self.neighbors.binary_search(&u).ok()
    }

    /// Mirror of neighbor `u` (blank if somehow missing — mirrors of
    /// non-neighbors are never consulted).
    pub fn view(&self, u: NodeId) -> NbrView {
        match self.mirror_index(u) {
            Some(i) => self.nbr[i],
            None => NbrView::unknown(u),
        }
    }

    /// Whether `u` is a topological neighbor.
    pub fn is_neighbor(&self, u: NodeId) -> bool {
        self.mirror_index(u).is_some()
    }

    /// Neighbors paired with their mirrors, in ascending id order.
    fn mirrors(&self) -> impl Iterator<Item = (NodeId, &NbrView)> + '_ {
        debug_assert_eq!(self.neighbors.len(), self.nbr.len());
        self.neighbors.iter().copied().zip(&self.nbr)
    }

    // ---------- the paper's predicates (§3.1) ----------

    /// `is_tree_edge(v, u)`: `{v,u}` is a tree edge iff either end points
    /// its parent at the other.
    pub fn is_tree_edge(&self, u: NodeId) -> bool {
        self.mirror_index(u)
            .is_some_and(|i| self.is_tree_edge_at(i))
    }

    /// [`Self::is_tree_edge`] for `neighbors[i]`, without the lookup.
    pub(crate) fn is_tree_edge_at(&self, i: usize) -> bool {
        self.parent == self.neighbors[i] || self.nbr[i].parent == self.id
    }

    /// Children according to the mirrors: neighbors whose parent is me.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.mirrors()
            .filter(move |(_, v)| v.parent == self.id)
            .map(|(u, _)| u)
    }

    /// `better_parent(v)`: some neighbor advertises a strictly smaller root
    /// *with a plausible distance*. The distance filter rejects fake roots
    /// circulating in parent cycles, whose distances grow without bound —
    /// without it, rule R1 re-adopts a cycle partner the moment R2 resets
    /// a member, and the cycle never dies.
    pub fn better_parent(&self) -> bool {
        self.adoptable_parent().is_some()
    }

    /// The best adoptable parent candidate (smallest advertised root, ties
    /// by ID) whose root beats ours and whose distance is in range.
    pub fn adoptable_parent(&self) -> Option<NodeId> {
        self.adoptable_index().map(|i| self.neighbors[i])
    }

    /// [`Self::adoptable_parent`] as an index into `neighbors`.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub(crate) fn adoptable_index(&self) -> Option<usize> {
        let mut best: Option<(NodeId, usize)> = None;
        for (i, v) in self.nbr.iter().enumerate() {
            // Neighbors come in ascending id order, so a strict `<` on the
            // root keeps the smallest id among equal roots.
            if v.root < self.root
                && v.distance < self.dist_ceiling
                && best.map_or(true, |(root, _)| v.root < root)
            {
                best = Some((v.root, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// `coherent_parent(v)`: parent is me or a neighbor with my root.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn coherent_parent(&self) -> bool {
        if self.parent == self.id {
            // A self-rooted node must claim its own ID as root, and must not
            // believe a root larger than itself (it could do better alone).
            // These two guards close the classic phantom-root hole of
            // min-ID election under arbitrary corruption.
            self.root == self.id
        } else {
            self.mirror_index(self.parent)
                .is_some_and(|i| self.root == self.nbr[i].root && self.root <= self.id)
        }
    }

    /// `coherent_distance(v)`: distance is parent's + 1 (0 when self-rooted).
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn coherent_distance(&self) -> bool {
        if self.parent == self.id {
            self.distance == 0
        } else {
            self.distance == self.view(self.parent).distance.saturating_add(1)
        }
    }

    /// `new_root_candidate(v)` — rule R2's guard (strict form).
    pub fn new_root_candidate_strict(&self) -> bool {
        !self.coherent_parent() || !self.coherent_distance()
    }

    /// `tree_stabilized(v)` under the gentle rule: no better parent, parent
    /// coherent, and every neighbor shares my root (the last conjunct makes
    /// the predicate `false` while the min-root flood is still in progress,
    /// which is what freezes the reduction module during tree churn). When
    /// every neighbor shares my root none advertises a smaller one, so the
    /// root check alone also settles "no better parent".
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn tree_stabilized(&self) -> bool {
        self.coherent_parent()
            && self.coherent_distance()
            && self.nbr.iter().all(|v| v.root == self.root)
    }

    /// `degree_stabilized(v)`: all mirrors agree with my `dmax`.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn degree_stabilized(&self) -> bool {
        self.nbr.iter().all(|v| v.dmax == self.dmax)
    }

    /// `color_stabilized(v)`: all mirrors carry my color bit.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn color_stabilized(&self) -> bool {
        self.nbr.iter().all(|v| v.color == self.color)
    }

    /// `locally_stabilized(v)` — the freeze guard for modules 3 and 4: the
    /// conjunction of the three predicates above, in one pass over the
    /// mirrors.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn locally_stabilized(&self) -> bool {
        self.coherent_parent()
            && self.coherent_distance()
            && self
                .nbr
                .iter()
                .all(|v| v.root == self.root && v.dmax == self.dmax && v.color == self.color)
    }

    /// Recompute the derived variables (`deg`, `subtree_max`, `dmax`,
    /// `color`) from own pointers and mirrors. Called after every mirror or
    /// parent update; O(δ): one pass over the mirrors, with no lookups.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub fn recompute_derived(&mut self) {
        let mut deg = 0;
        let mut sub = 0;
        // A parent that is not a neighbor reads as a blank mirror: dmax 0.
        let mut parent_dmax = 0;
        // All mirrors agree with the new dmax iff their range is within it;
        // an empty range (lo = MAX, hi = 0) agrees with anything.
        let (mut lo, mut hi) = (u32::MAX, 0);
        for (u, v) in self.mirrors() {
            let child = v.parent == self.id;
            if child || self.parent == u {
                deg += 1;
            }
            if child {
                // PIF feedback: fold children's subtree_max.
                sub = sub.max(v.subtree_max);
            }
            if self.parent == u {
                parent_dmax = v.dmax;
            }
            lo = lo.min(v.dmax);
            hi = hi.max(v.dmax);
        }
        self.deg = deg;
        self.subtree_max = sub.max(deg);
        // PIF propagation: the root folds, everyone else inherits.
        self.dmax = if self.parent == self.id {
            self.subtree_max
        } else {
            parent_dmax
        };
        self.color = lo >= self.dmax && hi <= self.dmax;
    }

    /// Overwrite the mirror of neighbor `u` (tests that stage a state).
    #[cfg(test)]
    pub(crate) fn set_view(&mut self, u: NodeId, v: NbrView) {
        let i = self.mirror_index(u).expect("set_view of a non-neighbor");
        self.nbr[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node path 0 - 1 - 2 viewed from node 1, with a coherent tree
    /// rooted at 0.
    fn mid_node() -> NodeState {
        let mut s = NodeState::new(1, &[0, 2]);
        s.root = 0;
        s.parent = 0;
        s.distance = 1;
        s.set_view(
            0,
            NbrView {
                root: 0,
                parent: 0,
                distance: 0,
                dmax: 2,
                deg: 1,
                subtree_max: 2,
                color: true,
            },
        );
        s.set_view(
            2,
            NbrView {
                root: 0,
                parent: 1,
                distance: 2,
                dmax: 2,
                deg: 1,
                subtree_max: 1,
                color: true,
            },
        );
        s.dmax = 2;
        s.color = true;
        s
    }

    #[test]
    fn fresh_state_is_self_rooted() {
        let s = NodeState::new(3, &[1, 5]);
        assert_eq!(s.root, 3);
        assert_eq!(s.parent, 3);
        assert!(s.coherent_parent());
        assert!(s.coherent_distance());
        assert_eq!(s.deg, 0);
    }

    #[test]
    fn tree_edges_from_both_directions() {
        let s = mid_node();
        assert!(s.is_tree_edge(0)); // my parent
        assert!(s.is_tree_edge(2)); // 2's parent is me
        assert!(!s.is_tree_edge(7)); // not even a neighbor
        assert_eq!(s.children().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn coherent_mid_node_is_stabilized() {
        let mut s = mid_node();
        s.recompute_derived();
        assert_eq!(s.deg, 2);
        assert_eq!(s.subtree_max, 2); // max(own 2, child's 1)
        assert_eq!(s.dmax, 2); // inherited from parent mirror
        assert!(s.tree_stabilized());
        assert!(s.degree_stabilized());
        assert!(s.locally_stabilized());
    }

    #[test]
    fn better_parent_detected() {
        let mut s = mid_node();
        s.root = 1; // believes a worse root than neighbor 0's
        s.parent = 1;
        s.distance = 0;
        assert!(s.better_parent());
        assert!(!s.tree_stabilized());
    }

    #[test]
    fn phantom_root_guard() {
        // Self-rooted node claiming a root that is not its own ID.
        let mut s = NodeState::new(4, &[1]);
        s.root = 0; // phantom: no neighbor advertises 0 either
        assert!(!s.coherent_parent()); // so the gentle guard fires
        assert!(s.new_root_candidate_strict());
    }

    #[test]
    fn root_larger_than_own_id_is_incoherent() {
        let mut s = NodeState::new(1, &[0, 2]);
        s.root = 5;
        s.parent = 2;
        s.set_view(
            2,
            NbrView {
                root: 5,
                ..NbrView::unknown(2)
            },
        );
        // Parent agrees on root 5, but 1 < 5 means 1 would be a better root.
        assert!(!s.coherent_parent());
    }

    #[test]
    fn distance_incoherence_gentle_vs_strict() {
        let mut s = mid_node();
        s.distance = 7; // wrong (parent is at 0)
        assert!(!s.coherent_distance());
        assert!(s.new_root_candidate_strict());
        // The gentle guard is parent incoherence alone: it stays off.
        assert!(s.coherent_parent());
    }

    #[test]
    fn dmax_disagreement_clears_color_and_freeze() {
        let mut s = mid_node();
        let mut v = s.view(2);
        v.dmax = 5;
        s.set_view(2, v);
        s.recompute_derived();
        assert!(!s.degree_stabilized());
        assert!(!s.color);
        assert!(!s.locally_stabilized());
    }

    #[test]
    fn root_folds_subtree_max() {
        // Node 0 as root of the 3-path, child 1 reporting subtree_max 2.
        let mut s = NodeState::new(0, &[1]);
        s.set_view(
            1,
            NbrView {
                root: 0,
                parent: 0,
                distance: 1,
                dmax: 0,
                deg: 2,
                subtree_max: 2,
                color: true,
            },
        );
        s.recompute_derived();
        assert_eq!(s.deg, 1);
        assert_eq!(s.subtree_max, 2);
        assert_eq!(s.dmax, 2); // root: dmax = subtree_max
    }

    #[test]
    fn view_of_unknown_neighbor_is_blank() {
        let s = NodeState::new(0, &[1]);
        assert_eq!(s.view(9), NbrView::unknown(9));
    }

    #[test]
    fn cooldowns_keep_key_order_and_one_entry_per_key() {
        let mut c = Cooldowns::default();
        c.insert(7, 1);
        c.insert(2, 5);
        *c.get_or_insert(4, 3) += 1;
        assert_eq!(*c.get_or_insert(7, 9), 1, "existing entry kept");
        c.insert(2, 6);
        assert_eq!(c.len(), 3);
        assert_eq!(c.values_mut().map(|v| *v).collect::<Vec<_>>(), [6, 4, 1]);
        c.retain(|k, _| k != 4);
        assert_eq!((c.get(2), c.get(4), c.get(7)), (Some(6), None, Some(1)));
    }

    /// The keyed forms the flat predicates replaced: every neighbor looked
    /// up through `view(u)`, one pass per conjunct.
    mod keyed {
        use super::*;

        pub fn derived(s: &NodeState) -> (u32, u32, u32, bool) {
            let deg = s
                .neighbors
                .iter()
                .filter(|&&u| s.parent == u || s.view(u).parent == s.id)
                .count() as u32;
            let mut sub = deg;
            for &c in s.neighbors.iter().filter(|&&u| s.view(u).parent == s.id) {
                sub = sub.max(s.view(c).subtree_max);
            }
            let dmax = if s.parent == s.id {
                sub
            } else {
                s.view(s.parent).dmax
            };
            let color = s.neighbors.iter().all(|&u| s.view(u).dmax == dmax);
            (deg, sub, dmax, color)
        }

        pub fn adoptable_parent(s: &NodeState) -> Option<NodeId> {
            s.neighbors
                .iter()
                .copied()
                .filter(|&u| {
                    let v = s.view(u);
                    v.root < s.root && v.distance < s.dist_ceiling
                })
                .min_by_key(|&u| (s.view(u).root, u))
        }

        pub fn tree_stabilized(s: &NodeState) -> bool {
            adoptable_parent(s).is_none()
                && s.coherent_parent()
                && s.coherent_distance()
                && s.neighbors.iter().all(|&u| s.view(u).root == s.root)
        }

        pub fn locally_stabilized(s: &NodeState) -> bool {
            tree_stabilized(s)
                && s.neighbors.iter().all(|&u| s.view(u).dmax == s.dmax)
                && s.neighbors.iter().all(|&u| s.view(u).color == s.color)
        }
    }

    /// The flat single-pass predicates agree with the keyed reference on
    /// corrupted nodes of degree 1–6, including parents that are not
    /// neighbors.
    #[test]
    fn flat_predicates_match_keyed_reference() {
        use crate::{Config, MdstNode};
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        use ssmdst_sim::Corrupt;

        let mut stabilized = 0;
        for seed in 0..3_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let degree = 1 + (seed % 6) as usize;
            let id = rng.random_range(0..12);
            let mut pool: Vec<NodeId> = (0..12).filter(|&u| u != id).collect();
            pool.shuffle(&mut rng);
            let mut nbrs = pool[..degree].to_vec();
            nbrs.sort_unstable();
            let mut node = MdstNode::new(id, &nbrs, Config::for_n(12));
            node.corrupt(&mut rng);
            let mut s = node.state().clone();
            // Pull part of the mirrors into agreement so the stabilization
            // predicates also meet states where they hold.
            if seed % 3 == 0 {
                s.root = s.view(s.parent).root.min(s.id);
                s.distance = s.view(s.parent).distance.saturating_add(1);
                for v in &mut s.nbr {
                    if rng.random_bool(0.9) {
                        (v.root, v.dmax, v.color) = (s.root, s.dmax, s.color);
                    }
                }
            }
            if seed % 7 == 0 {
                s.parent = 12 + (seed % 5) as NodeId; // never a neighbor
            }

            assert_eq!(
                s.adoptable_parent(),
                keyed::adoptable_parent(&s),
                "seed {seed}"
            );
            assert_eq!(
                s.tree_stabilized(),
                keyed::tree_stabilized(&s),
                "seed {seed}"
            );
            let locally = s.locally_stabilized();
            assert_eq!(locally, keyed::locally_stabilized(&s), "seed {seed}");
            stabilized += locally as u32;

            let want = keyed::derived(&s);
            s.recompute_derived();
            assert_eq!((s.deg, s.subtree_max, s.dmax, s.color), want, "seed {seed}");
            if !s.is_neighbor(s.parent) && s.parent != s.id {
                assert_eq!(s.dmax, 0, "seed {seed}: a non-neighbor parent reads dmax 0");
            }
        }
        assert!(stabilized > 50, "only {stabilized} stabilized states met");
    }
}
