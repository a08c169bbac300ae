//! The network: automata + directed FIFO channels over a dynamic topology,
//! laid out as a **flat, slot-addressed message fabric**.
//!
//! Every directed edge `(v, w)` owns a dense **slot id** (taken from the
//! host graph's CSR view, [`ssmdst_graph::Graph::slot_of`]); the FIFO
//! channel for `(v, w)` is simply `channels[slot]`. No ordered map sits on
//! the send/deliver path:
//!
//! * **addressing** — sends and deliveries resolve `(from, to)` to a slot
//!   by binary search inside `from`'s contiguous neighbor row (`O(log δ)`,
//!   one cache line for typical degrees), then index `channels[slot]`
//!   directly; the engine *enumerates* delivery obligations straight off
//!   the occupancy index's slot list, so discovery never searches at all;
//! * an **occupancy index** (`DenseSet`, `sim/src/dense.rs`): the unordered
//!   list of slots whose channel is non-empty, with a per-slot position
//!   table so every empty↔non-empty transition is a swap-remove — O(1),
//!   allocation-free, no tree rebalancing (the old `BTreeSet` paid
//!   `O(log m)` and a node allocation per transition);
//! * a **dirty-node list**: every node whose automaton state may have
//!   changed since the engine last looked (tick, receive, fault injection,
//!   topology change) is queued exactly once, so the engine re-evaluates
//!   [`Automaton::enabled`] only where something happened.
//!
//! At steady state the round loop (tick → send → deliver → dirty-mark)
//! performs **zero heap allocations**: the per-step [`Outbox`] and all
//! engine buffers are reused, and channel deques keep their capacity. The
//! `tests/zero_alloc.rs` suite at the workspace root pins this down with a
//! counting allocator.
//!
//! **Dynamic topology**: [`Network::remove_edge`], [`Network::insert_edge`],
//! [`Network::crash_node`], [`Network::rejoin_node`] mutate the live
//! topology between rounds. A removed channel's slot becomes a
//! **tombstone** — its deque is cleared and the slot id parked on a free
//! list for the next insertion — so churn never shifts other channels'
//! addresses and never touches an ordered map. Messages in flight on a
//! removed channel are lost (link failure loses traffic), and once any
//! churn has occurred, sends addressed to a departed neighbor are counted
//! in [`Metrics::dropped_sends`] and dropped instead of panicking — an
//! automaton acting on a stale neighbor mirror is expected behavior in the
//! churn regime, and self-stabilization is exactly the property that
//! recovers from it.

use crate::automaton::{Automaton, Message, Outbox};
use crate::dense::DenseSet;
use crate::metrics::Metrics;
use crate::NodeId;
use ssmdst_graph::Graph;
use std::collections::VecDeque;

/// A network of `n` automata connected by reliable FIFO channels, one pair
/// per undirected edge of the (current) host topology.
///
/// Invariants enforced at runtime (catching protocol bugs early):
/// * nodes may only send to their one-hop neighbors (the paper's locality);
///   on a static topology a violation panics, after topology churn it is
///   accounted as a dropped send,
/// * channels deliver in FIFO order and never drop messages on their own —
///   loss happens only through explicit fault injection or edge removal.
///
/// [`Network::check_invariants`] audits the full accounting (occupancy,
/// in-flight totals, slot liveness, dirty flags) and is exercised after
/// every mutation by the fabric property tests.
pub struct Network<A: Automaton> {
    nodes: Vec<A>,
    /// Sorted neighbor list per node (empty while crashed).
    topo: Vec<Vec<NodeId>>,
    /// Slot id of the outgoing channel `(v, topo[v][i])`, aligned with
    /// `topo` — the O(1)-maintained mirror of the graph's CSR slot map.
    out_slot: Vec<Vec<u32>>,
    /// Liveness mask: crashed nodes take no steps and hold no channels.
    alive: Vec<bool>,
    /// One FIFO queue per directed-edge slot (tombstoned slots stay empty).
    channels: Vec<VecDeque<A::Msg>>,
    /// `(from, to)` endpoints per slot; meaningful only while the slot is
    /// live.
    slot_ends: Vec<(NodeId, NodeId)>,
    /// Whether each slot currently backs a live channel.
    slot_live: Vec<bool>,
    /// Tombstoned slots recycled by edge removal / crashes.
    free_slots: Vec<u32>,
    /// Occupancy index: slots with a non-empty channel, O(1) transitions.
    occ: DenseSet,
    in_flight: usize,
    /// Dirty-node tracking for the incremental enabled-tick index.
    dirty_flag: Vec<bool>,
    dirty: Vec<NodeId>,
    /// Scratch outbox reused by every atomic step (zero-alloc round loop).
    outbox: Outbox<A::Msg>,
    /// Scratch slot buffer reused by occupancy-driven bulk operations.
    slot_scratch: Vec<u32>,
    /// Neighbor lists at crash time, for [`Network::rejoin_node`]; indexed
    /// by node id, empty unless the node is crashed (or holds a handed-over
    /// record from an overlapping crash).
    crash_edges: Vec<Vec<NodeId>>,
    /// Whether any topology churn has occurred (relaxes the locality panic).
    dynamic: bool,
    /// Metrics accumulated across the run.
    pub metrics: Metrics,
}

impl<A: Automaton> Network<A> {
    /// Build a network over `g`; `make(v, neighbors)` constructs node `v`'s
    /// automaton (typically capturing the neighbor list and an arbitrary —
    /// possibly corrupted — initial state). Channel slots are assigned
    /// straight from `g`'s CSR view: slot ids are `0..2m`, lexicographic in
    /// `(from, to)`.
    pub fn from_graph(g: &Graph, mut make: impl FnMut(NodeId, &[NodeId]) -> A) -> Self {
        let n = g.n();
        let slots = g.directed_slots();
        let mut topo = Vec::with_capacity(n);
        let mut out_slot = Vec::with_capacity(n);
        let mut slot_ends = Vec::with_capacity(slots);
        let mut channels = Vec::with_capacity(slots);
        for v in g.nodes() {
            topo.push(g.neighbors(v).to_vec());
            let start = g.row_start(v);
            out_slot.push((start..start + g.degree(v) as u32).collect::<Vec<u32>>());
            for &w in g.neighbors(v) {
                debug_assert_eq!(g.slot_of(v, w), Some(slot_ends.len() as u32));
                slot_ends.push((v, w));
                channels.push(VecDeque::new());
            }
        }
        let nodes = (0..n as u32).map(|v| make(v, g.neighbors(v))).collect();
        Network {
            nodes,
            topo,
            out_slot,
            alive: vec![true; n],
            channels,
            slot_ends,
            slot_live: vec![true; slots],
            free_slots: Vec::new(),
            occ: DenseSet::new(),
            in_flight: 0,
            dirty_flag: vec![true; n],
            dirty: (0..n as NodeId).collect(),
            outbox: Outbox::new(),
            slot_scratch: Vec::new(),
            crash_edges: vec![Vec::new(); n],
            dynamic: false,
            metrics: Metrics::new(),
        }
    }

    /// Number of nodes (including crashed ones; ids are stable).
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable view of node `v`'s automaton (for oracles and observers).
    pub fn node(&self, v: NodeId) -> &A {
        &self.nodes[v as usize]
    }

    /// Mutable access — used by fault injection. Marks the node dirty so
    /// the engine re-evaluates its enabled predicate.
    pub fn node_mut(&mut self, v: NodeId) -> &mut A {
        self.mark_dirty(v);
        &mut self.nodes[v as usize]
    }

    /// All automata, index == node id (crashed nodes keep their last state).
    pub fn nodes(&self) -> &[A] {
        &self.nodes
    }

    /// Neighbors of `v` in the current topology (empty while crashed).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.topo[v as usize]
    }

    /// Whether node `v` is currently alive (not crashed).
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v as usize]
    }

    /// Ids of the currently-alive nodes, ascending.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as NodeId).filter(move |&v| self.alive[v as usize])
    }

    /// Number of currently-alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Connected components of the live topology (alive nodes, current
    /// edges), each sorted ascending, ordered by smallest member — the
    /// one traversal every component-wise judge shares (`core::churn`,
    /// the scenario protocol registry), so alive/neighbor semantics can
    /// never drift between them.
    pub fn live_components(&self) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; self.n()];
        let mut comps = Vec::new();
        for s in self.alive_nodes() {
            if seen[s as usize] {
                continue;
            }
            let mut comp = vec![s];
            seen[s as usize] = true;
            let mut i = 0;
            while i < comp.len() {
                let v = comp[i];
                i += 1;
                // Crashed nodes are already unlinked from every neighbor
                // row, so the row walk stays within the live subgraph.
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        comp.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Slot id of the `from → to` channel, if it exists: binary search in
    /// `from`'s sorted neighbor row, then O(1) into the aligned slot table.
    #[inline]
    fn slot_of(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let row = self.topo.get(from as usize)?;
        row.binary_search(&to)
            .ok()
            .map(|i| self.out_slot[from as usize][i])
    }

    /// Messages currently queued on the `from → to` channel.
    pub fn channel_len(&self, from: NodeId, to: NodeId) -> usize {
        self.slot_of(from, to)
            .map(|s| self.channels[s as usize].len())
            .unwrap_or(0)
    }

    /// Total undelivered messages.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total directed-edge slots ever allocated (live + tombstoned) —
    /// the fabric's address-space size, `2m` on a static topology.
    pub fn slot_count(&self) -> usize {
        self.channels.len()
    }

    /// Directed edges with a non-empty channel, sorted by `(from, to)` —
    /// read from the occupancy index in `O(k log k)` of its own size `k`.
    pub fn nonempty_channels(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = self
            .occ
            .members()
            .iter()
            .map(|&s| self.slot_ends[s as usize])
            .collect();
        v.sort_unstable();
        v
    }

    /// Snapshot the occupied slot ids into `out` (allocation-free once
    /// `out` has warmed up; unordered — the engine sorts by slot id).
    pub(crate) fn occupied_slots_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.occ.members());
    }

    /// Endpoints of a live slot (engine-internal, O(1)).
    #[inline]
    pub(crate) fn slot_endpoints(&self, s: u32) -> (NodeId, NodeId) {
        self.slot_ends[s as usize]
    }

    /// Queue length of a slot (engine-internal, O(1)).
    #[inline]
    pub(crate) fn slot_len(&self, s: u32) -> usize {
        self.channels[s as usize].len()
    }

    /// The same answer as [`Network::nonempty_channels`], computed by a
    /// full scan over every channel slot: the oracle the fabric tests
    /// check the incremental occupancy index against (the two must always
    /// agree).
    pub fn scan_nonempty_channels(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = (0..self.channels.len())
            .filter(|&s| !self.channels[s].is_empty())
            .map(|s| self.slot_ends[s])
            .collect();
        v.sort_unstable();
        v
    }

    /// Nodes touched since the last call (state changed, crashed, rejoined,
    /// or re-wired), each at most once, ascending order not guaranteed.
    /// Engine-internal: the runner drains this to maintain its tick index.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.take_dirty_into(&mut out);
        out
    }

    /// Allocation-free form of [`Network::take_dirty`]: swaps the dirty
    /// list into `out` (clearing it first), so the two buffers ping-pong
    /// between caller and network and no round allocates.
    pub(crate) fn take_dirty_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        std::mem::swap(&mut self.dirty, out);
        for &v in out.iter() {
            self.dirty_flag[v as usize] = false;
        }
    }

    /// Queue `v` for enabled-predicate re-evaluation (idempotent).
    fn mark_dirty(&mut self, v: NodeId) {
        if !self.dirty_flag[v as usize] {
            self.dirty_flag[v as usize] = true;
            self.dirty.push(v);
        }
    }

    /// Run one spontaneous atomic step at `v` and route its sends. No-op on
    /// a crashed node.
    pub fn tick_node(&mut self, v: NodeId) {
        if !self.alive[v as usize] {
            return;
        }
        let mut out = std::mem::take(&mut self.outbox);
        self.nodes[v as usize].tick(&mut out);
        self.mark_dirty(v);
        self.route(v, &mut out);
        self.outbox = out;
    }

    /// Deliver the head of the `from → to` channel (one receive atomic
    /// step). Returns `false` if the channel was empty.
    pub fn deliver_one(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some(slot) = self.slot_of(from, to) else {
            panic!("deliver_one: ({from},{to}) is not a channel"); // lint: allow(no-panic-in-library) — documented precondition: callers enumerate live channels
        };
        let Some(msg) = self.channels[slot as usize].pop_front() else {
            return false;
        };
        if self.channels[slot as usize].is_empty() {
            self.occ.remove(slot);
        }
        self.in_flight -= 1;
        self.metrics.on_deliver(msg.kind());
        let mut out = std::mem::take(&mut self.outbox);
        self.nodes[to as usize].receive(from, msg, &mut out);
        self.mark_dirty(to);
        self.route(to, &mut out);
        self.outbox = out;
        true
    }

    /// Move an outbox into channels, enforcing locality and recording
    /// metrics. Pure index arithmetic: slot lookup + O(1) occupancy
    /// transition per message, no map, no allocation.
    fn route(&mut self, from: NodeId, out: &mut Outbox<A::Msg>) {
        let n = self.nodes.len();
        for (to, msg) in out.drain() {
            let Some(slot) = self.slot_of(from, to) else {
                if self.dynamic {
                    // A stale mirror naming a departed neighbor: the send is
                    // lost, exactly like a message on a just-removed link.
                    self.metrics.dropped_sends += 1;
                    continue;
                }
                panic!("node {from} sent to non-neighbor {to}"); // lint: allow(no-panic-in-library) — protocol bug trap on static topologies; dynamic runs drop instead
            };
            self.metrics.on_send(msg.kind(), msg.size_bits(n));
            let q = &mut self.channels[slot as usize];
            if q.is_empty() {
                self.occ.insert(slot);
            }
            q.push_back(msg);
            self.in_flight += 1;
        }
        self.metrics.on_in_flight(self.in_flight);
    }

    // ------------------------------------------------------------------
    // Dynamic topology (slot tombstones, no map churn)
    // ------------------------------------------------------------------

    fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        self.topo[u as usize].binary_search(&v).is_ok()
    }

    /// Allocate a channel slot for `(u, v)`: pop a tombstone or grow the
    /// arrays by one.
    fn add_channel(&mut self, u: NodeId, v: NodeId) -> u32 {
        match self.free_slots.pop() {
            Some(s) => {
                debug_assert!(self.channels[s as usize].is_empty());
                debug_assert!(!self.slot_live[s as usize]);
                self.slot_ends[s as usize] = (u, v);
                self.slot_live[s as usize] = true;
                s
            }
            None => {
                // Index-width contract (checked builds): slot ids are u32;
                // growth past `u32::MAX` would wrap every later slot address.
                debug_assert!(
                    self.channels.len() < u32::MAX as usize,
                    "slot id overflows u32"
                );
                self.channels.push(VecDeque::new());
                self.slot_ends.push((u, v));
                self.slot_live.push(true);
                (self.channels.len() - 1) as u32
            }
        }
    }

    /// Tombstone a slot: drop its traffic, free its id for reuse.
    fn free_slot(&mut self, s: u32) {
        self.in_flight -= self.channels[s as usize].len();
        self.channels[s as usize].clear();
        self.occ.remove(s);
        self.slot_live[s as usize] = false;
        self.free_slots.push(s);
    }

    /// Record `(u, v, slot)` in `u`'s sorted neighbor row.
    fn attach(&mut self, u: NodeId, v: NodeId, slot: u32) {
        let list = &mut self.topo[u as usize];
        match list.binary_search(&v) {
            Err(pos) => {
                list.insert(pos, v);
                self.out_slot[u as usize].insert(pos, slot);
            }
            Ok(_) => debug_assert!(false, "attach({u},{v}): link already present"),
        }
    }

    /// Remove `v` from `u`'s neighbor row; returns the channel slot that
    /// backed `u → v`, if the link existed.
    fn detach(&mut self, u: NodeId, v: NodeId) -> Option<u32> {
        let list = &mut self.topo[u as usize];
        match list.binary_search(&v) {
            Ok(pos) => {
                list.remove(pos);
                Some(self.out_slot[u as usize].remove(pos))
            }
            Err(_) => None,
        }
    }

    /// Fire the topology-change hook on an alive node and mark it dirty.
    fn notify_topology(&mut self, v: NodeId) {
        if self.alive[v as usize] {
            let nbrs = std::mem::take(&mut self.topo[v as usize]);
            self.nodes[v as usize].on_topology_change(&nbrs);
            self.topo[v as usize] = nbrs;
            self.mark_dirty(v);
        }
    }

    fn in_range(&self, v: NodeId) -> bool {
        (v as usize) < self.nodes.len()
    }

    /// Remove the undirected edge `{u, v}` from the live topology. Messages
    /// in flight on either direction are lost. Returns `false` if the edge
    /// does not currently exist (including out-of-range endpoints).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.in_range(u) || !self.in_range(v) || !self.has_link(u, v) {
            return false;
        }
        self.dynamic = true;
        if let Some(s) = self.detach(u, v) {
            self.free_slot(s);
        }
        if let Some(s) = self.detach(v, u) {
            self.free_slot(s);
        }
        self.notify_topology(u);
        self.notify_topology(v);
        true
    }

    /// Insert the undirected edge `{u, v}` (fresh empty channels both
    /// ways, recycling tombstoned slots when available). Returns `false`
    /// if the edge already exists, `u == v`, either endpoint is out of
    /// range, or either endpoint is crashed.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let n = self.nodes.len() as NodeId;
        if u == v || u >= n || v >= n || self.has_link(u, v) {
            return false;
        }
        if !self.alive[u as usize] || !self.alive[v as usize] {
            return false;
        }
        self.dynamic = true;
        let s_uv = self.add_channel(u, v);
        self.attach(u, v, s_uv);
        let s_vu = self.add_channel(v, u);
        self.attach(v, u, s_vu);
        self.notify_topology(u);
        self.notify_topology(v);
        true
    }

    /// Crash node `v`: all incident edges (and their channels) disappear,
    /// the node stops taking steps, and its automaton state is frozen
    /// as-is. Surviving neighbors get their topology-change hook. Returns
    /// `false` if already crashed or out of range.
    pub fn crash_node(&mut self, v: NodeId) -> bool {
        if !self.in_range(v) || !self.alive[v as usize] {
            return false;
        }
        self.dynamic = true;
        let nbrs = std::mem::take(&mut self.topo[v as usize]);
        let slots = std::mem::take(&mut self.out_slot[v as usize]);
        for s in slots {
            self.free_slot(s); // v → u channels
        }
        for &u in &nbrs {
            if let Some(s) = self.detach(u, v) {
                self.free_slot(s); // u → v channels
            }
        }
        self.crash_edges[v as usize] = nbrs.clone();
        self.alive[v as usize] = false;
        self.mark_dirty(v);
        for &u in &nbrs {
            self.notify_topology(u);
        }
        true
    }

    /// Rejoin a crashed node: edges to its crash-time neighbors that are
    /// currently alive are restored with empty channels, and the node
    /// resumes stepping **with whatever stale state it crashed with** — to
    /// the protocol this is one more transient fault to stabilize out of.
    /// An edge whose other endpoint is *still* crashed is deferred: it is
    /// re-recorded against that endpoint and comes back when the later of
    /// the two rejoins, so overlapping crashes lose no edges regardless of
    /// rejoin order. Returns `false` if the node is not crashed (or out of
    /// range).
    pub fn rejoin_node(&mut self, v: NodeId) -> bool {
        if !self.in_range(v) || self.alive[v as usize] {
            return false;
        }
        self.dynamic = true;
        self.alive[v as usize] = true;
        let olds = std::mem::take(&mut self.crash_edges[v as usize]);
        for u in olds {
            if self.alive[u as usize] {
                if !self.has_link(v, u) {
                    let s_vu = self.add_channel(v, u);
                    self.attach(v, u, s_vu);
                    let s_uv = self.add_channel(u, v);
                    self.attach(u, v, s_uv);
                    self.notify_topology(u);
                }
            } else {
                // `u` crashed after `v` and so never recorded this edge
                // (it was already detached); hand the record over.
                let rec = &mut self.crash_edges[u as usize];
                if !rec.contains(&v) {
                    rec.push(v);
                }
            }
        }
        self.notify_topology(v);
        true
    }

    /// Snapshot of the current live topology as an immutable [`Graph`].
    /// Crashed nodes appear as isolated vertices (ids are stable).
    pub fn current_graph(&self) -> Graph {
        // The rows are kept sorted, unique and symmetric, i.e. a CSR.
        Graph::from_sorted_rows(self.topo.iter().map(|row| row.iter().copied()))
    }

    // ------------------------------------------------------------------
    // Channel-level fault injection
    // ------------------------------------------------------------------

    /// Fault injection: erase all channel contents (an arbitrary initial
    /// configuration includes arbitrary — here, empty — channel states).
    /// Driven off the occupancy index: O(#non-empty channels).
    pub fn clear_channels(&mut self) {
        let mut scratch = std::mem::take(&mut self.slot_scratch);
        self.occupied_slots_into(&mut scratch);
        for &s in &scratch {
            self.channels[s as usize].clear();
        }
        self.occ.clear();
        self.in_flight = 0;
        self.slot_scratch = scratch;
    }

    /// Fault injection: drop each in-flight message independently with
    /// probability `p` (transient corruption of channel contents; FIFO
    /// order of survivors is preserved).
    ///
    /// Driven off the occupancy index — O(#non-empty channels + #messages),
    /// never a walk over every (possibly tombstoned) slot. The non-empty
    /// channels are visited in `(from, to)` order; since empty channels
    /// never consumed RNG draws, this reproduces the draw sequence of the
    /// old full-scan implementation, so per-seed outcomes are unchanged.
    pub fn drop_in_flight<R: rand::Rng>(&mut self, p: f64, rng: &mut R) {
        let mut scratch = std::mem::take(&mut self.slot_scratch);
        self.occupied_slots_into(&mut scratch);
        scratch.sort_unstable_by_key(|&s| self.slot_ends[s as usize]);
        for &s in &scratch {
            let c = &mut self.channels[s as usize];
            let before = c.len();
            c.retain(|_| rng.random::<f64>() >= p);
            self.in_flight -= before - c.len();
            if c.is_empty() {
                self.occ.remove(s);
            }
        }
        self.slot_scratch = scratch;
    }

    // ------------------------------------------------------------------
    // Accounting audit
    // ------------------------------------------------------------------

    /// Audit every fabric invariant; panics with a description on the
    /// first violation. O(n + #slots + #messages) — meant for debug builds
    /// and the property tests, which call it after every mutation:
    ///
    /// * `in_flight` equals the sum of all channel lengths;
    /// * the occupancy index holds exactly the non-empty channels, and its
    ///   internal position table is consistent;
    /// * adjacency rows are sorted, symmetric, slot-aligned, and every
    ///   live slot is owned by exactly one directed edge;
    /// * tombstoned slots are empty, dead, and on the free list exactly
    ///   once;
    /// * the dirty list and the `dirty_flag` mask agree, with no node
    ///   queued twice;
    /// * crashed nodes have no neighbors and no slots.
    pub fn check_invariants(&self) {
        let n = self.nodes.len();
        let slots = self.channels.len();
        assert_eq!(self.slot_ends.len(), slots, "slot_ends length");
        assert_eq!(self.slot_live.len(), slots, "slot_live length");
        // Adjacency ↔ slot tables.
        let mut owned = vec![false; slots];
        for v in 0..n {
            assert_eq!(
                self.topo[v].len(),
                self.out_slot[v].len(),
                "node {v}: topo/out_slot misaligned"
            );
            assert!(
                self.topo[v].windows(2).all(|w| w[0] < w[1]),
                "node {v}: neighbor row not strictly sorted"
            );
            if !self.alive[v] {
                assert!(self.topo[v].is_empty(), "crashed node {v} has neighbors");
            }
            for (i, &w) in self.topo[v].iter().enumerate() {
                let s = self.out_slot[v][i] as usize;
                assert!(self.slot_live[s], "edge ({v},{w}) maps to dead slot {s}");
                assert!(!owned[s], "slot {s} owned by two edges");
                owned[s] = true;
                assert_eq!(
                    self.slot_ends[s],
                    (v as NodeId, w),
                    "slot {s} endpoint mismatch"
                );
                assert!(
                    self.topo[w as usize].binary_search(&(v as NodeId)).is_ok(),
                    "edge ({v},{w}) not symmetric"
                );
            }
        }
        // Slot liveness, tombstones, free list.
        for (s, &is_owned) in owned.iter().enumerate() {
            assert_eq!(
                is_owned, self.slot_live[s],
                "slot {s}: liveness/ownership mismatch"
            );
            if !self.slot_live[s] {
                assert!(
                    self.channels[s].is_empty(),
                    "tombstoned slot {s} holds messages"
                );
            }
        }
        let free: std::collections::BTreeSet<u32> = self.free_slots.iter().copied().collect();
        assert_eq!(
            free.len(),
            self.free_slots.len(),
            "free list has duplicates"
        );
        for &s in &self.free_slots {
            assert!(!self.slot_live[s as usize], "live slot {s} on free list");
        }
        let dead = slots - owned.iter().filter(|&&b| b).count();
        assert_eq!(free.len(), dead, "free list does not cover all tombstones");
        // Occupancy and in-flight accounting.
        let mut total = 0usize;
        for s in 0..slots {
            let len = self.channels[s].len();
            total += len;
            assert_eq!(
                self.occ.contains(s as u32),
                len > 0,
                "occupancy wrong for slot {s} (len {len})"
            );
        }
        assert_eq!(self.in_flight, total, "in_flight out of sync");
        self.occ.check_consistent();
        // Dirty tracking.
        let mut queued = vec![false; n];
        for &v in &self.dirty {
            assert!(!queued[v as usize], "node {v} queued dirty twice");
            queued[v as usize] = true;
        }
        for (v, &q) in queued.iter().enumerate() {
            assert_eq!(self.dirty_flag[v], q, "dirty flag mismatch at node {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::graph::graph_from_edges;

    /// Echo automaton: tick sends a counter to all neighbors; receive
    /// remembers the largest value seen.
    #[derive(Debug)]
    struct Echo {
        neighbors: Vec<NodeId>,
        counter: u32,
        best_seen: u32,
    }

    #[derive(Debug, Clone)]
    struct Num(u32);
    impl Message for Num {
        fn kind(&self) -> &'static str {
            "Num"
        }
        fn size_bits(&self, _n: usize) -> usize {
            32
        }
    }

    impl Automaton for Echo {
        type Msg = Num;
        fn tick(&mut self, out: &mut Outbox<Num>) {
            self.counter += 1;
            for &w in &self.neighbors {
                out.send(w, Num(self.counter));
            }
        }
        fn receive(&mut self, _from: NodeId, msg: Num, _out: &mut Outbox<Num>) {
            self.best_seen = self.best_seen.max(msg.0);
        }
        fn on_topology_change(&mut self, neighbors: &[NodeId]) {
            self.neighbors = neighbors.to_vec();
        }
    }

    fn echo_net() -> Network<Echo> {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        Network::from_graph(&g, |_, nbrs| Echo {
            neighbors: nbrs.to_vec(),
            counter: 0,
            best_seen: 0,
        })
    }

    #[test]
    fn tick_routes_to_all_neighbors() {
        let mut net = echo_net();
        net.tick_node(1);
        assert_eq!(net.channel_len(1, 0), 1);
        assert_eq!(net.channel_len(1, 2), 1);
        assert_eq!(net.in_flight(), 2);
        assert_eq!(net.metrics.total_sent, 2);
        net.check_invariants();
    }

    #[test]
    fn deliver_is_fifo() {
        let mut net = echo_net();
        net.tick_node(0); // sends Num(1) to 1
        net.tick_node(0); // sends Num(2) to 1
        assert_eq!(net.channel_len(0, 1), 2);
        assert!(net.deliver_one(0, 1));
        assert_eq!(net.node(1).best_seen, 1); // FIFO: first sent, first seen
        assert!(net.deliver_one(0, 1));
        assert_eq!(net.node(1).best_seen, 2);
        assert!(!net.deliver_one(0, 1)); // empty now
        assert_eq!(net.metrics.total_delivered, 2);
        net.check_invariants();
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        // Automaton that (wrongly) messages node 2 from node 0.
        struct Bad;
        impl Automaton for Bad {
            type Msg = Num;
            fn tick(&mut self, out: &mut Outbox<Num>) {
                out.send(2, Num(0));
            }
            fn receive(&mut self, _: NodeId, _: Num, _: &mut Outbox<Num>) {}
        }
        let mut net = Network::from_graph(&g, |_, _| Bad);
        net.tick_node(0);
    }

    #[test]
    fn clear_channels_resets_in_flight() {
        let mut net = echo_net();
        net.tick_node(1);
        assert_eq!(net.in_flight(), 2);
        net.clear_channels();
        assert_eq!(net.in_flight(), 0);
        assert!(net.nonempty_channels().is_empty());
        net.check_invariants();
    }

    #[test]
    fn drop_in_flight_with_p_one_drops_all() {
        let mut net = echo_net();
        net.tick_node(1);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        net.drop_in_flight(1.0, &mut rng);
        assert_eq!(net.in_flight(), 0);
        assert!(net.nonempty_channels().is_empty());
        net.check_invariants();
    }

    #[test]
    fn drop_in_flight_visits_channels_in_endpoint_order() {
        // Seed determinism across occupancy-index insertion orders: two
        // networks whose channels filled in different orders must consume
        // identical RNG streams (channel visit order is (from,to), not
        // occupancy order).
        use rand::SeedableRng;
        let fill = |first_zero: bool| {
            let mut net = echo_net();
            if first_zero {
                net.tick_node(0);
                net.tick_node(1);
            } else {
                net.tick_node(1);
                net.tick_node(0);
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(33);
            net.drop_in_flight(0.5, &mut rng);
            net.check_invariants();
            (net.in_flight(), net.nonempty_channels())
        };
        assert_eq!(fill(true), fill(false));
    }

    #[test]
    fn nonempty_channels_deterministic_order() {
        let mut net = echo_net();
        net.tick_node(1);
        net.tick_node(0);
        let ch = net.nonempty_channels();
        assert_eq!(ch, vec![(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn occupancy_index_matches_full_scan() {
        let mut net = echo_net();
        net.tick_node(0);
        net.tick_node(1);
        assert_eq!(net.nonempty_channels(), net.scan_nonempty_channels());
        net.deliver_one(0, 1);
        net.deliver_one(1, 0);
        net.deliver_one(1, 2);
        assert_eq!(net.nonempty_channels(), net.scan_nonempty_channels());
        assert!(net.nonempty_channels().is_empty());
    }

    #[test]
    fn peak_in_flight_tracked() {
        let mut net = echo_net();
        net.tick_node(1);
        net.tick_node(1);
        assert_eq!(net.metrics.peak_in_flight, 4);
    }

    #[test]
    fn remove_edge_loses_in_flight_messages() {
        let mut net = echo_net();
        net.tick_node(1); // messages on 1→0 and 1→2
        assert!(net.remove_edge(1, 2));
        assert_eq!(net.in_flight(), 1); // the 1→2 message is gone
        assert_eq!(net.channel_len(1, 2), 0);
        assert_eq!(net.neighbors(1), &[0]);
        assert_eq!(net.neighbors(2), &[] as &[NodeId]);
        assert!(!net.remove_edge(1, 2), "already removed");
        assert_eq!(net.nonempty_channels(), net.scan_nonempty_channels());
        net.check_invariants();
    }

    #[test]
    fn insert_edge_creates_working_channels() {
        let mut net = echo_net();
        assert!(net.insert_edge(0, 2));
        assert!(!net.insert_edge(0, 2), "duplicate");
        assert_eq!(net.neighbors(0), &[1, 2]);
        net.tick_node(0);
        assert_eq!(net.channel_len(0, 2), 1);
        assert!(net.deliver_one(0, 2));
        assert_eq!(net.node(2).best_seen, 1);
        net.check_invariants();
    }

    #[test]
    fn removed_slots_are_recycled_not_leaked() {
        let mut net = echo_net(); // 2 edges → 4 slots
        assert_eq!(net.slot_count(), 4);
        for _ in 0..10 {
            assert!(net.remove_edge(0, 1));
            assert!(net.insert_edge(0, 1));
            net.check_invariants();
        }
        // Tombstones were reused: the address space never grew.
        assert_eq!(net.slot_count(), 4);
        net.tick_node(0);
        assert!(net.deliver_one(0, 1), "recycled channel works");
    }

    #[test]
    fn stale_send_after_churn_is_dropped_not_fatal() {
        let g = graph_from_edges(2, &[(0, 1)]);
        // Automaton that keeps its captured neighbor list even when the
        // topology changes (no on_topology_change override).
        struct Stubborn;
        impl Automaton for Stubborn {
            type Msg = Num;
            fn tick(&mut self, out: &mut Outbox<Num>) {
                out.send(1, Num(0));
            }
            fn receive(&mut self, _: NodeId, _: Num, _: &mut Outbox<Num>) {}
        }
        let mut net = Network::from_graph(&g, |_, _| Stubborn);
        assert!(net.remove_edge(0, 1));
        net.tick_node(0); // sends to departed neighbor 1
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.metrics.dropped_sends, 1);
    }

    #[test]
    fn crash_isolates_and_rejoin_restores() {
        let mut net = echo_net();
        net.tick_node(0); // a message 0→1 in flight
        assert!(net.crash_node(1));
        assert!(!net.is_alive(1));
        assert_eq!(net.alive_count(), 2);
        assert_eq!(net.in_flight(), 0, "channels to/from crashed node gone");
        assert_eq!(net.neighbors(0), &[] as &[NodeId]);
        assert_eq!(net.neighbors(1), &[] as &[NodeId]);
        net.tick_node(1); // no-op while crashed
        assert_eq!(net.in_flight(), 0);
        net.check_invariants();

        assert!(net.rejoin_node(1));
        assert!(net.is_alive(1));
        assert_eq!(net.neighbors(1), &[0, 2]);
        assert_eq!(net.neighbors(0), &[1]);
        net.tick_node(1);
        assert_eq!(net.in_flight(), 2);
        assert!(!net.rejoin_node(1), "already alive");
        net.check_invariants();
    }

    #[test]
    fn rejoin_defers_edges_to_still_crashed_partners() {
        let mut net = echo_net();
        net.crash_node(0);
        net.crash_node(1);
        net.rejoin_node(1); // 0 still down: only edge {1,2} restored for now
        assert_eq!(net.neighbors(1), &[2]);
        net.rejoin_node(0);
        assert_eq!(net.neighbors(0), &[1]); // crash-time neighbor of 0
        assert_eq!(net.neighbors(1), &[0, 2]);
        net.check_invariants();
    }

    #[test]
    fn overlapping_crashes_restore_all_edges_in_either_rejoin_order() {
        // The later-crashing node never recorded the shared edge (its
        // partner was already detached), so the record must be handed over
        // when the earlier-crashed node rejoins first.
        let mut net = echo_net();
        net.crash_node(0);
        net.crash_node(1);
        net.rejoin_node(0); // 1 still down: {0,1} deferred onto 1's record
        assert_eq!(net.neighbors(0), &[] as &[NodeId]);
        net.rejoin_node(1);
        assert_eq!(net.neighbors(0), &[1]);
        assert_eq!(net.neighbors(1), &[0, 2]);
        let g = net.current_graph();
        assert_eq!(g.m(), 2, "original topology fully restored");
        net.check_invariants();
    }

    #[test]
    fn out_of_range_churn_is_a_noop_not_a_panic() {
        let mut net = echo_net(); // 3 nodes
        assert!(!net.remove_edge(99, 0));
        assert!(!net.insert_edge(0, 99));
        assert!(!net.crash_node(99));
        assert!(!net.rejoin_node(99));
    }

    #[test]
    fn current_graph_tracks_churn() {
        let mut net = echo_net();
        let g0 = net.current_graph();
        assert_eq!((g0.n(), g0.m()), (3, 2));
        net.remove_edge(0, 1);
        net.insert_edge(0, 2);
        let g1 = net.current_graph();
        assert_eq!(g1.m(), 2);
        assert!(g1.has_edge(0, 2));
        assert!(!g1.has_edge(0, 1));
    }

    #[test]
    fn dirty_list_reports_touched_nodes_once() {
        let mut net = echo_net();
        let initial = net.take_dirty();
        assert_eq!(initial.len(), 3, "everyone dirty at construction");
        assert!(net.take_dirty().is_empty());
        net.tick_node(1);
        net.tick_node(1);
        let d = net.take_dirty();
        assert_eq!(d, vec![1]);
        net.deliver_one(1, 0);
        let d = net.take_dirty();
        assert_eq!(d, vec![0]);
    }

    #[test]
    fn slots_match_graph_csr_on_construction() {
        let g = graph_from_edges(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        let net = Network::from_graph(&g, |_, nbrs| Echo {
            neighbors: nbrs.to_vec(),
            counter: 0,
            best_seen: 0,
        });
        assert_eq!(net.slot_count(), g.directed_slots());
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                assert_eq!(net.slot_of(v, w), g.slot_of(v, w));
            }
        }
        net.check_invariants();
    }
}
