//! The pending-event queue behind the event-driven runner.
//!
//! A round's obligations are *one tick per enabled node* plus *one delivery
//! per message in flight at round start*. The old runner recomputed that
//! set by scanning every node and every channel (`O(n + #channels)` per
//! round even when almost nothing was happening); this queue derives it
//! from two incremental indices instead — and since the flat-fabric
//! refactor, neither index performs a single ordered-tree operation or
//! heap allocation at steady state:
//!
//! * the **tick index** ([`EventQueue::ticks`]): the set of nodes that are
//!   alive and whose [`Automaton::enabled`] predicate holds, kept in an
//!   O(1)-transition [`DenseSet`]. It is refreshed from the network's
//!   dirty-node list — only nodes whose state actually changed since the
//!   previous round are re-evaluated;
//! * the network's **occupancy index**: the non-empty channel slots,
//!   snapshot in `O(#obligations)` straight off the fabric's swap-remove
//!   occupancy list.
//!
//! Both snapshots land in reusable scratch buffers and are sorted there
//! (ticks by node id, deliveries by slot id — which on a static topology
//! is exactly `(from, to)` lexicographic order, the canonical enumeration
//! the daemons key against). The per-round cost is `O(k log k)` in the
//! round's own obligation count `k`, never in `n` or `#channels`.
//!
//! Each obligation is assigned a daemon-specific priority key
//! ([`crate::scheduler::KeySource`]) at enumeration time and the batch is
//! executed in ascending `(key, enumeration index)` order — fully
//! deterministic per `(scheduler, seed)`.

use crate::automaton::Automaton;
use crate::dense::DenseSet;
use crate::network::Network;
use crate::scheduler::{Action, KeySource};
use crate::NodeId;

/// One pending event: daemon priority key, enumeration index (total-order
/// tie-break), and the action itself.
type Pending = (u128, u32, Action);

/// Incremental obligation tracker + per-round pending-event buffers (all
/// reused round to round — the steady-state loop never allocates).
pub(crate) struct EventQueue {
    /// Alive nodes whose `enabled()` predicate held at last refresh.
    ticks: DenseSet,
    /// Reusable buffer for the current round's keyed events.
    buf: Vec<Pending>,
    /// Scratch: this round's tick set, sorted by node id.
    tick_scratch: Vec<NodeId>,
    /// Scratch: this round's occupied slots, sorted by slot id.
    slot_scratch: Vec<u32>,
    /// Scratch: dirty nodes drained from the network.
    dirty_scratch: Vec<NodeId>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            ticks: DenseSet::new(),
            buf: Vec::new(),
            tick_scratch: Vec::new(),
            slot_scratch: Vec::new(),
            dirty_scratch: Vec::new(),
        }
    }

    /// Re-evaluate the enabled-tick predicate for every node the network
    /// marked dirty since the last call.
    // lint: hot-path
    pub(crate) fn refresh<A: Automaton>(&mut self, net: &mut Network<A>) {
        net.take_dirty_into(&mut self.dirty_scratch);
        for &v in &self.dirty_scratch {
            if net.is_alive(v) && net.node(v).enabled() {
                self.ticks.insert(v);
            } else {
                self.ticks.remove(v);
            }
        }
    }

    /// Build this round's pending events (canonical enumeration order:
    /// ticks ascending by node id, then channel deliveries ascending by
    /// slot id) and hand them back sorted into daemon execution order.
    // lint: hot-path
    pub(crate) fn schedule<A: Automaton>(
        &mut self,
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) -> &[Pending] {
        self.buf.clear();
        self.tick_scratch.clear();
        self.tick_scratch.extend_from_slice(self.ticks.members());
        self.tick_scratch.sort_unstable();
        let mut seq = 0u32;
        for &v in &self.tick_scratch {
            let a = Action::Tick(v);
            self.buf.push((keys.key(round, &a), seq, a));
            seq += 1;
        }
        net.occupied_slots_into(&mut self.slot_scratch);
        self.slot_scratch.sort_unstable();
        for &s in &self.slot_scratch {
            let (from, to) = net.slot_endpoints(s);
            let a = Action::Deliver(from, to);
            for _ in 0..net.slot_len(s) {
                self.buf.push((keys.key(round, &a), seq, a));
                seq += 1;
            }
        }
        self.buf.sort_unstable_by_key(|e| (e.0, e.1));
        &self.buf
    }

    /// Like [`EventQueue::schedule`], but enumerating obligations the
    /// pre-engine way — full scans over all nodes and all channel slots.
    /// Same obligations, same keys, same execution order; only the
    /// discovery cost differs. The test oracle for the incremental tick and
    /// occupancy indices.
    #[cfg(test)]
    pub(crate) fn schedule_rescan<A: Automaton>(
        &mut self,
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) -> &[Pending] {
        self.buf.clear();
        let mut seq = 0u32;
        for v in 0..net.n() as NodeId {
            if net.is_alive(v) && net.node(v).enabled() {
                let a = Action::Tick(v);
                self.buf.push((keys.key(round, &a), seq, a));
                seq += 1;
            }
        }
        for s in 0..net.slot_count() as u32 {
            let len = net.slot_len(s);
            if len == 0 {
                continue;
            }
            let (from, to) = net.slot_endpoints(s);
            let a = Action::Deliver(from, to);
            for _ in 0..len {
                self.buf.push((keys.key(round, &a), seq, a));
                seq += 1;
            }
        }
        self.buf.sort_unstable_by_key(|e| (e.0, e.1));
        &self.buf
    }

    /// Current number of enabled ticks (for diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn enabled_ticks(&self) -> usize {
        self.ticks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Message, Outbox};
    use crate::scheduler::Scheduler;
    use ssmdst_graph::graph::graph_from_edges;

    /// Automaton whose enabled predicate is a toggle, to exercise the
    /// dirty-flag path.
    #[derive(Debug)]
    struct Gate {
        neighbors: Vec<NodeId>,
        open: bool,
    }

    #[derive(Debug, Clone)]
    struct Unit;
    impl Message for Unit {
        fn kind(&self) -> &'static str {
            "Unit"
        }
        fn size_bits(&self, _n: usize) -> usize {
            1
        }
    }

    impl Automaton for Gate {
        type Msg = Unit;
        fn tick(&mut self, out: &mut Outbox<Unit>) {
            for &w in &self.neighbors {
                out.send(w, Unit);
            }
        }
        fn receive(&mut self, _: NodeId, _: Unit, _: &mut Outbox<Unit>) {}
        fn enabled(&self) -> bool {
            self.open
        }
        fn on_topology_change(&mut self, neighbors: &[NodeId]) {
            self.neighbors = neighbors.to_vec();
        }
    }

    fn net(open: bool) -> Network<Gate> {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        Network::from_graph(&g, |_, nbrs| Gate {
            neighbors: nbrs.to_vec(),
            open,
        })
    }

    #[test]
    fn tick_index_tracks_enabled_predicate() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        assert_eq!(q.enabled_ticks(), 3);
        // Disable node 1; the network marks it dirty through node_mut.
        n.node_mut(1).open = false;
        q.refresh(&mut n);
        assert_eq!(q.enabled_ticks(), 2);
        n.node_mut(1).open = true;
        q.refresh(&mut n);
        assert_eq!(q.enabled_ticks(), 3);
    }

    #[test]
    fn crashed_nodes_leave_the_tick_index() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        n.crash_node(2);
        q.refresh(&mut n);
        assert_eq!(q.enabled_ticks(), 2);
        n.rejoin_node(2);
        q.refresh(&mut n);
        assert_eq!(q.enabled_ticks(), 3);
    }

    #[test]
    fn indexed_and_rescan_schedules_agree() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        n.tick_node(0);
        n.tick_node(1);
        q.refresh(&mut n);
        for sched in [Scheduler::Synchronous, Scheduler::Adversarial { seed: 3 }] {
            let mut k1 = KeySource::new(sched);
            let mut k2 = KeySource::new(sched);
            let a = q.schedule(5, &mut k1, &n).to_vec();
            let b = q.schedule_rescan(5, &mut k2, &n).to_vec();
            assert_eq!(a, b, "engines disagree under {sched:?}");
            assert_eq!(a.len(), 3 + 3, "3 ticks + 3 in-flight messages");
        }
    }

    #[test]
    fn schedules_agree_after_churn_recycles_slots() {
        // Slot recycling reorders slot ids relative to (from,to); both
        // enumeration paths must still agree event for event.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut n = Network::from_graph(&g, |_, nbrs| Gate {
            neighbors: nbrs.to_vec(),
            open: true,
        });
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        n.remove_edge(1, 2);
        n.insert_edge(0, 2); // reuses the tombstoned slots
        n.tick_node(0);
        n.tick_node(2);
        q.refresh(&mut n);
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 9 },
            Scheduler::Adversarial { seed: 9 },
        ] {
            let mut k1 = KeySource::new(sched);
            let mut k2 = KeySource::new(sched);
            let a = q.schedule(2, &mut k1, &n).to_vec();
            let b = q.schedule_rescan(2, &mut k2, &n).to_vec();
            assert_eq!(a, b, "engines disagree under {sched:?} after churn");
        }
    }

    /// What the determinism contract promises about same-round ordering.
    ///
    /// Promised: the *execution* order — and hence the chained digest —
    /// is a pure function of the keyed event set. `(key, seq)` pairs are
    /// unique, so the final sort is a total order: however the pending
    /// buffer is permuted before sorting, sorting restores the identical
    /// schedule.
    #[test]
    fn execution_order_is_a_pure_function_of_the_keyed_event_set() {
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, SeedableRng};
        let mut n = net(true);
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        n.tick_node(0);
        n.tick_node(1);
        q.refresh(&mut n);
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 11 },
            Scheduler::Adversarial { seed: 11 },
        ] {
            let mut k = KeySource::new(sched);
            let reference = q.schedule(3, &mut k, &n).to_vec();
            // (key, seq) is unique per event…
            let mut ks: Vec<(u128, u32)> = reference.iter().map(|&(k, s, _)| (k, s)).collect();
            ks.sort_unstable();
            ks.dedup();
            assert_eq!(
                ks.len(),
                reference.len(),
                "(key, seq) collision under {sched:?}"
            );
            // …so any permutation of the keyed set re-sorts to the
            // identical schedule, and the digest chained over execution
            // is invariant.
            for shuffle_seed in 0..4u64 {
                let mut permuted = reference.clone();
                permuted.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
                permuted.sort_unstable_by_key(|e| (e.0, e.1));
                assert_eq!(reference, permuted, "re-sort diverged under {sched:?}");
                assert_eq!(
                    digest_of(&reference),
                    digest_of(&permuted),
                    "digest diverged under {sched:?}"
                );
            }
        }
    }

    /// Fold an execution order into the replay digest, the way a
    /// `ScheduleDigest` observer chains what actually ran.
    fn digest_of(events: &[Pending]) -> u64 {
        let mut d = crate::trace::Digest::new();
        for &(_, _, a) in events {
            match a {
                Action::Tick(v) => {
                    d.write_u32(0);
                    d.write_u32(v);
                }
                Action::Deliver(f, t) => {
                    d.write_u32(1);
                    d.write_u32(f);
                    d.write_u32(t);
                }
            }
        }
        d.value()
    }

    /// Re-derive the same obligations as [`EventQueue::schedule`] but
    /// request daemon keys in *reverse* enumeration order (seq still
    /// records canonical positions, so ties break identically).
    fn reversed_enumeration<A: Automaton>(
        q: &EventQueue,
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) -> Vec<Pending> {
        let mut actions: Vec<Action> = Vec::new();
        let mut ticks: Vec<NodeId> = q.ticks.members().to_vec();
        ticks.sort_unstable();
        for &v in &ticks {
            actions.push(Action::Tick(v));
        }
        let mut slots = Vec::new();
        net.occupied_slots_into(&mut slots);
        slots.sort_unstable();
        for &s in &slots {
            let (from, to) = net.slot_endpoints(s);
            for _ in 0..net.slot_len(s) {
                actions.push(Action::Deliver(from, to));
            }
        }
        let mut buf: Vec<Pending> = Vec::with_capacity(actions.len());
        for (i, a) in actions.iter().enumerate().rev() {
            buf.push((keys.key(round, a), i as u32, *a));
        }
        buf.sort_unstable_by_key(|e| (e.0, e.1));
        buf
    }

    /// What the contract deliberately does NOT promise: invariance to the
    /// *enumeration* (key-request) order. The stateless daemons key each
    /// action by a pure function of `(round, action)`, so they tolerate
    /// any enumeration order; `RandomAsync` draws each key from a seeded
    /// stream — the i-th request gets the i-th draw — so reversing the
    /// enumeration reassigns every key and the schedule legitimately
    /// changes. That is exactly why obligation enumeration must be
    /// canonical (ticks ascending by node id, deliveries ascending by
    /// slot id) and why R1 bans unordered collections in derivation code.
    #[test]
    fn enumeration_order_is_contractual_only_for_the_stateful_daemon() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        q.refresh(&mut n);
        n.tick_node(0);
        n.tick_node(1);
        q.refresh(&mut n);
        let actions_of = |evs: &[Pending]| evs.iter().map(|&(_, _, a)| a).collect::<Vec<_>>();
        for sched in [Scheduler::Synchronous, Scheduler::Adversarial { seed: 7 }] {
            let mut k1 = KeySource::new(sched);
            let canonical = q.schedule(2, &mut k1, &n).to_vec();
            let mut k2 = KeySource::new(sched);
            let reversed = reversed_enumeration(&q, 2, &mut k2, &n);
            assert_eq!(
                actions_of(&canonical),
                actions_of(&reversed),
                "stateless daemon {sched:?} must tolerate any enumeration order"
            );
        }
        let mut k1 = KeySource::new(Scheduler::RandomAsync { seed: 7 });
        let canonical = q.schedule(2, &mut k1, &n).to_vec();
        let mut k2 = KeySource::new(Scheduler::RandomAsync { seed: 7 });
        let reversed = reversed_enumeration(&q, 2, &mut k2, &n);
        assert_ne!(
            actions_of(&canonical),
            actions_of(&reversed),
            "a stateful daemon keyed in a different enumeration order must diverge \
             (if it did not, the canonical-order rule would be unnecessary)"
        );
    }
}
