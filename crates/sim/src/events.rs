//! The pending-event queue behind the round engine.
//!
//! A round's obligations are *one tick per enabled node* plus *one delivery
//! per message in flight at round start*. [`EventQueue::enumerate`] finds
//! them in one ascending pass: every node id in `0..n`, keeping those that
//! are alive and whose [`Automaton::enabled`] predicate holds, then every
//! channel slot in `0..slot_count`, one delivery per queued message. Under
//! the paper's `Do forever: send InfoMsg` loop every live node is enabled
//! and every live channel is occupied in every round, so the pass skips
//! next to nothing. Ticks come out by node id and deliveries by slot id,
//! which on a static topology is exactly `(from, to)` lexicographic order:
//! the canonical enumeration the daemons key against needs no sort of its
//! own.
//!
//! Each obligation is assigned a daemon-specific priority key
//! ([`crate::scheduler::KeySource`]) at enumeration time and recorded
//! twice: in a side table indexed by its enumeration index `seq` (key,
//! action, channel slot), and as one `u64` sort word ([`order_word`]):
//! the high bits of a monotone 64-bit image of the key, with `seq` in the
//! low `⌈lg (n + in_flight)⌉` bits. The round sorts the words, then one
//! linear pass re-sorts every run of words whose high parts tie by the
//! exact `(key, seq)` from the table. Words whose high parts differ
//! already ascend as `(key, seq)`, so the batch executes in exactly
//! ascending `(key, enumeration index)` order — fully deterministic per
//! `(scheduler, seed)`. Random and adversarial keys are uniform over 64
//! bits, so their ties are rare; synchronous keys arrive in canonical
//! order, so the word sort finds them sorted and every tied run is already
//! sorted too, and both passes stay linear.
//!
//! **Per-round cost**: `O(n + slots + k log k)` for a round of `k`
//! obligations — the ascending pass, then the word sort and its tie pass.
//! MDST ticks every live node and finds a message on every live channel,
//! so there `k ≥ n + slots` minus the crashed nodes and their tombstoned
//! slots, and the pass costs no more than keying what it finds.

use crate::automaton::Automaton;
use crate::network::Network;
use crate::scheduler::{order_word, Action, KeySource};
use crate::NodeId;

/// One obligation as the runner executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Obligation {
    /// Daemon priority key (what observers are shown).
    pub(crate) key: u128,
    pub(crate) action: Action,
    /// The channel slot a `Deliver` was enumerated from (`u32::MAX` for a
    /// `Tick`), so execution never searches for it again.
    pub(crate) slot: u32,
}

/// Per-round obligation buffers (all reused round to round — the
/// steady-state loop never allocates).
pub(crate) struct EventQueue {
    /// This round's sort words, one per obligation.
    words: Vec<u64>,
    /// The low bits of this round's words that hold `seq`:
    /// `2^⌈lg (n + in_flight)⌉ - 1`, room for every possible obligation.
    seq_mask: u64,
    /// This round's obligations, indexed by enumeration index.
    table: Vec<Obligation>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            words: Vec::new(),
            seq_mask: 0,
            table: Vec::new(),
        }
    }

    /// Enumerate this round's obligations in canonical order (ticks
    /// ascending by node id, then one delivery per queued message,
    /// ascending by slot id), key each one, and record its sort word.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub(crate) fn enumerate<A: Automaton>(
        &mut self,
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) {
        // Every obligation is an enabled tick or a queued message.
        self.start_round(net.n() + net.in_flight());
        for v in 0..net.n() as NodeId {
            if net.is_alive(v) && net.node(v).enabled() {
                self.push(keys.key(round, &Action::Tick(v)), Action::Tick(v), u32::MAX);
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
                self.push(keys.key(round, &a), a, s);
            }
        }
    }

    /// Empty the round's buffers and size `seq`'s field for at most
    /// `bound` obligations.
    fn start_round(&mut self, bound: usize) {
        self.words.clear();
        self.table.clear();
        self.seq_mask = (bound as u64).next_power_of_two() - 1;
    }

    #[inline]
    fn push(&mut self, key: u128, action: Action, slot: u32) {
        let seq = self.table.len() as u32;
        debug_assert!(u64::from(seq) & !self.seq_mask == 0, "seq {seq} overflows");
        self.words.push(order_word(key, seq, self.seq_mask));
        self.table.push(Obligation { key, action, slot });
    }

    /// Put the enumerated obligations into daemon execution order: sort
    /// the words, then re-sort each run whose high parts tie by the exact
    /// `(key, seq)`.
    // Allocation-free: tests/zero_alloc.rs meters it.
    pub(crate) fn sort(&mut self) {
        self.words.sort_unstable();
        let mask = self.seq_mask;
        let table = &self.table;
        for run in self.words.chunk_by_mut(|a, b| (a ^ b) & !mask == 0) {
            if run.len() > 1 {
                run.sort_unstable_by_key(|&w| (table[(w & mask) as usize].key, w));
            }
        }
    }

    /// The obligations with their enumeration indices, in the order of the
    /// sort words: execution order once [`EventQueue::sort`] has run.
    #[inline]
    pub(crate) fn ordered(&self) -> impl Iterator<Item = (u32, Obligation)> + '_ {
        let mask = self.seq_mask;
        self.words.iter().map(move |&w| {
            let seq = (w & mask) as u32;
            (seq, self.table[seq as usize])
        })
    }

    /// [`EventQueue::enumerate`] and [`EventQueue::sort`], collected.
    #[cfg(test)]
    pub(crate) fn schedule<A: Automaton>(
        &mut self,
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) -> Vec<(u32, Obligation)> {
        self.enumerate(round, keys, net);
        self.sort();
        self.ordered().collect()
    }
}

/// The same schedule as [`EventQueue::schedule`], with the `(key, seq)`
/// tuples sorted directly instead of the packed sort words and their tie
/// pass. Same obligations, same keys, same execution order; only the sort
/// differs. The test oracle for the sort words.
#[cfg(test)]
pub(crate) fn schedule_rescan<A: Automaton>(
    round: u64,
    keys: &mut KeySource,
    net: &Network<A>,
) -> Vec<(u32, Obligation)> {
    let mut keyed: Vec<(u128, u32, Obligation)> = Vec::new();
    let mut push = |key: u128, action: Action, slot: u32| {
        let seq = keyed.len() as u32;
        keyed.push((key, seq, Obligation { key, action, slot }));
    };
    for v in 0..net.n() as NodeId {
        if net.is_alive(v) && net.node(v).enabled() {
            let a = Action::Tick(v);
            push(keys.key(round, &a), a, u32::MAX);
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
            push(keys.key(round, &a), a, s);
        }
    }
    keyed.sort_unstable_by_key(|e| (e.0, e.1));
    keyed.into_iter().map(|(_, seq, ob)| (seq, ob)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Message, Outbox};
    use crate::scheduler::Scheduler;
    use ssmdst_graph::graph::graph_from_edges;

    /// Automaton whose enabled predicate is a toggle; any message it
    /// receives opens it.
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
        fn receive(&mut self, _: NodeId, _: Unit, _: &mut Outbox<Unit>) {
            self.open = true;
        }
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

    /// The nodes that round `round`'s schedule ticks, ascending.
    fn ticked(q: &mut EventQueue, round: u64, n: &Network<Gate>) -> Vec<NodeId> {
        let mut keys = KeySource::new(Scheduler::Synchronous);
        let mut ticks: Vec<NodeId> = q
            .schedule(round, &mut keys, n)
            .into_iter()
            .filter_map(|(_, ob)| match ob.action {
                Action::Tick(v) => Some(v),
                Action::Deliver(..) => None,
            })
            .collect();
        ticks.sort_unstable();
        ticks
    }

    /// The enabled predicate is read every round: a node disabled between
    /// rounds gets no tick in the next one, and re-enabling it, through
    /// `node_mut` or by a message it receives, brings the tick back with no
    /// other call.
    #[test]
    fn disabled_node_gets_no_tick_until_reenabled() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        assert_eq!(ticked(&mut q, 0, &n), [0, 1, 2]);
        n.node_mut(1).open = false;
        assert_eq!(ticked(&mut q, 1, &n), [0, 2]);
        n.node_mut(1).open = true;
        assert_eq!(ticked(&mut q, 2, &n), [0, 1, 2]);
        n.node_mut(1).open = false;
        assert_eq!(ticked(&mut q, 3, &n), [0, 2]);
        n.tick_node(0);
        assert!(n.deliver_one(0, 1), "the receipt re-opens node 1's gate");
        assert_eq!(ticked(&mut q, 4, &n), [0, 1, 2]);
    }

    /// A crashed node gets no tick and its channels no delivery; once it
    /// rejoins it ticks again.
    #[test]
    fn crashed_node_gets_no_tick_and_rejoined_one_does() {
        let mut n = net(true);
        let mut q = EventQueue::new();
        n.tick_node(1);
        n.tick_node(2);
        n.crash_node(2);
        assert_eq!(ticked(&mut q, 0, &n), [0, 1]);
        let mut keys = KeySource::new(Scheduler::Synchronous);
        let delivered: Vec<Action> = q
            .schedule(0, &mut keys, &n)
            .into_iter()
            .map(|(_, ob)| ob.action)
            .filter(|a| matches!(a, Action::Deliver(..)))
            .collect();
        assert_eq!(
            delivered,
            [Action::Deliver(1, 0)],
            "node 2's traffic is gone"
        );
        n.rejoin_node(2);
        assert_eq!(ticked(&mut q, 1, &n), [0, 1, 2]);
    }

    #[test]
    fn schedules_agree_after_churn_recycles_slots() {
        // Slot recycling reorders slot ids relative to (from,to); the word
        // sort and the tuple sort must still agree event for event.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut n = Network::from_graph(&g, |_, nbrs| Gate {
            neighbors: nbrs.to_vec(),
            open: true,
        });
        let mut q = EventQueue::new();
        n.remove_edge(1, 2);
        n.insert_edge(0, 2); // reuses the tombstoned slots
        n.tick_node(0);
        n.tick_node(2);
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 9 },
            Scheduler::Adversarial { seed: 9 },
        ] {
            let mut k1 = KeySource::new(sched);
            let mut k2 = KeySource::new(sched);
            let a = q.schedule(2, &mut k1, &n);
            let b = schedule_rescan(2, &mut k2, &n);
            assert_eq!(a, b, "sorts disagree under {sched:?} after churn");
        }
    }

    /// The sort words and their tie pass order a round exactly as the
    /// `(key, seq)` tuples do, for all three daemons, on a round that has
    /// synchronous delivery keys at or above `2^96`, channels holding
    /// several messages (equal keys, split only by `seq`) and slots
    /// recycled by churn. Recycling puts node 0's channel to 2 after its
    /// channel to 4 in slot order, and the two synchronous keys share their
    /// word's high part, so the word sort alone runs them in the wrong
    /// order and only the tie pass puts them right. The tuple sort over the
    /// side table, and the full-scan oracle, are the references.
    #[test]
    fn packed_words_sort_as_key_seq_tuples() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let mut n = Network::from_graph(&g, |_, nbrs| Gate {
            neighbors: nbrs.to_vec(),
            open: true,
        });
        let mut q = EventQueue::new();
        n.remove_edge(1, 2);
        n.remove_edge(3, 4);
        n.insert_edge(0, 2); // recycles the tombstoned slots
        n.insert_edge(1, 4);
        for v in [0, 2, 0, 4, 0, 1] {
            n.tick_node(v); // repeated ticks queue several messages per channel
        }
        assert!((0..5).any(|v| n.neighbors(v).iter().any(|&w| n.channel_len(v, w) >= 3)));
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 5 },
            Scheduler::Adversarial { seed: 5 },
        ] {
            let mut k1 = KeySource::new(sched);
            q.enumerate(4, &mut k1, &n);
            if sched == Scheduler::Synchronous {
                assert!(words_alone_misorder(&q), "no tie for the tie pass to fix");
            }
            let by_word = sorted_like_tuples(&mut q);
            let mut k2 = KeySource::new(sched);
            assert_eq!(by_word, schedule_rescan(4, &mut k2, &n), "{sched:?}");
            if sched == Scheduler::Synchronous {
                assert!(by_word.iter().any(|(_, ob)| ob.key >> 96 == 1));
            }
        }
        // Crafted keys, enumerated out of key order: keys whose high parts
        // tie but whose low bits differ, equal keys that only `seq` splits,
        // full-width keys, and synchronous delivery keys with extreme
        // endpoints.
        let deliver = |f: u32, t: u32| (1u128 << 96) | ((f as u128) << 32) | t as u128;
        let keys = [
            deliver(u32::MAX, u32::MAX),
            deliver(u32::MAX, u32::MAX - 1),
            deliver(0, 1),
            deliver(0, 0),
            deliver(0, 0),
            deliver(0, u32::MAX),
            u64::MAX as u128,
            u64::MAX as u128 - 1,
            7,
            6,
            5,
            5,
            4,
            1 << 32,
            0,
            0,
        ];
        q.start_round(keys.len());
        for (v, &key) in keys.iter().enumerate() {
            q.push(key, Action::Tick(v as NodeId), u32::MAX);
        }
        assert!(words_alone_misorder(&q), "no tie for the tie pass to fix");
        let by_word = sorted_like_tuples(&mut q);
        let keys_in_order: Vec<u128> = by_word.iter().map(|&(_, ob)| ob.key).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(keys_in_order, want);
    }

    /// Whether sorting the enumerated words alone, without the tie pass,
    /// would run some obligations out of `(key, seq)` order.
    fn words_alone_misorder(q: &EventQueue) -> bool {
        let mut words = q.words.clone();
        words.sort_unstable();
        let key = |w: u64| (q.table[(w & q.seq_mask) as usize].key, w & q.seq_mask);
        words.windows(2).any(|p| key(p[0]) > key(p[1]))
    }

    /// Sort the enumerated round, check that it runs in the order of the
    /// `(key, seq)` tuple sort over the side table, and return it.
    fn sorted_like_tuples(q: &mut EventQueue) -> Vec<(u32, Obligation)> {
        let mut tuples: Vec<(u128, u32, Obligation)> = q
            .table
            .iter()
            .enumerate()
            .map(|(seq, &ob)| (ob.key, seq as u32, ob))
            .collect();
        tuples.sort_unstable_by_key(|e| (e.0, e.1));
        let by_tuple: Vec<(u32, Obligation)> =
            tuples.into_iter().map(|(_, seq, ob)| (seq, ob)).collect();
        q.sort();
        let by_word: Vec<(u32, Obligation)> = q.ordered().collect();
        assert_eq!(by_word, by_tuple, "word sort diverged from the tuple sort");
        by_word
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
        n.tick_node(0);
        n.tick_node(1);
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 11 },
            Scheduler::Adversarial { seed: 11 },
        ] {
            let mut k = KeySource::new(sched);
            let reference = q.schedule(3, &mut k, &n);
            // (key, seq) is unique per event…
            let mut ks: Vec<(u128, u32)> = reference.iter().map(|&(s, ob)| (ob.key, s)).collect();
            ks.sort_unstable();
            ks.dedup();
            assert_eq!(
                ks.len(),
                reference.len(),
                "(key, seq) collision under {sched:?}"
            );
            // …so any permutation of the keyed set — or of its packed sort
            // words — re-sorts to the identical schedule, and the digest
            // chained over execution is invariant.
            for shuffle_seed in 0..4u64 {
                let mut permuted = reference.clone();
                permuted.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
                permuted.sort_unstable_by_key(|&(s, ob)| (ob.key, s));
                assert_eq!(reference, permuted, "re-sort diverged under {sched:?}");
                assert_eq!(
                    digest_of(&reference),
                    digest_of(&permuted),
                    "digest diverged under {sched:?}"
                );
                q.words.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
                q.sort();
                let resorted: Vec<(u32, Obligation)> = q.ordered().collect();
                assert_eq!(reference, resorted, "word re-sort diverged: {sched:?}");
            }
        }
    }

    /// Fold an execution order into the replay digest, the way a
    /// `ScheduleDigest` observer chains what actually ran.
    fn digest_of(events: &[(u32, Obligation)]) -> u64 {
        let mut d = crate::trace::Digest::new();
        for &(_, ob) in events {
            match ob.action {
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
        round: u64,
        keys: &mut KeySource,
        net: &Network<A>,
    ) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();
        for v in 0..net.n() as NodeId {
            if net.is_alive(v) && net.node(v).enabled() {
                actions.push(Action::Tick(v));
            }
        }
        for s in 0..net.slot_count() as u32 {
            let (from, to) = net.slot_endpoints(s);
            for _ in 0..net.slot_len(s) {
                actions.push(Action::Deliver(from, to));
            }
        }
        let mut buf: Vec<(u128, u32, Action)> = Vec::with_capacity(actions.len());
        for (i, a) in actions.iter().enumerate().rev() {
            buf.push((keys.key(round, a), i as u32, *a));
        }
        buf.sort_unstable_by_key(|e| (e.0, e.1));
        buf.into_iter().map(|(_, _, a)| a).collect()
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
        n.tick_node(0);
        n.tick_node(1);
        let actions_of =
            |evs: &[(u32, Obligation)]| evs.iter().map(|&(_, ob)| ob.action).collect::<Vec<_>>();
        for sched in [Scheduler::Synchronous, Scheduler::Adversarial { seed: 7 }] {
            let mut k1 = KeySource::new(sched);
            let canonical = q.schedule(2, &mut k1, &n);
            let mut k2 = KeySource::new(sched);
            let reversed = reversed_enumeration(2, &mut k2, &n);
            assert_eq!(
                actions_of(&canonical),
                reversed,
                "stateless daemon {sched:?} must tolerate any enumeration order"
            );
        }
        let mut k1 = KeySource::new(Scheduler::RandomAsync { seed: 7 });
        let canonical = q.schedule(2, &mut k1, &n);
        let mut k2 = KeySource::new(Scheduler::RandomAsync { seed: 7 });
        let reversed = reversed_enumeration(2, &mut k2, &n);
        assert_ne!(
            actions_of(&canonical),
            reversed,
            "a stateful daemon keyed in a different enumeration order must diverge \
             (if it did not, the canonical-order rule would be unnecessary)"
        );
    }
}
