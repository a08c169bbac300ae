//! The round engine: the simulator's one round loop (one ascending pass
//! that finds and keys the obligations, one 64-bit word sort with its tie
//! pass, slot-addressed execution) and its step primitives, which mark
//! each round's stages on the observer. Run loops (stop conditions, horizons,
//! quiescence) live in [`crate::Session`].

use crate::automaton::Automaton;
use crate::events::{EventQueue, Obligation};
use crate::network::Network;
use crate::observer::{Observer, Stage, Stop};
use crate::scheduler::{Action, KeySource, Scheduler};

/// Drives a [`Network`] under a [`Scheduler`], counting rounds.
///
/// **Round semantics** (the unit of the paper's `O(m n² log n)` bound): at
/// the start of a round the runner determines the *obligations* — one tick
/// per enabled alive node plus one delivery per message then in flight. The
/// scheduler keys them; the round ends when all have executed. Messages
/// sent during the round are delivered in later rounds (they are the next
/// round's obligations), so information travels at most one hop per round,
/// matching the standard asynchronous round definition.
///
/// **One ascending pass**: a round's obligations are found by walking every
/// node id (a tick where the node is alive and its [`Automaton::enabled`]
/// predicate holds) and then every channel slot (one delivery per queued
/// message). The paper's protocol ticks every live node and keeps a
/// message on every live channel each round, so the pass costs no more
/// than keying what it finds: a round of `k` obligations costs
/// `O(n + #slots + k log k)`, the pass plus one sort of one `u64` word per
/// obligation and a linear tie pass. Each delivery executes by the channel
/// slot it was enumerated from. At steady state the whole loop (enumerate
/// → key → sort → execute → route) reuses its buffers and touches no
/// ordered tree: zero heap allocations per round, pinned by
/// `tests/zero_alloc.rs`.
///
/// # Example
///
/// A two-node token automaton under the synchronous daemon (a protocol
/// crate would plug its own [`Automaton`] in the same way):
///
/// ```
/// use ssmdst_sim::{Automaton, Message, Network, Outbox, Runner, Scheduler};
///
/// #[derive(Debug, Clone)]
/// struct Ping;
/// impl Message for Ping {
///     fn kind(&self) -> &'static str { "Ping" }
///     fn size_bits(&self, _n: usize) -> usize { 1 }
/// }
///
/// /// Gossips once per round; counts what it hears.
/// struct Chatter { neighbors: Vec<u32>, heard: u32 }
/// impl Automaton for Chatter {
///     type Msg = Ping;
///     fn tick(&mut self, out: &mut Outbox<Ping>) {
///         for &w in &self.neighbors { out.send(w, Ping); }
///     }
///     fn receive(&mut self, _from: u32, _msg: Ping, _out: &mut Outbox<Ping>) {
///         self.heard += 1;
///     }
/// }
///
/// let g = ssmdst_graph::graph::graph_from_edges(2, &[(0, 1)]);
/// let net = Network::from_graph(&g, |_, nbrs| Chatter {
///     neighbors: nbrs.to_vec(),
///     heard: 0,
/// });
/// let mut runner = Runner::new(net, Scheduler::Synchronous);
/// for _ in 0..4 {
///     runner.step_round();
/// }
/// // Messages sent in round r arrive in round r+1.
/// assert_eq!(runner.network().node(0).heard, 3);
/// ```
///
/// To run until a stop condition or quiescence, drive the network through
/// a [`crate::Session`] instead.
pub struct Runner<A: Automaton> {
    net: Network<A>,
    keys: KeySource,
    queue: EventQueue,
    round: u64,
}

impl<A: Automaton> Runner<A> {
    /// Wrap a network with a scheduler.
    pub fn new(net: Network<A>, sched: Scheduler) -> Self {
        Runner {
            net,
            keys: KeySource::new(sched),
            queue: EventQueue::new(),
            round: 0,
        }
    }

    /// The wrapped network (for oracles and metrics).
    pub fn network(&self) -> &Network<A> {
        &self.net
    }

    /// Mutable network access (fault injection and topology churn between
    /// rounds). The engine keeps no index of its own: each round reads node
    /// liveness, enabled predicates and channel contents afresh, so any
    /// inter-round mutation through this handle is seen by the next round.
    pub fn network_mut(&mut self) -> &mut Network<A> {
        &mut self.net
    }

    /// Completed rounds since construction.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Execute one full round.
    pub fn step_round(&mut self) {
        let _ = self.step_round_observed(&mut ());
    }

    /// Execute one full round through an [`Observer`] stack:
    /// `on_round_start` first and `on_stage_end` after each [`Stage`],
    /// `on_event` for every scheduled event immediately before that event
    /// executes, in execution order (a tick whose guard an earlier delivery
    /// of the round falsified is still reported), `on_round_end` after —
    /// whose verdict is returned. With the unit observer `()` every hook is
    /// an inlineable no-op, so this *is* [`Runner::step_round`]: same
    /// execution, same zero-allocation steady state. Passing a
    /// [`crate::ScheduleDigest`] folds the complete schedule — the
    /// record-replay witness — with no other change to the round.
    pub fn step_round_observed<O: Observer<A>>(&mut self, obs: &mut O) -> Stop {
        obs.on_round_start();
        self.queue.enumerate(self.round, &mut self.keys, &self.net);
        obs.on_stage_end(Stage::Enumerate);
        self.queue.sort();
        obs.on_stage_end(Stage::Sort);
        for (idx, ob) in self.queue.ordered() {
            obs.on_event(ob.key, idx, ob.action);
            Self::execute_one(&mut self.net, ob);
        }
        obs.on_stage_end(Stage::Execute);
        self.round += 1;
        self.net.metrics.rounds = self.round;
        let stop = obs.on_round_end(&self.net, self.round);
        obs.on_stage_end(Stage::RoundEnd);
        stop
    }

    // Allocation-free: tests/zero_alloc.rs meters it.
    fn execute_one(net: &mut Network<A>, ob: Obligation) {
        match ob.action {
            // Re-check the guard at execution time: an earlier event of
            // this round (a delivery) may have disabled the node, and a
            // daemon must never run a step whose guard is false.
            Action::Tick(v) => {
                if net.is_alive(v) && net.node(v).enabled() {
                    net.tick_node(v);
                }
            }
            Action::Deliver(from, to) => {
                // The channel is guaranteed to still hold this round's
                // message: deliveries only pop and FIFO keeps order, and
                // the topology (hence the slot) cannot change mid-round.
                let ok = net.deliver_at(ob.slot, from, to);
                debug_assert!(ok, "obligation for empty channel {from}->{to}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Message, Outbox};
    use crate::observer::{stop_when, ScheduleDigest};
    use crate::session::{Session, SessionBuilder, StopReason};
    use crate::stop::quiet_window;
    use crate::NodeId;
    use ssmdst_graph::generators::structured::path;

    /// Min-propagation automaton: floods the smallest value seen; converges
    /// to the global minimum everywhere. A tiny self-stabilizing protocol
    /// that exercises rounds, channels and convergence detection.
    #[derive(Debug)]
    struct MinFlood {
        neighbors: Vec<NodeId>,
        value: u32,
    }

    #[derive(Debug, Clone)]
    struct Val(u32);
    impl Message for Val {
        fn kind(&self) -> &'static str {
            "Val"
        }
        fn size_bits(&self, n: usize) -> usize {
            (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
        }
    }

    impl Automaton for MinFlood {
        type Msg = Val;
        fn tick(&mut self, out: &mut Outbox<Val>) {
            for &w in &self.neighbors {
                out.send(w, Val(self.value));
            }
        }
        fn receive(&mut self, _from: NodeId, msg: Val, _out: &mut Outbox<Val>) {
            self.value = self.value.min(msg.0);
        }
        fn on_topology_change(&mut self, neighbors: &[NodeId]) {
            self.neighbors = neighbors.to_vec();
        }
    }

    fn min_net(n: usize) -> Network<MinFlood> {
        let g = path(n).unwrap();
        Network::from_graph(&g, |v, nbrs| MinFlood {
            neighbors: nbrs.to_vec(),
            value: 100 - v, // minimum (100 - (n-1)) sits at the far end
        })
    }

    fn session(n: usize, sched: Scheduler) -> SessionBuilder<MinFlood> {
        Session::from_network(min_net(n)).scheduler(sched)
    }

    fn all_converged(net: &Network<MinFlood>, expect: u32) -> bool {
        net.nodes().iter().all(|a| a.value == expect)
    }

    #[test]
    fn sync_converges_in_diameter_rounds() {
        let n = 10;
        let mut s = session(n, Scheduler::Synchronous).build();
        let expect = 100 - (n as u32 - 1);
        let out = s.run_until(
            50,
            &mut stop_when(|net: &Network<MinFlood>, _| all_converged(net, expect)),
        );
        assert!(out.converged());
        // Information travels one hop per round: diameter-ish rounds.
        assert!(out.rounds <= 2 * n as u64, "took {} rounds", out.rounds);
    }

    #[test]
    fn all_schedulers_converge() {
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 3 },
            Scheduler::Adversarial { seed: 3 },
        ] {
            let mut s = session(8, sched).build();
            let out = s.run_until(
                200,
                &mut stop_when(|net: &Network<MinFlood>, _| all_converged(net, 93)),
            );
            assert!(out.converged(), "{sched:?} failed to converge");
        }
    }

    #[test]
    fn round_limit_is_respected() {
        let mut s = session(8, Scheduler::Synchronous).build();
        let out = s.run_until(3, &mut ());
        assert_eq!(out.reason, StopReason::RoundLimit);
        assert_eq!(out.rounds, 3);
        assert_eq!(s.round(), 3);
    }

    #[test]
    fn quiescence_detects_stability() {
        let mut s = session(6, Scheduler::Synchronous).horizon(100).build();
        let out = s.run_to_quiescence(3, |net| {
            net.nodes().iter().map(|a| a.value).collect::<Vec<_>>()
        });
        assert!(out.converged());
        assert!(all_converged(s.network(), 95));
    }

    #[test]
    fn rounds_count_matches_metrics() {
        let mut r = Runner::new(min_net(4), Scheduler::Synchronous);
        r.step_round();
        r.step_round();
        assert_eq!(r.network().metrics.rounds, 2);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        let run = |seed| {
            let mut s = session(9, Scheduler::RandomAsync { seed }).build();
            let _ = s.run_until(30, &mut ());
            let vals: Vec<u32> = s.network().nodes().iter().map(|a| a.value).collect();
            (vals, s.network().metrics.total_sent)
        };
        assert_eq!(run(7), run(7));
    }

    /// A tick whose `enabled()` guard is falsified *mid-round* (by a
    /// delivery ordered before it) must not fire: daemons never execute a
    /// step with a false guard. The automaton asserts the guard inside
    /// `tick`, so any violation panics; random/adversarial interleavings
    /// across many seeds exercise both deliver-before-tick orders.
    ///
    /// The observer contract under that interleaving: `on_event` reports
    /// *scheduled* events, so node 1's `Tick` is still reported on a round
    /// where a delivery ordered before it disabled the node.
    #[test]
    fn tick_guard_rechecked_at_execution_time() {
        #[derive(Debug, Clone)]
        struct Block;
        impl Message for Block {
            fn kind(&self) -> &'static str {
                "Block"
            }
            fn size_bits(&self, _n: usize) -> usize {
                1
            }
        }
        /// Node 0 blocks node 1 with its first send; node 1's spontaneous
        /// step is only enabled while unblocked.
        struct Blocker;
        struct Guarded {
            blocked: bool,
        }
        enum Either {
            B(Blocker),
            G(Guarded),
        }
        impl Automaton for Either {
            type Msg = Block;
            fn tick(&mut self, out: &mut Outbox<Block>) {
                match self {
                    Either::B(_) => out.send(1, Block),
                    Either::G(g) => assert!(!g.blocked, "tick fired with false guard"),
                }
            }
            fn receive(&mut self, _: NodeId, _: Block, _: &mut Outbox<Block>) {
                if let Either::G(g) = self {
                    g.blocked = true;
                }
            }
            fn enabled(&self) -> bool {
                match self {
                    Either::B(_) => true,
                    Either::G(g) => !g.blocked,
                }
            }
        }
        /// Per round: how often node 1's `Tick` was reported, and whether
        /// the delivery into node 1 was reported before it.
        #[derive(Default)]
        struct TickWitness {
            scheduled: bool,
            ticks_reported: u32,
            delivered_first: bool,
            disabled_mid_round: u32,
        }
        impl TickWitness {
            /// Snapshot node 1's guard before the round's obligations are
            /// derived.
            fn begin_round(&mut self, net: &Network<Either>) {
                self.scheduled = net.node(1).enabled();
                self.ticks_reported = 0;
                self.delivered_first = false;
            }
        }
        impl Observer<Either> for TickWitness {
            fn on_event(&mut self, _key: u128, _idx: u32, action: Action) {
                match action {
                    Action::Tick(1) => self.ticks_reported += 1,
                    Action::Deliver(0, 1) if self.ticks_reported == 0 => {
                        self.delivered_first = true;
                    }
                    _ => {}
                }
            }
            fn on_round_end(&mut self, net: &Network<Either>, round: u64) -> Stop {
                assert_eq!(
                    self.ticks_reported,
                    u32::from(self.scheduled),
                    "round {round}: node 1's scheduled tick must be reported once"
                );
                if self.scheduled && self.delivered_first {
                    assert!(!net.node(1).enabled(), "the delivery disabled node 1");
                    self.disabled_mid_round += 1;
                }
                Stop::Continue
            }
        }
        let mut witness = TickWitness::default();
        for seed in 0..25 {
            for sched in [
                Scheduler::RandomAsync { seed },
                Scheduler::Adversarial { seed },
            ] {
                let g = ssmdst_graph::graph::graph_from_edges(2, &[(0, 1)]);
                let net = Network::from_graph(&g, |v, _| {
                    if v == 0 {
                        Either::B(Blocker)
                    } else {
                        Either::G(Guarded { blocked: false })
                    }
                });
                let mut r = Runner::new(net, sched);
                for _ in 0..5 {
                    witness.begin_round(r.network());
                    // Panics without the execution-time re-check.
                    let _ = r.step_round_observed(&mut witness);
                }
            }
        }
        assert!(
            witness.disabled_mid_round > 0,
            "no seed ordered the delivery before node 1's tick"
        );
    }

    /// `quiet_window` boundaries: degenerate sizes sit on the 64-round
    /// floor; the window first grows at n = 11 (6·11 = 66 > 64).
    #[test]
    fn quiet_window_boundaries() {
        assert_eq!(quiet_window(0), 64, "n = 0 floors at 64");
        assert_eq!(quiet_window(1), 64, "n = 1 floors at 64");
        assert_eq!(quiet_window(10), 64, "6·10 = 60 still under the floor");
        assert_eq!(quiet_window(11), 66, "first size where the window grows");
        assert_eq!(quiet_window(12), 72);
    }

    /// Monotonicity: a bigger network never gets a *shorter* confirmation
    /// window. Future tuning of the formula can't silently regress
    /// convergence detection past this fence.
    #[test]
    fn quiet_window_is_monotone_and_floored() {
        let mut prev = 0;
        for n in 0..=4096usize {
            let w = quiet_window(n);
            assert!(w >= 64, "window below floor at n = {n}");
            assert!(w >= prev, "window shrank at n = {n}: {prev} -> {w}");
            assert!(
                w >= 6 * n as u64,
                "window must cover the O(n)-period search wave at n = {n}"
            );
            prev = w;
        }
    }

    /// Stepping through a `ScheduleDigest` executes the identical schedule
    /// as `step_round`, and the chained digest is (a) deterministic per
    /// seed and (b) sensitive to the seed.
    #[test]
    fn digested_step_matches_plain_execution() {
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 13 },
            Scheduler::Adversarial { seed: 13 },
        ] {
            let run = |digested: bool| {
                let mut d = ScheduleDigest::new();
                let mut r = Runner::new(min_net(9), sched);
                for _ in 0..30 {
                    if digested {
                        let _ = r.step_round_observed(&mut d);
                    } else {
                        r.step_round();
                    }
                }
                let vals: Vec<u32> = r.network().nodes().iter().map(|a| a.value).collect();
                (vals, r.network().metrics.total_sent, d.value())
            };
            let (v1, s1, d1) = run(true);
            let (v2, s2, _) = run(false);
            assert_eq!((&v1, s1), ((&v2), s2), "digested run diverged: {sched:?}");
            let (v3, s3, d3) = run(true);
            assert_eq!((v1, s1, d1), (v3, s3, d3), "digest not deterministic");
        }
        // Different seeds produce different schedules, hence digests.
        let digest_of = |seed| {
            let mut d = ScheduleDigest::new();
            let mut r = Runner::new(min_net(9), Scheduler::RandomAsync { seed });
            for _ in 0..30 {
                let _ = r.step_round_observed(&mut d);
            }
            d.value()
        };
        assert_ne!(digest_of(1), digest_of(2));
    }

    /// Obligations survive topology churn between rounds: removing an edge
    /// drops its in-flight messages, crashing a node removes its tick.
    #[test]
    fn churn_between_rounds_keeps_engine_consistent() {
        let mut s = session(6, Scheduler::Synchronous).build();
        let _ = s.step();
        s.network_mut().remove_edge(2, 3);
        let _ = s.step();
        s.network_mut().crash_node(5);
        for _ in 0..10 {
            let _ = s.step();
        }
        // Left segment 0..=2 still floods its own minimum (node 2 holds 98).
        assert_eq!(s.network().node(2).value, 98);
        s.network_mut().rejoin_node(5);
        s.network_mut().insert_edge(2, 3);
        let out = s.run_until(
            50,
            &mut stop_when(|net: &Network<MinFlood>, _| {
                net.alive_nodes().all(|v| net.node(v).value == 95)
            }),
        );
        assert!(out.converged(), "no re-convergence after churn healed");
    }
}
