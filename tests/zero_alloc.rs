//! Steady-state allocation guard for the flat message fabric.
//!
//! The engine's contract (network.rs, events.rs): once its scratch buffers
//! and channel deques have warmed up, the round loop — derive obligations,
//! key them, sort, tick/deliver, route — performs **zero heap
//! allocations**. This binary installs a counting allocator (the
//! `vendor/alloc-counter` shim) and meters the loop directly, so any
//! future regression (a stray `Vec::new` per round, a `BTreeMap` sneaking
//! back onto the path, an enumeration pass that collects into a fresh
//! vector) fails loudly instead of silently taxing every experiment.
//!
//! Scope: the guarantee is about the *fabric*. The messages themselves are
//! `Copy` here; a protocol whose messages own heap data (e.g. a path
//! vector) pays for those clones, which is the protocol's cost, not the
//! fabric's. The MDST automaton is metered too, at quiescence on a star,
//! where only its heap-free `InfoMsg` gossip runs: its tick and `InfoMsg`
//! handlers must not allocate either, and neither must the three
//! stabilization predicates of its nodes' state (`tree_stabilized`,
//! `degree_stabilized`, `color_stabilized`), evaluated on every node each
//! metered round. The judge (`exact::solve`) runs between phases, not in
//! the round loop, and is not metered. The observed path is metered as
//! well: a round that folds every scheduled event into a schedule digest,
//! through `Runner::step_round_observed` with a `ScheduleDigest` or
//! through the same observer attached to a `Session`, must not allocate.
//! So must a round stepped through an observer that records every stage
//! boundary (`on_round_start`, `on_stage_end`; the other rounds run the
//! same loop with those hooks as no-ops).
//!
//! The counter is per-thread, so the harness's own threads cannot perturb
//! the measurement; this file still holds a single `#[test]` so the
//! metered region never interleaves with a sibling test on the same
//! thread.

use alloc_counter::{allocations_on_this_thread, CountingAllocator};
use ssmdst::core::{build_network, oracle, Config, MdstNode};
use ssmdst::sim::{
    Automaton, Message, Network, Observer, Outbox, Runner, ScheduleDigest, Scheduler, Session,
    Stage,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Debug, Clone, Copy)]
struct Beat(u32);
impl Message for Beat {
    fn kind(&self) -> &'static str {
        "Beat"
    }
    fn size_bits(&self, _n: usize) -> usize {
        32
    }
}

/// Gossips a counter to every neighbor each round — the obligation-dense
/// regime (every node ticks, every channel carries traffic), which
/// exercises the full tick → send → deliver cycle.
#[derive(Debug)]
struct Gossip {
    neighbors: Vec<u32>,
    beat: u32,
    heard: u64,
}

impl Automaton for Gossip {
    type Msg = Beat;
    fn tick(&mut self, out: &mut Outbox<Beat>) {
        self.beat += 1;
        for &w in &self.neighbors {
            out.send(w, Beat(self.beat));
        }
    }
    fn receive(&mut self, _from: u32, msg: Beat, _out: &mut Outbox<Beat>) {
        self.heard += msg.0 as u64;
    }
}

/// An observer that only counts its stage marks.
#[derive(Default)]
struct CountingClock {
    starts: u64,
    ends: [u64; 4],
}

impl<A: Automaton> Observer<A> for CountingClock {
    fn on_round_start(&mut self) {
        self.starts += 1;
    }
    fn on_stage_end(&mut self, stage: Stage) {
        self.ends[stage as usize] += 1;
    }
}

/// Meter 100 steady-state rounds of `step` and require zero allocations.
fn assert_rounds_allocation_free(what: &str, sched: Scheduler, mut step: impl FnMut()) {
    let before = allocations_on_this_thread();
    for _ in 0..100 {
        step();
    }
    let allocs = allocations_on_this_thread() - before;
    assert_eq!(
        allocs, 0,
        "steady-state {what} rounds allocated {allocs} times under {sched:?}"
    );
}

fn gossip_network() -> Network<Gossip> {
    let g = ssmdst::graph::generators::random::gnp_connected(64, 0.15, 42);
    Network::from_graph(&g, |_, nbrs| Gossip {
        neighbors: nbrs.to_vec(),
        beat: 0,
        heard: 0,
    })
}

/// The real automaton at quiescence: a converged MDST on the star
/// `K_{1,5}`. Its tree degree is 5, so every node passes the `dmax ≥ 3`
/// search guard each tick, but a tree has no non-tree edge, so no search
/// ever launches: what remains is pure `InfoMsg` gossip, whose handlers
/// must not allocate.
fn converged_star(sched: Scheduler) -> Runner<MdstNode> {
    let g = ssmdst::graph::generators::structured::complete_bipartite(1, 5).unwrap();
    let mut runner = Runner::new(build_network(&g, Config::for_n(6)), sched);
    let mut rounds = 0;
    while !oracle::is_legitimate(&g, runner.network()) {
        runner.step_round();
        rounds += 1;
        assert!(rounds < 5_000, "star never converged under {sched:?}");
    }
    assert_eq!(runner.network().nodes()[0].state().dmax, 5);
    runner
}

#[test]
fn steady_state_round_loop_is_allocation_free() {
    for sched in [
        Scheduler::Synchronous,
        Scheduler::RandomAsync { seed: 5 },
        Scheduler::Adversarial { seed: 5 },
    ] {
        let mut runner = Runner::new(gossip_network(), sched);
        // Warm-up: buffers, channel deques and the metrics kind table
        // grow to their steady-state capacity during the first rounds.
        for _ in 0..50 {
            runner.step_round();
        }
        assert_rounds_allocation_free("runner", sched, || runner.step_round());
        // The loop really ran: traffic flowed every round.
        assert!(runner.network().metrics.total_delivered > 0);

        // The Session surface with no observers attached is the same
        // machine code: every `()` observer hook is an empty inlineable
        // default, so the redesigned driver keeps the guarantee.
        let mut session = Session::from_network(gossip_network())
            .scheduler(sched)
            .build();
        for _ in 0..50 {
            let _ = session.step();
        }
        assert_rounds_allocation_free("session", sched, || {
            let _ = session.step();
        });
        assert!(session.network().metrics.total_delivered > 0);

        // The observed path: every scheduled event is folded into the
        // schedule digest inside the execution loop, by a `ScheduleDigest`
        // passed to the bare runner and by one attached to a session.
        let mut runner = Runner::new(gossip_network(), sched);
        let mut digest = ScheduleDigest::new();
        for _ in 0..50 {
            let _ = runner.step_round_observed(&mut digest);
        }
        let before = digest.value();
        assert_rounds_allocation_free("digest", sched, || {
            let _ = runner.step_round_observed(&mut digest);
        });
        assert_ne!(digest.value(), before, "the schedule was folded");

        let mut session = Session::from_network(gossip_network())
            .scheduler(sched)
            .observe(ScheduleDigest::new());
        for _ in 0..50 {
            let _ = session.step();
        }
        let before = session.observer().value();
        assert_rounds_allocation_free("ScheduleDigest session", sched, || {
            let _ = session.step();
        });
        assert_ne!(
            session.observer().value(),
            before,
            "the schedule was folded"
        );
        assert_eq!(
            session.observer().value(),
            digest.value(),
            "observer and runner fold the same chain"
        );

        let mut runner = Runner::new(gossip_network(), sched);
        let mut clock = CountingClock::default();
        for _ in 0..50 {
            let _ = runner.step_round_observed(&mut clock);
        }
        assert_rounds_allocation_free("stage-marked", sched, || {
            let _ = runner.step_round_observed(&mut clock);
        });
        assert_eq!(
            (clock.starts, clock.ends),
            (150, [150; 4]),
            "every stage boundary of every round reached the clock"
        );

        let mut runner = converged_star(sched);
        for _ in 0..50 {
            runner.step_round();
        }
        let delivered = runner.network().metrics.total_delivered;
        let mut stabilized = true;
        assert_rounds_allocation_free("MDST star", sched, || {
            runner.step_round();
            stabilized &= runner.network().nodes().iter().all(|node| {
                let s = node.state();
                s.tree_stabilized() && s.degree_stabilized() && s.color_stabilized()
            });
        });
        assert!(stabilized, "the converged star left a stabilized state");
        assert!(runner.network().metrics.total_delivered > delivered);
        assert_eq!(runner.network().metrics.kind("Search").sent, 0);
    }
}
