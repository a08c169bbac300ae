//! Steady-state allocation guard for the flat message fabric.
//!
//! The engine's contract (network.rs, events.rs): once its scratch buffers
//! and channel deques have warmed up, the round loop — derive obligations,
//! key them, sort, tick/deliver, route — performs **zero heap
//! allocations**. This binary installs a counting allocator (the
//! `vendor/alloc-counter` shim) and meters the loop directly, so any
//! future regression (a stray `Vec::new` per round, a `BTreeMap` sneaking
//! back onto the path, `take_dirty` reverting to handing out fresh
//! vectors) fails loudly instead of silently taxing every experiment.
//!
//! Scope: the guarantee is about the *fabric*. The messages themselves are
//! `Copy` here; a protocol whose messages own heap data (e.g. a path
//! vector) pays for those clones, which is the protocol's cost, not the
//! fabric's.
//!
//! The counter is per-thread, so the harness's own threads cannot perturb
//! the measurement; this file still holds a single `#[test]` so the
//! metered region never interleaves with a sibling test on the same
//! thread.

use alloc_counter::{allocations_on_this_thread, CountingAllocator};
use ssmdst::sim::{Automaton, Message, Network, Outbox, Runner, Scheduler, Session};

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
/// exercises the full tick → send → deliver → dirty-mark cycle.
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

#[test]
fn steady_state_round_loop_is_allocation_free() {
    for sched in [
        Scheduler::Synchronous,
        Scheduler::RandomAsync { seed: 5 },
        Scheduler::Adversarial { seed: 5 },
    ] {
        let g = ssmdst::graph::generators::random::gnp_connected(64, 0.15, 42);
        let net = Network::from_graph(&g, |_, nbrs| Gossip {
            neighbors: nbrs.to_vec(),
            beat: 0,
            heard: 0,
        });
        let mut runner = Runner::new(net, sched);
        // Warm-up: buffers, channel deques and the metrics kind table
        // grow to their steady-state capacity during the first rounds.
        for _ in 0..50 {
            runner.step_round();
        }
        let before = allocations_on_this_thread();
        for _ in 0..100 {
            runner.step_round();
        }
        let allocs = allocations_on_this_thread() - before;
        assert_eq!(
            allocs, 0,
            "steady-state rounds allocated {allocs} times under {sched:?}"
        );
        // The loop really ran: traffic flowed every round.
        assert!(runner.network().metrics.total_delivered > 0);

        // The Session surface with no observers attached is the same
        // machine code: every `()` observer hook is an empty inlineable
        // default, so the redesigned driver keeps the guarantee.
        let g = ssmdst::graph::generators::random::gnp_connected(64, 0.15, 42);
        let net = Network::from_graph(&g, |_, nbrs| Gossip {
            neighbors: nbrs.to_vec(),
            beat: 0,
            heard: 0,
        });
        let mut session = Session::from_network(net).scheduler(sched).build();
        for _ in 0..50 {
            let _ = session.step();
        }
        let before = allocations_on_this_thread();
        for _ in 0..100 {
            let _ = session.step();
        }
        let allocs = allocations_on_this_thread() - before;
        assert_eq!(
            allocs, 0,
            "steady-state session rounds allocated {allocs} times under {sched:?}"
        );
        assert!(session.network().metrics.total_delivered > 0);
    }
}
