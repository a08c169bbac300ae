//! Property test: the flat fabric's accounting survives arbitrary
//! interleavings of traffic, fault injection and topology churn.
//!
//! The class of bug this hunts is *accounting desync* — `in_flight`
//! drifting from the real queue contents, a tombstoned slot still holding
//! messages or missing from the free list, a recycled slot inheriting
//! stale state, adjacency rows and slot tables drifting apart. Before
//! [`Network::check_invariants`] existed these were only caught indirectly,
//! rounds later, when a determinism or convergence test happened to
//! diverge. Here every mutation is followed by a full audit, so the desync
//! is pinned to the exact operation that introduced it.

use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssmdst_sim::{Automaton, Corrupt, Message, Network, Outbox};

const N: u32 = 12;

#[derive(Debug, Clone, Copy)]
struct Ping(u64);
impl Message for Ping {
    fn kind(&self) -> &'static str {
        "Ping"
    }
    fn size_bits(&self, _n: usize) -> usize {
        64
    }
}

/// Chatty automaton with a corruptible payload; gossips to all current
/// neighbors every tick.
#[derive(Debug)]
struct Cell {
    neighbors: Vec<u32>,
    value: u64,
}

impl Automaton for Cell {
    type Msg = Ping;
    fn tick(&mut self, out: &mut Outbox<Ping>) {
        for &w in &self.neighbors {
            out.send(w, Ping(self.value));
        }
    }
    fn receive(&mut self, _: u32, msg: Ping, _: &mut Outbox<Ping>) {
        self.value = self.value.wrapping_add(msg.0);
    }
    fn on_topology_change(&mut self, neighbors: &[u32]) {
        self.neighbors = neighbors.to_vec();
    }
}

impl Corrupt for Cell {
    fn corrupt(&mut self, rng: &mut StdRng) {
        use rand::Rng;
        self.value = rng.random();
    }
}

/// One scripted mutation; fields are interpreted modulo the current state,
/// so every generated triple is applicable.
type Op = (u8, u32, u32);

fn apply(net: &mut Network<Cell>, op: Op, rng: &mut StdRng) {
    let (kind, a, b) = op;
    let n = net.n() as u32;
    let (a, b) = (a % n, b % n);
    match kind % 8 {
        0 => net.tick_node(a),
        1 => {
            // Deliver from one of the currently occupied channels.
            let occupied = net.nonempty_channels();
            if !occupied.is_empty() {
                let (from, to) = occupied[a as usize % occupied.len()];
                assert!(net.deliver_one(from, to), "occupied channel was empty");
            }
        }
        2 => {
            net.remove_edge(a, b);
        }
        3 => {
            net.insert_edge(a, b);
        }
        4 => {
            net.crash_node(a);
        }
        5 => {
            net.rejoin_node(a);
        }
        6 => {
            use rand::Rng;
            let p = (b as f64 / n as f64).min(1.0);
            net.drop_in_flight(p, rng);
            let _ = rng.random::<u64>(); // decorrelate successive bursts
        }
        7 => {
            if a % 3 == 0 {
                net.clear_channels();
            } else {
                // Runtime state corruption through the fault-injection door.
                net.node_mut(a).corrupt(rng);
            }
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churn + faults + traffic, audited after every mutation.
    #[test]
    fn accounting_survives_arbitrary_churn(
        graph_seed in 0u64..5_000,
        rng_seed in 0u64..5_000,
        ops in collection::vec((0u8..8, 0u32..N, 0u32..N), 1..120),
    ) {
        let g = ssmdst_graph::generators::random::gnp_connected(
            N as usize, 0.3, graph_seed,
        );
        let mut net = Network::from_graph(&g, |_, nbrs| Cell {
            neighbors: nbrs.to_vec(),
            value: 1,
        });
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for op in ops {
            apply(&mut net, op, &mut rng);
            net.check_invariants();
        }
        // Drain whatever is left; the audit must hold down to empty.
        while let Some(&(from, to)) = net.nonempty_channels().first() {
            net.deliver_one(from, to);
            net.check_invariants();
        }
        prop_assert_eq!(net.in_flight(), 0);
    }
}
