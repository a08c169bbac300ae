//! Scale smoke: the flat fabric at n = 10 000, quick enough for
//! `cargo test -q` in a debug build.
//!
//! Not a benchmark — a guard that the scale path *works*: sparse-G(n,p)
//! generation via skip sampling, fabric construction over ~10⁵ directed
//! slots, sparse-activity rounds (each round's ascending pass still visits
//! every node and every slot, and must find the one live token among
//! them), full-gossip rounds, churn at scale, and the MDST protocol
//! automaton itself taking its first steps. Perf at this size is measured
//! by the S1–S3 experiment family (`experiments -- s1 s2 s3`).

use ssmdst::graph::generators::random::gnp_connected_sparse;
use ssmdst::sim::{Automaton, Message, Network, Outbox, Runner, Scheduler};

const N: usize = 10_000;

#[derive(Debug, Clone, Copy)]
struct Token;
impl Message for Token {
    fn kind(&self) -> &'static str {
        "Token"
    }
    fn size_bits(&self, _n: usize) -> usize {
        1
    }
}

/// One sentinel circulates a token; everyone else is disabled. The regime
/// where finding the obligations costs more than executing them: a round
/// has two obligations but walks every node and slot.
struct Sentinel {
    first_neighbor: Option<u32>,
    active: bool,
}
impl Automaton for Sentinel {
    type Msg = Token;
    fn tick(&mut self, out: &mut Outbox<Token>) {
        if let Some(w) = self.first_neighbor {
            out.send(w, Token);
        }
    }
    fn receive(&mut self, _: u32, _: Token, _: &mut Outbox<Token>) {}
    fn enabled(&self) -> bool {
        self.active
    }
}

#[test]
fn sparse_activity_rounds_at_ten_thousand_nodes() {
    let g = gnp_connected_sparse(N, 8.0 / N as f64, 7);
    assert_eq!(g.n(), N);
    assert!(g.directed_slots() > N, "sparse instance still has 2m > n");
    let net = Network::from_graph(&g, |v, nbrs| Sentinel {
        first_neighbor: nbrs.first().copied(),
        active: v == 0,
    });
    let mut r = Runner::new(net, Scheduler::Synchronous);
    // 500 rounds with exactly 2 obligations each, found by a pass over
    // 10⁴ nodes and ~10⁵ slots per round: the disabled nodes and the empty
    // channels must yield no obligation, and the token must keep moving.
    for _ in 0..500 {
        r.step_round();
    }
    let m = &r.network().metrics;
    assert_eq!(m.rounds, 500);
    assert_eq!(m.total_sent, 500, "one token per round");
    assert_eq!(r.network().in_flight(), 1);
}

#[test]
fn gossip_and_churn_at_ten_thousand_nodes() {
    #[derive(Debug)]
    struct Gossip {
        neighbors: Vec<u32>,
        heard: u64,
    }
    impl Automaton for Gossip {
        type Msg = Token;
        fn tick(&mut self, out: &mut Outbox<Token>) {
            for &w in &self.neighbors {
                out.send(w, Token);
            }
        }
        fn receive(&mut self, _: u32, _: Token, _: &mut Outbox<Token>) {
            self.heard += 1;
        }
        fn on_topology_change(&mut self, neighbors: &[u32]) {
            self.neighbors = neighbors.to_vec();
        }
    }
    let g = gnp_connected_sparse(N, 6.0 / N as f64, 11);
    let net = Network::from_graph(&g, |_, nbrs| Gossip {
        neighbors: nbrs.to_vec(),
        heard: 0,
    });
    let mut r = Runner::new(net, Scheduler::Synchronous);
    for _ in 0..5 {
        r.step_round();
    }
    let delivered_before = r.network().metrics.total_delivered;
    assert!(delivered_before > 0);
    // Churn at scale: tombstone a batch of edges and crash a node, then
    // keep running; the slot accounting must survive audit.
    let edges: Vec<(u32, u32)> = r.network().current_graph().edges()[..64].to_vec();
    for &(u, v) in &edges {
        assert!(r.network_mut().remove_edge(u, v));
    }
    assert!(r.network_mut().crash_node(4_321));
    for _ in 0..3 {
        r.step_round();
    }
    for &(u, v) in &edges {
        // Endpoints may have crashed; insert back where possible.
        r.network_mut().insert_edge(u, v);
    }
    assert!(r.network_mut().rejoin_node(4_321));
    for _ in 0..3 {
        r.step_round();
    }
    r.network().check_invariants();
    assert!(r.network().metrics.total_delivered > delivered_before);
}

#[test]
fn mdst_protocol_takes_steps_at_ten_thousand_nodes() {
    // Convergence at this size is an experiment, not a test; the smoke is
    // that construction and the first protocol rounds are sound at scale.
    let g = gnp_connected_sparse(N, 8.0 / N as f64, 3);
    let net = ssmdst::core::build_network(&g, ssmdst::core::Config::for_n(N));
    let mut r = Runner::new(net, Scheduler::Synchronous);
    for _ in 0..3 {
        r.step_round();
    }
    let m = &r.network().metrics;
    assert!(m.total_sent > 0, "protocol generated traffic");
    r.network().check_invariants();
}
