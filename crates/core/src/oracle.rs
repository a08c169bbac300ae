//! Centralized observation of the distributed state — used by tests,
//! convergence detection and the experiment harness, never by the protocol.

use crate::node::MdstNode;
use crate::NodeId;
use ssmdst_graph::{Graph, SpanningTree};
use ssmdst_sim::Network;

/// The parent pointer of every node.
pub fn parents(net: &Network<MdstNode>) -> Vec<NodeId> {
    net.nodes().iter().map(|a| a.state().parent).collect()
}

/// The `dmax` estimate of every node.
pub fn dmaxes(net: &Network<MdstNode>) -> Vec<u32> {
    net.nodes().iter().map(|a| a.state().dmax).collect()
}

/// Quiescence projection: the tree structure, the degree estimates and the
/// distances. When this is unchanged for long enough, the protocol has
/// stabilized (searches keep flowing but are pure reads). Distances are
/// included so that a parent cycle — whose distances climb forever under
/// the gentle repair until the R2 ceiling breaks it — can never look
/// quiescent.
pub fn projection(net: &Network<MdstNode>) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
    let dists = net.nodes().iter().map(|a| a.state().distance).collect();
    (parents(net), dmaxes(net), dists)
}

/// Extract the global structure as a [`SpanningTree`] if the parent
/// pointers currently describe one (single self-rooted node, parent edges
/// real, acyclic, spanning).
pub fn try_extract_tree(g: &Graph, net: &Network<MdstNode>) -> Option<SpanningTree> {
    let ps = parents(net);
    let mut root = None;
    for (v, &p) in ps.iter().enumerate() {
        if p == v as NodeId {
            if root.is_some() {
                return None; // two roots
            }
            root = Some(v as NodeId);
        }
    }
    SpanningTree::from_parents(g, root?, ps).ok()
}

/// Whether every node's spanning-tree layer is stabilized.
pub fn all_tree_stabilized(net: &Network<MdstNode>) -> bool {
    net.nodes().iter().all(|a| a.state().tree_stabilized())
}

/// Whether every node is fully locally stabilized (tree + degree + color).
pub fn all_locally_stabilized(net: &Network<MdstNode>) -> bool {
    net.nodes().iter().all(|a| a.state().locally_stabilized())
}

/// Whether every node's `dmax` equals `expect`.
pub fn dmax_agrees(net: &Network<MdstNode>, expect: u32) -> bool {
    net.nodes().iter().all(|a| a.state().dmax == expect)
}

/// The maximum tree degree of the current global structure, if it is a tree.
pub fn current_degree(g: &Graph, net: &Network<MdstNode>) -> Option<u32> {
    try_extract_tree(g, net).map(|t| t.max_degree())
}

/// Measured per-node memory in bits, under the paper's encoding
/// conventions (IDs, degrees and distances cost `⌈log₂ n⌉` bits; booleans
/// one bit). Counts the paper's variables, the δ neighbor mirrors of the
/// send/receive model, and this implementation's throttle counters — the
/// whole resident protocol state, measured live rather than derived from a
/// formula (experiment T4).
pub fn state_bits(node: &MdstNode, n: usize) -> usize {
    let b = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as usize;
    let s = node.state();
    // root, parent, distance, dmax, deg, subtree_max + color.
    let own = 6 * b + 1;
    let mirrors = s.nbr.len() * (6 * b + 1);
    // Throttles: per-edge search cooldowns, per-blocker deblock cooldowns,
    // busy counter, launch counter (bounded by the period ≈ n, so b bits).
    let throttles = s.search_cooldown.len() * 2 * b + s.deblock_cooldown.len() * 2 * b + 2 * b;
    own + mirrors + throttles
}

/// Maximum measured per-node state over the network (bits).
pub fn max_state_bits(net: &Network<MdstNode>) -> usize {
    let n = net.n();
    net.nodes()
        .iter()
        .map(|a| state_bits(a, n))
        .max()
        .unwrap_or(0)
}

/// Legitimacy predicate of Definition 1 instantiated for the MDST spec:
/// the global state is a spanning tree, every node is locally stabilized,
/// and every node's `dmax` equals the true tree degree.
pub fn is_legitimate(g: &Graph, net: &Network<MdstNode>) -> bool {
    let Some(t) = try_extract_tree(g, net) else {
        return false;
    };
    all_locally_stabilized(net) && dmax_agrees(net, t.max_degree())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use ssmdst_graph::generators::structured;
    use ssmdst_sim::{stop_when, Network, Scheduler, Session};

    #[test]
    fn fresh_network_is_not_a_tree() {
        let g = structured::path(4).unwrap();
        let net = crate::build_network(&g, Config::for_n(4));
        // Everyone self-rooted: four roots, no tree.
        assert!(try_extract_tree(&g, &net).is_none());
        assert!(!is_legitimate(&g, &net));
    }

    #[test]
    fn converged_path_is_legitimate() {
        let g = structured::path(5).unwrap();
        let net = crate::build_network(&g, Config::for_n(5));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let out = session.run_until(
            200,
            &mut stop_when(|net: &Network<MdstNode>, _| is_legitimate(&g, net)),
        );
        assert!(out.converged());
        let t = try_extract_tree(&g, session.network()).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(current_degree(&g, session.network()), Some(2));
    }

    #[test]
    fn projection_is_stable_after_convergence() {
        let g = structured::cycle(6).unwrap();
        let net = crate::build_network(&g, Config::for_n(6));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let _ = session.run_until(
            200,
            &mut stop_when(|net: &Network<MdstNode>, _| is_legitimate(&g, net)),
        );
        let p1 = projection(session.network());
        let _ = session.run_until(50, &mut ());
        let p2 = projection(session.network());
        assert_eq!(p1, p2);
    }

    #[test]
    fn two_roots_is_not_a_tree() {
        let g = structured::path(3).unwrap();
        let mut net = crate::build_network(&g, Config::for_n(3));
        // Manually wire: 0 self-rooted, 1 child of 0, 2 self-rooted.
        net.node_mut(1).st.parent = 0;
        assert!(try_extract_tree(&g, &net).is_none());
    }
}
