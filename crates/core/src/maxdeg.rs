//! Module 2 — maximum-degree computation (paper §3.2.3).
//!
//! A continuous PIF (propagation of information with feedback) over the
//! current tree, entirely piggybacked on `InfoMsg`:
//!
//! * **feedback**: every node recomputes `subtree_max = max(deg, children's
//!   subtree_max)` from its mirrors on every step (see
//!   [`crate::state::NodeState::recompute_derived`]);
//! * **propagation**: the root folds `subtree_max` into `dmax`; every other
//!   node inherits its parent's mirrored `dmax`;
//! * **freeze witness**: `color = degree_stabilized()`. While `dmax` values
//!   disagree anywhere in a neighborhood, `locally_stabilized` is false
//!   there and the reduction module stays frozen, which is how the paper
//!   prevents stale-degree improvements (it toggles `color_tree` on line 5
//!   of Figure 2; the fixpoint is the same: color settles exactly when the
//!   neighborhood's `dmax` has).
//!
//! There is no separate message type: the paper piggybacks the propagation
//! phase on `InfoMsg` and we piggyback the feedback phase too
//! (ARCHITECTURE.md, "Modelling deviations", deviation 2). This file
//! therefore only hosts the end-to-end tests of the aggregation; the
//! arithmetic lives in `state.rs`.

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::oracle;
    use ssmdst_graph::generators::{gadgets, structured};
    use ssmdst_sim::{Runner, Scheduler};

    /// After the tree stabilizes, every node's `dmax` equals the true tree
    /// degree.
    #[test]
    fn dmax_converges_to_true_tree_degree() {
        let g = structured::grid(4, 4).unwrap();
        let net = crate::build_network(&g, Config::for_n(16));
        let mut runner = Runner::new(net, Scheduler::Synchronous);
        let out = runner.run_until(300, |net, _| {
            let Some(t) = oracle::try_extract_tree(&g, net) else {
                return false;
            };
            oracle::dmax_agrees(net, t.max_degree())
        });
        assert!(out.converged(), "dmax never matched the real tree degree");
    }

    /// On a star the root is the hub; dmax must reach n−1 at every leaf.
    #[test]
    fn star_dmax_reaches_hub_degree() {
        let g = ssmdst_graph::graph::graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let net = crate::build_network(&g, Config::for_n(5));
        let mut runner = Runner::new(net, Scheduler::Synchronous);
        let out = runner.run_until(100, |net, _| oracle::dmax_agrees(net, 4));
        assert!(out.converged());
    }

    /// dmax tracks *decreases*: corrupt dmax upward everywhere and check it
    /// falls back to the true value (max-aggregations must not be sticky).
    #[test]
    fn dmax_recovers_from_inflated_values() {
        let g = structured::cycle(8).unwrap();
        let net = crate::build_network(&g, Config::for_n(8));
        let mut runner = Runner::new(net, Scheduler::Synchronous);
        let _ = runner.run_until(100, |net, _| oracle::dmax_agrees(net, 2));
        // Inflate.
        for v in 0..8u32 {
            let node = runner.network_mut().node_mut(v);
            node.st.dmax = 9;
            node.st.subtree_max = 9;
        }
        let out = runner.run_until(200, |net, _| oracle::dmax_agrees(net, 2));
        assert!(out.converged(), "inflated dmax never decayed");
    }

    /// color settles to true exactly when the neighborhood dmax agrees.
    #[test]
    fn color_witnesses_dmax_agreement() {
        let g = gadgets::spider(3, 2).unwrap();
        let net = crate::build_network(&g, Config::for_n(7));
        let mut runner = Runner::new(net, Scheduler::RandomAsync { seed: 2 });
        let out = runner.run_until(400, |net, _| {
            net.nodes().iter().all(|a| {
                let s = a.state();
                s.color && s.degree_stabilized()
            })
        });
        assert!(out.converged());
    }

    /// Under the adversarial daemon the PIF still converges (fairness is
    /// all it needs).
    #[test]
    fn dmax_converges_under_adversarial_daemon() {
        let g = structured::grid(3, 3).unwrap();
        let net = crate::build_network(&g, Config::for_n(9));
        let mut runner = Runner::new(net, Scheduler::Adversarial { seed: 13 });
        let out = runner.run_until(400, |net, _| {
            let Some(t) = oracle::try_extract_tree(&g, net) else {
                return false;
            };
            oracle::dmax_agrees(net, t.max_degree())
        });
        assert!(out.converged());
    }
}
