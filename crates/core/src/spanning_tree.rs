//! Module 1 — self-stabilizing spanning tree (paper §3.2.1).
//!
//! A simplification of Afek–Kutten–Yung: the tree roots itself at the
//! minimum node ID through two rules evaluated on every atomic step:
//!
//! * **R1 `correction_parent`** — if coherent but a neighbor advertises a
//!   smaller root, adopt the best such neighbor as parent;
//! * **R2 `correction_root`** — if the local state is incoherent (parent not
//!   a neighbor, root mismatch with parent, phantom root, or — in strict
//!   mode — distance mismatch), reset to a self-rooted singleton.
//!
//! The *gentle* variant (default, ablation A1) repairs a pure distance
//! mismatch in place instead of resetting; both variants are
//! self-stabilizing, but gentle avoids tearing down the tree after every
//! deliberate parent reversal performed by the reduction module.

use crate::messages::InfoPayload;
use crate::node::MdstNode;
use crate::state::NbrView;
use crate::NodeId;

impl MdstNode {
    /// Ingest an `InfoMsg`: refresh the mirror, then re-evaluate the tree
    /// rules and the derived degree variables (paper's `Update_State`).
    pub(crate) fn handle_info(&mut self, from: NodeId, p: InfoPayload) {
        if !self.st.is_neighbor(from) {
            return;
        }
        self.st.nbr.insert(
            from,
            NbrView {
                root: p.root,
                parent: p.parent,
                distance: p.distance,
                dmax: p.dmax,
                deg: p.deg,
                subtree_max: p.subtree_max,
                color: p.color,
            },
        );
        self.apply_tree_rules();
        self.st.recompute_derived();
    }

    /// Rules R2 then R1 (R1 is guarded by coherence, as in the paper).
    pub(crate) fn apply_tree_rules(&mut self) {
        // Distances are bounded by the network size (config's path cap): a
        // distance beyond it can only come from a parent cycle, whose
        // members pump each other's distances up by one per step under the
        // gentle repair. The ceiling converts that livelock into an R2
        // reset, which breaks the cycle (strict mode breaks it directly via
        // the distance-incoherence reset).
        let ceiling = self.st.dist_ceiling;
        if self.cfg.strict_distance_reset {
            // The paper's rule, with its own freezing discipline: a node in
            // the middle of an orientation reversal (`Reverse_Aux` "waits
            // and treats only InfoMsg") must not reset on the transient
            // distance incoherence the reversal itself creates. Parent
            // incoherence always resets.
            let fire = if self.st.busy > 0 {
                !self.st.coherent_parent()
            } else {
                self.st.new_root_candidate_strict()
            };
            if fire {
                // R2: create_new_root(v) — the paper's rule verbatim.
                self.st.root = self.st.id;
                self.st.parent = self.st.id;
                self.st.distance = 0;
            }
        } else {
            // Gentle cascade containment: when the parent link itself is
            // fine but the parent's *root* changed (e.g. a far-away reset
            // re-rooted the component), follow the parent's root instead of
            // resetting — this keeps the carefully reduced tree structure
            // intact across transient root perturbations. Reset only when
            // the parent link is unusable or the advertised root/distance
            // is implausible (fake roots circulating in parent cycles have
            // climbing distances; the ceiling kills them).
            let p = self.st.parent;
            let reset = if p == self.st.id {
                self.st.root != self.st.id
            } else if !self.st.is_neighbor(p) {
                true
            } else {
                let pv = self.st.view(p);
                let follow_ok = pv.root <= self.st.id && pv.distance < ceiling;
                if follow_ok {
                    if self.st.root != pv.root {
                        self.st.root = pv.root;
                        self.st.distance = pv.distance.saturating_add(1);
                    }
                    false
                } else {
                    true
                }
            };
            if reset || self.st.distance > ceiling || self.st.root > self.st.id {
                self.st.root = self.st.id;
                self.st.parent = self.st.id;
                self.st.distance = 0;
            } else if !self.st.coherent_distance() {
                // Distance-only repair: trust the parent's advertised value.
                if self.st.parent == self.st.id {
                    self.st.distance = 0;
                } else {
                    self.st.distance = self.st.view(self.st.parent).distance.saturating_add(1);
                }
            }
        }
        // R1: adopt the neighbor advertising the smallest plausible root
        // (ties by ID); candidates with out-of-range distances are fake.
        if let Some(best) = self.st.adoptable_parent() {
            let v = self.st.view(best);
            self.st.root = v.root;
            self.st.parent = best;
            self.st.distance = v.distance.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::messages::Msg;
    use crate::oracle;
    use ssmdst_graph::generators::structured;
    use ssmdst_sim::{stop_when, Network, Scheduler, Session};

    fn info(root: NodeId, parent: NodeId, distance: u32) -> InfoPayload {
        InfoPayload {
            root,
            parent,
            distance,
            dmax: 0,
            deg: 0,
            subtree_max: 0,
            color: false,
        }
    }

    #[test]
    fn adopts_smaller_root_from_neighbor() {
        let mut n = MdstNode::new(5, &[2, 7], Config::for_n(8));
        n.handle_info(2, info(0, 0, 3));
        assert_eq!(n.state().root, 0);
        assert_eq!(n.state().parent, 2);
        assert_eq!(n.state().distance, 4);
    }

    #[test]
    fn prefers_smallest_root_then_smallest_id() {
        let mut n = MdstNode::new(5, &[2, 7], Config::for_n(8));
        // Install both mirrors advertising the same root, then evaluate the
        // rules once: the tie must break toward the smaller neighbor ID.
        n.st.nbr.insert(
            7,
            crate::state::NbrView {
                root: 1,
                parent: 1,
                distance: 0,
                ..crate::state::NbrView::unknown(7)
            },
        );
        n.st.nbr.insert(
            2,
            crate::state::NbrView {
                root: 1,
                parent: 1,
                distance: 0,
                ..crate::state::NbrView::unknown(2)
            },
        );
        n.apply_tree_rules();
        assert_eq!(n.state().parent, 2);
        assert_eq!(n.state().root, 1);
    }

    #[test]
    fn r2_fires_on_non_neighbor_parent() {
        let mut n = MdstNode::new(5, &[2, 7], Config::for_n(8));
        n.st.parent = 3; // not a neighbor
        n.st.root = 3;
        n.apply_tree_rules();
        // R2 resets to a self-root, then R1 immediately adopts neighbor 2
        // whose (blank) mirror advertises root 2 < 5.
        assert_eq!(n.state().root, 2);
        assert_eq!(n.state().parent, 2);
        assert_eq!(n.state().distance, 1);
    }

    #[test]
    fn r2_fires_on_phantom_root() {
        let mut n = MdstNode::new(5, &[2, 7], Config::for_n(8));
        n.st.parent = 5;
        n.st.root = 1; // claims to be rooted at 1 while self-parented
        n.apply_tree_rules();
        // The phantom root 1 is gone: reset to 5, then R1 adopts neighbor 2.
        assert_eq!(n.state().root, 2);
        assert_ne!(n.state().root, 1);
    }

    #[test]
    fn gentle_mode_repairs_distance_without_reset() {
        let mut n = MdstNode::new(5, &[2], Config::for_n(8));
        n.handle_info(2, info(0, 0, 3));
        assert_eq!(n.state().distance, 4);
        n.st.distance = 99;
        n.apply_tree_rules();
        assert_eq!(n.state().parent, 2, "no reset");
        assert_eq!(n.state().distance, 4, "repaired in place");
    }

    #[test]
    fn strict_mode_resets_on_distance_mismatch() {
        let mut n = MdstNode::new(5, &[2], Config::strict(8));
        n.handle_info(2, info(0, 0, 3));
        n.st.distance = 99;
        n.apply_tree_rules();
        // R2 reset, then R1 immediately re-adopts neighbor 2 (root 0 is
        // still better) — with a now-correct distance.
        assert_eq!(n.state().root, 0);
        assert_eq!(n.state().distance, 4);
    }

    /// End-to-end: the spanning-tree module alone forms a BFS-like tree
    /// rooted at node 0 on a ring.
    #[test]
    fn ring_forms_min_rooted_spanning_tree() {
        let g = structured::cycle(9).unwrap();
        let net: Network<MdstNode> = crate::build_network(&g, Config::for_n(9));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let out = session.run_until(
            200,
            &mut stop_when(|net: &Network<MdstNode>, _| {
                oracle::try_extract_tree(&g, net).is_some()
            }),
        );
        assert!(out.converged(), "tree never formed");
        let t = oracle::try_extract_tree(&g, session.network()).unwrap();
        assert_eq!(t.root(), 0);
    }

    /// The tree module must also recover when every node starts corrupted.
    #[test]
    fn recovers_from_total_corruption() {
        let g = structured::grid(3, 3).unwrap();
        let net = crate::build_network(&g, Config::for_n(9));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::RandomAsync { seed: 1 })
            .build();
        ssmdst_sim::faults::inject(
            session.network_mut(),
            ssmdst_sim::faults::FaultPlan::total(7),
        );
        let out = session.run_until(
            500,
            &mut stop_when(|net: &Network<MdstNode>, _| {
                oracle::try_extract_tree(&g, net).is_some() && oracle::all_tree_stabilized(net)
            }),
        );
        assert!(out.converged(), "no recovery from corruption");
    }

    /// InfoMsg from an unexpected sender is ignored gracefully.
    #[test]
    fn info_from_non_neighbor_ignored() {
        let mut n = MdstNode::new(5, &[2], Config::for_n(8));
        let before = n.state().clone();
        // Simulate a (bogus) delivery from node 9.
        match (Msg::Info(info(0, 0, 0)), 9u32) {
            (Msg::Info(p), from) => n.handle_info(from, p),
            _ => unreachable!(),
        }
        assert_eq!(n.state().root, before.root);
        assert_eq!(n.state().nbr.len(), before.nbr.len());
    }
}
