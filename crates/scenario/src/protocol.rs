//! The protocol registry: what makes the scenario/campaign/replay layer
//! generic over the automaton.
//!
//! A [`Protocol`] bundles everything the engine needs that is *not* pure
//! simulation: how to build the network from a scenario's topology and
//! config, the canonical per-round state projection (used both for
//! quiescence detection and as the replay chain's state witness), and the
//! component-wise phase judge. The engine, campaigns, replay verification
//! and shrinking are written once against this trait; `.scn` files select
//! an implementation through [`crate::spec::ProtocolSpec`] (defaulting to
//! [`Mdst`], so every pre-registry scenario and golden trace is unchanged
//! byte for byte).
//!
//! Two registered protocols:
//!
//! * [`Mdst`] — the paper's self-stabilizing minimum-degree spanning tree
//!   (`ssmdst-core`), judged component-wise by `deg ≤ Δ* + 1`;
//! * [`Flood`] — the simulator's self-stabilizing minimum flood / leader
//!   election ([`ssmdst_sim::protocols::FloodEcho`]), judged by
//!   per-component agreement on the minimum live id. Its presence is the
//!   diversity proof: a workload with a completely different message
//!   alphabet inherits scenarios, record-replay, shrinking and campaigns
//!   without the engine knowing anything about it.

use crate::engine::EngineOpts;
use crate::spec::ConfigSpec;
use ssmdst_core::{build_network, churn, oracle, MdstNode};
use ssmdst_graph::Graph;
use ssmdst_sim::protocols::{flood_projection, Claim, FloodEcho};
use ssmdst_sim::{Automaton, ChurnEvent, Corrupt, Digest, Network, NodeId};

/// What a phase judge reports. Degree-shaped fields are zero/`None` for
/// protocols without a tree notion; `ok` is the protocol's own quality
/// verdict (the engine separately ANDs in convergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseJudgment {
    /// Connected components of the live topology at judging time.
    pub components: usize,
    /// Worst per-component quality measure (tree degree for MDST; 0 when
    /// the protocol has no such notion or the check failed).
    pub degree: u32,
    /// Exact optimum of the worst component, when computable.
    pub delta_star: Option<u32>,
    /// Whether every component meets the protocol's quality bar.
    pub ok: bool,
}

impl PhaseJudgment {
    /// The "check could not run / failed structurally" verdict.
    pub fn failed() -> Self {
        PhaseJudgment {
            components: 0,
            degree: 0,
            delta_star: None,
            ok: false,
        }
    }
}

/// A protocol the scenario engine can drive: network construction,
/// canonical projection, and phase judging.
pub trait Protocol {
    /// The node automaton (corruptible, for arbitrary-configuration
    /// starts and fault events).
    type Node: Automaton + Corrupt;

    /// Canonical per-round projection of the global state: the quiescence
    /// detector compares it and the replay chain folds it, so it must
    /// capture everything "stabilized" is supposed to mean.
    type Proj: PartialEq;

    /// Per-run judging state, threaded through every phase judgment of
    /// one scenario execution. For MDST this is
    /// [`ssmdst_core::churn::DeltaJudge`], which holds only its solver
    /// configuration and work counters: each judgment certifies every
    /// component from the network it is handed, so churn needs no feed.
    /// Protocols without judging state use `()`.
    type Judge;

    /// Build the network a scenario describes over `g`.
    fn build(&self, g: &Graph, cfg: &ConfigSpec) -> Network<Self::Node>;

    /// Compute the canonical projection.
    fn project(net: &Network<Self::Node>) -> Self::Proj;

    /// Fold the projection into the replay chain. The encoding is part of
    /// each protocol's replay identity and must stay stable — golden
    /// traces pin it.
    fn fold_projection(proj: &Self::Proj, chain: &mut Digest);

    /// Fresh judging state for one run. `net` is the initial network; a
    /// judge that reads its topology only at [`Protocol::judge`] ignores it.
    fn new_judge(&self, net: &Network<Self::Node>, opts: &EngineOpts) -> Self::Judge;

    /// A no-op that the engine never calls: judges read churn from the
    /// network they are handed at each [`Protocol::judge`]. It survives
    /// only because `perfbench/` (a workspace of its own) overrides it in
    /// its `Traced` wrapper; the two go together (ROADMAP.md item 10(g)).
    fn observe_churn(_judge: &mut Self::Judge, _net: &Network<Self::Node>, _ev: &ChurnEvent) {}

    /// Judge a stable phase component-wise against the live topology.
    fn judge(
        &self,
        judge: &mut Self::Judge,
        net: &Network<Self::Node>,
        opts: &EngineOpts,
    ) -> PhaseJudgment;

    /// Quality measure of the final configuration when the run ends on a
    /// single live component spanning the whole network (`None` when the
    /// protocol has no tree notion, or no single tree survives).
    fn final_degree(&self, g: &Graph, net: &Network<Self::Node>) -> Option<u32>;
}

/// The paper's protocol: self-stabilizing MDST (`ssmdst-core`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mdst;

impl Protocol for Mdst {
    type Node = MdstNode;
    type Proj = (Vec<NodeId>, Vec<u32>, Vec<u32>);
    type Judge = churn::DeltaJudge;

    fn build(&self, g: &Graph, cfg: &ConfigSpec) -> Network<MdstNode> {
        build_network(g, cfg.build(g.n()))
    }

    fn project(net: &Network<MdstNode>) -> Self::Proj {
        oracle::projection(net)
    }

    fn fold_projection(proj: &Self::Proj, chain: &mut Digest) {
        // Parents, dmax, distances — the historical encoding the golden
        // traces pin.
        for &p in &proj.0 {
            chain.write_u32(p);
        }
        for &d in &proj.1 {
            chain.write_u32(d);
        }
        for &d in &proj.2 {
            chain.write_u32(d);
        }
    }

    /// A judge solving under `opts.delta_budget`. It reads no topology
    /// here: each [`Protocol::judge`] certifies the network it is handed.
    fn new_judge(&self, _net: &Network<MdstNode>, opts: &EngineOpts) -> churn::DeltaJudge {
        churn::DeltaJudge::new(opts.delta_budget)
    }

    fn judge(
        &self,
        judge: &mut churn::DeltaJudge,
        net: &Network<MdstNode>,
        _opts: &EngineOpts,
    ) -> PhaseJudgment {
        match judge.check(net) {
            Ok(reports) => {
                let worst = reports.iter().max_by_key(|r| r.degree);
                PhaseJudgment {
                    components: reports.len(),
                    degree: worst.map(|r| r.degree).unwrap_or(0),
                    delta_star: worst.and_then(|r| r.delta_star),
                    ok: reports.iter().all(|r| r.within_one),
                }
            }
            Err(_) => PhaseJudgment::failed(),
        }
    }

    fn final_degree(&self, g: &Graph, net: &Network<MdstNode>) -> Option<u32> {
        oracle::current_degree(g, net).filter(|_| net.alive_count() == net.n())
    }
}

/// The simulator's self-stabilizing minimum flood / leader election
/// ([`FloodEcho`]): the registered non-MDST workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flood;

impl Protocol for Flood {
    type Node = FloodEcho;
    type Proj = Vec<Claim>;
    type Judge = ();

    fn build(&self, g: &Graph, _cfg: &ConfigSpec) -> Network<FloodEcho> {
        // The flood has no ablation axis; every ConfigSpec maps to the one
        // protocol variant (the config line stays meaningful scenario data
        // for MDST only).
        ssmdst_sim::protocols::flood_network(g)
    }

    fn project(net: &Network<FloodEcho>) -> Self::Proj {
        flood_projection(net)
    }

    fn fold_projection(proj: &Self::Proj, chain: &mut Digest) {
        for c in proj {
            chain.write_u32(c.value);
            chain.write_u32(c.dist);
        }
    }

    fn new_judge(&self, _net: &Network<FloodEcho>, _opts: &EngineOpts) {}

    fn judge(
        &self,
        _judge: &mut (),
        net: &Network<FloodEcho>,
        _opts: &EngineOpts,
    ) -> PhaseJudgment {
        // The same live-component traversal the MDST judge uses
        // (`Network::live_components`), so the two judges can never
        // disagree on component structure.
        let comps = net.live_components();
        let ok = comps.iter().all(|comp| {
            let min = comp[0];
            comp.iter().all(|&v| net.node(v).value() == min)
        });
        PhaseJudgment {
            components: comps.len(),
            degree: 0,
            delta_star: None,
            ok,
        }
    }

    fn final_degree(&self, _g: &Graph, _net: &Network<FloodEcho>) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::generators::structured::cycle;
    use ssmdst_sim::{ChurnEvent, Scheduler, Session};

    #[test]
    fn flood_judge_tracks_agreement_and_components() {
        let g = cycle(8).unwrap();
        let mut session = Session::from_network(ssmdst_sim::protocols::flood_network(&g))
            .scheduler(Scheduler::Synchronous)
            .horizon(1_000)
            .build();
        let opts = EngineOpts::default();
        #[expect(
            clippy::let_unit_value,
            reason = "exercising the trait path: Flood's Judge is ()"
        )]
        let mut judge = Flood.new_judge(session.network(), &opts);
        // Before convergence: nodes still claim themselves — not ok.
        let j = Flood.judge(&mut judge, session.network(), &opts);
        assert_eq!(j.components, 1);
        assert!(!j.ok, "initial configuration must not pass the judge");
        let out = session.run_to_quiescence(16, ssmdst_sim::protocols::flood_projection);
        assert!(out.converged());
        let j = Flood.judge(&mut judge, session.network(), &opts);
        assert!(j.ok);
        // Partition into two arcs: two components, each electing its min.
        let _ = session.churn(&ChurnEvent::RemoveEdge(0, 1));
        let _ = session.churn(&ChurnEvent::RemoveEdge(4, 5));
        let out = session.run_to_quiescence(16, ssmdst_sim::protocols::flood_projection);
        assert!(out.converged());
        let j = Flood.judge(&mut judge, session.network(), &opts);
        assert_eq!(j.components, 2);
        assert!(j.ok, "each side agrees on its own minimum");
        // Components are {0,5,6,7} (via the surviving 7–0 edge) and
        // {1,2,3,4}: the arc cut off from node 0 elects node 1.
        assert_eq!(session.network().node(2).value(), 1, "cut arc elects 1");
        assert_eq!(session.network().node(5).value(), 0, "5 still reaches 0");
    }

    #[test]
    fn mdst_judge_matches_reconvergence_check() {
        let g = ssmdst_graph::generators::structured::star_with_ring(8).unwrap();
        let cfg = ConfigSpec::Default;
        let net = Mdst.build(&g, &cfg);
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(40_000)
            .build();
        let out = session.run_to_quiescence(ssmdst_sim::quiet_window(8), Mdst::project);
        assert!(out.converged());
        let opts = EngineOpts::default();
        let mut judge = Mdst.new_judge(session.network(), &opts);
        let j = Mdst.judge(&mut judge, session.network(), &opts);
        assert!(j.ok);
        assert_eq!(j.components, 1);
        assert!(j.degree <= 3);
        assert_eq!(Mdst.final_degree(&g, session.network()), Some(j.degree));
    }
}
