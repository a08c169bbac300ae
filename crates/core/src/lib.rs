//! # ssmdst-core
//!
//! The self-stabilizing minimum-degree spanning tree (MDST) protocol of
//! Blin, Gradinariu Potop-Butucaru & Rovedakis, IPDPS 2009, as a
//! message-passing automaton for `ssmdst-sim`.
//!
//! Starting from an **arbitrary configuration** (corrupted variables,
//! corrupted neighbor mirrors, garbage in flight), the protocol converges to
//! a spanning tree `T` with `deg(T) ≤ Δ* + 1`, where `Δ*` is the optimal
//! (NP-hard) degree. Four cooperating modules, in priority order:
//!
//! 1. **Spanning tree** ([`spanning_tree`]) — min-root-ID BFS-style tree via
//!    rules R1 (`correction_parent`) / R2 (`correction_root`); all other
//!    modules freeze until the neighborhood is tree-stabilized.
//! 2. **Maximum degree** ([`maxdeg`]) — a continuous PIF over the tree:
//!    `subtree_max` aggregates up, the root folds it into `dmax`, `dmax`
//!    floods down, all piggybacked on `InfoMsg`. The `color` bit witnesses
//!    local `dmax` agreement and freezes the reduction while the degree
//!    information is in flux.
//! 3. **Fundamental cycles** ([`cycle_search`]) — each non-tree edge's
//!    lower-ID endpoint periodically launches a DFS token (`Search`) across
//!    tree edges; the token closes the cycle at the other endpoint.
//! 4. **Degree reduction** ([`reduction`]) — `Action_on_Cycle` classifies
//!    the closed cycle; improving edges trigger the `Remove`/flip/
//!    `UpdateDist` swap choreography; blocking endpoints trigger `Deblock`
//!    floods that recursively lower blocker degrees.
//!
//! The [`oracle`] module gives centralized views used by tests and the
//! experiment harness (never by the protocol itself): tree extraction,
//! legitimacy predicates, quiescence projections. The [`churn`] module
//! re-judges convergence against the *current* live topology after
//! dynamic-topology faults — component-wise spanning trees within one of
//! each component's optimum.

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod churn;
pub mod config;
pub mod cycle_search;
pub mod maxdeg;
pub mod messages;
pub mod node;
pub mod oracle;
pub mod reduction;
pub mod spanning_tree;
pub mod state;

pub use config::Config;
pub use messages::Msg;
pub use node::MdstNode;
pub use state::{NbrView, NodeState};

/// Node identifier (dense index, doubling as the unique ID the paper's
/// tie-breaks use).
pub type NodeId = u32;

/// Build a ready-to-run network of MDST automata over `g` with coherent
/// (but arbitrary-tree-free) initial states: every node starts as its own
/// root, as after a total reset. For adversarial initial states, corrupt the
/// network afterwards with `ssmdst_sim::faults`.
pub fn build_network(g: &ssmdst_graph::Graph, config: Config) -> ssmdst_sim::Network<MdstNode> {
    ssmdst_sim::Network::from_graph(g, |v, nbrs| MdstNode::new(v, nbrs, config.clone()))
}
