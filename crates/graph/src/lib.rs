//! # ssmdst-graph
//!
//! Graph substrate for the self-stabilizing minimum-degree spanning tree
//! (MDST) reproduction of Blin, Gradinariu Potop-Butucaru and Rovedakis,
//! *"Self-stabilizing minimum-degree spanning tree within one from the
//! optimal degree"*, IPDPS 2009.
//!
//! This crate is deliberately self-contained (no external graph crates): it
//! provides
//!
//! * an immutable undirected [`Graph`] representation with sorted adjacency
//!   lists and a canonical edge list,
//! * a family of deterministic, seedable [`generators`] producing the
//!   workloads used throughout the experiment suite (random, geometric,
//!   structured and adversarial gadget graphs with known optimal degree),
//! * rooted [`SpanningTree`]s — the workspace's one tree type — with
//!   validation, incremental degree and depth accounting, tree paths, the
//!   `O(path + subtree)` fundamental-cycle pivot the exact engine runs, and
//!   the naive BFS / DFS / random / greedy constructors the experiments
//!   start from,
//! * an exact minimum-degree spanning tree solver ([`mdst_exact`]) built on a
//!   degree-bounded decision procedure, used as ground truth `Δ*` in tests
//!   and experiments,
//! * combinatorial lower bounds on `Δ*` ([`lower_bound`]) for graphs too
//!   large for the exact solver,
//! * classic traversals and a [`UnionFind`] used by the solvers and the
//!   tree constructors.
//!
//! Node identifiers are dense `u32` indices `0..n`; the protocol crate maps
//! them to arbitrary unique identifiers when exercising identifier-dependent
//! behaviour (the paper breaks ties by node ID).

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bridges;
pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod lower_bound;
pub mod mdst_exact;
pub mod spanning_tree;
pub mod stats;
pub mod traversal;
pub mod union_find;

pub use bridges::{biconnectivity, Biconnectivity};
pub use error::GraphError;
pub use graph::{EdgeId, Graph, GraphBuilder, NodeId};
pub use lower_bound::{degree_lower_bound, vertex_removal_bound};
pub use mdst_exact::{exact_mdst, has_spanning_tree_with_max_degree, ExactMdst, SolveBudget};
pub use spanning_tree::SpanningTree;
pub use traversal::{bfs_distances, connected_components, is_connected};
pub use union_find::UnionFind;
