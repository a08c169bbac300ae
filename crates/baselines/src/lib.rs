//! # ssmdst-baselines
//!
//! Baseline algorithms the experiment suite compares the self-stabilizing
//! protocol against:
//!
//! * [`fuerer_raghavachari`] — the sequential `Δ* + 1` local-improvement
//!   algorithm (FR, SODA'92 / J.Alg.'94) that the paper's distributed
//!   protocol emulates. Gold standard for final tree quality. It is
//!   [`ssmdst_exact::Solver`] with settling off, so the workspace has one
//!   FR local search and one proof of it.
//! * [`fragment`] — a phase-level emulation of the Blin–Butelle distributed
//!   MDST (the paper's \[3\]), which serializes improvements: FR's swaps,
//!   one per phase; used to quantify the concurrency advantage the paper
//!   claims (experiment F3).
//! * [`simple_trees`] — BFS / DFS / random / greedy spanning trees: the
//!   naive baselines and initial trees.

// Library code must not grow bare `.unwrap()`s: use `.expect` with the
// invariant that makes failure unreachable (ssmdst-lint R4 audits the
// reasons). Unit tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod fragment;
pub mod fuerer_raghavachari;
pub mod simple_trees;

pub use fragment::{serialized_mdst, SerializedStats};
pub use fuerer_raghavachari::{fr_mdst, FrStats};
pub use simple_trees::{
    best_of_random, bfs_spanning_tree, dfs_spanning_tree, greedy_min_degree_tree,
    random_spanning_tree, wilson_spanning_tree,
};
