//! # ssmdst-bench
//!
//! Experiment harness for the IPDPS 2009 self-stabilizing MDST
//! reproduction. The paper is theory-only, so the "tables and figures" are
//! its claims turned into measurements (ARCHITECTURE.md, "Modelling
//! deviations"):
//!
//! | id | claim |
//! |----|-------|
//! | T1 | `deg(T) ≤ Δ* + 1` (Theorem 2) |
//! | T2 | convergence in `O(m n² log n)` rounds (Lemma 5) |
//! | T3 | message complexity breakdown |
//! | T4 | `O(δ log n)` bits per node (Lemma 5) |
//! | T5 | final quality vs baselines (FR, BFS, DFS, random, greedy) |
//! | F1 | degree-reduction trajectory |
//! | F2 | recovery from transient faults (Definition 1) |
//! | F3 | simultaneous improvements vs the serialized \[3\] |
//! | F4 | convergence under any fair daemon |
//! | F5 | `O(n log n)` maximum message length |
//! | A1 | ablation: strict vs gentle distance repair |
//! | A2 | ablation: Deblock on/off |
//! | A3 | ablation: busy latch on/off |
//! | D1 | re-convergence under edge churn (dynamic topology) |
//! | D2 | re-convergence under node crash/rejoin |
//! | D3 | re-convergence across partition and heal |
//! | C1 | scenario campaign: the conformance corpus, one replayable row each |
//!
//! The D family exercises the regime the event-driven engine was built
//! for: the topology changes between rounds ([`ssmdst_sim::TopologyPlan`])
//! and the protocol must re-fit the tree to the new constraint set, judged
//! component-wise by [`ssmdst_core::churn`].
//!
//! The T/F/A/D/C families are **scenario-driven**: each row runs a named
//! `ssmdst_scenario::Scenario` through the scenario engine, making every
//! row a replayable artifact (`ssmdst replay` reproduces it bit-for-bit
//! from the scenario description). The S family measures the message
//! fabric with a purpose-built gossip automaton and keeps its own driver.
//!
//! Run `cargo run --release -p ssmdst-bench --bin experiments -- all` to
//! print everything, and `--bin exact` for the X family (the exact-Δ*
//! engine at n = 10³ … 10⁵). End-to-end timing lives in `perfbench/`.

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod experiments;
pub mod instance;
pub mod table;

pub use experiments::Profile;
pub use instance::Instrument;
pub use table::{json_string, Table};
