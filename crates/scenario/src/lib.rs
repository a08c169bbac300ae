//! # ssmdst-scenario
//!
//! Scenarios as **data**, failures as **one-line reproducers**.
//!
//! BlinPR09's correctness claim is self-stabilization from *arbitrary*
//! initial configurations under transient faults — so the interesting
//! state space is the *scenario* space (which topology, which daemon,
//! which corruption, which churn sequence), not any single run. This crate
//! turns that space into first-class values:
//!
//! * [`Scenario`] ([`spec`]) — a declarative, serializable description of
//!   one complete run: topology generator + parameters, daemon choice,
//!   protocol-config variant, optional corruption of the initial node
//!   state (the paper's arbitrary-configuration start), a timed plan of
//!   fault bursts and topology churn, and a stopping condition. Scenarios
//!   render to and parse from a small line-based `.scn` text format
//!   ([`scn`]), so a failing run is a committable artifact.
//! * [`engine`] — the phase-driven executor: it runs the scenario on the
//!   `ssmdst-core` protocol, re-converging between events, judging each
//!   phase component-wise (degree within one of the optimum) and folding
//!   every scheduler key, executed action, topology event and per-round
//!   state projection into a chained [`ssmdst_sim::Digest`]. Re-running
//!   from `(Scenario, seed)` reproduces the trace **bit-for-bit**; the
//!   rendered [`ssmdst_sim::RunTrace`] is the golden-file format CI
//!   verifies. A campaign needs no type of its own:
//!   [`ssmdst_sim::parallel::run_many`] over [`engine::run_any`] fans a
//!   scenario grid out over worker threads and returns one
//!   [`ScenarioOutcome`] per scenario, in input order, each carrying the
//!   name and digest that make it replayable.
//! * [`shrink`] — a delta-debugging minimizer lifted to whole simulations:
//!   given a failing scenario and a failure predicate it searches for a
//!   strictly smaller scenario (fewer fault/churn events, smaller `n`,
//!   no initial corruption, shorter horizon) that still fails, emitting a
//!   commit-ready `.scn` reproducer.
//! * [`corpus`] — the curated scenario corpus exercised by the
//!   conformance tests and the CI smoke job.
//! * [`protocol`] — the protocol registry: the engine, campaigns, replay
//!   and shrinking are written once against the [`Protocol`] trait, and a
//!   `.scn` file selects an implementation with a `protocol = …` line
//!   (default `mdst`, omitted from the canonical rendering for full
//!   backward compatibility). The registered non-MDST workload is the
//!   simulator's self-stabilizing flood/echo leader election.
//! * [`mod@mutate`] / [`coverage`] / [`storm`] — the coverage-guided fuzzing
//!   loop (`ssmdst storm` on the CLI): seed-deterministic mutation
//!   operators over scenarios, behavioural coverage signatures projected
//!   from the data the engine already folds, and the storm driver that
//!   fans mutants over campaign workers, admits only novelty-bearing
//!   mutants (so the corpus grows itself), and auto-shrinks any judge
//!   failure into a committable `.scn` reproducer.
//!
//! Execution goes through [`ssmdst_sim::Session`] with the engine's
//! cross-cutting machinery (digest chain, trace records, phase stop
//! conditions) attached as one composable [`ssmdst_sim::Observer`].

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod corpus;
pub mod coverage;
pub mod engine;
pub mod mutate;
pub mod protocol;
pub mod scn;
pub mod shrink;
pub mod spec;
pub mod storm;

pub use coverage::{CoverageMap, Signature};
pub use engine::{verify_replay, EngineOpts, PhaseOutcome, ScenarioOutcome};
pub use mutate::{mutate, sanitize, MutationKind};
pub use protocol::{Flood, Mdst, PhaseJudgment, Protocol};
pub use shrink::{Predicate, ShrinkStats};
pub use spec::{
    ConfigSpec, CorruptSpec, EventAction, ProtocolSpec, Scenario, ScenarioEvent, SchedSpec,
    StopSpec, Timing, TopologySpec,
};
pub use storm::{
    distill, Admission, DistillPick, DistillReport, StormConfig, StormFailure, StormReport,
};
