//! # ssmdst-sim
//!
//! A deterministic discrete-event simulator for asynchronous message-passing
//! networks with reliable FIFO channels — the execution model of Blin,
//! Gradinariu Potop-Butucaru & Rovedakis (IPDPS 2009).
//!
//! Model (paper §2):
//!
//! * nodes are state machines ([`Automaton`]) that take **atomic steps**: one
//!   receive (or one spontaneous *tick* of the do-forever loop) plus local
//!   computation plus sends — the *send/receive atomicity* of Burman–Kutten;
//! * every undirected network edge is a pair of reliable **FIFO channels**;
//! * the **scheduler** (daemon) chooses which enabled step runs next;
//!   [`Scheduler::Synchronous`] delivers in lockstep,
//!   [`Scheduler::RandomAsync`] explores random fair interleavings, and
//!   [`Scheduler::Adversarial`] is a deterministic unfair-within-rounds
//!   daemon — all seeded and reproducible;
//! * a **round** is the standard complexity unit: the minimal period in
//!   which every node takes at least one step and every message present at
//!   the start of the round is delivered. The paper's `O(m n² log n)` bound
//!   is in these rounds;
//! * **transient faults** ([`faults`]) corrupt node state and channel
//!   contents arbitrarily — the adversary self-stabilization is defined
//!   against (Definition 1);
//! * **dynamic topology** ([`faults::ChurnEvent`], [`Network::remove_edge`]
//!   and friends): edges appear and disappear, nodes crash and rejoin,
//!   partitions form and heal — the churn regime under which
//!   re-convergence is measured.
//!
//! There is one round loop: a **round engine** over a **flat message
//! fabric** (see [`runner::Runner`] and [`network`]). Every golden trace
//! and committed digest was recorded on it; [`Backend`] names it and
//! nothing else. Every directed edge owns a dense channel *slot* taken
//! from the graph's CSR view. A round's obligations are found in one
//! ascending pass: a tick for every alive node whose [`Automaton::enabled`]
//! predicate holds, then a delivery for every message queued on each slot.
//! Under the paper's do-forever loop every live node is enabled and every
//! live channel is occupied each round, so the pass skips next to nothing,
//! and a round of `k` obligations costs `O(n + #slots + k log k)`: the
//! pass, one sort of one `u64` order word per obligation, and a linear
//! pass that re-sorts the words whose high bits tie by the exact
//! `(key, seq)`. Each delivery executes by the channel slot it was
//! enumerated from. The steady-state round loop performs no ordered-tree
//! operations and no heap allocations, and an [`Observer`] can split its
//! time into [`Stage`]s. All three daemons stay bit-for-bit deterministic
//! per seed.
//!
//! The crate is generic over the protocol: the MDST protocol lives in
//! `ssmdst-core`, and the simulator only sees [`Automaton`] + [`Message`]
//! (a small reference protocol, the self-stabilizing [`protocols::FloodEcho`]
//! minimum flood, ships in-crate).
//!
//! **Driving a run**: the composable surface is [`Session`] — a fluent
//! builder over network + scheduler + horizon — with
//! cross-cutting machinery (the [`ScheduleDigest`] replay witness,
//! per-round closures, stop conditions) attached as statically-dispatched
//! [`Observer`]s (`on_event`, `on_round_end`, `on_phase`, and the stage
//! marks `on_round_start` and `on_stage_end`); the unit observer costs
//! nothing, so the zero-alloc steady state survives a `Session<A, ()>`.
//! The [`Runner`] underneath is the round engine and offers two step
//! primitives, `step_round` and `step_round_observed`; every run loop
//! goes through a [`Session`].
//! Convergence detection lives in one named predicate,
//! [`stop::QuiescenceGate`], shared by every driver.

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod automaton;
pub mod backend;
pub(crate) mod events;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod observer;
pub mod parallel;
pub mod protocols;
pub mod runner;
pub mod scheduler;
pub mod session;
pub mod stop;
pub mod trace;

pub use automaton::{Automaton, Message, Outbox};
pub use backend::Backend;
pub use faults::{ChurnEvent, Corrupt, TopologyPlan};
pub use metrics::{log2_bucket, KindStats, Metrics};
pub use network::Network;
pub use observer::{
    observe_rounds, stop_when, EveryRound, Observer, ScheduleDigest, Stage, Stop, StopWhen,
};
pub use runner::Runner;
pub use scheduler::{Action, Scheduler};
pub use session::{RunOutcome, Session, SessionBuilder, StopReason};
pub use stop::{quiet_window, QuiescenceGate};
pub use trace::{Digest, RunTrace, TraceRecord};

/// Node identifier; dense indices `0..n` matching `ssmdst_graph::NodeId`.
pub type NodeId = u32;
