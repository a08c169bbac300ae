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
//! There is one round loop: an **event-driven engine** over a **flat
//! message fabric** (see [`runner::Runner`] and [`network`]). Every golden
//! trace and committed digest was recorded on it; [`Backend`] names it and
//! nothing else. Every directed edge owns a dense channel *slot* taken
//! from the graph's CSR view, per-round obligations are derived from two
//! incremental O(1)-transition indices — an enabled-tick set maintained
//! via dirty flags on node state, and a swap-remove channel occupancy
//! list — instead of per-round `O(n + #channels)` rescans, and the
//! steady-state round loop performs no ordered-tree operations and no heap
//! allocations. All three daemons stay bit-for-bit deterministic per seed.
//!
//! The crate is generic over the protocol: the MDST protocol lives in
//! `ssmdst-core`, and the simulator only sees [`Automaton`] + [`Message`]
//! (a small reference protocol, the self-stabilizing [`protocols::FloodEcho`]
//! minimum flood, ships in-crate).
//!
//! **Driving a run**: the composable surface is [`Session`] — a fluent
//! builder over network + scheduler + horizon + planned churn — with
//! cross-cutting machinery (the [`ScheduleDigest`] replay witness,
//! per-round closures, stop conditions) attached as statically-dispatched
//! [`Observer`]s with three hooks (`on_event`, `on_round_end`,
//! `on_phase`); the unit observer costs nothing, so the zero-alloc steady
//! state survives a `Session<A, ()>`. The [`Runner`] underneath is the
//! round engine and offers two step primitives, `step_round` and
//! `step_round_observed`; every run loop goes through a [`Session`].
//! Convergence detection lives in one named predicate,
//! [`stop::QuiescenceGate`], shared by every driver.

// Library code must not grow bare `.unwrap()`s: use `.expect` with the
// invariant that makes failure unreachable (ssmdst-lint R4 audits the
// reasons). Unit tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod automaton;
pub mod backend;
pub(crate) mod dense;
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
    observe_rounds, stop_when, EveryRound, Observer, ScheduleDigest, Stop, StopWhen,
};
pub use runner::Runner;
pub use scheduler::{Action, Scheduler};
pub use session::{RunOutcome, Session, SessionBuilder, StopReason};
pub use stop::{quiet_window, QuiescenceGate};
pub use trace::{Digest, RunTrace, TraceRecord};

/// Node identifier; dense indices `0..n` matching `ssmdst_graph::NodeId`.
pub type NodeId = u32;
