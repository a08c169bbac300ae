//! # ssmdst — self-stabilizing minimum-degree spanning tree
//!
//! Facade crate re-exporting the whole reproduction of Blin, Gradinariu
//! Potop-Butucaru & Rovedakis, *"Self-stabilizing minimum-degree spanning
//! tree within one from the optimal degree"* (IPDPS 2009):
//!
//! * [`graph`] — graph substrate: representation, generators, exact MDST,
//!   lower bounds ([`ssmdst_graph`]);
//! * [`sim`] — event-driven asynchronous message-passing simulator with
//!   FIFO channels, schedulers, fault injection, dynamic topology, and
//!   the composable [`sim::Session`] + [`sim::Observer`] execution API
//!   ([`ssmdst_sim`]);
//! * [`core`] — the protocol itself ([`ssmdst_core`]);
//! * [`baselines`] — Fürer–Raghavachari, serialized-improvement and naive
//!   tree baselines ([`ssmdst_baselines`]);
//! * [`exact`] — the incremental exact-`Δ*` engine: a certified-interval
//!   solver pivoting a [`graph::SpanningTree`], with witness objects and
//!   an incremental re-solver for judging under churn ([`ssmdst_exact`]);
//! * [`scenario`] — declarative scenarios, bit-exact record-replay,
//!   delta-debugging shrinker and campaign sweeps, generic over the
//!   protocol registry ([`ssmdst_scenario`]; `ssmdst replay` /
//!   `ssmdst shrink` on the CLI).
//!
//! ## Paper-to-code map
//!
//! Where the paper's vocabulary lives in this workspace:
//!
//! | paper concept | implementation |
//! |---|---|
//! | optimal degree `Δ*` (called `D*` in places) | [`exact::Solver`] (certified interval, any scale), [`graph::mdst_exact::exact_mdst`] (branch-and-bound oracle, small `n`) |
//! | witness set `W` certifying `Δ* ≥ …` (Lemma 4) | [`exact::Witness`] (independent of the search that found it) |
//! | spanning-tree rules R1/R2, min-ID root election | [`core::spanning_tree`] |
//! | `dmax` propagation (PIF over the tree) | [`core::maxdeg`] |
//! | fundamental-**cycle search** (DFS token per non-tree edge) | [`core::cycle_search`] |
//! | `Action_on_Cycle`, improving/blocking edges, `Deblock` | [`core::reduction`] |
//! | **fragments** (the serialized predecessor \[3\] this paper improves on) | [`baselines::fragment`] |
//! | legitimacy predicate (Definition 1) | [`core::oracle::is_legitimate`] |
//! | transient faults & topology churn | [`sim::faults`] |
//! | re-convergence under churn (`deg ≤ Δ*+1` per component) | [`core::churn`] |
//! | the run loop / daemon model (§2) | [`sim::session::Session`] over [`sim::runner::Runner`] |
//! | cross-cutting instrumentation (digests, traces, metrics, stops) | [`sim::observer`], [`sim::stop`] |
//! | the protocol axis of the scenario space | [`scenario::protocol`] (registry; `mdst` and `flood-echo`) |
//!
//! ## Quickstart
//!
//! Every run goes through a [`sim::Session`] — the one composable driver
//! surface the scenario engine, the experiment harness and the CLI use:
//!
//! ```
//! use ssmdst::prelude::*;
//!
//! // A network whose BFS tree is terrible (hub degree n−1) but whose
//! // optimal spanning tree is a path (Δ* = 2).
//! let g = ssmdst::graph::generators::structured::star_with_ring(8).unwrap();
//!
//! // Run the protocol until its state projection (parents, `dmax`,
//! // distances) holds still for the canonical quiescence window.
//! let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
//!     .scheduler(Scheduler::Synchronous)
//!     .horizon(10_000)
//!     .build();
//! let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
//! assert!(out.converged());
//! let deg = oracle::current_degree(&g, session.network()).unwrap();
//! assert!(deg <= 3); // Δ* + 1 (Theorem 2)
//! ```
//!
//! For round-level control, stop on any predicate of the network:
//!
//! ```
//! use ssmdst::prelude::*;
//!
//! let g = ssmdst::graph::generators::structured::star_with_ring(8).unwrap();
//!
//! // Run the protocol until the global state is legitimate and low-degree.
//! let mut session = Session::from_network(ssmdst::core::build_network(&g, Config::for_n(g.n())))
//!     .scheduler(Scheduler::Synchronous)
//!     .horizon(10_000)
//!     .build();
//! let out = session.run_until(10_000, &mut stop_when(|net: &Network<MdstNode>, _| {
//!     ssmdst::core::oracle::current_degree(&g, net)
//!         .map(|d| d <= 3)
//!         .unwrap_or(false)
//! }));
//! assert!(out.converged());
//! ```

// Library code must not grow bare `.unwrap()`s: use `.expect` with the
// invariant that makes failure unreachable (ssmdst-lint R4 audits the
// reasons). Unit tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub use ssmdst_baselines as baselines;
pub use ssmdst_core as core;
pub use ssmdst_exact as exact;
pub use ssmdst_graph as graph;
pub use ssmdst_scenario as scenario;
pub use ssmdst_sim as sim;

/// Convenient glob-import surface for examples and tests.
///
/// ## The execution API
///
/// [`Session`](prelude::Session) + [`Observer`](prelude::Observer) are
/// the composable driver surface; cross-cutting machinery attaches as
/// observers:
///
/// ```
/// use ssmdst::prelude::*;
///
/// let g = ssmdst::graph::generators::structured::cycle(6).unwrap();
/// let mut rounds = 0u64;
/// let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
///     .scheduler(Scheduler::Synchronous)
///     .horizon(50_000)
///     .observe((
///         ScheduleDigest::new(),
///         observe_rounds(|_: &Network<MdstNode>, _| rounds += 1),
///     ));
/// let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
/// assert!(out.converged());
/// let (_, (digest, _)) = session.into_parts();
/// assert_ne!(digest.value(), 0);
/// assert_eq!(rounds, out.rounds);
/// ```
///
/// ## Scenarios and replay
///
/// A [`Scenario`](prelude::Scenario) is a committable artifact;
/// [`verify_replay`](prelude::verify_replay) checks a recorded trace
/// bit-for-bit:
///
/// ```
/// use ssmdst::prelude::*;
/// use ssmdst::scenario::engine;
///
/// let scn = Scenario::converge(
///     "doc",
///     TopologySpec::StarRing { n: 8 },
///     SchedSpec::Synchronous,
///     40_000,
/// );
/// let (out, trace) = engine::run_traced_any(&scn);
/// assert!(out.all_ok());
/// verify_replay(&scn, &trace).expect("bit-exact replay");
/// ```
///
/// ## Shrinking
///
/// [`shrink`](prelude::shrink) delta-debugs a failing scenario to a
/// minimal reproducer under a named [`Predicate`](prelude::Predicate):
///
/// ```
/// use ssmdst::prelude::*;
///
/// let mut scn = Scenario::converge(
///     "cap",
///     TopologySpec::Cycle { n: 8 },
///     SchedSpec::Synchronous,
///     1_000,
/// );
/// scn.stop.max_rounds = 20; // cannot confirm quiescence: always fails
/// let pred = Predicate::NotConverged;
/// let (minimal, _) = shrink(&scn, |s| pred.test(s)).expect("fails");
/// assert!(minimal.size() < scn.size());
/// ```
pub mod prelude {
    pub use ssmdst_baselines::{bfs_spanning_tree, fr_mdst, random_spanning_tree};
    pub use ssmdst_core::{build_network, oracle, Config, MdstNode};
    pub use ssmdst_graph::{Graph, GraphBuilder, SpanningTree};
    pub use ssmdst_scenario::shrink::shrink;
    pub use ssmdst_scenario::{
        verify_replay, Predicate, ProtocolSpec, Scenario, ScenarioOutcome, SchedSpec, StopSpec,
        TopologySpec,
    };
    pub use ssmdst_sim::{
        observe_rounds, quiet_window, stop_when, Network, Observer, QuiescenceGate, RunOutcome,
        Runner, ScheduleDigest, Scheduler, Session, SessionBuilder, Stop,
    };
}
