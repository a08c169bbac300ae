//! [`Session`]: the one composable driver surface.
//!
//! A session bundles everything a run needs — network, scheduler, round
//! horizon and a stack of [`Observer`]s — behind one fluent builder and one `run()`/`step()`
//! surface. Every driver in the workspace is a thin layer over a
//! `Session`: the scenario engine, which the experiment harness and every
//! `ssmdst` subcommand run through. Protocol-specific machinery plugs in
//! as observers rather than as bespoke loops.
//!
//! ```
//! use ssmdst_sim::{Automaton, Message, Network, Outbox, Scheduler, Session};
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Message for Ping {
//!     fn kind(&self) -> &'static str { "Ping" }
//!     fn size_bits(&self, _n: usize) -> usize { 1 }
//! }
//! struct Chatter { neighbors: Vec<u32>, heard: u32 }
//! impl Automaton for Chatter {
//!     type Msg = Ping;
//!     fn tick(&mut self, out: &mut Outbox<Ping>) {
//!         for &w in &self.neighbors { out.send(w, Ping); }
//!     }
//!     fn receive(&mut self, _: u32, _: Ping, _: &mut Outbox<Ping>) { self.heard += 1; }
//! }
//!
//! let g = ssmdst_graph::graph::graph_from_edges(2, &[(0, 1)]);
//! let net = Network::from_graph(&g, |_, nbrs| Chatter { neighbors: nbrs.to_vec(), heard: 0 });
//! let mut session = Session::from_network(net)
//!     .scheduler(Scheduler::Synchronous)
//!     .horizon(10)
//!     .build();
//! let out = session.run_until(10, &mut ssmdst_sim::stop_when(|net: &ssmdst_sim::Network<Chatter>, _| {
//!     net.node(0).heard >= 3
//! }));
//! assert!(out.converged());
//! ```
//!
//! The steady-state loop stays **zero-allocation when no observer is
//! attached**: a `Session<A, ()>` round is the same machine code as a bare
//! [`Runner`] round (`tests/zero_alloc.rs` meters both).

#![warn(missing_docs)]

use crate::automaton::Automaton;
use crate::backend::Backend;
use crate::faults::{apply_churn, inject, ChurnEvent, Corrupt, FaultPlan};
use crate::network::Network;
use crate::observer::{Observer, Stop};
use crate::runner::Runner;
use crate::scheduler::Scheduler;
use crate::stop::QuiescenceGate;
use crate::NodeId;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The observer predicate returned `true`.
    Converged,
    /// The round limit was reached first.
    RoundLimit,
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "inspect the outcome: a run that hit its round limit did not converge"]
pub struct RunOutcome {
    /// Rounds executed in this call.
    pub rounds: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

impl RunOutcome {
    /// Whether the observer predicate was satisfied.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}

/// Fluent construction state for a [`Session`]. Finish with
/// [`SessionBuilder::build`] (no observers) or
/// [`SessionBuilder::observe`] (attach an observer stack).
#[must_use = "a session builder does nothing until .build() or .observe() finishes it"]
pub struct SessionBuilder<A: Automaton> {
    net: Network<A>,
    sched: Scheduler,
    horizon: u64,
}

impl<A: Automaton> SessionBuilder<A> {
    /// Choose the daemon (default: [`Scheduler::Synchronous`]).
    pub fn scheduler(mut self, sched: Scheduler) -> Self {
        self.sched = sched;
        self
    }

    /// Accepts the round-loop [`Backend`]. There is one round loop, so
    /// this changes nothing; see [`Backend`] for why it still exists.
    pub fn backend(self, _backend: Backend) -> Self {
        self
    }

    /// Default round budget for [`Session::run`] and
    /// [`Session::run_to_quiescence`]. Defaults to
    /// [`Session::DEFAULT_HORIZON`] — deliberately finite, so a
    /// non-converging run returns [`crate::StopReason::RoundLimit`]
    /// instead of hanging when a caller forgets the bound; pass
    /// `u64::MAX` explicitly for an unbounded session.
    pub fn horizon(mut self, rounds: u64) -> Self {
        self.horizon = rounds;
        self
    }

    /// Corrupt the initial configuration — the paper's
    /// arbitrary-configuration start. Applied immediately, before round 0.
    pub fn corrupt(mut self, plan: FaultPlan) -> Self
    where
        A: Corrupt,
    {
        let _ = inject(&mut self.net, plan);
        self
    }

    /// Finish with an observer stack attached (a single observer, or a
    /// nested tuple of them).
    pub fn observe<O: Observer<A>>(self, obs: O) -> Session<A, O> {
        Session {
            runner: Runner::new(self.net, self.sched),
            obs,
            horizon: self.horizon,
        }
    }

    /// Finish with no observers: the zero-overhead configuration.
    pub fn build(self) -> Session<A, ()> {
        self.observe(())
    }
}

/// A configured simulation run: network + scheduler + horizon +
/// observers, with one `run()`/`step()` surface.
///
/// Construct via [`Session::from_network`] over a pre-built network
/// ([`Network::from_graph`], or a protocol crate's `build_network`).
#[must_use = "a session does nothing until run() or step() drives it"]
pub struct Session<A: Automaton, O: Observer<A> = ()> {
    runner: Runner<A>,
    obs: O,
    horizon: u64,
}

impl<A: Automaton> Session<A, ()> {
    /// Fallback round budget when the builder sets no
    /// [`SessionBuilder::horizon`]: large enough for every workload in
    /// this workspace, finite so a forgotten bound can never hang a
    /// process.
    pub const DEFAULT_HORIZON: u64 = 1_000_000;

    /// Start building a session over a pre-built network.
    pub fn from_network(net: Network<A>) -> SessionBuilder<A> {
        SessionBuilder {
            net,
            sched: Scheduler::Synchronous,
            horizon: Self::DEFAULT_HORIZON,
        }
    }
}

impl<A: Automaton, O: Observer<A>> Session<A, O> {
    /// The wrapped network (oracles, metrics).
    pub fn network(&self) -> &Network<A> {
        self.runner.network()
    }

    /// Mutable network access (ad-hoc fault injection and churn between
    /// rounds).
    pub fn network_mut(&mut self) -> &mut Network<A> {
        self.runner.network_mut()
    }

    /// The attached observer stack.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Mutable access to the observer stack (e.g. to reconfigure a stop
    /// condition between phases or fold extra data into a digest).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Split borrow: the observer stack mutably alongside the network —
    /// for observers that judge or index the current topology between
    /// phases without cloning it.
    pub fn observer_and_network(&mut self) -> (&mut O, &Network<A>) {
        (&mut self.obs, self.runner.network())
    }

    /// Completed rounds since the session started.
    pub fn round(&self) -> u64 {
        self.runner.round()
    }

    /// Default round budget for [`Session::run`].
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Dismantle into the runner and the observer stack.
    pub fn into_parts(self) -> (Runner<A>, O) {
        (self.runner, self.obs)
    }

    /// Execute one round through the observer stack. Returns the
    /// observers' stop verdict.
    pub fn step(&mut self) -> Stop {
        self.runner.step_round_observed(&mut self.obs)
    }

    /// Run until the attached observers answer [`Stop::Done`] or the
    /// session horizon elapses.
    pub fn run(&mut self) -> RunOutcome {
        let horizon = self.horizon;
        self.run_until(horizon, &mut ())
    }

    /// Run until the attached observers *or* the extra `stop` observer
    /// answer [`Stop::Done`], or `max_rounds` elapse. The extra observer
    /// is borrowed for this call only, so per-call stop conditions compose
    /// with session-owned machinery.
    pub fn run_until<S: Observer<A>>(&mut self, max_rounds: u64, stop: &mut S) -> RunOutcome {
        let start = self.runner.round();
        while self.runner.round() - start < max_rounds {
            let verdict = self
                .runner
                .step_round_observed(&mut (&mut self.obs, &mut *stop));
            if verdict.is_done() {
                return RunOutcome {
                    rounds: self.runner.round() - start,
                    reason: StopReason::Converged,
                };
            }
        }
        RunOutcome {
            rounds: self.runner.round() - start,
            reason: StopReason::RoundLimit,
        }
    }

    /// Run until a projection of the global state has been stable for
    /// `window` consecutive rounds (the [`QuiescenceGate`] predicate), or
    /// the session horizon elapses.
    pub fn run_to_quiescence<P: PartialEq>(
        &mut self,
        window: u64,
        mut project: impl FnMut(&Network<A>) -> P,
    ) -> RunOutcome {
        let horizon = self.horizon;
        let mut gate = QuiescenceGate::primed(window, project(self.network()));
        self.run_until(
            horizon,
            &mut crate::observer::stop_when(move |net: &Network<A>, _| gate.observe(project(net))),
        )
    }

    /// Inject a transient-fault burst (observers are notified via
    /// [`Observer::on_phase`] with a `fault` label). Returns the sorted
    /// victim list.
    pub fn inject(&mut self, plan: FaultPlan) -> Vec<NodeId>
    where
        A: Corrupt,
    {
        let victims = inject(self.runner.network_mut(), plan);
        let round = self.runner.round();
        self.obs.on_phase(self.runner.network(), "fault", round);
        victims
    }

    /// Apply one topology-churn event now (observers are notified via
    /// [`Observer::on_phase`] with the event's rendered label and the
    /// post-event network). Returns the number of in-flight messages
    /// dropped by the change.
    pub fn churn(&mut self, ev: &ChurnEvent) -> usize {
        let dropped = apply_churn(self.runner.network_mut(), ev);
        let label = ev.to_string();
        let round = self.runner.round();
        self.obs.on_phase(self.runner.network(), &label, round);
        dropped
    }

    /// Announce a driver-defined phase boundary to the observer stack.
    pub fn phase(&mut self, label: &str) {
        let round = self.runner.round();
        self.obs.on_phase(self.runner.network(), label, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Message, Outbox};
    use crate::observer::{observe_rounds, stop_when, ScheduleDigest};
    use ssmdst_graph::generators::structured::path;

    #[derive(Debug, Clone)]
    struct Val(u32);
    impl Message for Val {
        fn kind(&self) -> &'static str {
            "Val"
        }
        fn size_bits(&self, _n: usize) -> usize {
            32
        }
    }

    /// Min-propagation: floods the smallest value seen.
    #[derive(Debug)]
    struct MinFlood {
        neighbors: Vec<NodeId>,
        value: u32,
    }
    impl Corrupt for MinFlood {
        fn corrupt(&mut self, rng: &mut rand::rngs::StdRng) {
            use rand::Rng;
            self.value = rng.random_range(0..1000u32);
        }
    }

    impl Automaton for MinFlood {
        type Msg = Val;
        fn tick(&mut self, out: &mut Outbox<Val>) {
            for &w in &self.neighbors {
                out.send(w, Val(self.value));
            }
        }
        fn receive(&mut self, _: NodeId, msg: Val, _: &mut Outbox<Val>) {
            self.value = self.value.min(msg.0);
        }
        fn on_topology_change(&mut self, neighbors: &[NodeId]) {
            self.neighbors = neighbors.to_vec();
        }
    }

    fn builder(n: usize) -> SessionBuilder<MinFlood> {
        Session::from_network(min_net(n))
    }

    fn min_net(n: usize) -> Network<MinFlood> {
        let g = path(n).unwrap();
        Network::from_graph(&g, |v, nbrs| MinFlood {
            neighbors: nbrs.to_vec(),
            value: 100 - v,
        })
    }

    /// Records every phase boundary the session announces: the label, the
    /// round, and node 2's live degree at notification time.
    #[derive(Default)]
    struct PhaseLabels(Vec<(String, u64, usize)>);
    impl Observer<MinFlood> for PhaseLabels {
        fn on_phase(&mut self, net: &Network<MinFlood>, label: &str, round: u64) {
            self.0
                .push((label.to_string(), round, net.neighbors(2).len()));
        }
    }

    /// A session run, with a schedule digest attached and a fault burst
    /// and a churn event applied mid-run through the session, executes
    /// exactly the schedule of a bare runner stepped round by round with
    /// the same interventions, under every daemon.
    #[test]
    fn session_run_matches_bare_runner() {
        let fault = FaultPlan {
            node_fraction: 0.5,
            message_drop: 0.5,
            seed: 3,
        };
        let cut = ChurnEvent::RemoveEdge(3, 4);
        let values =
            |net: &Network<MinFlood>| net.nodes().iter().map(|n| n.value).collect::<Vec<_>>();
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 7 },
            Scheduler::Adversarial { seed: 7 },
        ] {
            let mut session = builder(9).scheduler(sched).observe(ScheduleDigest::new());
            let mut outs = vec![session.run_until(10, &mut ())];
            let _ = session.inject(fault);
            outs.push(session.run_until(10, &mut ()));
            let _ = session.churn(&cut);
            outs.push(session.run_until(10, &mut ()));
            for out in outs {
                assert_eq!(out.reason, StopReason::RoundLimit);
                assert_eq!(out.rounds, 10);
            }

            let mut runner = Runner::new(min_net(9), sched);
            let mut digest = ScheduleDigest::new();
            for round in 0..30 {
                if round == 10 {
                    let _ = inject(runner.network_mut(), fault);
                }
                if round == 20 {
                    let _ = apply_churn(runner.network_mut(), &cut);
                }
                let _ = runner.step_round_observed(&mut digest);
            }

            assert_eq!(
                values(session.network()),
                values(runner.network()),
                "session and bare runner diverged under {sched:?}"
            );
            assert_eq!(
                session.network().metrics.total_sent,
                runner.network().metrics.total_sent,
                "{sched:?}"
            );
            assert_eq!(session.round(), runner.round(), "{sched:?}");
            assert_eq!(
                session.observer().value(),
                digest.value(),
                "schedules diverged under {sched:?}"
            );
        }
    }

    #[test]
    fn run_to_quiescence_uses_horizon_and_converges() {
        let mut session = builder(6).horizon(1_000).build();
        let out = session.run_to_quiescence(3, |net| {
            net.nodes().iter().map(|a| a.value).collect::<Vec<_>>()
        });
        assert!(out.converged());
        assert!(session.network().nodes().iter().all(|a| a.value == 95));
    }

    #[test]
    fn horizon_caps_run() {
        let mut session = builder(6).horizon(4).build();
        let out = session.run();
        assert_eq!(out.reason, StopReason::RoundLimit);
        assert_eq!(out.rounds, 4);
        assert_eq!(session.round(), 4);
    }

    /// Churn applied between rounds takes effect before the next round,
    /// notifies observers, and the run re-converges around it.
    #[test]
    fn planned_churn_applies_at_round_and_notifies() {
        let mut session = builder(6).observe(PhaseLabels::default());
        // The cut lands before round 1's deliveries, so value 97 never
        // crosses to the left side.
        let _ = session.run_until(1, &mut ());
        let _ = session.churn(&ChurnEvent::RemoveEdge(2, 3));
        let _ = session.run_until(9, &mut ());
        assert_eq!(session.observer().0, [("-edge(2,3)".to_string(), 1, 1)]);
        // The cut partitions the path: the left side keeps its own min.
        let _ = session.run_until(50, &mut ());
        assert_eq!(session.network().node(0).value, 98);
    }

    #[test]
    fn corrupt_at_birth_requires_and_uses_corrupt_impl() {
        let mut session = builder(8).corrupt(FaultPlan::total(3)).horizon(200).build();
        // Not self-stabilizing (latched min), but the run is deterministic.
        let out = session.run_to_quiescence(5, |net| {
            net.nodes().iter().map(|a| a.value).collect::<Vec<_>>()
        });
        assert!(out.converged());
    }

    /// `on_phase` fires post-application for explicit churn, and
    /// `observer_and_network` hands the log back alongside the live
    /// topology.
    #[test]
    fn on_phase_hook_sees_explicit_churn_topology() {
        let mut session = builder(6).observe(PhaseLabels::default());
        let _ = session.run_until(2, &mut ());
        let _ = session.churn(&ChurnEvent::RemoveEdge(2, 3));
        let _ = session.run_until(3, &mut ());
        let _ = session.churn(&ChurnEvent::InsertEdge(2, 3));
        let (obs, net) = session.observer_and_network();
        assert_eq!(obs.0.len(), 2);
        assert_eq!(obs.0[0], ("-edge(2,3)".to_string(), 2, 1));
        let explicit = &obs.0[1];
        assert_eq!(explicit.0, "+edge(2,3)");
        assert_eq!(explicit.1, 5);
        assert_eq!(explicit.2, 2, "hook sees the post-event topology");
        assert_eq!(net.neighbors(2).len(), 2);
    }

    /// `observe` attaches the stack at build time; `into_parts` returns
    /// the runner and the observer with the run state intact.
    #[test]
    fn observer_lifecycle() {
        let mut session = builder(5).observe(ScheduleDigest::new());
        let _ = session.run_until(5, &mut ());
        let (runner, digest) = session.into_parts();
        assert_eq!(runner.round(), 5);
        assert_ne!(digest.value(), crate::trace::Digest::new().value());
    }

    /// Composed per-call stop observers end the run and report Converged.
    #[test]
    fn per_call_stop_condition() {
        let mut seen = 0u64;
        let mut session = builder(8).observe(observe_rounds(|_: &Network<MinFlood>, _| {}));
        let out = session.run_until(
            100,
            &mut (
                observe_rounds(|_: &Network<MinFlood>, _| seen += 1),
                stop_when(|net: &Network<MinFlood>, _| net.node(7).value == 93),
            ),
        );
        assert!(out.converged());
        assert!(seen > 0);
    }
}
