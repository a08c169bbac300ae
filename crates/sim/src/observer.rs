//! The composable [`Observer`] trait: cross-cutting run machinery as
//! plug-in values.
//!
//! Everything the drivers used to hand-roll around the round loop —
//! schedule digests, per-round bookkeeping, stop conditions — is
//! expressed as an [`Observer`] hooked into [`crate::Session`] (or
//! directly into [`crate::Runner::step_round_observed`]). Observers
//! compose **statically**: the tuple `(O1, O2)` is itself an observer
//! that fans every hook out to both members, so any number of concerns
//! stack without boxing, without dynamic dispatch, and — because every
//! hook of the unit observer `()` is an empty inlineable default —
//! without costing the zero-allocation steady-state round loop anything
//! when nothing is attached (`tests/zero_alloc.rs` pins this).
//!
//! The crate ships three observers: [`ScheduleDigest`] (the replay
//! witness) and the closure adapters [`observe_rounds`] and
//! [`stop_when`]. Anything else — the scenario engine's recorder, an
//! experiment's instrument — is a caller-side impl of the trait.
//!
//! Ordering contract: observers never perturb the execution. All hooks
//! take the network immutably; two runs of the same seeded network are
//! bit-identical whether zero, one, or ten observers are attached, and
//! regardless of composition order. The observer-composition test fences
//! this: three observers stacked in any order yield byte-identical
//! digests.
//!
//! Event timing: [`Observer::on_event`] fires immediately before that
//! event executes, in execution order, inside the round loop itself.
//! It receives no network, so an observer cannot tell this from seeing
//! the whole batch up front, and the stream is the round's full
//! schedule: every *scheduled* event, including a tick whose guard an
//! earlier delivery of the round falsified.

#![warn(missing_docs)]

use crate::automaton::Automaton;
use crate::network::Network;
use crate::scheduler::Action;
use crate::trace::Digest;

/// An observer's verdict after a round: keep going or stop the run.
///
/// Returned by [`Observer::on_round_end`]; any composed observer
/// answering [`Stop::Done`] ends the enclosing [`crate::Session::run`]
/// (the outcome reports [`crate::StopReason::Converged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Stop {
    /// Keep running.
    Continue,
    /// Stop the run after this round.
    Done,
}

impl Stop {
    /// Combine two verdicts: stop if either side wants to stop.
    pub fn or(self, other: Stop) -> Stop {
        if self == Stop::Done || other == Stop::Done {
            Stop::Done
        } else {
            Stop::Continue
        }
    }

    /// Whether this verdict ends the run.
    pub fn is_done(self) -> bool {
        self == Stop::Done
    }
}

/// Hooks into the simulation loop. All methods default to no-ops (and
/// [`Stop::Continue`]), so an observer implements only what it needs.
///
/// * [`on_event`](Observer::on_event) — once per scheduled event of the
///   round, immediately before that event executes, in execution order
///   (this is the record-replay witness stream: key, enumeration index,
///   action);
/// * [`on_round_end`](Observer::on_round_end) — after the round executed,
///   with the post-round network and the completed-round count; returns
///   the stop decision;
/// * [`on_phase`](Observer::on_phase) — at driver-defined phase
///   boundaries (fault bursts, topology churn, scenario phases), with the
///   post-event network and a rendered label.
pub trait Observer<A: Automaton> {
    /// Called for every scheduled event of the round, immediately before
    /// that event executes, in execution order. `key` is the daemon
    /// priority key, `idx` the canonical enumeration index (the
    /// total-order tie-break). The stream lists *scheduled* events: a tick
    /// whose guard an earlier delivery of the same round falsified is
    /// still reported, although it does not fire.
    fn on_event(&mut self, _key: u128, _idx: u32, _action: Action) {}

    /// Called after the round executed; `round` is the number of completed
    /// rounds. Return [`Stop::Done`] to end the enclosing run.
    fn on_round_end(&mut self, _net: &Network<A>, _round: u64) -> Stop {
        Stop::Continue
    }

    /// Called at driver-defined phase boundaries — a fault burst, a
    /// topology-churn event ([`crate::Session::churn`] or a planned
    /// [`crate::SessionBuilder::churn_at`] firing), or a
    /// [`crate::Session::phase`] announcement — with the post-event
    /// network and a rendered label.
    fn on_phase(&mut self, _net: &Network<A>, _label: &str, _round: u64) {}
}

/// The unit observer: observes nothing, never stops the run. Attaching it
/// costs nothing — every hook is an empty default the compiler erases.
impl<A: Automaton> Observer<A> for () {}

/// Pair combinator: fans every hook out to both members (left first) and
/// stops when *either* member answers [`Stop::Done`]. Nest pairs for any
/// arity: `((a, b), c)`. Both members always see every hook — the stop
/// decision is not short-circuited, so bookkeeping observers stay
/// consistent even when a sibling ends the run.
impl<A: Automaton, O1: Observer<A>, O2: Observer<A>> Observer<A> for (O1, O2) {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        self.0.on_event(key, idx, action);
        self.1.on_event(key, idx, action);
    }
    fn on_round_end(&mut self, net: &Network<A>, round: u64) -> Stop {
        let a = self.0.on_round_end(net, round);
        let b = self.1.on_round_end(net, round);
        a.or(b)
    }
    fn on_phase(&mut self, net: &Network<A>, label: &str, round: u64) {
        self.0.on_phase(net, label, round);
        self.1.on_phase(net, label, round);
    }
}

/// Borrowed observers observe too — lets a driver compose a transient
/// stop condition with a session-owned observer for one call.
impl<A: Automaton, O: Observer<A>> Observer<A> for &mut O {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        (**self).on_event(key, idx, action);
    }
    fn on_round_end(&mut self, net: &Network<A>, round: u64) -> Stop {
        (**self).on_round_end(net, round)
    }
    fn on_phase(&mut self, net: &Network<A>, label: &str, round: u64) {
        (**self).on_phase(net, label, round);
    }
}

/// Fold one scheduled event into a digest — the canonical encoding of the
/// record-replay witness stream (priority key, enumeration index, action
/// tag and operands). [`ScheduleDigest`] and the scenario engine's
/// recorder share this function, so their schedule folds are
/// byte-identical by construction.
// lint: hot-path
pub fn fold_event(digest: &mut Digest, key: u128, idx: u32, action: Action) {
    digest.write_u128(key);
    digest.write_u32(idx);
    match action {
        Action::Tick(v) => {
            digest.write_u32(0);
            digest.write_u32(v);
        }
        Action::Deliver(from, to) => {
            digest.write_u32(1);
            digest.write_u32(from);
            digest.write_u32(to);
        }
    }
}

/// Observer that folds every scheduled event into a chained [`Digest`] —
/// the *schedule witness*: two runs whose values agree executed the
/// identical schedule. Attach it to a [`crate::Session`], or pass it to
/// [`crate::Runner::step_round_observed`] to fold a bare runner's rounds.
#[derive(Debug, Clone, Default)]
pub struct ScheduleDigest {
    digest: Digest,
}

impl ScheduleDigest {
    /// Fresh digest (FNV-1a offset basis).
    pub fn new() -> Self {
        ScheduleDigest {
            digest: Digest::new(),
        }
    }

    /// Current chained value.
    pub fn value(&self) -> u64 {
        self.digest.value()
    }
}

impl<A: Automaton> Observer<A> for ScheduleDigest {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        fold_event(&mut self.digest, key, idx, action);
    }
}

/// Closure adapter: run `f` after every round (never stops the run).
#[derive(Debug)]
pub struct EveryRound<F>(F);

/// Wrap a per-round callback as an observer.
pub fn observe_rounds<F>(f: F) -> EveryRound<F> {
    EveryRound(f)
}

impl<A: Automaton, F: FnMut(&Network<A>, u64)> Observer<A> for EveryRound<F> {
    fn on_round_end(&mut self, net: &Network<A>, round: u64) -> Stop {
        (self.0)(net, round);
        Stop::Continue
    }
}

/// Closure adapter: stop the run when `f` returns `true` (checked after
/// every round).
#[derive(Debug)]
pub struct StopWhen<F>(F);

/// Wrap a stop predicate as an observer.
pub fn stop_when<F>(f: F) -> StopWhen<F> {
    StopWhen(f)
}

impl<A: Automaton, F: FnMut(&Network<A>, u64) -> bool> Observer<A> for StopWhen<F> {
    fn on_round_end(&mut self, net: &Network<A>, round: u64) -> Stop {
        if (self.0)(net, round) {
            Stop::Done
        } else {
            Stop::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Message, Outbox};
    use crate::runner::Runner;
    use crate::scheduler::Scheduler;
    use crate::session::Session;
    use crate::NodeId;

    #[derive(Debug, Clone)]
    struct Ping;
    impl Message for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
        fn size_bits(&self, _n: usize) -> usize {
            1
        }
    }

    #[derive(Debug)]
    struct Chat {
        neighbors: Vec<NodeId>,
        heard: u32,
    }
    impl Automaton for Chat {
        type Msg = Ping;
        fn tick(&mut self, out: &mut Outbox<Ping>) {
            for &w in &self.neighbors {
                out.send(w, Ping);
            }
        }
        fn receive(&mut self, _: NodeId, _: Ping, _: &mut Outbox<Ping>) {
            self.heard += 1;
        }
    }

    fn net() -> Network<Chat> {
        let g = ssmdst_graph::generators::structured::path(6).unwrap();
        Network::from_graph(&g, |_, nbrs| Chat {
            neighbors: nbrs.to_vec(),
            heard: 0,
        })
    }

    fn runner(sched: Scheduler) -> Runner<Chat> {
        Runner::new(net(), sched)
    }

    fn session(sched: Scheduler) -> Session<Chat> {
        Session::from_network(net()).scheduler(sched).build()
    }

    #[test]
    fn stop_or_is_sticky() {
        assert_eq!(Stop::Continue.or(Stop::Continue), Stop::Continue);
        assert_eq!(Stop::Done.or(Stop::Continue), Stop::Done);
        assert_eq!(Stop::Continue.or(Stop::Done), Stop::Done);
        assert!(Stop::Done.is_done());
        assert!(!Stop::Continue.is_done());
    }

    /// `ScheduleDigest` folds exactly the `on_event` stream through
    /// `fold_event`, and a session folds the same schedule as a bare
    /// runner stepped through `step_round_observed`.
    #[test]
    fn schedule_digest_matches_manual_fold_and_session() {
        #[derive(Default)]
        struct Events(Vec<(u128, u32, Action)>);
        impl Observer<Chat> for Events {
            fn on_event(&mut self, key: u128, idx: u32, action: Action) {
                self.0.push((key, idx, action));
            }
        }
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 7 },
            Scheduler::Adversarial { seed: 7 },
        ] {
            let mut obs = (ScheduleDigest::new(), Events::default());
            let mut r = runner(sched);
            for _ in 0..20 {
                let _ = r.step_round_observed(&mut obs);
            }
            let (digest, events) = obs;
            let mut manual = Digest::new();
            for &(key, idx, action) in &events.0 {
                fold_event(&mut manual, key, idx, action);
            }
            assert_eq!(digest.value(), manual.value(), "fold diverged: {sched:?}");
            let mut s = Session::from_network(net())
                .scheduler(sched)
                .observe(ScheduleDigest::new());
            let _ = s.run_until(20, &mut ());
            assert_eq!(s.observer().value(), digest.value(), "{sched:?}");
        }
    }

    /// Tuple composition fans hooks to both members and combines the stop
    /// decision without short-circuiting.
    #[test]
    fn pair_combinator_fans_out_and_stops() {
        let mut rounds_seen = 0u64;
        let mut s = session(Scheduler::Synchronous);
        let out = {
            let mut obs = (
                observe_rounds(|_: &Network<Chat>, _| rounds_seen += 1),
                stop_when(|_: &Network<Chat>, round| round >= 3),
            );
            s.run_until(100, &mut obs)
        };
        assert!(out.converged());
        assert_eq!(out.rounds, 3);
        assert_eq!(rounds_seen, 3, "left member saw every round");
    }

    /// Per-round probes (here `observe_rounds` closures sampling the
    /// network) record once per round and never perturb the run.
    #[test]
    fn trace_and_metrics_observers_record_per_round() {
        let mut trace = Vec::new();
        let mut sent = Vec::new();
        let mut s = session(Scheduler::Synchronous);
        let _ = s.run_until(
            5,
            &mut (
                observe_rounds(|net: &Network<Chat>, round| {
                    trace.push((round, net.in_flight(), net.metrics.total_delivered));
                }),
                observe_rounds(|net: &Network<Chat>, _| sent.push(net.metrics.total_sent)),
            ),
        );
        assert_eq!(trace.len(), 5);
        assert_eq!(sent.len(), 5);
        assert_eq!(trace[0].0, 1, "rounds are 1-based counts");
        assert!(sent.windows(2).all(|w| w[0] <= w[1]));
        // Unobserved twin run is identical.
        let mut bare = runner(Scheduler::Synchronous);
        for _ in 0..5 {
            bare.step_round();
        }
        assert_eq!(bare.network().metrics.total_sent, *sent.last().unwrap());
    }
}
