//! Tracing from outside the program: delegating wrappers around the
//! public traits, and a `Session::step` driver that reproduces the scenario
//! engine's replay digest.
//!
//! * [`Timed`] wraps an [`Automaton`]; it times every `tick`/`receive`.
//! * [`Traced`] wraps a [`Protocol`]; it times network build, projection,
//!   projection folding, judge construction and judging, and reads the
//!   exact engine's work counters off the MDST judge.
//! * [`drive`] runs a scenario through [`Session::step`] over a network of
//!   [`Timed`] nodes, folding the same digest chain as the engine, so the
//!   traced digest can be compared with the untraced one.
//!
//! Wrappers record into thread-local tallies that [`take`] drains.

use ssmdst_core::churn::DeltaJudge;
use ssmdst_exact::Stats;
use ssmdst_graph::Graph;
use ssmdst_scenario::{
    ConfigSpec, EngineOpts, EventAction, Flood, Mdst, PhaseJudgment, Protocol, Scenario, Timing,
};
use ssmdst_sim::observer::{fold_event, Observer, Stop};
use ssmdst_sim::{
    quiet_window, Action, Automaton, ChurnEvent, Corrupt, Digest, Metrics, Network, NodeId, Outbox,
    QuiescenceGate, Session,
};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Time spent in, and calls to, the wrapped layers since the last [`take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Nanoseconds inside automaton handlers.
    pub handler_ns: u64,
    /// `tick` calls.
    pub ticks: u64,
    /// `receive` calls.
    pub receives: u64,
    /// Nanoseconds in `Protocol::build`.
    pub build_ns: u64,
    /// Nanoseconds in `Protocol::project`.
    pub project_ns: u64,
    /// Nanoseconds in `Protocol::fold_projection`.
    pub fold_ns: u64,
    /// Nanoseconds in `Protocol::new_judge`.
    pub new_judge_ns: u64,
    /// Nanoseconds in `Protocol::judge`.
    pub judge_ns: u64,
    /// The MDST judge's exact-engine counters after its latest call
    /// (cumulative over one judge's life, so one scenario run).
    pub exact: Stats,
}

thread_local! {
    static HANDLER_NS: Cell<u64> = const { Cell::new(0) };
    static TICKS: Cell<u64> = const { Cell::new(0) };
    static RECEIVES: Cell<u64> = const { Cell::new(0) };
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    cell.with(|c| c.set(c.get() + by));
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Nanoseconds spent in [`Timed`] handlers so far on this thread.
pub fn handler_ns() -> u64 {
    HANDLER_NS.with(Cell::get)
}

/// Drain this thread's tallies.
pub fn take() -> Tally {
    let mut t = TALLY.with(|c| c.replace(Tally::default()));
    t.handler_ns = HANDLER_NS.with(|c| c.replace(0));
    t.ticks = TICKS.with(|c| c.replace(0));
    t.receives = RECEIVES.with(|c| c.replace(0));
    t
}

fn timed<T>(field: fn(&mut Tally) -> &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let ns = ns_since(t);
    TALLY.with(|c| *field(&mut c.borrow_mut()) += ns);
    out
}

/// An automaton whose handlers are timed; otherwise it is the wrapped one.
#[derive(Debug, Clone)]
pub struct Timed<A>(pub A);

impl<A: Automaton> Automaton for Timed<A> {
    type Msg = A::Msg;

    fn tick(&mut self, out: &mut Outbox<A::Msg>) {
        let t = Instant::now();
        self.0.tick(out);
        bump(&HANDLER_NS, ns_since(t));
        bump(&TICKS, 1);
    }

    fn receive(&mut self, from: NodeId, msg: A::Msg, out: &mut Outbox<A::Msg>) {
        let t = Instant::now();
        self.0.receive(from, msg, out);
        bump(&HANDLER_NS, ns_since(t));
        bump(&RECEIVES, 1);
    }

    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn on_topology_change(&mut self, neighbors: &[NodeId]) {
        self.0.on_topology_change(neighbors);
    }
}

impl<A: Corrupt> Corrupt for Timed<A> {
    fn corrupt(&mut self, rng: &mut rand::rngs::StdRng) {
        self.0.corrupt(rng);
    }
}

/// Read the exact engine's counters off a judge, where it has them.
pub trait JudgeStats: Protocol {
    /// The judge's cumulative exact-engine counters, if any.
    fn exact_stats(_judge: &Self::Judge) -> Option<Stats> {
        None
    }
}

impl JudgeStats for Mdst {
    fn exact_stats(judge: &DeltaJudge) -> Option<Stats> {
        Some(judge.stats())
    }
}

impl JudgeStats for Flood {}

/// A protocol whose engine-facing hooks are timed; otherwise it is the
/// wrapped one, so a run through it folds the identical digest.
#[derive(Debug, Clone, Copy)]
pub struct Traced<P>(pub P);

impl<P: JudgeStats> Protocol for Traced<P> {
    type Node = P::Node;
    type Proj = P::Proj;
    type Judge = P::Judge;

    fn build(&self, g: &Graph, cfg: &ConfigSpec) -> Network<P::Node> {
        timed(|t| &mut t.build_ns, || self.0.build(g, cfg))
    }

    fn project(net: &Network<P::Node>) -> P::Proj {
        timed(|t| &mut t.project_ns, || P::project(net))
    }

    fn fold_projection(proj: &P::Proj, chain: &mut Digest) {
        timed(|t| &mut t.fold_ns, || P::fold_projection(proj, chain));
    }

    fn new_judge(&self, net: &Network<P::Node>, opts: &EngineOpts) -> P::Judge {
        timed(|t| &mut t.new_judge_ns, || self.0.new_judge(net, opts))
    }

    fn observe_churn(judge: &mut P::Judge, net: &Network<P::Node>, ev: &ChurnEvent) {
        P::observe_churn(judge, net, ev);
    }

    fn judge(
        &self,
        judge: &mut P::Judge,
        net: &Network<P::Node>,
        opts: &EngineOpts,
    ) -> PhaseJudgment {
        let verdict = timed(|t| &mut t.judge_ns, || self.0.judge(judge, net, opts));
        if let Some(stats) = P::exact_stats(judge) {
            TALLY.with(|c| c.borrow_mut().exact = stats);
        }
        verdict
    }

    fn final_degree(&self, g: &Graph, net: &Network<P::Node>) -> Option<u32> {
        self.0.final_degree(g, net)
    }
}

/// How a [`drive`] run projects and folds the global state: the same
/// projection and encoding as the protocol's own, over [`Timed`] nodes.
pub struct Projection<A: Automaton, P> {
    /// Compute the projection.
    pub project: fn(&Network<A>) -> P,
    /// Fold it into the digest chain.
    pub fold: fn(&P, &mut Digest),
}

/// The MDST projection over timed nodes (parents, `dmax`, distances).
pub fn mdst_projection() -> Projection<Timed<ssmdst_core::MdstNode>, <Mdst as Protocol>::Proj> {
    Projection {
        project: |net| {
            let st = |f: fn(&ssmdst_core::NodeState) -> u32| -> Vec<u32> {
                net.nodes().iter().map(|a| f(a.0.state())).collect()
            };
            (st(|s| s.parent), st(|s| s.dmax), st(|s| s.distance))
        },
        fold: <Mdst as Protocol>::fold_projection,
    }
}

/// The flood projection over timed nodes (every live node's claim).
pub fn flood_projection(
) -> Projection<Timed<ssmdst_sim::protocols::FloodEcho>, <Flood as Protocol>::Proj> {
    Projection {
        project: |net| {
            (0..net.n() as NodeId)
                .map(|v| {
                    if net.is_alive(v) {
                        net.node(v).0.claim()
                    } else {
                        ssmdst_sim::protocols::Claim::NONE
                    }
                })
                .collect()
        },
        fold: <Flood as Protocol>::fold_projection,
    }
}

/// What one [`drive`] run observed.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// The final digest chain value; equals the engine's for the scenario.
    pub digest: u64,
    /// Self time of every `Session::step` call, in ns: the call's duration
    /// minus the automaton handlers and the round-end projection inside it.
    pub step_self_ns: Vec<u64>,
    /// Scheduled events (ticks and deliveries).
    pub events: u64,
    /// The simulator's message metrics at the end of the run.
    pub metrics: Metrics,
}

/// The engine's recorder, rebuilt from public parts: it folds every
/// scheduled event and every round's projection into the chain and decides
/// the phase's stop.
struct Recorder<A: Automaton, P> {
    proj: Projection<A, P>,
    chain: Digest,
    gate: Option<QuiescenceGate<P>>,
    until: Option<u64>,
    events: u64,
    round_end_ns: u64,
}

impl<A: Automaton, P: PartialEq> Observer<A> for Recorder<A, P> {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        fold_event(&mut self.chain, key, idx, action);
        self.events += 1;
    }

    fn on_round_end(&mut self, net: &Network<A>, round: u64) -> Stop {
        let t = Instant::now();
        let proj = (self.proj.project)(net);
        (self.proj.fold)(&proj, &mut self.chain);
        let mut stop = Stop::Continue;
        if let Some(target) = self.until {
            if round >= target {
                stop = Stop::Done;
            }
        } else if let Some(gate) = &mut self.gate {
            if gate.observe(proj) {
                stop = Stop::Done;
            }
        }
        self.round_end_ns += ns_since(t);
        stop
    }
}

/// Run `scn` over `net` (built from `scn`'s topology and config) through
/// `Session::step`, phase by phase as the scenario engine does, without
/// judging. The digest equals the engine's for the same scenario.
pub fn drive<A: Automaton + Corrupt, P: PartialEq>(
    scn: &Scenario,
    net: Network<A>,
    proj: Projection<A, P>,
) -> Drive {
    let quiet = scn.stop.quiet.unwrap_or_else(|| quiet_window(net.n()));
    let mut session = Session::from_network(net)
        .scheduler(scn.scheduler.scheduler())
        .backend(scn.backend)
        .observe(Recorder {
            proj,
            chain: Digest::new(),
            gate: None,
            until: None,
            events: 0,
            round_end_ns: 0,
        });
    if let Some(c) = &scn.init_corrupt {
        let victims = session.inject(c.plan());
        let chain = &mut session.observer_mut().chain;
        chain.write_str("init-fault");
        chain.write_u64(victims.len() as u64);
    }
    let mut steps = Vec::new();
    let mut label = "initial".to_string();
    for ev in &scn.events {
        let until = match ev.timing {
            Timing::Stable => None,
            Timing::Round(r) => Some(r),
        };
        phase(
            &mut session,
            scn.stop.max_rounds,
            quiet,
            &label,
            until,
            &mut steps,
        );
        label = ev.action.label();
        match &ev.action {
            EventAction::Fault(c) => {
                let victims = session.inject(c.plan());
                let chain = &mut session.observer_mut().chain;
                chain.write_str("fault");
                chain.write_u64(victims.len() as u64);
            }
            EventAction::Churn(c) => {
                let _ = session.churn(c);
                let chain = &mut session.observer_mut().chain;
                chain.write_str("churn");
                chain.write_str(&label);
            }
        }
    }
    phase(
        &mut session,
        scn.stop.max_rounds,
        quiet,
        &label,
        None,
        &mut steps,
    );
    let rec = session.observer();
    Drive {
        digest: rec.chain.value(),
        step_self_ns: steps,
        events: rec.events,
        metrics: session.network().metrics.clone(),
    }
}

/// One phase: to quiescence (`until = None`) or to the absolute round
/// `until`, one timed `Session::step` at a time.
fn phase<A: Automaton, P: PartialEq>(
    session: &mut Session<A, Recorder<A, P>>,
    max_rounds: u64,
    quiet: u64,
    label: &str,
    until: Option<u64>,
    steps: &mut Vec<u64>,
) {
    let start = session.round();
    session.phase(label);
    if until.is_some_and(|target| start >= target) {
        return;
    }
    let (rec, net) = session.observer_and_network();
    let initial = (rec.proj.project)(net);
    rec.until = until;
    rec.gate = match until {
        None => Some(QuiescenceGate::primed(quiet, initial)),
        Some(_) => None,
    };
    while session.round() - start < max_rounds {
        let handlers = handler_ns();
        let round_end = session.observer().round_end_ns;
        let t = Instant::now();
        let stop = session.step();
        let total = ns_since(t);
        let inner = (handler_ns() - handlers) + (session.observer().round_end_ns - round_end);
        steps.push(total.saturating_sub(inner));
        if stop.is_done() {
            break;
        }
    }
}
