//! The scenario executor: phases, component-wise judging, and the chained
//! record-replay digest — protocol-generic, driven through a
//! [`ssmdst_sim::Session`].
//!
//! A scenario's events split the run into **phases**. Phase 0 starts from
//! the (possibly corrupted) initial configuration; each event opens the
//! next phase. `Timing::Stable` events fire once the network reaches
//! quiescence (judged on the protocol's canonical state projection with
//! the canonical confirmation window), `Timing::Round(r)` events fire at
//! absolute round `r` — mid-flight faults. Every stable phase is judged
//! component-wise against the live topology by the scenario's
//! [`Protocol`] (for MDST: per-component spanning tree with degree within
//! one of the component's optimum, via `ssmdst_core::churn`).
//!
//! The engine is a thin orchestrator over a `Session` whose attached
//! observer — the internal `Recorder` — does all cross-cutting work: it folds
//! every scheduler priority key and executed action
//! ([`ssmdst_sim::observer::fold_event`]), the per-round projection, and
//! every applied event into one chained [`Digest`]; records the
//! [`RunTrace`]; and carries the per-phase stop condition (the shared
//! [`ssmdst_sim::QuiescenceGate`], or an absolute round target). Two runs
//! of the same `(Scenario)` value are bit-identical iff their chains
//! agree — that is the replay check [`verify_replay`] performs and the
//! golden-trace CI job enforces.
//!
//! Three entry points: [`run_protocol`] is the generic core, typed by a
//! [`Protocol`] value, with a per-round hook and the final runner handed
//! back; [`run_any`] and [`run_traced_any`] dispatch on the scenario's
//! [`ProtocolSpec`] under the default [`EngineOpts`] and return the
//! outcome, plus the trace for the latter.

use crate::protocol::{Flood, Mdst, PhaseJudgment, Protocol};
use crate::spec::{EventAction, ProtocolSpec, Scenario, Timing};
use ssmdst_graph::SolveBudget;
use ssmdst_sim::observer::{fold_event, observe_rounds, Observer, Stop};
use ssmdst_sim::{
    quiet_window, Action, Digest, Network, QuiescenceGate, RunTrace, Runner, Session, TraceRecord,
};

/// Observation-side knobs. These only affect how phases are *judged* —
/// never the execution or its digest chain, so they are engine parameters,
/// not scenario data.
#[derive(Debug, Clone, Copy)]
pub struct EngineOpts {
    /// Per-component Δ* solver budget for phase judging. `max_nodes: 0`
    /// skips exact solving; the witness lower bound then gives a
    /// conservative `within_one` verdict.
    pub delta_budget: SolveBudget,
}

impl Default for EngineOpts {
    /// Exact solving under the experiment harness's canonical budget, so
    /// scenario-driven tables agree with the pre-scenario ones.
    fn default() -> Self {
        EngineOpts {
            delta_budget: SolveBudget { max_nodes: 500_000 },
        }
    }
}

/// Outcome of one phase (initial convergence, or re-convergence after one
/// event).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// `initial`, or the label of the event that opened the phase.
    pub label: String,
    /// Whether the phase reached quiescence before its round cap. For
    /// `Timing::Round` phases this is whether the target round was reached.
    pub converged: bool,
    /// Rounds from phase start to the converged configuration (the
    /// quiescence confirmation window is excluded when converged).
    pub rounds: u64,
    /// Whether the component-wise check ran (stable-timed and final
    /// phases only; mid-flight phases are not judged).
    pub checked: bool,
    /// Connected components of the live topology at phase end.
    pub components: usize,
    /// Worst component quality measure (tree degree for MDST; 0 when the
    /// check failed, didn't run, or the protocol has no tree notion).
    pub degree: u32,
    /// Exact Δ* of the worst component when the solver budget sufficed.
    pub delta_star: Option<u32>,
    /// Converged and every component within the protocol's quality bar.
    /// Vacuously equal to `converged` for unchecked (mid-flight) phases.
    pub ok: bool,
}

/// Everything measured from one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Node count of the built instance.
    pub n: usize,
    /// Edge count of the built instance.
    pub m: usize,
    /// One outcome per phase, in order; never empty.
    pub phases: Vec<PhaseOutcome>,
    /// Whether the final phase converged.
    pub converged: bool,
    /// Rounds of the final phase (confirmation window excluded).
    pub conv_round: u64,
    /// Final tree degree when the run ends on a single-component spanning
    /// tree, else `None` (always `None` for tree-less protocols).
    pub final_degree: Option<u32>,
    /// Total messages sent across the whole run.
    pub total_msgs: u64,
    /// Messages by kind: (kind, sent, max size bits).
    pub msgs_by_kind: Vec<(&'static str, u64, usize)>,
    /// Largest message observed, in bits.
    pub max_msg_bits: usize,
    /// Peak number of undelivered messages.
    pub peak_in_flight: usize,
    /// Final chained run digest — the replay identity.
    pub digest: u64,
}

impl ScenarioOutcome {
    /// Whether every phase converged and passed its component check.
    pub fn all_ok(&self) -> bool {
        self.phases.iter().all(|p| p.ok)
    }
}

/// The session observer carrying every cross-cutting concern of a
/// scenario run: the chained replay digest, the trace records, and the
/// per-phase stop condition.
struct Recorder<P: Protocol> {
    chain: Digest,
    records: Vec<TraceRecord>,
    /// Quiescence gate of the current phase (`None` in round-target mode).
    gate: Option<QuiescenceGate<P::Proj>>,
    /// Absolute round target of the current phase, when round-timed.
    until: Option<u64>,
}

impl<P: Protocol> Recorder<P> {
    fn new() -> Self {
        Recorder {
            chain: Digest::new(),
            records: Vec::new(),
            gate: None,
            until: None,
        }
    }

    /// Arm the stop condition for the next phase: quiescence (primed with
    /// the phase-start projection) or an absolute round target.
    fn begin_phase(&mut self, until: Option<u64>, window: u64, initial: P::Proj) {
        self.until = until;
        self.gate = match until {
            None => Some(QuiescenceGate::primed(window, initial)),
            Some(_) => None,
        };
    }

    fn note_init_fault(&mut self, victims: usize) {
        self.chain.write_str("init-fault");
        self.chain.write_u64(victims as u64);
        self.records.push(TraceRecord::Fault { round: 0, victims });
    }

    fn note_fault(&mut self, round: u64, victims: usize) {
        self.chain.write_str("fault");
        self.chain.write_u64(victims as u64);
        self.records.push(TraceRecord::Fault { round, victims });
    }

    fn note_churn(&mut self, round: u64, label: &str) {
        self.chain.write_str("churn");
        self.chain.write_str(label);
        self.records.push(TraceRecord::Topology {
            round,
            event: label.to_string(),
        });
    }

    fn note_phase(&mut self, label: String, rounds: u64) {
        self.records.push(TraceRecord::Phase {
            label,
            rounds,
            digest: self.chain.value(),
        });
    }
}

impl<P: Protocol> Observer<P::Node> for Recorder<P> {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        fold_event(&mut self.chain, key, idx, action);
    }

    fn on_round_end(&mut self, net: &Network<P::Node>, round: u64) -> Stop {
        // Fold the canonical state projection — any state divergence in
        // any round breaks every later digest — then evaluate the phase's
        // stop condition on the same projection.
        let proj = P::project(net);
        P::fold_projection(&proj, &mut self.chain);
        if let Some(target) = self.until {
            if round >= target {
                return Stop::Done;
            }
        } else if let Some(gate) = &mut self.gate {
            if gate.observe(proj) {
                return Stop::Done;
            }
        }
        Stop::Continue
    }
}

/// Run a scenario on an explicit [`Protocol`] implementation — the
/// generic core [`run_any`] and [`run_traced_any`] go through, and the
/// entry point for typed callers. `obs` is called after every round with
/// the network and the absolute round number (trajectory and concurrency
/// bookkeeping). Returns the outcome, the recorded trace, and the final
/// runner for ad-hoc inspection (state-size oracles, fault-injection
/// follow-ups).
///
/// The protocol is `proto`, whatever `scn.protocol` names; the registry
/// dispatch on `scn.protocol` is [`run_any`] / [`run_traced_any`].
pub fn run_protocol<P: Protocol>(
    proto: &P,
    scn: &Scenario,
    opts: EngineOpts,
    mut obs: impl FnMut(&Network<P::Node>, u64),
) -> (ScenarioOutcome, RunTrace, Runner<P::Node>) {
    let g = scn.topology.build();
    let n = g.n();
    let quiet = scn.stop.quiet.unwrap_or_else(|| quiet_window(n));
    // `scn.stop.max_rounds` is a **per-phase** budget (each
    // re-convergence gets the full allowance, matching the experiment
    // harness's per-event measurement), so it is passed explicitly to
    // every `run_until` in `run_phase` rather than set as the session
    // horizon.
    let mut session = Session::from_network(proto.build(&g, &scn.config))
        .scheduler(scn.scheduler.scheduler())
        .observe(Recorder::<P>::new());

    if let Some(c) = &scn.init_corrupt {
        let victims = session.inject(c.plan());
        session.observer_mut().note_init_fault(victims.len());
    }

    // One judge per run: its state (for MDST, the incremental engine's
    // basis and component cache) survives across phases, and each
    // stable-phase judgment diffs it against the network so it re-solves
    // only what the churn changed.
    let mut judge = proto.new_judge(session.network(), &opts);

    let mut phases: Vec<PhaseOutcome> = Vec::new();
    let mut label = "initial".to_string();
    for ev in &scn.events {
        let until = match ev.timing {
            Timing::Stable => None,
            Timing::Round(r) => Some(r),
        };
        let phase = run_phase(
            proto,
            &mut session,
            &mut judge,
            &mut obs,
            scn.stop.max_rounds,
            quiet,
            &opts,
            label,
            until,
        );
        phases.push(phase);
        label = ev.action.label();
        let round = session.round();
        match &ev.action {
            EventAction::Fault(c) => {
                let victims = session.inject(c.plan());
                session.observer_mut().note_fault(round, victims.len());
            }
            EventAction::Churn(c) => {
                let _ = session.churn(c);
                session.observer_mut().note_churn(round, &label);
            }
        }
    }
    let phase = run_phase(
        proto,
        &mut session,
        &mut judge,
        &mut obs,
        scn.stop.max_rounds,
        quiet,
        &opts,
        label,
        None,
    );
    phases.push(phase);

    let last = phases.last().expect("at least one phase"); // lint: allow(no-panic-in-library) — a phase was pushed on the line above
    let final_degree = if last.checked && last.components == 1 && last.degree > 0 {
        Some(last.degree)
    } else {
        proto.final_degree(&g, session.network())
    };
    let metrics = &session.network().metrics;
    let outcome = ScenarioOutcome {
        name: scn.name.clone(),
        n,
        m: g.m(),
        converged: last.converged,
        conv_round: last.rounds,
        final_degree,
        total_msgs: metrics.total_sent,
        msgs_by_kind: metrics
            .kinds()
            .map(|(k, s)| (k, s.sent, s.max_size_bits))
            .collect(),
        max_msg_bits: metrics.max_message_bits(),
        peak_in_flight: metrics.peak_in_flight,
        digest: session.observer().chain.value(),
        phases,
    };
    let (runner, recorder) = session.into_parts();
    let trace = RunTrace {
        fingerprint: scn.fingerprint(),
        records: recorder.records,
        final_digest: recorder.chain.value(),
    };
    (outcome, trace, runner)
}

/// Drive one phase: to quiescence (`until = None`) or to the absolute
/// round `until`, with the [`Recorder`] folding schedule and projection
/// into the chain each round and deciding the stop.
#[allow(clippy::too_many_arguments)]
fn run_phase<P: Protocol>(
    proto: &P,
    session: &mut Session<P::Node, Recorder<P>>,
    judge: &mut P::Judge,
    obs: &mut impl FnMut(&Network<P::Node>, u64),
    max_rounds: u64,
    quiet: u64,
    opts: &EngineOpts,
    label: String,
    until: Option<u64>,
) -> PhaseOutcome {
    let start = session.round();
    session.phase(&label);
    let converged = if until.is_some_and(|target| start >= target) {
        // An absolute-round target earlier phases already ran past fires
        // immediately: a zero-round phase.
        true
    } else {
        let initial = P::project(session.network());
        session.observer_mut().begin_phase(until, quiet, initial);
        let out = session.run_until(
            max_rounds,
            &mut observe_rounds(|net: &Network<P::Node>, round: u64| obs(net, round)),
        );
        out.converged()
    };
    let rounds_used = session.round() - start;
    let rounds = if converged && until.is_none() {
        rounds_used.saturating_sub(quiet)
    } else {
        rounds_used
    };
    // Judge stable-timed phases component-wise; mid-flight phases are in
    // transit by construction and are not judged.
    let (checked, judgment) = if until.is_none() {
        (true, proto.judge(judge, session.network(), opts))
    } else {
        (
            false,
            PhaseJudgment {
                components: 0,
                degree: 0,
                delta_star: None,
                ok: true,
            },
        )
    };
    let phase = PhaseOutcome {
        label,
        converged,
        rounds,
        checked,
        components: judgment.components,
        degree: judgment.degree,
        delta_star: judgment.delta_star,
        ok: converged && judgment.ok,
    };
    session
        .observer_mut()
        .note_phase(phase.label.clone(), phase.rounds);
    phase
}

/// Run a scenario under whatever protocol it names — the entry point for
/// campaigns, shrinking, the conformance harness and storm.
pub fn run_any(scn: &Scenario) -> ScenarioOutcome {
    run_traced_any(scn).0
}

/// Run a scenario under whatever protocol it names, keeping the full
/// [`RunTrace`] for golden-file verification, replay and the CLI.
pub fn run_traced_any(scn: &Scenario) -> (ScenarioOutcome, RunTrace) {
    let opts = EngineOpts::default();
    match scn.protocol {
        ProtocolSpec::Mdst => {
            let (out, trace, _) = run_protocol(&Mdst, scn, opts, |_, _| {});
            (out, trace)
        }
        ProtocolSpec::FloodEcho => {
            let (out, trace, _) = run_protocol(&Flood, scn, opts, |_, _| {});
            (out, trace)
        }
    }
}

/// Replay `scn` (under whatever protocol it names) and compare against a
/// recorded trace. `Ok(())` means the re-run reproduced the recording
/// bit-for-bit; `Err` describes the first divergence.
pub fn verify_replay(scn: &Scenario, recorded: &RunTrace) -> Result<(), String> {
    let (_, replayed) = run_traced_any(scn);
    match recorded.first_divergence(&replayed) {
        None => Ok(()),
        Some(d) => Err(format!("replay of '{}' diverged: {d}", scn.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConfigSpec, CorruptSpec, ScenarioEvent, SchedSpec, StopSpec, TopologySpec};
    use ssmdst_graph::generators::GraphFamily;
    use ssmdst_sim::ChurnEvent;

    fn quick_converge(topology: TopologySpec, sched: SchedSpec) -> Scenario {
        Scenario::converge("t", topology, sched, 40_000)
    }

    #[test]
    fn plain_convergence_has_one_ok_phase() {
        let scn = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
        let out = run_any(&scn);
        assert_eq!(out.phases.len(), 1);
        assert!(out.converged);
        assert!(out.all_ok());
        assert_eq!(out.phases[0].label, "initial");
        assert_eq!(out.phases[0].components, 1);
        assert!(out.final_degree.unwrap() <= 3);
        assert!(out.total_msgs > 0);
    }

    #[test]
    fn corrupt_start_still_stabilizes() {
        let mut scn = quick_converge(
            TopologySpec::family(GraphFamily::GnpSparse, 10, 1),
            SchedSpec::Synchronous,
        );
        scn.init_corrupt = Some(CorruptSpec {
            fraction: 1.0,
            drop: 1.0,
            seed: 5,
        });
        let (out, trace) = run_traced_any(&scn);
        assert!(out.converged, "self-stabilization from garbage");
        assert!(out.all_ok());
        assert!(matches!(
            trace.records.first(),
            Some(TraceRecord::Fault { round: 0, .. })
        ));
    }

    #[test]
    fn churn_events_open_phases_and_are_judged() {
        let mut scn = quick_converge(
            TopologySpec::Cycle { n: 8 },
            SchedSpec::RandomAsync { seed: 3 },
        );
        scn.events = vec![
            ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RemoveEdge(0, 1))),
            ScenarioEvent::stable(EventAction::Churn(ChurnEvent::InsertEdge(0, 1))),
        ];
        let out = run_any(&scn);
        assert_eq!(out.phases.len(), 3, "initial + one per event");
        assert!(out.all_ok(), "phases: {:?}", out.phases);
        assert_eq!(out.phases[1].label, "-edge(0,1)");
        // Removing a cycle edge leaves a path: tree forced, degree 2.
        assert_eq!(out.phases[1].degree, 2);
        assert_eq!(out.phases[2].label, "+edge(0,1)");
    }

    #[test]
    fn mid_flight_fault_phase_is_unchecked() {
        let mut scn = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
        scn.events = vec![ScenarioEvent {
            timing: Timing::Round(3),
            action: EventAction::Fault(CorruptSpec {
                fraction: 0.5,
                drop: 0.0,
                seed: 2,
            }),
        }];
        let out = run_any(&scn);
        assert_eq!(out.phases.len(), 2);
        assert!(!out.phases[0].checked, "mid-flight phase is not judged");
        assert_eq!(out.phases[0].rounds, 3);
        assert!(out.phases[1].checked);
        assert!(out.phases[1].ok, "recovers from the mid-flight fault");
    }

    /// An absolute-round target that earlier phases already ran past fires
    /// immediately (zero-round phase), and the trace records the *actual*
    /// application round — the documented `Timing::Round` contract.
    #[test]
    fn already_passed_round_target_fires_immediately() {
        let mut scn = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
        scn.events = vec![
            ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RemoveEdge(1, 2))),
            ScenarioEvent {
                timing: Timing::Round(1), // long passed once phase 0 stabilized
                action: EventAction::Fault(CorruptSpec {
                    fraction: 0.5,
                    drop: 0.0,
                    seed: 3,
                }),
            },
        ];
        let (out, trace) = run_traced_any(&scn);
        assert_eq!(out.phases[1].rounds, 0, "target already passed: 0 rounds");
        let fault_round = trace
            .records
            .iter()
            .find_map(|r| match r {
                TraceRecord::Fault { round, .. } => Some(*round),
                _ => None,
            })
            .expect("fault recorded");
        assert!(fault_round > 1, "trace records the actual round, not 1");
        assert!(out.phases[2].converged, "run still recovers");
    }

    #[test]
    fn final_degree_follows_the_live_topology() {
        // A crashed node leaves one live component: its tree degree stands.
        let mut scn = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
        scn.events = vec![ScenarioEvent::stable(EventAction::Churn(
            ChurnEvent::CrashNode(3),
        ))];
        let out = run_any(&scn);
        assert!(out.converged);
        assert!(
            out.final_degree.is_some(),
            "the 7 survivors re-form one spanning tree"
        );
        // An unhealed partition leaves two components: no single tree.
        let mut scn = quick_converge(TopologySpec::Cycle { n: 10 }, SchedSpec::Synchronous);
        scn.events = vec![ScenarioEvent::stable(EventAction::Churn(
            ChurnEvent::Partition(vec![(0, 1), (5, 6)]),
        ))];
        let out = run_any(&scn);
        assert!(out.converged);
        assert_eq!(out.phases.last().unwrap().components, 2);
        assert!(out.final_degree.is_none(), "two components, no single tree");
    }

    #[test]
    fn replay_is_bit_exact_and_detects_tampering() {
        let mut scn = quick_converge(
            TopologySpec::family(GraphFamily::GnpSparse, 10, 2),
            SchedSpec::Adversarial { seed: 11 },
        );
        scn.init_corrupt = Some(CorruptSpec {
            fraction: 0.5,
            drop: 0.0,
            seed: 4,
        });
        let (_, recorded) = run_traced_any(&scn);
        verify_replay(&scn, &recorded).expect("same scenario replays bit-for-bit");
        // A different daemon seed is a different execution.
        let mut other = scn.clone();
        other.scheduler = SchedSpec::Adversarial { seed: 12 };
        let err = verify_replay(&other, &recorded).expect_err("must diverge");
        assert!(err.contains("diverged"), "got: {err}");
        // Tampering with a recorded digest is caught.
        let mut tampered = recorded.clone();
        tampered.final_digest ^= 1;
        assert!(verify_replay(&scn, &tampered).is_err());
    }

    #[test]
    fn ablated_configs_run() {
        for cfg in [
            ConfigSpec::Strict,
            ConfigSpec::NoDeblock,
            ConfigSpec::NoBusyLatch,
        ] {
            let mut scn = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
            scn.config = cfg;
            let out = run_any(&scn);
            assert!(out.converged, "{cfg:?} failed to converge on star-ring");
        }
    }

    #[test]
    fn stop_spec_round_cap_is_respected() {
        let scn = Scenario {
            stop: StopSpec {
                max_rounds: 5,
                quiet: Some(1_000),
            },
            ..quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous)
        };
        let out = run_any(&scn);
        assert!(!out.converged, "cannot confirm quiescence in 5 rounds");
        assert_eq!(out.conv_round, 5);
    }

    #[test]
    fn conv_round_excludes_the_quiet_window() {
        let scn = quick_converge(TopologySpec::Path { n: 6 }, SchedSpec::Synchronous);
        let out = run_any(&scn);
        assert!(out.converged);
        // A path stabilizes in O(n) rounds; the window must not be charged.
        assert!(out.conv_round < 100, "conv_round = {}", out.conv_round);
    }

    // ------------------------------------------------------------------
    // Protocol-generic engine
    // ------------------------------------------------------------------

    /// A non-MDST automaton runs end to end through the same engine:
    /// scenario → phases → judge → bit-exact replay.
    #[test]
    fn flood_scenario_runs_judges_and_replays() {
        let mut scn = quick_converge(
            TopologySpec::Cycle { n: 10 },
            SchedSpec::RandomAsync { seed: 7 },
        );
        scn.protocol = ProtocolSpec::FloodEcho;
        scn.init_corrupt = Some(CorruptSpec {
            fraction: 1.0,
            drop: 0.5,
            seed: 9,
        });
        scn.events = vec![
            ScenarioEvent::stable(EventAction::Churn(ChurnEvent::CrashNode(0))),
            ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RejoinNode(0))),
        ];
        let (out, trace) = run_traced_any(&scn);
        assert_eq!(out.phases.len(), 3);
        assert!(out.all_ok(), "phases: {:?}", out.phases);
        assert!(out.final_degree.is_none(), "flood has no tree notion");
        assert!(out.total_msgs > 0);
        verify_replay(&scn, &trace).expect("flood replay is bit-exact");
        // The scenario round-trips through .scn with its protocol line.
        let reparsed = crate::scn::parse(&scn.canonical()).unwrap();
        assert_eq!(reparsed, scn);
        verify_replay(&reparsed, &trace).expect("parsed scenario replays too");
    }

    /// The same scenario value under the two protocols is two different
    /// executions with two different replay identities.
    #[test]
    fn protocols_have_distinct_replay_identities() {
        let mdst = quick_converge(TopologySpec::StarRing { n: 8 }, SchedSpec::Synchronous);
        let mut flood = mdst.clone();
        flood.protocol = ProtocolSpec::FloodEcho;
        let (a, ta) = run_traced_any(&mdst);
        let (b, tb) = run_traced_any(&flood);
        assert_ne!(a.digest, b.digest);
        assert_ne!(ta.fingerprint, tb.fingerprint);
        assert!(a.all_ok() && b.all_ok());
    }
}
