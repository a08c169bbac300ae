//! Single-instance experiment driver: run the protocol on one graph and
//! collect everything the tables need.
//!
//! [`Instrument`] is an [`Observer`]: the same bookkeeping value plugs
//! into a [`ssmdst_sim::Session`] here or into the scenario engine's
//! per-round hook — no bespoke driver loop anywhere.

use ssmdst_core::{build_network, oracle, Config, MdstNode};
use ssmdst_graph::Graph;
use ssmdst_sim::{
    quiet_window, stop_when, Network, Observer, QuiescenceGate, Scheduler, Session, Stop,
};

/// Everything measured from one protocol run.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Nodes and edges of the instance.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Whether the run reached quiescence before the round cap.
    pub converged: bool,
    /// Round at which the final configuration was first reached (total
    /// rounds minus the quiescence confirmation window).
    pub conv_round: u64,
    /// Final tree degree (`None` if the terminal state is not a tree —
    /// never observed for converged runs, but reported honestly).
    pub final_degree: Option<u32>,
    /// Total messages sent.
    pub total_msgs: u64,
    /// Messages by kind: (kind, sent, max size bits).
    pub msgs_by_kind: Vec<(&'static str, u64, usize)>,
    /// Largest message observed, in bits.
    pub max_msg_bits: usize,
    /// Peak number of undelivered messages.
    pub peak_in_flight: usize,
    /// Degree-trajectory samples: (round, deg(T)) at every change.
    pub trajectory: Vec<(u64, u32)>,
    /// Maximum number of distinct maximum-degree nodes whose degree dropped
    /// within a single round (the concurrency measure of experiment F3).
    pub max_simultaneous_drops: usize,
}

/// Per-round trajectory + concurrency bookkeeping, shared between the
/// arbitrary-graph driver below and the scenario-driven experiments. Use
/// it either as an [`Observer`] attached to a session, or through
/// the scenario engine's per-round hook via [`Instrument::observe`].
#[derive(Debug)]
pub struct Instrument<'g> {
    g: &'g Graph,
    trajectory: Vec<(u64, u32)>,
    last_deg: Option<u32>,
    prev_degrees: Option<Vec<u32>>,
    max_simdrops: usize,
}

impl<'g> Instrument<'g> {
    /// Fresh bookkeeping for a run over `g`.
    pub fn new(g: &'g Graph) -> Self {
        Instrument {
            g,
            trajectory: Vec::new(),
            last_deg: None,
            prev_degrees: None,
            max_simdrops: 0,
        }
    }

    /// Observe one completed round.
    pub fn observe(&mut self, net: &Network<MdstNode>, round: u64) {
        let tree = oracle::try_extract_tree(self.g, net);
        let deg = tree.as_ref().map(|t| t.max_degree());
        if deg != self.last_deg {
            if let Some(d) = deg {
                self.trajectory.push((round, d));
            }
            self.last_deg = deg;
        }
        if let Some(t) = &tree {
            let degs = t.degrees();
            if let Some(prev) = &self.prev_degrees {
                let k = *prev.iter().max().unwrap_or(&0);
                let drops = prev
                    .iter()
                    .zip(degs.iter())
                    .filter(|&(&p, &c)| p == k && c < p)
                    .count();
                if drops > self.max_simdrops {
                    self.max_simdrops = drops;
                }
            }
            self.prev_degrees = Some(degs);
        } else {
            self.prev_degrees = None;
        }
    }

    /// Degree-trajectory samples: `(round, deg(T))` at every change.
    pub fn trajectory(&self) -> &[(u64, u32)] {
        &self.trajectory
    }

    /// Maximum number of distinct maximum-degree nodes whose degree
    /// dropped within a single round (the F3 concurrency measure).
    pub fn max_simultaneous_drops(&self) -> usize {
        self.max_simdrops
    }
}

/// [`Instrument`] as an observer: record after every round, never stop
/// the run (pair it with a stop condition).
impl Observer<MdstNode> for Instrument<'_> {
    fn on_round_end(&mut self, net: &Network<MdstNode>, round: u64) -> Stop {
        self.observe(net, round);
        Stop::Continue
    }
}

/// Run the protocol on `g` until quiescence (or `max_rounds`), recording
/// trajectory and concurrency statistics through a [`Session`] with the
/// [`Instrument`] attached as its observer. Returns the result and the
/// session, with the instrument detached, for ad-hoc follow-ups (e.g.
/// fault injection and [`run_more`]).
pub fn run_instance(
    g: &Graph,
    cfg: Config,
    sched: Scheduler,
    max_rounds: u64,
) -> (InstanceResult, Session<MdstNode>) {
    let quiet = quiet_window(g.n());
    let mut session = Session::from_network(build_network(g, cfg))
        .scheduler(sched)
        .horizon(max_rounds)
        .observe(Instrument::new(g));
    let out = session.run_to_quiescence(quiet, oracle::projection);
    let (session, ins) = session.swap_observer(());
    let res = collect(g, &session, &ins, out.converged(), 0, quiet);
    (res, session)
}

/// Continue running an existing network until quiescence — used after
/// fault injection to measure recovery in isolation. Same observer stack
/// as [`run_instance`] ([`Instrument`] plus the shared
/// [`QuiescenceGate`]), borrowed onto the caller's session for this run.
pub fn run_more(g: &Graph, session: &mut Session<MdstNode>, max_rounds: u64) -> InstanceResult {
    let quiet = quiet_window(g.n());
    let start_round = session.round();
    let mut ins = Instrument::new(g);
    let mut gate = QuiescenceGate::primed(quiet, oracle::projection(session.network()));
    let out = session.run_until(
        max_rounds,
        &mut (
            &mut ins,
            stop_when(move |net: &Network<MdstNode>, _| gate.observe(oracle::projection(net))),
        ),
    );
    collect(g, session, &ins, out.converged(), start_round, quiet)
}

/// Assemble the table row from a finished run.
fn collect(
    g: &Graph,
    session: &Session<MdstNode>,
    ins: &Instrument,
    converged: bool,
    start_round: u64,
    quiet: u64,
) -> InstanceResult {
    let metrics = &session.network().metrics;
    let msgs_by_kind = metrics
        .kinds()
        .map(|(k, s)| (k, s.sent, s.max_size_bits))
        .collect();
    InstanceResult {
        n: g.n(),
        m: g.m(),
        converged,
        conv_round: (session.round() - start_round).saturating_sub(if converged {
            quiet
        } else {
            0
        }),
        final_degree: oracle::current_degree(g, session.network()),
        total_msgs: metrics.total_sent,
        msgs_by_kind,
        max_msg_bits: metrics.max_message_bits(),
        peak_in_flight: metrics.peak_in_flight,
        trajectory: ins.trajectory().to_vec(),
        max_simultaneous_drops: ins.max_simultaneous_drops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::generators::structured;

    #[test]
    fn star_with_ring_instance_end_to_end() {
        let g = structured::star_with_ring(8).unwrap();
        let (res, _) = run_instance(&g, Config::for_n(8), Scheduler::Synchronous, 20_000);
        assert!(res.converged);
        assert!(res.final_degree.unwrap() <= 3);
        assert!(res.total_msgs > 0);
        assert!(res.max_msg_bits > 0);
        // Trajectory must be non-trivial: the hub degree descends.
        assert!(res.trajectory.len() >= 3);
        let first = res.trajectory.first().unwrap().1;
        let last = res.trajectory.last().unwrap().1;
        assert!(first > last);
    }

    #[test]
    fn conv_round_excludes_quiet_window() {
        let g = structured::path(6).unwrap();
        let (res, _) = run_instance(&g, Config::for_n(6), Scheduler::Synchronous, 5_000);
        assert!(res.converged);
        // A path stabilizes in O(n) rounds; the window must not be charged.
        assert!(res.conv_round < 100, "conv_round = {}", res.conv_round);
    }

    #[test]
    fn run_more_measures_recovery_separately() {
        let g = structured::star_with_ring(8).unwrap();
        let (first, mut session) =
            run_instance(&g, Config::for_n(8), Scheduler::Synchronous, 20_000);
        assert!(first.converged);
        ssmdst_sim::faults::inject(
            session.network_mut(),
            ssmdst_sim::faults::FaultPlan::partial(0.4, 3),
        );
        let second = run_more(&g, &mut session, 20_000);
        assert!(second.converged);
        assert!(second.final_degree.unwrap() <= 3);
    }
}
