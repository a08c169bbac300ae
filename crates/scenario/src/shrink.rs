//! Delta-debugging minimizer lifted to whole simulations.
//!
//! Given a failing scenario and a failure predicate, [`shrink`] searches
//! for a **strictly smaller** scenario (by [`Scenario::size`]) that still
//! fails — proptest-style shrinking, but over `(topology, daemon, faults,
//! churn, horizon)` instead of a single value. Passes, applied to
//! fixpoint:
//!
//! 1. **Events** — ddmin over the timed fault/churn plan: remove chunks of
//!    halving size, then single events;
//! 2. **Node count** — try the topology's minimum `n` first (the biggest
//!    win), then midpoints, then `n - 1`;
//! 3. **Initial corruption** — drop the arbitrary-configuration start;
//! 4. **Horizon** — halve `max_rounds` (floor 64).
//!
//! Every accepted candidate re-runs the full scenario through the engine,
//! so the emitted `.scn` is a verified reproducer, not a guess.

use crate::engine::{self, ScenarioOutcome};
use crate::spec::Scenario;

/// Search statistics: how many candidates were tried and accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate scenarios executed.
    pub attempts: usize,
    /// Candidates that still failed and were strictly smaller.
    pub accepted: usize,
}

/// Shrink `original` while `still_fails` holds. Returns `None` when the
/// original does not fail (nothing to reproduce); otherwise the smallest
/// failing scenario found plus search statistics. The result equals the
/// original only when no strictly smaller failing candidate exists.
pub fn shrink(
    original: &Scenario,
    mut still_fails: impl FnMut(&Scenario) -> bool,
) -> Option<(Scenario, ShrinkStats)> {
    if !still_fails(original) {
        return None;
    }
    let mut cur = original.clone();
    let mut stats = ShrinkStats::default();
    // Accept only candidates that are strictly smaller AND still fail.
    let mut accept = |cur: &mut Scenario, cand: Scenario, stats: &mut ShrinkStats| -> bool {
        debug_assert!(cand.size() < cur.size(), "candidate must strictly shrink");
        stats.attempts += 1;
        if still_fails(&cand) {
            *cur = cand;
            stats.accepted += 1;
            true
        } else {
            false
        }
    };
    loop {
        let mut improved = false;
        improved |= shrink_events(&mut cur, &mut accept, &mut stats);
        improved |= shrink_n(&mut cur, &mut accept, &mut stats);
        improved |= shrink_corrupt(&mut cur, &mut accept, &mut stats);
        improved |= shrink_horizon(&mut cur, &mut accept, &mut stats);
        if !improved {
            break;
        }
    }
    Some((cur, stats))
}

type Accept<'a> = dyn FnMut(&mut Scenario, Scenario, &mut ShrinkStats) -> bool + 'a;

/// ddmin over the event plan: chunks of halving size, then singles.
fn shrink_events(cur: &mut Scenario, accept: &mut Accept, stats: &mut ShrinkStats) -> bool {
    let mut improved = false;
    let mut chunk = cur.events.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            let hi = (i + chunk).min(cand.events.len());
            cand.events.drain(i..hi);
            if accept(cur, cand, stats) {
                improved = true;
                // Indices shifted down; retry the same position.
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    improved
}

/// Shrink the node count: minimum first, then midpoint, then `n - 1`.
fn shrink_n(cur: &mut Scenario, accept: &mut Accept, stats: &mut ShrinkStats) -> bool {
    let Some(min) = cur.topology.min_n() else {
        return false;
    };
    let mut improved = false;
    loop {
        let n = cur.topology.n_hint();
        if n <= min {
            break;
        }
        let mut accepted = false;
        for cand_n in [min, (min + n) / 2, n - 1] {
            if cand_n >= n || cand_n < min {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "min came from min_n(), so with_n accepts cand_n >= min"
            )]
            let topology = cur.topology.with_n(cand_n).expect("min_n implies with_n");
            let mut cand = cur.clone();
            cand.topology = topology;
            if accept(cur, cand, stats) {
                accepted = true;
                improved = true;
                break;
            }
        }
        if !accepted {
            break;
        }
    }
    improved
}

/// Drop the initial corruption if the failure survives without it.
fn shrink_corrupt(cur: &mut Scenario, accept: &mut Accept, stats: &mut ShrinkStats) -> bool {
    if cur.init_corrupt.is_none() {
        return false;
    }
    let mut cand = cur.clone();
    cand.init_corrupt = None;
    accept(cur, cand, stats)
}

/// Halve the horizon while the failure survives (floor 64 rounds).
fn shrink_horizon(cur: &mut Scenario, accept: &mut Accept, stats: &mut ShrinkStats) -> bool {
    let mut improved = false;
    while cur.stop.max_rounds > 64 {
        let mut cand = cur.clone();
        cand.stop.max_rounds = (cur.stop.max_rounds / 2).max(64);
        if cand.size() >= cur.size() {
            break; // same bit-length; no strict shrink available
        }
        if accept(cur, cand, stats) {
            improved = true;
        } else {
            break;
        }
    }
    improved
}

/// Named failure predicates — the `ssmdst shrink --pred` vocabulary and
/// the conformance harness's machine-checkable failure notions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Some phase failed to reach quiescence before its round cap.
    NotConverged,
    /// The run's final tree degree is at least this value.
    DegreeAtLeast(u32),
    /// Some judged phase ended outside the degree ≤ Δ*+1 guarantee.
    QualityViolation,
}

impl Predicate {
    /// Parse the CLI spelling: `not-converged`, `degree-ge:K`, `quality`.
    pub fn parse(s: &str) -> Result<Predicate, String> {
        if s == "not-converged" {
            return Ok(Predicate::NotConverged);
        }
        if s == "quality" {
            return Ok(Predicate::QualityViolation);
        }
        if let Some(k) = s.strip_prefix("degree-ge:") {
            let k = k
                .parse::<u32>()
                .map_err(|e| format!("bad degree bound {k:?}: {e}"))?;
            return Ok(Predicate::DegreeAtLeast(k));
        }
        Err(format!(
            "unknown predicate {s:?} (not-converged | degree-ge:K | quality)"
        ))
    }

    /// CLI spelling of this predicate.
    pub fn label(&self) -> String {
        match self {
            Predicate::NotConverged => "not-converged".to_string(),
            Predicate::DegreeAtLeast(k) => format!("degree-ge:{k}"),
            Predicate::QualityViolation => "quality".to_string(),
        }
    }

    /// Whether the outcome exhibits this failure.
    pub fn holds(&self, out: &ScenarioOutcome) -> bool {
        match self {
            Predicate::NotConverged => out.phases.iter().any(|p| !p.converged),
            Predicate::DegreeAtLeast(k) => {
                let degree = out
                    .final_degree
                    .or_else(|| out.phases.last().map(|p| p.degree))
                    .unwrap_or(0);
                degree >= *k
            }
            Predicate::QualityViolation => out.phases.iter().any(|p| p.checked && !p.ok),
        }
    }

    /// Run the scenario (under whatever protocol it names) and evaluate
    /// the predicate on its outcome.
    pub fn test(&self, scn: &Scenario) -> bool {
        self.holds(&engine::run_any(scn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CorruptSpec, EventAction, ScenarioEvent, SchedSpec, TopologySpec};
    use ssmdst_graph::generators::GraphFamily;
    use ssmdst_sim::ChurnEvent;

    #[test]
    fn predicate_parsing_round_trips() {
        for p in [
            Predicate::NotConverged,
            Predicate::DegreeAtLeast(3),
            Predicate::QualityViolation,
        ] {
            assert_eq!(Predicate::parse(&p.label()).unwrap(), p);
        }
        assert!(Predicate::parse("degree-ge:x").is_err());
        assert!(Predicate::parse("whatever").is_err());
    }

    #[test]
    fn shrink_returns_none_when_original_passes() {
        let scn = Scenario::converge(
            "fine",
            TopologySpec::StarRing { n: 8 },
            SchedSpec::Synchronous,
            40_000,
        );
        assert!(shrink(&scn, |s| Predicate::NotConverged.test(s)).is_none());
    }

    /// A spider's spanning tree is the spider itself, so "degree ≥ 3"
    /// fails at every size down to the family minimum — the shrinker must
    /// strip every irrelevant event, the corruption, and the node count.
    #[test]
    fn shrinker_minimizes_a_seeded_failure() {
        let g = GraphFamily::Spider.generate(16, 1);
        let mut plan = ssmdst_sim::TopologyPlan::edge_churn(&g, 2, 3).events;
        plan.push(ChurnEvent::CrashNode(g.n() as u32 - 1));
        plan.push(ChurnEvent::RejoinNode(g.n() as u32 - 1));
        let mut scn = Scenario::converge(
            "spider-deg3",
            TopologySpec::family(GraphFamily::Spider, 16, 1),
            SchedSpec::Synchronous,
            40_000,
        );
        scn.init_corrupt = Some(CorruptSpec {
            fraction: 0.5,
            drop: 0.0,
            seed: 9,
        });
        scn.events = plan
            .into_iter()
            .map(|e| ScenarioEvent::stable(EventAction::Churn(e)))
            .collect();

        let pred = Predicate::DegreeAtLeast(3);
        let (shrunk, stats) = shrink(&scn, |s| pred.test(s)).expect("original fails");
        assert!(shrunk.size() < scn.size(), "strictly smaller");
        assert!(pred.test(&shrunk), "still fails after shrinking");
        assert!(shrunk.events.is_empty(), "irrelevant churn stripped");
        assert!(
            shrunk.init_corrupt.is_none(),
            "irrelevant corruption stripped"
        );
        assert_eq!(shrunk.topology.n_hint(), 4, "n at the family minimum");
        assert!(stats.attempts >= stats.accepted);
        assert!(stats.accepted > 0);
        // The reproducer round-trips through .scn text.
        let parsed = crate::scn::parse(&shrunk.canonical()).unwrap();
        assert_eq!(parsed, shrunk);
    }

    /// Only the one load-bearing event may survive: a crash of the hub's
    /// neighbor is irrelevant, the horizon is not, etc. Here the failure
    /// is "some phase did not converge" forced by a tiny round cap — the
    /// events all shrink away and the horizon floors.
    #[test]
    fn shrinker_floors_horizon_for_not_converged() {
        let mut scn = Scenario::converge(
            "cap",
            TopologySpec::Cycle { n: 8 },
            SchedSpec::Synchronous,
            1_000,
        );
        scn.stop.max_rounds = 20; // cannot confirm quiescence: always fails
        scn.events = vec![ScenarioEvent::stable(EventAction::Churn(
            ChurnEvent::RemoveEdge(0, 1),
        ))];
        let pred = Predicate::NotConverged;
        let (shrunk, _) = shrink(&scn, |s| pred.test(s)).expect("fails");
        assert!(pred.test(&shrunk));
        assert!(shrunk.events.is_empty());
        assert_eq!(shrunk.topology.n_hint(), 3, "cycle minimum");
    }

    /// A minimized scenario is a **fixed point**: running the shrinker on
    /// its own output must change nothing (no pass finds a smaller still-
    /// failing variant, so `shrink` returns the input with zero accepted
    /// candidates — except it returns `None`/identity-stats). This is what
    /// makes a committed reproducer stable: nobody re-running the shrinker
    /// on it can "improve" it into a different artifact.
    #[test]
    fn shrinker_output_is_a_fixed_point() {
        let g = GraphFamily::Spider.generate(12, 1);
        let mut scn = Scenario::converge(
            "fixpoint",
            TopologySpec::family(GraphFamily::Spider, 12, 1),
            SchedSpec::Synchronous,
            40_000,
        );
        scn.init_corrupt = Some(CorruptSpec {
            fraction: 1.0,
            drop: 0.0,
            seed: 3,
        });
        scn.events = ssmdst_sim::TopologyPlan::edge_churn(&g, 1, 5)
            .events
            .into_iter()
            .map(|e| ScenarioEvent::stable(EventAction::Churn(e)))
            .collect();

        let pred = Predicate::DegreeAtLeast(3);
        let (min1, stats1) = shrink(&scn, |s| pred.test(s)).expect("original fails");
        assert!(stats1.accepted > 0, "first pass actually shrank something");

        // Re-shrinking the minimum: every candidate the passes propose
        // passes the predicate, so nothing is accepted and the scenario
        // comes back unchanged. (Runs are deterministic, so the minimum
        // still fails and `shrink` cannot return `None`.)
        let (min2, stats2) = shrink(&min1, |s| pred.test(s)).expect("minimum still fails");
        assert_eq!(min2, min1, "re-shrinking changed the reproducer");
        assert_eq!(stats2.accepted, 0, "re-shrink accepted a candidate");

        // And the fixed point survives a `.scn` round trip, so the
        // *committed* artifact is also a fixed point.
        let parsed = crate::scn::parse(&min1.canonical()).unwrap();
        let (min3, stats3) = shrink(&parsed, |s| pred.test(s)).expect("parsed minimum still fails");
        assert_eq!(min3, parsed);
        assert_eq!(stats3.accepted, 0);
    }
}
