//! Observer-composition determinism fence.
//!
//! The Session/Observer contract: observers **never perturb the
//! execution**. Attaching `(Trace, Digest, Metrics)` in any order — or
//! attaching nothing at all — yields the identical run (the trace and
//! metrics legs are the probes below, local to this test): byte-identical
//! schedule digests, identical node states, identical metrics, and (at
//! the scenario level) identical golden traces. Any future observer that
//! mutates state, reorders hooks, or lets composition order leak into
//! the schedule fails here.

use ssmdst::prelude::*;
use ssmdst::scenario::{corpus, engine, EngineOpts, Mdst};

/// Trace leg: one `(round, in_flight, total_delivered)` sample per round.
#[derive(Default)]
struct TraceProbe(Vec<(u64, usize, u64)>);

impl Observer<MdstNode> for TraceProbe {
    fn on_round_end(&mut self, net: &Network<MdstNode>, round: u64) -> Stop {
        self.0
            .push((round, net.in_flight(), net.metrics.total_delivered));
        Stop::Continue
    }
}

/// Metrics leg: the cumulative send counter after every round.
#[derive(Default)]
struct MetricsProbe(Vec<u64>);

impl Observer<MdstNode> for MetricsProbe {
    fn on_round_end(&mut self, net: &Network<MdstNode>, _round: u64) -> Stop {
        self.0.push(net.metrics.total_sent);
        Stop::Continue
    }
}

fn graph() -> Graph {
    ssmdst::graph::generators::structured::star_with_ring(10).unwrap()
}

fn session_with<O: Observer<MdstNode>>(
    sched: Scheduler,
    obs: O,
) -> ssmdst::sim::Session<MdstNode, O> {
    Session::from_network(build_network(&graph(), Config::for_n(10)))
        .scheduler(sched)
        .horizon(2_000)
        .observe(obs)
}

/// Fingerprint of an execution: final digest + node-state projection +
/// message totals.
type ExecutionFingerprint = (u64, (Vec<u32>, Vec<u32>, Vec<u32>), u64, u64);

fn fingerprint<O: Observer<MdstNode>>(
    session: &ssmdst::sim::Session<MdstNode, O>,
    digest: u64,
) -> ExecutionFingerprint {
    let m = &session.network().metrics;
    (
        digest,
        oracle::projection(session.network()),
        m.total_sent,
        m.total_delivered,
    )
}

/// `(Trace, Digest, Metrics)` attached in every order produces
/// byte-identical digests and identical executions.
#[test]
fn observer_order_never_changes_the_run() {
    for sched in [
        Scheduler::Synchronous,
        Scheduler::RandomAsync { seed: 9 },
        Scheduler::Adversarial { seed: 9 },
    ] {
        // Order 1: ((trace, digest), metrics)
        let mut s1 = session_with(
            sched,
            (
                (TraceProbe::default(), ScheduleDigest::new()),
                MetricsProbe::default(),
            ),
        );
        let _ = s1.run_until(60, &mut ());
        let ((t1, d1), m1) = s1.observer();
        let f1 = fingerprint(&s1, d1.value());

        // Order 2: (metrics, (digest, trace))
        let mut s2 = session_with(
            sched,
            (
                MetricsProbe::default(),
                (ScheduleDigest::new(), TraceProbe::default()),
            ),
        );
        let _ = s2.run_until(60, &mut ());
        let (m2, (d2, t2)) = s2.observer();
        let f2 = fingerprint(&s2, d2.value());

        // Order 3: (digest, (metrics, trace))
        let mut s3 = session_with(
            sched,
            (
                ScheduleDigest::new(),
                (MetricsProbe::default(), TraceProbe::default()),
            ),
        );
        let _ = s3.run_until(60, &mut ());
        let (d3, (m3, t3)) = s3.observer();
        let f3 = fingerprint(&s3, d3.value());

        assert_eq!(f1, f2, "order 1 vs 2 diverged under {sched:?}");
        assert_eq!(f1, f3, "order 1 vs 3 diverged under {sched:?}");
        assert_eq!(t1.0, t2.0);
        assert_eq!(t1.0, t3.0);
        assert_eq!(m1.0, m2.0);
        assert_eq!(m1.0, m3.0);
    }
}

/// An attached-observer run matches a bare run event-for-event: the
/// observer session's schedule digest equals the digest a bare runner
/// folds through `step_round_observed`, and final states agree.
#[test]
fn observed_run_matches_bare_run_event_for_event() {
    for sched in [
        Scheduler::Synchronous,
        Scheduler::RandomAsync { seed: 4 },
        Scheduler::Adversarial { seed: 4 },
    ] {
        let mut observed = session_with(
            sched,
            (
                TraceProbe::default(),
                (ScheduleDigest::new(), MetricsProbe::default()),
            ),
        );
        for _ in 0..60 {
            let _ = observed.step();
        }

        let mut bare = Runner::new(build_network(&graph(), Config::for_n(10)), sched);
        let mut bare_digest = ScheduleDigest::new();
        for _ in 0..60 {
            let _ = bare.step_round_observed(&mut bare_digest);
        }

        let (_, (digest, _)) = observed.observer();
        assert_eq!(
            digest.value(),
            bare_digest.value(),
            "schedule diverged under {sched:?}"
        );
        assert_eq!(
            oracle::projection(observed.network()),
            oracle::projection(bare.network())
        );
        assert_eq!(
            observed.network().metrics.total_sent,
            bare.network().metrics.total_sent
        );
    }
}

/// Golden fence at the scenario level: running a pinned corpus scenario
/// with a per-round observer hook attached produces the identical
/// recorded trace (records and final digest) as the unobserved run.
#[test]
fn scenario_traces_are_identical_with_and_without_observers() {
    for name in ["corrupt-start-total", "edge-churn-async"] {
        let scenario = corpus::by_name(name).expect("corpus entry");
        let (_, unobserved) = engine::run_traced_any(&scenario);
        let mut rounds_seen = 0u64;
        let (_, observed, _) =
            engine::run_protocol(&Mdst, &scenario, EngineOpts::default(), |_, _| {
                rounds_seen += 1
            });
        assert!(rounds_seen > 0, "{name}: hook never fired");
        assert_eq!(
            unobserved, observed,
            "{name}: observer hook perturbed the recorded trace"
        );
        assert_eq!(
            unobserved.render(),
            observed.render(),
            "{name}: bytes differ"
        );
    }
}
