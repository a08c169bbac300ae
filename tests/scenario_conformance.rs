//! Scenario-corpus conformance harness.
//!
//! Sweeps the whole curated corpus through the protocol and enforces two
//! contracts on every run:
//!
//! 1. **Self-stabilization**: every phase of every scenario converges and
//!    passes the component-wise degree ≤ Δ*+1 judge;
//! 2. **Differential vs Fürer–Raghavachari**: whenever a run ends on a
//!    single spanning tree, `deg(ssmdst) ≤ deg(FR) + 1` — implied by
//!    Theorem 2 (`deg(ssmdst) ≤ Δ* + 1 ≤ deg(FR) + 1`), checked against
//!    the independent centralized implementation.
//!
//! On failure the harness does not just assert: it **delta-debugs the
//! failing scenario to a minimal reproducer and prints the `.scn` text in
//! the panic message**, so the CI job log carries a one-file repro.

use ssmdst::exact::Solver;
use ssmdst::prelude::*;
use ssmdst::scenario::{corpus, engine, shrink};
use ssmdst::sim::parallel::run_many;

/// Shrink under `fails`, then panic with the minimal committable `.scn`.
fn fail_with_repro(scn: &Scenario, fails: impl FnMut(&Scenario) -> bool, msg: String) -> ! {
    let repro = shrink::shrink(scn, fails)
        .map(|(minimal, _)| minimal)
        .unwrap_or_else(|| scn.clone());
    panic!(
        "{msg}\n--- minimal .scn reproducer (save and run `ssmdst replay`) ---\n{}",
        repro.canonical()
    );
}

fn fr_degree(g: &Graph) -> u32 {
    let bfs = SpanningTree::from_bfs(g, 0).expect("corpus graphs are connected");
    let fr = Solver::builder()
        .settle_budget(0)
        .build()
        .solve_from(g, bfs);
    fr.tree.max_degree()
}

#[test]
fn corpus_stabilizes_and_matches_fuerer_raghavachari() {
    for scenario in corpus::corpus() {
        // Protocol-generic: MDST rows and flood/echo rows alike go
        // through the registry dispatch.
        let out = engine::run_any(&scenario);

        if !out.all_ok() {
            let bad: Vec<String> = out
                .phases
                .iter()
                .filter(|p| !p.ok)
                .map(|p| format!("{} (converged={}, deg={})", p.label, p.converged, p.degree))
                .collect();
            fail_with_repro(
                &scenario,
                |s| !engine::run_any(s).all_ok(),
                format!(
                    "corpus scenario '{}' failed phases: {}",
                    scenario.name,
                    bad.join(", ")
                ),
            );
        }

        // Differential: the distributed result within one of the
        // centralized FR result, whenever a single tree survives churn.
        if let Some(deg) = out.final_degree {
            let fr = fr_degree(&scenario.topology.build());
            if deg > fr + 1 {
                fail_with_repro(
                    &scenario,
                    |s| {
                        let o = engine::run_any(s);
                        match o.final_degree {
                            Some(d) => d > fr_degree(&s.topology.build()) + 1,
                            None => false,
                        }
                    },
                    format!(
                        "corpus scenario '{}': deg(ssmdst)={deg} > deg(FR)+1={}",
                        scenario.name,
                        fr + 1
                    ),
                );
            }
        }
    }
}

/// Differential for the exact-`Δ*` engine over every corpus topology:
/// at corpus scale the certified interval must settle, agree with the
/// independent branch-and-bound oracle, carry a witness that re-verifies
/// against the raw graph, and bracket the Fürer–Raghavachari tree
/// (`Δ* ≤ deg(FR) ≤ Δ* + 1`).
#[test]
fn exact_engine_agrees_with_oracles_on_corpus_graphs() {
    use ssmdst::exact::Solver;
    use ssmdst::graph::{exact_mdst, SolveBudget};

    let solver = Solver::builder().settle_max_n(256).build();
    for scenario in corpus::corpus() {
        let g = scenario.topology.build();
        let sol = solver.solve(&g);
        assert!(sol.exact(), "{}: corpus-scale graphs settle", scenario.name);
        let oracle = exact_mdst(&g, SolveBudget::default())
            .delta_star()
            .expect("corpus graphs are tiny; the oracle always finishes");
        assert_eq!(
            sol.lower, oracle,
            "{}: engine vs branch-and-bound",
            scenario.name
        );
        assert!(
            sol.witness.certifies(&g) >= sol.lower.saturating_sub(1),
            "{}: witness must re-verify independently",
            scenario.name
        );
        let fr = fr_degree(&g);
        assert!(
            oracle <= fr && fr <= oracle + 1,
            "{}: FR tree degree {fr} outside [{oracle}, {}]",
            scenario.name,
            oracle + 1
        );
    }
}

/// The shrinker acceptance contract end-to-end: a seeded injected failure
/// (a spider's tree degree is its leg count at every size) reduces to a
/// strictly smaller scenario that still fails, with everything irrelevant
/// stripped.
#[test]
fn shrinker_reduces_injected_failure_to_minimal_repro() {
    use ssmdst::scenario::Predicate;

    let original = corpus::by_name("converge-spider").expect("corpus entry");
    let pred = Predicate::DegreeAtLeast(3);
    assert!(pred.test(&original), "spider trees have degree >= 3");

    let (minimal, stats) = shrink::shrink(&original, |s| pred.test(s)).expect("original must fail");
    assert!(
        minimal.size() < original.size(),
        "shrunk scenario must be strictly smaller: {} vs {}",
        minimal.size(),
        original.size()
    );
    assert!(pred.test(&minimal), "minimal scenario still fails");
    assert_eq!(
        minimal.topology.n_hint(),
        4,
        "spider shrinks to the family minimum"
    );
    assert!(stats.accepted > 0 && stats.attempts >= stats.accepted);

    // The reproducer is a valid, replayable artifact.
    let reparsed = ssmdst::scenario::scn::parse(&minimal.canonical()).expect("repro parses");
    assert_eq!(reparsed, minimal);
    let (out, trace) = engine::run_traced_any(&reparsed);
    assert!(out.final_degree.unwrap() >= 3);
    engine::verify_replay(&reparsed, &trace).expect("repro replays bit-for-bit");
}

/// Campaign sweep over the corpus: parallel fan-out must preserve order
/// and reproduce the sequential digests (parallelism never perturbs runs).
#[test]
fn corpus_campaign_is_parallel_deterministic() {
    let scns = corpus::corpus();
    let par = run_many(scns.clone(), 8, engine::run_any);
    let seq = run_many(scns.clone(), 1, engine::run_any);
    assert_eq!(par.len(), scns.len());
    for ((p, s), scn) in par.iter().zip(&seq).zip(&scns) {
        assert_eq!(p.name, scn.name, "input order preserved");
        assert_eq!(p.digest, s.digest, "{}: parallel != sequential", p.name);
        assert!(p.all_ok(), "{} failed", p.name);
    }
}
