//! The benchmark's own tests: every workload runs at smoke size and prints
//! every metric by name and unit; planted wrong outputs are caught.

use ssmdst_perfbench::report::Anchor;
use ssmdst_perfbench::scenarios::{self, check};
use ssmdst_perfbench::{
    exact_churn, run, Ctx, Report, Size, END_TO_END, EXTRA_WORKLOADS, PER_LAYER, WORKLOADS,
};
use ssmdst_scenario::engine;

fn smoke(workload: &str, trace: bool) -> Report {
    let ctx = Ctx {
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::smoke(),
    };
    run(workload, &ctx).expect("known workload")
}

/// `BENCHMARK.json` next to this crate's directory, when present.
fn benchmark_json() -> Option<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).ok()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS.into_iter().chain(EXTRA_WORKLOADS) {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let rep = smoke(workload, trace);
            assert!(
                rep.correct(),
                "{workload} trace={trace}: {:?}",
                rep.failures
            );
            let printed = rep.render("");
            let json = printed.lines().last().expect("a last line");
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert_eq!(rep.metrics.len(), list.len());
            for &(name, unit) in list {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(
                    json.contains(&entry),
                    "{workload}: {name} missing from {json}"
                );
                let m = rep.metrics.iter().find(|m| m.name == name).expect("listed");
                assert_eq!(m.unit, unit, "{workload}: unit of {name}");
                assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
                if !trace {
                    assert!(m.value > 0.0, "{workload}: end-to-end {name} is 0");
                }
            }
        }
    }
}

#[test]
fn traced_digests_equal_untraced_digests() {
    for workload in WORKLOADS.into_iter().chain(EXTRA_WORKLOADS) {
        let plain = smoke(workload, false);
        let traced = smoke(workload, true);
        let equal = traced
            .metrics
            .iter()
            .find(|m| m.name == "trace.digest_equal");
        assert_eq!(equal.map(|m| m.value), Some(1.0), "{workload}");
        assert_eq!(plain.anchor, traced.anchor, "{workload}: anchors differ");
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let Some(json) = benchmark_json() else {
        return;
    };
    for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}

#[test]
fn a_planted_wrong_verdict_raises_failed_share() {
    let scn = &scenarios::mdst_inputs(3, 10, 1).scns[0];
    let good = engine::run_any(scn);
    let mut rep = Report::default();
    check(&mut rep, &good, false, true);
    assert_eq!(rep.failed_share(), 0.0, "{:?}", rep.failures);

    // The judge "accepts" a tree two above the optimum.
    let mut wrong = good.clone();
    let phase = &mut wrong.phases[0];
    phase.delta_star = Some(2);
    phase.degree = 4;
    phase.ok = true;
    check(&mut rep, &wrong, false, true);
    assert_eq!(rep.failed(), 1);
    assert!(rep.failed_share() > 0.0);
    assert!(
        rep.failures[0].contains("accepted with degree 4"),
        "{:?}",
        rep.failures
    );
    // Exploring does not excuse an unsound verdict.
    check(&mut rep, &wrong, true, true);
    assert_eq!(rep.failed(), 2);
    assert!(!rep.correct());
}

#[test]
fn a_non_converged_phase_fails_a_designed_workload_and_is_a_storm_finding() {
    let scn = &scenarios::mdst_inputs(3, 10, 1).scns[0];
    let mut out = engine::run_any(scn);
    out.phases[1].converged = false;
    out.phases[1].ok = false;
    let mut designed = Report::default();
    check(&mut designed, &out, false, true);
    assert_eq!(designed.failed(), 1);
    assert!(designed.failures[0].contains("not converged"));

    let mut storm = Report::default();
    check(&mut storm, &out, true, true);
    check(&mut storm, &out, true, false);
    assert_eq!(storm.failed(), 0);
    assert_eq!(storm.findings.len(), 1, "recorded once, on the first pass");
}

#[test]
fn intervals_outside_the_certified_shape_are_caught() {
    assert!(exact_churn::check_interval("x", 2, 3).is_none());
    assert!(exact_churn::check_interval("x", 3, 3).is_none());
    assert!(exact_churn::check_interval("x", 2, 4).is_some());
    assert!(exact_churn::check_interval("x", 3, 2).is_some());
}

#[test]
fn anchors_report_drift_by_field_name() {
    let anchor = Anchor {
        input: 1,
        digest: 2,
        conv_rounds: 30,
        msgs: 400,
        pivots: 0,
        intervals: "-".into(),
        findings: 0,
    };
    let line = anchor.line("mdst-recover", 5);
    assert_eq!(anchor.drift("mdst-recover", 5, &line), Some(vec![]));
    assert_eq!(
        anchor.drift("mdst-recover", 6, &line),
        None,
        "unanchored seed"
    );
    let moved = Anchor {
        conv_rounds: 31,
        ..anchor.clone()
    };
    let drift = moved.drift("mdst-recover", 5, &line).expect("anchored");
    assert_eq!(drift.len(), 1);
    assert!(
        drift[0].starts_with("conv_rounds anchored 30 measured 31"),
        "{drift:?}"
    );
}

#[test]
fn the_same_seed_generates_the_same_inputs() {
    let size = Size::smoke();
    let a = scenarios::storm_inputs(11, size.mutants);
    let b = scenarios::storm_inputs(11, size.mutants);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, scenarios::storm_inputs(12, size.mutants).digest);
    let x = exact_churn::inputs(11, size.exact_n, size.exact_pairs);
    assert_eq!(
        x.digest,
        exact_churn::inputs(11, size.exact_n, size.exact_pairs).digest
    );
}
