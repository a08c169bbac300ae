//! The coverage-guided scenario storm: the fuzzing loop the scenario
//! subsystem was missing.
//!
//! The loop is classic greybox fuzzing lifted to whole simulations:
//!
//! 1. **Seed** — run every seed scenario (typically the curated corpus),
//!    folding each run's [`Signature`] into the global [`CoverageMap`];
//! 2. **Mutate** — pick a corpus parent and an operator, both drawn from
//!    a per-exec RNG derived from the storm seed and the exec index
//!    ([`mod@crate::mutate`]), so every mutant is replayable from
//!    `(storm seed, exec)` alone;
//! 3. **Execute** — fan each mutant batch across
//!    [`ssmdst_sim::parallel::run_many`] campaign workers (each run is
//!    single-threaded and deterministic, so worker count never perturbs
//!    results);
//! 4. **Judge** — any run failing the storm's failure [`Predicate`]
//!    (default: a judged phase outside the protocol's quality bar) is
//!    auto-piped through the delta-debugging shrinker into a minimal
//!    committable `.scn` reproducer, and the storm stops;
//! 5. **Admit** — a mutant whose signature contributes at least one
//!    never-seen feature joins the corpus. The corpus grows itself toward
//!    behavioural diversity; everything else is discarded.
//!
//! Mutant generation and admission run sequentially in the driver and
//! `run_many` preserves input order, so the admitted corpus, signatures
//! and any failure are identical for any worker count — the whole storm
//! is replayable from its config.

use crate::coverage::{CoverageMap, Signature};
use crate::engine;
use crate::mutate::{self, MutationKind};
use crate::shrink::{self, Predicate, ShrinkStats};
use crate::spec::Scenario;
use rand::prelude::*;
use rand::rngs::StdRng;
use ssmdst_sim::parallel::run_many;
use std::time::Instant;

/// Storm parameters. Everything that shapes the run is here, so a report
/// is reproducible from `(seeds, config)`.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Master seed: drives parent selection and every mutation.
    pub seed: u64,
    /// Mutant executions to perform (seed-corpus runs not included).
    pub execs: u64,
    /// Campaign worker threads (never affects results, only wall time).
    pub workers: usize,
    /// Mutants generated and fanned out per batch.
    pub batch: usize,
    /// Corpus-size cap: admissions beyond it still count coverage but are
    /// not kept as parents.
    pub max_corpus: usize,
    /// What counts as a judge failure. The default,
    /// [`Predicate::QualityViolation`], fires when any judged phase ends
    /// outside the protocol's quality bar; tests inject stricter
    /// predicates to exercise the auto-shrink path.
    pub failure: Predicate,
}

impl StormConfig {
    /// Canonical config for a given seed and exec budget.
    pub fn new(seed: u64, execs: u64) -> Self {
        StormConfig {
            seed,
            execs,
            workers: 1,
            batch: 16,
            max_corpus: 4096,
            failure: Predicate::QualityViolation,
        }
    }
}

/// One admitted mutant: the novelty it brought and how it was derived.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Exec index that produced it (replay handle: `(storm seed, exec)`).
    pub exec: u64,
    /// Name of the corpus parent it was mutated from.
    pub parent: String,
    /// The operator that produced it.
    pub kind: MutationKind,
    /// The admitted scenario (committable as-is).
    pub scenario: Scenario,
    /// Signature key of its run.
    pub signature: u64,
    /// How many never-seen coverage features it contributed.
    pub new_features: usize,
}

/// A judge failure the storm found, already minimized.
#[derive(Debug, Clone)]
pub struct StormFailure {
    /// Exec index of the failing mutant; `None` when a *seed* scenario
    /// already failed.
    pub exec: Option<u64>,
    /// The failing scenario as executed.
    pub scenario: Scenario,
    /// The delta-debugged minimal reproducer (verified: still fails).
    pub shrunk: Scenario,
    /// Shrink search statistics.
    pub stats: ShrinkStats,
}

/// Everything a storm run produced.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Seed-corpus size the storm started from.
    pub seeds: usize,
    /// Mutant executions actually performed (may stop short on failure).
    pub execs: u64,
    /// Admitted mutants, in admission order.
    pub admitted: Vec<Admission>,
    /// Final corpus size (seeds + admissions kept as parents).
    pub corpus_size: usize,
    /// Distinct coverage features observed across the whole run.
    pub features: usize,
    /// The failure that stopped the storm, if any.
    pub failure: Option<StormFailure>,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
}

impl StormReport {
    /// Mutant executions per wall-clock second.
    pub fn execs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.execs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// SplitMix64-style hash deriving the per-exec seed from the storm seed:
/// adjacent exec indices get statistically independent RNG streams.
fn exec_seed(seed: u64, exec: u64) -> u64 {
    let mut z = seed ^ exec.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the storm. See the module docs for the loop; `on_admit` fires for
/// every admission in order (live progress for the CLI).
pub fn storm_observed(
    seeds: &[Scenario],
    cfg: &StormConfig,
    mut on_admit: impl FnMut(&Admission),
) -> StormReport {
    assert!(!seeds.is_empty(), "storm needs at least one seed scenario");
    #[expect(
        clippy::disallowed_methods,
        reason = "observation-side timing for the report's elapsed field; never feeds scenario selection or digests"
    )]
    let start = Instant::now();
    let mut map = CoverageMap::new();
    let mut corpus: Vec<Scenario> = Vec::new();

    let report = |execs: u64,
                  admitted: Vec<Admission>,
                  corpus_size: usize,
                  features: usize,
                  failure: Option<StormFailure>| StormReport {
        seeds: seeds.len(),
        execs,
        admitted,
        corpus_size,
        features,
        failure,
        elapsed_secs: start.elapsed().as_secs_f64(),
    };

    // Seed phase: establish baseline coverage. A failing seed is a
    // failure of the *committed* corpus and stops the storm immediately.
    let seed_outs = run_many(seeds.to_vec(), cfg.workers, engine::run_any);
    for (scn, out) in seeds.iter().zip(&seed_outs) {
        if cfg.failure.holds(out) {
            let failure = minimize(scn, cfg.failure, None);
            return report(0, Vec::new(), corpus.len(), map.len(), Some(failure));
        }
        map.observe(&Signature::of(out));
        corpus.push(scn.clone());
    }

    // Mutation loop.
    let mut admitted: Vec<Admission> = Vec::new();
    let mut exec = 0u64;
    while exec < cfg.execs {
        let count = cfg.batch.max(1).min((cfg.execs - exec) as usize);
        // Generate the batch sequentially: parent choice and mutation are
        // part of the deterministic storm identity.
        let mut batch = Vec::with_capacity(count);
        for i in 0..count {
            let id = exec + i as u64;
            let mut rng = StdRng::seed_from_u64(exec_seed(cfg.seed, id));
            let parent = &corpus[rng.random_range(0..corpus.len())];
            let (kind, mut child) = mutate::mutate(parent, rng.random());
            child.name = format!("storm-{}-{id}", cfg.seed);
            batch.push((id, parent.name.clone(), kind, child));
        }
        // Execute in parallel, admit sequentially in input order.
        let scns: Vec<Scenario> = batch.iter().map(|(_, _, _, s)| s.clone()).collect();
        let outs = run_many(scns, cfg.workers, engine::run_any);
        exec += count as u64;
        for ((id, parent, kind, child), out) in batch.into_iter().zip(outs) {
            if cfg.failure.holds(&out) {
                let failure = minimize(&child, cfg.failure, Some(id));
                return report(id + 1, admitted, corpus.len(), map.len(), Some(failure));
            }
            let sig = Signature::of(&out);
            let new_features = map.observe(&sig);
            if new_features > 0 && corpus.len() < cfg.max_corpus {
                let admission = Admission {
                    exec: id,
                    parent,
                    kind,
                    scenario: child.clone(),
                    signature: sig.key(),
                    new_features,
                };
                on_admit(&admission);
                admitted.push(admission);
                corpus.push(child);
            }
        }
    }
    report(cfg.execs, admitted, corpus.len(), map.len(), None)
}

/// [`storm_observed`] without a progress hook.
pub fn storm(seeds: &[Scenario], cfg: &StormConfig) -> StormReport {
    storm_observed(seeds, cfg, |_| {})
}

/// One scenario the distiller kept, with the coverage it was kept *for*.
#[derive(Debug, Clone)]
pub struct DistillPick {
    /// The kept scenario.
    pub scenario: Scenario,
    /// Features this pick newly covered at selection time (its greedy
    /// gain; the picks' gains sum to the total feature count).
    pub gain: usize,
}

/// Result of a corpus distillation.
#[derive(Debug, Clone)]
pub struct DistillReport {
    /// Candidate scenarios considered.
    pub candidates: usize,
    /// Distinct coverage features observed across all candidates.
    pub features: usize,
    /// The minimal covering subset, in greedy selection order.
    pub selected: Vec<DistillPick>,
}

/// Distill a scenario corpus down to a greedy minimal subset that still
/// covers **every** coverage feature the full corpus observes.
///
/// Every candidate is executed (in input order over `workers` campaign
/// threads — [`run_many`] preserves order, so worker count never changes
/// the result) and projected onto its [`Signature`]. The classic greedy
/// set-cover heuristic then repeatedly keeps the candidate covering the
/// most still-uncovered features, ties broken toward the earliest
/// candidate, until nothing is uncovered. Fully deterministic: the same
/// candidate list yields the same subset, run to run and across worker
/// counts.
pub fn distill(candidates: &[Scenario], workers: usize) -> DistillReport {
    let outs = run_many(candidates.to_vec(), workers, engine::run_any);
    let sigs: Vec<Signature> = outs.iter().map(Signature::of).collect();
    // Ordered set on purpose (and by R1): `uncovered` is only probed and
    // shrunk, but keeping it iteration-ordered means no future refactor
    // can accidentally let map order leak into pick order.
    let mut uncovered: std::collections::BTreeSet<u64> = sigs
        .iter()
        .flat_map(|s| s.features().iter().copied())
        .collect();
    let features = uncovered.len();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut selected = Vec::new();
    while !uncovered.is_empty() {
        // Strictly-greater comparison over ascending candidate indices:
        // ties go to the earliest candidate, deterministically.
        let mut best: Option<(usize, usize)> = None; // (gain, position)
        for (pos, &i) in remaining.iter().enumerate() {
            let gain = sigs[i]
                .features()
                .iter()
                .filter(|f| uncovered.contains(f))
                .count();
            if gain > 0 && best.map_or(true, |(g, _)| gain > g) {
                best = Some((gain, pos));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "every uncovered feature was contributed by a remaining candidate"
        )]
        let (gain, pos) = best.expect("uncovered features all came from some candidate");
        let i = remaining.remove(pos);
        for f in sigs[i].features() {
            uncovered.remove(f);
        }
        selected.push(DistillPick {
            scenario: candidates[i].clone(),
            gain,
        });
    }
    DistillReport {
        candidates: candidates.len(),
        features,
        selected,
    }
}

/// Delta-debug a failing scenario into a minimal verified reproducer.
fn minimize(scn: &Scenario, pred: Predicate, exec: Option<u64>) -> StormFailure {
    #[expect(
        clippy::expect_used,
        reason = "replay determinism: a failure observed once reproduces"
    )]
    let (shrunk, stats) = shrink::shrink(scn, |s| pred.test(s))
        .expect("the scenario failed when executed, so it must fail when re-tested");
    StormFailure {
        exec,
        scenario: scn.clone(),
        shrunk,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::scn;
    use crate::spec::{SchedSpec, TopologySpec};

    /// Two small, fast seeds; enough to exercise mutation and admission.
    fn seeds() -> Vec<Scenario> {
        vec![
            Scenario::converge(
                "seed-star",
                TopologySpec::StarRing { n: 8 },
                SchedSpec::Synchronous,
                40_000,
            ),
            Scenario::converge(
                "seed-cycle",
                TopologySpec::Cycle { n: 8 },
                SchedSpec::RandomAsync { seed: 3 },
                40_000,
            ),
        ]
    }

    #[test]
    fn storm_grows_the_corpus_and_reports() {
        let cfg = StormConfig::new(7, 10);
        let mut live = 0usize;
        let report = storm_observed(&seeds(), &cfg, |_| live += 1);
        assert_eq!(report.seeds, 2);
        assert_eq!(report.execs, 10);
        assert!(report.failure.is_none(), "healthy protocol: no failures");
        assert!(
            !report.admitted.is_empty(),
            "10 mutations of a 2-seed corpus must surface novelty"
        );
        assert_eq!(live, report.admitted.len(), "progress hook saw each");
        assert_eq!(
            report.corpus_size,
            2 + report.admitted.len(),
            "corpus = seeds + admissions"
        );
        assert!(report.features > 0);
        assert!(report.elapsed_secs > 0.0);
        for a in &report.admitted {
            assert!(a.new_features > 0);
            assert!(a.scenario.name.starts_with("storm-7-"));
            // Every admitted mutant is a committable artifact.
            let parsed = scn::parse(&a.scenario.canonical()).expect("admitted mutant parses");
            assert_eq!(parsed, a.scenario);
        }
    }

    /// The replayability contract: the same `(seeds, config)` yields the
    /// same admitted corpus and signatures — across repeated runs *and*
    /// across worker counts (1 vs 4).
    #[test]
    fn storm_is_deterministic_across_runs_and_worker_counts() {
        let mut cfg = StormConfig::new(11, 8);
        let a = storm(&seeds(), &cfg);
        let b = storm(&seeds(), &cfg);
        cfg.workers = 4;
        let par = storm(&seeds(), &cfg);
        for other in [&b, &par] {
            assert_eq!(a.execs, other.execs);
            assert_eq!(a.corpus_size, other.corpus_size);
            assert_eq!(a.features, other.features);
            assert_eq!(a.admitted.len(), other.admitted.len());
            for (x, y) in a.admitted.iter().zip(&other.admitted) {
                assert_eq!(x.exec, y.exec);
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.parent, y.parent);
                assert_eq!(x.signature, y.signature, "signature determinism");
                assert_eq!(x.new_features, y.new_features);
                assert_eq!(x.scenario, y.scenario);
            }
        }
    }

    /// The auto-shrink path: an injected test-only failure predicate
    /// (every spanning tree has degree ≥ 1) trips on the very first seed
    /// and comes back as a minimal, verified, committable reproducer.
    #[test]
    fn injected_judge_failure_is_auto_shrunk_to_a_repro() {
        let mut cfg = StormConfig::new(3, 50);
        cfg.failure = Predicate::DegreeAtLeast(1);
        let report = storm(&seeds(), &cfg);
        let failure = report.failure.expect("injected predicate must fire");
        assert_eq!(failure.exec, None, "a seed itself trips the predicate");
        assert_eq!(report.execs, 0, "storm stops before mutating");
        assert!(
            failure.shrunk.size() <= failure.scenario.size(),
            "shrunk repro is no larger"
        );
        assert!(
            Predicate::DegreeAtLeast(1).test(&failure.shrunk),
            "repro verified: still fails"
        );
        // The repro is a committable .scn artifact.
        let parsed = scn::parse(&failure.shrunk.canonical()).expect("repro parses");
        assert_eq!(parsed, failure.shrunk);
    }

    /// Same injection, but deep in the mutation loop: seeds pass a
    /// degree-≥-3 bar (star-ring and cycle trees have degree ≤ 3 …), and
    /// the storm must catch the first mutant whose tree reaches it, then
    /// shrink that mutant.
    #[test]
    fn mutant_judge_failure_is_caught_mid_storm() {
        // Cycle seeds converge to degree-2 trees; degree ≥ 3 needs a
        // mutant (e.g. a topology swap) to fire.
        let seeds = vec![Scenario::converge(
            "seed-cycle",
            TopologySpec::Cycle { n: 8 },
            SchedSpec::Synchronous,
            40_000,
        )];
        let mut cfg = StormConfig::new(5, 64);
        cfg.batch = 8;
        cfg.failure = Predicate::DegreeAtLeast(3);
        let report = storm(&seeds, &cfg);
        if let Some(failure) = report.failure {
            let exec = failure.exec.expect("seed passes; a mutant fails");
            assert!(exec < 64);
            assert!(Predicate::DegreeAtLeast(3).test(&failure.shrunk));
            assert!(failure.stats.attempts > 0);
        } else {
            // Statistically improbable but legal: no mutant reached
            // degree 3 in 64 execs. The run must then have completed.
            assert_eq!(report.execs, 64);
        }
    }

    /// Distillation covers every observed feature with a (possibly much)
    /// smaller subset, and is deterministic across repeated runs and
    /// worker counts — the same candidates always distill to the same
    /// picks in the same order.
    #[test]
    fn distill_covers_all_features_deterministically() {
        // Seeds plus a storm's admissions: a corpus with real redundancy.
        let cfg = StormConfig::new(7, 10);
        let report = storm(&seeds(), &cfg);
        let mut candidates = seeds();
        candidates.extend(report.admitted.iter().map(|a| a.scenario.clone()));

        let a = distill(&candidates, 1);
        let b = distill(&candidates, 1);
        let par = distill(&candidates, 4);
        assert_eq!(a.candidates, candidates.len());
        assert!(a.features > 0);
        assert!(!a.selected.is_empty());
        assert!(a.selected.len() <= a.candidates);
        // Greedy gains partition the feature set exactly.
        assert_eq!(a.selected.iter().map(|p| p.gain).sum::<usize>(), a.features);
        // Gains are non-increasing in selection order (greedy invariant).
        for w in a.selected.windows(2) {
            assert!(w[0].gain >= w[1].gain);
        }
        for other in [&b, &par] {
            assert_eq!(a.features, other.features);
            assert_eq!(a.selected.len(), other.selected.len());
            for (x, y) in a.selected.iter().zip(&other.selected) {
                assert_eq!(x.scenario, y.scenario, "distill determinism");
                assert_eq!(x.gain, y.gain);
            }
        }
        // Re-running the distilled subset alone re-observes every feature.
        let outs = run_many(
            a.selected.iter().map(|p| p.scenario.clone()).collect(),
            1,
            engine::run_any,
        );
        let mut map = CoverageMap::new();
        for out in &outs {
            map.observe(&Signature::of(out));
        }
        assert_eq!(map.len(), a.features, "subset still covers everything");
    }

    /// The `BTreeSet` uncovered-feature tracker picks exactly what the
    /// definition demands: an independent greedy re-implementation over
    /// sorted `Vec` feature sets (no set type at all) must select the
    /// identical scenarios with the identical gains — distill's output is
    /// a function of the candidate list, not of the set representation.
    #[test]
    fn distill_selection_matches_a_set_free_reference_greedy() {
        let cfg = StormConfig::new(7, 10);
        let report = storm(&seeds(), &cfg);
        let mut candidates = seeds();
        candidates.extend(report.admitted.iter().map(|a| a.scenario.clone()));

        // Reference greedy: sorted-Vec sets, earliest-candidate tie-break.
        let outs = run_many(candidates.clone(), 1, engine::run_any);
        let sigs: Vec<Vec<u64>> = outs
            .iter()
            .map(|o| {
                let mut f = Signature::of(o).features().to_vec();
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect();
        let mut uncovered: Vec<u64> = sigs.concat();
        uncovered.sort_unstable();
        uncovered.dedup();
        let mut remaining: Vec<usize> = (0..candidates.len()).collect();
        let mut expected: Vec<(usize, usize)> = Vec::new(); // (candidate, gain)
        while !uncovered.is_empty() {
            let mut best: Option<(usize, usize)> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let gain = sigs[i]
                    .iter()
                    .filter(|f| uncovered.binary_search(f).is_ok())
                    .count();
                if gain > 0 && best.map_or(true, |(g, _)| gain > g) {
                    best = Some((gain, pos));
                }
            }
            let (gain, pos) = best.expect("every uncovered feature has a source");
            let i = remaining.remove(pos);
            uncovered.retain(|f| sigs[i].binary_search(f).is_err());
            expected.push((i, gain));
        }

        let got = distill(&candidates, 1);
        assert_eq!(got.selected.len(), expected.len());
        for (pick, (i, gain)) in got.selected.iter().zip(&expected) {
            assert_eq!(&pick.scenario, &candidates[*i], "pick order changed");
            assert_eq!(pick.gain, *gain, "gain changed");
        }
    }

    #[test]
    fn storm_on_the_committed_corpus_smoke() {
        // The CI smoke job in miniature: a handful of execs over the real
        // corpus, no failures, at least one admission.
        let cfg = StormConfig::new(1, 6);
        let report = storm(&corpus::corpus(), &cfg);
        assert!(report.failure.is_none());
        assert_eq!(report.execs, 6);
    }
}
