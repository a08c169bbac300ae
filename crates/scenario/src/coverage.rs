//! Coverage signatures: the novelty gate of the scenario storm.
//!
//! A [`Signature`] projects one [`ScenarioOutcome`] onto a small set of
//! behavioural **features** — data the engine already folds into the
//! replay chain, bucketed so the projection is stable under noise but
//! separates regimes:
//!
//! * messages-by-kind histogram buckets ([`ssmdst_sim::log2_bucket`] of
//!   each kind's send count — the [`ssmdst_sim::Metrics::kind_buckets`]
//!   projection);
//! * per-phase recovery-round buckets;
//! * per-phase live-component counts and worst degrees;
//! * per-phase outcome shape (converged / checked / ok) and plan length;
//! * final degree and peak in-flight bucket.
//!
//! A [`CoverageMap`] accumulates every feature ever observed; a mutant is
//! **novelty-bearing** iff its signature contributes at least one feature
//! the map has not seen (greybox-fuzzing coverage, with behavioural
//! buckets standing in for branch edges). Only novelty-bearing mutants
//! are admitted to the corpus, so the corpus grows itself toward
//! behavioural diversity instead of piling up near-duplicates.
//!
//! Everything here is a pure function of the outcome, which is itself a
//! deterministic function of the scenario — so signatures are identical
//! across repeated runs and across campaign worker counts.

use crate::engine::ScenarioOutcome;
use ssmdst_sim::{log2_bucket, Digest};
#[expect(
    clippy::disallowed_types,
    reason = "membership-only coverage probe; features are counted, never iterated"
)]
use std::collections::HashSet;

/// Hash one feature: a domain tag plus its coordinates. FNV-1a via the
/// replay [`Digest`], so features are stable across platforms and runs.
fn feature(tag: &str, parts: &[u64]) -> u64 {
    let mut d = Digest::new();
    d.write_str(tag);
    for p in parts {
        d.write_u64(*p);
    }
    d.value()
}

/// The behavioural signature of one scenario run: a sorted, deduplicated
/// feature set plus a single fold of it (the signature *key*, used for
/// reporting and run-to-run comparisons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    features: Vec<u64>,
}

impl Signature {
    /// Project an outcome onto its signature.
    pub fn of(out: &ScenarioOutcome) -> Signature {
        let mut features = Vec::new();
        // Messages-by-kind histogram buckets.
        for (kind, sent, max_bits) in &out.msgs_by_kind {
            let mut d = Digest::new();
            d.write_str("msgs-kind");
            d.write_str(kind);
            d.write_u64(u64::from(log2_bucket(*sent)));
            features.push(d.value());
            let mut d = Digest::new();
            d.write_str("msgs-bits");
            d.write_str(kind);
            d.write_u64(u64::from(log2_bucket(*max_bits as u64)));
            features.push(d.value());
        }
        features.push(feature(
            "msgs-total",
            &[u64::from(log2_bucket(out.total_msgs))],
        ));
        features.push(feature(
            "peak-in-flight",
            &[u64::from(log2_bucket(out.peak_in_flight as u64))],
        ));
        // Per-phase shape: recovery-round buckets, component counts,
        // degrees, and the converged/checked/ok outcome bits.
        for (i, ph) in out.phases.iter().enumerate() {
            let i = i as u64;
            features.push(feature(
                "phase-rounds",
                &[i, u64::from(log2_bucket(ph.rounds))],
            ));
            features.push(feature("phase-components", &[i, ph.components as u64]));
            features.push(feature("phase-degree", &[i, u64::from(ph.degree)]));
            features.push(feature(
                "phase-outcome",
                &[
                    i,
                    u64::from(ph.converged),
                    u64::from(ph.checked),
                    u64::from(ph.ok),
                ],
            ));
        }
        features.push(feature("phases", &[out.phases.len() as u64]));
        features.push(feature(
            "final-degree",
            &[out.final_degree.map_or(u64::MAX, u64::from)],
        ));
        features.sort_unstable();
        features.dedup();
        Signature { features }
    }

    /// The individual features, sorted.
    pub fn features(&self) -> &[u64] {
        &self.features
    }

    /// One fold of the whole feature set — the signature's identity for
    /// reporting and equality checks across runs.
    pub fn key(&self) -> u64 {
        let mut d = Digest::new();
        for f in &self.features {
            d.write_u64(*f);
        }
        d.value()
    }
}

/// The set of every behavioural feature observed so far — the storm's
/// global coverage state. Membership queries are order-independent, so
/// the map is deterministic however executions are fanned out, as long as
/// observations are applied in a deterministic order.
#[derive(Debug, Default)]
pub struct CoverageMap {
    #[expect(
        clippy::disallowed_types,
        reason = "insert/contains/len only; doc above states the order-independence argument"
    )]
    seen: HashSet<u64>,
}

impl CoverageMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a signature in. Returns how many of its features were new —
    /// `> 0` means the run was novelty-bearing and its scenario earns a
    /// corpus slot.
    pub fn observe(&mut self, sig: &Signature) -> usize {
        sig.features()
            .iter()
            .filter(|f| self.seen.insert(**f))
            .count()
    }

    /// Total distinct features observed.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::engine;
    use crate::spec::{Scenario, SchedSpec, TopologySpec};

    #[test]
    fn signature_is_deterministic_across_runs() {
        let scn = corpus::by_name("fault-after-stable").unwrap();
        let a = Signature::of(&engine::run_any(&scn));
        let b = Signature::of(&engine::run_any(&scn));
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        assert!(!a.features().is_empty());
    }

    #[test]
    fn different_behaviours_have_different_signatures() {
        let sync = Scenario::converge(
            "a",
            TopologySpec::StarRing { n: 8 },
            SchedSpec::Synchronous,
            40_000,
        );
        let mut cycle = sync.clone();
        cycle.topology = TopologySpec::Cycle { n: 12 };
        let sa = Signature::of(&engine::run_any(&sync));
        let sb = Signature::of(&engine::run_any(&cycle));
        assert_ne!(sa.key(), sb.key());
    }

    #[test]
    fn coverage_map_counts_only_new_features() {
        let scn = corpus::by_name("converge-gnp-sync").unwrap();
        let sig = Signature::of(&engine::run_any(&scn));
        let mut map = CoverageMap::new();
        assert!(map.is_empty());
        let first = map.observe(&sig);
        assert_eq!(first, sig.features().len(), "everything new on first sight");
        assert_eq!(map.observe(&sig), 0, "re-observation adds nothing");
        assert_eq!(map.len(), sig.features().len());
    }
}
