//! Deterministic, seedable graph generators — the workload suite.
//!
//! Every generator takes an explicit seed and is reproducible across runs
//! and platforms (ChaCha RNG). Families:
//!
//! * [`random`] — Erdős–Rényi `G(n,p)` / `G(n,m)` (connectivity-repaired),
//!   Barabási–Albert preferential attachment, near-regular graphs;
//! * [`geometric`] — random geometric graphs on the unit square (the paper's
//!   motivating ad-hoc/sensor topologies);
//! * [`structured`] — paths, cycles, grids, tori, hypercubes, complete and
//!   complete-bipartite graphs, stars with rings;
//! * [`gadgets`] — adversarial instances with *known* optimal degree `Δ*`
//!   (cut-vertex spiders, Hamiltonian-plus-chords, double brooms), used as
//!   ground truth where the exact solver would be too slow.
//!
//! [`GraphFamily`] enumerates the families used by the experiment harness so
//! sweeps can be written generically.

pub mod gadgets;
pub mod geometric;
pub mod random;
pub mod structured;

pub use gadgets::{double_broom, hamiltonian_with_chords, multi_hub, spider, wheel_with_spokes};
pub use geometric::random_geometric;
pub use random::{
    barabasi_albert, gnm_connected, gnp_connected, gnp_connected_sparse, near_regular,
};
pub use structured::{
    complete, complete_bipartite, cycle, grid, hypercube, path, star_with_ring, torus,
};

use crate::graph::Graph;

/// Workload families swept by the experiment harness.
///
/// `label()` names the family in printed tables; `generate(n, seed)` builds a
/// connected instance with approximately `n` nodes (structured families round
/// `n` to their natural shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// `G(n, p)` with `p = 2 ln n / n` (connected regime, repaired).
    GnpSparse,
    /// `G(n, p)` with `p = 0.3` (dense).
    GnpDense,
    /// Random geometric graph, radius in the connectivity regime.
    Geometric,
    /// Barabási–Albert with attachment 2 (heavy-tailed degrees).
    ScaleFree,
    /// 2-dimensional grid (`⌈√n⌉ × ⌈√n⌉`).
    Grid,
    /// Hypercube of dimension `⌈log₂ n⌉`.
    Hypercube,
    /// Hamiltonian path + random chords: `Δ* = 2` by construction.
    HamiltonianChords,
    /// Cut-vertex spider: `Δ*` equals the number of legs by construction.
    Spider,
}

impl GraphFamily {
    /// All families, in table order.
    pub fn all() -> &'static [GraphFamily] {
        use GraphFamily::*;
        &[
            GnpSparse,
            GnpDense,
            Geometric,
            ScaleFree,
            Grid,
            Hypercube,
            HamiltonianChords,
            Spider,
        ]
    }

    /// Human-readable family name used in experiment tables.
    pub fn label(&self) -> &'static str {
        use GraphFamily::*;
        match self {
            GnpSparse => "gnp-sparse",
            GnpDense => "gnp-dense",
            Geometric => "geometric",
            ScaleFree => "scale-free",
            Grid => "grid",
            Hypercube => "hypercube",
            HamiltonianChords => "ham-chords",
            Spider => "spider",
        }
    }

    /// Generate a connected instance with ~`n` nodes.
    ///
    /// # Panics
    /// Panics if `n < 4` (the experiment suite never goes below that).
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        assert!(n >= 4, "experiment families need n >= 4");
        use GraphFamily::*;
        match self {
            GnpSparse => {
                let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
                gnp_connected(n, p, seed)
            }
            GnpDense => gnp_connected(n, 0.3, seed),
            Geometric => {
                // r ~ sqrt(2 ln n / n): just above the connectivity threshold.
                let r = (2.0 * (n as f64).ln() / n as f64).sqrt().min(1.0);
                random_geometric(n, r, seed)
            }
            ScaleFree => barabasi_albert(n, 2, seed),
            Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                #[expect(
                    clippy::expect_used,
                    reason = "side = ceil(sqrt(n)) >= 2 for the n this family accepts"
                )]
                grid(side, side).expect("grid parameters valid")
            }
            Hypercube => {
                let dim = (n as f64).log2().ceil().max(2.0) as u32;
                #[expect(clippy::expect_used, reason = "dim clamped to >= 2 on the line above")]
                hypercube(dim).expect("hypercube parameters valid")
            }
            HamiltonianChords => hamiltonian_with_chords(n, 2 * n, seed),
            Spider => {
                let legs = 5.min(n - 1).max(3);
                let leg_len = ((n - 1) / legs).max(1);
                #[expect(
                    clippy::expect_used,
                    reason = "legs in 3..=5 and leg_len >= 1 by the clamps above"
                )]
                spider(legs, leg_len).expect("spider parameters valid")
            }
        }
    }

    /// `Δ*` when it is known analytically for this family's instances.
    pub fn known_delta_star(&self, g: &Graph) -> Option<u32> {
        match self {
            GraphFamily::HamiltonianChords => Some(2),
            GraphFamily::Spider => {
                // Δ* = max(#legs, 2); #legs = degree of the hub node 0.
                Some((g.degree(0) as u32).max(2))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn all_families_generate_connected_graphs() {
        for fam in GraphFamily::all() {
            for &n in &[8usize, 20, 33] {
                let g = fam.generate(n, 42);
                assert!(
                    is_connected(&g),
                    "{} (n={n}) must be connected",
                    fam.label()
                );
                assert!(g.n() >= 4);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for fam in GraphFamily::all() {
            let a = fam.generate(24, 7);
            let b = fam.generate(24, 7);
            assert_eq!(a, b, "{} must be seed-deterministic", fam.label());
        }
    }

    #[test]
    fn different_seeds_differ_for_random_families() {
        let a = GraphFamily::GnpDense.generate(24, 1);
        let b = GraphFamily::GnpDense.generate(24, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn known_delta_star_only_for_gadgets() {
        let g = GraphFamily::HamiltonianChords.generate(16, 3);
        assert_eq!(GraphFamily::HamiltonianChords.known_delta_star(&g), Some(2));
        let g = GraphFamily::Spider.generate(16, 3);
        let ds = GraphFamily::Spider.known_delta_star(&g).unwrap();
        assert!(ds >= 3);
        let g = GraphFamily::Grid.generate(16, 3);
        assert_eq!(GraphFamily::Grid.known_delta_star(&g), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = GraphFamily::all().iter().map(|f| f.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), GraphFamily::all().len());
    }
}
