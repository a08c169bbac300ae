//! Integration: cross-validation between the four independent
//! implementations of the same optimization —
//! the distributed protocol, the sequential FR baseline, the serialized
//! emulation and the exact solver. They were written against different
//! specifications (message-level pseudocode vs. the FR paper vs. plain
//! branch-and-bound), so agreement is strong evidence of correctness.

use ssmdst::baselines::{bfs_spanning_tree, fr_mdst, serialized_mdst};
use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::graph::{exact_mdst, SolveBudget};
use ssmdst::prelude::*;

fn protocol_degree(g: &ssmdst::graph::Graph) -> u32 {
    let net = build_network(g, Config::for_n(g.n()));
    let mut session = Session::from_network(net)
        .scheduler(Scheduler::Synchronous)
        .horizon(150_000)
        .build();
    let out = session.run_to_quiescence((6 * g.n() as u64).max(64), oracle::projection);
    assert!(out.converged());
    oracle::try_extract_tree(g, session.network())
        .expect("terminal tree")
        .max_degree()
}

/// All three approximation algorithms land in `{Δ*, Δ*+1}`.
#[test]
fn all_methods_within_one_of_exact() {
    for fam in GraphFamily::all() {
        let g = fam.generate(12, 8);
        let ds = fam
            .known_delta_star(&g)
            .or_else(|| exact_mdst(&g, SolveBudget::default()).delta_star())
            .expect("solvable at n=12");
        let t0 = bfs_spanning_tree(&g, 0).unwrap();
        let (fr, _) = fr_mdst(&g, t0.clone());
        let (ser, _) = serialized_mdst(&g, t0, 1);
        let dist = protocol_degree(&g);
        for (label, d) in [
            ("FR", fr.max_degree()),
            ("serialized", ser.max_degree()),
            ("protocol", dist),
        ] {
            assert!(
                d >= ds && d <= ds + 1,
                "{} on {}: degree {d} outside [{}, {}]",
                label,
                fam.label(),
                ds,
                ds + 1
            );
        }
    }
}

/// The distributed protocol never does worse than the centralized FR by
/// more than one (both are Δ*+1 algorithms, so they differ by ≤ 1).
#[test]
fn protocol_tracks_fr_quality() {
    for seed in [11u64, 12, 13] {
        let g = GraphFamily::GnpDense.generate(14, seed);
        let (fr, _) = fr_mdst(&g, bfs_spanning_tree(&g, 0).unwrap());
        let dist = protocol_degree(&g);
        assert!(
            dist <= fr.max_degree() + 1 && fr.max_degree() <= dist + 1,
            "seed {seed}: protocol {dist} vs FR {}",
            fr.max_degree()
        );
    }
}

/// FR from different initial trees reaches the same quality band — the
/// fixed point depends on the graph, not the start.
#[test]
fn fr_quality_independent_of_initial_tree() {
    use ssmdst::baselines::{dfs_spanning_tree, random_spanning_tree};
    let g = GraphFamily::HamiltonianChords.generate(16, 3);
    let from_bfs = fr_mdst(&g, bfs_spanning_tree(&g, 0).unwrap())
        .0
        .max_degree();
    let from_dfs = fr_mdst(&g, dfs_spanning_tree(&g, 0).unwrap())
        .0
        .max_degree();
    let from_rnd = fr_mdst(&g, random_spanning_tree(&g, 4).unwrap())
        .0
        .max_degree();
    // Δ* = 2 by construction: all must be in {2, 3}.
    for d in [from_bfs, from_dfs, from_rnd] {
        assert!((2..=3).contains(&d), "degree {d}");
    }
}

/// The exact solver's witness is itself a certificate: its degree equals
/// the reported optimum, and no tree can beat it (decision procedure says
/// no at Δ*−1).
#[test]
fn exact_solver_is_self_certifying() {
    use ssmdst::graph::has_spanning_tree_with_max_degree;
    let g = GraphFamily::GnpDense.generate(12, 14);
    let res = exact_mdst(&g, SolveBudget::default());
    let ds = res.delta_star().expect("solvable");
    assert_eq!(res.witness().max_degree(), ds);
    res.witness().validate(&g).unwrap();
    if ds > 1 {
        assert_eq!(
            has_spanning_tree_with_max_degree(&g, ds - 1, SolveBudget::default()),
            Some(None),
            "a better tree exists: Δ* was wrong"
        );
    }
}
