//! Adversarial gadget instances with analytically known `Δ*`.
//!
//! The exact solver ([`crate::mdst_exact`]) is exponential in the worst case,
//! so large-scale experiments need instances whose optimal degree is known by
//! construction:
//!
//! * [`spider`]: a cut vertex of degree `k` forces `Δ* = max(k, 2)`;
//! * [`hamiltonian_with_chords`]: a hidden Hamiltonian path forces `Δ* = 2`
//!   while random chords inflate the degrees any naive tree picks up;
//! * [`double_broom`]: two high-degree brooms joined by a path — `Δ*` equals
//!   the broom fan-out, and every improvement chain must cross the handle;
//! * [`wheel_with_spokes`]: hub + ring, `Δ* = 2`, the BFS-from-hub worst case
//!   with tunable extra spokes.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;

use super::random::rng;

/// Spider: hub node `0` with `legs` paths of length `leg_len` attached.
///
/// Every hub edge is a bridge, so every spanning tree contains all of them:
/// `Δ* = max(legs, 2)` exactly. `n = 1 + legs · leg_len`.
pub fn spider(legs: usize, leg_len: usize) -> Result<Graph, GraphError> {
    if legs < 1 || leg_len < 1 {
        return Err(GraphError::InvalidParameter(
            "spider: legs and leg_len must be >= 1",
        ));
    }
    let n = 1 + legs * leg_len;
    let mut b = GraphBuilder::new(n);
    for l in 0..legs {
        let first = (1 + l * leg_len) as NodeId;
        b.add_edge(0, first)?;
        for i in 1..leg_len {
            let v = first + i as NodeId;
            b.add_edge(v - 1, v)?;
        }
    }
    Ok(b.build())
}

/// Hamiltonian path through a random permutation of `0..n`, plus `chords`
/// random extra edges. `Δ* = 2` by construction (the hidden path), but the
/// chords give naive trees degree up to `Θ(log n / log log n)` and give the
/// protocol a rich supply of fundamental cycles.
pub fn hamiltonian_with_chords(n: usize, chords: usize, seed: u64) -> Graph {
    assert!(n >= 3, "hamiltonian_with_chords: n must be >= 3");
    let mut r = rng(seed);
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    perm.shuffle(&mut r);
    let mut b = GraphBuilder::new(n);
    for w in perm.windows(2) {
        #[expect(
            clippy::expect_used,
            reason = "permutation windows are distinct in-range pairs"
        )]
        b.add_edge_dedup(w[0], w[1]).expect("path edge valid");
    }
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let target = chords.min(max_extra);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < target && attempts < 100 * target.max(1) {
        attempts += 1;
        let u = r.random_range(0..n as u32);
        let v = r.random_range(0..n as u32);
        if u == v {
            continue;
        }
        let before = b.staged_edges();
        #[expect(
            clippy::expect_used,
            reason = "u != v checked above and both drawn from 0..n"
        )]
        b.add_edge_dedup(u, v).expect("chord valid");
        if b.staged_edges() > before {
            added += 1;
        }
    }
    b.build()
}

/// Double broom: two hubs, each fanning out to `fan` leaves, connected by a
/// path of `handle` interior nodes. Leaves of each broom are also chained to
/// each other (so leaves are not forced), and each leaf chain reconnects to
/// the handle midpoint, giving the reduction module a route to off-load hub
/// degree. `Δ* = 3` for `fan ≥ 3` (each hub keeps the handle edge plus the
/// two chain ends... verified by the exact solver in tests).
///
/// Layout: hub_a = 0, hub_b = 1, handle = 2..2+handle,
/// leaves_a = next `fan`, leaves_b = last `fan`. `n = 2 + handle + 2·fan`.
pub fn double_broom(fan: usize, handle: usize) -> Result<Graph, GraphError> {
    if fan < 2 || handle < 1 {
        return Err(GraphError::InvalidParameter(
            "double_broom: fan >= 2 and handle >= 1 required",
        ));
    }
    let n = 2 + handle + 2 * fan;
    let mut b = GraphBuilder::new(n);
    let hub_a = 0u32;
    let hub_b = 1u32;
    let handle_start = 2u32;
    let leaves_a = 2 + handle as u32;
    let leaves_b = leaves_a + fan as u32;
    // Handle path hub_a - h0 - h1 - ... - hub_b.
    b.add_edge(hub_a, handle_start)?;
    for i in 1..handle as u32 {
        b.add_edge(handle_start + i - 1, handle_start + i)?;
    }
    b.add_edge(handle_start + handle as u32 - 1, hub_b)?;
    // Brooms: hub -> each leaf; leaves chained.
    for f in 0..fan as u32 {
        b.add_edge(hub_a, leaves_a + f)?;
        b.add_edge(hub_b, leaves_b + f)?;
        if f > 0 {
            b.add_edge(leaves_a + f - 1, leaves_a + f)?;
            b.add_edge(leaves_b + f - 1, leaves_b + f)?;
        }
    }
    // Reconnect each leaf chain's far end to the handle midpoint so hub
    // degree can be off-loaded through the chain.
    let mid = handle_start + (handle as u32) / 2;
    b.add_edge(leaves_a + fan as u32 - 1, mid)?;
    b.add_edge(leaves_b + fan as u32 - 1, mid)?;
    Ok(b.build())
}

/// Multi-hub: `hubs` hub nodes arranged on a ring, each the center of its
/// own star-with-ring of `spokes` satellites.
///
/// Construction per hub `h`: `h` connects to its `spokes` satellites, the
/// satellites form a ring among themselves, and consecutive hubs are
/// joined. Every hub starts with degree `spokes + 2` in the natural BFS
/// tree while `Δ* = 2` stays achievable through the satellite rings
/// (verified by the exact solver in tests), so **all hubs are max-degree
/// simultaneously** — the purpose-built workload for the paper's
/// simultaneous-improvement claim (experiment F3).
///
/// `n = hubs · (1 + spokes)`.
pub fn multi_hub(hubs: usize, spokes: usize) -> Result<Graph, GraphError> {
    if hubs < 2 || spokes < 3 {
        return Err(GraphError::InvalidParameter(
            "multi_hub: need hubs >= 2 and spokes >= 3",
        ));
    }
    let n = hubs * (1 + spokes);
    let mut b = GraphBuilder::new(n);
    let hub = |h: usize| (h * (1 + spokes)) as NodeId;
    let sat = |h: usize, s: usize| (h * (1 + spokes) + 1 + s) as NodeId;
    for h in 0..hubs {
        // Hub ring.
        let next = (h + 1) % hubs;
        b.add_edge_dedup(hub(h), hub(next))?;
        for s in 0..spokes {
            // Star.
            b.add_edge(hub(h), sat(h, s))?;
            // Satellite ring.
            b.add_edge_dedup(sat(h, s), sat(h, (s + 1) % spokes))?;
        }
        // Bridge the satellite rings of consecutive hubs so a Hamiltonian
        // path can traverse the whole graph without loading any hub.
        b.add_edge_dedup(sat(h, spokes - 1), sat(next, 0))?;
    }
    Ok(b.build())
}

/// Wheel: hub `0` joined to every rim node, rim forms a cycle, plus
/// `extra_spokes` random rim–rim chords. `Δ* = 2` (rim path + one spoke).
pub fn wheel_with_spokes(n: usize, extra_spokes: usize, seed: u64) -> Result<Graph, GraphError> {
    if n < 5 {
        return Err(GraphError::InvalidParameter("wheel: n must be >= 5"));
    }
    let mut r = rng(seed);
    let rim = n - 1;
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(0, v)?;
    }
    for i in 0..rim as u32 {
        let u = 1 + i;
        let v = 1 + (i + 1) % rim as u32;
        b.add_edge_dedup(u, v)?;
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_spokes && attempts < 100 * extra_spokes.max(1) {
        attempts += 1;
        let u = r.random_range(1..n as u32);
        let v = r.random_range(1..n as u32);
        if u == v {
            continue;
        }
        let before = b.staged_edges();
        b.add_edge_dedup(u, v)?;
        if b.staged_edges() > before {
            added += 1;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn spider_structure() {
        let g = spider(4, 3).unwrap();
        assert_eq!(g.n(), 13);
        assert_eq!(g.degree(0), 4);
        assert!(is_connected(&g));
        // All hub edges are bridges: removing node 0 disconnects into 4 parts.
        assert!(spider(0, 1).is_err());
    }

    #[test]
    fn spider_single_leg_is_path() {
        let g = spider(1, 5).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn hamiltonian_with_chords_connected_and_sized() {
        let g = hamiltonian_with_chords(20, 30, 4);
        assert!(is_connected(&g));
        assert!(g.m() >= 19);
        assert!(g.m() <= 19 + 30);
    }

    #[test]
    fn hamiltonian_with_chords_deterministic() {
        assert_eq!(
            hamiltonian_with_chords(15, 10, 2),
            hamiltonian_with_chords(15, 10, 2)
        );
    }

    #[test]
    fn double_broom_structure() {
        let g = double_broom(4, 3).unwrap();
        assert_eq!(g.n(), 2 + 3 + 8);
        assert!(is_connected(&g));
        // Hubs have fan + 1 edges (leaves + handle).
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(1), 5);
        assert!(double_broom(1, 1).is_err());
    }

    #[test]
    fn multi_hub_structure() {
        let g = multi_hub(3, 4).unwrap();
        assert_eq!(g.n(), 15);
        assert!(is_connected(&g));
        // Hubs: ring (2) + spokes (4) = 6 each.
        for h in 0..3 {
            assert_eq!(g.degree((h * 5) as u32), 6);
        }
        assert!(multi_hub(1, 4).is_err());
        assert!(multi_hub(3, 2).is_err());
    }

    #[test]
    fn multi_hub_has_low_optimal_degree() {
        use crate::mdst_exact::{exact_mdst, SolveBudget};
        let g = multi_hub(2, 4).unwrap();
        let ds = exact_mdst(&g, SolveBudget::default())
            .delta_star()
            .expect("small instance");
        assert!(ds <= 3, "Δ* = {ds}");
    }

    #[test]
    fn wheel_structure() {
        let g = wheel_with_spokes(9, 0, 0).unwrap();
        assert_eq!(g.degree(0), 8);
        // Rim nodes: hub + 2 ring edges.
        for v in 1..9u32 {
            assert_eq!(g.degree(v), 3);
        }
        assert!(wheel_with_spokes(4, 0, 0).is_err());
    }

    #[test]
    fn wheel_extra_spokes_add_edges() {
        let base = wheel_with_spokes(12, 0, 1).unwrap();
        let more = wheel_with_spokes(12, 6, 1).unwrap();
        assert!(more.m() > base.m());
    }
}
