//! Random geometric graphs — the ad-hoc / sensor-network workloads the
//! paper's introduction motivates.

use crate::graph::{Graph, GraphBuilder};
use rand::prelude::*;

use super::random::{connect_components, rng};

/// Random geometric graph: `n` points uniform on the unit square, edge iff
/// Euclidean distance ≤ `radius`. Repaired to be connected (below the
/// `sqrt(ln n / (π n))` threshold RGGs disconnect; the repair adds the few
/// long-range edges a real deployment would call a backbone).
///
/// # Panics
/// Panics if `n == 0` or `radius` is not positive and finite.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n > 0, "rgg: n must be positive");
    assert!(
        radius.is_finite() && radius > 0.0,
        "rgg: radius must be positive"
    );
    let mut r = rng(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (r.random::<f64>(), r.random::<f64>()))
        .collect();
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                #[expect(clippy::expect_used, reason = "u < v < n and each pair visited once")]
                b.add_edge(u as u32, v as u32).expect("rgg edge valid");
            }
        }
    }
    connect_components(&mut b, n, &mut r);
    b.build()
}

/// Random geometric graph together with its embedding, for examples that
/// want to visualize or reason about positions.
pub fn random_geometric_with_points(n: usize, radius: f64, seed: u64) -> (Graph, Vec<(f64, f64)>) {
    // Re-derive the identical point set by replaying the RNG.
    let mut r = rng(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (r.random::<f64>(), r.random::<f64>()))
        .collect();
    (random_geometric(n, radius, seed), pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn rgg_is_connected_after_repair() {
        for seed in 0..4 {
            let g = random_geometric(40, 0.05, seed); // far below threshold
            assert!(is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn rgg_radius_sqrt2_is_complete() {
        let g = random_geometric(10, 1.5, 0);
        assert_eq!(g.m(), 10 * 9 / 2);
    }

    #[test]
    fn rgg_deterministic() {
        assert_eq!(random_geometric(30, 0.3, 5), random_geometric(30, 0.3, 5));
    }

    #[test]
    fn rgg_points_match_graph_seed() {
        let (g1, pts) = random_geometric_with_points(20, 0.4, 9);
        let g2 = random_geometric(20, 0.4, 9);
        assert_eq!(g1, g2);
        assert_eq!(pts.len(), 20);
        assert!(pts
            .iter()
            .all(|&(x, y)| (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y)));
    }

    #[test]
    fn larger_radius_means_more_edges() {
        let small = random_geometric(50, 0.15, 2);
        let large = random_geometric(50, 0.5, 2);
        assert!(large.m() > small.m());
    }
}
