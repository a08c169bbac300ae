//! Descriptive graph statistics used by the experiment tables and examples:
//! degree distributions, tree quality summaries.

use crate::spanning_tree::SpanningTree;

/// Summary of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Arithmetic mean.
    pub mean: f64,
    /// Histogram: `hist[d]` = number of vertices of degree `d`.
    pub hist: Vec<usize>,
}

fn stats_of(degs: impl Iterator<Item = u32>) -> DegreeStats {
    let degs: Vec<u32> = degs.collect();
    if degs.is_empty() {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            hist: vec![],
        };
    }
    let (min, max) = degs
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    let mean = degs.iter().map(|&d| d as f64).sum::<f64>() / degs.len() as f64;
    let mut hist = vec![0usize; max as usize + 1];
    for &d in &degs {
        hist[d as usize] += 1;
    }
    DegreeStats {
        min,
        max,
        mean,
        hist,
    }
}

/// Degree statistics of a spanning tree.
pub fn tree_degrees(t: &SpanningTree) -> DegreeStats {
    stats_of(t.degrees().iter().copied())
}

/// Number of maximum-degree vertices of a tree — the size of FR's set `S`,
/// i.e. how much simultaneous-improvement opportunity an instance offers.
pub fn max_degree_count(t: &SpanningTree) -> usize {
    t.max_degree_nodes().len()
}

/// Number of leaves of a tree (degree-1 nodes). A path has 2; a star n−1.
/// Useful as a shape summary in tables.
pub fn leaf_count(t: &SpanningTree) -> usize {
    tree_degrees(t).hist.get(1).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured;
    use crate::graph::Graph;

    fn graph_degrees(g: &Graph) -> DegreeStats {
        stats_of(g.nodes().map(|v| g.degree(v) as u32))
    }

    #[test]
    fn path_statistics() {
        let g = structured::path(5).unwrap();
        let s = graph_degrees(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-9);
        assert_eq!(s.hist, vec![0, 2, 3]);
    }

    #[test]
    fn star_tree_statistics() {
        let g = structured::star_with_ring(8).unwrap();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        let s = tree_degrees(&t);
        assert_eq!(s.max, 7);
        assert_eq!(max_degree_count(&t), 1);
        assert_eq!(leaf_count(&t), 7);
    }

    #[test]
    fn hamiltonian_path_tree_has_two_leaves() {
        let g = structured::path(9).unwrap();
        let t = SpanningTree::from_bfs(&g, 0).unwrap();
        assert_eq!(leaf_count(&t), 2);
        assert_eq!(max_degree_count(&t), 7); // interior nodes all degree 2
    }

    #[test]
    fn empty_graph_statistics() {
        let g = crate::graph::GraphBuilder::new(0).build();
        let s = graph_degrees(&g);
        assert_eq!(s.max, 0);
        assert!(s.hist.is_empty());
    }
}
