//! Bridges and articulation points (Tarjan's low-link algorithm).
//!
//! Bridges and articulation points matter for the MDST problem: a bridge
//! belongs to **every** spanning tree, and removing an articulation point
//! splits the graph, which is what the vertex-removal bound of
//! [`crate::lower_bound`] counts. The fault planners use both to pick
//! churn that keeps the network connected.

use crate::graph::{Graph, NodeId};

/// Result of one biconnectivity pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Biconnectivity {
    /// All bridge edges, canonical `(min, max)` form, sorted.
    pub bridges: Vec<(NodeId, NodeId)>,
    /// All articulation points, sorted.
    pub articulation_points: Vec<NodeId>,
}

/// Iterative Tarjan low-link computation over all components.
pub fn biconnectivity(g: &Graph) -> Biconnectivity {
    let n = g.n();
    let mut disc = vec![u32::MAX; n]; // discovery time
    let mut low = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut child_count = vec![0u32; n];
    let mut is_artic = vec![false; n];
    let mut bridges = Vec::new();
    let mut time = 0u32;

    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        // Iterative DFS: stack of (node, neighbor-index).
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        disc[root as usize] = time;
        low[root as usize] = time;
        time += 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let nbrs = g.neighbors(v);
            if *i < nbrs.len() {
                let w = nbrs[*i];
                *i += 1;
                if disc[w as usize] == u32::MAX {
                    parent[w as usize] = v;
                    child_count[v as usize] += 1;
                    disc[w as usize] = time;
                    low[w as usize] = time;
                    time += 1;
                    stack.push((w, 0));
                } else if w != parent[v as usize] {
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if low[v as usize] > disc[p as usize] {
                        bridges.push(if p < v { (p, v) } else { (v, p) });
                    }
                    // Non-root articulation: some child cannot reach above.
                    if parent[p as usize] != u32::MAX && low[v as usize] >= disc[p as usize] {
                        is_artic[p as usize] = true;
                    }
                }
            }
        }
        // Root articulation: more than one DFS child.
        if child_count[root as usize] > 1 {
            is_artic[root as usize] = true;
        }
    }
    bridges.sort_unstable();
    let articulation_points = (0..n as u32).filter(|&v| is_artic[v as usize]).collect();
    Biconnectivity {
        bridges,
        articulation_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gadgets, structured};
    use crate::graph::graph_from_edges;

    #[test]
    fn path_is_all_bridges() {
        let g = structured::path(5).unwrap();
        let bc = biconnectivity(&g);
        assert_eq!(bc.bridges.len(), 4);
        // Interior nodes are articulation points.
        assert_eq!(bc.articulation_points, vec![1, 2, 3]);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = structured::cycle(6).unwrap();
        let bc = biconnectivity(&g);
        assert!(bc.bridges.is_empty());
        assert!(bc.articulation_points.is_empty());
    }

    #[test]
    fn spider_hub_edges_are_bridges() {
        let g = gadgets::spider(4, 2).unwrap();
        let bc = biconnectivity(&g);
        // Every edge of a spider is a bridge (it is a tree).
        assert_eq!(bc.bridges.len(), g.m());
        let hub_bridges = bc.bridges.iter().filter(|&&(u, _)| u == 0).count();
        assert_eq!(hub_bridges, 4);
        assert!(bc.articulation_points.contains(&0));
    }

    #[test]
    fn barbell_bridge_detected() {
        // Two triangles joined by one edge {2,3}: that edge is the bridge,
        // its endpoints are articulation points.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let bc = biconnectivity(&g);
        assert_eq!(bc.bridges, vec![(2, 3)]);
        assert_eq!(bc.articulation_points, vec![2, 3]);
    }

    #[test]
    fn star_with_ring_has_no_bridges() {
        let g = structured::star_with_ring(8).unwrap();
        assert!(biconnectivity(&g).bridges.is_empty());
    }

    #[test]
    fn disconnected_components_handled() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let bc = biconnectivity(&g);
        assert_eq!(bc.bridges, vec![(0, 1), (2, 3)]);
        assert!(bc.articulation_points.is_empty());
    }
}
