//! Classic traversals over [`Graph`]: BFS, components, diameter.
//!
//! These back the oracle checks (connectivity, distances),
//! [`crate::SpanningTree::from_bfs`] and the experiment harness (diameter
//! normalization).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Hop distances from `src` (`u32::MAX` for unreachable nodes).
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                q.push_back(w);
            }
        }
    }
    dist
}

/// BFS parent vector rooted at `src`: `parent[src] == src`, unreachable nodes
/// get `u32::MAX`. This is the shape the paper's spanning-tree module
/// converges to (up to tie-breaking), so it doubles as a baseline tree.
pub fn bfs_tree(g: &Graph, src: NodeId) -> Vec<NodeId> {
    let mut parent = vec![u32::MAX; g.n()];
    let mut q = VecDeque::new();
    parent[src as usize] = src;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        for &w in g.neighbors(v) {
            if parent[w as usize] == u32::MAX {
                parent[w as usize] = v;
                q.push_back(w);
            }
        }
    }
    parent
}

/// Whether the graph is connected. The empty graph is considered connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != u32::MAX)
}

/// Component label per node, labels are `0..#components` in discovery order.
pub fn connected_components(g: &Graph) -> (usize, Vec<u32>) {
    let mut comp = vec![u32::MAX; g.n()];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for s in g.nodes() {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = next;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = next;
                    q.push_back(w);
                }
            }
        }
        next += 1;
    }
    (next as usize, comp)
}

/// Exact diameter by n BFS runs; `None` for disconnected or empty graphs.
/// Used only on experiment-scale graphs (n ≤ a few thousand).
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for s in g.nodes() {
        let d = bfs_distances(g, s);
        for &x in &d {
            if x == u32::MAX {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn path4() -> Graph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let d = bfs_distances(&path4(), 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
        let d = bfs_distances(&path4(), 2);
        assert_eq!(d, vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_distances_unreachable() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn bfs_tree_is_rooted_and_spanning() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]);
        let p = bfs_tree(&g, 0);
        assert_eq!(p[0], 0);
        // Every node reaches the root by following parents.
        for mut v in 0..5u32 {
            for _ in 0..10 {
                if v == 0 {
                    break;
                }
                v = p[v as usize];
            }
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn connectivity_detection() {
        assert!(is_connected(&path4()));
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
        let (c, labels) = connected_components(&g);
        assert_eq!(c, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn empty_graph_is_connected_by_convention() {
        let g = crate::graph::GraphBuilder::new(0).build();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path4()), Some(3));
        let cycle = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(diameter(&cycle), Some(3));
    }
}
