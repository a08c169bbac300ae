//! Module 3 — fundamental-cycle detection (paper §3.2.2, Figure 3).
//!
//! For every non-tree edge `{a, b}` with `ID_a < ID_b`, the initiator `a`
//! periodically launches a `Search` token that performs a DFS over *tree
//! edges only*, carrying the DFS stack (`path`, with each node's degree) and
//! the visited set. The token either reaches `b` — closing the fundamental
//! cycle, `b` then runs `Action_on_Cycle` (see [`crate::reduction`]) — or
//! exhausts the tree and dies (the tree changed under it; the periodic
//! relaunch retries).
//!
//! Staleness discipline: every hop requires the holder to be
//! `locally_stabilized` with the token's `dmax` snapshot; otherwise the
//! token is dropped. Nothing is committed by a search, so dropping is safe
//! (ARCHITECTURE.md, "Modelling deviations", deviation 4).

use crate::messages::{Msg, Search};
use crate::node::MdstNode;
use crate::NodeId;
use ssmdst_sim::Outbox;

/// Entries a new token reserves in its `path` and `visited` lists (never
/// more than `max_path_len`, past which a token is dropped), so a walk of
/// up to this many hops does not reallocate them as it grows.
const TOKEN_RESERVE: usize = 16;

/// Deterministic splitmix-style jitter for search retry de-synchronization.
fn jitter(id: NodeId, edge_to: NodeId, counter: u64) -> u32 {
    let mut z = (id as u64) << 40 ^ (edge_to as u64) << 20 ^ counter;
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 31)) as u32
}

impl MdstNode {
    /// Launch `Search` tokens for due non-tree edges (called from `tick`).
    pub(crate) fn launch_periodic_searches(&mut self, out: &mut Outbox<Msg>) {
        if !self.st.locally_stabilized() || self.st.dmax < 3 {
            // dmax < 3 means the tree is already a path (or tiny): by
            // Eq. 1 no improvement can exist, so searching is pure waste.
            // (dmax == 2 cycles would need endpoints of degree 0.)
            return;
        }
        let period = self.cfg.search_period;
        let id = self.st.id;
        // Only the lower-ID endpoint of an edge initiates.
        let first = self.st.neighbors.partition_point(|&u| u <= id);
        for i in first..self.st.neighbors.len() {
            if self.st.is_tree_edge_at(i) {
                continue; // not a non-tree edge
            }
            let u = self.st.neighbors[i];
            // Staggered first launch: spread token storms across the period.
            let stagger = (id.wrapping_mul(31).wrapping_add(u)) % period.max(1);
            let counter = self.st.launch_counter;
            let cd = self.st.search_cooldown.get_or_insert(u, stagger);
            if *cd > 0 {
                continue;
            }
            // Deterministic jitter: retries must not be perfectly periodic,
            // or the synchronous daemon replays the same improvement
            // collision forever.
            *cd = period + jitter(id, u, counter) % (period / 2 + 1);
            self.st.launch_counter = counter + 1;
            self.start_search(u, None, out);
        }
    }

    /// Begin a DFS for the non-tree edge `{self, target}`; `idblock`
    /// carries the blocking-node context for Deblock-triggered searches.
    pub(crate) fn start_search(
        &mut self,
        target: NodeId,
        idblock: Option<(NodeId, u8)>,
        out: &mut Outbox<Msg>,
    ) {
        let s = &self.st;
        // First hop: the smallest tree neighbor (deterministic DFS order).
        let Some(first) = (0..s.neighbors.len())
            .find(|&i| s.is_tree_edge_at(i))
            .map(|i| s.neighbors[i])
        else {
            return; // no tree edges yet
        };
        let reserve = TOKEN_RESERVE.min(self.cfg.max_path_len);
        let mut path = Vec::with_capacity(reserve);
        path.push((s.id, s.deg));
        let mut visited = Vec::with_capacity(reserve);
        visited.push(s.id);
        out.send(
            first,
            Msg::Search(Box::new(Search {
                init: (s.id, target),
                idblock,
                dmax: s.dmax,
                path,
                visited,
                backtrack: false,
            })),
        );
    }

    /// One DFS hop (receive side).
    pub(crate) fn handle_search(
        &mut self,
        from: NodeId,
        mut m: Box<Search>,
        out: &mut Outbox<Msg>,
    ) {
        let s = &self.st;
        // Staleness and sanity guards; a dropped token is re-launched by the
        // initiator's periodic cooldown. Busy nodes are in the middle of an
        // improvement: cycles crossing them must not be measured now.
        if !s.locally_stabilized()
            || s.dmax != m.dmax
            || self.busy_blocked()
            || m.path.len() > self.cfg.max_path_len
            || m.visited.len() > self.cfg.max_path_len
            || m.path.is_empty()
        {
            return;
        }
        if s.id == m.init.1 {
            // Cycle closed. Require: arrived over a tree edge, `{a, b}` is
            // still a non-tree edge, and the path indeed starts at `a`.
            if !s.is_tree_edge(from)
                || !s.is_neighbor(m.init.0)
                || s.is_tree_edge(m.init.0)
                || m.path.first().map(|e| e.0) != Some(m.init.0)
                || m.path.last().map(|e| e.0) != Some(from)
            {
                return;
            }
            self.action_on_cycle(*m, out);
            return;
        }
        if m.backtrack {
            // A backtrack returns the token to the current stack top.
            if m.path.last().map(|e| e.0) != Some(s.id) {
                return; // corrupt token
            }
        } else {
            if m.visited.contains(&s.id) || !s.is_tree_edge(from) {
                return; // duplicate delivery or non-tree traversal: drop
            }
            m.path.push((s.id, s.deg));
            m.visited.push(s.id);
        }
        self.advance_search(m, out);
    }

    /// Forward the token to the next unvisited tree neighbor, or backtrack.
    fn advance_search(&mut self, mut m: Box<Search>, out: &mut Outbox<Msg>) {
        let s = &self.st;
        let next = (0..s.neighbors.len())
            .find(|&i| s.is_tree_edge_at(i) && !m.visited.contains(&s.neighbors[i]))
            .map(|i| s.neighbors[i]);
        m.backtrack = next.is_none();
        if m.backtrack {
            // Dead end: pop self, return the token to the new stack top. An
            // empty stack means the whole tree was searched without finding
            // the target — the tree changed mid-flight, and the token dies.
            m.path.pop();
        }
        let to = next.or_else(|| m.path.last().map(|e| e.0).filter(|&p| s.is_neighbor(p)));
        if let Some(to) = to {
            out.send(to, Msg::Search(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::messages::{Msg, Search};
    use crate::oracle;
    use crate::MdstNode;
    use ssmdst_graph::generators::structured;
    use ssmdst_sim::{stop_when, Message, Network, Scheduler, Session};

    /// On a square (4-cycle) the protocol forms a tree and the non-tree
    /// edge's search closes its fundamental cycle — observable as Search
    /// traffic reaching the target and (here, with no degree-3 node on the
    /// cycle... there is: the BFS tree of a square has a degree-2 root; no
    /// improvement) simply dying out without state changes.
    #[test]
    fn searches_run_and_tree_stays_stable_on_cycle_graph() {
        let g = structured::cycle(6).unwrap();
        let net = crate::build_network(&g, Config::for_n(6));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let out = session.run_until(
            150,
            &mut stop_when(|net: &Network<MdstNode>, _| {
                oracle::try_extract_tree(&g, net).is_some() && oracle::all_locally_stabilized(net)
            }),
        );
        assert!(out.converged());
        let t_before = oracle::try_extract_tree(&g, session.network()).unwrap();
        let _ = session.run_until(100, &mut ());
        let t_after = oracle::try_extract_tree(&g, session.network()).unwrap();
        // A cycle graph's tree is a Hamiltonian path: optimal, never changed.
        assert_eq!(t_before.edge_set(), t_after.edge_set());
    }

    /// Search tokens are emitted only by the lower-ID endpoint and only for
    /// non-tree edges, and carry the launch-time dmax.
    #[test]
    fn search_tokens_emitted_with_dmax_snapshot() {
        let g = structured::star_with_ring(6).unwrap();
        let net = crate::build_network(&g, Config::for_n(6));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        // Run until some Search messages have been sent.
        let out = session.run_until(
            400,
            &mut stop_when(|net: &Network<MdstNode>, _| net.metrics.kind("Search").sent > 0),
        );
        assert!(out.converged(), "no searches were ever launched");
    }

    /// dmax < 3 suppresses searching entirely (no improvement can exist).
    #[test]
    fn no_search_traffic_on_paths() {
        let g = structured::path(8).unwrap();
        let net = crate::build_network(&g, Config::for_n(8));
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .build();
        let _ = session.run_until(200, &mut ());
        assert_eq!(session.network().metrics.kind("Search").sent, 0);
    }

    /// Tokens die on stale dmax (unit-level check).
    #[test]
    fn stale_token_is_dropped() {
        use ssmdst_sim::Outbox;
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        // Make node 1 stabilized-ish with dmax 3.
        n.st.root = 0;
        n.st.parent = 0;
        n.st.distance = 1;
        for (&u, v) in n.st.neighbors.iter().zip(&mut n.st.nbr) {
            v.root = 0;
            v.dmax = 3;
            if u == 0 {
                v.parent = 0;
                v.distance = 0;
            } else {
                v.parent = 1;
                v.distance = 2;
            }
        }
        n.st.recompute_derived();
        n.st.dmax = 3;
        let mut out = Outbox::new();
        let token = Box::new(Search {
            init: (0, 3),
            idblock: None,
            dmax: 99, // stale snapshot
            path: vec![(0, 1)],
            visited: vec![0],
            backtrack: false,
        });
        n.handle_search(0, token, &mut out);
        assert!(out.is_empty(), "stale token must be dropped");
    }

    /// A token whose path exceeds the cap (corruption) is dropped.
    #[test]
    fn oversized_token_is_dropped() {
        use ssmdst_sim::Outbox;
        let mut n = crate::MdstNode::new(1, &[0, 2], Config::for_n(4));
        let mut out = Outbox::new();
        let huge: Vec<_> = (0..100).map(|i| (i, 1)).collect();
        let token = Box::new(Search {
            init: (0, 3),
            idblock: None,
            dmax: 0,
            path: huge,
            visited: vec![0],
            backtrack: false,
        });
        n.handle_search(0, token, &mut out);
        assert!(out.is_empty());
    }

    /// Search messages dominate message size, matching the O(n log n) claim.
    #[test]
    fn search_is_the_largest_message_kind() {
        let m = Msg::Search(Box::new(Search {
            init: (0, 1),
            idblock: None,
            dmax: 3,
            path: (0..20).map(|i| (i, 2)).collect(),
            visited: (0..20).collect(),
            backtrack: false,
        }));
        let info = Msg::Info(crate::NbrView::unknown(0));
        assert!(m.size_bits(32) > info.size_bits(32));
    }
}
