//! Re-convergence checking under dynamic topology.
//!
//! After a churn event (edge removal/insertion, node crash/rejoin,
//! partition/heal) the constraint set the protocol is fitting has changed,
//! and "converged" must be re-judged against the **current live
//! topology**, which may even be disconnected (mid-partition, or while a
//! cut bridge is down). The checker therefore works component-wise: for
//! every connected component of the alive subgraph it verifies that the
//! parent pointers restrict to a spanning tree of that component and that
//! the tree's degree is within one of the component's optimum `Δ*`
//! (Theorem 2's guarantee, re-established after every perturbation).
//!
//! Optima come from the certified-interval engine
//! ([`ssmdst_exact::IncrementalSolver`]): each component gets a tree
//! achieving `upper` and a [`ssmdst_exact::Witness`] certifying `lower`,
//! and the judge **re-verifies the witness itself** on a subgraph built
//! from the network (never from the solver's own mirror), so a solver bug
//! can only make verdicts conservative, never unsound. The judge is
//! stateful: a [`DeltaJudge`] keeps the engine's basis alive across churn.
//! The network is its only source of topology: every
//! [`DeltaJudge::check`] first diffs the engine's mirror against the
//! network, so a long churn chain re-solves only the components the
//! churn touched. The branch-and-bound solver
//! ([`ssmdst_graph::exact_mdst`]) remains the engine's settling oracle and
//! the test suite's small-`n` differential reference.

use crate::node::MdstNode;
use crate::NodeId;
use ssmdst_exact::{IncrementalSolver, Solver, Stats};
use ssmdst_graph::{Graph, SolveBudget, SpanningTree};
use ssmdst_sim::Network;

/// Largest component the judge's solver settles exactly with the
/// branch-and-bound oracle; above it the verdict is witness-certified
/// (`deg ≤ lower + 1` — sufficient for `deg ≤ Δ* + 1`, never necessary).
/// Covers every storm-mutated scenario size, so quality predicates at
/// small `n` never fail on an open interval.
pub const SETTLE_MAX_N: usize = 256;

/// Verdict for one connected component of the live topology.
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Member nodes, original ids, ascending.
    pub nodes: Vec<NodeId>,
    /// Max degree of the re-converged spanning tree of this component.
    pub degree: u32,
    /// Exact `Δ*` of the component, when the solver closed the interval.
    pub delta_star: Option<u32>,
    /// Certified lower bound on `Δ*` (always available).
    pub lower: u32,
    /// Best tree degree the solver achieved (upper bound on `Δ*`).
    pub upper: u32,
    /// Whether the tree degree is certified within one of the optimum:
    /// `degree ≤ Δ* + 1` when exact, else the conservative
    /// `degree ≤ lower + 1`.
    pub within_one: bool,
}

/// Why a network does not currently decompose into per-component trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// A node's parent pointer leaves its own component (stale neighbor).
    ParentOutsideComponent { node: NodeId, parent: NodeId },
    /// A component with no self-rooted node, or more than one.
    BadRootCount { component_min: NodeId, roots: usize },
    /// The parent pointers of a component are cyclic or non-spanning.
    NotATree { component_min: NodeId },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::ParentOutsideComponent { node, parent } => {
                write!(f, "node {node} parents {parent} outside its component")
            }
            ChurnError::BadRootCount {
                component_min,
                roots,
            } => write!(f, "component of {component_min} has {roots} roots"),
            ChurnError::NotATree { component_min } => {
                write!(f, "component of {component_min} is not a tree")
            }
        }
    }
}

/// The solver configuration a judging budget maps to: the budget bounds
/// the settling oracle's branch-and-bound nodes (`0` disables settling —
/// witness-only judging), capped at [`SETTLE_MAX_N`] vertices.
fn solver_for(budget: SolveBudget) -> Solver {
    Solver::builder()
        .settle_budget(budget.max_nodes)
        .settle_max_n(SETTLE_MAX_N)
        .build()
}

/// Relabel one component to dense ids and build its induced subgraph.
/// The network's rows are sorted and the relabelling is monotone on the
/// ascending component, so the relabelled rows are already a CSR.
fn induced_subgraph(net: &Network<MdstNode>, comp: &[NodeId]) -> Graph {
    Graph::from_sorted_rows(comp.iter().map(|&v| {
        net.neighbors(v).iter().map(|w| {
            comp.binary_search(w).expect("neighbor in component") as NodeId // lint: allow(no-panic-in-library) — components partition the graph, so every neighbor is listed
        })
    }))
}

/// The neighbors of `v` above `v` in a sorted row.
fn upper_half(row: &[NodeId], v: NodeId) -> &[NodeId] {
    &row[row.partition_point(|&w| w <= v)..]
}

/// The stateful component-wise judge: an incremental certified-`Δ*`
/// engine mirroring the live topology, plus the structural tree checks.
///
/// Create one per run ([`DeltaJudge::new`]) and judge at each stable
/// phase ([`DeltaJudge::check`]). Churn needs no feed: each check reads
/// the network's live topology and re-solves only the components whose
/// topology changed; untouched ones are served from the engine's cache.
/// The one-shot [`check_reconvergence`] wraps a fresh judge for callers
/// without a churn chain.
#[derive(Debug, Clone)]
pub struct DeltaJudge {
    inc: IncrementalSolver,
}

impl DeltaJudge {
    /// A judge mirroring `net`'s current live topology, solving under
    /// `budget`: the budget bounds the settling oracle's branch-and-bound
    /// nodes, capped at [`SETTLE_MAX_N`] vertices.
    pub fn new(net: &Network<MdstNode>, budget: SolveBudget) -> Self {
        let mut judge = DeltaJudge {
            inc: IncrementalSolver::new(net.n(), solver_for(budget)),
        };
        judge.sync(net);
        judge
    }

    /// Engine work counters — how much of the judging so far was served
    /// incrementally (cache hits / warm starts / cold starts / pivots).
    pub fn stats(&self) -> Stats {
        self.inc.stats()
    }

    /// Re-sync the mirror to the network, in two passes. Pass 1 applies
    /// every crash and rejoin, so pass 2 never inserts an edge towards a
    /// vertex the mirror still holds dead. Pass 2 diffs the sorted
    /// upper-half rows; only genuine differences touch the mirror.
    fn sync(&mut self, net: &Network<MdstNode>) {
        let n = net.n().min(self.inc.n()) as NodeId;
        for v in 0..n {
            // Both are no-ops when the mirror already agrees.
            if net.is_alive(v) {
                self.inc.rejoin(v);
            } else {
                self.inc.crash(v);
            }
        }
        for v in (0..n).filter(|&v| net.is_alive(v)) {
            // Compare the rows in place; only a row that differs is diffed
            // with two pointers.
            let want = upper_half(net.neighbors(v), v);
            let have = upper_half(self.inc.neighbors(v), v);
            if want == have {
                continue;
            }
            // Owned: the diff below edits the row it was read from.
            let have = have.to_vec();
            let mut have = have.into_iter().peekable();
            for &w in want {
                loop {
                    match have.peek() {
                        Some(&h) if h < w => {
                            self.inc.remove_edge(v, h);
                            have.next();
                        }
                        Some(&h) if h == w => {
                            have.next();
                            break;
                        }
                        _ => {
                            self.inc.insert_edge(v, w);
                            break;
                        }
                    }
                }
            }
            for h in have {
                self.inc.remove_edge(v, h);
            }
        }
    }

    /// Judge the network: every live component must carry a spanning tree
    /// (via the protocol's parent pointers) whose degree is certified
    /// within one of the component's `Δ*`. Untouched components are
    /// served from the engine's cache; dirty ones re-solve from their
    /// repaired basis.
    pub fn check(&mut self, net: &Network<MdstNode>) -> Result<Vec<ComponentReport>, ChurnError> {
        self.sync(net);
        let sols = self.inc.solve_all();
        let comps = net.live_components();
        // Checked in release too: a verdict must never pair one component
        // with another's solution, and the check is O(n) beside an
        // O(n + m) sync.
        assert_eq!(
            comps.len(),
            sols.len(),
            "mirror/network component structure diverged after sync"
        );
        let mut reports = Vec::with_capacity(comps.len());
        for (comp, sol) in comps.into_iter().zip(sols) {
            assert_eq!(comp, sol.members, "component membership diverged");
            let sub = induced_subgraph(net, &comp);
            // Map parent pointers into the dense relabeling.
            let mut parents = vec![0 as NodeId; comp.len()];
            let mut roots = Vec::new();
            for (i, &v) in comp.iter().enumerate() {
                let p = net.node(v).state().parent;
                if p == v {
                    roots.push(i as NodeId);
                    parents[i] = i as NodeId;
                } else {
                    let Ok(j) = comp.binary_search(&p) else {
                        return Err(ChurnError::ParentOutsideComponent { node: v, parent: p });
                    };
                    parents[i] = j as NodeId;
                }
            }
            let &[root] = roots.as_slice() else {
                return Err(ChurnError::BadRootCount {
                    component_min: comp[0],
                    roots: roots.len(),
                });
            };
            let Ok(tree) = SpanningTree::from_parents(&sub, root, parents) else {
                return Err(ChurnError::NotATree {
                    component_min: comp[0],
                });
            };
            let degree = tree.max_degree();
            // Independent certification: re-derive the witness bound on
            // the network-built subgraph (one BFS). The solver's `lower`
            // is only trusted when its certificate checks out here — a
            // settled component's witness certifies `lower − 1`, the
            // settling oracle closed the last gap.
            let cert = sol.witness.certifies(&sub);
            let trusted = cert >= sol.lower.saturating_sub(u32::from(sol.settled));
            let (delta_star, lower) = if trusted {
                (sol.delta_star(), sol.lower)
            } else {
                (None, cert)
            };
            let within_one = match delta_star {
                Some(d) => degree <= d + 1,
                None => degree <= lower + 1,
            };
            reports.push(ComponentReport {
                nodes: comp,
                degree,
                delta_star,
                lower,
                upper: sol.upper,
                within_one,
            });
        }
        Ok(reports)
    }
}

/// Check that the network has re-converged to per-component spanning trees
/// within one of each component's optimal degree. Intended to be called at
/// quiescence, after each churn event of a [`ssmdst_sim::TopologyPlan`].
///
/// One-shot form: builds a fresh [`DeltaJudge`] (cold solve of every
/// component). Drivers judging repeatedly across a churn chain keep a
/// judge alive instead. `budget` bounds the settling oracle per component;
/// pass `SolveBudget { max_nodes: 0 }` to skip settling entirely (the
/// witness lower bound then gives a conservative verdict).
pub fn check_reconvergence(
    net: &Network<MdstNode>,
    budget: SolveBudget,
) -> Result<Vec<ComponentReport>, ChurnError> {
    DeltaJudge::new(net, budget).check(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::oracle;
    use ssmdst_graph::generators::structured;
    use ssmdst_graph::{exact_mdst, ExactMdst};
    use ssmdst_sim::faults::apply_churn;
    use ssmdst_sim::{ChurnEvent, Scheduler, Session};

    fn budget() -> SolveBudget {
        SolveBudget { max_nodes: 500_000 }
    }

    /// A synchronous session whose quiescence runs are capped at 20 000
    /// rounds.
    fn sync_session(net: Network<MdstNode>) -> Session<MdstNode> {
        Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(20_000)
            .build()
    }

    fn converge(session: &mut Session<MdstNode>) {
        let out = session.run_to_quiescence(96, oracle::projection);
        assert!(
            out.converged(),
            "no quiescence within {}",
            session.horizon()
        );
    }

    #[test]
    fn static_converged_network_passes() {
        let g = structured::star_with_ring(8).unwrap();
        let net = crate::build_network(&g, Config::for_n(8));
        let mut session = sync_session(net);
        converge(&mut session);
        let reports = check_reconvergence(session.network(), budget()).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].within_one);
        assert_eq!(reports[0].nodes.len(), 8);
        assert_eq!(reports[0].delta_star, Some(2)); // ring ⇒ path tree
        assert_eq!(reports[0].upper, 2);
    }

    #[test]
    fn fresh_network_fails_with_many_roots() {
        let g = structured::path(4).unwrap();
        let net = crate::build_network(&g, Config::for_n(4));
        // Everyone self-rooted: 4 roots in one component.
        let err = check_reconvergence(&net, budget()).unwrap_err();
        assert!(matches!(err, ChurnError::BadRootCount { roots: 4, .. }));
    }

    #[test]
    fn partitioned_network_is_judged_per_component() {
        let g = structured::cycle(8).unwrap();
        let net = crate::build_network(&g, Config::for_n(8));
        let mut session = sync_session(net);
        converge(&mut session);
        // Cut the cycle into two 4-paths.
        apply_churn(
            session.network_mut(),
            &ChurnEvent::Partition(vec![(0, 7), (3, 4)]),
        );
        converge(&mut session);
        let reports = check_reconvergence(session.network(), budget()).unwrap();
        assert_eq!(reports.len(), 2, "two components while partitioned");
        for r in &reports {
            assert_eq!(r.nodes.len(), 4);
            assert!(r.within_one, "component {:?} degree {}", r.nodes, r.degree);
        }
    }

    #[test]
    fn crashed_node_is_excluded_from_judgment() {
        let g = structured::cycle(6).unwrap();
        let net = crate::build_network(&g, Config::for_n(6));
        let mut session = sync_session(net);
        converge(&mut session);
        apply_churn(session.network_mut(), &ChurnEvent::CrashNode(3));
        converge(&mut session);
        let reports = check_reconvergence(session.network(), budget()).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].nodes.len(), 5, "crashed node not judged");
        assert!(!reports[0].nodes.contains(&3));
        assert!(reports[0].within_one);
    }

    /// The engine's per-component `Δ*` agrees with the branch-and-bound
    /// oracle on the judge's own induced subgraphs — the small-`n`
    /// differential that pins the rewired judge to the legacy one.
    #[test]
    fn judge_delta_star_matches_branch_and_bound() {
        let g = structured::star_with_ring(10).unwrap();
        let net = crate::build_network(&g, Config::for_n(10));
        let mut session = sync_session(net);
        converge(&mut session);
        apply_churn(session.network_mut(), &ChurnEvent::RemoveEdge(0, 1));
        converge(&mut session);
        let reports = check_reconvergence(session.network(), budget()).unwrap();
        for r in &reports {
            let sub = induced_subgraph(session.network(), &r.nodes);
            match exact_mdst(&sub, budget()) {
                ExactMdst::Exact { delta_star, .. } => {
                    assert_eq!(r.delta_star, Some(delta_star), "comp {:?}", r.nodes);
                }
                ExactMdst::Bounded { .. } => panic!("budget must settle n ≤ 10"),
            }
        }
    }

    /// A judge driven by `check` alone stays bit-identical in outcome to a
    /// fresh judge built from scratch at every step of a churn chain, and
    /// its mirror equals the network after each check.
    #[test]
    fn incremental_judge_tracks_one_shot_judge_across_churn() {
        let g = structured::star_with_ring(9).unwrap();
        let net = crate::build_network(&g, Config::for_n(9));
        let mut session = sync_session(net);
        converge(&mut session);
        let mut judge = DeltaJudge::new(session.network(), budget());
        // Cuts {5, 6, 7, 8} off the hub and the rest of the ring.
        let cut = vec![(0, 5), (0, 6), (0, 7), (0, 8), (4, 5), (1, 8)];
        let chain = [
            ChurnEvent::RemoveEdge(1, 2),
            ChurnEvent::CrashNode(4),
            ChurnEvent::InsertEdge(1, 2),
            ChurnEvent::RejoinNode(4),
            ChurnEvent::Partition(cut.clone()),
            ChurnEvent::Heal(cut),
        ];
        for ev in &chain {
            apply_churn(session.network_mut(), ev);
            converge(&mut session);
            let net = session.network();
            let inc = judge.check(net).unwrap();
            for v in (0..9).filter(|&v| net.is_alive(v)) {
                assert_eq!(
                    judge.inc.neighbors(v),
                    net.neighbors(v),
                    "row {v} after {ev}"
                );
            }
            let scratch = check_reconvergence(net, budget()).unwrap();
            assert_eq!(inc.len(), scratch.len(), "after {ev}");
            for (a, b) in inc.iter().zip(&scratch) {
                assert_eq!(a.nodes, b.nodes, "after {ev}");
                assert_eq!(a.degree, b.degree, "after {ev}");
                assert_eq!(a.delta_star, b.delta_star, "after {ev}");
                assert_eq!(a.within_one, b.within_one, "after {ev}");
            }
        }
        let stats = judge.stats();
        assert!(
            stats.warm_starts + stats.cache_hits > 0,
            "chain stayed incremental: {stats:?}"
        );
    }

    /// A rejoin restores the rejoined vertex's edges to lower neighbours:
    /// the sync revives every vertex before it diffs any row, so the
    /// insert of `{3, 4}` from row 3 is not refused.
    #[test]
    fn unobserved_rejoin_restores_lower_neighbour_edges() {
        let g = structured::path(6).unwrap();
        let net = crate::build_network(&g, Config::for_n(6));
        let mut session = sync_session(net);
        converge(&mut session);
        let mut judge = DeltaJudge::new(session.network(), budget());
        apply_churn(session.network_mut(), &ChurnEvent::CrashNode(4));
        converge(&mut session);
        assert_eq!(judge.check(session.network()).unwrap().len(), 2);
        apply_churn(session.network_mut(), &ChurnEvent::RejoinNode(4));
        converge(&mut session);
        let reports = judge.check(session.network()).unwrap();
        assert_eq!(judge.inc.neighbors(4), [3, 5]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].nodes, [0, 1, 2, 3, 4, 5]);
        assert!(reports[0].within_one);
    }
}
