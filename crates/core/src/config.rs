//! Protocol configuration and ablation switches.

/// Tunables of the protocol. Every public knob corresponds to an ablation
/// in ARCHITECTURE.md, "Modelling deviations" (A1–A3); the throttles and
/// caps are crate-private and set by [`Config::for_n`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Ticks between successive `Search` launches for the same non-tree
    /// edge. The paper's do-forever loop relaunches continuously; a period
    /// keeps simulated traffic finite without changing reachable
    /// configurations. Should scale like Θ(n) so a token finishes (a DFS
    /// over the tree takes ≤ 2(n−1) hops) before its successor starts.
    pub(crate) search_period: u32,

    /// Ablation **A1**: `true` replays the paper's strict rule R2 — any
    /// distance incoherence makes the node a new-root candidate and resets
    /// it. `false` (default) repairs a pure distance incoherence in place
    /// (`distance ← distance_parent + 1`), which is also self-stabilizing
    /// and avoids tearing the tree down after every edge reversal.
    pub strict_distance_reset: bool,

    /// Ablation **A2**: enable the `Deblock` module. Without it the
    /// protocol stops at the first blocked configuration and the
    /// `Δ* + 1` guarantee degrades (measurably, see experiment A2).
    pub enable_deblock: bool,

    /// Recursion budget carried by `Deblock` chains (the paper's recursive
    /// deblocking; the budget bounds churn from corrupted chains).
    pub(crate) deblock_ttl: u8,

    /// Ticks a node ignores repeated `Deblock` floods for the same blocking
    /// node (throttle; floods are idempotent).
    pub(crate) deblock_cooldown: u32,

    /// Hard cap on path/visited lists carried in messages. Anything longer
    /// is corrupt by definition (a tree path has ≤ n nodes) and is dropped.
    pub(crate) max_path_len: usize,

    /// Ablation **A3**: the busy latch serializing overlapping
    /// improvements. Disabling it re-exposes the flip-crossing hazard
    /// (crossing reversal arcs corrupt the tree and trigger re-election
    /// storms); the experiment quantifies the damage.
    pub enable_busy_latch: bool,
}

impl Config {
    /// Default configuration scaled for an `n`-node network.
    pub fn for_n(n: usize) -> Self {
        Config {
            search_period: (2 * n as u32).max(8),
            strict_distance_reset: false,
            enable_deblock: true,
            deblock_ttl: 8,
            deblock_cooldown: (2 * n as u32).max(8),
            max_path_len: n + 1,
            enable_busy_latch: true,
        }
    }

    /// Paper-strict variant (ablation A1).
    pub fn strict(n: usize) -> Self {
        Config {
            strict_distance_reset: true,
            ..Config::for_n(n)
        }
    }

    /// Deblock disabled (ablation A2).
    pub fn without_deblock(n: usize) -> Self {
        Config {
            enable_deblock: false,
            ..Config::for_n(n)
        }
    }

    /// Busy latch disabled (ablation A3).
    pub fn without_busy_latch(n: usize) -> Self {
        Config {
            enable_busy_latch: false,
            ..Config::for_n(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, oracle};
    use ssmdst_graph::generators::GraphFamily;
    use ssmdst_sim::{quiet_window, Scheduler, Session};

    #[test]
    fn defaults_scale_with_n() {
        let c = Config::for_n(50);
        assert_eq!(c.search_period, 100);
        assert_eq!(c.max_path_len, 51);
        assert!(c.enable_deblock);
        assert!(!c.strict_distance_reset);
    }

    #[test]
    fn small_n_gets_floors() {
        let c = Config::for_n(2);
        assert!(c.search_period >= 8);
        assert!(c.deblock_cooldown >= 8);
    }

    #[test]
    fn ablation_constructors() {
        assert!(Config::strict(10).strict_distance_reset);
        assert!(!Config::without_deblock(10).enable_deblock);
        assert!(!Config::without_deblock(10).strict_distance_reset);
    }

    /// Config search-period sanity: an aggressive (short) period still
    /// converges — throttles are performance knobs, not correctness knobs.
    #[test]
    fn short_search_period_still_converges() {
        let g = GraphFamily::HamiltonianChords.generate(12, 6);
        let cfg = Config {
            search_period: 8,
            ..Config::for_n(g.n())
        };
        let net = build_network(&g, cfg);
        let mut session = Session::from_network(net)
            .scheduler(Scheduler::Synchronous)
            .horizon(150_000)
            .build();
        let out = session.run_to_quiescence(quiet_window(g.n()), oracle::projection);
        assert!(out.converged());
        assert!(oracle::is_legitimate(&g, session.network()));
    }
}
