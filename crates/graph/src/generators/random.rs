//! Random graph families: Erdős–Rényi, Barabási–Albert, near-regular.
//!
//! All generators guarantee connectivity (the protocol's model assumes a
//! connected network): instances below the connectivity threshold are
//! repaired by adding a minimum set of random inter-component edges, which
//! perturbs the degree distribution negligibly.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::union_find::UnionFind;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Deterministic RNG from a seed (StdRng is ChaCha12 — stable across runs).
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Add the fewest random edges needed to connect the staged graph.
///
/// Picks a random representative in each component and chains components in
/// random order, so the repair does not bias toward low node IDs.
pub(crate) fn connect_components(b: &mut GraphBuilder, n: usize, rng: &mut StdRng) {
    if n == 0 {
        return;
    }
    // Recompute components from the staged edges.
    let snapshot = b.clone().build();
    let (c, labels) = crate::traversal::connected_components(&snapshot);
    if c <= 1 {
        return;
    }
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); c];
    for v in 0..n as u32 {
        members[labels[v as usize] as usize].push(v);
    }
    members.shuffle(rng);
    let mut uf = UnionFind::new(n);
    for &(u, v) in snapshot.edges() {
        uf.union(u, v);
    }
    for w in members.windows(2) {
        #[expect(
            clippy::expect_used,
            reason = "every component has at least one member"
        )]
        let u = *w[0].choose(rng).expect("non-empty component");
        #[expect(
            clippy::expect_used,
            reason = "every component has at least one member"
        )]
        let v = *w[1].choose(rng).expect("non-empty component");
        if uf.union(u, v) {
            #[expect(
                clippy::expect_used,
                reason = "endpoints come from distinct components, so u != v"
            )]
            b.add_edge_dedup(u, v).expect("repair edge valid");
        }
    }
}

/// Erdős–Rényi `G(n, p)`, repaired to be connected.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]` or `n == 0`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "gnp: n must be positive");
    assert!((0.0..=1.0).contains(&p), "gnp: p must be in [0,1]");
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if r.random::<f64>() < p {
                #[expect(clippy::expect_used, reason = "u < v < n and each pair flipped once")]
                b.add_edge(u, v).expect("gnp edge valid");
            }
        }
    }
    connect_components(&mut b, n, &mut r);
    b.build()
}

/// Sparse Erdős–Rényi `G(n, p)` via geometric skip sampling, repaired to
/// be connected — `O(n + pn²)` expected instead of the `O(n²)` coin flips
/// of [`gnp_connected`], which is what makes the S1 scale experiments
/// (n up to 65 536) feasible.
///
/// The draw sequence differs from [`gnp_connected`]'s, so the two produce
/// *different* (both deterministic) instances for the same seed; existing
/// experiment families keep using `gnp_connected` so their committed
/// numbers stay comparable.
///
/// # Panics
/// Panics if `n == 0` or `p` is not in `[0, 1)`.
pub fn gnp_connected_sparse(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "gnp_sparse: n must be positive");
    assert!(
        (0.0..1.0).contains(&p),
        "gnp_sparse: p must be in [0,1) (use gnp_connected for dense p)"
    );
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    if p > 0.0 {
        // Walk the linearized upper triangle, jumping geometric gaps:
        // skip ~ floor(ln(U) / ln(1-p)) misses between successive edges.
        // ln_1p keeps the denominator exact for tiny p, where (1.0 - p)
        // would round to 1.0 and collapse every skip to zero (a complete-
        // graph death march instead of an almost-empty graph).
        let total = n as u64 * (n as u64 - 1) / 2;
        let inv_log = 1.0 / (-p).ln_1p();
        let mut idx: u64 = 0;
        loop {
            let u01: f64 = r.random::<f64>().max(f64::MIN_POSITIVE);
            let skip = (u01.ln() * inv_log).floor() as u64;
            idx = match idx.checked_add(skip) {
                Some(i) if i < total => i,
                _ => break,
            };
            let (u, v) = triangle_unrank(idx, n as u64);
            #[expect(clippy::expect_used, reason = "triangle_unrank yields u < v < n")]
            b.add_edge_dedup(u, v).expect("gnp_sparse edge valid");
            idx += 1;
            if idx >= total {
                break;
            }
        }
    }
    connect_components(&mut b, n, &mut r);
    b.build()
}

/// Inverse of the row-major linearization of the strict upper triangle:
/// maps `idx ∈ [0, n(n-1)/2)` to the pair `(u, v)`, `u < v`.
fn triangle_unrank(idx: u64, n: u64) -> (NodeId, NodeId) {
    // Row u starts at offset u*n - u*(u+1)/2. Solve by binary search to
    // stay exact at 64-bit scale (float sqrt loses ulps past 2^26).
    let row_start = |u: u64| u * n - u * (u + 1) / 2;
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let v = u + 1 + (idx - row_start(u));
    (u as NodeId, v as NodeId)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` random edges (before connectivity
/// repair, which may add a few more).
///
/// # Panics
/// Panics if `m` exceeds `n(n−1)/2`.
pub fn gnm_connected(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n > 0, "gnm: n must be positive");
    let max_m = n * (n - 1) / 2;
    assert!(m <= max_m, "gnm: m={m} exceeds maximum {max_m}");
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    // Rejection sampling is fine for the densities used in experiments.
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < m && attempts < 50 * max_m.max(1) {
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
        b.add_edge_dedup(u, v).expect("gnm edge valid");
        if b.staged_edges() > before {
            added += 1;
        }
    }
    connect_components(&mut b, n, &mut r);
    b.build()
}

/// Barabási–Albert preferential attachment: start from a clique of
/// `attach + 1` nodes, each new node attaches to `attach` existing nodes
/// sampled proportionally to degree. Produces the heavy-tailed degree
/// distributions of peer-to-peer overlays (the paper's second motivation).
///
/// # Panics
/// Panics if `attach == 0` or `n <= attach`.
pub fn barabasi_albert(n: usize, attach: usize, seed: u64) -> Graph {
    assert!(attach >= 1, "ba: attach must be >= 1");
    assert!(n > attach, "ba: need n > attach");
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints urn.
    let mut urn: Vec<NodeId> = Vec::with_capacity(2 * n * attach);
    let core = attach + 1;
    for u in 0..core as u32 {
        for v in (u + 1)..core as u32 {
            #[expect(
                clippy::expect_used,
                reason = "clique pairs u < v < core <= n are distinct"
            )]
            b.add_edge(u, v).expect("ba core edge");
            urn.push(u);
            urn.push(v);
        }
    }
    for v in core as u32..n as u32 {
        let mut targets = Vec::with_capacity(attach);
        let mut guard = 0;
        while targets.len() < attach && guard < 10_000 {
            guard += 1;
            #[expect(
                clippy::expect_used,
                reason = "urn seeded with the core clique before any draw"
            )]
            let t = *urn.choose(&mut r).expect("urn non-empty");
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            #[expect(
                clippy::expect_used,
                reason = "targets are distinct, != v, and staged once per v"
            )]
            b.add_edge(v, t).expect("ba attach edge");
            urn.push(v);
            urn.push(t);
        }
    }
    b.build()
}

/// Near-`d`-regular connected graph: a Hamiltonian cycle (guaranteeing
/// connectivity and degree ≥ 2) plus random perfect-matching-style rounds
/// until every node has degree ≥ `d` or the attempt budget is exhausted.
///
/// # Panics
/// Panics if `d < 2` or `n < d + 1`.
pub fn near_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d >= 2, "near_regular: d must be >= 2");
    assert!(n > d, "near_regular: need n > d");
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut r);
    for i in 0..n {
        #[expect(
            clippy::expect_used,
            reason = "consecutive entries of a permutation differ for n >= 2"
        )]
        b.add_edge_dedup(perm[i], perm[(i + 1) % n])
            .expect("cycle edge");
    }
    let mut deg = vec![2usize; n];
    // Track how many nodes still sit below the target degree incrementally:
    // re-scanning `deg` on every attempt made the loop guard O(n), turning
    // large-n generation quadratic. The accepted-edge sequence (and thus
    // the generated instance per seed) is unchanged — only the guard is.
    let mut below = deg.iter().filter(|&&x| x < d).count();
    // Phase 1: uniform pair sampling. Cheap and unbiased while most nodes
    // sit below the target, but the hit probability decays like
    // (below / n)², so the endgame needs ~1.64 n² expected attempts — a
    // silent quadratic stall at n = 10⁶. The budget is therefore capped
    // absolutely (not just at 100·n·d, which itself is 10⁹ attempts at
    // S4 scale); the cap leaves every instance with n·d ≤ 40 000 — all
    // committed test and bench instances — byte-identical, because their
    // budget is unchanged and the accepted-edge sequence is a prefix
    // property of the rng stream.
    let mut attempts = 0usize;
    let phase1_budget = (100 * n * d).min(4_000_000);
    while below > 0 && attempts < phase1_budget {
        attempts += 1;
        let u = r.random_range(0..n as u32);
        let v = r.random_range(0..n as u32);
        if u == v || deg[u as usize] >= d || deg[v as usize] >= d {
            continue;
        }
        let before = b.staged_edges();
        #[expect(
            clippy::expect_used,
            reason = "u != v checked above and both drawn from 0..n"
        )]
        b.add_edge_dedup(u, v).expect("regular edge");
        if b.staged_edges() > before {
            for x in [u, v] {
                deg[x as usize] += 1;
                if deg[x as usize] == d {
                    below -= 1;
                }
            }
        }
    }
    // Phase 2: finish by sampling directly from the below-degree pool, so
    // each attempt hits two below-degree nodes by construction and the
    // total work is O(below · d) — independent of n. The retry budget
    // bounds the duplicate/self-pair tail (a tiny pool can be a clique of
    // itself, at which point no legal edge remains and "near"-regular is
    // the honest answer).
    if below > 0 {
        let mut pool: Vec<u32> = (0..n as u32).filter(|&v| deg[v as usize] < d).collect();
        let mut attempts = 0usize;
        let budget = 50 * (pool.len() * d + 16);
        while pool.len() >= 2 && attempts < budget {
            attempts += 1;
            let i = r.random_range(0..pool.len());
            let j = r.random_range(0..pool.len());
            if i == j {
                continue;
            }
            let (u, v) = (pool[i], pool[j]);
            let before = b.staged_edges();
            #[expect(
                clippy::expect_used,
                reason = "pool holds distinct node ids < n and i != j"
            )]
            b.add_edge_dedup(u, v).expect("regular edge");
            if b.staged_edges() > before {
                for x in [u, v] {
                    deg[x as usize] += 1;
                }
                // Drop saturated endpoints, higher index first so the
                // swap-remove cannot displace the other one.
                for k in [i.max(j), i.min(j)] {
                    if deg[pool[k] as usize] >= d {
                        pool.swap_remove(k);
                    }
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the million-node smokes bound their own wall time; no digest reads it"
)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn gnp_connected_is_connected_even_at_low_p() {
        for seed in 0..5 {
            let g = gnp_connected(30, 0.01, seed);
            assert!(is_connected(&g), "seed {seed}");
            assert_eq!(g.n(), 30);
        }
    }

    #[test]
    fn gnp_p_one_is_complete() {
        let g = gnp_connected(8, 1.0, 0);
        assert_eq!(g.m(), 8 * 7 / 2);
    }

    #[test]
    fn gnp_p_zero_becomes_a_tree_after_repair() {
        let g = gnp_connected(10, 0.0, 3);
        assert!(is_connected(&g));
        assert_eq!(g.m(), 9); // exactly the repair edges
    }

    #[test]
    fn gnm_edge_count_at_least_m() {
        let g = gnm_connected(20, 30, 11);
        assert!(g.m() >= 30);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "exceeds maximum")]
    fn gnm_rejects_impossible_m() {
        gnm_connected(4, 10, 0);
    }

    #[test]
    fn ba_is_connected_with_expected_edge_count() {
        let g = barabasi_albert(50, 2, 9);
        assert!(is_connected(&g));
        // core clique C(3,2)=3 edges + 2 per additional node (minus rare
        // collisions when the urn rejects duplicates).
        assert!(g.m() >= 3 + 2 * (50 - 3) - 5);
    }

    #[test]
    fn ba_has_heavy_hub() {
        let g = barabasi_albert(200, 2, 1);
        // Preferential attachment should produce a hub well above attach.
        assert!(g.max_degree() >= 8, "max degree {}", g.max_degree());
    }

    #[test]
    fn near_regular_meets_degree_floor() {
        let g = near_regular(40, 4, 5);
        assert!(is_connected(&g));
        assert!(g.min_degree() >= 2);
        let low = g.nodes().filter(|&v| g.degree(v) < 4).count();
        assert!(low <= 2, "{low} nodes below target degree");
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gnp_connected(25, 0.2, 7), gnp_connected(25, 0.2, 7));
        assert_eq!(gnm_connected(25, 40, 7), gnm_connected(25, 40, 7));
        assert_eq!(barabasi_albert(25, 2, 7), barabasi_albert(25, 2, 7));
        assert_eq!(near_regular(25, 3, 7), near_regular(25, 3, 7));
        assert_eq!(
            gnp_connected_sparse(500, 0.01, 7),
            gnp_connected_sparse(500, 0.01, 7)
        );
    }

    #[test]
    fn gnp_sparse_is_connected_with_plausible_density() {
        let n = 2000usize;
        let p = 8.0 / n as f64; // mean degree 8
        let g = gnp_connected_sparse(n, p, 3);
        assert!(is_connected(&g));
        let expect = p * (n * (n - 1) / 2) as f64;
        // Binomial concentration: ±30% of the mean is > 10 sigma out.
        assert!(
            (g.m() as f64) > 0.7 * expect && (g.m() as f64) < 1.3 * expect,
            "m = {} vs expected ≈ {expect:.0}",
            g.m()
        );
    }

    #[test]
    fn gnp_sparse_p_zero_becomes_a_tree_after_repair() {
        let g = gnp_connected_sparse(12, 0.0, 1);
        assert!(is_connected(&g));
        assert_eq!(g.m(), 11);
    }

    #[test]
    fn gnp_sparse_subnormal_p_stays_sparse() {
        // Regression: with 1/ln(1-p), p below ~5e-17 made every skip zero
        // and staged the complete graph; ln_1p keeps the skips geometric.
        let g = gnp_connected_sparse(300, 1e-17, 2);
        assert!(is_connected(&g));
        assert_eq!(g.m(), 299, "only the connectivity-repair tree edges");
    }

    /// Sequence-compatibility fence for the phase-1 budget cap: every
    /// instance with `n·d ≤ 40 000` keeps its exact pre-cap edge set (the
    /// cap only bites above 4M attempts), and the phase-2 endgame never
    /// runs when phase 1 saturates. Committed bench/test instances all sit
    /// under this line.
    #[test]
    fn small_instances_saturate_in_phase_one() {
        let g = near_regular(40, 4, 5);
        // Phase 1 budget for (40, 4) is 16 000 < 4M: unchanged behavior.
        let low = g.nodes().filter(|&v| g.degree(v) < 4).count();
        assert!(low <= 2, "{low} nodes below target degree");
        // Exactly reproducible run-to-run.
        assert_eq!(g, near_regular(40, 4, 5));
    }

    /// Large-n smoke: generation at n = 10⁶ must be O(m)-ish, not the
    /// quadratic endgame stall the two-phase sampler removes. The wall
    /// bound is deliberately loose (loaded CI); a quadratic regression
    /// would need ~10¹² attempts and miss it by hours.
    #[test]
    fn near_regular_million_nodes_is_bounded() {
        let start = std::time::Instant::now();
        let n = 1_000_000;
        let g = near_regular(n, 4, 9);
        assert_eq!(g.n(), n);
        assert!(g.min_degree() >= 2, "cycle guarantees degree ≥ 2");
        let low = g.nodes().filter(|&v| g.degree(v) < 4).count();
        assert!(
            low <= n / 100,
            "{low} nodes below target degree — endgame pool sampler regressed"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(60),
            "near_regular(1M) took {:?} — rejection loop no longer bounded",
            start.elapsed()
        );
    }

    /// Large-n smoke for the skip-sampling G(n, p) path: n = 10⁶ with mean
    /// degree 6 stays O(n + m), including the connectivity repair.
    #[test]
    fn gnp_sparse_million_nodes_is_bounded() {
        let start = std::time::Instant::now();
        let n = 1_000_000usize;
        let p = 6.0 / n as f64;
        let g = gnp_connected_sparse(n, p, 4);
        assert_eq!(g.n(), n);
        assert!(is_connected(&g));
        let expect = p * (n as f64) * ((n - 1) as f64) / 2.0;
        assert!(
            (g.m() as f64) > 0.7 * expect && (g.m() as f64) < 1.4 * expect,
            "m = {} vs expected ≈ {expect:.0}",
            g.m()
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(60),
            "gnp_connected_sparse(1M) took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn triangle_unrank_covers_the_upper_triangle() {
        let n = 7u64;
        let mut seen = Vec::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = triangle_unrank(idx, n);
            assert!(u < v && (v as u64) < n, "idx {idx} → ({u},{v})");
            seen.push((u, v));
        }
        seen.dedup();
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }
}
