//! X experiment family: the exact-Δ* engine at judging scale.
//!
//! ```text
//! cargo run --release -p ssmdst-bench --bin exact -- --json BENCH_exact.json
//! cargo run --release -p ssmdst-bench --bin exact -- --n 1000 --churns 16   # X-mini (CI smoke)
//! ```
//!
//! Measures the exact engine at scale: per-judgment cost of a
//! from-scratch certified solve ([`ssmdst_exact::Solver`]) versus the
//! incremental re-solve ([`ssmdst_exact::IncrementalSolver`]) across an
//! edge-churn chain, on sparse G(n, 8/n) at n = 10³ … 10⁵. One row pair
//! per size: the two per-judgment costs of re-judging after one churn
//! event, without and with the incremental engine. (The scenario judge
//! solves each component from the protocol's own tree instead.) Each
//! incremental judgment's certified interval is asserted consistent with
//! the from-scratch interval in-bench (both bracket Δ*), so a timing for
//! an unsound run is never reported.
//!
//! The JSON document has one record per row (`id`, `wall_ms`,
//! `ms_per_judgment`, and the certified interval and pivot count of each
//! `-solve` row).

use ssmdst_bench::{json_string, Table};
use ssmdst_exact::{IncrementalSolver, Solver};
use ssmdst_graph::generators::random::gnp_connected_sparse;
use ssmdst_graph::Graph;
use std::time::Instant;

/// The solver configuration under test: settling (branch-and-bound
/// closing of `lower+1` intervals) capped at the same component size the
/// scenario judge uses.
fn solver() -> Solver {
    Solver::builder()
        .settle_budget(500_000)
        .settle_max_n(256)
        .build()
}

struct ScratchRow {
    wall_ms: u128,
    per_judgment_ms: f64,
    lower: u32,
    upper: u32,
    pivots: u64,
}

/// Time `reps` from-scratch solves of `g` — the judge cost without the
/// incremental engine (what every stable phase used to pay).
fn measure_scratch(g: &Graph, reps: u64) -> ScratchRow {
    let s = solver();
    let warm = s.solve(g);
    #[expect(
        clippy::disallowed_methods,
        reason = "observation-side wall-clock for the timing column; never feeds simulation state"
    )]
    let t = Instant::now();
    let mut last = warm;
    for _ in 0..reps {
        last = s.solve(g);
    }
    let wall_ms = t.elapsed().as_millis();
    ScratchRow {
        wall_ms,
        per_judgment_ms: wall_ms as f64 / reps as f64,
        lower: last.lower,
        upper: last.upper,
        pivots: last.pivots,
    }
}

struct IncRow {
    wall_ms: u128,
    per_judgment_ms: f64,
    judgments: u64,
    warm_starts: u64,
    cache_hits: u64,
}

/// Time an edge-churn chain through the incremental engine: remove one
/// edge, re-judge, re-insert it, re-judge — `churns` pairs, every
/// judgment's interval checked against the from-scratch interval (both
/// must bracket the same Δ*, so they may not be disjoint).
fn measure_incremental(g: &Graph, churns: u64, scratch: &ScratchRow) -> IncRow {
    let mut inc = IncrementalSolver::from_graph(g, solver());
    inc.solve_all(); // prime the basis outside the timed window
    let edges = g.edges();
    let stride = (edges.len() / churns.max(1) as usize).max(1);
    let mut judgments = 0u64;
    #[expect(
        clippy::disallowed_methods,
        reason = "observation-side wall-clock for the timing column; never feeds simulation state"
    )]
    let t = Instant::now();
    for i in 0..churns {
        let (u, v) = edges[(i as usize * stride) % edges.len()];
        inc.remove_edge(u, v);
        for sol in inc.solve_all() {
            judgments += 1;
            assert!(
                sol.lower <= scratch.upper.max(sol.upper),
                "incremental lower {} contradicts from-scratch upper {}",
                sol.lower,
                scratch.upper
            );
        }
        inc.insert_edge(u, v);
        let sols = inc.solve_all();
        judgments += 1;
        // Back on the original graph: one component again, and its
        // interval must be consistent with the from-scratch one.
        assert_eq!(sols.len(), 1, "churn pair must restore the graph");
        assert!(
            sols[0].lower <= scratch.upper && scratch.lower <= sols[0].upper,
            "intervals [{}, {}] and [{}, {}] cannot both bracket Δ*",
            sols[0].lower,
            sols[0].upper,
            scratch.lower,
            scratch.upper
        );
    }
    let wall_ms = t.elapsed().as_millis();
    let stats = inc.stats();
    IncRow {
        wall_ms,
        per_judgment_ms: wall_ms as f64 / judgments.max(1) as f64,
        judgments,
        warm_starts: stats.warm_starts,
        cache_hits: stats.cache_hits,
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => p.clone(),
            _ => {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            }
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = arg_value(&args, "--json");
    let sizes: Vec<usize> = arg_value(&args, "--n")
        .unwrap_or_else(|| "1000,10000,100000".to_string())
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: --n takes comma-separated node counts, got {s:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let churns: u64 = arg_value(&args, "--churns")
        .map(|r| {
            r.parse().unwrap_or_else(|_| {
                eprintln!("error: --churns takes an integer, got {r:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(64);

    println!("# ssmdst X: exact-Δ* engine, from-scratch solve vs incremental re-judge");
    let mut json_entries: Vec<String> = Vec::new();
    let mut table = Table::new(vec![
        "n",
        "m",
        "interval",
        "solve ms/judgment",
        "incremental ms/judgment",
        "warm/cached",
    ]);

    for &n in &sizes {
        let id = format!("x-n{n}");
        println!("\n## {id} — sparse G(n, 8/n), {churns} churn pairs, n = {n}");
        let g = gnp_connected_sparse(n, 8.0 / n as f64, 42);
        println!("#   instance: n = {} m = {}", g.n(), g.m());

        // Few from-scratch reps at large n — each one is the expensive
        // path whose cost is exactly the point.
        let reps = if n >= 50_000 { 2 } else { 8 };
        let scratch = measure_scratch(&g, reps);
        let inc = measure_incremental(&g, churns, &scratch);

        println!(
            "  scratch      wall={:>6}ms  {:>9.3} ms/judgment  interval=[{}, {}]  {} pivots",
            scratch.wall_ms, scratch.per_judgment_ms, scratch.lower, scratch.upper, scratch.pivots
        );
        println!(
            "  incremental  wall={:>6}ms  {:>9.3} ms/judgment  {} judgments, {} warm, {} cached",
            inc.wall_ms, inc.per_judgment_ms, inc.judgments, inc.warm_starts, inc.cache_hits
        );
        table.row(vec![
            n.to_string(),
            g.m().to_string(),
            format!("[{}, {}]", scratch.lower, scratch.upper),
            format!("{:.3}", scratch.per_judgment_ms),
            format!("{:.3}", inc.per_judgment_ms),
            format!("{}/{}", inc.warm_starts, inc.cache_hits),
        ]);
        json_entries.push(format!(
            "{{\"id\":{},\"title\":{},\"n\":{n},\"m\":{},\"wall_ms\":{},\
             \"judgments\":{reps},\"ms_per_judgment\":{:.3},\"lower\":{},\"upper\":{},\
             \"pivots\":{}}}",
            json_string(&format!("{id}-solve")),
            json_string(&format!("X — from-scratch certified solve, G({n}, 8/n)")),
            g.m(),
            scratch.wall_ms,
            scratch.per_judgment_ms,
            scratch.lower,
            scratch.upper,
            scratch.pivots,
        ));
        json_entries.push(format!(
            "{{\"id\":{},\"title\":{},\"n\":{n},\"m\":{},\"wall_ms\":{},\
             \"judgments\":{},\"ms_per_judgment\":{:.3},\"warm_starts\":{},\
             \"cache_hits\":{}}}",
            json_string(&format!("{id}-incremental")),
            json_string(&format!(
                "X — incremental re-judge across {churns} churn pairs, G({n}, 8/n)"
            )),
            g.m(),
            inc.wall_ms,
            inc.judgments,
            inc.per_judgment_ms,
            inc.warm_starts,
            inc.cache_hits,
        ));
    }

    println!("\n## summary\n");
    print!("{}", table.render());

    if let Some(path) = json_path {
        let doc = format!(
            "{{\"suite\":\"ssmdst-exact\",\"profile\":{},\"experiments\":[\n{}\n]}}\n",
            json_string("default"),
            json_entries.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
