//! The `exact-churn` workload: certified Δ* of one large sparse graph, from
//! scratch with `exact::Solver`, then incrementally with
//! `exact::IncrementalSolver` across remove/insert edge pairs.
//!
//! One pass is `2 + 2 × pairs` operations: the scratch solve, the
//! incremental engine's first (cold) judgment, then one re-judgment after
//! each edge removal and each re-insertion.

use crate::report::{Anchor, Report};
use crate::{
    closed_loop, cpu_timed, end_to_end, median, mix, percentile, timed_setup, Ctx, Layers, Metric,
};
use ssmdst_exact::{CompSolution, IncrementalSolver, Solution, Solver, Stats};
use ssmdst_graph::generators::random::gnp_connected_sparse;
use ssmdst_graph::graph::graph_from_edges;
use ssmdst_graph::Graph;
use ssmdst_sim::Digest;
use std::borrow::Cow;
use std::time::Instant;

/// The solver under test: the configuration the scenario judge uses.
fn solver() -> Solver {
    Solver::builder()
        .settle_budget(500_000)
        .settle_max_n(256)
        .build()
}

/// The generated inputs.
pub struct Inputs {
    /// The instance, `G(n, 8/n)` made connected.
    pub g: Graph,
    /// The churned edges, in chain order.
    pub pairs: Vec<(u32, u32)>,
    /// Digest of the instance and the chain.
    pub digest: u64,
    /// Host milliseconds spent generating `g`.
    pub graph_ms: f64,
}

/// Generate the instance and pick `pairs` distinct edges whose endpoints
/// both have degree at least 2.
pub fn inputs(seed: u64, n: usize, pairs: usize) -> Inputs {
    let t = Instant::now();
    let g = gnp_connected_sparse(n, 8.0 / n as f64, seed);
    let graph_ms = t.elapsed().as_secs_f64() * 1e3;
    let edges = g.edges();
    let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(pairs);
    let mut i = 0;
    while chosen.len() < pairs.min(edges.len()) {
        let e = edges[(mix(seed, i) % edges.len() as u64) as usize];
        i += 1;
        if g.degree(e.0) >= 2 && g.degree(e.1) >= 2 && !chosen.contains(&e) {
            chosen.push(e);
        }
    }
    let mut d = Digest::new();
    d.write_u64(g.n() as u64);
    for &(u, v) in edges.iter().chain(&chosen) {
        d.write_u32(u);
        d.write_u32(v);
    }
    Inputs {
        g,
        pairs: chosen,
        digest: d.value(),
        graph_ms,
    }
}

/// A certified interval must bracket Δ* with `lower ≤ upper ≤ lower + 1`.
pub fn check_interval(what: &str, lower: u32, upper: u32) -> Option<String> {
    (lower > upper || upper > lower + 1)
        .then(|| format!("{what}: interval [{lower}, {upper}] outside lower ≤ upper ≤ lower+1"))
}

/// The output of one operation.
pub enum Judged {
    /// The scratch solve.
    Scratch(Solution),
    /// One incremental judgment: a solution per live component, and the
    /// engine's counters after it.
    Incremental(Vec<CompSolution>, Stats),
}

/// Operation `idx` of a pass, against the engine `inc` carried between
/// operations. `sub` accumulates the nanoseconds of edge updates on the
/// engine's mirror and of `solve_all` calls.
fn op(inp: &Inputs, inc: &mut Option<IncrementalSolver>, idx: usize, sub: &mut [u64; 2]) -> Judged {
    if idx == 0 {
        return Judged::Scratch(solver().solve(&inp.g));
    }
    let t = Instant::now();
    if idx == 1 {
        *inc = Some(IncrementalSolver::from_graph(&inp.g, solver()));
    }
    let engine = inc.as_mut().expect("operation 1 built the engine");
    if idx >= 2 {
        let (u, v) = inp.pairs[(idx - 2) / 2];
        if idx % 2 == 0 {
            engine.remove_edge(u, v);
        } else {
            engine.insert_edge(u, v);
        }
        sub[0] += t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    let sols = engine.solve_all();
    sub[1] += t.elapsed().as_nanos() as u64;
    Judged::Incremental(sols, engine.stats())
}

/// Checks, digests and anchors the outputs of a pass.
struct Checker<'a> {
    inp: &'a Inputs,
    scratch: (u32, u32),
    first: Vec<u64>,
    chain: Digest,
    anchor: Anchor,
    judgments: u64,
    open: u64,
    verify_ns: u64,
}

impl<'a> Checker<'a> {
    fn new(inp: &'a Inputs) -> Self {
        Checker {
            inp,
            scratch: (0, 0),
            first: Vec::new(),
            chain: Digest::new(),
            anchor: Anchor {
                input: inp.digest,
                ..Anchor::default()
            },
            judgments: 0,
            open: 0,
            verify_ns: 0,
        }
    }

    /// The raw graph operation `idx` judges: `g`, or `g` without the edge
    /// that operation removed, built here so the chain's graphs are not all
    /// held at once.
    fn graph(&self, idx: usize) -> Cow<'a, Graph> {
        if idx >= 2 && idx % 2 == 0 {
            let cut = self.inp.pairs[(idx - 2) / 2];
            let rest: Vec<(u32, u32)> = self
                .inp
                .g
                .edges()
                .iter()
                .copied()
                .filter(|&e| e != cut)
                .collect();
            Cow::Owned(graph_from_edges(self.inp.g.n(), &rest))
        } else {
            Cow::Borrowed(&self.inp.g)
        }
    }

    fn check(&mut self, rep: &mut Report, idx: usize, out: &Judged) {
        let name = format!("exact-churn-{}-op{idx}", rep.seed);
        let g = &*self.graph(idx);
        let mut d = Digest::new();
        let mut intervals = Vec::new();
        let t = Instant::now();
        let mut bad_witness = false;
        match out {
            Judged::Scratch(sol) => {
                intervals.push((sol.lower, sol.upper, g.n()));
                bad_witness |= !sol.witness.verify(g);
                self.scratch = (sol.lower, sol.upper);
                d.write_u64(sol.pivots);
            }
            Judged::Incremental(sols, _) => {
                for s in sols {
                    intervals.push((s.lower, s.upper, s.members.len()));
                    bad_witness |= !s.witness_original().verify(g);
                }
            }
        }
        self.verify_ns += t.elapsed().as_nanos() as u64;
        rep.attempted += 1;
        if bad_witness {
            rep.fail(format!(
                "{name}: a witness does not verify on the raw graph"
            ));
        }
        for &(lower, upper, members) in &intervals {
            self.judgments += 1;
            self.open += u64::from(upper > lower);
            if let Some(f) = check_interval(&name, lower, upper) {
                rep.fail(f);
            }
            d.write_u32(lower);
            d.write_u32(upper);
            d.write_u64(members as u64);
        }
        let last = 1 + 2 * self.inp.pairs.len();
        if idx == last {
            let restored = match intervals.as_slice() {
                [(l, u, _)] => Some((*l, *u)),
                _ => None,
            };
            if restored != Some(self.scratch) {
                rep.fail(format!(
                    "{name}: restored graph judged {intervals:?}, scratch solve [{}, {}]",
                    self.scratch.0, self.scratch.1
                ));
            }
            if self.first.len() == idx {
                self.anchor.intervals = format!(
                    "scratch:{}-{},restored:{}",
                    self.scratch.0,
                    self.scratch.1,
                    restored.map_or("none".into(), |(l, u)| format!("{l}-{u}"))
                );
            }
        }
        let digest = d.value();
        if idx == self.first.len() {
            self.first.push(digest);
            self.chain.write_u64(digest);
            self.anchor.digest = self.chain.value();
        } else if self.first[idx] != digest {
            rep.fail(format!("{name}: output differs from the first pass"));
        }
    }
}

/// The `exact-churn` workload.
pub fn run(ctx: &Ctx) -> Report {
    let (seed, size) = (ctx.seed, ctx.size);
    let mut make = || inputs(seed, size.exact_n, size.exact_pairs);
    let mut rep = Report {
        workload: "exact-churn".into(),
        seed,
        trace: ctx.trace,
        ..Report::default()
    };
    let (inp, mut setup) = timed_setup(if ctx.trace { 1 } else { size.setup_reps }, &mut make);
    let ops = 2 + 2 * inp.pairs.len();
    let mut checker = Checker::new(&inp);
    let mut inc = None;
    let mut sub = [0u64; 2];
    let mut pivots = 0;
    // A traced run times exactly one untraced pass first, for the overhead
    // and the digest comparison.
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let timings = closed_loop(
        ops,
        seconds,
        |idx| op(&inp, &mut inc, idx, &mut sub),
        |i, idx, out| {
            match &out {
                Judged::Scratch(sol) if i < ops => pivots += sol.pivots,
                Judged::Incremental(_, stats) if i == ops - 1 => pivots += stats.pivots,
                _ => {}
            }
            checker.check(&mut rep, idx, &out);
        },
        || setup.push(cpu_timed(&mut make).1),
    );
    checker.anchor.pivots = pivots;
    let lat = &timings.lat;
    let best = crate::best_per_input(lat, ops);
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let rejudge_ms = &ms[2..];
    if !ctx.trace {
        rep.metrics = end_to_end(median(&setup), lat, ops);
        rep.notes = vec![
            Metric::new("solve_s", best[0], "s"),
            Metric::new("op_p90_ms", percentile(&ms, 0.9), "ms"),
            Metric::new("rejudge_p50_ms", percentile(rejudge_ms, 0.5), "ms"),
            Metric::new("rejudge_p90_ms", percentile(rejudge_ms, 0.9), "ms"),
            Metric::new("cpu_s", lat.iter().sum(), "s"),
            Metric::new("wall_s", timings.wall_s, "s"),
            Metric::new("ops", lat.len() as f64, "count"),
        ];
        rep.anchor = checker.anchor;
        return rep;
    }

    // The traced pass: the same operations, with every sub-step timed.
    let untraced_s = timings.wall_s;
    let untraced = (checker.anchor.clone(), checker.first.clone());
    let mut traced = Checker::new(&inp);
    let mut layers = Layers::default();
    let mut inc = None;
    let mut sub = [0u64; 2];
    let mut mirror_calls = 0u64;
    let mut traced_s = 0.0;
    let mut traced_rep = Report::default();
    for idx in 0..ops {
        let t = Instant::now();
        let out = op(&inp, &mut inc, idx, &mut sub);
        let el = t.elapsed().as_secs_f64();
        traced_s += el;
        match &out {
            Judged::Scratch(sol) => {
                layers.add("exact.solve_ms", el * 1e3);
                layers.add("exact.pivots", sol.pivots as f64);
            }
            Judged::Incremental(..) if idx >= 2 => mirror_calls += 1,
            Judged::Incremental(..) => {}
        }
        traced.check(&mut traced_rep, idx, &out);
    }
    rep.failures.extend(traced_rep.failures);
    let stats = inc
        .as_ref()
        .map(IncrementalSolver::stats)
        .unwrap_or_default();
    let equal = traced.first == untraced.1;
    if !equal {
        rep.fail("exact-churn: traced pass outputs differ from the untraced pass");
    }
    layers.set("graph.build_ms", inp.graph_ms);
    layers.set("graph.n", inp.g.n() as f64);
    layers.set("graph.m", inp.g.m() as f64);
    layers.add("exact.pivots", stats.pivots as f64);
    layers.set(
        "exact.mirror_us",
        sub[0] as f64 / 1e3 / mirror_calls.max(1) as f64,
    );
    layers.set("exact.solve_all_ms", sub[1] as f64 / 1e6);
    layers.set("exact.warm_starts", stats.warm_starts as f64);
    layers.set("exact.cold_starts", stats.cold_starts as f64);
    layers.set("exact.cache_hits", stats.cache_hits as f64);
    let total = (stats.warm_starts + stats.cold_starts + stats.cache_hits).max(1) as f64;
    layers.set("exact.cache_hit_ratio", stats.cache_hits as f64 / total);
    layers.set(
        "exact.open_interval_share",
        traced.open as f64 / traced.judgments.max(1) as f64,
    );
    layers.set("exact.witness_verify_ms", traced.verify_ns as f64 / 1e6);
    layers.set("trace.overhead_s", traced_s - untraced_s);
    layers.set("trace.untraced_s", untraced_s);
    layers.set("trace.digest_equal", f64::from(u8::from(equal)));
    rep.metrics = layers.metrics();
    rep.anchor = untraced.0;
    rep
}
