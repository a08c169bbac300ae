//! The two simulation workloads: `mdst-recover` (benchmarked) and
//! `storm-mutants` (runnable, outside `BENCHMARK.json`). Each operation runs
//! and judges one scenario through `scenario::engine::run_any`.

use crate::report::{Anchor, Report};
use crate::trace::{self, Timed, Traced};
use crate::{
    closed_loop, cpu_timed, end_to_end, median, mix, percentile, timed_setup, Ctx, Layers, Metric,
};
use ssmdst_core::MdstNode;
use ssmdst_graph::generators::GraphFamily;
use ssmdst_scenario::engine::{self, run_protocol};
use ssmdst_scenario::{
    corpus, mutate, CorruptSpec, CoverageMap, EngineOpts, EventAction, Flood, Mdst, ProtocolSpec,
    Scenario, ScenarioEvent, ScenarioOutcome, SchedSpec, Signature, TopologySpec,
};
use ssmdst_sim::protocols::FloodEcho;
use ssmdst_sim::{quiet_window, Backend, ChurnEvent, Digest, Network};
use std::time::Instant;

/// Per-phase round cap of the generated scenarios.
const MAX_ROUNDS: u64 = 60_000;

/// Per-phase round cap of a storm mutant. A mutant that does not converge
/// costs this many rounds per phase instead of the corpus's 60 000, so a
/// seed that draws one more such mutant moves the workload's time by a
/// small, bounded amount.
const STORM_MAX_ROUNDS: u64 = 2_000;

/// The generated inputs of one simulation workload.
pub struct Inputs {
    /// Scenarios, run in this order.
    pub scns: Vec<Scenario>,
    /// Digest of the scenario texts and their built graphs.
    pub digest: u64,
    /// Host milliseconds spent building the topologies.
    pub graph_ms: f64,
    /// Node and edge count of each built topology.
    pub sizes: Vec<(usize, usize)>,
    /// Host milliseconds spent in `mutate` (storm mutants only).
    pub mutate_ms: f64,
}

impl Inputs {
    /// Build every topology once: it checks the inputs build, fingerprints
    /// them, and measures the graph layer.
    fn validated(scns: Vec<Scenario>, mutate_ms: f64) -> Inputs {
        let mut d = Digest::new();
        let mut graph_ms = 0.0;
        let mut sizes = Vec::with_capacity(scns.len());
        for s in &scns {
            let t = Instant::now();
            let g = s.topology.build();
            graph_ms += t.elapsed().as_secs_f64() * 1e3;
            d.write_str(&s.canonical());
            d.write_u64(g.n() as u64);
            for &(u, v) in g.edges() {
                d.write_u32(u);
                d.write_u32(v);
            }
            sizes.push((g.n(), g.m()));
        }
        Inputs {
            scns,
            digest: d.value(),
            graph_ms,
            sizes,
            mutate_ms,
        }
    }
}

/// `mdst-recover`: `gnp-sparse` instances under the random asynchronous
/// daemon, from a fully corrupted start, then a fault burst and the removal
/// of a non-bridge edge, each once the network is quiet.
///
/// The quiet window is `20 n` rounds. The canonical `max(6n, 64)` is too
/// short at this size: a phase can look quiet while an improvement is
/// still coming, and is then judged at degree Δ*+2.
pub fn mdst_inputs(seed: u64, n: usize, count: usize) -> Inputs {
    let scns = (0..count as u64)
        .map(|i| {
            let s = mix(seed, i);
            let topology = TopologySpec::family(GraphFamily::GnpSparse, n, s);
            let g = topology.build();
            let bridges = ssmdst_graph::biconnectivity(&g).bridges;
            let is_bridge = |&(u, v): &(u32, u32)| {
                bridges
                    .iter()
                    .any(|&(a, b)| (a.min(b), a.max(b)) == (u.min(v), u.max(v)))
            };
            let cuttable: Vec<(u32, u32)> = g
                .edges()
                .iter()
                .copied()
                .filter(|e| !is_bridge(e))
                .collect();
            let (u, v) = cuttable[(mix(s, 1) % cuttable.len() as u64) as usize];
            let mut scn = Scenario::converge(
                format!("mdst-recover-{seed}-{i}"),
                topology,
                SchedSpec::RandomAsync { seed: mix(s, 2) },
                MAX_ROUNDS,
            );
            scn.init_corrupt = Some(CorruptSpec {
                fraction: 1.0,
                drop: 1.0,
                seed: mix(s, 3),
            });
            scn.stop.quiet = Some(20 * n as u64);
            scn.events = vec![
                ScenarioEvent::stable(EventAction::Fault(CorruptSpec {
                    fraction: 0.5,
                    drop: 1.0,
                    seed: mix(s, 4),
                })),
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RemoveEdge(u, v))),
            ];
            scn
        })
        .collect();
    Inputs::validated(scns, 0.0)
}

/// `storm-mutants`: chains of one to three `mutate` steps from a parent
/// in the curated corpus, all on the reference backend.
///
/// The parents and chain lengths are stratified, not drawn: mutant `i`
/// starts from parent `i mod P` with a chain of `1 + (i div P) mod 3`
/// steps, so every seed runs the same mix of parents and chain lengths and
/// only the mutations differ. Parents differ in cost by orders of magnitude,
/// so drawing them would move the workload's time with the seed.
pub fn storm_inputs(seed: u64, count: usize) -> Inputs {
    let parents = corpus::corpus();
    let p = parents.len() as u64;
    let mut mutate_ms = 0.0;
    let scns = (0..count as u64)
        .map(|i| {
            let h = mix(seed, i);
            let mut scn = parents[(i % p) as usize].clone();
            let t = Instant::now();
            for step in 0..1 + (i / p) % 3 {
                scn = mutate(&scn, mix(h, step)).1;
            }
            mutate_ms += t.elapsed().as_secs_f64() * 1e3;
            scn.name = format!("storm-{seed}-{i}");
            scn.backend = Backend::Reference;
            scn.stop.max_rounds = scn.stop.max_rounds.min(STORM_MAX_ROUNDS);
            scn
        })
        .collect();
    Inputs::validated(scns, mutate_ms)
}

/// The output check of one judged scenario: every phase converged and
/// every judged phase within the protocol's bound.
pub fn check_outcome(out: &ScenarioOutcome) -> Option<String> {
    out.phases.iter().find_map(|p| {
        if !p.converged {
            Some(format!(
                "{}: phase '{}' not converged after {} rounds",
                out.name, p.label, p.rounds
            ))
        } else if !p.ok {
            Some(format!(
                "{}: phase '{}' judged outside the bound (degree {}, Δ* {:?})",
                out.name, p.label, p.degree, p.delta_star
            ))
        } else {
            None
        }
    })
}

/// The check every judged scenario must pass, whatever its outcome: a
/// phase the judge accepted has a tree degree within one of its Δ*.
pub fn check_verdict(out: &ScenarioOutcome) -> Option<String> {
    out.phases.iter().find_map(|p| match p.delta_star {
        Some(d) if p.checked && p.ok && p.degree > d + 1 => Some(format!(
            "{}: phase '{}' accepted with degree {} over Δ* {d}",
            out.name, p.label, p.degree
        )),
        _ => None,
    })
}

/// Check one output. An unsound verdict always fails the operation. A
/// phase that did not converge or was judged outside the bound fails it
/// too, except in an exploring workload (storm mutants), where it is a
/// finding about the protocol, recorded once, on the first pass.
pub fn check(rep: &mut Report, out: &ScenarioOutcome, explore: bool, first_pass: bool) {
    rep.attempted += 1;
    if let Some(f) = check_verdict(out) {
        rep.fail(f);
    }
    match check_outcome(out) {
        Some(f) if !explore => rep.fail(f),
        Some(f) if first_pass => rep.findings.push(f),
        _ => {}
    }
}

/// Simulated rounds a run executed: each phase's rounds plus, for a phase
/// that reached quiescence, the confirmation window the engine excludes.
fn executed_rounds(scn: &Scenario, out: &ScenarioOutcome) -> u64 {
    let quiet = scn.stop.quiet.unwrap_or_else(|| quiet_window(out.n));
    out.phases
        .iter()
        .map(|p| p.rounds + if p.converged && p.checked { quiet } else { 0 })
        .sum()
}

/// First-pass anchor bookkeeping and the determinism check of later passes.
struct Anchored {
    chain: Digest,
    first: Vec<u64>,
    anchor: Anchor,
}

impl Anchored {
    fn new(input: u64) -> Self {
        Anchored {
            chain: Digest::new(),
            first: Vec::new(),
            anchor: Anchor {
                input,
                intervals: "-".into(),
                ..Anchor::default()
            },
        }
    }

    fn observe(&mut self, idx: usize, out: &ScenarioOutcome, rep: &mut Report) {
        if idx == self.first.len() {
            self.first.push(out.digest);
            self.chain.write_u64(out.digest);
            self.anchor.digest = self.chain.value();
            self.anchor.conv_rounds += out.phases.iter().map(|p| p.rounds).sum::<u64>();
            self.anchor.msgs += out.total_msgs;
        } else if self.first[idx] != out.digest {
            rep.fail(format!(
                "{}: digest {:016x} differs from the first pass's {:016x}",
                out.name, out.digest, self.first[idx]
            ));
        }
    }
}

fn run_sim(ctx: &Ctx, workload: &str, mut make: impl FnMut() -> Inputs) -> Report {
    let explore = workload == "storm-mutants";
    if ctx.trace {
        return run_traced(ctx, workload, explore, make);
    }
    let (inp, mut setup) = timed_setup(ctx.size.setup_reps, &mut make);
    let mut rep = Report {
        workload: workload.into(),
        seed: ctx.seed,
        ..Report::default()
    };
    let mut anchored = Anchored::new(inp.digest);
    let (mut msgs, mut rounds) = (0u64, 0u64);
    let timings = closed_loop(
        inp.scns.len(),
        ctx.seconds,
        |idx| engine::run_any(&inp.scns[idx]),
        |i, idx, out| {
            check(&mut rep, &out, explore, i == idx);
            msgs += out.total_msgs;
            rounds += executed_rounds(&inp.scns[idx], &out);
            anchored.observe(idx, &out, &mut rep);
        },
        || setup.push(cpu_timed(&mut make).1),
    );
    let lat = &timings.lat;
    let busy: f64 = lat.iter().sum();
    rep.metrics = end_to_end(median(&setup), lat, inp.scns.len());
    let best = crate::best_per_input(lat, inp.scns.len());
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    rep.notes = vec![
        Metric::new("msgs_per_s", msgs as f64 / busy, "1/s"),
        Metric::new("rounds_per_s", rounds as f64 / busy, "1/s"),
        Metric::new("cpu_s", busy, "s"),
        Metric::new("wall_s", timings.wall_s, "s"),
        Metric::new("op_p90_ms", percentile(&ms, 0.9), "ms"),
        Metric::new("op_p99_ms", percentile(&ms, 0.99), "ms"),
        Metric::new("conv_rounds", anchored.anchor.conv_rounds as f64, "rounds"),
        Metric::new("ops", lat.len() as f64, "count"),
    ];
    rep.anchor = anchored.anchor;
    rep.anchor.findings = rep.findings.len() as u64;
    rep
}

/// The traced run: one pass over the inputs. Each scenario runs three
/// times — untraced through the engine, through the engine with a
/// [`Traced`] protocol, and through `Session::step` over [`Timed`] nodes —
/// and all three digests must agree.
fn run_traced(
    ctx: &Ctx,
    workload: &str,
    explore: bool,
    mut make: impl FnMut() -> Inputs,
) -> Report {
    let inp = make();
    let mut rep = Report {
        workload: workload.into(),
        seed: ctx.seed,
        trace: true,
        ..Report::default()
    };
    let mut anchored = Anchored::new(inp.digest);
    let mut layers = Layers::default();
    let mut coverage = CoverageMap::new();
    let (mut untraced_s, mut traced_s, mut steps, mut coverage_ns) = (0.0, 0.0, Vec::new(), 0u64);
    let (mut mdst_phases, mut open_phases) = (0u64, 0u64);
    let mut handler = (0u64, 0u64); // (ns, calls) in MDST handlers
    let mut all_equal = true;
    let opts = EngineOpts::default();
    trace::take();
    for (idx, scn) in inp.scns.iter().enumerate() {
        let t = Instant::now();
        let plain = engine::run_any(scn);
        untraced_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let out = match scn.protocol {
            ProtocolSpec::Mdst => run_protocol(&Traced(Mdst), scn, opts, |_, _| {}).0,
            ProtocolSpec::FloodEcho => run_protocol(&Traced(Flood), scn, opts, |_, _| {}).0,
        };
        traced_s += t.elapsed().as_secs_f64();
        let engine_tally = trace::take();

        let g = scn.topology.build();
        let drive = match scn.protocol {
            ProtocolSpec::Mdst => {
                let cfg = scn.config.build(g.n());
                let net = Network::from_graph(&g, |v, nb| Timed(MdstNode::new(v, nb, cfg.clone())));
                trace::drive(scn, net, trace::mdst_projection())
            }
            ProtocolSpec::FloodEcho => {
                let bound = g.n() as u32;
                let net = Network::from_graph(&g, |v, nb| Timed(FloodEcho::new(v, nb, bound)));
                trace::drive(scn, net, trace::flood_projection())
            }
        };
        let session_tally = trace::take();

        let t = Instant::now();
        coverage.observe(&Signature::of(&out));
        coverage_ns += t.elapsed().as_nanos() as u64;

        check(&mut rep, &out, explore, true);
        if plain.digest != out.digest || plain.digest != drive.digest {
            all_equal = false;
            rep.fail(format!(
                "{}: traced digests {:016x} (engine) and {:016x} (session) differ from untraced {:016x}",
                scn.name, out.digest, drive.digest, plain.digest
            ));
        }
        anchored.observe(idx, &plain, &mut rep);

        layers.add("sim.network_build_ms", engine_tally.build_ns as f64 / 1e6);
        layers.add("scenario.project_ms", engine_tally.project_ns as f64 / 1e6);
        layers.add("scenario.fold_ms", engine_tally.fold_ns as f64 / 1e6);
        layers.add(
            "scenario.new_judge_ms",
            engine_tally.new_judge_ns as f64 / 1e6,
        );
        layers.add("sim.events", drive.events as f64);
        let peak = layers
            .get("sim.peak_in_flight")
            .max(drive.metrics.peak_in_flight as f64);
        layers.set("sim.peak_in_flight", peak);
        steps.extend(drive.step_self_ns.iter().map(|&ns| ns as f64));
        if scn.protocol == ProtocolSpec::Mdst {
            let ex = engine_tally.exact;
            layers.add("core.judge_ms", engine_tally.judge_ns as f64 / 1e6);
            layers.add("exact.pivots", ex.pivots as f64);
            layers.add("exact.warm_starts", ex.warm_starts as f64);
            layers.add("exact.cold_starts", ex.cold_starts as f64);
            layers.add("exact.cache_hits", ex.cache_hits as f64);
            for p in out.phases.iter().filter(|p| p.checked) {
                mdst_phases += 1;
                open_phases += u64::from(p.delta_star.is_none());
            }
            handler.0 += session_tally.handler_ns;
            handler.1 += session_tally.ticks + session_tally.receives;
            layers.add("core.ticks", session_tally.ticks as f64);
            layers.add("core.receives", session_tally.receives as f64);
            for (kind, stats) in drive.metrics.kinds() {
                let name = format!("core.sent.{kind}");
                if crate::PER_LAYER.iter().any(|&(n, _)| n == name) {
                    layers.add(&name, stats.sent as f64);
                }
            }
            let bits = layers
                .get("core.max_msg_bits")
                .max(drive.metrics.max_message_bits() as f64);
            layers.set("core.max_msg_bits", bits);
        }
    }
    let self_ns: f64 = steps.iter().sum();
    layers.set("graph.build_ms", inp.graph_ms);
    layers.set(
        "graph.n",
        median(&inp.sizes.iter().map(|s| s.0 as f64).collect::<Vec<_>>()),
    );
    layers.set(
        "graph.m",
        median(&inp.sizes.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
    );
    layers.set("sim.step_p50_us", percentile(&steps, 0.5) / 1e3);
    layers.set("sim.step_p99_us", percentile(&steps, 0.99) / 1e3);
    layers.set(
        "sim.ns_per_event",
        self_ns / layers.get("sim.events").max(1.0),
    );
    layers.set(
        "core.handler_ns",
        handler.0 as f64 / handler.1.max(1) as f64,
    );
    layers.set(
        "scenario.coverage_us",
        coverage_ns as f64 / 1e3 / inp.scns.len().max(1) as f64,
    );
    layers.set("scenario.mutate_ms", inp.mutate_ms);
    let (warm, cold, hits) = (
        layers.get("exact.warm_starts"),
        layers.get("exact.cold_starts"),
        layers.get("exact.cache_hits"),
    );
    layers.set(
        "exact.cache_hit_ratio",
        hits / (warm + cold + hits).max(1.0),
    );
    layers.set(
        "exact.open_interval_share",
        open_phases as f64 / mdst_phases.max(1) as f64,
    );
    layers.set("trace.overhead_s", traced_s - untraced_s);
    layers.set("trace.untraced_s", untraced_s);
    layers.set("trace.digest_equal", f64::from(u8::from(all_equal)));
    rep.metrics = layers.metrics();
    rep.anchor = anchored.anchor;
    rep.anchor.findings = rep.findings.len() as u64;
    rep
}

/// The `mdst-recover` workload.
pub fn mdst_recover(ctx: &Ctx) -> Report {
    let (seed, size) = (ctx.seed, ctx.size);
    run_sim(ctx, "mdst-recover", || {
        mdst_inputs(seed, size.mdst_n, size.mdst_inputs)
    })
}

/// The `storm-mutants` workload.
pub fn storm_mutants(ctx: &Ctx) -> Report {
    let (seed, size) = (ctx.seed, ctx.size);
    run_sim(ctx, "storm-mutants", || storm_inputs(seed, size.mutants))
}
