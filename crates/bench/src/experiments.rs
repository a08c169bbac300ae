//! The experiment suite — one function per table/figure of the crate doc
//! (the paper's claims as measurements; ARCHITECTURE.md, "Modelling
//! deviations").
//!
//! Each function returns the rendered [`Table`] (tests assert on shapes and
//! invariants; the `experiments` binary prints them). The paper has no
//! empirical section, so each experiment validates one of its *claims*;
//! EXPERIMENTS.md records claim vs. measurement.
//!
//! Since the scenario engine landed, the T/F/A/D families are
//! **scenario-driven**: every table row is produced by running a named,
//! serializable [`Scenario`] through `ssmdst_scenario::engine`, so any row
//! is a replayable artifact — rebuild the same scenario (family, n, seed,
//! daemon, config, events) and the run reproduces bit-for-bit. The S
//! family measures the message *fabric* with a purpose-built gossip
//! automaton (not the MDST protocol), so it stays on its own driver.

use crate::instance::Instrument;
use crate::table::Table;
use ssmdst_exact::Solver;
use ssmdst_graph::generators::GraphFamily;
use ssmdst_graph::{Graph, SolveBudget, SpanningTree};
use ssmdst_scenario::engine::{self, EngineOpts};
use ssmdst_scenario::{
    ConfigSpec, CorruptSpec, EventAction, Mdst, Scenario, ScenarioEvent, ScenarioOutcome,
    SchedSpec, TopologySpec,
};
use ssmdst_sim::parallel::{default_workers, run_many};
use ssmdst_sim::TopologyPlan;

/// Sweep sizing. `quick` keeps the full suite under ~a minute in release;
/// `full` is the EXPERIMENTS.md configuration.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Sizes for exact-ground-truth experiments (Δ* computed).
    pub small_sizes: Vec<usize>,
    /// Sizes for scaling experiments (lower bounds only).
    pub large_sizes: Vec<usize>,
    /// Sizes for the S1–S3 message-fabric scale experiments. These run the
    /// fabric (not protocol convergence), so tens of thousands of nodes
    /// stay affordable even in the quick profile.
    pub scale_sizes: Vec<usize>,
    /// Random seeds per configuration.
    pub seeds: Vec<u64>,
    /// Round cap per run.
    pub max_rounds: u64,
}

impl Profile {
    /// Small, fast sweep.
    pub fn quick() -> Self {
        Profile {
            small_sizes: vec![12],
            large_sizes: vec![16, 24],
            scale_sizes: vec![256, 4096, 65536],
            seeds: vec![1],
            max_rounds: 60_000,
        }
    }

    /// The configuration used to produce EXPERIMENTS.md.
    pub fn full() -> Self {
        Profile {
            small_sizes: vec![12, 16],
            large_sizes: vec![16, 24, 32, 48, 64],
            scale_sizes: vec![256, 4096, 16384, 65536],
            seeds: vec![1, 2, 3],
            max_rounds: 400_000,
        }
    }
}

/// One experiment of the suite: the id that names it on the command line
/// and in the committed JSON, the title its table is printed under, and
/// the function that measures it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line and JSON id (`t1`, `f4`, `c1`, …).
    pub id: &'static str,
    /// Title the table is printed and committed under.
    pub title: &'static str,
    /// Runs the experiment under a profile.
    pub run: fn(&Profile) -> Table,
}

impl Experiment {
    const fn new(id: &'static str, title: &'static str, run: fn(&Profile) -> Table) -> Self {
        Experiment { id, title, run }
    }
}

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new(
        "t1",
        "T1 — degree quality (Thm 2: deg ≤ Δ*+1)",
        t1_degree_quality,
    ),
    Experiment::new(
        "t2",
        "T2 — convergence rounds vs O(m·n²·lg n) (Lemma 5)",
        t2_convergence,
    ),
    Experiment::new("t3", "T3 — message complexity by kind", t3_messages),
    Experiment::new(
        "t4",
        "T4 — memory per node vs O(δ·lg n) (Lemma 5)",
        t4_memory,
    ),
    Experiment::new("t5", "T5 — baseline comparison", t5_baselines),
    Experiment::new("f1", "F1 — convergence trajectory", f1_trajectory),
    Experiment::new(
        "f2",
        "F2 — transient-fault recovery (Def. 1)",
        f2_fault_recovery,
    ),
    Experiment::new(
        "f3",
        "F3 — concurrent improvements vs serialized [3]",
        f3_concurrency,
    ),
    Experiment::new("f4", "F4 — scheduler sensitivity", f4_schedulers),
    Experiment::new(
        "f5",
        "F5 — max message length vs O(n·lg n)",
        f5_message_length,
    ),
    Experiment::new(
        "a1",
        "A1 — ablation: strict vs gentle distance repair",
        a1_strict_vs_gentle,
    ),
    Experiment::new("a2", "A2 — ablation: Deblock disabled", a2_deblock),
    Experiment::new("a3", "A3 — ablation: busy latch disabled", a3_busy_latch),
    Experiment::new(
        "d1",
        "D1 — dynamic topology: edge churn re-convergence",
        d1_edge_churn,
    ),
    Experiment::new(
        "d2",
        "D2 — dynamic topology: node crash/rejoin re-convergence",
        d2_node_churn,
    ),
    Experiment::new(
        "d3",
        "D3 — dynamic topology: partition/heal re-convergence",
        d3_partition_heal,
    ),
    Experiment::new(
        "s1",
        "S1 — fabric scale: sparse G(n,p), mean degree 8",
        s1_scale_gnp,
    ),
    Experiment::new(
        "s2",
        "S2 — fabric scale: near-regular, degree 8",
        s2_scale_regular,
    ),
    Experiment::new(
        "s3",
        "S3 — fabric scale: Barabási–Albert, attachment 2",
        s3_scale_ba,
    ),
    Experiment::new(
        "c1",
        "C1 — scenario campaign: corpus grid, replayable rows",
        c1_campaign,
    ),
];

/// The experiment named `id`, if there is one.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The three daemons, in the order the F4 and D tables list them.
const DAEMONS: [SchedSpec; 3] = [
    SchedSpec::Synchronous,
    SchedSpec::RandomAsync { seed: 11 },
    SchedSpec::Adversarial { seed: 11 },
];

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The scenario behind one plain-convergence table row: family instance,
/// daemon, full round budget, no faults. The name makes the row a
/// replayable artifact.
fn row_scenario(
    id: &str,
    fam: GraphFamily,
    n: usize,
    seed: u64,
    sched: SchedSpec,
    p: &Profile,
) -> Scenario {
    Scenario::converge(
        format!("{id}-{}-n{n}-s{seed}", fam.label()),
        TopologySpec::family(fam, n, seed),
        sched,
        p.max_rounds,
    )
}

/// Engine options for experiments that do not report Δ*: a settling
/// budget of 0 turns off the branch-and-bound oracle, so each phase
/// judgment stops at the Fürer–Raghavachari solve and its witness bound
/// (still run on every component churn touched). The run itself is
/// identical.
fn no_exact() -> EngineOpts {
    EngineOpts {
        delta_budget: SolveBudget { max_nodes: 0 },
    }
}

/// Run an MDST scenario on the engine's typed core, keeping only the
/// outcome.
fn run_mdst(scn: &Scenario, opts: EngineOpts) -> ScenarioOutcome {
    engine::run_protocol(&Mdst, scn, opts, |_, _| {}).0
}

/// Ground truth for Δ*: the exact engine's certified interval — exact when
/// the interval settles, else the witness-certified floor as `≥ lb`.
fn delta_star_str(g: &Graph) -> (String, Option<u32>) {
    let sol = ssmdst_exact::Solver::builder()
        .settle_budget(2_000_000)
        .settle_max_n(256)
        .build()
        .solve(g);
    match sol.delta_star() {
        Some(d) => (d.to_string(), Some(d)),
        None => (format!("≥{}", sol.lower), None),
    }
}

/// **T1 — Degree quality** (Theorem 2: `deg(T) ≤ Δ* + 1`).
pub fn t1_degree_quality(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "family",
        "n",
        "m",
        "Δ(G)",
        "deg(ssmdst)",
        "Δ*",
        "≤Δ*+1",
    ]);
    for &fam in GraphFamily::all() {
        for &n in &p.small_sizes {
            for &seed in &p.seeds {
                let scn = row_scenario("t1", fam, n, seed, SchedSpec::Synchronous, p);
                let g = scn.topology.build();
                let res = run_mdst(&scn, no_exact());
                let (ds_str, ds) = match fam.known_delta_star(&g) {
                    Some(d) => (d.to_string(), Some(d)),
                    None => delta_star_str(&g),
                };
                let deg = res.final_degree;
                let ok = match (deg, ds) {
                    (Some(d), Some(s)) => {
                        if d <= s + 1 {
                            "yes"
                        } else {
                            "NO"
                        }
                    }
                    _ => "?",
                };
                t.row(vec![
                    fam.label().to_string(),
                    g.n().to_string(),
                    g.m().to_string(),
                    g.max_degree().to_string(),
                    deg.map(|d| d.to_string()).unwrap_or("-".into()),
                    ds_str,
                    ok.to_string(),
                ]);
            }
        }
    }
    t
}

/// **T2 — Convergence rounds** vs the `O(m n² log n)` bound (Lemma 5).
pub fn t2_convergence(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "family",
        "n",
        "m",
        "rounds",
        "m·n²·lg n",
        "rounds/bound",
    ]);
    for fam in [
        GraphFamily::GnpSparse,
        GraphFamily::Geometric,
        GraphFamily::ScaleFree,
    ] {
        for &n in &p.large_sizes {
            let mut rounds = Vec::new();
            let mut ms = Vec::new();
            let mut real_n = 0;
            for &seed in &p.seeds {
                let scn = row_scenario("t2", fam, n, seed, SchedSpec::Synchronous, p);
                let res = run_mdst(&scn, no_exact());
                real_n = res.n;
                ms.push(res.m as f64);
                rounds.push(if res.converged {
                    res.conv_round as f64
                } else {
                    f64::NAN
                });
            }
            let r = mean(&rounds);
            let m = mean(&ms);
            let bound = m * (real_n as f64).powi(2) * (real_n as f64).log2();
            t.row(vec![
                fam.label().to_string(),
                real_n.to_string(),
                format!("{m:.0}"),
                format!("{r:.0}"),
                format!("{bound:.1e}"),
                format!("{:.2e}", r / bound),
            ]);
        }
    }
    t
}

/// **T3 — Message complexity by kind** at convergence.
pub fn t3_messages(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "family", "n", "total", "InfoMsg", "Search", "Remove", "Flip", "Deblock", "Dist*",
    ]);
    for fam in [GraphFamily::GnpSparse, GraphFamily::ScaleFree] {
        for &n in &p.large_sizes {
            let seed = p.seeds[0];
            let scn = row_scenario("t3", fam, n, seed, SchedSpec::Synchronous, p);
            let res = run_mdst(&scn, no_exact());
            let get = |k: &str| {
                res.msgs_by_kind
                    .iter()
                    .find(|&&(kind, _, _)| kind == k)
                    .map(|&(_, s, _)| s)
                    .unwrap_or(0)
            };
            let dist = get("DistChain") + get("DistFlood");
            t.row(vec![
                fam.label().to_string(),
                res.n.to_string(),
                res.total_msgs.to_string(),
                get("InfoMsg").to_string(),
                get("Search").to_string(),
                get("Remove").to_string(),
                get("Flip").to_string(),
                get("Deblock").to_string(),
                dist.to_string(),
            ]);
        }
    }
    t
}

/// **T4 — Memory per node** vs the `O(δ log n)` claim. The measured value
/// is the live state of the *converged* network (the paper's variables,
/// the δ neighbor mirrors of the send/receive model, and the throttle
/// counters), so the ratio column is the empirical constant in front of
/// `δ·log₂ n` — the claim holds iff it stays bounded as n grows.
pub fn t4_memory(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "family",
        "n",
        "δ",
        "bits/node (max, measured)",
        "δ·lg n",
        "constant",
    ]);
    for fam in [GraphFamily::GnpSparse, GraphFamily::GnpDense] {
        for &n in &p.large_sizes {
            let scn = row_scenario("t4", fam, n, p.seeds[0], SchedSpec::Synchronous, p);
            let g = scn.topology.build();
            let (_, _, runner) = engine::run_protocol(&Mdst, &scn, no_exact(), |_, _| {});
            let max_bits = ssmdst_core::oracle::max_state_bits(runner.network());
            let delta = g.max_degree();
            let b = (usize::BITS - (g.n().max(2) - 1).leading_zeros()) as usize;
            let bound = delta * b;
            t.row(vec![
                fam.label().to_string(),
                g.n().to_string(),
                delta.to_string(),
                max_bits.to_string(),
                bound.to_string(),
                format!("{:.2}", max_bits as f64 / bound as f64),
            ]);
        }
    }
    t
}

/// **T5 — Baseline comparison**: final degree of every method.
pub fn t5_baselines(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "family", "n", "BFS", "DFS", "random", "greedy", "FR", "ssmdst", "Δ*",
    ]);
    // Sequential Fürer–Raghavachari: the exact engine with settling off.
    let fr = Solver::builder().settle_budget(0).build();
    for &fam in GraphFamily::all() {
        let n = *p.large_sizes.first().unwrap_or(&16);
        let seed = p.seeds[0];
        let scn = row_scenario("t5", fam, n, seed, SchedSpec::Synchronous, p);
        let g = scn.topology.build();
        #[expect(
            clippy::expect_used,
            reason = "every GraphFamily generates a connected instance"
        )]
        let bfs = SpanningTree::from_bfs(&g, 0).expect("family graphs are connected");
        #[expect(
            clippy::expect_used,
            reason = "every GraphFamily generates a connected instance"
        )]
        let dfs = SpanningTree::from_dfs(&g, 0).expect("family graphs are connected");
        #[expect(
            clippy::expect_used,
            reason = "every GraphFamily generates a connected instance"
        )]
        let rnd = SpanningTree::random(&g, seed).expect("family graphs are connected");
        #[expect(
            clippy::expect_used,
            reason = "every GraphFamily generates a connected instance"
        )]
        let greedy =
            SpanningTree::greedy_min_degree(&g, seed).expect("family graphs are connected");
        let fr = fr.solve_from(&g, bfs.clone()).tree;
        let res = run_mdst(&scn, no_exact());
        let (ds_str, _) = match fam.known_delta_star(&g) {
            Some(d) => (d.to_string(), Some(d)),
            None => delta_star_str(&g),
        };
        t.row(vec![
            fam.label().to_string(),
            g.n().to_string(),
            bfs.max_degree().to_string(),
            dfs.max_degree().to_string(),
            rnd.max_degree().to_string(),
            greedy.max_degree().to_string(),
            fr.max_degree().to_string(),
            res.final_degree
                .map(|d| d.to_string())
                .unwrap_or("-".into()),
            ds_str,
        ]);
    }
    t
}

/// **F1 — Convergence trajectory**: `deg(T)` at every change, one instance.
pub fn f1_trajectory(p: &Profile) -> Table {
    let mut t = Table::new(vec!["instance", "round", "deg(T)"]);
    for (label, topo) in [
        ("star-ring n=16", TopologySpec::StarRing { n: 16 }),
        (
            "gnp-dense n=24",
            TopologySpec::family(GraphFamily::GnpDense, 24, p.seeds[0]),
        ),
    ] {
        let scn = Scenario::converge(
            format!("f1-{}", label.replace([' ', '='], "-")),
            topo,
            SchedSpec::Synchronous,
            p.max_rounds,
        );
        let g = scn.topology.build();
        let mut ins = Instrument::new(&g);
        let _ = engine::run_protocol(&Mdst, &scn, no_exact(), |net, round| {
            ins.observe(net, round)
        });
        for (round, deg) in ins.trajectory() {
            t.row(vec![label.to_string(), round.to_string(), deg.to_string()]);
        }
    }
    t
}

/// **F2 — Fault recovery** (Definition 1 convergence): corrupt a fraction
/// of nodes after stabilization, measure re-convergence.
pub fn f2_fault_recovery(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "fraction",
        "recovery rounds",
        "deg before",
        "deg after",
        "tree ok",
    ]);
    let n = *p.large_sizes.first().unwrap_or(&16);
    for &frac in &[0.1f64, 0.25, 0.5, 1.0] {
        let mut rounds = Vec::new();
        let mut before = 0u32;
        let mut after = 0u32;
        let mut all_ok = true;
        for &seed in &p.seeds {
            let mut scn = row_scenario(
                &format!("f2-frac{}", (frac * 100.0) as u32),
                GraphFamily::GnpSparse,
                n,
                seed,
                SchedSpec::Synchronous,
                p,
            );
            scn.events = vec![ScenarioEvent::stable(EventAction::Fault(CorruptSpec {
                fraction: frac,
                drop: 0.0,
                seed: seed + 100,
            }))];
            let res = run_mdst(&scn, no_exact());
            before = before.max(res.phases[0].degree);
            rounds.push(res.phases[1].rounds as f64);
            after = after.max(res.final_degree.unwrap_or(u32::MAX));
            all_ok &= res.phases[1].converged && res.final_degree.is_some();
        }
        t.row(vec![
            format!("{frac:.2}"),
            format!("{:.0}", mean(&rounds)),
            before.to_string(),
            after.to_string(),
            if all_ok {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t
}

/// **F3 — Concurrent improvements** (intro claim vs the serialized \[3\]):
/// max simultaneous max-degree drops, and round cost vs the serialized
/// baseline charged `diameter + search` per improvement.
///
/// The workload is the purpose-built `multi_hub` gadget: every hub starts
/// at maximum degree simultaneously, so a protocol that can only improve
/// one node at a time (the fragment-based \[3\]) pays per hub, while the
/// fundamental-cycle protocol drops several hubs in the same wave.
pub fn f3_concurrency(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "instance",
        "n",
        "#hubs",
        "max simultaneous drops",
        "ssmdst rounds",
        "serialized rounds",
        "speedup",
    ]);
    let spokes = 5usize;
    let fr = Solver::builder().settle_budget(0).build();
    for hubs in [2usize, 4, 6] {
        let scn = Scenario::converge(
            format!("f3-multi-hub-{hubs}x{spokes}"),
            TopologySpec::MultiHub { hubs, spokes },
            SchedSpec::Synchronous,
            p.max_rounds,
        );
        let g = scn.topology.build();
        let mut ins = Instrument::new(&g);
        let (res, _, _) = engine::run_protocol(&Mdst, &scn, no_exact(), |net, round| {
            ins.observe(net, round)
        });
        #[expect(clippy::expect_used, reason = "multi_hub builds a connected gadget")]
        let t0 = SpanningTree::from_bfs(&g, 0).expect("multi-hub graphs are connected");
        let diam = ssmdst_graph::traversal::diameter(&g).unwrap_or(1) as u64;
        // The serialized model of \[3\] makes FR's swaps one per phase and
        // pays a full refresh per phase (≥ diameter rounds, as \[3\]
        // re-propagates fragment info) plus one search.
        let per_phase = diam + 2 * g.n() as u64;
        let charged_rounds = fr.solve_from(&g, t0).pivots * per_phase;
        t.row(vec![
            format!("multi-hub({hubs}x{spokes})"),
            g.n().to_string(),
            hubs.to_string(),
            ins.max_simultaneous_drops().to_string(),
            res.conv_round.to_string(),
            charged_rounds.to_string(),
            format!(
                "{:.2}x",
                charged_rounds as f64 / res.conv_round.max(1) as f64
            ),
        ]);
    }
    t
}

/// **F4 — Scheduler sensitivity**: the protocol converges under any fair
/// daemon; rounds differ by a constant factor.
pub fn f4_schedulers(p: &Profile) -> Table {
    let mut t = Table::new(vec!["scheduler", "family", "n", "rounds", "deg"]);
    let n = *p.large_sizes.first().unwrap_or(&16);
    for sched in DAEMONS {
        let label = sched.label();
        for fam in [GraphFamily::GnpSparse, GraphFamily::ScaleFree] {
            let scn = row_scenario(&format!("f4-{label}"), fam, n, p.seeds[0], sched, p);
            let res = run_mdst(&scn, no_exact());
            t.row(vec![
                label.to_string(),
                fam.label().to_string(),
                res.n.to_string(),
                res.conv_round.to_string(),
                res.final_degree
                    .map(|d| d.to_string())
                    .unwrap_or("-".into()),
            ]);
        }
    }
    t
}

/// **F5 — Maximum message length** vs the `O(n log n)` buffer claim.
pub fn f5_message_length(p: &Profile) -> Table {
    let mut t = Table::new(vec!["n", "max msg bits", "n·lg n", "ratio"]);
    for &n in &p.large_sizes {
        let scn = row_scenario(
            "f5",
            GraphFamily::GnpSparse,
            n,
            p.seeds[0],
            SchedSpec::Synchronous,
            p,
        );
        let res = run_mdst(&scn, no_exact());
        let bound = res.n as f64 * (res.n as f64).log2();
        t.row(vec![
            res.n.to_string(),
            res.max_msg_bits.to_string(),
            format!("{bound:.0}"),
            format!("{:.2}", res.max_msg_bits as f64 / bound),
        ]);
    }
    t
}

/// **A1 — Ablation: strict vs gentle distance repair** on fault recovery.
pub fn a1_strict_vs_gentle(p: &Profile) -> Table {
    let mut t = Table::new(vec!["mode", "n", "convergence", "recovery (50% fault)"]);
    let n = *p.large_sizes.first().unwrap_or(&16);
    for (label, cfg) in [
        ("gentle (default)", ConfigSpec::Default),
        ("strict (paper R2)", ConfigSpec::Strict),
    ] {
        let mut conv = Vec::new();
        let mut rec = Vec::new();
        for &seed in &p.seeds {
            let mut scn = row_scenario(
                &format!(
                    "a1-{}",
                    if cfg == ConfigSpec::Strict {
                        "strict"
                    } else {
                        "gentle"
                    }
                ),
                GraphFamily::GnpSparse,
                n,
                seed,
                SchedSpec::Synchronous,
                p,
            );
            scn.config = cfg;
            scn.events = vec![ScenarioEvent::stable(EventAction::Fault(CorruptSpec {
                fraction: 0.5,
                drop: 0.0,
                seed: seed + 7,
            }))];
            let res = run_mdst(&scn, no_exact());
            conv.push(if res.phases[0].converged {
                res.phases[0].rounds as f64
            } else {
                f64::NAN
            });
            rec.push(if res.phases[1].converged {
                res.phases[1].rounds as f64
            } else {
                f64::NAN
            });
        }
        t.row(vec![
            label.to_string(),
            n.to_string(),
            format!("{:.0}", mean(&conv)),
            format!("{:.0}", mean(&rec)),
        ]);
    }
    t
}

/// **A2 — Ablation: Deblock disabled**: final degree degrades on instances
/// whose improvements are endpoint-blocked. Besides random families, the
/// table includes complete-bipartite instances where every improving swap
/// for the left side necessarily routes through near-maximum nodes —
/// blocking by construction.
pub fn a2_deblock(p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "instance",
        "n",
        "deg with Deblock",
        "deg without",
        "Δ*",
    ]);
    let mut cases: Vec<(String, TopologySpec)> = Vec::new();
    for fam in [GraphFamily::GnpDense, GraphFamily::ScaleFree] {
        let n = *p.small_sizes.first().unwrap_or(&12);
        for &seed in &p.seeds {
            cases.push((
                format!("{} s{}", fam.label(), seed),
                TopologySpec::family(fam, n, seed),
            ));
        }
    }
    for (a, b) in [(2usize, 6usize), (3, 9)] {
        cases.push((
            format!("K_{{{a},{b}}}"),
            TopologySpec::CompleteBipartite { a, b },
        ));
    }
    for (i, (label, topo)) in cases.into_iter().enumerate() {
        let g = topo.build();
        let run_cfg = |cfg: ConfigSpec, tag: &str| {
            let mut scn = Scenario::converge(
                format!("a2-case{i}-{tag}"),
                topo.clone(),
                SchedSpec::Synchronous,
                p.max_rounds,
            );
            scn.config = cfg;
            run_mdst(&scn, no_exact())
        };
        let with = run_cfg(ConfigSpec::Default, "deblock");
        let without = run_cfg(ConfigSpec::NoDeblock, "no-deblock");
        let (ds_str, _) = delta_star_str(&g);
        t.row(vec![
            label,
            g.n().to_string(),
            with.final_degree
                .map(|d| d.to_string())
                .unwrap_or("-".into()),
            without
                .final_degree
                .map(|d| d.to_string())
                .unwrap_or("-".into()),
            ds_str,
        ]);
    }
    t
}

/// **A3 — Ablation: busy latch disabled**: without serialization of
/// overlapping improvements, crossing reversal arcs corrupt the tree and
/// trigger re-election storms; convergence slows or stalls (the round cap
/// is reported when it does).
pub fn a3_busy_latch(p: &Profile) -> Table {
    let mut t = Table::new(vec!["mode", "family", "n", "rounds", "converged", "deg"]);
    let n = *p.large_sizes.last().unwrap_or(&24);
    for (label, cfg) in [
        ("latched (default)", ConfigSpec::Default),
        ("unlatched", ConfigSpec::NoBusyLatch),
    ] {
        for fam in [GraphFamily::GnpSparse, GraphFamily::GnpDense] {
            // Cap tighter than the global budget: an unlatched livelock
            // otherwise dominates the suite's runtime.
            let cap = p.max_rounds.min(60_000);
            let mut scn = Scenario::converge(
                format!(
                    "a3-{}-{}",
                    fam.label(),
                    label.split(' ').next().unwrap_or(label)
                ),
                TopologySpec::family(fam, n, p.seeds[0]),
                SchedSpec::Synchronous,
                cap,
            );
            scn.config = cfg;
            let res = run_mdst(&scn, no_exact());
            t.row(vec![
                label.to_string(),
                fam.label().to_string(),
                res.n.to_string(),
                res.conv_round.to_string(),
                if res.converged {
                    "yes".into()
                } else {
                    format!("NO (cap {cap})")
                },
                res.final_degree
                    .map(|d| d.to_string())
                    .unwrap_or("-".into()),
            ]);
        }
    }
    t
}

/// Shared body of the D experiments: run `plan` on every daemon, one table
/// row per (daemon, event), judged component-wise by `ssmdst_core::churn`.
/// Each (daemon, plan) pair is one named scenario — the whole row group is
/// replayable as an artifact.
fn churn_table(topo: &TopologySpec, plan: &TopologyPlan, p: &Profile, label: &str) -> Table {
    let mut t = Table::new(vec![
        "scheduler",
        "event",
        "recovery rounds",
        "components",
        "deg",
        "Δ*",
        "≤Δ*+1",
    ]);
    for sched in DAEMONS {
        let name = sched.label();
        let mut scn = Scenario::converge(
            format!("d-{label}-{name}"),
            topo.clone(),
            sched,
            p.max_rounds,
        );
        scn.events = plan
            .events
            .iter()
            .cloned()
            .map(|e| ScenarioEvent::stable(EventAction::Churn(e)))
            .collect();
        let res = run_mdst(&scn, EngineOpts::default());
        for ph in &res.phases {
            t.row(vec![
                name.to_string(),
                format!("{label}:{}", ph.label),
                ph.rounds.to_string(),
                ph.components.to_string(),
                ph.degree.to_string(),
                ph.delta_star
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "?".into()),
                if ph.ok {
                    "yes".into()
                } else {
                    "NO".to_string()
                },
            ]);
        }
    }
    t
}

/// **D1 — Edge churn** (dynamic topology): remove and re-insert non-bridge
/// edges; after each event the tree must re-fit the changed cycle space.
pub fn d1_edge_churn(p: &Profile) -> Table {
    let n = *p.small_sizes.first().unwrap_or(&12);
    let topo = TopologySpec::family(GraphFamily::GnpSparse, n, p.seeds[0]);
    let plan = TopologyPlan::edge_churn(&topo.build(), 2, p.seeds[0]);
    churn_table(&topo, &plan, p, "edge")
}

/// **D2 — Node crash/rejoin**: non-articulation nodes crash (their edges
/// and in-flight traffic vanish) and later rejoin with stale state.
pub fn d2_node_churn(p: &Profile) -> Table {
    let n = *p.small_sizes.first().unwrap_or(&12);
    let topo = TopologySpec::family(GraphFamily::GnpSparse, n, p.seeds[0]);
    let plan = TopologyPlan::node_churn(&topo.build(), 2, p.seeds[0]);
    churn_table(&topo, &plan, p, "node")
}

/// **D3 — Partition/heal**: the network splits into halves that must each
/// re-stabilize to their own tree, then merge back under a single root.
pub fn d3_partition_heal(p: &Profile) -> Table {
    let n = *p.small_sizes.first().unwrap_or(&12);
    let topo = TopologySpec::family(GraphFamily::GnpSparse, n, p.seeds[0]);
    let plan = TopologyPlan::partition_heal(&topo.build(), p.seeds[0]);
    churn_table(&topo, &plan, p, "split")
}

/// **C1 — Scenario campaign**: the conformance corpus fanned out over
/// worker threads ([`run_many`] over [`engine::run_any`]). One row per
/// scenario; the digest column is the replay identity — re-running the
/// named scenario must reproduce it bit-for-bit (`ssmdst replay NAME`).
pub fn c1_campaign(_p: &Profile) -> Table {
    let mut t = Table::new(vec![
        "scenario",
        "scheduler",
        "n",
        "m",
        "converged",
        "rounds",
        "deg",
        "msgs",
        "ok",
        "digest",
    ]);
    let corpus = ssmdst_scenario::corpus::corpus();
    let outs = run_many(corpus.clone(), default_workers(), engine::run_any);
    for (scn, out) in corpus.iter().zip(outs) {
        let ok = out.all_ok();
        t.row(vec![
            out.name,
            scn.scheduler.label().to_string(),
            out.n.to_string(),
            out.m.to_string(),
            if out.converged {
                "yes".into()
            } else {
                "NO".to_string()
            },
            out.conv_round.to_string(),
            out.final_degree
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            out.total_msgs.to_string(),
            if ok { "yes".into() } else { "NO".to_string() },
            format!("{:016x}", out.digest),
        ]);
    }
    t
}

// ----------------------------------------------------------------------
// S family — message-fabric scale (n = 256 … 65 536)
// ----------------------------------------------------------------------

/// The workload for the fabric scale sweep. It drives the *fabric*, not
/// protocol convergence: the quantity under test is what one obligation
/// costs at n = 65 536 when every node ticks and every channel carries a
/// message, the regime every protocol here runs in. That is a property of
/// slot addressing and the round loop, independent of the MDST rules.
mod fabric {
    use ssmdst_sim::{Automaton, Message, Network, Outbox, Runner, Scheduler};
    use std::time::Instant;

    #[derive(Debug, Clone, Copy)]
    pub struct Token;
    impl Message for Token {
        fn kind(&self) -> &'static str {
            "Token"
        }
        fn size_bits(&self, _n: usize) -> usize {
            1
        }
    }

    /// Every node gossips to all neighbors every round — the
    /// obligation-dense regime, measuring per-obligation execution cost.
    pub struct Gossip {
        neighbors: Vec<u32>,
        heard: u64,
    }
    impl Automaton for Gossip {
        type Msg = Token;
        fn tick(&mut self, out: &mut Outbox<Token>) {
            for &w in &self.neighbors {
                out.send(w, Token);
            }
        }
        fn receive(&mut self, _: u32, _: Token, _: &mut Outbox<Token>) {
            self.heard += 1;
        }
    }

    /// The obligation-dense workload over `g`: everyone gossips to every
    /// neighbor every round.
    pub fn gossip_network(g: &ssmdst_graph::Graph) -> Network<Gossip> {
        Network::from_graph(g, |_, nbrs| Gossip {
            neighbors: nbrs.to_vec(),
            heard: 0,
        })
    }

    pub struct FabricRow {
        pub n: usize,
        pub m: usize,
        pub slots: usize,
        pub build_us: u128,
        pub gossip_ns_per_obligation: f64,
    }

    /// Measure one instance: fabric build time and dense-gossip
    /// per-obligation cost.
    pub fn measure(g: &ssmdst_graph::Graph) -> FabricRow {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is the payload of this microbenchmark; never feeds simulation state"
        )]
        let build_start = Instant::now();
        let net = gossip_network(g);
        let build_us = build_start.elapsed().as_micros();
        let slots = net.slot_count();

        // A handful of rounds is plenty — each already executes ~n + 2m
        // obligations.
        let mut r = Runner::new(net, Scheduler::Synchronous);
        for _ in 0..2 {
            r.step_round(); // warm channel capacities
        }
        let gossip_rounds = 6u64;
        let delivered_before = r.network().metrics.total_delivered;
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is the payload of this microbenchmark; never feeds simulation state"
        )]
        let t = Instant::now();
        for _ in 0..gossip_rounds {
            r.step_round();
        }
        let elapsed = t.elapsed().as_nanos() as f64;
        let obligations =
            (r.network().metrics.total_delivered - delivered_before) + gossip_rounds * g.n() as u64;
        let gossip_ns_per_obligation = elapsed / obligations as f64;

        FabricRow {
            n: g.n(),
            m: g.m(),
            slots,
            build_us,
            gossip_ns_per_obligation,
        }
    }
}

/// Repetitions of every S-family measurement; each cell is their median.
const SCALE_REPS: usize = 5;

/// Shared body of the S experiments: sweep `p.scale_sizes`, one row per
/// size. Each size's graph is built once and measured [`SCALE_REPS`]
/// times, repetition-major (every size once, then every size again), so a
/// slow stretch of the host hits all sizes of a repetition alike. Each
/// cell is the median over the repetitions.
fn scale_table(p: &Profile, gen: impl Fn(usize, u64) -> Graph) -> Table {
    let mut t = Table::new(vec!["n", "m", "slots", "build µs", "gossip ns/oblig"]);
    let graphs: Vec<Graph> = p.scale_sizes.iter().map(|&n| gen(n, p.seeds[0])).collect();
    let mut reps: Vec<Vec<fabric::FabricRow>> = graphs.iter().map(|_| Vec::new()).collect();
    for _ in 0..SCALE_REPS {
        for (g, rows) in graphs.iter().zip(&mut reps) {
            rows.push(fabric::measure(g));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    for rows in &reps {
        let cell = |f: fn(&fabric::FabricRow) -> f64| median(rows.iter().map(f).collect());
        t.row(vec![
            rows[0].n.to_string(),
            rows[0].m.to_string(),
            rows[0].slots.to_string(),
            format!("{:.0}", cell(|r| r.build_us as f64)),
            format!("{:.1}", cell(|r| r.gossip_ns_per_obligation)),
        ]);
    }
    t
}

/// **S1 — Fabric scale on sparse G(n,p)** (mean degree 8, skip-sampled
/// generation, connectivity-repaired).
pub fn s1_scale_gnp(p: &Profile) -> Table {
    scale_table(p, |n, seed| {
        ssmdst_graph::generators::random::gnp_connected_sparse(n, 8.0 / n as f64, seed)
    })
}

/// **S2 — Fabric scale on near-regular graphs** (target degree 8).
pub fn s2_scale_regular(p: &Profile) -> Table {
    scale_table(p, |n, seed| {
        ssmdst_graph::generators::random::near_regular(n, 8, seed)
    })
}

/// **S3 — Fabric scale on Barabási–Albert graphs** (attachment 2 —
/// heavy-tailed degrees stress the per-row binary search with hub rows).
pub fn s3_scale_ba(p: &Profile) -> Table {
    scale_table(p, |n, seed| {
        ssmdst_graph::generators::random::barabasi_albert(n, 2, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Profile {
        Profile {
            small_sizes: vec![10],
            large_sizes: vec![12],
            scale_sizes: vec![64, 128],
            seeds: vec![1],
            max_rounds: 40_000,
        }
    }

    #[test]
    fn t1_reports_all_families_within_one() {
        let t = t1_degree_quality(&tiny());
        assert_eq!(t.len(), GraphFamily::all().len());
        let s = t.render();
        assert!(!s.contains("NO"), "quality violation:\n{s}");
    }

    #[test]
    fn t2_has_rows_and_finite_ratios() {
        let t = t2_convergence(&tiny());
        assert_eq!(t.len(), 3);
        assert!(!t.render().contains("NaN"));
    }

    #[test]
    fn t4_memory_is_within_constant_of_bound() {
        let t = t4_memory(&tiny());
        let s = t.render();
        // The measured constant in front of δ·lg n must stay small: the
        // encoding stores 6 fields per mirror plus throttles, so ~7–12 is
        // expected and anything past 20 would mean super-linear state.
        for line in s.lines().skip(2) {
            let c: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
            assert!(c <= 20.0, "constant {c} too large:\n{s}");
        }
    }

    #[test]
    fn f3_concurrency_beats_serialized_at_scale() {
        let t = f3_concurrency(&tiny());
        assert_eq!(t.len(), 3);
        // The largest multi-hub instance must show a strict speedup.
        let s = t.render();
        let last = s.lines().last().unwrap();
        let speedup: f64 = last
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(speedup > 1.0, "no concurrency advantage:\n{s}");
    }

    #[test]
    fn a3_latched_mode_converges() {
        let t = a3_busy_latch(&tiny());
        let s = t.render();
        for line in s.lines().filter(|l| l.starts_with("latched")) {
            assert!(line.contains("yes"), "latched run failed:\n{s}");
        }
    }

    #[test]
    fn f1_trajectory_descends_on_star_ring() {
        let t = f1_trajectory(&tiny());
        let s = t.render();
        // Rows are `star-ring n=16 <round> <deg>`; the hub degree descends.
        let degs: Vec<u32> = s
            .lines()
            .filter(|l| l.starts_with("star-ring"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(degs.len() >= 3, "trajectory too short:\n{s}");
        assert!(degs[0] > degs[degs.len() - 1], "no descent:\n{s}");
        assert!(degs[degs.len() - 1] <= 3, "final degree too high:\n{s}");
    }

    #[test]
    fn f2_recovers_from_all_fractions() {
        let t = f2_fault_recovery(&tiny());
        assert_eq!(t.len(), 4);
        assert!(!t.render().contains("NO"));
    }

    #[test]
    fn f5_messages_within_nlogn_constant() {
        let t = f5_message_length(&tiny());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn d1_edge_churn_recovers_on_every_daemon() {
        let t = d1_edge_churn(&tiny());
        // 3 daemons × (initial + 2 events per churned edge × 2 edges).
        assert_eq!(t.len(), 3 * 5, "rows:\n{}", t.render());
        assert!(!t.render().contains("NO"), "failure:\n{}", t.render());
    }

    #[test]
    fn d2_node_churn_recovers_on_every_daemon() {
        let t = d2_node_churn(&tiny());
        assert!(t.len() >= 3 * 3, "rows:\n{}", t.render());
        assert!(!t.render().contains("NO"), "failure:\n{}", t.render());
    }

    #[test]
    fn s_family_sweeps_every_scale_size() {
        // Debug-build timings are meaningless; the test pins shape and
        // sanity (positive costs, slots == 2m) on tiny sizes.
        let p = tiny();
        for t in [s1_scale_gnp(&p), s2_scale_regular(&p), s3_scale_ba(&p)] {
            assert_eq!(t.len(), p.scale_sizes.len(), "table:\n{}", t.render());
            let s = t.render();
            assert!(!s.contains("NaN") && !s.contains("inf"), "bad row:\n{s}");
            for (line, &n) in s.lines().skip(2).zip(&p.scale_sizes) {
                let cells: Vec<&str> = line.split_whitespace().collect();
                assert_eq!(cells[0], n.to_string());
                let m: usize = cells[1].parse().unwrap();
                let slots: usize = cells[2].parse().unwrap();
                assert_eq!(slots, 2 * m, "slots must be 2m:\n{s}");
            }
        }
    }

    #[test]
    fn c1_campaign_rows_are_replayable() {
        let t = c1_campaign(&tiny());
        let corpus = ssmdst_scenario::corpus::corpus();
        assert_eq!(t.len(), corpus.len(), "one row per corpus scenario");
        let s = t.render();
        assert!(!s.contains("NO"), "corpus failure:\n{s}");
        // Spot-check replayability: the first row's digest must match a
        // fresh run of the named scenario.
        let first = s.lines().nth(2).unwrap();
        let cells: Vec<&str> = first.split_whitespace().collect();
        let name = cells[0];
        let digest = cells.last().unwrap();
        let scn = ssmdst_scenario::corpus::by_name(name).expect("row names a corpus entry");
        let out = run_mdst(&scn, EngineOpts::default());
        assert_eq!(
            format!("{:016x}", out.digest),
            *digest,
            "row not replayable"
        );
    }

    #[test]
    fn d3_partition_heal_recovers_and_splits() {
        let t = d3_partition_heal(&tiny());
        assert_eq!(t.len(), 3 * 3, "rows:\n{}", t.render());
        let s = t.render();
        assert!(!s.contains("NO"), "failure:\n{s}");
        // While partitioned there must be ≥ 2 components on some row.
        assert!(
            s.lines().any(|l| l.contains("split:partition")),
            "missing partition rows:\n{s}"
        );
    }
}
