//! `ssmdst` — command-line driver for the self-stabilizing MDST protocol.
//!
//! ```text
//! ssmdst --family gnp-sparse --n 48 --seed 7 --scheduler async
//! ssmdst --family spider --n 16 --corrupt 0.5 --dot tree.dot
//! ssmdst replay failing.scn --trace run.trace
//! ssmdst replay corrupt-start-total --expect tests/golden/corrupt-start-total.trace
//! ssmdst shrink failing.scn --pred quality -o minimal.scn
//! ssmdst storm --seed 1 --execs 1000 --workers 8 --out storm-corpus/
//! ```
//!
//! The flag form generates a workload graph, runs the protocol to
//! quiescence, optionally injects a transient fault and measures recovery,
//! and prints a summary (degree vs. lower bound, rounds, message counts).
//! With `--dot PATH` the final tree is written as Graphviz DOT.
//!
//! The `replay` subcommand runs a scenario (`.scn` file or corpus name) and
//! prints its per-phase outcomes and chained run digest; `--expect FILE`
//! verifies the run reproduces a recorded trace bit-for-bit, `--trace FILE`
//! records one. The `shrink` subcommand delta-debugs a failing scenario
//! down to a minimal reproducer under a named failure predicate. The
//! `storm` subcommand runs the coverage-guided fuzzing loop: mutate corpus
//! scenarios, fan executions across workers, admit only novelty-bearing
//! mutants, report execs/sec and corpus growth, and auto-shrink any judge
//! failure into a committable `.scn` reproducer (exit 1).

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::prelude::*;
use ssmdst::scenario::{corpus, engine, scn, shrink, storm, Predicate, StormConfig};
use ssmdst::sim::faults::FaultPlan;
use ssmdst::sim::parallel::default_workers;
use ssmdst::sim::RunTrace;

#[derive(Debug)]
struct Args {
    family: String,
    n: usize,
    seed: u64,
    scheduler: String,
    corrupt: f64,
    dot: Option<String>,
    max_rounds: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            family: "gnp-sparse".into(),
            n: 32,
            seed: 1,
            scheduler: "sync".into(),
            corrupt: 0.0,
            dot: None,
            max_rounds: 500_000,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--family" => args.family = val()?,
            "--n" => args.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scheduler" => args.scheduler = val()?,
            "--corrupt" => args.corrupt = val()?.parse().map_err(|e| format!("--corrupt: {e}"))?,
            "--dot" => args.dot = Some(val()?),
            "--max-rounds" => {
                args.max_rounds = val()?.parse().map_err(|e| format!("--max-rounds: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: ssmdst [--family NAME] [--n N] [--seed S] \
                     [--scheduler sync|async|adversarial] [--corrupt FRAC] \
                     [--dot PATH] [--max-rounds R]\n\
                     \x20      ssmdst replay SCENARIO.scn|CORPUS-NAME [--trace OUT] [--expect GOLDEN]\n\
                     \x20      ssmdst shrink SCENARIO.scn|CORPUS-NAME --pred not-converged|degree-ge:K|quality [-o OUT.scn]\n\
                     \x20      ssmdst storm [SEED.scn|CORPUS-NAME ...] --seed S --execs N [--workers W] [--batch B]\n\
                     \x20                   [--max-corpus M] [--fail PRED] [--out DIR] [--expect-admissions K] [--distill]\n\
                     families: {}",
                    GraphFamily::all()
                        .iter()
                        .map(|f| f.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Load a scenario from a `.scn` file path or a corpus name.
fn load_scenario(handle: &str) -> Scenario {
    if let Some(s) = corpus::by_name(handle) {
        return s;
    }
    let text = std::fs::read_to_string(handle).unwrap_or_else(|e| {
        eprintln!("error: '{handle}' is neither a corpus scenario nor a readable file: {e}");
        eprintln!(
            "corpus scenarios: {}",
            corpus::corpus()
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });
    scn::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing {handle}: {e}");
        std::process::exit(2);
    })
}

/// Value of a flag; a flag with no following value is a hard error (never
/// silently skip the work the flag asked for).
fn flag_value(flag: &str, it: &mut std::slice::Iter<String>) -> String {
    match it.next() {
        Some(v) => v.clone(),
        None => {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// `ssmdst replay SCENARIO [--trace OUT] [--expect GOLDEN]`
fn cmd_replay(args: &[String]) -> ! {
    let mut handle = None;
    let mut trace_out = None;
    let mut expect = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_out = Some(flag_value("--trace", &mut it)),
            "--expect" => expect = Some(flag_value("--expect", &mut it)),
            other if !other.starts_with("--") && handle.is_none() => {
                handle = Some(other.to_string())
            }
            other => {
                eprintln!("error: unexpected replay argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(handle) = handle else {
        eprintln!("usage: ssmdst replay SCENARIO.scn|CORPUS-NAME [--trace OUT] [--expect GOLDEN]");
        std::process::exit(2);
    };
    let scenario = load_scenario(&handle);
    let (out, trace) = engine::run_traced_any(&scenario);
    println!(
        "scenario: {} (protocol={} n={} m={} fingerprint={:016x})",
        scenario.name,
        scenario.protocol.label(),
        out.n,
        out.m,
        scenario.fingerprint()
    );
    for ph in &out.phases {
        let verdict = if !ph.checked {
            "unjudged".to_string()
        } else if ph.ok {
            format!("ok (deg={} components={})", ph.degree, ph.components)
        } else {
            format!("FAILED (deg={} components={})", ph.degree, ph.components)
        };
        println!(
            "phase {:<24} rounds={:<8} {}{verdict}",
            ph.label,
            ph.rounds,
            if ph.converged { "" } else { "NOT CONVERGED " },
        );
    }
    println!("digest: {:016x}", out.digest);
    if let Some(path) = trace_out {
        std::fs::write(&path, trace.render()).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
    if let Some(path) = expect {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(2);
        });
        let golden = RunTrace::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing {path}: {e}");
            std::process::exit(2);
        });
        match golden.first_divergence(&trace) {
            None => println!("replay matches {path} bit-for-bit"),
            Some(d) => {
                eprintln!("replay DIVERGED from {path}: {d}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if out.all_ok() { 0 } else { 1 });
}

/// `ssmdst shrink SCENARIO --pred PRED [-o OUT.scn]`
fn cmd_shrink(args: &[String]) -> ! {
    let mut handle = None;
    let mut pred = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pred" => pred = Some(flag_value("--pred", &mut it)),
            "-o" | "--out" => out_path = Some(flag_value(a, &mut it)),
            other if !other.starts_with('-') && handle.is_none() => {
                handle = Some(other.to_string())
            }
            other => {
                eprintln!("error: unexpected shrink argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let (Some(handle), Some(pred)) = (handle, pred) else {
        eprintln!(
            "usage: ssmdst shrink SCENARIO.scn|CORPUS-NAME --pred not-converged|degree-ge:K|quality [-o OUT.scn]"
        );
        std::process::exit(2);
    };
    let predicate = Predicate::parse(&pred).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let scenario = load_scenario(&handle);
    eprintln!(
        "shrinking '{}' (size {}) under predicate {} …",
        scenario.name,
        scenario.size(),
        predicate.label()
    );
    match shrink::shrink(&scenario, |s| predicate.test(s)) {
        None => {
            eprintln!(
                "scenario does not fail predicate {} — nothing to shrink",
                predicate.label()
            );
            std::process::exit(1);
        }
        Some((minimal, stats)) => {
            eprintln!(
                "minimized: size {} -> {} ({} candidates tried, {} accepted)",
                scenario.size(),
                minimal.size(),
                stats.attempts,
                stats.accepted
            );
            let text = minimal.canonical();
            if let Some(path) = out_path {
                std::fs::write(&path, &text).unwrap_or_else(|e| {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(2);
                });
                eprintln!("wrote {path}");
            }
            print!("{text}");
            std::process::exit(0);
        }
    }
}

/// `ssmdst storm [SEEDS...] --seed S --execs N [--workers W] [--batch B]
///               [--fail PRED] [--out DIR] [--expect-admissions K] [--distill]`
///
/// Coverage-guided fuzzing over the scenario corpus: mutate, execute,
/// admit novelty, auto-shrink judge failures. With no seed operands the
/// committed curated corpus is the seed set. With `--distill` the final
/// corpus (seeds + admissions) is greedily reduced to a minimal subset
/// covering every observed coverage feature, and `--out` receives the
/// distilled subset instead of the raw admissions.
fn cmd_storm(args: &[String]) -> ! {
    let mut seeds_handles: Vec<String> = Vec::new();
    let mut cfg = StormConfig::new(1, 256);
    cfg.workers = default_workers();
    let mut out_dir = None;
    let mut expect_admissions = 0usize;
    let mut do_distill = false;
    let parse_or_die = |flag: &str, v: String| -> u64 {
        v.parse().unwrap_or_else(|e| {
            eprintln!("error: {flag}: {e}");
            std::process::exit(2);
        })
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => cfg.seed = parse_or_die(a, flag_value(a, &mut it)),
            "--execs" => cfg.execs = parse_or_die(a, flag_value(a, &mut it)),
            "--workers" => cfg.workers = parse_or_die(a, flag_value(a, &mut it)) as usize,
            "--batch" => cfg.batch = parse_or_die(a, flag_value(a, &mut it)) as usize,
            "--max-corpus" => cfg.max_corpus = parse_or_die(a, flag_value(a, &mut it)) as usize,
            "--expect-admissions" => {
                expect_admissions = parse_or_die(a, flag_value(a, &mut it)) as usize
            }
            "--fail" => {
                cfg.failure = Predicate::parse(&flag_value(a, &mut it)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            }
            "--out" => out_dir = Some(flag_value(a, &mut it)),
            "--distill" => do_distill = true,
            other if !other.starts_with("--") => seeds_handles.push(other.to_string()),
            other => {
                eprintln!("error: unexpected storm argument {other:?}");
                eprintln!(
                    "usage: ssmdst storm [SEED.scn|CORPUS-NAME ...] --seed S --execs N \
                     [--workers W] [--batch B] [--max-corpus M] [--fail PRED] [--out DIR] \
                     [--expect-admissions K] [--distill]"
                );
                std::process::exit(2);
            }
        }
    }
    let seeds: Vec<Scenario> = if seeds_handles.is_empty() {
        corpus::corpus()
    } else {
        seeds_handles.iter().map(|h| load_scenario(h)).collect()
    };
    println!(
        "storm: seeds={} seed={} execs={} workers={} batch={} failure={}",
        seeds.len(),
        cfg.seed,
        cfg.execs,
        cfg.workers,
        cfg.batch,
        cfg.failure.label()
    );
    let report = storm::storm_observed(&seeds, &cfg, |a| {
        println!(
            "  admit exec={:<6} op={:<15} parent={:<28} sig={:016x} features+{} -> {}",
            a.exec,
            a.kind.label(),
            a.parent,
            a.signature,
            a.new_features,
            a.scenario.name
        );
    });
    println!(
        "storm: {} execs in {:.2}s ({:.1} execs/sec)",
        report.execs,
        report.elapsed_secs,
        report.execs_per_sec()
    );
    println!(
        "corpus: {} -> {} (+{} admitted), {} coverage features",
        report.seeds,
        report.corpus_size,
        report.admitted.len(),
        report.features
    );
    // Distill after a clean storm: greedy minimal subset of the final
    // corpus (seeds + admissions) still covering every observed feature.
    let distilled = if do_distill && report.failure.is_none() {
        let mut candidates = seeds.clone();
        candidates.extend(report.admitted.iter().map(|a| a.scenario.clone()));
        let d = storm::distill(&candidates, cfg.workers);
        println!(
            "distilled: {} candidates, {} features -> {} scenarios",
            d.candidates,
            d.features,
            d.selected.len()
        );
        for p in &d.selected {
            println!("  keep {:<28} features+{}", p.scenario.name, p.gain);
        }
        Some(d)
    } else {
        None
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("error: creating {dir}: {e}");
            std::process::exit(2);
        });
        let write = |scenario: &Scenario| {
            let path = format!("{dir}/{}.scn", scenario.name);
            std::fs::write(&path, scenario.canonical()).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            });
        };
        if let Some(d) = &distilled {
            for p in &d.selected {
                write(&p.scenario);
            }
            println!("wrote {} distilled .scn files to {dir}", d.selected.len());
        } else {
            for a in &report.admitted {
                write(&a.scenario);
            }
            println!(
                "wrote {} admitted .scn files to {dir}",
                report.admitted.len()
            );
        }
    }
    if let Some(failure) = &report.failure {
        match failure.exec {
            Some(exec) => eprintln!(
                "JUDGE FAILURE at exec {exec} (scenario '{}', predicate {})",
                failure.scenario.name,
                cfg.failure.label()
            ),
            None => eprintln!(
                "JUDGE FAILURE in seed scenario '{}' (predicate {})",
                failure.scenario.name,
                cfg.failure.label()
            ),
        }
        eprintln!(
            "minimized: size {} -> {} ({} candidates tried, {} accepted)",
            failure.scenario.size(),
            failure.shrunk.size(),
            failure.stats.attempts,
            failure.stats.accepted
        );
        println!("--- minimal .scn reproducer (save and run `ssmdst replay`) ---");
        print!("{}", failure.shrunk.canonical());
        // Failure-mode fidelity: shrinking preserves the *predicate*, not
        // necessarily the mechanism, so keep the mutant as executed too.
        if let Some(dir) = &out_dir {
            for (suffix, scenario) in [("failed", &failure.scenario), ("shrunk", &failure.shrunk)] {
                let path = format!("{dir}/{}.{suffix}.scn", scenario.name);
                std::fs::write(&path, scenario.canonical()).unwrap_or_else(|e| {
                    eprintln!("error: writing {path}: {e}");
                });
                println!("wrote {path}");
            }
        }
        std::process::exit(1);
    }
    if report.admitted.len() < expect_admissions {
        eprintln!(
            "error: expected at least {expect_admissions} admissions, got {}",
            report.admitted.len()
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    // Subcommand dispatch; the flag form below is the legacy single-run CLI.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("replay") => cmd_replay(&raw[1..]),
        Some("shrink") => cmd_shrink(&raw[1..]),
        Some("storm") => cmd_storm(&raw[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let Some(family) = GraphFamily::all().iter().find(|f| f.label() == args.family) else {
        eprintln!(
            "unknown family '{}'; available: {}",
            args.family,
            GraphFamily::all()
                .iter()
                .map(|f| f.label())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    let sched = match args.scheduler.as_str() {
        "sync" => Scheduler::Synchronous,
        "async" => Scheduler::RandomAsync { seed: args.seed },
        "adversarial" => Scheduler::Adversarial { seed: args.seed },
        other => {
            eprintln!("unknown scheduler '{other}' (sync|async|adversarial)");
            std::process::exit(2);
        }
    };

    let g = family.generate(args.n, args.seed);
    let lb = ssmdst::graph::degree_lower_bound(&g);
    println!(
        "graph: {} n={} m={} Δ(G)={} (Δ* ≥ {lb})",
        family.label(),
        g.n(),
        g.m(),
        g.max_degree()
    );

    // The legacy flag form is a thin layer over the same Session surface
    // the scenario engine and the experiment harness use.
    let quiet = ssmdst::sim::quiet_window(g.n());
    let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
        .scheduler(sched)
        .horizon(args.max_rounds)
        .build();
    let out = session.run_to_quiescence(quiet, oracle::projection);
    if !out.converged() {
        eprintln!("did not stabilize within {} rounds", args.max_rounds);
        std::process::exit(1);
    }
    let t = oracle::try_extract_tree(&g, session.network()).expect("stabilized ⇒ tree");
    println!(
        "stabilized: deg(T)={} after ~{} rounds, {} messages (largest {} bits)",
        t.max_degree(),
        session.round() - quiet,
        session.network().metrics.total_sent,
        session.network().metrics.max_message_bits(),
    );

    if args.corrupt > 0.0 {
        let victims = session.inject(FaultPlan::partial(args.corrupt, args.seed + 1));
        println!("injected fault: corrupted {} nodes", victims.len());
        let before = session.round();
        let out = session.run_to_quiescence(quiet, oracle::projection);
        if !out.converged() {
            eprintln!("did not recover within {} rounds", args.max_rounds);
            std::process::exit(1);
        }
        let t = oracle::try_extract_tree(&g, session.network()).expect("recovered ⇒ tree");
        println!(
            "recovered: deg(T)={} after ~{} rounds",
            t.max_degree(),
            session.round() - before - quiet
        );
    }

    if let Some(path) = args.dot {
        let t = oracle::try_extract_tree(&g, session.network()).expect("tree");
        std::fs::write(&path, ssmdst::graph::dot::to_dot(&g, Some(&t)))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
