//! `ssmdst` — command-line driver for the self-stabilizing MDST protocol.
//!
//! ```text
//! ssmdst run --family gnp-sparse --n 48 --seed 7 --scheduler async
//! ssmdst run --family spider --n 16 --corrupt 0.5 --dot tree.dot
//! ssmdst replay failing.scn --trace run.trace
//! ssmdst replay corrupt-start-total --expect tests/golden/corrupt-start-total.trace
//! ssmdst shrink failing.scn --pred quality -o minimal.scn
//! ssmdst storm --seed 1 --execs 1000 --workers 8 --out storm-corpus/
//! ```
//!
//! Every subcommand runs scenarios through the scenario engine. `run`
//! builds one from its flags: a family graph, a daemon, a per-phase round
//! budget and, with `--corrupt F`, a fault on a fraction `F` of the nodes
//! once the protocol is quiet. It prints the scenario's `.scn` text, so the
//! run can be replayed, then the same report as `replay`. With
//! `--dot PATH` the final tree is written as Graphviz DOT.
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
//!
//! Exit status: 0 when every judged phase passed, 1 on a judged failure
//! (or a replay divergence, or a storm failure), 2 on a usage or I/O error.

use std::fmt::Display;
use std::str::FromStr;

use ssmdst::core::oracle;
use ssmdst::graph::generators::GraphFamily;
use ssmdst::prelude::*;
use ssmdst::scenario::engine::{self, EngineOpts};
use ssmdst::scenario::{
    corpus, scn, shrink, storm, CorruptSpec, EventAction, Mdst, Predicate, ScenarioEvent,
    StormConfig,
};
use ssmdst::sim::parallel::default_workers;
use ssmdst::sim::RunTrace;

const USAGE: &str = "\
usage: ssmdst run [--family NAME] [--n N] [--seed S] [--scheduler sync|async|adversarial]
                  [--corrupt FRAC] [--dot PATH] [--max-rounds R]
       ssmdst replay SCENARIO.scn|CORPUS-NAME [--trace OUT] [--expect GOLDEN]
       ssmdst shrink SCENARIO.scn|CORPUS-NAME --pred not-converged|degree-ge:K|quality [-o OUT.scn]
       ssmdst storm [SEED.scn|CORPUS-NAME ...] --seed S --execs N [--workers W] [--batch B]
                    [--max-corpus M] [--fail PRED] [--out DIR] [--expect-admissions K] [--distill]";

/// The most `storm --workers` accepts.
const MAX_WORKERS: usize = 256;

/// Report a usage or I/O error and exit with status 2.
fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, parsed. A missing or unparsable value is a
/// usage error: never silently skip the work the flag asked for.
fn flag_value<T: FromStr>(flag: &str, it: &mut std::slice::Iter<String>) -> T
where
    T::Err: Display,
{
    let Some(v) = it.next() else {
        die(format!("{flag} requires a value"))
    };
    v.parse().unwrap_or_else(|e| die(format!("{flag}: {e}")))
}

fn parse_predicate(spelling: &str) -> Predicate {
    Predicate::parse(spelling).unwrap_or_else(|e| die(e))
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(format!("writing {path}: {e}")));
}

fn family_labels() -> String {
    GraphFamily::all()
        .iter()
        .map(|f| f.label())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Load a scenario from a `.scn` file path or a corpus name.
fn load_scenario(handle: &str) -> Scenario {
    if let Some(s) = corpus::by_name(handle) {
        return s;
    }
    let text = std::fs::read_to_string(handle).unwrap_or_else(|e| {
        let names: Vec<String> = corpus::corpus().into_iter().map(|s| s.name).collect();
        die(format!(
            "'{handle}' is neither a corpus scenario nor a readable file: {e}\n\
             corpus scenarios: {}",
            names.join(", ")
        ))
    });
    scn::parse(&text).unwrap_or_else(|e| die(format!("parsing {handle}: {e}")))
}

/// Print a run's header, per-phase verdicts and chained digest — the
/// report `run` and `replay` share. Returns whether every phase passed.
fn report(scenario: &Scenario, out: &ScenarioOutcome) -> bool {
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
    out.all_ok()
}

/// `ssmdst run [--family NAME] [--n N] [--seed S] [--scheduler S]
///             [--corrupt FRAC] [--dot PATH] [--max-rounds R]`
fn cmd_run(args: &[String]) -> ! {
    let mut family = "gnp-sparse".to_string();
    let mut n: usize = 32;
    let mut seed: u64 = 1;
    let mut scheduler = "sync".to_string();
    let mut corrupt: f64 = 0.0;
    let mut dot: Option<String> = None;
    let mut max_rounds: u64 = 500_000;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--family" => family = flag_value(a, &mut it),
            "--n" => n = flag_value(a, &mut it),
            "--seed" => seed = flag_value(a, &mut it),
            "--scheduler" => scheduler = flag_value(a, &mut it),
            "--corrupt" => corrupt = flag_value(a, &mut it),
            "--dot" => dot = Some(flag_value(a, &mut it)),
            "--max-rounds" => max_rounds = flag_value(a, &mut it),
            other => die(format!("unexpected run argument {other:?}")),
        }
    }
    let Some(&fam) = GraphFamily::all().iter().find(|f| f.label() == family) else {
        die(format!(
            "unknown family '{family}'; available: {}",
            family_labels()
        ))
    };
    let sched = match scheduler.as_str() {
        "sync" => SchedSpec::Synchronous,
        "async" => SchedSpec::RandomAsync { seed },
        "adversarial" => SchedSpec::Adversarial { seed },
        other => die(format!(
            "unknown scheduler '{other}' (sync|async|adversarial)"
        )),
    };
    let mut scenario = Scenario::converge(
        format!("run-{family}-n{n}-s{seed}"),
        TopologySpec::family(fam, n, seed),
        sched,
        max_rounds,
    );
    if !(0.0..=1.0).contains(&corrupt) {
        die(format!(
            "--corrupt takes a fraction in 0..=1, got {corrupt}"
        ))
    }
    if corrupt > 0.0 {
        scenario
            .events
            .push(ScenarioEvent::stable(EventAction::Fault(CorruptSpec {
                fraction: corrupt,
                drop: 0.0,
                seed: seed.wrapping_add(1),
            })));
    }
    // Run what `replay` runs from the printed text, so the parser's checks
    // (a family graph needs n >= 4) hold and the text is the replay handle.
    let text = scenario.canonical();
    let scenario = scn::parse(&text).unwrap_or_else(|e| die(format!("not a valid scenario: {e}")));
    print!("{text}");
    let (out, _, runner) = engine::run_protocol(&Mdst, &scenario, EngineOpts::default(), |_, _| {});
    let ok = report(&scenario, &out);
    if let Some(path) = dot {
        let g = scenario.topology.build();
        match oracle::try_extract_tree(&g, runner.network()) {
            Some(t) => {
                write_file(&path, &ssmdst::graph::dot::to_dot(&g, Some(&t)));
                println!("wrote {path}");
            }
            None => eprintln!("no spanning tree at the end of the run; {path} not written"),
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// `ssmdst replay SCENARIO [--trace OUT] [--expect GOLDEN]`
fn cmd_replay(args: &[String]) -> ! {
    let mut handle = None;
    let mut trace_out: Option<String> = None;
    let mut expect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_out = Some(flag_value(a, &mut it)),
            "--expect" => expect = Some(flag_value(a, &mut it)),
            other if !other.starts_with("--") && handle.is_none() => {
                handle = Some(other.to_string())
            }
            other => die(format!("unexpected replay argument {other:?}")),
        }
    }
    let Some(handle) = handle else {
        die("replay needs a SCENARIO.scn or CORPUS-NAME (see ssmdst --help)")
    };
    let scenario = load_scenario(&handle);
    let (out, trace) = engine::run_traced_any(&scenario);
    let ok = report(&scenario, &out);
    if let Some(path) = trace_out {
        write_file(&path, &trace.render());
        println!("wrote {path}");
    }
    if let Some(path) = expect {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| die(format!("reading {path}: {e}")));
        let golden = RunTrace::parse(&text).unwrap_or_else(|e| die(format!("parsing {path}: {e}")));
        match golden.first_divergence(&trace) {
            None => println!("replay matches {path} bit-for-bit"),
            Some(d) => {
                eprintln!("replay DIVERGED from {path}: {d}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// `ssmdst shrink SCENARIO --pred PRED [-o OUT.scn]`
fn cmd_shrink(args: &[String]) -> ! {
    let mut handle = None;
    let mut pred = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pred" => pred = Some(parse_predicate(&flag_value::<String>(a, &mut it))),
            "-o" | "--out" => out_path = Some(flag_value(a, &mut it)),
            other if !other.starts_with('-') && handle.is_none() => {
                handle = Some(other.to_string())
            }
            other => die(format!("unexpected shrink argument {other:?}")),
        }
    }
    let (Some(handle), Some(predicate)) = (handle, pred) else {
        die("shrink needs a SCENARIO.scn or CORPUS-NAME and --pred (see ssmdst --help)")
    };
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
                write_file(&path, &text);
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
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => cfg.seed = flag_value(a, &mut it),
            "--execs" => cfg.execs = flag_value(a, &mut it),
            "--workers" => cfg.workers = flag_value(a, &mut it),
            "--batch" => cfg.batch = flag_value(a, &mut it),
            "--max-corpus" => cfg.max_corpus = flag_value(a, &mut it),
            "--expect-admissions" => expect_admissions = flag_value(a, &mut it),
            "--fail" => cfg.failure = parse_predicate(&flag_value::<String>(a, &mut it)),
            "--out" => out_dir = Some(flag_value::<String>(a, &mut it)),
            "--distill" => do_distill = true,
            other if !other.starts_with("--") => seeds_handles.push(other.to_string()),
            other => die(format!("unexpected storm argument {other:?}")),
        }
    }
    // Each worker is an OS thread, for the storm and for `--distill`.
    if !(1..=MAX_WORKERS).contains(&cfg.workers) {
        die(format!(
            "--workers takes a thread count in 1..={MAX_WORKERS}, got {}",
            cfg.workers
        ))
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
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("creating {dir}: {e}")));
        let write = |scenario: &Scenario| {
            let path = format!("{dir}/{}.scn", scenario.name);
            write_file(&path, &scenario.canonical());
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        Some("storm") => cmd_storm(&args[1..]),
        Some("--help" | "-h") => println!("{USAGE}\nfamilies: {}", family_labels()),
        Some(other) => die(format!(
            "unknown subcommand {other:?} (the single-run flags go after `ssmdst run`)\n{USAGE}"
        )),
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
