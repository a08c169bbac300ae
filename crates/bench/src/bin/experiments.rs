//! Experiment driver: regenerates every table/figure of the `ssmdst-bench`
//! crate doc (ARCHITECTURE.md, "Modelling deviations").
//!
//! ```text
//! cargo run --release -p ssmdst-bench --bin experiments -- all
//! cargo run --release -p ssmdst-bench --bin experiments -- t1 f2 --quick
//! cargo run --release -p ssmdst-bench --bin experiments -- all --quick --json BENCH_baseline.json
//! ```
//!
//! The ids, titles and functions come from
//! [`ssmdst_bench::experiments::EXPERIMENTS`]; an unknown id exits with
//! status 2 before anything runs. With `--json PATH` the tables (plus
//! per-experiment wall time) are also written as one JSON document, so
//! successive commits can diff perf and quality numbers mechanically.

use std::time::Instant;

use ssmdst_bench::experiments::{self as ex, Experiment, EXPERIMENTS};
use ssmdst_bench::{json_string, Profile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => p.clone(),
            _ => {
                eprintln!("error: --json requires an output path");
                std::process::exit(2);
            }
        });
    let profile = if quick {
        Profile::quick()
    } else {
        Profile::full()
    };
    let ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the value following `--json`.
            let is_json_value = *i > 0 && args[i - 1] == "--json";
            !a.starts_with("--") && !is_json_value
        })
        .map(|(_, s)| s.to_lowercase())
        .collect();
    let mut selected: Vec<&Experiment> = Vec::new();
    for id in &ids {
        match ex::find(id) {
            Some(e) => selected.push(e),
            None if id == "all" => {}
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                eprintln!(
                    "error: unknown experiment id: {id} (known: {}, all)",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        selected = EXPERIMENTS.iter().collect();
    }
    let profile_label = if quick { "quick" } else { "full" };
    println!("# ssmdst experiment suite ({profile_label} profile)");
    let mut json_entries: Vec<String> = Vec::new();
    for e in selected {
        #[expect(
            clippy::disallowed_methods,
            reason = "observation-side wall-clock for the printed timing column; never feeds simulation state"
        )]
        let started = Instant::now();
        let table = (e.run)(&profile);
        let wall_ms = started.elapsed().as_millis();
        println!("\n## {}\n", e.title);
        print!("{table}");
        json_entries.push(format!(
            "{{\"id\":{},\"title\":{},\"wall_ms\":{},\"table\":{}}}",
            json_string(e.id),
            json_string(e.title),
            wall_ms,
            table.to_json()
        ));
    }
    if let Some(path) = json_path {
        let doc = format!(
            "{{\"suite\":\"ssmdst-experiments\",\"profile\":{},\"experiments\":[\n{}\n]}}\n",
            json_string(profile_label),
            json_entries.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
