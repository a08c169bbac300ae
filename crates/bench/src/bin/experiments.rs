//! Experiment driver: regenerates every table/figure of the `ssmdst-bench`
//! crate doc (ARCHITECTURE.md, "Modelling deviations").
//!
//! ```text
//! cargo run --release -p ssmdst-bench --bin experiments -- all
//! cargo run --release -p ssmdst-bench --bin experiments -- t1 f2 --quick
//! cargo run --release -p ssmdst-bench --bin experiments -- all --quick --json BENCH_baseline.json
//! ```
//!
//! With `--json PATH` the tables (plus per-experiment wall time) are also
//! written as one JSON document, so successive commits can diff perf and
//! quality numbers mechanically.

use std::time::Instant;

use ssmdst_bench::experiments as ex;
use ssmdst_bench::{json_string, Profile, Table};

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
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the value following `--json`.
            let is_json_value = *i > 0 && args[i - 1] == "--json";
            !a.starts_with("--") && !is_json_value
        })
        .map(|(_, s)| s.to_lowercase())
        .collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = [
            "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "f5", "a1", "a2", "a3", "d1",
            "d2", "d3", "s1", "s2", "s3", "c1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let profile_label = if quick { "quick" } else { "full" };
    println!("# ssmdst experiment suite ({profile_label} profile)");
    let mut json_entries: Vec<String> = Vec::new();
    for id in ids {
        let started = Instant::now(); // lint: allow(no-ambient-entropy) — observation-side wall-clock for the printed timing column; never feeds simulation state
        let (title, table): (&str, Table) = match id.as_str() {
            "t1" => (
                "T1 — degree quality (Thm 2: deg ≤ Δ*+1)",
                ex::t1_degree_quality(&profile),
            ),
            "t2" => (
                "T2 — convergence rounds vs O(m·n²·lg n) (Lemma 5)",
                ex::t2_convergence(&profile),
            ),
            "t3" => ("T3 — message complexity by kind", ex::t3_messages(&profile)),
            "t4" => (
                "T4 — memory per node vs O(δ·lg n) (Lemma 5)",
                ex::t4_memory(&profile),
            ),
            "t5" => ("T5 — baseline comparison", ex::t5_baselines(&profile)),
            "f1" => ("F1 — convergence trajectory", ex::f1_trajectory(&profile)),
            "f2" => (
                "F2 — transient-fault recovery (Def. 1)",
                ex::f2_fault_recovery(&profile),
            ),
            "f3" => (
                "F3 — concurrent improvements vs serialized [3]",
                ex::f3_concurrency(&profile),
            ),
            "f4" => ("F4 — scheduler sensitivity", ex::f4_schedulers(&profile)),
            "f5" => (
                "F5 — max message length vs O(n·lg n)",
                ex::f5_message_length(&profile),
            ),
            "a1" => (
                "A1 — ablation: strict vs gentle distance repair",
                ex::a1_strict_vs_gentle(&profile),
            ),
            "a2" => ("A2 — ablation: Deblock disabled", ex::a2_deblock(&profile)),
            "a3" => (
                "A3 — ablation: busy latch disabled",
                ex::a3_busy_latch(&profile),
            ),
            "d1" => (
                "D1 — dynamic topology: edge churn re-convergence",
                ex::d1_edge_churn(&profile),
            ),
            "d2" => (
                "D2 — dynamic topology: node crash/rejoin re-convergence",
                ex::d2_node_churn(&profile),
            ),
            "d3" => (
                "D3 — dynamic topology: partition/heal re-convergence",
                ex::d3_partition_heal(&profile),
            ),
            "s1" => (
                "S1 — fabric scale: sparse G(n,p), mean degree 8",
                ex::s1_scale_gnp(&profile),
            ),
            "s2" => (
                "S2 — fabric scale: near-regular, degree 8",
                ex::s2_scale_regular(&profile),
            ),
            "s3" => (
                "S3 — fabric scale: Barabási–Albert, attachment 2",
                ex::s3_scale_ba(&profile),
            ),
            "c1" => (
                "C1 — scenario campaign: corpus grid, replayable rows",
                ex::c1_campaign(&profile),
            ),
            other => {
                eprintln!("unknown experiment id: {other}");
                continue;
            }
        };
        let wall_ms = started.elapsed().as_millis();
        println!("\n## {title}\n");
        print!("{table}");
        json_entries.push(format!(
            "{{\"id\":{},\"title\":{},\"wall_ms\":{},\"table\":{}}}",
            json_string(&id),
            json_string(title),
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
