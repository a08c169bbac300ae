//! `ssmdst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints readable lines, then one JSON object as the last line of
//! standard output. Exits 2 on bad arguments.

use ssmdst_perfbench::{report::committed_anchors, run, Ctx, Size, EXTRA_WORKLOADS, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ssmdst-perfbench --workload <{}|{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|"),
        EXTRA_WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed = value("--seed")
        .map(|s| {
            s.parse::<u64>()
                .unwrap_or_else(|_| usage("--seed takes an integer"))
        })
        .unwrap_or(1);
    let seconds = value("--seconds")
        .map(|s| {
            s.parse::<f64>()
                .unwrap_or_else(|_| usage("--seconds takes a number"))
        })
        .unwrap_or(10.0);
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        size: Size::full(),
    };
    let report =
        run(workload, &ctx).unwrap_or_else(|| usage(&format!("unknown workload {workload:?}")));
    print!("{}", report.render(&committed_anchors()));
}
