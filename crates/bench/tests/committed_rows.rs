//! Committed bench anchors must stay reproducible.
//!
//! The T5 and F3 rows committed in `BENCH_baseline.json` must reproduce:
//! both tables are deterministic (seeded graphs, synchronous daemon), so
//! rendering them under `Profile::quick()` — the profile that file records —
//! gives the committed cells exactly. A baseline or protocol change that
//! moves a cell fails here until the file is regenerated with
//! `experiments all --quick --json BENCH_baseline.json`.

use ssmdst_bench::experiments::{f3_concurrency, t5_baselines};
use ssmdst_bench::{Profile, Table};

const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

/// The rows of a table JSON object (`{"header":[…],"rows":[[…],…]}`), one
/// string per row, cut from the rendered text so no JSON parser is needed.
fn rows(table_json: &str) -> Vec<String> {
    let start = table_json.find("\"rows\":[[").expect("table has rows") + "\"rows\":[[".len();
    let end = table_json[start..].find("]]").expect("rows array closes") + start;
    table_json[start..end]
        .split("],[")
        .map(str::to_string)
        .collect()
}

/// The committed table JSON of experiment `id`.
fn committed(id: &str) -> &'static str {
    let prefix = format!("{{\"id\":\"{id}\",");
    let line = BASELINE
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("BENCH_baseline.json has no `{id}` row"));
    &line[line.find("\"table\":").expect("experiment has a table")..]
}

fn assert_reproduces(id: &str, table: &Table) {
    let committed = committed(id);
    let rendered = table.to_json();
    assert_eq!(
        rows(committed),
        rows(&rendered),
        "{id} rows differ from BENCH_baseline.json\n{}",
        table.render()
    );
    assert!(
        committed.contains(&rendered),
        "{id} header differs from BENCH_baseline.json:\ncommitted {committed}\nrendered  {rendered}"
    );
}

#[test]
fn committed_t5_and_f3_rows_reproduce_under_quick_profile() {
    let p = Profile::quick();
    assert_reproduces("t5", &t5_baselines(&p));
    assert_reproduces("f3", &f3_concurrency(&p));
}
