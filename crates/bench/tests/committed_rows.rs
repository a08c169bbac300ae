//! Committed bench anchors must stay reproducible.
//!
//! The T5 and F3 rows committed in `BENCH_baseline.json` must reproduce:
//! both tables are deterministic (seeded graphs, synchronous daemon), so
//! rendering them under `Profile::quick()` — the profile that file records —
//! gives the committed cells exactly. A baseline or protocol change that
//! moves a cell fails here until the file is regenerated with
//! `experiments all --quick --json BENCH_baseline.json`.
//!
//! The X rows of `BENCH_exact.json` are too slow to re-run here, so the
//! generator instances behind them are pinned by structural fingerprint
//! instead: a generator change fails here rather than silently leaving the
//! committed X rows stale.

use ssmdst_bench::experiments::{f3_concurrency, t5_baselines};
use ssmdst_bench::{Profile, Table};
use ssmdst_graph::generators::random::gnp_connected_sparse;
use ssmdst_graph::Graph;
use ssmdst_sim::Digest;

const BASELINE: &str = include_str!("../../../BENCH_baseline.json");
const EXACT: &str = include_str!("../../../BENCH_exact.json");

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

/// `(n, m, FNV-1a over n, m and the sorted edge list)` of a graph.
fn fingerprint(g: &Graph) -> (usize, usize, u64) {
    let mut d = Digest::new();
    d.write_u64(g.n() as u64);
    d.write_u64(g.m() as u64);
    // `edges()` is the canonical list: `u < v`, lexicographically sorted.
    for &(u, v) in g.edges() {
        d.write_u32(u);
        d.write_u32(v);
    }
    (g.n(), g.m(), d.value())
}

/// The unsigned integer field `key` of the committed `BENCH_exact.json`
/// record `id`.
fn committed_exact_field(id: &str, key: &str) -> usize {
    let prefix = format!("{{\"id\":\"{id}\",");
    let line = EXACT
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("BENCH_exact.json has no `{id}` row"));
    let tag = format!("\"{key}\":");
    let start = line
        .find(&tag)
        .unwrap_or_else(|| panic!("`{id}` has no `{key}`"))
        + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("integer field")
}

#[test]
fn exact_bench_instances_are_pinned() {
    // `gnp_connected_sparse(n, 8/n, 42)`: the instances of the `exact` bin.
    for (n, hash) in [
        (1_000, 0xd84b5ca6cb99db28),
        (10_000, 0x15e81efd46c07655),
        (100_000, 0xe4c01f862b681b95),
    ] {
        let id = format!("x-n{n}-solve");
        let (gn, gm, gh) = fingerprint(&gnp_connected_sparse(n, 8.0 / n as f64, 42));
        assert_eq!(gn, committed_exact_field(&id, "n"), "{id}: n");
        assert_eq!(gm, committed_exact_field(&id, "m"), "{id}: m");
        assert_eq!(gh, hash, "{id}: edge-list fingerprint {gh:#018x}");
    }
}
