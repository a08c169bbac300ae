//! Committed bench anchors must stay reproducible.
//!
//! The T5 and F3 rows committed in `BENCH_baseline.json` must reproduce:
//! both tables are deterministic (seeded graphs, synchronous daemon), so
//! rendering them under `Profile::quick()` — the profile that file records —
//! gives the committed cells exactly. A baseline or protocol change that
//! moves a cell fails here until the file is regenerated with
//! `experiments all --quick --json BENCH_baseline.json`.
//!
//! The digests in `BENCH_backends.json` are a function of the three
//! instances the `backends` bin builds, so those instances are pinned by a
//! structural fingerprint: a generator change fails here instead of
//! silently making the committed digests stale.

use ssmdst_bench::experiments::{f3_concurrency, t5_baselines};
use ssmdst_bench::{Profile, Table};
use ssmdst_graph::generators::random::{gnp_connected, near_regular};
use ssmdst_graph::Graph;
use ssmdst_sim::Digest;

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

/// `(n, m, FNV-1a over n, m and the sorted edge list)`.
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

/// The `bk1`, `bk2` and `bk3` instances of the `backends` bin. When one of
/// these moves, re-run `backends --json BENCH_backends.json` and update
/// the fingerprint here.
#[test]
fn backends_bench_instances_are_pinned() {
    assert_eq!(
        fingerprint(&gnp_connected(256, 0.06, 11)),
        (256, 1946, 0xadc759760a257ca3),
        "bk1: G(256, 0.06) seed 11"
    );
    assert_eq!(
        fingerprint(&near_regular(2048, 8, 7)),
        (2048, 8191, 0x1723455fa52fc6ab),
        "bk2: near-regular(2048, 8) seed 7"
    );
    assert_eq!(
        fingerprint(&gnp_connected(96, 0.08, 3)),
        (96, 375, 0xe2eb5f6970a72e6c),
        "bk3: G(96, 0.08) seed 3"
    );
}
