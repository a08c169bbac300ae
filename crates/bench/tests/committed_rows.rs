//! Committed bench anchors must stay reproducible.
//!
//! Every table committed in `BENCH_baseline.json` (T1–T5, F1–F5, A1–A3)
//! must reproduce: each is deterministic (seeded graphs, seeded daemons),
//! so running it under `Profile::quick()` — the profile that file records
//! — gives the committed title, header and rows exactly; only `wall_ms` is
//! not compared. The experiment is looked up by id in
//! `experiments::EXPERIMENTS`, the registry the `experiments` bin runs. A
//! protocol or harness change that moves a cell fails here until the row
//! is re-taken with `experiments IDS --quick --json PATH`.
//!
//! The five slowest tables (T2, T4, F2, A1, A3) take about 10 s between
//! them in a debug build, so they are `#[ignore]`d in `cargo test`; CI
//! runs them in release with
//! `cargo test --release -p ssmdst-bench -- --include-ignored`.
//!
//! The X rows of `BENCH_exact.json` are too slow to re-run here, so the
//! generator instances behind them are pinned by structural fingerprint
//! instead: a generator change fails here rather than silently leaving the
//! committed X rows stale.

use ssmdst_bench::experiments;
use ssmdst_bench::{json_string, Profile};
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

/// The ids of the experiments committed in `BENCH_baseline.json`, in order.
fn committed_ids() -> Vec<&'static str> {
    BASELINE
        .lines()
        .filter_map(|l| l.strip_prefix("{\"id\":\""))
        .map(|l| &l[..l.find('"').expect("id closes")])
        .collect()
}

/// Run experiment `id` under the quick profile and compare its title,
/// header and rows with the committed line.
fn assert_reproduces(id: &str) {
    let e = experiments::find(id).unwrap_or_else(|| panic!("no experiment `{id}`"));
    let prefix = format!("{{\"id\":{},", json_string(id));
    let line = BASELINE
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("BENCH_baseline.json has no `{id}` row"));
    let title = format!("{prefix}\"title\":{},\"wall_ms\":", json_string(e.title));
    assert!(
        line.starts_with(&title),
        "{id} title differs from BENCH_baseline.json: {line}"
    );
    let committed = line
        [line.find("\"table\":").expect("experiment has a table") + "\"table\":".len()..]
        .trim_end_matches(',')
        .strip_suffix('}')
        .expect("experiment object closes");
    let table = (e.run)(&Profile::quick());
    let rendered = table.to_json();
    assert_eq!(
        rows(committed),
        rows(&rendered),
        "{id} rows differ from BENCH_baseline.json\n{}",
        table.render()
    );
    assert_eq!(
        committed, rendered,
        "{id} header differs from BENCH_baseline.json"
    );
}

/// One test per committed table, so the harness runs them in parallel,
/// and `PINNED` listing them for the completeness check.
macro_rules! pin_tables {
    ($($(#[$attr:meta])* $id:ident),* $(,)?) => {
        const PINNED: &[&str] = &[$(stringify!($id)),*];
        $(
            #[test]
            $(#[$attr])*
            fn $id() {
                assert_reproduces(stringify!($id));
            }
        )*
    };
}

pin_tables!(
    t1,
    #[ignore = "slow in a debug build; CI runs it in release with --include-ignored"]
    t2,
    t3,
    #[ignore = "slow in a debug build; CI runs it in release with --include-ignored"]
    t4,
    t5,
    f1,
    #[ignore = "slow in a debug build; CI runs it in release with --include-ignored"]
    f2,
    f3,
    f4,
    f5,
    #[ignore = "slow in a debug build; CI runs it in release with --include-ignored"]
    a1,
    a2,
    #[ignore = "slow in a debug build; CI runs it in release with --include-ignored"]
    a3,
);

#[test]
fn every_committed_table_is_pinned() {
    assert_eq!(committed_ids(), PINNED);
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
