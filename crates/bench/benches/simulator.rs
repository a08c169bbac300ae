//! Simulator throughput benchmarks: cost of one round at steady state
//! (after convergence all traffic is InfoMsg gossip + periodic searches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssmdst_bench::run_instance;
use ssmdst_core::{build_network, Config};
use ssmdst_graph::generators::GraphFamily;
use ssmdst_sim::{Runner, Scheduler};
use std::hint::black_box;

fn bench_round_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("round-throughput");
    g.sample_size(20);
    // n is capped at 32: steady-state search storms on larger instances
    // make single-round latency extremely noisy (minutes of sampling for
    // no extra information — T2/T3 cover the scaling story).
    for n in [16usize, 32] {
        let graph = GraphFamily::GnpSparse.generate(n, 1);
        g.bench_with_input(BenchmarkId::new("steady-state", n), &(), |b, _| {
            // Pre-converge so we measure steady-state rounds, not churn.
            let mut r = steady_state_runner(&graph);
            b.iter(|| {
                r.step_round();
                black_box(r.round())
            })
        });
    }
    g.finish();
}

/// Sparse-activity workload: one sentinel node circulates a single token
/// while everyone else is disabled — the regime where obligation
/// *discovery* dominates obligation *execution*. A protocol round here has
/// 2 obligations, which the event engine reads off its incremental
/// indices instead of scanning all `n` nodes and `2m` channels.
fn bench_sparse_activity(c: &mut Criterion) {
    // The workload definition is shared with the S1–S3 experiments
    // (`experiments::fabric`), so this group and the committed
    // BENCH_flat_fabric.json measure the identical regime.
    use ssmdst_bench::experiments::fabric::sentinel_network;

    let mut g = c.benchmark_group("sparse-activity");
    g.sample_size(20);
    // 4096 uses the skip-sampling generator: the O(n²) coin-flip loop of
    // GnpSparse would dominate setup long before the bench body runs.
    // (The full S1–S3 sweep to n = 65 536 lives in `experiments -- s1..s3`
    // and is committed as BENCH_flat_fabric.json.)
    for n in [256usize, 1024, 4096] {
        let graph = if n <= 1024 {
            GraphFamily::GnpSparse.generate(n, 1)
        } else {
            ssmdst_graph::generators::random::gnp_connected_sparse(n, 8.0 / n as f64, 1)
        };
        g.bench_with_input(BenchmarkId::new("event-engine", n), &(), |b, _| {
            let mut r = Runner::new(sentinel_network(&graph), Scheduler::Synchronous);
            b.iter(|| {
                r.step_round();
                black_box(r.round())
            })
        });
    }
    g.finish();
}

/// A converged runner for steady-state round measurements (re-converged
/// per bench input, since a runner holds its network by value and is not
/// `Clone`).
fn steady_state_runner(graph: &ssmdst_graph::Graph) -> Runner<ssmdst_core::MdstNode> {
    let (_, session) = run_instance(
        graph,
        Config::for_n(graph.n()),
        Scheduler::Synchronous,
        400_000,
    );
    session.into_parts().0
}

fn bench_network_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("network-build");
    for n in [64usize, 256] {
        let graph = GraphFamily::GnpSparse.generate(n, 1);
        g.bench_with_input(BenchmarkId::new("from-graph", n), &graph, |b, graph| {
            b.iter(|| {
                let net = build_network(black_box(graph), Config::for_n(graph.n()));
                black_box(net.n())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_round_throughput,
    bench_sparse_activity,
    bench_network_build
);
criterion_main!(benches);
