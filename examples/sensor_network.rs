//! Sensor-network scenario (the paper's ad-hoc motivation): a random
//! geometric radio graph, where a low-degree spanning tree means less
//! congestion and fewer collision hot-spots at any single sensor. Includes
//! a mid-run transient fault — half the sensors reboot into garbage state —
//! and a mid-run churn event applied through the session (a sensor dies
//! at a fixed round).
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```

use ssmdst::graph::generators::geometric::random_geometric_with_points;
use ssmdst::prelude::*;
use ssmdst::sim::faults::FaultPlan;
use ssmdst::sim::ChurnEvent;

fn main() {
    let n = 48;
    // Radius just above the connectivity threshold: a realistic sparse
    // radio mesh.
    let radius = (2.0 * (n as f64).ln() / n as f64).sqrt();
    let (g, points) = random_geometric_with_points(n, radius, 42);
    println!(
        "sensor field: n={} m={} Δ(G)={} (radius {:.2})",
        g.n(),
        g.m(),
        g.max_degree(),
        radius
    );
    // The densest corner of the deployment:
    let hub = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
    println!(
        "busiest sensor: node {hub} at ({:.2},{:.2}) with {} radio neighbors",
        points[hub as usize].0,
        points[hub as usize].1,
        g.degree(hub)
    );

    // A sensor at the field's edge browns out at round 200 — applied by
    // the session, announced to observers.
    let casualty = g.nodes().min_by_key(|&v| g.degree(v)).unwrap();
    let quiet = quiet_window(g.n());
    let mut session = Session::from_network(build_network(&g, Config::for_n(g.n())))
        .scheduler(Scheduler::RandomAsync { seed: 7 })
        .horizon(400_000)
        .build();
    let _ = session.run_until(200, &mut ());
    let _ = session.churn(&ChurnEvent::CrashNode(casualty));
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged());
    println!(
        "stabilized in ~{} rounds with sensor {casualty} dark: the {} survivors \
         hold a tree (BFS on the full field would give degree {})",
        session.round() - quiet,
        session.network().alive_count(),
        SpanningTree::from_bfs(&g, 0).unwrap().max_degree()
    );

    // Transient fault: half the sensors reboot with corrupted memory.
    println!("\n*** transient fault: 50% of sensors corrupt their state ***");
    let victims = session.inject(FaultPlan::partial(0.5, 9));
    println!("{} sensors corrupted", victims.len());
    let before = session.round();
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged(), "self-stabilization must recover");
    println!(
        "recovered in ~{} rounds — no operator intervention",
        session.round() - before - quiet
    );

    // Power restored: the dark sensor rejoins and the full tree re-forms.
    let _ = session.churn(&ChurnEvent::RejoinNode(casualty));
    let out = session.run_to_quiescence(quiet, oracle::projection);
    assert!(out.converged(), "rejoin must re-stabilize");
    let t = oracle::try_extract_tree(&g, session.network()).expect("tree re-formed");
    t.validate(&g).expect("valid spanning tree");
    println!(
        "sensor {casualty} back online: full field re-stabilized, deg(T) = {}",
        t.max_degree()
    );
}
