//! Round-stage clock: where a round's time goes.
//!
//! `Runner::step_round_observed` tells its observer where each stage of a
//! round ends (enumerate + key, sort, execute, round end) through
//! the `on_round_start` and `on_stage_end` hooks. Contract R2 (`clippy.toml`)
//! keeps wall-clock reads out of library code, so the `Instant`-backed
//! observer lives here.
//! Two tests:
//!
//! * a clocked run executes the unclocked run's schedule exactly: same
//!   schedule digest, same final states, same message counts;
//! * `stage_split_of_mdst_recovery` prints the split for MDST recoveries
//!   from a fully corrupted start on `gnp-sparse` graphs at n = 10 under
//!   the random daemon (the shape of perfbench's `mdst-recover` inputs).
//!   A debug build runs one short recovery; the full split needs release:
//!
//!   ```sh
//!   cargo test --release --test stage_clock -- --nocapture
//!   ```

#![expect(
    clippy::disallowed_methods,
    reason = "the clock observer reads Instant::now by design; its times never reach a digest"
)]

use ssmdst::core::{build_network, Config, MdstNode};
use ssmdst::graph::generators::GraphFamily;
use ssmdst::sim::faults::{inject, FaultPlan};
use ssmdst::sim::{Automaton, Observer, Runner, ScheduleDigest, Scheduler, Stage};
use std::time::{Duration, Instant};

/// Wall time per stage, summed over every clocked round.
struct WallClock {
    last: Instant,
    spent: [Duration; 4],
    rounds: u64,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            last: Instant::now(),
            spent: [Duration::ZERO; 4],
            rounds: 0,
        }
    }
}

impl<A: Automaton> Observer<A> for WallClock {
    fn on_round_start(&mut self) {
        self.rounds += 1;
        self.last = Instant::now();
    }
    fn on_stage_end(&mut self, stage: Stage) {
        let now = Instant::now();
        self.spent[stage as usize] += now - self.last;
        self.last = now;
    }
}

/// One recovery: a fully corrupted start, then after `rounds` rounds a
/// fault burst on half the nodes, then `rounds` more. Returns the schedule
/// digest, the final node states and the messages sent.
fn recovery(seed: u64, rounds: u32, clock: Option<&mut WallClock>) -> (u64, String, u64) {
    let n = 10;
    let g = GraphFamily::GnpSparse.generate(n, seed);
    let mut net = build_network(&g, Config::for_n(n));
    let _ = inject(&mut net, FaultPlan::total(seed ^ 0x5eed));
    let mut runner = Runner::new(net, Scheduler::RandomAsync { seed });
    let mut digest = ScheduleDigest::new();
    let mut clock = clock;
    for phase in 0..2 {
        if phase == 1 {
            let _ = inject(
                runner.network_mut(),
                FaultPlan {
                    node_fraction: 0.5,
                    message_drop: 1.0,
                    seed: seed ^ 0xfa17,
                },
            );
        }
        for _ in 0..rounds {
            let _ = match clock.as_deref_mut() {
                Some(c) => runner.step_round_observed(&mut (&mut digest, &mut *c)),
                None => runner.step_round_observed(&mut digest),
            };
        }
    }
    let net = runner.network();
    let states = format!(
        "{:?}",
        net.nodes().iter().map(MdstNode::state).collect::<Vec<_>>()
    );
    (digest.value(), states, net.metrics.total_sent)
}

#[test]
fn clocked_rounds_execute_the_unclocked_schedule() {
    for seed in 1..=4 {
        let mut clock = WallClock::new();
        let clocked = recovery(seed, 300, Some(&mut clock));
        assert_eq!(clocked, recovery(seed, 300, None), "seed {seed}");
        assert_eq!(clock.rounds, 600, "every round was clocked");
    }
}

/// The split means something only in an optimised build, where the full
/// run takes about a second (about 9 s unoptimised). So a debug build
/// clocks one short recovery, which checks only the wiring.
#[test]
fn stage_split_of_mdst_recovery() {
    let (seeds, rounds) = if cfg!(debug_assertions) {
        (1, 200)
    } else {
        (16, 2_000)
    };
    let mut clock = WallClock::new();
    for seed in 1..=seeds {
        let _ = recovery(seed, rounds, Some(&mut clock));
    }
    let total: Duration = clock.spent.iter().sum();
    assert!(total > Duration::ZERO);
    println!(
        "stage split over {} rounds ({:.0} ns/round):",
        clock.rounds,
        total.as_nanos() as f64 / clock.rounds as f64
    );
    for stage in [
        Stage::Enumerate,
        Stage::Sort,
        Stage::Execute,
        Stage::RoundEnd,
    ] {
        let t = clock.spent[stage as usize];
        println!(
            "  {:<10} {:>6.1} %  {:>8.0} ns/round",
            format!("{stage:?}"),
            100.0 * t.as_secs_f64() / total.as_secs_f64(),
            t.as_nanos() as f64 / clock.rounds as f64
        );
    }
}
