//! One benchmark for ssmdst: three judged workloads, end-to-end metrics from
//! an untraced run, and a per-layer split from a separate traced run.
//!
//! Every workload is a closed loop with a single caller on a single thread:
//! the next operation starts when the previous one has returned. All inputs
//! (scenarios, graphs, mutants, churn pairs) are generated from the seed
//! during set-up, and every operation's output is checked. See `README.md`
//! in this directory for the workloads, the metric glossary and the
//! layer → end-to-end table.

pub mod exact_churn;
pub mod report;
pub mod scenarios;
pub mod trace;

pub use report::{Metric, Report};

use std::time::Instant;

/// The benchmarked workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["mdst-recover", "exact-churn"];

/// Workloads the command also runs that `BENCHMARK.json` does not list:
/// their timings move too far with the host to hold a bound (see
/// `README.md`), but their outputs are checked and traced the same way.
pub const EXTRA_WORKLOADS: [&str; 1] = ["storm-mutants"];

/// End-to-end metrics (untraced run), `(name, unit)`, printed by every
/// workload in this order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), `(name, unit)`, printed by every
/// workload in this order; a layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("graph.build_ms", "ms"),
    ("graph.n", "count"),
    ("graph.m", "count"),
    ("sim.step_p50_us", "us"),
    ("sim.step_p99_us", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.peak_in_flight", "count"),
    ("sim.network_build_ms", "ms"),
    ("core.handler_ns", "ns"),
    ("core.ticks", "count"),
    ("core.receives", "count"),
    ("core.sent.InfoMsg", "count"),
    ("core.sent.Search", "count"),
    ("core.sent.Remove", "count"),
    ("core.sent.Flip", "count"),
    ("core.sent.DistChain", "count"),
    ("core.sent.DistFlood", "count"),
    ("core.sent.Deblock", "count"),
    ("core.max_msg_bits", "bits"),
    ("core.judge_ms", "ms"),
    ("scenario.project_ms", "ms"),
    ("scenario.fold_ms", "ms"),
    ("scenario.new_judge_ms", "ms"),
    ("scenario.coverage_us", "us"),
    ("scenario.mutate_ms", "ms"),
    ("exact.solve_ms", "ms"),
    ("exact.pivots", "count"),
    ("exact.mirror_us", "us"),
    ("exact.solve_all_ms", "ms"),
    ("exact.warm_starts", "count"),
    ("exact.cold_starts", "count"),
    ("exact.cache_hits", "count"),
    ("exact.cache_hit_ratio", "share"),
    ("exact.open_interval_share", "share"),
    ("exact.witness_verify_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.digest_equal", "bool"),
];

/// Input sizes. [`Size::full`] is the benchmark; [`Size::smoke`] runs the
/// same code on inputs small enough for a unit test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `mdst-recover`: nodes per `gnp-sparse` instance.
    pub mdst_n: usize,
    /// `mdst-recover`: scenarios in the input set.
    pub mdst_inputs: usize,
    /// `storm-mutants`: mutants in the input set.
    pub mutants: usize,
    /// `exact-churn`: nodes of the `G(n, 8/n)` instance.
    pub exact_n: usize,
    /// `exact-churn`: remove/insert edge pairs per pass.
    pub exact_pairs: usize,
    /// Set-ups before the first pass; `setup_s` is the median of these and
    /// of one more set-up after each pass.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            mdst_n: 10,
            mdst_inputs: 128,
            mutants: 500,
            exact_n: 5_000,
            exact_pairs: 256,
            setup_reps: 5,
        }
    }

    /// Tiny inputs for the benchmark's own tests.
    pub fn smoke() -> Size {
        Size {
            mdst_n: 10,
            mdst_inputs: 2,
            mutants: 12,
            exact_n: 300,
            exact_pairs: 3,
            setup_reps: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed: the same seed always generates the same inputs.
    pub seed: u64,
    /// Minimum measuring time; an untraced run measures whole passes over
    /// its input set, at least one.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, ctx: &Ctx) -> Option<Report> {
    let report = match workload {
        "mdst-recover" => scenarios::mdst_recover(ctx),
        "storm-mutants" => scenarios::storm_mutants(ctx),
        "exact-churn" => exact_churn::run(ctx),
        _ => return None,
    };
    Some(report)
}

/// SplitMix64 finaliser: derives independent sub-seeds from `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CPU time consumed by the calling thread, in seconds.
///
/// Every timed operation runs on the one calling thread, so on an idle host
/// this is its wall time. On a shared host it leaves out the time the thread
/// waited for a core (preemption by other tenants, hypervisor steal), which
/// moves a wall clock by tens of percent from one second to the next.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall time since the first call, in seconds, where the thread CPU clock
/// is not available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Thread CPU seconds (see [`thread_cpu_s`]) that `f` took, with its
/// result.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - t)
}

/// Run `setup` `reps` times (at least once); return the last result and the
/// thread CPU seconds of each set-up. The untraced workloads then set up once
/// more after every pass of [`closed_loop`], and report the median of all
/// these times as `setup_s`: set-ups spread over the whole run sample the
/// host's slow and fast stretches alike, where a burst at the start would
/// catch only one of them.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1) {
        let (out, s) = cpu_timed(&mut setup);
        last = Some(out);
        times.push(s);
    }
    (last.expect("at least one set-up ran"), times)
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of unsorted samples (upper median for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The closed loop shared by the untraced workloads: operation `i` runs
/// input `i % inputs`, back to back, in whole passes over the inputs, so
/// every run measures the same mix of inputs. It stops at the pass boundary
/// nearest to `seconds` of wall time (after at least one pass). Only `op`
/// is timed; `check` then inspects its output, and `after_pass` runs at the
/// end of every pass.
pub fn closed_loop<T>(
    inputs: usize,
    seconds: f64,
    mut op: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, usize, T),
    mut after_pass: impl FnMut(),
) -> Timings {
    let start = Instant::now();
    let mut lat = Vec::new();
    let mut wall_s = 0.0;
    let mut i = 0;
    // Wall time at the end of the last pass, and that pass's length.
    let (mut pass_end, mut pass_s) = (0.0, 0.0);
    while i % inputs != 0 || i == 0 || pass_end + pass_s / 2.0 < seconds {
        let (w, t) = (Instant::now(), thread_cpu_s());
        let out = op(i % inputs);
        lat.push(thread_cpu_s() - t);
        wall_s += w.elapsed().as_secs_f64();
        check(i, i % inputs, out);
        i += 1;
        if i % inputs == 0 {
            after_pass();
            let now = start.elapsed().as_secs_f64();
            pass_s = now - pass_end;
            pass_end = now;
        }
    }
    Timings { lat, wall_s }
}

/// What [`closed_loop`] measured.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Each operation's latency in thread CPU seconds (see
    /// [`thread_cpu_s`]); `lat[i]` is operation `i`, on input `i % inputs`.
    pub lat: Vec<f64>,
    /// Wall seconds spent in operations.
    pub wall_s: f64,
}

/// Per-layer metrics by name, all starting at 0 (a layer the workload
/// never enters).
#[derive(Debug, Clone)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Set a metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Add to a metric.
    pub fn add(&mut self, name: &str, value: f64) {
        let now = self.get(name);
        self.set(name, now + value);
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.get(name), unit))
            .collect()
    }
}

/// Each input's fastest latency over its repeats in the run (`lat[i]` is
/// operation `i`, on input `i % inputs`). Other tenants of a shared host
/// only ever add time to an operation, so the fastest repeat is the
/// steadiest estimate of what the operation costs.
pub fn best_per_input(lat: &[f64], inputs: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; inputs];
    for (i, &l) in lat.iter().enumerate() {
        best[i % inputs] = best[i % inputs].min(l);
    }
    best
}

/// The untraced end-to-end metrics, in [`END_TO_END`] order, from each
/// input's fastest repeat (see [`best_per_input`]).
pub fn end_to_end(setup_s: f64, lat: &[f64], inputs: usize) -> Vec<Metric> {
    let best = best_per_input(lat, inputs);
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let values = [
        setup_s,
        best.len() as f64 / best.iter().sum::<f64>(),
        median(&ms),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}
