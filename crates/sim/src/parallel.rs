//! Parallel sweep driver for the experiment harness.
//!
//! Experiments run hundreds of independent (graph, seed, scheduler)
//! simulations; this module fans them out across OS threads with crossbeam's
//! scoped threads and collects results in input order. Each simulation is
//! single-threaded and deterministic, so parallelism never perturbs results
//! — a requirement for reproducible tables.

use crossbeam::thread;
use parking_lot::Mutex;

/// Run `job` over `inputs` on up to `workers` threads, preserving input
/// order in the output. `job` must be `Sync` (it is shared by reference) and
/// inputs are handed out through a work-stealing index.
///
/// Results are written through **per-slot cells** — each worker locks only
/// the (uncontended) mutex of the slot it just produced, never a shared
/// collection — so workers publishing results do not serialize on one
/// global lock while others are mid-`job`.
///
/// Falls back to sequential execution when `workers <= 1` (`workers = 0`
/// is treated as 1, not as "no workers": the sweep always runs).
///
/// # Panics
///
/// A panicking `job` aborts the sweep and the panic propagates to the
/// caller; no partial result vector is ever returned. The payload differs
/// by path, and tests pin both behaviors:
///
/// * sequential path (`workers <= 1` or a single input): the job's own
///   panic payload propagates unchanged;
/// * parallel path: workers already mid-job finish their current item,
///   then the scope re-raises — since the scoped-thread shim is built on
///   [`std::thread::scope`], the payload is the standard library's
///   `"a scoped thread panicked"`, not the job's own.
pub fn run_many<I, O, F>(inputs: Vec<I>, workers: usize, job: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if workers <= 1 || inputs.len() <= 1 {
        return inputs.iter().map(&job).collect();
    }
    let n = inputs.len();
    let mut slots: Vec<Mutex<Option<O>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let inputs_ref = &inputs;
    let slots_ref = &slots;
    let job_ref = &job;
    let joined = thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job_ref(&inputs_ref[i]);
                *slots_ref[i].lock() = Some(out);
            });
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "propagating a worker panic is the only honest option here"
    )]
    let () = joined.expect("sweep worker panicked");
    let filled: Option<Vec<O>> = slots.into_iter().map(|m| m.into_inner()).collect();
    #[expect(
        clippy::expect_used,
        reason = "the scoped join above proves every job wrote its slot"
    )]
    let outputs = filled.expect("every slot filled");
    outputs
}

/// Number of workers to use by default: the available parallelism, capped
/// so laptop runs stay responsive, and clamped to ≥ 1 — on platforms where
/// `available_parallelism` errors (it already falls back to 1) *or* where a
/// future cap expression evaluates to 0, the sweep must still run.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..50).collect();
        let out = run_many(inputs.clone(), 8, |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let inputs: Vec<u32> = (0..20).collect();
        let seq = run_many(inputs.clone(), 1, |&x| x + 1);
        let par = run_many(inputs, 4, |&x| x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<u32> = run_many(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
        let out = run_many(vec![7u32], 4, |&x| x * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
        assert!(default_workers() <= 16);
    }

    /// Degenerate split: more workers than inputs must not spawn workers
    /// that have nothing to do. The job records which threads actually ran
    /// work; with 64 requested workers over 3 inputs, at most 3 distinct
    /// threads may ever touch a job (the spawn loop clamps to
    /// `workers.min(n)`), and the output is still complete and ordered.
    #[test]
    fn more_workers_than_inputs_spawns_no_empty_workers() {
        let seen = Mutex::new(Vec::<std::thread::ThreadId>::new());
        let out = run_many(vec![10u32, 20, 30], 64, |&x| {
            let mut ids = seen.lock();
            let id = std::thread::current().id();
            if !ids.contains(&id) {
                ids.push(id);
            }
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
        let distinct = seen.lock().len();
        assert!(
            (1..=3).contains(&distinct),
            "3 inputs must use at most 3 worker threads, saw {distinct}"
        );
    }

    /// The same clamp at the extreme: `usize::MAX` workers over a handful
    /// of inputs completes instead of trying to spawn the impossible.
    #[test]
    fn absurd_worker_count_is_clamped_to_input_count() {
        let out = run_many((0..5u32).collect(), usize::MAX, |&x| x * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    /// `workers = 0` means "run anyway, sequentially" — not "no workers".
    #[test]
    fn zero_workers_still_runs_everything() {
        let inputs: Vec<u32> = (0..10).collect();
        let out = run_many(inputs.clone(), 0, |&x| x * 3);
        assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    /// Empty input is a no-op on every worker count, including zero.
    #[test]
    fn empty_input_is_empty_output_for_any_worker_count() {
        for workers in [0usize, 1, 4, 64] {
            let out: Vec<u64> = run_many(Vec::<u64>::new(), workers, |&x| x);
            assert!(out.is_empty(), "workers = {workers}");
        }
    }

    /// Sequential path: a panicking job propagates its own payload to the
    /// caller unchanged — no partial results, no swallowed panic.
    #[test]
    fn panicking_job_propagates_sequentially_with_original_payload() {
        let err = std::panic::catch_unwind(|| {
            run_many(vec![1u32, 2, 3], 1, |&x| {
                if x == 2 {
                    panic!("job exploded on 2");
                }
                x
            })
        })
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the job's own &str");
        assert_eq!(msg, "job exploded on 2");
    }

    /// Parallel path: the panic still aborts the sweep and reaches the
    /// caller (via the std scoped-thread re-raise), never a partial output.
    #[test]
    fn panicking_job_propagates_from_worker_threads() {
        let err = std::panic::catch_unwind(|| {
            run_many((0..32u32).collect(), 4, |&x| {
                if x == 17 {
                    panic!("worker job exploded");
                }
                x
            })
        })
        .expect_err("panic must propagate from the scope");
        // std::thread::scope re-raises with its own payload; don't pin the
        // exact string beyond it being a str-ish panic (stable behavior).
        assert!(
            err.downcast_ref::<&str>().is_some() || err.downcast_ref::<String>().is_some(),
            "payload should be a panic message"
        );
    }

    #[test]
    fn order_preserved_when_later_inputs_finish_first() {
        // Early inputs sleep, late inputs return immediately: with more
        // than one worker the completion order is (nearly) the reverse of
        // the input order, so any indexing mistake in the per-slot writes
        // shows up as a permuted output.
        let inputs: Vec<u64> = (0..24).collect();
        let out = run_many(inputs.clone(), 8, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(8 - x));
            }
            x * 10
        });
        let expect: Vec<u64> = inputs.iter().map(|x| x * 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn heavier_jobs_still_ordered() {
        // Deliberately uneven job sizes to exercise work stealing.
        let inputs: Vec<u64> = (0..30).collect();
        let out = run_many(inputs, 6, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, (0..30).collect::<Vec<u64>>());
    }
}
