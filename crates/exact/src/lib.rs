//! # ssmdst-exact
//!
//! The fast certified-`Δ*` engine: a Fürer–Raghavachari improvement loop
//! over [`ssmdst_graph::SpanningTree`], independently checkable
//! lower-bound witnesses, and an incremental re-solve API that keeps the
//! basis alive across churn.
//!
//! `Δ*` (the minimum over spanning trees of the maximum degree) is
//! NP-hard, so the engine's contract is a **certified interval**: every
//! solve returns a tree achieving `upper` and a [`Witness`] certifying
//! `Δ* ≥ lower`, with `upper ≤ lower + 1` guaranteed at improvement
//! fixpoints and `lower = upper` (exactness) whenever the small-`n`
//! settling oracle closes the gap. Judges verify the witness themselves
//! — one BFS — so a solver bug can only make verdicts conservative,
//! never unsound.
//!
//! Layers:
//!
//! * [`ssmdst_graph::SpanningTree`] (in the graph crate) — the one tree
//!   type: flat parent/depth/degree/child-threading arrays with `O(cycle)`
//!   basis walks and `O(path + subtree)` pivots, the mutable tree the
//!   improvement loop lives on.
//! * [`witness`] — [`Witness`]: blocking-set certificates with
//!   search-independent verification.
//! * [`solve`] — [`Solver`] / [`Solution`]: the certified solve, cold
//!   ([`Solver::solve`]) or warm ([`Solver::solve_from`]).
//! * [`incremental`] — [`IncrementalSolver`]: mirror churn events,
//!   repair the basis, re-solve only dirty components with warm starts
//!   and a per-component cache.
//!
//! ```
//! use ssmdst_exact::Solver;
//! let g = ssmdst_graph::generators::structured::star_with_ring(8).unwrap();
//! let sol = Solver::default().solve(&g);
//! assert_eq!(sol.delta_star(), Some(2));
//! assert!(sol.witness.verify(&g));
//! ```

// R4: library code does not panic. A failure that an invariant makes
// unreachable carries `#[expect(clippy::expect_used, reason = "…")]`
// naming the invariant. Unit tests keep their unwraps.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod incremental;
pub mod solve;
pub mod witness;

pub use incremental::{CompSolution, IncrementalSolver, Stats, NONE};
pub use solve::{Solution, Solver, SolverBuilder};
pub use witness::Witness;
