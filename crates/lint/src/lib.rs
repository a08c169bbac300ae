//! `ssmdst-lint` — contract-enforcing static analysis for this workspace.
//!
//! The repository's load-bearing guarantees are *behavioural*: bit-exact
//! per-seed replay digests, a zero-allocation steady-state round loop,
//! explicit-seed-only randomness, and listed-options errors instead of
//! panics. Each is enforced dynamically (scenario corpus, counting
//! allocator, golden traces) — which means a violation is caught only
//! after it executes. This crate is the static
//! complement: an offline, dependency-free pass with a hand-rolled Rust
//! lexer ([`lexer`]) and a rule engine ([`engine`]) that walks every
//! workspace `.rs` file and flags, at its source line, code that *would*
//! break a contract:
//!
//! | code | rule | contract it guards |
//! |------|------|--------------------|
//! | R1 | `no-unordered-collections` | bit-exact replay (golden traces, scenario corpus) |
//! | R2 | `no-ambient-entropy` | explicit-seed determinism (PR 1) |
//! | R3 | `zero-alloc-hot-path` | the alloc meter (`tests/zero_alloc.rs`, PR 3) |
//! | R4 | `no-panic-in-library` | listed-options errors (PR 7 CLI/scn conventions) |
//! | R5 | `annotation-hygiene` | the suppressions themselves |
//!
//! Violations that are genuinely fine carry a reasoned suppression:
//!
//! ```text
//! let start = Instant::now(); // lint: allow(no-ambient-entropy) — observation-side timing
//! ```
//!
//! and R5 guarantees the excuse stays honest: no reason, unknown rule, or
//! a suppression that no longer masks anything is itself a violation.
//!
//! The tool lints itself (this crate is part of the walked workspace), is
//! fixture-tested against a committed corpus of seeded-violation and
//! hostile-negative files (`tests/fixtures/`), and gates CI: `ssmdst-lint
//! check` exits 0 only on a clean tree.

// Library code must not grow bare `.unwrap()`s: use `.expect` with the
// invariant that makes failure unreachable (ssmdst-lint R4 audits the
// reasons). Unit tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{check_tree, classify, lint_source, FileClass, Report, TargetKind};
pub use lexer::{lex, LexError, Lexed};
pub use rules::{Finding, Rule, ALL_RULES};
