//! Named stop predicates — the single source of truth for convergence
//! detection.
//!
//! Every quiescence check — [`crate::Session::run_to_quiescence`], the
//! scenario engine's phase loop and the experiment harness's recovery
//! runs — goes through one named predicate, [`QuiescenceGate`], so "the
//! projection has been stable for W consecutive rounds" means exactly the
//! same thing everywhere — a boundary test in this module pins the firing
//! round.

#![warn(missing_docs)]

/// Canonical quiescence-confirmation window for an `n`-node run, shared by
/// the facade, the experiment harness and the dynamic-topology tests so
/// they all judge stability identically: `max(6n, 64)` rounds — long
/// enough that periodic protocol activity with an `O(n)` period (e.g. the
/// MDST search wave, period `2n`, plus an improvement of `≤ 2n` hops)
/// cannot hide inside it.
pub fn quiet_window(n: usize) -> u64 {
    (6 * n as u64).max(64)
}

/// The named quiescence predicate: fires once a projection of the global
/// state has been *unchanged for `window` consecutive observations*.
///
/// Prime it with the pre-run projection ([`QuiescenceGate::primed`]) so
/// the very first round already counts toward the streak when nothing
/// moved — the semantics every driver historically used. One observation
/// per completed round; [`QuiescenceGate::observe`] returns `true` from
/// the round the streak reaches the window onward.
#[derive(Debug, Clone)]
pub struct QuiescenceGate<P> {
    window: u64,
    /// The reference projection the streak compares against.
    last: Option<P>,
    /// Consecutive observations equal to `last`.
    stable_for: u64,
}

impl<P: PartialEq> QuiescenceGate<P> {
    /// Gate with no reference value yet: the first observation only seeds
    /// the streak.
    pub fn new(window: u64) -> Self {
        QuiescenceGate {
            window,
            last: None,
            stable_for: 0,
        }
    }

    /// Gate seeded with the pre-run projection, so a run that never
    /// changes state confirms after exactly `window` rounds.
    pub fn primed(window: u64, initial: P) -> Self {
        QuiescenceGate {
            window,
            last: Some(initial),
            stable_for: 0,
        }
    }

    /// Offer the current projection; `true` once it has been stable for
    /// the full window.
    pub fn observe(&mut self, value: P) -> bool {
        if self.last.as_ref() == Some(&value) {
            self.stable_for += 1;
        } else {
            self.last = Some(value);
            self.stable_for = 0;
        }
        self.stable_for >= self.window
    }

    /// The confirmation window this gate enforces.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Current stable streak (0 right after a change).
    pub fn stable_for(&self) -> u64 {
        self.stable_for
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boundary: a primed gate over an unchanging projection fires on
    /// exactly the `window`-th observation — not one earlier, not one
    /// later. This is the round-count contract the golden traces and
    /// every `conv_round` column rely on.
    #[test]
    fn primed_gate_fires_exactly_at_the_window() {
        let window = 5;
        let mut gate = QuiescenceGate::primed(window, 42u32);
        for i in 1..window {
            assert!(!gate.observe(42), "fired early at observation {i}");
        }
        assert!(gate.observe(42), "must fire at observation {window}");
        assert!(gate.observe(42), "stays fired while stable");
    }

    /// Any change resets the streak; returning to an old value is a
    /// change like any other.
    #[test]
    fn change_resets_the_streak() {
        let mut gate = QuiescenceGate::primed(3, 1u32);
        assert!(!gate.observe(1));
        assert!(!gate.observe(2), "change resets");
        assert_eq!(gate.stable_for(), 0);
        assert!(!gate.observe(1), "old value is still a change");
        assert!(!gate.observe(1));
        assert!(!gate.observe(1));
        assert!(gate.observe(1));
    }

    /// An unprimed gate needs one extra observation to seed the
    /// reference value.
    #[test]
    fn unprimed_gate_seeds_on_first_observation() {
        let mut gate = QuiescenceGate::new(2);
        assert!(!gate.observe(7u32), "seeding observation");
        assert!(!gate.observe(7));
        assert!(gate.observe(7));
        assert_eq!(gate.window(), 2);
    }

    /// The streak counts consecutive equal observations from 0 and
    /// restarts at 0 on a change.
    #[test]
    fn streak_counts_consecutive_equal_observations() {
        let mut gate = QuiescenceGate::new(u64::MAX);
        assert_eq!(gate.stable_for(), 0, "no observation yet");
        gate.observe(1u32); // first observation seeds the reference
        assert_eq!(gate.stable_for(), 0);
        gate.observe(1);
        gate.observe(1);
        assert_eq!(gate.stable_for(), 2);
        gate.observe(2); // change resets
        assert_eq!(gate.stable_for(), 0);
        gate.observe(2);
        assert_eq!(gate.stable_for(), 1);
    }

    /// An equal-value run grows the streak without bound.
    #[test]
    fn streak_grows_unbounded_on_an_equal_run() {
        let mut gate = QuiescenceGate::new(u64::MAX);
        for i in 0..1000u64 {
            assert!(!gate.observe(42u8));
            assert_eq!(gate.stable_for(), i);
        }
        assert_eq!(gate.stable_for(), 999);
    }

    /// Window 0 degenerates to "stop after the first observation" — the
    /// behavior of `Session::run_to_quiescence(0, _)`.
    #[test]
    fn zero_window_fires_immediately() {
        let mut gate = QuiescenceGate::primed(0, 1u32);
        assert!(gate.observe(99), "0-window fires on any observation");
    }
}
