//! Schedulers (daemons): who takes the next atomic step.
//!
//! Self-stabilization proofs quantify over *all* fair executions; the
//! simulator approximates that space with three daemons. All are
//! deterministic given their seed, so any failing execution can be replayed.
//!
//! Since the event-driven engine landed, a daemon is expressed as a **key
//! source**: each pending event gets a priority key and the engine executes
//! events in ascending `(key, enumeration index)` order. This keeps the
//! per-event cost logarithmic while preserving the exact semantics of the
//! old sort-the-whole-round pickers:
//!
//! * [`Scheduler::Synchronous`] keys ticks before deliveries, each in id /
//!   channel order — the classic lockstep round;
//! * [`Scheduler::RandomAsync`] draws one `u64` per event from a seeded
//!   [`StdRng`]; ordering by independent uniform keys is a uniformly random
//!   permutation of the round's obligations;
//! * [`Scheduler::Adversarial`] keys by a seeded hash that is sticky across
//!   rounds, consistently favoring some channels and starving others as
//!   long as fairness permits.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Daemon selecting among enabled atomic steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Lockstep: every round, all nodes tick in id order, then all messages
    /// present at the start of the round are delivered in deterministic
    /// channel order. The fastest executions; used for large sweeps.
    Synchronous,
    /// Uniformly random fair interleaving: within each round the set of
    /// obligations (every enabled node ticks once, every message present at
    /// round start is delivered) is discharged in a random order.
    RandomAsync { seed: u64 },
    /// Deterministic unfair-within-round daemon: obligations are discharged
    /// in an order keyed by a seeded hash, consistently favoring some
    /// channels and starving others as long as fairness permits. Stresses
    /// the protocol's tolerance to skewed relative speeds.
    Adversarial { seed: u64 },
}

/// An enabled atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Spontaneous step at a node.
    Tick(u32),
    /// Deliver the head of channel `(from, to)`.
    Deliver(u32, u32),
}

/// Per-run priority-key source: the runner constructs one per run and asks
/// it for one key per pending event. Events run in ascending key order,
/// ties broken by enumeration order (ticks in id order first, then channel
/// deliveries in channel order), which makes every daemon a total,
/// reproducible order.
pub(crate) struct KeySource {
    sched: Scheduler,
    rng: Option<StdRng>,
}

impl KeySource {
    pub(crate) fn new(sched: Scheduler) -> Self {
        let rng = match sched {
            Scheduler::RandomAsync { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        KeySource { sched, rng }
    }

    /// Priority key for one pending event of round `round`. For
    /// `RandomAsync` this consumes one value from the seeded stream, so the
    /// caller must request keys in the canonical enumeration order.
    pub(crate) fn key(&mut self, round: u64, a: &Action) -> u128 {
        match self.sched {
            Scheduler::Synchronous => match *a {
                // Ticks strictly before deliveries, each in natural order.
                Action::Tick(v) => v as u128,
                Action::Deliver(f, t) => (1u128 << 96) | ((f as u128) << 32) | t as u128,
            },
            Scheduler::RandomAsync { .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "KeySource::new seeds rng whenever the daemon is RandomAsync"
                )]
                let rng = self.rng.as_mut().expect("random daemon has rng");
                rng.random::<u64>() as u128
            }
            Scheduler::Adversarial { seed } => hash_action(seed, round, a) as u128,
        }
    }
}

/// The packed sort word of one obligation: `order(key) << 32 | seq`.
///
/// Every daemon key is below `2^64`, except a synchronous delivery's,
/// which is `1 << 96 | from << 32 | to`. `order` maps that prefix to
/// `1 << 64`, so every order value is below `2^65` and the word fits a
/// `u128`. The map is strictly monotone in `key` (ticks stay below `2^32`,
/// every delivery lands at or above `2^64`), and `seq` is unique within a
/// round, so ascending words are exactly ascending `(key, seq)`.
#[inline]
pub(crate) fn order_word(key: u128, seq: u32) -> u128 {
    let order = if key >> 96 != 0 {
        1 << 64 | (key & u64::MAX as u128)
    } else {
        key
    };
    order << 32 | seq as u128
}

/// Deterministic 64-bit mix for the adversarial daemon (splitmix64 core).
fn hash_action(seed: u64, round: u64, a: &Action) -> u64 {
    let x = match *a {
        Action::Tick(v) => (v as u64) << 1,
        Action::Deliver(f, t) => ((f as u64) << 33) | ((t as u64) << 1) | 1,
    };
    // Round enters with a small weight so priorities are sticky across
    // rounds but not frozen forever.
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round / 16);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obligations() -> Vec<Action> {
        vec![
            Action::Deliver(1, 0),
            Action::Tick(2),
            Action::Tick(0),
            Action::Deliver(0, 1),
        ]
    }

    /// Order a round's obligations the way the engine does: ascending
    /// (key, enumeration index).
    fn order(ks: &mut KeySource, round: u64, obligations: Vec<Action>) -> Vec<Action> {
        let mut keyed: Vec<(u128, usize, Action)> = obligations
            .into_iter()
            .enumerate()
            .map(|(i, a)| (ks.key(round, &a), i, a))
            .collect();
        keyed.sort_unstable_by_key(|e| (e.0, e.1));
        keyed.into_iter().map(|(_, _, a)| a).collect()
    }

    #[test]
    fn synchronous_orders_ticks_first_then_channels() {
        let mut ks = KeySource::new(Scheduler::Synchronous);
        let ordered = order(&mut ks, 0, obligations());
        assert_eq!(
            ordered,
            vec![
                Action::Tick(0),
                Action::Tick(2),
                Action::Deliver(0, 1),
                Action::Deliver(1, 0),
            ]
        );
    }

    #[test]
    fn random_async_is_seed_deterministic() {
        let mut a = KeySource::new(Scheduler::RandomAsync { seed: 5 });
        let mut b = KeySource::new(Scheduler::RandomAsync { seed: 5 });
        assert_eq!(
            order(&mut a, 0, obligations()),
            order(&mut b, 0, obligations())
        );
    }

    #[test]
    fn random_async_differs_across_seeds_eventually() {
        // With 4 obligations a single-round collision is possible; check
        // over several rounds.
        let mut a = KeySource::new(Scheduler::RandomAsync { seed: 1 });
        let mut b = KeySource::new(Scheduler::RandomAsync { seed: 2 });
        let same =
            (0..10).all(|r| order(&mut a, r, obligations()) == order(&mut b, r, obligations()));
        assert!(!same);
    }

    #[test]
    fn adversarial_is_deterministic_and_sticky() {
        let mut a = KeySource::new(Scheduler::Adversarial { seed: 9 });
        let mut b = KeySource::new(Scheduler::Adversarial { seed: 9 });
        // Same order for the same round...
        assert_eq!(
            order(&mut a, 3, obligations()),
            order(&mut b, 3, obligations())
        );
        // ...and sticky across adjacent rounds (division by 16 in the hash).
        assert_eq!(
            order(&mut a, 4, obligations()),
            order(&mut b, 5, obligations())
        );
    }

    /// Packed words compare exactly as `(key, seq)` tuples, across the
    /// key ranges every daemon produces: tick ids, synchronous deliveries
    /// at or above `2^96` (extreme endpoints included) and full-width
    /// `u64` random/adversarial keys, with equal keys split by `seq`.
    #[test]
    fn order_words_compare_as_key_seq_tuples() {
        let deliver = |f: u32, t: u32| (1u128 << 96) | ((f as u128) << 32) | t as u128;
        let keys = [
            0,
            1,
            u32::MAX as u128,
            1 << 32,
            u64::MAX as u128 - 1,
            u64::MAX as u128,
            deliver(0, 0),
            deliver(0, u32::MAX),
            deliver(1, 0),
            deliver(u32::MAX, u32::MAX - 1),
            deliver(u32::MAX, u32::MAX),
        ];
        let seqs = [0, 1, 7, u32::MAX - 1, u32::MAX];
        for &k1 in &keys {
            for &k2 in &keys {
                for &s1 in &seqs {
                    for &s2 in &seqs {
                        assert_eq!(
                            order_word(k1, s1).cmp(&order_word(k2, s2)),
                            (k1, s1).cmp(&(k2, s2)),
                            "({k1:#x}, {s1}) vs ({k2:#x}, {s2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn synchronous_keys_are_pure() {
        // Synchronous keys depend only on the action, never on round or
        // call order — the lockstep order is frozen forever.
        let mut ks = KeySource::new(Scheduler::Synchronous);
        let k1 = ks.key(0, &Action::Deliver(3, 4));
        let k2 = ks.key(17, &Action::Deliver(3, 4));
        assert_eq!(k1, k2);
        assert!(ks.key(0, &Action::Tick(u32::MAX)) < ks.key(0, &Action::Deliver(0, 0)));
    }
}
