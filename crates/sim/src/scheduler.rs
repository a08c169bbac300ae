//! Schedulers (daemons): who takes the next atomic step.
//!
//! Self-stabilization proofs quantify over *all* fair executions; the
//! simulator approximates that space with three daemons. All are
//! deterministic given their seed, so any failing execution can be replayed.
//!
//! Since the event-driven engine landed, a daemon is expressed as a **key
//! source**: each pending event gets a priority key and the engine executes
//! events in ascending `(key, enumeration index)` order. It sorts one
//! 64-bit word per event (`order_word`: the high bits of a monotone
//! image of the key, with the index in the low bits) and re-sorts the
//! events whose high bits tie by the exact key. This keeps the per-event
//! cost logarithmic while preserving the exact semantics of the old
//! sort-the-whole-round pickers:
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
    #[inline]
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

/// A monotone 64-bit image of a daemon key: `k1 <= k2` implies
/// `order_image(k1) <= order_image(k2)`.
///
/// Every daemon key is below `2^64`, except a synchronous delivery's,
/// which is `1 << 96 | from << 32 | to`. Mapping that prefix to `1 << 64`
/// gives a strictly monotone value below `2^65`; dropping its lowest bit
/// brings it into a `u64`. Keys that differ only in that bit share an
/// image, which is why the image orders a round only up to ties.
#[inline]
pub(crate) fn order_image(key: u128) -> u64 {
    debug_assert!(
        key >> 64 == 0 || key >> 96 == 1,
        "not a daemon key: {key:#x}"
    );
    let low = key as u64;
    if key >> 96 != 0 {
        1 << 63 | low >> 1
    } else {
        low >> 1
    }
}

/// The 64-bit sort word of one obligation: [`order_image`]`(key)` with the
/// low bits that `seq_mask` covers replaced by the enumeration index `seq`
/// (`seq_mask` is `2^b - 1` for some `b <= 32`, and `seq <= seq_mask`).
///
/// Two words whose high parts differ are ordered exactly as their
/// `(key, seq)` pairs, because the image is monotone. Words whose high
/// parts tie are ordered by `seq` alone, which may disagree with the keys
/// in the bits the word dropped; the event queue re-sorts each such run by
/// the exact `(key, seq)` after the word sort.
#[inline]
pub(crate) fn order_word(key: u128, seq: u32, seq_mask: u64) -> u64 {
    order_image(key) & !seq_mask | seq as u64
}

/// Deterministic 64-bit mix for the adversarial daemon (splitmix64 core).
#[inline]
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

    /// Sort words compare exactly as `(key, seq)` tuples wherever their
    /// high parts differ, for every `seq` width from 0 to 32 bits and the
    /// key ranges every daemon produces: tick ids, synchronous deliveries
    /// at or above `2^96` (extreme endpoints included) and full-width `u64`
    /// random/adversarial keys. Where the high parts tie, the words order
    /// by `seq` alone; the set includes keys whose high parts tie while
    /// their low bits differ, and equal keys that only `seq` splits, so
    /// some tied pairs disagree with `(key, seq)` — the pairs the event
    /// queue's tie pass re-sorts.
    #[test]
    fn order_words_compare_as_key_seq_tuples() {
        let deliver = |f: u32, t: u32| (1u128 << 96) | ((f as u128) << 32) | t as u128;
        let keys = [
            0,
            1,
            2,
            3,
            0x1e,
            0x21,
            u32::MAX as u128,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX as u128 - 1,
            u64::MAX as u128,
            deliver(0, 0),
            deliver(0, 1),
            deliver(0, 2),
            deliver(0, u32::MAX),
            deliver(1, 0),
            deliver(u32::MAX, u32::MAX - 1),
            deliver(u32::MAX, u32::MAX),
        ];
        let mut misordered_ties = 0;
        for seq_bits in [0, 1, 5, 17, 32] {
            let mask = (1u64 << seq_bits) - 1;
            let seqs: Vec<u32> = [0, 1, 7, 31, u32::MAX - 1, u32::MAX]
                .into_iter()
                .filter(|&s| u64::from(s) <= mask)
                .collect();
            for &k1 in &keys {
                for &k2 in &keys {
                    if k1 <= k2 {
                        assert!(order_image(k1) <= order_image(k2), "{k1:#x} vs {k2:#x}");
                    }
                    for &s1 in &seqs {
                        for &s2 in &seqs {
                            let (w1, w2) = (order_word(k1, s1, mask), order_word(k2, s2, mask));
                            let exact = (k1, s1).cmp(&(k2, s2));
                            let case =
                                format!("({k1:#x}, {s1}) vs ({k2:#x}, {s2}), {seq_bits} bits");
                            if w1 & !mask != w2 & !mask {
                                assert_eq!(w1.cmp(&w2), exact, "{case}");
                            } else {
                                assert_eq!(w1.cmp(&w2), s1.cmp(&s2), "{case}");
                                misordered_ties += usize::from(w1.cmp(&w2) != exact);
                            }
                        }
                    }
                }
            }
        }
        assert!(misordered_ties > 0, "no tie that the word alone misorders");
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
