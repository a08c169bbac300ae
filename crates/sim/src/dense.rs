//! [`DenseSet`]: an ordered O(1)-membership set over dense `u32` keys.
//!
//! The flat message fabric needs two incremental indices — "which channel
//! slots are non-empty" and "which nodes have an enabled tick" — whose
//! empty↔non-empty transitions fire on *every* send and delivery, and
//! which the engine enumerates in ascending order every round. A
//! `BTreeSet` makes each transition `O(log k)` plus node allocations; this
//! structure is a two-level bitset that makes them O(1) and
//! allocation-free at steady state:
//!
//! * `bits` — one bit per key (`bits[k / 64]` bit `k % 64`);
//! * `summary` — one bit per `bits` word, set exactly when that word is
//!   non-zero, so a 64-bit summary word covers 4096 keys.
//!
//! [`DenseSet::extend_sorted`] walks the set summary bits and then the set
//! key bits, so members come out in ascending order in
//! `O(k + universe / 4096)` with no sort; the walk stops as soon as all
//! `k` members are out, so the summary term only reaches up to the
//! largest member.

/// `u32::MAX` is reserved as the NONE sentinel and is never a member.
/// Inserting it would grow the bitset to 2³² bits (512 MiB) on a caller's
/// "no key" value; checked builds reject it instead.
const NONE: u32 = u32::MAX;

/// O(1) insert/remove/contains set over keys `0..universe`, with
/// ascending enumeration. Grows its key space on demand.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseSet {
    bits: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl DenseSet {
    pub(crate) fn new() -> Self {
        DenseSet::default()
    }

    /// Number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is a member. Keys beyond the current universe are
    /// simply absent.
    #[inline]
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.bits
            .get(key as usize / 64)
            .is_some_and(|&w| w >> (key % 64) & 1 != 0)
    }

    /// Insert `key`; no-op if already present. Amortized O(1) (the tables
    /// grow to cover the largest key ever seen, then stay put).
    ///
    /// Key contract (checked in debug builds): `key` must not be
    /// `u32::MAX`, the reserved NONE sentinel. At the 10M-node scale keys
    /// are node ids or channel slots (`< 2m`), far under that boundary.
    #[inline]
    pub(crate) fn insert(&mut self, key: u32) {
        debug_assert_ne!(key, NONE, "DenseSet key collides with the NONE sentinel");
        let w = key as usize / 64;
        if self.bits.len() <= w {
            self.bits.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        let bit = 1u64 << (key % 64);
        let word = &mut self.bits[w];
        if *word & bit == 0 {
            if *word == 0 {
                self.summary[w / 64] |= 1u64 << (w % 64);
            }
            *word |= bit;
            self.len += 1;
        }
    }

    /// Remove `key`; no-op if absent. O(1).
    #[inline]
    pub(crate) fn remove(&mut self, key: u32) {
        let w = key as usize / 64;
        let Some(word) = self.bits.get_mut(w) else {
            return;
        };
        let bit = 1u64 << (key % 64);
        if *word & bit != 0 {
            *word &= !bit;
            if *word == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
            self.len -= 1;
        }
    }

    /// Append the members to `out` in ascending order:
    /// `O(k + universe / 4096)`, stopping once all `k` members are out.
    // Allocation-free: tests/zero_alloc.rs meters it.
    #[inline]
    pub(crate) fn extend_sorted(&self, out: &mut Vec<u32>) {
        let mut left = self.len;
        for (si, &s) in self.summary.iter().enumerate() {
            if left == 0 {
                break;
            }
            let mut s = s;
            while s != 0 {
                let w = si * 64 + s.trailing_zeros() as usize;
                s &= s - 1;
                let mut b = self.bits[w];
                left -= b.count_ones() as usize;
                while b != 0 {
                    out.push((w * 64) as u32 + b.trailing_zeros());
                    b &= b - 1;
                }
            }
        }
    }

    /// Drop all members in `O(k + universe / 4096)`.
    pub(crate) fn clear(&mut self) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            while *s != 0 {
                self.bits[si * 64 + s.trailing_zeros() as usize] = 0;
                *s &= *s - 1;
            }
        }
        self.len = 0;
    }

    /// Structural audit for [`crate::network::Network::check_invariants`]:
    /// each summary bit must say exactly whether its word is non-zero, and
    /// `len` must count the set bits.
    pub(crate) fn check_consistent(&self) {
        assert_eq!(
            self.summary.len(),
            self.bits.len().div_ceil(64),
            "DenseSet: summary does not cover the bit words"
        );
        for (w, &word) in self.bits.iter().enumerate() {
            assert_eq!(
                self.summary[w / 64] >> (w % 64) & 1 != 0,
                word != 0,
                "DenseSet: summary bit of word {w} disagrees with the word"
            );
        }
        let beyond = self.bits.len() % 64;
        if beyond != 0 {
            assert_eq!(
                self.summary.last().map(|&s| s >> beyond),
                Some(0),
                "DenseSet: summary marks words past the bit table"
            );
        }
        let members: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(members, self.len, "DenseSet: len disagrees with the bits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sorted(s: &DenseSet) -> Vec<u32> {
        let mut out = Vec::new();
        s.extend_sorted(&mut out);
        out
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = DenseSet::new();
        assert!(s.is_empty());
        s.insert(5);
        s.insert(2);
        s.insert(5); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(5) && s.contains(2));
        assert!(!s.contains(0) && !s.contains(99));
        s.remove(5);
        assert!(!s.contains(5));
        s.remove(5); // idempotent
        s.remove(99); // beyond universe: no-op
        assert_eq!(sorted(&s), vec![2]);
        s.check_consistent();
    }

    #[test]
    fn remove_keeps_the_rest_in_ascending_order() {
        let mut s = DenseSet::new();
        for k in [30, 10, 20, 4100] {
            s.insert(k);
        }
        s.remove(10);
        assert!(s.contains(30) && s.contains(20) && !s.contains(10));
        s.check_consistent();
        assert_eq!(sorted(&s), vec![20, 30, 4100]);
        // Emptying a word clears its summary bit; the word's neighbours in
        // the same summary word stay listed.
        s.remove(4100);
        s.check_consistent();
        assert_eq!(sorted(&s), vec![20, 30]);
    }

    #[test]
    fn extend_sorted_appends() {
        let mut s = DenseSet::new();
        s.insert(64);
        s.insert(63);
        let mut out = vec![7];
        s.extend_sorted(&mut out);
        assert_eq!(out, vec![7, 63, 64]);
    }

    #[test]
    fn clear_empties_and_stays_consistent() {
        let mut s = DenseSet::new();
        for k in 0..100 {
            s.insert(k);
        }
        s.insert(9000);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(50) && !s.contains(9000));
        s.check_consistent();
        s.insert(7);
        assert_eq!(sorted(&s), vec![7]);
    }

    /// Regression fence at the u32 boundary: `u32::MAX` is the reserved
    /// NONE sentinel, so inserting it must fail loudly in checked builds
    /// rather than grow the bit table to cover the 4-billion-key universe
    /// (querying or removing it is still a harmless no-op).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NONE sentinel")]
    fn sentinel_key_panics_in_checked_builds() {
        DenseSet::new().insert(u32::MAX);
    }

    #[test]
    fn sentinel_key_reads_as_absent() {
        let mut s = DenseSet::new();
        s.insert(7);
        assert!(!s.contains(u32::MAX));
        s.remove(u32::MAX); // no-op, not a panic
        assert_eq!(sorted(&s), vec![7]);
        s.check_consistent();
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut s = DenseSet::new();
        for round in 0..50u32 {
            for k in 0..200u32 {
                if (k.wrapping_mul(2654435761) ^ round) & 1 == 0 {
                    s.insert(k);
                } else {
                    s.remove(k);
                }
            }
            s.check_consistent();
        }
    }

    /// Random inserts and removes against a `BTreeSet` oracle: after a
    /// dense phase (most keys of a small universe present) and after a
    /// sparse phase (a few keys scattered over a large universe),
    /// `extend_sorted` is the ascending member list and `len`/`contains`
    /// agree with the oracle.
    #[test]
    fn random_operations_match_an_ordered_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        let mut s = DenseSet::new();
        let mut oracle = BTreeSet::new();
        let check = |s: &DenseSet, oracle: &BTreeSet<u32>, universe: u32| {
            s.check_consistent();
            assert_eq!(s.len(), oracle.len());
            assert_eq!(sorted(s), oracle.iter().copied().collect::<Vec<_>>());
            for k in (0..universe).step_by(7) {
                assert_eq!(s.contains(k), oracle.contains(&k), "key {k}");
            }
        };
        // (universe, insert probability, operations)
        for (universe, p_insert, ops) in [(600u32, 0.8, 3000), (300_000, 0.3, 2000)] {
            for _ in 0..ops {
                let k = rng.random_range(0..universe);
                if rng.random::<f64>() < p_insert {
                    s.insert(k);
                    oracle.insert(k);
                } else {
                    s.remove(k);
                    oracle.remove(&k);
                }
            }
            check(&s, &oracle, universe);
            // Thin the dense phase out so the sparse phase starts sparse.
            let drop: Vec<u32> = oracle.iter().copied().filter(|k| k % 5 != 0).collect();
            for k in drop {
                s.remove(k);
                oracle.remove(&k);
            }
            check(&s, &oracle, universe);
        }
    }
}
