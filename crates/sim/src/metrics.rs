//! Execution metrics: message counts by kind, sizes, and round accounting.
//!
//! These drive experiments T3 (message complexity), T4 (memory), F5
//! (message-length claim `O(n log n)`).
//!
//! `on_send`/`on_deliver` sit on the fabric's per-message hot path, so the
//! per-kind table is a small flat vector probed by `&'static str` pointer
//! identity first (protocols hand in interned literals, so the fast path
//! is a handful of pointer compares), falling back to a string compare for
//! distinct literals with equal text. No ordered map, no allocation after
//! a kind's first appearance.

/// Exponential bucket projection used by coverage signatures: `0` for `0`,
/// else `floor(log2(x)) + 1` — so `1`, `2..=3`, `4..=7`, … each land in one
/// stable bucket. Collapsing raw counters this way makes behavioural
/// signatures insensitive to ±1 message jitter while still separating
/// order-of-magnitude regime changes.
pub fn log2_bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Per-message-kind statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Messages sent of this kind.
    pub sent: u64,
    /// Messages delivered of this kind.
    pub delivered: u64,
    /// Largest serialized size (bits) observed for this kind.
    pub max_size_bits: usize,
    /// Sum of serialized sizes (bits) over all sends — divided by `sent`
    /// this gives the mean message length.
    pub total_size_bits: u64,
}

/// Aggregated metrics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Per-kind stats, unordered, linear-probed (protocols have ≤ ~10
    /// kinds; [`Metrics::kinds`] sorts on read).
    by_kind: Vec<(&'static str, KindStats)>,
    /// Total messages sent (all kinds).
    pub total_sent: u64,
    /// Total messages delivered.
    pub total_delivered: u64,
    /// Completed rounds.
    pub rounds: u64,
    /// Peak number of undelivered messages across all channels (buffer
    /// occupancy high-water mark).
    pub peak_in_flight: usize,
    /// Sends addressed to a departed neighbor after topology churn; such
    /// messages are lost in transit rather than delivered (the static-
    /// topology invariant treats them as a bug and panics instead).
    pub dropped_sends: u64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find-or-insert the stats entry for `kind`: pointer-identity fast
    /// path, string-equality fallback, push on first sight.
    #[inline]
    fn entry(&mut self, kind: &'static str) -> &mut KindStats {
        let idx = self
            .by_kind
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, kind) || k == kind);
        let idx = match idx {
            Some(i) => i,
            None => {
                self.by_kind.push((kind, KindStats::default()));
                self.by_kind.len() - 1
            }
        };
        &mut self.by_kind[idx].1
    }

    /// Record a send of a message with the given kind/size.
    #[inline]
    pub fn on_send(&mut self, kind: &'static str, size_bits: usize) {
        let e = self.entry(kind);
        e.sent += 1;
        e.max_size_bits = e.max_size_bits.max(size_bits);
        e.total_size_bits += size_bits as u64;
        self.total_sent += 1;
    }

    /// Record a delivery.
    #[inline]
    pub fn on_deliver(&mut self, kind: &'static str) {
        self.entry(kind).delivered += 1;
        self.total_delivered += 1;
    }

    /// Record current in-flight message count (called by the network after
    /// each step).
    #[inline]
    pub fn on_in_flight(&mut self, in_flight: usize) {
        self.peak_in_flight = self.peak_in_flight.max(in_flight);
    }

    /// Stats for one kind, zeroed if never seen.
    pub fn kind(&self, kind: &str) -> KindStats {
        self.by_kind
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    /// All kinds seen, in lexicographic order (sorted on read — this is a
    /// reporting path, not the hot path).
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &KindStats)> {
        let mut view: Vec<(&'static str, &KindStats)> =
            self.by_kind.iter().map(|(k, v)| (*k, v)).collect();
        view.sort_unstable_by_key(|&(k, _)| k);
        view.into_iter()
    }

    /// Bucketed per-kind send counts, in lexicographic kind order — the
    /// messages-by-kind projection coverage signatures fold. Buckets are
    /// [`log2_bucket`] of the send count, so the projection is stable
    /// under small count jitter but distinguishes traffic regimes.
    pub fn kind_buckets(&self) -> Vec<(&'static str, u32)> {
        self.kinds()
            .map(|(k, s)| (k, log2_bucket(s.sent)))
            .collect()
    }

    /// Largest message observed across all kinds (bits).
    pub fn max_message_bits(&self) -> usize {
        self.by_kind
            .iter()
            .map(|(_, s)| s.max_size_bits)
            .max()
            .unwrap_or(0)
    }

    /// Reset all counters (the fault-recovery experiment measures the
    /// post-fault phase in isolation).
    pub fn reset(&mut self) {
        *self = Metrics::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_deliver_accounting() {
        let mut m = Metrics::new();
        m.on_send("InfoMsg", 32);
        m.on_send("InfoMsg", 48);
        m.on_send("Search", 300);
        m.on_deliver("InfoMsg");
        assert_eq!(m.total_sent, 3);
        assert_eq!(m.total_delivered, 1);
        let info = m.kind("InfoMsg");
        assert_eq!(info.sent, 2);
        assert_eq!(info.delivered, 1);
        assert_eq!(info.max_size_bits, 48);
        assert_eq!(info.total_size_bits, 80);
        assert_eq!(m.max_message_bits(), 300);
    }

    #[test]
    fn unknown_kind_is_zeroed() {
        let m = Metrics::new();
        assert_eq!(m.kind("Nope"), KindStats::default());
    }

    #[test]
    fn in_flight_high_water_mark() {
        let mut m = Metrics::new();
        m.on_in_flight(3);
        m.on_in_flight(10);
        m.on_in_flight(5);
        assert_eq!(m.peak_in_flight, 10);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = Metrics::new();
        m.on_send("X", 8);
        m.rounds = 9;
        m.reset();
        assert_eq!(m.total_sent, 0);
        assert_eq!(m.rounds, 0);
        assert_eq!(m.kinds().count(), 0);
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(7), 3);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn kind_buckets_project_sent_counts() {
        let mut m = Metrics::new();
        for _ in 0..5 {
            m.on_send("Beta", 8);
        }
        m.on_send("Alpha", 8);
        assert_eq!(m.kind_buckets(), vec![("Alpha", 1), ("Beta", 3)]);
    }

    #[test]
    fn kinds_iterates_lexicographically() {
        let mut m = Metrics::new();
        m.on_send("Zeta", 1);
        m.on_send("Alpha", 1);
        let order: Vec<_> = m.kinds().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["Alpha", "Zeta"]);
    }
}
