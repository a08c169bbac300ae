//! Protocol-facing traits: [`Automaton`], [`Message`] and the [`Outbox`].
//!
//! An automaton models one processor. The simulator drives it through
//! exactly two entry points, matching the send/receive atomicity of the
//! paper's model: a spontaneous [`Automaton::tick`] (the "do forever: send
//! InfoMsg" loop head) and a [`Automaton::receive`] of a single message.
//! Both may enqueue sends into the [`Outbox`]; the simulator moves them into
//! FIFO channels after the step completes, making each step atomic.

use crate::NodeId;

/// A protocol message. `kind`/`size_bits` feed the metrics used by the
/// message-complexity and buffer-length experiments (paper §5 claims
/// `O(n log n)` maximal message length).
pub trait Message: Clone + std::fmt::Debug {
    /// Stable label for per-kind accounting ("InfoMsg", "Search", ...).
    fn kind(&self) -> &'static str;

    /// Serialized size in bits under the paper's encoding assumptions
    /// (IDs and integers take `⌈log₂ n⌉` bits).
    fn size_bits(&self, n: usize) -> usize;
}

/// One processor's state machine.
///
/// Implementations must be deterministic functions of (state, input): all
/// nondeterminism lives in the scheduler, which is what makes executions
/// reproducible and shrinkable in property tests.
pub trait Automaton {
    /// Message alphabet of the protocol.
    type Msg: Message;

    /// One spontaneous atomic step — the head of the paper's `Do forever`
    /// loop (Figure 2, line 1). Called at least once per round.
    fn tick(&mut self, out: &mut Outbox<Self::Msg>);

    /// One receive atomic step: consume `msg` from the FIFO channel
    /// `from → self`, update local state, enqueue sends.
    fn receive(&mut self, from: NodeId, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Whether the node currently has an enabled spontaneous step. The
    /// runner reads this predicate for every alive node at the start of
    /// every round, to decide which nodes get a tick, and reads it again
    /// when a tick executes, since an earlier delivery of the round may
    /// have falsified it. Implementations must derive the answer purely
    /// from local state. The default — always enabled — matches the
    /// paper's `Do forever` loop, which never terminates.
    fn enabled(&self) -> bool {
        true
    }

    /// Topology-change hook: called by the network after this node's
    /// neighbor set changes (edge churn, a neighbor crashing or rejoining).
    /// `neighbors` is the new sorted neighbor list. Implementations should
    /// refresh any captured neighbor state; the default ignores the event,
    /// which is only safe for automata that never send (stale sends after
    /// churn are dropped and counted, not delivered).
    fn on_topology_change(&mut self, _neighbors: &[NodeId]) {}
}

/// Send buffer for a single atomic step.
///
/// Messages are delivered in the order enqueued (per destination, FIFO with
/// everything previously in that channel).
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    /// Fresh empty outbox (one per atomic step).
    pub fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Enqueue `msg` for neighbor `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Number of messages staged in this step.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing has been sent.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Inspect staged messages without consuming them (useful for unit
    /// tests of protocol handlers).
    pub fn messages(&self) -> &[(NodeId, M)] {
        &self.msgs
    }

    /// Drain staged messages (simulator-internal).
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.msgs.drain(..)
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    impl Message for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
        fn size_bits(&self, n: usize) -> usize {
            usize::BITS as usize - (n.max(2) - 1).leading_zeros() as usize
        }
    }

    #[test]
    fn outbox_collects_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(3, Ping(1));
        out.send(1, Ping(2));
        assert_eq!(out.len(), 2);
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained, vec![(3, Ping(1)), (1, Ping(2))]);
        assert!(out.is_empty());
    }

    #[test]
    fn message_size_is_log_n() {
        let p = Ping(0);
        assert_eq!(p.size_bits(16), 4);
        assert_eq!(p.size_bits(1024), 10);
    }
}
