//! The protocol's message alphabet (paper §3.1 "Messages").
//!
//! | Paper message | Here | Payload | Purpose |
//! |---|---|---|---|
//! | `InfoMsg` | [`Msg::Info`] | [`NbrView`] | gossip local variables to neighbors |
//! | `Search` | [`Msg::Search`] | [`Search`] | DFS token discovering a fundamental cycle |
//! | `Remove` | [`Msg::Remove`] | [`Remove`] | delete a tree edge at a max-degree node |
//! | `Remove` (continuation) / `Back` / `Reverse` | [`Msg::Flip`] | [`Flip`] | re-orient parents along the reversed cycle arc |
//! | `Deblock` | [`Msg::Deblock`] | inline | flood asking a blocking node's subtree for help |
//! | `UpdateDist` | [`Msg::DistChain`], [`Msg::DistFlood`] | [`DistChain`], inline | repair distances after a reversal |
//!
//! A multi-field message is one payload struct. An `InfoMsg` carries
//! exactly the record the receiver mirrors.
//!
//! The four payloads that carry a path (`Search`, `Remove`, `Flip`,
//! `DistChain`) are boxed. Every event moves a `Msg` through an outbox and
//! a channel, and most events are `InfoMsg` gossip, so the enum's size is
//! paid per event: inline, these payloads would make `Msg` 80 bytes;
//! boxed, it is 32 (`msg_stays_within_32_bytes` pins it). A handler takes
//! the `Box` and forwards the same one, updating the hop fields in place,
//! so a token allocates only where a new kind of message starts (a search
//! launch, a `Remove` at its cycle, the `Flip` at commit and the
//! `DistChain` at the flip's terminal), never per hop.
//!
//! Sizes are accounted in bits with the paper's convention that IDs,
//! degrees and distances cost `⌈log₂ n⌉` bits; the `path` lists make
//! `Search`/`Remove` the `O(n log n)` messages of the paper's buffer-length
//! analysis (experiment F5 measures exactly this).

use crate::state::NbrView;
use crate::NodeId;
use ssmdst_sim::Message;

/// One hop of a search path: `(node, its tree degree when visited)`.
pub type PathEntry = (NodeId, u32);

/// DFS token looking for the fundamental cycle of the non-tree edge
/// `{init.0, init.1}` (`init.0` is the lower-ID initiator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Search {
    /// `(initiator a, target b)` endpoints of the non-tree edge.
    pub init: (NodeId, NodeId),
    /// Blocking node this search works for, with the remaining deblock
    /// recursion budget (`None` for plain searches).
    pub idblock: Option<(NodeId, u8)>,
    /// `dmax` snapshot at launch; any hop seeing a different local `dmax`
    /// discards the token as stale.
    pub dmax: u32,
    /// DFS stack: tree path from the initiator to the current holder, with
    /// each node's degree at visit time.
    pub path: Vec<PathEntry>,
    /// All nodes ever visited (DFS "marked" set, carried in the token so
    /// nodes stay stateless w.r.t. searches).
    pub visited: Vec<NodeId>,
    /// Whether this hop is a backtrack return to the stack top.
    pub backtrack: bool,
}

/// Commit request: swap non-tree edge `{init.0, init.1}` in and tree edge
/// `{cycle[w_idx], cycle[z_idx]}` out. Travels from the cycle-closing
/// endpoint across the non-tree edge and then along the cycle to `w`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remove {
    /// `(a, b)` endpoints of the edge being inserted.
    pub init: (NodeId, NodeId),
    /// Required tree degree of the commit node at commit time (freshness:
    /// a stale request must not fire).
    pub deg_max: u32,
    /// Index into `cycle` of the maximum-degree node `w`. The message
    /// commits *at `w` itself* so the degree check reads fresh local state,
    /// never a (possibly stale) neighbor mirror.
    pub w_idx: usize,
    /// Index of the cycle-neighbor of `w` whose shared tree edge is deleted
    /// (`w_idx ± 1`).
    pub z_idx: usize,
    /// Full cycle node sequence `[a, ..., b]` (tree path endpoints
    /// inclusive).
    pub cycle: Vec<NodeId>,
    /// `dmax` snapshot at launch.
    pub dmax: u32,
    /// Distance of `a` (stamped by `a` as the message passes it).
    pub dist_a: u32,
    /// Distance of `b` (stamped at launch).
    pub dist_b: u32,
    /// Index into `cycle` of the node this hop is addressed to.
    pub pos: usize,
}

/// Parent re-orientation along the reversed cycle arc after a commit (the
/// paper's `Remove`-continuation / `Back` / `Reverse` family). Must always
/// run to completion — dropping it would partition the tree, so it carries
/// no freshness guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flip {
    /// Cycle node sequence (same vector as the `Remove`).
    pub cycle: Vec<NodeId>,
    /// Index of the addressee in `cycle`.
    pub pos: usize,
    /// Walk direction: `+1` (toward `b`) or `-1` (toward `a`).
    pub dir: i8,
    /// Index at which the flip stops (the inserted-edge endpoint).
    pub end: usize,
    /// First index of the flipped arc (the cut-adjacent node); the
    /// distance-repair chain walks back from `end` to here.
    pub origin: usize,
    /// Distance of the node the stop index will attach to (so the terminal
    /// node can set its distance immediately).
    pub anchor_dist: u32,
    /// The node the terminal endpoint adopts as parent (the other
    /// inserted-edge endpoint).
    pub anchor: NodeId,
}

/// Distance repair along a freshly flipped arc; each recipient adopts
/// `dist + 1`, floods [`Msg::DistFlood`] into its off-path subtrees, and
/// forwards the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistChain {
    /// Cycle node sequence.
    pub cycle: Vec<NodeId>,
    /// Addressee index in `cycle`.
    pub pos: usize,
    /// Walk direction along the cycle.
    pub dir: i8,
    /// Last index to update (inclusive).
    pub end: usize,
    /// Sender's (already corrected) distance.
    pub dist: u32,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Periodic gossip of local variables (the send/receive-atomicity
    /// refresh): the sender's variables, as the receiver mirrors them.
    Info(NbrView),
    /// See [`Search`].
    Search(Box<Search>),
    /// See [`Remove`].
    Remove(Box<Remove>),
    /// See [`Flip`].
    Flip(Box<Flip>),
    /// See [`DistChain`].
    DistChain(Box<DistChain>),
    /// Subtree distance flood: recipient adopts `dist + 1` and forwards to
    /// its children.
    DistFlood {
        /// Sender's distance.
        dist: u32,
    },
    /// Flood announcing that `idblock` (tree degree `deg`, which is
    /// `dmax − 1`) blocks an improvement; receivers launch searches on
    /// `idblock`'s behalf and forward the flood through the tree.
    Deblock {
        /// The blocking node.
        idblock: NodeId,
        /// Remaining recursion budget for nested deblocking.
        ttl: u8,
        /// `dmax` snapshot at emission.
        dmax: u32,
    },
}

/// `⌈log₂ n⌉`, floored at 1 bit.
#[inline]
fn id_bits(n: usize) -> usize {
    (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as usize
}

impl Message for Msg {
    #[inline]
    fn kind(&self) -> &'static str {
        match self {
            Msg::Info(_) => "InfoMsg",
            Msg::Search(_) => "Search",
            Msg::Remove(_) => "Remove",
            Msg::Flip(_) => "Flip",
            Msg::DistChain(_) => "DistChain",
            Msg::DistFlood { .. } => "DistFlood",
            Msg::Deblock { .. } => "Deblock",
        }
    }

    #[inline]
    fn size_bits(&self, n: usize) -> usize {
        let b = id_bits(n);
        match self {
            // root, parent, distance, dmax, deg, subtree_max + color bit
            Msg::Info(_) => 6 * b + 1,
            // init edge + dmax + presence bit and optional (idblock, ttl) +
            // path + visited + flag
            Msg::Search(m) => {
                3 * b
                    + 1
                    + m.idblock.map_or(0, |_| b + 8)
                    + m.path.len() * 2 * b
                    + m.visited.len() * b
                    + 1
            }
            // init + deg_max + dmax + two distances + three indices + cycle
            Msg::Remove(m) => 9 * b + m.cycle.len() * b,
            Msg::Flip(m) => 4 * b + 2 + b + m.cycle.len() * b,
            Msg::DistChain(m) => 3 * b + 2 + m.cycle.len() * b,
            Msg::DistFlood { .. } => b,
            Msg::Deblock { .. } => 2 * b + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> Msg {
        Msg::Info(NbrView::unknown(0))
    }

    #[test]
    fn kinds_are_distinct_labels() {
        let msgs = one_of_each();
        let mut kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 7);
    }

    #[test]
    fn info_size_is_o_log_n() {
        let m = info();
        assert_eq!(m.size_bits(16), 6 * 4 + 1);
        assert_eq!(m.size_bits(1 << 20), 6 * 20 + 1);
    }

    #[test]
    fn search_size_grows_linearly_with_path() {
        let short = Msg::Search(Box::new(Search {
            init: (0, 1),
            idblock: None,
            dmax: 2,
            path: vec![(0, 1)],
            visited: vec![0],
            backtrack: false,
        }));
        let long = Msg::Search(Box::new(Search {
            init: (0, 1),
            idblock: None,
            dmax: 2,
            path: (0..50).map(|i| (i, 1)).collect(),
            visited: (0..50).collect(),
            backtrack: false,
        }));
        let (s, l) = (short.size_bits(64), long.size_bits(64));
        assert!(l > s);
        // Linear in list lengths: 49 extra path entries (2b each) + 49
        // extra visited entries (b each), b = 6.
        assert_eq!(l - s, 49 * (2 * 6) + 49 * 6);
    }

    /// One instance of every kind, each list of length 3 or 5.
    fn one_of_each() -> [Msg; 7] {
        [
            info(),
            Msg::Search(Box::new(Search {
                init: (0, 1),
                idblock: None,
                dmax: 3,
                path: vec![(0, 1), (2, 3), (4, 2)],
                visited: vec![0, 2, 4, 5],
                backtrack: false,
            })),
            Msg::Remove(Box::new(Remove {
                init: (0, 4),
                deg_max: 3,
                w_idx: 2,
                z_idx: 3,
                cycle: vec![0, 1, 2, 3, 4],
                dmax: 3,
                dist_a: 1,
                dist_b: 2,
                pos: 1,
            })),
            Msg::Flip(Box::new(Flip {
                cycle: vec![0, 1, 2, 3, 4],
                pos: 1,
                dir: -1,
                end: 0,
                origin: 2,
                anchor_dist: 2,
                anchor: 4,
            })),
            Msg::DistChain(Box::new(DistChain {
                cycle: vec![0, 1, 2, 3, 4],
                pos: 3,
                dir: 1,
                end: 4,
                dist: 3,
            })),
            Msg::DistFlood { dist: 3 },
            Msg::Deblock {
                idblock: 2,
                ttl: 8,
                dmax: 3,
            },
        ]
    }

    /// The size of every kind at n = 16 (4-bit ids) and n = 1000 (10-bit
    /// ids), pinned so a change to a message's layout names its kind.
    #[test]
    fn size_bits_pinned_per_kind() {
        let want = [
            ("InfoMsg", 25, 61),
            ("Search", 54, 132),
            ("Remove", 56, 140),
            ("Flip", 42, 102),
            ("DistChain", 34, 82),
            ("DistFlood", 4, 10),
            ("Deblock", 16, 28),
        ];
        for (m, (kind, at16, at1000)) in one_of_each().iter().zip(want) {
            assert_eq!(m.kind(), kind);
            assert_eq!(
                (m.size_bits(16), m.size_bits(1000)),
                (at16, at1000),
                "{kind}"
            );
        }
    }

    /// A deblock-context search pays a presence bit plus the blocker's id
    /// and its 8-bit ttl, as `Deblock` does; a plain one pays the bit alone.
    #[test]
    fn deblock_search_pays_for_its_context() {
        let Msg::Search(plain) = &one_of_each()[1] else {
            unreachable!()
        };
        let deblock = Msg::Search(Box::new(Search {
            idblock: Some((2, 8)),
            ..(**plain).clone()
        }));
        // The plain search's (54, 132) plus 4 + 8 and 10 + 8 bits.
        assert_eq!((deblock.size_bits(16), deblock.size_bits(1000)), (66, 150));
    }

    /// Every hop moves a `Msg` through an outbox and a channel, so its size
    /// is paid per event: the path-carrying payloads stay boxed and `Msg`
    /// stays within 32 bytes. A variant whose inline payload outgrows 28
    /// bytes is named.
    #[test]
    fn msg_stays_within_32_bytes() {
        use std::mem::{size_of, size_of_val};
        for m in one_of_each() {
            let inline = match &m {
                Msg::Info(v) => size_of_val(v),
                Msg::Search(b) => size_of_val(b),
                Msg::Remove(b) => size_of_val(b),
                Msg::Flip(b) => size_of_val(b),
                Msg::DistChain(b) => size_of_val(b),
                Msg::DistFlood { dist } => size_of_val(dist),
                Msg::Deblock { idblock, ttl, dmax } => {
                    size_of_val(idblock) + size_of_val(ttl) + size_of_val(dmax)
                }
            };
            assert!(
                inline <= 28,
                "{} carries {inline} inline bytes: box it to keep Msg within 32",
                m.kind()
            );
        }
        assert!(size_of::<Msg>() <= 32, "Msg is {} bytes", size_of::<Msg>());
    }

    #[test]
    fn id_bits_floors_at_one() {
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(1024), 10);
    }
}
