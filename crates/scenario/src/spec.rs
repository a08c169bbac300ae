//! The declarative [`Scenario`] type and its components.
//!
//! A scenario is pure data: everything needed to reconstruct a run
//! bit-for-bit — topology generator and parameters, daemon, protocol
//! config variant, initial-state corruption, a timed event plan, and a
//! stopping condition. All randomness is named by explicit seeds, so
//! `(Scenario)` alone determines the execution.

use ssmdst_graph::generators::{gadgets, structured, GraphFamily};
use ssmdst_graph::Graph;
use ssmdst_sim::faults::FaultPlan;
use ssmdst_sim::{Backend, ChurnEvent, Digest, Scheduler};

/// How the workload graph is generated. Every variant is deterministic
/// (seeded where random) and serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// One of the harness's [`GraphFamily`] generators, by label.
    Family {
        /// Family label as printed by [`GraphFamily::label`].
        family: String,
        /// Approximate node count (families round to their natural shape).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A path on `n` nodes.
    Path {
        /// Node count (≥ 2).
        n: usize,
    },
    /// A cycle on `n` nodes.
    Cycle {
        /// Node count (≥ 3).
        n: usize,
    },
    /// Star with a ring over the leaves on `n` nodes.
    StarRing {
        /// Node count (≥ 4).
        n: usize,
    },
    /// The F3 concurrency gadget: `hubs` maximum-degree hubs.
    MultiHub {
        /// Number of hubs (≥ 2).
        hubs: usize,
        /// Spokes per hub (≥ 3).
        spokes: usize,
    },
    /// Complete bipartite graph `K_{a,b}`.
    CompleteBipartite {
        /// Left side size (≥ 1).
        a: usize,
        /// Right side size (≥ 1).
        b: usize,
    },
}

impl TopologySpec {
    /// Convenience constructor for a [`GraphFamily`]-generated topology.
    pub fn family(fam: GraphFamily, n: usize, seed: u64) -> Self {
        TopologySpec::Family {
            family: fam.label().to_string(),
            n,
            seed,
        }
    }

    /// Build the graph this spec describes.
    ///
    /// # Panics
    /// Panics on an unknown family label or out-of-range parameters; specs
    /// parsed from `.scn` text are validated at parse time.
    pub fn build(&self) -> Graph {
        match self {
            TopologySpec::Family { family, n, seed } => {
                let fam = GraphFamily::all()
                    .iter()
                    .find(|f| f.label() == family)
                    // lint: allow(no-panic-in-library) — documented `# Panics`: .scn parsing validates labels before build
                    .unwrap_or_else(|| panic!("unknown graph family '{family}'"));
                fam.generate(*n, *seed)
            }
            TopologySpec::Path { n } => structured::path(*n).expect("path parameters"), // lint: allow(no-panic-in-library) — documented `# Panics`: parse-time validation
            TopologySpec::Cycle { n } => structured::cycle(*n).expect("cycle parameters"), // lint: allow(no-panic-in-library) — documented `# Panics`: parse-time validation
            TopologySpec::StarRing { n } => {
                structured::star_with_ring(*n).expect("star-ring parameters") // lint: allow(no-panic-in-library) — documented `# Panics`: parse-time validation
            }
            TopologySpec::MultiHub { hubs, spokes } => {
                // lint: allow(no-panic-in-library) — documented `# Panics`: parse-time validation
                gadgets::multi_hub(*hubs, *spokes).expect("multi-hub parameters")
            }
            TopologySpec::CompleteBipartite { a, b } => {
                // lint: allow(no-panic-in-library) — documented `# Panics`: parse-time validation
                structured::complete_bipartite(*a, *b).expect("complete-bipartite parameters")
            }
        }
    }

    /// The *requested* node count (families may round it; gadget variants
    /// report their derived count). Used by the shrinker's size metric.
    pub fn n_hint(&self) -> usize {
        match self {
            TopologySpec::Family { n, .. }
            | TopologySpec::Path { n }
            | TopologySpec::Cycle { n }
            | TopologySpec::StarRing { n } => *n,
            TopologySpec::MultiHub { hubs, spokes } => hubs * (1 + spokes),
            TopologySpec::CompleteBipartite { a, b } => a + b,
        }
    }

    /// Smallest `n` this spec can shrink to, when `n` is shrinkable at all.
    pub fn min_n(&self) -> Option<usize> {
        match self {
            TopologySpec::Family { .. } => Some(4),
            TopologySpec::Path { .. } => Some(2),
            TopologySpec::Cycle { .. } => Some(3),
            TopologySpec::StarRing { .. } => Some(4),
            TopologySpec::MultiHub { .. } | TopologySpec::CompleteBipartite { .. } => None,
        }
    }

    /// The same spec with a smaller `n`, when shrinkable.
    pub fn with_n(&self, n: usize) -> Option<TopologySpec> {
        match self {
            TopologySpec::Family { family, seed, .. } => Some(TopologySpec::Family {
                family: family.clone(),
                n,
                seed: *seed,
            }),
            TopologySpec::Path { .. } => Some(TopologySpec::Path { n }),
            TopologySpec::Cycle { .. } => Some(TopologySpec::Cycle { n }),
            TopologySpec::StarRing { .. } => Some(TopologySpec::StarRing { n }),
            TopologySpec::MultiHub { .. } | TopologySpec::CompleteBipartite { .. } => None,
        }
    }
}

/// Which registered protocol a scenario drives — the registry axis that
/// makes the scenario/campaign/replay layer automaton-generic. Defaults
/// to [`ProtocolSpec::Mdst`], and the default is *omitted* from the
/// canonical `.scn` rendering, so every pre-registry scenario text,
/// fingerprint and golden trace is unchanged byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolSpec {
    /// The paper's self-stabilizing MDST (`ssmdst-core`) — the default.
    #[default]
    Mdst,
    /// The simulator's self-stabilizing minimum flood / leader election
    /// ([`ssmdst_sim::protocols::FloodEcho`]).
    FloodEcho,
}

impl ProtocolSpec {
    /// The `.scn` spelling of this protocol.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolSpec::Mdst => "mdst",
            ProtocolSpec::FloodEcho => "flood-echo",
        }
    }

    /// Parse the `.scn` spelling.
    pub fn parse(s: &str) -> Result<ProtocolSpec, String> {
        match s {
            "mdst" => Ok(ProtocolSpec::Mdst),
            "flood-echo" => Ok(ProtocolSpec::FloodEcho),
            other => Err(format!("unknown protocol {other:?} (mdst | flood-echo)")),
        }
    }
}

/// Daemon choice, serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSpec {
    /// Lockstep rounds.
    Synchronous,
    /// Seeded uniformly random fair interleaving.
    RandomAsync {
        /// Daemon seed.
        seed: u64,
    },
    /// Seeded deterministic unfair-within-round daemon.
    Adversarial {
        /// Daemon seed.
        seed: u64,
    },
}

impl SchedSpec {
    /// The simulator scheduler this spec describes.
    pub fn scheduler(&self) -> Scheduler {
        match *self {
            SchedSpec::Synchronous => Scheduler::Synchronous,
            SchedSpec::RandomAsync { seed } => Scheduler::RandomAsync { seed },
            SchedSpec::Adversarial { seed } => Scheduler::Adversarial { seed },
        }
    }

    /// Short human label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedSpec::Synchronous => "synchronous",
            SchedSpec::RandomAsync { .. } => "random-async",
            SchedSpec::Adversarial { .. } => "adversarial",
        }
    }
}

/// Protocol configuration variant (the ablation axis), serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigSpec {
    /// `Config::for_n` — the default gentle configuration.
    Default,
    /// `Config::strict` — the paper's strict R2 distance repair.
    Strict,
    /// `Config::without_deblock` — Deblock module ablated.
    NoDeblock,
    /// `Config::without_busy_latch` — busy latch ablated.
    NoBusyLatch,
}

impl ConfigSpec {
    /// Build the concrete protocol config for an `n`-node instance.
    pub fn build(&self, n: usize) -> ssmdst_core::Config {
        match self {
            ConfigSpec::Default => ssmdst_core::Config::for_n(n),
            ConfigSpec::Strict => ssmdst_core::Config::strict(n),
            ConfigSpec::NoDeblock => ssmdst_core::Config::without_deblock(n),
            ConfigSpec::NoBusyLatch => ssmdst_core::Config::without_busy_latch(n),
        }
    }
}

/// A seeded corruption burst: the transient-fault adversary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptSpec {
    /// Fraction of nodes to corrupt (`0.0..=1.0`).
    pub fraction: f64,
    /// Probability each in-flight message is dropped (`1.0` clears all).
    pub drop: f64,
    /// Seed for victim selection and garbage generation.
    pub seed: u64,
}

impl CorruptSpec {
    /// The simulator fault plan this spec describes.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            node_fraction: self.fraction,
            message_drop: self.drop,
            seed: self.seed,
        }
    }

    /// Rendered label used for phase names and trace records.
    pub fn label(&self) -> String {
        format!(
            "fault(fraction={},drop={},seed={})",
            self.fraction, self.drop, self.seed
        )
    }
}

/// When a scenario event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// After the network reaches quiescence (or the phase round cap).
    Stable,
    /// At the given **absolute** round, converged or not — mid-flight
    /// faults. If earlier phases already ran past this round (e.g. a
    /// preceding `Stable` event took longer than `R`), the event fires
    /// immediately in a zero-round phase; the trace records the actual
    /// round it applied at, so replay and the recorded artifact always
    /// agree even when the declared round was unreachable.
    Round(u64),
}

/// What a scenario event does.
#[derive(Debug, Clone, PartialEq)]
pub enum EventAction {
    /// Corrupt node state / drop messages.
    Fault(CorruptSpec),
    /// Mutate the topology.
    Churn(ChurnEvent),
}

impl EventAction {
    /// Rendered label used for phase names and trace records.
    pub fn label(&self) -> String {
        match self {
            EventAction::Fault(c) => c.label(),
            EventAction::Churn(ev) => ev.to_string(),
        }
    }
}

/// One timed event of a scenario plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// When the event fires.
    pub timing: Timing,
    /// What it does.
    pub action: EventAction,
}

impl ScenarioEvent {
    /// A quiescence-gated event (the common case).
    pub fn stable(action: EventAction) -> Self {
        ScenarioEvent {
            timing: Timing::Stable,
            action,
        }
    }
}

/// Stopping condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopSpec {
    /// Round cap **per phase** (each re-convergence gets the full budget,
    /// matching the experiment harness's per-event measurement).
    pub max_rounds: u64,
    /// Quiescence confirmation window; `None` means the canonical
    /// [`ssmdst_sim::quiet_window`] for the instance size.
    pub quiet: Option<u64>,
}

/// A complete declarative scenario: everything needed to reconstruct one
/// run of the protocol bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (one token, no whitespace) — the artifact id.
    pub name: String,
    /// Which registered protocol the scenario drives.
    pub protocol: ProtocolSpec,
    /// The round-loop backend. There is one round loop, so this is always
    /// [`Backend::Reference`]; it is never rendered and is not part of the
    /// fingerprint (see [`Backend`] for why the field remains).
    pub backend: Backend,
    /// Workload topology.
    pub topology: TopologySpec,
    /// Daemon.
    pub scheduler: SchedSpec,
    /// Protocol config variant.
    pub config: ConfigSpec,
    /// Corruption of the initial configuration (arbitrary-configuration
    /// start, per the paper) — applied before round 0.
    pub init_corrupt: Option<CorruptSpec>,
    /// Timed fault / churn plan.
    pub events: Vec<ScenarioEvent>,
    /// Stopping condition.
    pub stop: StopSpec,
}

impl Scenario {
    /// A plain convergence scenario: build the topology, run one phase to
    /// quiescence, no faults, no churn.
    pub fn converge(
        name: impl Into<String>,
        topology: TopologySpec,
        scheduler: SchedSpec,
        max_rounds: u64,
    ) -> Self {
        Scenario {
            name: name.into(),
            protocol: ProtocolSpec::default(),
            backend: Backend::default(),
            topology,
            scheduler,
            config: ConfigSpec::Default,
            init_corrupt: None,
            events: Vec::new(),
            stop: StopSpec {
                max_rounds,
                quiet: None,
            },
        }
    }

    /// Shrinker size metric: lexicographic-ish scalar where node count
    /// dominates, then event count, then initial corruption, then the
    /// bit-length of the horizon. Every individual shrink step reduces
    /// exactly one component, so "strictly smaller" is well-defined.
    pub fn size(&self) -> u64 {
        let horizon_bits = (u64::BITS - self.stop.max_rounds.leading_zeros()) as u64;
        self.topology.n_hint() as u64 * 1_000
            + self.events.len() as u64 * 10
            + if self.init_corrupt.is_some() { 5 } else { 0 }
            + horizon_bits
    }

    /// Digest of the canonical `.scn` text — the identity recorded in
    /// traces so a golden trace can't silently be replayed against an
    /// edited scenario.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.write_bytes(self.canonical().as_bytes());
        d.value()
    }

    /// Canonical `.scn` rendering (see [`crate::scn`]).
    pub fn canonical(&self) -> String {
        crate::scn::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_spec_builds_the_same_graph_as_the_family() {
        let spec = TopologySpec::family(GraphFamily::GnpSparse, 12, 3);
        assert_eq!(spec.build(), GraphFamily::GnpSparse.generate(12, 3));
        assert_eq!(spec.n_hint(), 12);
    }

    #[test]
    fn structured_specs_build() {
        assert_eq!(TopologySpec::Path { n: 5 }.build().n(), 5);
        assert_eq!(TopologySpec::Cycle { n: 6 }.build().m(), 6);
        assert_eq!(TopologySpec::StarRing { n: 8 }.build().n(), 8);
        assert_eq!(TopologySpec::MultiHub { hubs: 2, spokes: 3 }.build().n(), 8);
        assert_eq!(
            TopologySpec::CompleteBipartite { a: 2, b: 3 }.build().m(),
            6
        );
    }

    #[test]
    fn with_n_shrinks_only_shrinkable_variants() {
        let fam = TopologySpec::family(GraphFamily::Spider, 16, 1);
        assert_eq!(fam.with_n(8).unwrap().n_hint(), 8);
        assert_eq!(fam.min_n(), Some(4));
        let hub = TopologySpec::MultiHub { hubs: 2, spokes: 3 };
        assert_eq!(hub.with_n(4), None);
        assert_eq!(hub.min_n(), None);
    }

    #[test]
    fn size_orders_by_n_then_events_then_corrupt_then_horizon() {
        let base = Scenario::converge(
            "s",
            TopologySpec::Path { n: 10 },
            SchedSpec::Synchronous,
            40_000,
        );
        let mut smaller_n = base.clone();
        smaller_n.topology = TopologySpec::Path { n: 9 };
        assert!(smaller_n.size() < base.size());

        let mut with_event = base.clone();
        with_event
            .events
            .push(ScenarioEvent::stable(EventAction::Churn(
                ChurnEvent::CrashNode(3),
            )));
        assert!(with_event.size() > base.size());
        assert!(smaller_n.size() < with_event.size(), "n dominates events");

        let mut with_corrupt = base.clone();
        with_corrupt.init_corrupt = Some(CorruptSpec {
            fraction: 1.0,
            drop: 1.0,
            seed: 1,
        });
        assert!(with_corrupt.size() > base.size());

        let mut short_horizon = base.clone();
        short_horizon.stop.max_rounds = 20_000;
        assert!(short_horizon.size() < base.size());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = Scenario::converge(
            "a",
            TopologySpec::Cycle { n: 8 },
            SchedSpec::RandomAsync { seed: 7 },
            1_000,
        );
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.scheduler = SchedSpec::RandomAsync { seed: 8 };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
