//! Per-round bookkeeping for the experiment tables.
//!
//! [`Instrument`] records the degree trajectory and the F3 concurrency
//! measure of one MDST run. The scenario-driven experiments feed it
//! through the scenario engine's per-round hook via
//! [`Instrument::observe`].

use ssmdst_core::{oracle, MdstNode};
use ssmdst_graph::Graph;
use ssmdst_sim::Network;

/// Per-round trajectory + concurrency bookkeeping for the scenario-driven
/// experiments.
#[derive(Debug)]
pub struct Instrument<'g> {
    g: &'g Graph,
    trajectory: Vec<(u64, u32)>,
    last_deg: Option<u32>,
    prev_degrees: Option<Vec<u32>>,
    max_simdrops: usize,
}

impl<'g> Instrument<'g> {
    /// Fresh bookkeeping for a run over `g`.
    pub fn new(g: &'g Graph) -> Self {
        Instrument {
            g,
            trajectory: Vec::new(),
            last_deg: None,
            prev_degrees: None,
            max_simdrops: 0,
        }
    }

    /// Observe one completed round.
    pub fn observe(&mut self, net: &Network<MdstNode>, round: u64) {
        let tree = oracle::try_extract_tree(self.g, net);
        let deg = tree.as_ref().map(|t| t.max_degree());
        if deg != self.last_deg {
            if let Some(d) = deg {
                self.trajectory.push((round, d));
            }
            self.last_deg = deg;
        }
        if let Some(t) = &tree {
            let degs = t.degrees();
            if let Some(prev) = &self.prev_degrees {
                let k = *prev.iter().max().unwrap_or(&0);
                let drops = prev
                    .iter()
                    .zip(degs.iter())
                    .filter(|&(&p, &c)| p == k && c < p)
                    .count();
                if drops > self.max_simdrops {
                    self.max_simdrops = drops;
                }
            }
            self.prev_degrees = Some(degs.to_vec());
        } else {
            self.prev_degrees = None;
        }
    }

    /// Degree-trajectory samples: `(round, deg(T))` at every change.
    pub fn trajectory(&self) -> &[(u64, u32)] {
        &self.trajectory
    }

    /// Maximum number of distinct maximum-degree nodes whose degree
    /// dropped within a single round (the F3 concurrency measure).
    pub fn max_simultaneous_drops(&self) -> usize {
        self.max_simdrops
    }
}
