//! The result of one run: checked outputs, metrics, anchors, and the
//! printed form (human-readable lines, then one JSON object as the last
//! line of standard output).

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The exact, seed-determined counts a run is anchored on. Two runs of the
/// same workload and seed must agree on all of them, whatever the host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Anchor {
    /// Digest of the generated inputs (scenario texts, graph edges).
    pub input: u64,
    /// Chained digest of every output of the first pass.
    pub digest: u64,
    /// Simulated rounds to quiescence, summed over every phase of the
    /// first pass (the paper's convergence measure).
    pub conv_rounds: u64,
    /// Simulated messages sent in the first pass.
    pub msgs: u64,
    /// Improvement pivots of the exact solver in the first pass.
    pub pivots: u64,
    /// Certified intervals of the scratch solve and of the restored graph
    /// (`-` for the simulation workloads).
    pub intervals: String,
    /// Findings of the first pass (storm mutants that did not converge or
    /// were judged outside the bound).
    pub findings: u64,
}

const ANCHOR_FIELDS: [&str; 7] = [
    "input",
    "digest",
    "conv_rounds",
    "msgs",
    "pivots",
    "intervals",
    "findings",
];

impl Anchor {
    fn fields(&self) -> [String; 7] {
        [
            format!("{:016x}", self.input),
            format!("{:016x}", self.digest),
            self.conv_rounds.to_string(),
            self.msgs.to_string(),
            self.pivots.to_string(),
            self.intervals.clone(),
            self.findings.to_string(),
        ]
    }

    /// The `anchors.tsv` line for this run.
    pub fn line(&self, workload: &str, seed: u64) -> String {
        format!("{workload}\t{seed}\t{}", self.fields().join("\t"))
    }

    /// Compare against the committed line for `(workload, seed)` in
    /// `anchors` (the text of `anchors.tsv`). `None` when the seed is not
    /// anchored; otherwise the names of the fields that drifted.
    pub fn drift(&self, workload: &str, seed: u64, anchors: &str) -> Option<Vec<String>> {
        let key = format!("{workload}\t{seed}\t");
        let line = anchors.lines().find(|l| l.starts_with(&key))?;
        let committed: Vec<&str> = line[key.len()..].split('\t').collect();
        let here = self.fields();
        Some(
            ANCHOR_FIELDS
                .iter()
                .enumerate()
                .filter(|&(i, _)| committed.get(i).copied() != Some(here[i].as_str()))
                .map(|(i, name)| {
                    format!(
                        "{name} anchored {} measured {}",
                        committed.get(i).copied().unwrap_or("<missing>"),
                        here[i]
                    )
                })
                .collect(),
        )
    }
}

/// The committed anchors, read from `anchors.tsv` next to this crate's
/// manifest (empty when the file is absent).
pub fn committed_anchors() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("anchors.tsv");
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation, naming it and the failed check.
    pub failures: Vec<String>,
    /// One line per finding: a storm mutant the protocol did not bring to
    /// a judged-good configuration. The run's outputs were checked and are
    /// correct; the finding is about the protocol, so it is reported by
    /// name but is not a failed operation.
    pub findings: Vec<String>,
    /// The metrics of the final JSON line: every end-to-end metric in an
    /// untraced run, every per-layer metric in a traced one.
    pub metrics: Vec<Metric>,
    /// Further figures printed for reading but kept out of the JSON line
    /// (workload-specific throughputs, exact counts).
    pub notes: Vec<Metric>,
    /// The exact counts this run is anchored on.
    pub anchor: Anchor,
}

impl Report {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Record a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed()
        )
    }

    /// The full printed form: readable lines, then the JSON line last.
    pub fn render(&self, anchors: &str) -> String {
        let mut out = String::new();
        let mode = if self.trace { "traced" } else { "untraced" };
        let _ = writeln!(out, "# {} seed={} ({mode})", self.workload, self.seed);
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "{:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "failed_share {:.4} ({} of {} operations)",
            self.failed_share(),
            self.failed(),
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        for f in &self.findings {
            let _ = writeln!(out, "FINDING {f}");
        }
        let digest_match = match self.anchor.drift(&self.workload, self.seed, anchors) {
            None => "unanchored (no committed line for this seed)".to_string(),
            Some(d) if d.is_empty() => "ok".to_string(),
            Some(d) => format!("DRIFT: {}", d.join("; ")),
        };
        let _ = writeln!(out, "digest_match {digest_match}");
        let _ = writeln!(
            out,
            "anchor {}\tnproc={}",
            self.anchor.line(&self.workload, self.seed),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}
