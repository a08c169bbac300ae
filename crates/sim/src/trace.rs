//! Time-series probes and the record-replay substrate.
//!
//! Two layers live here:
//!
//! * **Probes** ([`ChangeSeries`], [`StabilityWindow`]): record any
//!   projection of the global state per round. The experiment harness uses
//!   these to produce trajectory figures (F1) and the examples use them for
//!   progress narration, without re-implementing change detection each time.
//! * **Record-replay** ([`Digest`], [`TraceRecord`], [`RunTrace`]): a
//!   compact event-trace recorder. A run's entire execution — every
//!   scheduler priority key, every executed action, every topology event,
//!   every per-round state projection — is folded into one chained 64-bit
//!   digest ([`crate::Runner::step_round_digest`] folds the schedule; the
//!   caller folds its state projection). Because the simulator is
//!   deterministic per `(scenario, seed)`, re-running and comparing chained
//!   digests record-by-record *is* a bit-exact replay check: any divergence
//!   in any round, however small, changes every later digest. Traces render
//!   to a small line-based text format so failing runs can be committed as
//!   golden files and re-verified in CI.

/// Records `(round, value)` samples whenever the observed value changes.
#[derive(Debug, Clone)]
pub struct ChangeSeries<T> {
    samples: Vec<(u64, T)>,
}

impl<T: PartialEq + Clone> ChangeSeries<T> {
    /// Empty series.
    pub fn new() -> Self {
        ChangeSeries {
            samples: Vec::new(),
        }
    }

    /// Offer an observation; it is stored only if it differs from the most
    /// recent stored value. Returns `true` if stored.
    pub fn observe(&mut self, round: u64, value: T) -> bool {
        if self.samples.last().map(|(_, v)| v) == Some(&value) {
            return false;
        }
        self.samples.push((round, value));
        true
    }

    /// All stored samples in observation order.
    pub fn samples(&self) -> &[(u64, T)] {
        &self.samples
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<&T> {
        self.samples.last().map(|(_, v)| v)
    }

    /// The round of the last *change* — i.e. when the current value was
    /// first observed. This is the "convergence round" once the run ends.
    pub fn last_change_round(&self) -> Option<u64> {
        self.samples.last().map(|&(r, _)| r)
    }

    /// Number of distinct values observed.
    pub fn changes(&self) -> usize {
        self.samples.len()
    }
}

impl<T: PartialEq + Clone> Default for ChangeSeries<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Windowed stability detector: reports how many consecutive observations
/// have been identical. Complements [`crate::Session::run_to_quiescence`]
/// when the caller wants to combine stability with other stop conditions.
#[derive(Debug, Clone)]
pub struct StabilityWindow<T> {
    last: Option<T>,
    stable_for: u64,
}

impl<T: PartialEq> StabilityWindow<T> {
    /// Fresh detector.
    pub fn new() -> Self {
        StabilityWindow {
            last: None,
            stable_for: 0,
        }
    }

    /// Offer an observation; returns the current stable streak length
    /// (0 right after a change).
    pub fn observe(&mut self, value: T) -> u64 {
        if self.last.as_ref() == Some(&value) {
            self.stable_for += 1;
        } else {
            self.last = Some(value);
            self.stable_for = 0;
        }
        self.stable_for
    }

    /// Current streak without observing.
    pub fn stable_for(&self) -> u64 {
        self.stable_for
    }
}

impl<T: PartialEq> Default for StabilityWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

// ----------------------------------------------------------------------
// Record-replay: chained digests and run traces
// ----------------------------------------------------------------------

/// Chained 64-bit run digest (FNV-1a core). Platform-independent and
/// stable across releases — unlike `std`'s `DefaultHasher`, whose
/// algorithm is explicitly unspecified — so digests recorded in golden
/// trace files stay comparable forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

impl Digest {
    /// Fresh digest (FNV-1a offset basis).
    pub fn new() -> Self {
        Digest {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Fold raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a `u128` (little-endian) — scheduler priority keys.
    pub fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Current chained value.
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// One record of a [`RunTrace`], in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A fault burst was injected before round `round` hitting `victims`
    /// nodes.
    Fault {
        /// Round before which the burst applied.
        round: u64,
        /// Number of corrupted nodes.
        victims: usize,
    },
    /// A topology event (rendered churn event) applied before `round`.
    Topology {
        /// Round before which the event applied.
        round: u64,
        /// Rendered event, e.g. `-edge(2,5)`.
        event: String,
    },
    /// A completed run phase: `rounds` executed, chained digest at its end.
    Phase {
        /// Phase label (`initial`, or the event that opened it).
        label: String,
        /// Rounds executed within the phase.
        rounds: u64,
        /// Chained digest value when the phase ended.
        digest: u64,
    },
}

/// The compact trace of one recorded run: a scenario fingerprint, the
/// ordered records, and the final chained digest. Render/parse round-trip
/// exactly, so byte-comparing rendered traces is the replay check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTrace {
    /// Fingerprint of the scenario that produced the run (digest of its
    /// canonical serialized form).
    pub fingerprint: u64,
    /// Records in execution order.
    pub records: Vec<TraceRecord>,
    /// Chained digest at the end of the run.
    pub final_digest: u64,
}

impl RunTrace {
    /// Render as the line-based golden-file format.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("# ssmdst trace v1\n");
        let _ = writeln!(out, "fingerprint = {:016x}", self.fingerprint);
        for rec in &self.records {
            match rec {
                TraceRecord::Fault { round, victims } => {
                    let _ = writeln!(out, "fault round={round} victims={victims}");
                }
                TraceRecord::Topology { round, event } => {
                    let _ = writeln!(out, "event round={round} \"{event}\"");
                }
                TraceRecord::Phase {
                    label,
                    rounds,
                    digest,
                } => {
                    let _ = writeln!(
                        out,
                        "phase \"{label}\" rounds={rounds} digest={digest:016x}"
                    );
                }
            }
        }
        let _ = writeln!(out, "final = {:016x}", self.final_digest);
        out
    }

    /// Parse the format produced by [`RunTrace::render`].
    pub fn parse(text: &str) -> Result<RunTrace, String> {
        fn field<'a>(tok: &'a str, key: &str) -> Result<&'a str, String> {
            tok.strip_prefix(key)
                .and_then(|t| t.strip_prefix('='))
                .ok_or_else(|| format!("expected {key}=…, got {tok}"))
        }
        fn quoted(rest: &str) -> Result<(String, &str), String> {
            let rest = rest
                .strip_prefix('"')
                .ok_or_else(|| format!("expected quoted label in {rest:?}"))?;
            let end = rest
                .find('"')
                .ok_or_else(|| format!("unterminated label in {rest:?}"))?;
            Ok((rest[..end].to_string(), rest[end + 1..].trim_start()))
        }
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s}: {e}"));
        let int = |s: &str| s.parse::<u64>().map_err(|e| format!("bad int {s}: {e}"));

        let mut fingerprint = None;
        let mut final_digest = None;
        let mut records = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("fingerprint =") {
                fingerprint = Some(hex(rest.trim())?);
            } else if let Some(rest) = line.strip_prefix("final =") {
                final_digest = Some(hex(rest.trim())?);
            } else if let Some(rest) = line.strip_prefix("fault ") {
                let mut toks = rest.split_whitespace();
                let round = int(field(toks.next().unwrap_or(""), "round")?)?;
                let victims = int(field(toks.next().unwrap_or(""), "victims")?)? as usize;
                records.push(TraceRecord::Fault { round, victims });
            } else if let Some(rest) = line.strip_prefix("event ") {
                let mut toks = rest.splitn(2, ' ');
                let round = int(field(toks.next().unwrap_or(""), "round")?)?;
                let (event, _) = quoted(toks.next().unwrap_or("").trim_start())?;
                records.push(TraceRecord::Topology { round, event });
            } else if let Some(rest) = line.strip_prefix("phase ") {
                let (label, rest) = quoted(rest)?;
                let mut toks = rest.split_whitespace();
                let rounds = int(field(toks.next().unwrap_or(""), "rounds")?)?;
                let digest = hex(field(toks.next().unwrap_or(""), "digest")?)?;
                records.push(TraceRecord::Phase {
                    label,
                    rounds,
                    digest,
                });
            } else {
                return Err(format!("unrecognized trace line: {line}"));
            }
        }
        Ok(RunTrace {
            fingerprint: fingerprint.ok_or("missing fingerprint line")?,
            records,
            final_digest: final_digest.ok_or("missing final line")?,
        })
    }

    /// First divergence against `other`, as a human-readable description —
    /// `None` when the traces are identical. Used by replay verification to
    /// say *where* two runs split instead of only that they did.
    pub fn first_divergence(&self, other: &RunTrace) -> Option<String> {
        if self.fingerprint != other.fingerprint {
            return Some(format!(
                "scenario fingerprint {:016x} != {:016x}",
                self.fingerprint, other.fingerprint
            ));
        }
        for (i, (a, b)) in self.records.iter().zip(&other.records).enumerate() {
            if a != b {
                return Some(format!("record {i}: {a:?} != {b:?}"));
            }
        }
        if self.records.len() != other.records.len() {
            return Some(format!(
                "record count {} != {}",
                self.records.len(),
                other.records.len()
            ));
        }
        if self.final_digest != other.final_digest {
            return Some(format!(
                "final digest {:016x} != {:016x}",
                self.final_digest, other.final_digest
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_series_dedups() {
        let mut s = ChangeSeries::new();
        assert!(s.observe(1, 5));
        assert!(!s.observe(2, 5));
        assert!(s.observe(3, 4));
        assert!(!s.observe(4, 4));
        assert_eq!(s.samples(), &[(1, 5), (3, 4)]);
        assert_eq!(s.last(), Some(&4));
        assert_eq!(s.last_change_round(), Some(3));
        assert_eq!(s.changes(), 2);
    }

    #[test]
    fn empty_series() {
        let s: ChangeSeries<u32> = ChangeSeries::new();
        assert!(s.samples().is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.last_change_round(), None);
    }

    #[test]
    fn stability_window_counts_streaks() {
        let mut w = StabilityWindow::new();
        assert_eq!(w.observe(1), 0); // first observation
        assert_eq!(w.observe(1), 1);
        assert_eq!(w.observe(1), 2);
        assert_eq!(w.observe(2), 0); // change resets
        assert_eq!(w.observe(2), 1);
        assert_eq!(w.stable_for(), 1);
    }

    /// The very first observation always stores: there is no "previous
    /// value" to equal, even when the value is the type's default.
    #[test]
    fn change_series_first_observation_always_stores() {
        let mut s = ChangeSeries::new();
        assert!(s.observe(0, 0u32), "first observation must store");
        assert_eq!(s.samples(), &[(0, 0)]);
        assert_eq!(s.changes(), 1);
        // A fresh window reports streak 0 on its first observation too.
        let mut w = StabilityWindow::new();
        assert_eq!(w.stable_for(), 0, "no observation yet");
        assert_eq!(w.observe(0u32), 0);
    }

    /// An equal-value run stores exactly one sample, and
    /// `last_change_round` pins the round the value was *first* observed —
    /// not the most recent offer — which is the convergence-round
    /// semantics the harness relies on.
    #[test]
    fn change_series_equal_value_run_keeps_first_round() {
        let mut s = ChangeSeries::new();
        for round in 10..200 {
            s.observe(round, 7u32);
        }
        assert_eq!(s.changes(), 1);
        assert_eq!(s.last_change_round(), Some(10), "first observation round");
        // Returning to a previously seen (but not current) value is a
        // change: only *consecutive* duplicates dedup.
        assert!(s.observe(200, 8));
        assert!(s.observe(201, 7), "re-observing an old value is a change");
        assert_eq!(s.last_change_round(), Some(201));
    }

    /// `last_change_round` boundary: round numbers are data, not indices —
    /// round 0 and repeated rounds are stored verbatim.
    #[test]
    fn change_series_round_zero_and_repeated_rounds() {
        let mut s = ChangeSeries::new();
        assert!(s.observe(0, 'a'));
        assert_eq!(s.last_change_round(), Some(0));
        // Two changes offered within the same round keep that round.
        assert!(s.observe(5, 'b'));
        assert!(s.observe(5, 'c'));
        assert_eq!(s.samples(), &[(0, 'a'), (5, 'b'), (5, 'c')]);
        assert_eq!(s.last_change_round(), Some(5));
    }

    #[test]
    fn stability_window_equal_value_run_grows_unbounded() {
        let mut w = StabilityWindow::new();
        for i in 0..1000u64 {
            assert_eq!(w.observe(42u8), i);
        }
        assert_eq!(w.stable_for(), 999);
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        let v = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.value()
        };
        assert_eq!(v(&|d| d.write_u64(7)), v(&|d| d.write_u64(7)));
        assert_ne!(v(&|d| d.write_u64(7)), v(&|d| d.write_u64(8)));
        // Order matters.
        assert_ne!(
            v(&|d| {
                d.write_u32(1);
                d.write_u32(2);
            }),
            v(&|d| {
                d.write_u32(2);
                d.write_u32(1);
            })
        );
        // Length prefix keeps string boundaries distinct.
        assert_ne!(
            v(&|d| {
                d.write_str("ab");
                d.write_str("c");
            }),
            v(&|d| {
                d.write_str("a");
                d.write_str("bc");
            })
        );
        // The documented stable algorithm: FNV-1a over the bytes.
        assert_eq!(v(&|_| {}), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn run_trace_renders_and_parses_round_trip() {
        let t = RunTrace {
            fingerprint: 0xdead_beef_0123_4567,
            records: vec![
                TraceRecord::Fault {
                    round: 0,
                    victims: 10,
                },
                TraceRecord::Phase {
                    label: "initial".into(),
                    rounds: 123,
                    digest: 0x0011_2233_4455_6677,
                },
                TraceRecord::Topology {
                    round: 123,
                    event: "-edge(2,5)".into(),
                },
                TraceRecord::Phase {
                    label: "-edge(2,5)".into(),
                    rounds: 40,
                    digest: 0x8899_aabb_ccdd_eeff,
                },
            ],
            final_digest: 0x0f0f_0f0f_0f0f_0f0f,
        };
        let text = t.render();
        let parsed = RunTrace::parse(&text).expect("round trip");
        assert_eq!(parsed, t);
        assert_eq!(parsed.render(), text, "render is canonical");
        assert!(t.first_divergence(&parsed).is_none());
    }

    #[test]
    fn run_trace_divergence_is_located() {
        let mk = |digest| RunTrace {
            fingerprint: 1,
            records: vec![TraceRecord::Phase {
                label: "initial".into(),
                rounds: 5,
                digest,
            }],
            final_digest: digest,
        };
        let d = mk(1).first_divergence(&mk(2)).expect("diverges");
        assert!(d.contains("record 0"), "got: {d}");
        let mut longer = mk(1);
        longer.records.push(TraceRecord::Topology {
            round: 5,
            event: "crash(3)".into(),
        });
        let d = mk(1).first_divergence(&longer).expect("diverges");
        assert!(d.contains("record count"), "got: {d}");
    }

    #[test]
    fn run_trace_parse_rejects_garbage() {
        assert!(RunTrace::parse("nonsense line").is_err());
        assert!(RunTrace::parse("final = 00").is_err(), "no fingerprint");
        assert!(
            RunTrace::parse("fingerprint = 00").is_err(),
            "no final digest"
        );
        assert!(RunTrace::parse("fingerprint = zz\nfinal = 00").is_err());
        assert!(
            RunTrace::parse("fingerprint = 0\nphase \"x rounds=1 digest=0\nfinal = 0").is_err()
        );
    }
}
