//! The record-replay substrate: [`Digest`], [`TraceRecord`] and
//! [`RunTrace`], a compact event-trace recorder.
//!
//! A run's entire execution — every scheduler priority key, every
//! executed action, every topology event, every per-round state
//! projection — is folded into one chained 64-bit digest (a
//! [`crate::ScheduleDigest`] observer, or the scenario engine's recorder,
//! folds the schedule through [`crate::observer::fold_event`]; the caller
//! folds its state projection). Because the simulator is deterministic
//! per `(scenario, seed)`, re-running and comparing chained digests
//! record-by-record *is* a bit-exact replay check: any divergence in any
//! round, however small, changes every later digest. Traces render to a
//! small line-based text format so failing runs can be committed as
//! golden files and re-verified in CI.

/// Chained 64-bit run digest (FNV-1a core). Platform-independent and
/// stable across releases — unlike `std`'s `DefaultHasher`, whose
/// algorithm is explicitly unspecified — so digests recorded in golden
/// trace files stay comparable forever.
///
/// Integers fold as their little-endian bytes. The word writers
/// ([`Digest::write_u32`], [`Digest::write_u64`], [`Digest::write_u128`])
/// fold bytes only up to the highest non-zero one and then multiply once
/// by `P^k` for the `k` zero high bytes: FNV-1a folds a zero byte as
/// `(s ^ 0)·P = s·P`, so the result is bit-identical to the byte-wise
/// fold with a shorter serial chain for small values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

/// The 64-bit FNV prime `P`.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `P^k` (wrapping) for `k = 0..=8`: folding `k` zero bytes is one
/// multiplication by `FNV_PRIME_POW[k]`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

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
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold the low `width` bytes of `v` (little-endian; `width ≤ 8` and
    /// `v < 2^(8·width)`), exactly as [`Digest::write_bytes`] would.
    // lint: hot-path
    #[inline]
    fn write_word(&mut self, mut v: u64, width: u32) {
        let nonzero = (u64::BITS - v.leading_zeros()).div_ceil(8);
        let mut state = self.state;
        for _ in 0..nonzero {
            state ^= v & 0xff;
            state = state.wrapping_mul(FNV_PRIME);
            v >>= 8;
        }
        self.state = state.wrapping_mul(FNV_PRIME_POW[(width - nonzero) as usize]);
    }

    /// Fold a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_word(v as u64, 4);
    }

    /// Fold a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v, 8);
    }

    /// Fold a `u128` (little-endian) — scheduler priority keys.
    pub fn write_u128(&mut self, v: u128) {
        self.write_word(v as u64, 8);
        self.write_word((v >> 64) as u64, 8);
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

    fn bytes_digest(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.write_bytes(bytes);
        d.value()
    }

    /// `write_bytes` is standard FNV-1a-64: the published test vectors.
    #[test]
    fn digest_matches_fnv1a_64_vectors() {
        assert_eq!(bytes_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(bytes_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(bytes_digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The word fold skips the serial chain over zero high bytes; it must
    /// equal the byte-wise fold of the little-endian bytes exactly.
    #[test]
    fn word_fold_equals_byte_fold_on_edge_values() {
        let word = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.value()
        };
        for v in [0u32, 1, 0xff, 0x100, 0xff00_ff00, u32::MAX] {
            assert_eq!(
                word(&|d| d.write_u32(v)),
                bytes_digest(&v.to_le_bytes()),
                "u32 {v:#x}"
            );
        }
        for v in [
            0u64,
            1,
            0xff,
            0x100,
            0xff00_ff00,
            u32::MAX as u64,
            1 << 63,
            u64::MAX,
        ] {
            assert_eq!(
                word(&|d| d.write_u64(v)),
                bytes_digest(&v.to_le_bytes()),
                "u64 {v:#x}"
            );
        }
        for v in [
            0u128,
            1,
            0xff,
            0x100,
            0xff00_ff00,
            u64::MAX as u128,
            1 << 63,
            1 << 64,
            (1 << 64) | 0xff00,
            0xff << 120,
            u128::MAX,
        ] {
            assert_eq!(
                word(&|d| d.write_u128(v)),
                bytes_digest(&v.to_le_bytes()),
                "u128 {v:#x}"
            );
        }
    }

    /// Seeded sweep: 100 000 values of mixed width and magnitude (a random
    /// number of significant bytes, so short and full words both occur),
    /// folded into one chain word-wise and byte-wise in lockstep.
    #[test]
    fn word_fold_equals_byte_fold_on_seeded_sweep() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut word = Digest::new();
        let mut byte = Digest::new();
        for i in 0..100_000 {
            let bits = [32u32, 64, 128][rng.random_range(0..3usize)];
            let full = (rng.random::<u64>() as u128) << 64 | rng.random::<u64>() as u128;
            // Keep `bits` bits, then drop a random number of high ones.
            let v = full >> (128 - bits) >> rng.random_range(0..bits);
            match bits {
                32 => {
                    word.write_u32(v as u32);
                    byte.write_bytes(&(v as u32).to_le_bytes());
                }
                64 => {
                    word.write_u64(v as u64);
                    byte.write_bytes(&(v as u64).to_le_bytes());
                }
                _ => {
                    word.write_u128(v);
                    byte.write_bytes(&v.to_le_bytes());
                }
            }
            assert_eq!(word.value(), byte.value(), "diverged at value {i}");
        }
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
