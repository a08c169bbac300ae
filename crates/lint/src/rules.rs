//! The rule set: five contracts this repository already enforces
//! dynamically (scenario corpus, alloc meter, replay goldens), made
//! checkable at the source line that would break them.

/// One of the enforced contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// **R1** — `HashMap`/`HashSet` banned in digest-relevant crates
    /// (`sim`, `scenario`, `core`, `graph`): unordered iteration feeds
    /// traces, and one stray iteration silently breaks bit-exact replay.
    NoUnorderedCollections,
    /// **R2** — `Instant::now`, `SystemTime`, `thread_rng`,
    /// `rand::random` banned in non-test code: all randomness and time
    /// must be explicit-seed or annotated observation-side.
    NoAmbientEntropy,
    /// **R3** — allocation-capable calls banned inside regions annotated
    /// `// lint: hot-path` (the static complement of
    /// `tests/zero_alloc.rs`).
    ZeroAllocHotPath,
    /// **R4** — `unwrap`/`expect`/`panic!`/`todo!` banned in non-test
    /// library code: fallible paths return listed-options errors.
    NoPanicInLibrary,
    /// **R5** — every `// lint: allow(rule)` needs a `— reason`, must
    /// name a real rule, and must actually mask a finding (stale
    /// suppressions are themselves violations).
    AnnotationHygiene,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::NoUnorderedCollections,
    Rule::NoAmbientEntropy,
    Rule::ZeroAllocHotPath,
    Rule::NoPanicInLibrary,
    Rule::AnnotationHygiene,
];

impl Rule {
    /// Short code (`R1` … `R5`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::NoUnorderedCollections => "R1",
            Rule::NoAmbientEntropy => "R2",
            Rule::ZeroAllocHotPath => "R3",
            Rule::NoPanicInLibrary => "R4",
            Rule::AnnotationHygiene => "R5",
        }
    }

    /// Kebab-case name, as used inside `// lint: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnorderedCollections => "no-unordered-collections",
            Rule::NoAmbientEntropy => "no-ambient-entropy",
            Rule::ZeroAllocHotPath => "zero-alloc-hot-path",
            Rule::NoPanicInLibrary => "no-panic-in-library",
            Rule::AnnotationHygiene => "annotation-hygiene",
        }
    }

    /// One-line statement of the contract, for `ssmdst-lint rules`.
    pub fn contract(self) -> &'static str {
        match self {
            Rule::NoUnorderedCollections => {
                "no HashMap/HashSet in digest-relevant crates (sim, scenario, core, graph): \
                 unordered iteration feeds traces and breaks bit-exact replay"
            }
            Rule::NoAmbientEntropy => {
                "no Instant::now / SystemTime / thread_rng / rand::random outside tests: \
                 randomness and time must be explicit-seed or annotated observation-side"
            }
            Rule::ZeroAllocHotPath => {
                "no allocation-capable calls (Vec::new, vec!, format!, to_string, collect, \
                 Box::new, clone, ...) inside `// lint: hot-path` regions"
            }
            Rule::NoPanicInLibrary => {
                "no unwrap/expect/panic!/todo! in non-test library code: fallible paths \
                 return listed-options errors"
            }
            Rule::AnnotationHygiene => {
                "every `// lint: allow(rule)` carries a `\u{2014} reason`, names a real rule, \
                 and masks at least one live finding"
            }
        }
    }

    /// Resolve an `allow(<name>)` rule name. `AnnotationHygiene` itself is
    /// deliberately not suppressible.
    pub fn parse(name: &str) -> Option<Rule> {
        ALL_RULES
            .into_iter()
            .filter(|r| *r != Rule::AnnotationHygiene)
            .find(|r| r.name() == name)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One diagnostic: a rule violated at a line, with the offending token
/// and a message saying what to do instead.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// The token (or annotation) that triggered the finding.
    pub token: String,
    /// What is wrong and what the fix is.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_are_unique_and_round_trip() {
        for (i, r) in ALL_RULES.into_iter().enumerate() {
            for s in ALL_RULES.into_iter().skip(i + 1) {
                assert_ne!(r.code(), s.code());
                assert_ne!(r.name(), s.name());
            }
            if r != Rule::AnnotationHygiene {
                assert_eq!(Rule::parse(r.name()), Some(r));
            }
        }
        assert_eq!(Rule::parse("annotation-hygiene"), None, "not suppressible");
        assert_eq!(Rule::parse("nonsense"), None);
    }
}
