//! The round-loop backend selector.
//!
//! There is one round loop (see [`crate::Runner`]), so [`Backend`] has one
//! variant and selects nothing.

use std::fmt;

/// Which round loop a [`crate::Session`] runs. `Reference`, the
/// round loop every golden trace was recorded on, is the only one.
///
/// Why a one-variant enum survives: `perfbench/` (a workspace of its own
/// that builds these crates by path) names `Backend::Reference`,
/// `Scenario::backend` and [`crate::SessionBuilder::backend`], and that
/// benchmark changes only together with its committed anchors. `.scn`
/// files may also still say `backend = reference`. The enum goes with the
/// next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The one round loop.
    #[default]
    Reference,
}

impl Backend {
    /// Stable lowercase label, as written in `.scn` files.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
        }
    }

    /// Parse a label; an unknown name is an error that lists the options.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "reference" => Ok(Backend::Reference),
            other => Err(format!("unknown backend {other:?} (reference)")),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        let b = Backend::Reference;
        assert_eq!(Backend::parse(&b.to_string()), Ok(b));
        assert_eq!(b.to_string(), b.label());
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(Backend::default(), Backend::Reference);
    }

    #[test]
    fn unknown_label_lists_the_options() {
        for bad in ["warp9", "batched", "soa", "sharded", "sharded:3"] {
            let err = Backend::parse(bad).unwrap_err();
            assert!(
                err.contains(&format!("{bad:?}")),
                "names the bad input: {err}"
            );
            assert!(err.contains("reference"), "lists the options: {err}");
        }
    }
}
