//! The rule engine: classify a file, lex it, compute `#[cfg(test)]` and
//! hot-path regions, apply the token rules, then honor (and audit)
//! suppressions.
//!
//! # Scope model
//!
//! Every workspace `.rs` file is classified by path into a crate plus a
//! [`TargetKind`]; each rule declares which classes it patrols:
//!
//! | rule | library | bin | example | test code (incl. `#[cfg(test)]`) |
//! |------|---------|-----|---------|----------------------------------|
//! | R1 no-unordered-collections | digest crates only | digest crates only | — | — |
//! | R2 no-ambient-entropy       | ✓ | ✓ | ✓ | — |
//! | R3 zero-alloc-hot-path      | ✓ | ✓ | ✓ | ✓ (regions are opt-in) |
//! | R4 no-panic-in-library      | ✓ | — | — | — |
//! | R5 annotation-hygiene       | ✓ | ✓ | ✓ | ✓ |
//!
//! `vendor/` (offline shims for external crates) and fixture corpora
//! (any directory named `fixtures`) are excluded from the walk entirely.
//!
//! # Annotation grammar
//!
//! Plain line comments only (doc comments never trigger):
//!
//! ```text
//! lint: hot-path                     -- opens an R3 region at the next `{`
//! lint: allow(<rule-name>) — <reason>   -- suppresses <rule-name> findings
//! ```
//!
//! An `allow` masks findings on its own line (trailing form) and on the
//! next line that holds a code token (standalone form). The reason is
//! mandatory (`—` or `--` separator), the rule name must be real, and a
//! suppression that masks nothing is itself an R5 finding — annotations
//! can never outlive the violation they excuse.

use crate::lexer::{self, Comment, LexError, TokKind, Token};
use crate::rules::{Finding, Rule};
use std::path::{Path, PathBuf};

/// Crates whose iteration order feeds replay digests (R1's blast radius).
pub const DIGEST_CRATES: [&str; 5] = ["sim", "scenario", "core", "graph", "exact"];

/// What kind of build target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Library code (`crates/*/src`, the facade `src/lib.rs`).
    Library,
    /// A binary (`src/bin`, `crates/*/src/bin`, a `main.rs`).
    Bin,
    /// An example (`examples/`).
    Example,
    /// Test or bench code (`tests/`, `benches/`).
    Test,
}

/// Where a file sits in the workspace — the input to rule scoping.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace crate the file belongs to (`"sim"`, `"lint"`,
    /// `"ssmdst"` for the facade).
    pub crate_name: String,
    /// Target kind.
    pub kind: TargetKind,
}

impl FileClass {
    /// Construct a class directly (fixture harnesses use this).
    pub fn new(crate_name: &str, kind: TargetKind) -> Self {
        FileClass {
            crate_name: crate_name.to_string(),
            kind,
        }
    }

    fn digest_crate(&self) -> bool {
        DIGEST_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Classify a workspace-relative path. `None` means the file is out of
/// scope (vendored shims, fixture corpora, unknown top-level layout).
pub fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let (crate_name, rest): (&str, &[&str]) = match parts.split_first()? {
        (&"crates", rest) => {
            let (name, inner) = rest.split_first()?;
            (*name, inner)
        }
        (&"src", rest) => ("ssmdst", rest),
        (&"tests", _) => return Some(FileClass::new("ssmdst", TargetKind::Test)),
        (&"examples", _) => return Some(FileClass::new("ssmdst", TargetKind::Example)),
        _ => return None,
    };
    if rest.contains(&"fixtures") {
        return None;
    }
    let kind = if rest.contains(&"tests") || rest.contains(&"benches") {
        TargetKind::Test
    } else if rest.contains(&"examples") {
        TargetKind::Example
    } else if rest.contains(&"bin") || rest.last() == Some(&"main.rs") {
        TargetKind::Bin
    } else {
        TargetKind::Library
    };
    Some(FileClass::new(crate_name, kind))
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Surviving findings, in line order.
    pub findings: Vec<Finding>,
    /// Suppressions that masked at least one finding.
    pub suppressions_honored: usize,
}

/// Inclusive line ranges, kept sorted by construction.
#[derive(Debug, Default)]
struct Regions(Vec<(u32, u32)>);

impl Regions {
    fn contains(&self, line: u32) -> bool {
        self.0.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

struct Suppression {
    rule: Rule,
    /// Line of the annotation comment itself.
    line: u32,
    /// Lines it masks: its own plus the next code-bearing line.
    masks: [u32; 2],
    used: bool,
}

/// Lint one file's source under a class. Lex errors are returned, not
/// panicked — a file the lexer cannot finish is reported and skipped.
pub fn lint_source(class: &FileClass, src: &str) -> Result<LintOutcome, LexError> {
    let lexed = lexer::lex(src)?;
    let test_regions = cfg_test_regions(&lexed.tokens);
    let mut findings: Vec<Finding> = Vec::new();
    let (hot_regions, mut suppressions) =
        parse_annotations(&lexed.comments, &lexed.tokens, &mut findings);

    scan_tokens(
        class,
        &lexed.tokens,
        &test_regions,
        &hot_regions,
        &mut findings,
    );

    // Apply suppressions, then audit them: anything unused is stale.
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        if f.rule == Rule::AnnotationHygiene {
            kept.push(f);
            continue;
        }
        // Credit every suppression whose window covers the finding, not
        // just the first: on consecutive annotated lines the previous
        // line's annotation also reaches this one, and crediting only it
        // would leave this line's own annotation looking stale.
        let mut masked = false;
        for s in suppressions
            .iter_mut()
            .filter(|s| s.rule == f.rule && s.masks.contains(&f.line))
        {
            s.used = true;
            masked = true;
        }
        if !masked {
            kept.push(f);
        }
    }
    let mut honored = 0usize;
    for s in &suppressions {
        if s.used {
            honored += 1;
        } else {
            kept.push(Finding {
                rule: Rule::AnnotationHygiene,
                line: s.line,
                token: format!("allow({})", s.rule.name()),
                message: format!(
                    "stale suppression: no {} finding on line {} or the next code line \
                     \u{2014} remove the annotation",
                    s.rule.code(),
                    s.line
                ),
            });
        }
    }
    kept.sort_by_key(|f| (f.line, f.rule));
    Ok(LintOutcome {
        findings: kept,
        suppressions_honored: honored,
    })
}

/// Find `#[cfg(test)]` attributes and extend each over the item it gates
/// (to the matching `}` of the first block, or to a `;` for block-less
/// items like gated `use` declarations).
fn cfg_test_regions(tokens: &[Token]) -> Regions {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start = tokens[i].line;
            let mut depth = 0usize;
            let mut end = start;
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
            while j < tokens.len() {
                let t = &tokens[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                end = t.line;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            end = t.line;
                            break;
                        }
                        _ => {}
                    }
                }
                end = t.line;
                j += 1;
            }
            regions.push((start, end));
            i = j;
        }
        i += 1;
    }
    Regions(regions)
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + texts.len()
        && texts
            .iter()
            .zip(&tokens[i..])
            .all(|(want, tok)| tok.text == *want)
}

/// Parse lint annotations out of plain line comments: hot-path region
/// openers and suppressions. Grammar violations become R5 findings here.
fn parse_annotations(
    comments: &[Comment],
    tokens: &[Token],
    findings: &mut Vec<Finding>,
) -> (Regions, Vec<Suppression>) {
    let mut hot = Vec::new();
    let mut sups = Vec::new();
    for c in comments {
        if c.doc || c.block {
            continue;
        }
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(tail) = rest.strip_prefix("hot-path") {
            if !(tail.is_empty() || tail.starts_with(' ') || tail.starts_with('\u{2014}')) {
                findings.push(hygiene(c.line, rest, "unrecognized lint annotation"));
                continue;
            }
            match brace_region_after(tokens, c.line) {
                Some(region) => hot.push(region),
                None => findings.push(hygiene(
                    c.line,
                    "hot-path",
                    "hot-path annotation is not followed by a `{ ... }` block",
                )),
            }
            continue;
        }
        if let Some(tail) = rest.strip_prefix("allow(") {
            let Some(close) = tail.find(')') else {
                findings.push(hygiene(c.line, rest, "malformed allow: missing `)`"));
                continue;
            };
            let name = tail[..close].trim();
            let after = tail[close + 1..].trim_start();
            let Some(rule) = Rule::parse(name) else {
                findings.push(hygiene(
                    c.line,
                    rest,
                    "allow names no known rule (see `ssmdst-lint rules`)",
                ));
                continue;
            };
            let reason = after
                .strip_prefix('\u{2014}')
                .or_else(|| after.strip_prefix("--"))
                .map(str::trim)
                .unwrap_or("");
            if reason.is_empty() {
                findings.push(hygiene(
                    c.line,
                    rest,
                    "suppression requires a reason: `lint: allow(rule) \u{2014} why`",
                ));
                continue;
            }
            let next_code = tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line);
            sups.push(Suppression {
                rule,
                line: c.line,
                masks: [c.line, next_code],
                used: false,
            });
            continue;
        }
        findings.push(hygiene(c.line, rest, "unrecognized lint annotation"));
    }
    (Regions(hot), sups)
}

fn hygiene(line: u32, token: &str, msg: &str) -> Finding {
    Finding {
        rule: Rule::AnnotationHygiene,
        line,
        token: token.to_string(),
        message: msg.to_string(),
    }
}

/// The `{ … }` region opened by the first `{` at or after `line`.
fn brace_region_after(tokens: &[Token], line: u32) -> Option<(u32, u32)> {
    let open = tokens
        .iter()
        .position(|t| t.line >= line && t.kind == TokKind::Punct && t.text == "{")?;
    let mut depth = 0usize;
    for t in &tokens[open..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((line, t.line));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Token-level scans for R1–R4.
fn scan_tokens(
    class: &FileClass,
    tokens: &[Token],
    test_regions: &Regions,
    hot_regions: &Regions,
    findings: &mut Vec<Finding>,
) {
    let in_test_code = |line: u32| class.kind == TargetKind::Test || test_regions.contains(line);
    let r1_scope = class.digest_crate() && class.kind != TargetKind::Example;
    let r4_scope = class.kind == TargetKind::Library;

    let ident = |i: usize| -> Option<&Token> { tokens.get(i).filter(|t| t.kind == TokKind::Ident) };
    let punct_at = |i: usize, c: &str| -> bool {
        tokens
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
    };
    // `i` names the ident position; the two tokens before must be `::`,
    // optionally preceded by a balanced turbofish (`Vec::<u32>::new`).
    let path_prefixed = |i: usize, seg: &str| -> bool {
        if i < 3 || !punct_at(i - 1, ":") || !punct_at(i - 2, ":") {
            return false;
        }
        let mut owner = i - 3;
        if punct_at(owner, ">") {
            let mut depth = 0usize;
            loop {
                if punct_at(owner, ">") {
                    depth += 1;
                } else if punct_at(owner, "<") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if owner == 0 {
                    return false;
                }
                owner -= 1;
            }
            // `owner` is the turbofish's `<`; the `::` before it joins the
            // generic list to the owner's name.
            if owner < 3 || !punct_at(owner - 1, ":") || !punct_at(owner - 2, ":") {
                return false;
            }
            owner -= 3;
        }
        ident(owner).is_some_and(|t| t.text == seg)
    };

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let line = t.line;
        let test_here = in_test_code(line);

        // R1 — unordered collections in digest-relevant crates.
        if r1_scope && !test_here && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push(Finding {
                rule: Rule::NoUnorderedCollections,
                line,
                token: t.text.clone(),
                message: format!(
                    "`{}` in digest-relevant crate `{}`: unordered iteration feeds traces; \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    t.text, class.crate_name
                ),
            });
        }

        // R2 — ambient entropy / wall-clock.
        if !test_here {
            let hit = match t.text.as_str() {
                "Instant" => (punct_at(i + 1, ":")
                    && punct_at(i + 2, ":")
                    && ident(i + 3).is_some_and(|n| n.text == "now"))
                .then(|| "Instant::now".to_string()),
                "SystemTime" => Some("SystemTime".to_string()),
                "thread_rng" => Some("thread_rng".to_string()),
                "random" if path_prefixed(i, "rand") => Some("rand::random".to_string()),
                _ => None,
            };
            if let Some(token) = hit {
                findings.push(Finding {
                    rule: Rule::NoAmbientEntropy,
                    line,
                    token,
                    message: "ambient entropy/wall-clock: thread seeds and clocks are not \
                              replayable; derive from an explicit seed, or annotate \
                              observation-side timing with a reasoned allow"
                        .to_string(),
                });
            }
        }

        // R3 — allocation-capable calls inside opted-in hot-path regions.
        if hot_regions.contains(line) {
            let method_alloc = matches!(
                t.text.as_str(),
                "clone" | "to_string" | "to_vec" | "to_owned" | "collect"
            ) && punct_at(i.wrapping_sub(1), ".");
            let ctor_alloc = matches!(t.text.as_str(), "new" | "with_capacity")
                && ["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"]
                    .iter()
                    .any(|owner| path_prefixed(i, owner));
            let macro_alloc = matches!(t.text.as_str(), "vec" | "format") && punct_at(i + 1, "!");
            if method_alloc || ctor_alloc || macro_alloc {
                findings.push(Finding {
                    rule: Rule::ZeroAllocHotPath,
                    line,
                    token: t.text.clone(),
                    message: format!(
                        "`{}` can allocate inside a `lint: hot-path` region; reuse a \
                         warmed buffer (the dynamic meter is tests/zero_alloc.rs)",
                        t.text
                    ),
                });
            }
        }

        // R4 — panic-capable calls in library code.
        if r4_scope && !test_here {
            let method_panic =
                matches!(t.text.as_str(), "unwrap" | "expect") && punct_at(i.wrapping_sub(1), ".");
            let macro_panic = matches!(t.text.as_str(), "panic" | "todo") && punct_at(i + 1, "!");
            if method_panic || macro_panic {
                findings.push(Finding {
                    rule: Rule::NoPanicInLibrary,
                    line,
                    token: t.text.clone(),
                    message: format!(
                        "`{}` in library code: return a listed-options error, or allow \
                         with the invariant that makes this unreachable",
                        t.text
                    ),
                });
            }
        }
    }
}

/// One linted file with its surviving findings.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path.
    pub path: String,
    /// Findings, in line order. Never empty in a [`Report`].
    pub findings: Vec<Finding>,
}

/// A whole-tree lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Files lexed and scanned.
    pub files_scanned: usize,
    /// Suppressions that masked a live finding, across all files.
    pub suppressions_honored: usize,
    /// Files with findings, in path order.
    pub files: Vec<FileReport>,
}

impl Report {
    /// Total findings across all files.
    pub fn total_findings(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    /// Whether the tree is clean.
    pub fn clean(&self) -> bool {
        self.files.is_empty()
    }
}

/// Directories never descended into: build output, vendored shims for
/// external crates, committed seeded-violation corpora, VCS metadata.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", "fixtures", ".git", "node_modules"];

/// Walk a workspace root and lint every in-scope `.rs` file.
pub fn check_tree(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, Path::new(""), &mut files)?;
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {} \u{2014} is this the workspace root?",
            root.display()
        ));
    }
    let mut report = Report::default();
    for rel in files {
        let Some(class) = classify(&rel) else {
            continue;
        };
        let path = root.join(&rel);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let outcome =
            lint_source(&class, &src).map_err(|e| format!("{rel_str}: lex error: {e}"))?;
        report.files_scanned += 1;
        report.suppressions_honored += outcome.suppressions_honored;
        if !outcome.findings.is_empty() {
            report.files.push(FileReport {
                path: rel_str,
                findings: outcome.findings,
            });
        }
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name_os = entry.file_name();
        let name = name_os.to_string_lossy();
        let child = rel.join(&*name_os);
        let ftype = entry
            .file_type()
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        if ftype.is_dir() {
            if SKIP_DIRS.contains(&&*name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(crate_name: &str) -> FileClass {
        FileClass::new(crate_name, TargetKind::Library)
    }

    fn codes(class: &FileClass, src: &str) -> Vec<(String, u32)> {
        lint_source(class, src)
            .expect("lexes")
            .findings
            .into_iter()
            .map(|f| (f.rule.code().to_string(), f.line))
            .collect()
    }

    #[test]
    fn classify_maps_the_workspace_layout() {
        let k = |p: &str| classify(Path::new(p)).map(|c| (c.crate_name, c.kind));
        assert_eq!(
            k("crates/sim/src/runner.rs"),
            Some(("sim".into(), TargetKind::Library))
        );
        assert_eq!(
            k("crates/sim/tests/fabric.rs"),
            Some(("sim".into(), TargetKind::Test))
        );
        assert_eq!(
            k("crates/bench/src/bin/experiments.rs"),
            Some(("bench".into(), TargetKind::Bin))
        );
        assert_eq!(
            k("crates/bench/benches/round.rs"),
            Some(("bench".into(), TargetKind::Test))
        );
        assert_eq!(
            k("src/lib.rs"),
            Some(("ssmdst".into(), TargetKind::Library))
        );
        assert_eq!(
            k("src/bin/ssmdst.rs"),
            Some(("ssmdst".into(), TargetKind::Bin))
        );
        assert_eq!(
            k("tests/zero_alloc.rs"),
            Some(("ssmdst".into(), TargetKind::Test))
        );
        assert_eq!(
            k("examples/quickstart.rs"),
            Some(("ssmdst".into(), TargetKind::Example))
        );
        assert_eq!(k("vendor/rand/src/lib.rs"), None, "vendor is out of scope");
        assert_eq!(k("crates/lint/tests/fixtures/r1.rs"), None);
    }

    #[test]
    fn r1_fires_only_in_digest_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes(&lib("sim"), src), [("R1".to_string(), 1)]);
        assert!(codes(&lib("lint"), src).is_empty());
        assert!(codes(&lib("bench"), src).is_empty());
        assert!(
            codes(&FileClass::new("sim", TargetKind::Test), src).is_empty(),
            "test code is exempt"
        );
    }

    #[test]
    fn cfg_test_regions_exempt_r1_and_r4() {
        let src = "\
pub fn f() -> u32 { 1 }\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashMap;\n\
    #[test]\n\
    fn t() { let m: HashMap<u32, u32> = HashMap::new(); m.get(&1).unwrap(); }\n\
}\n";
        assert!(codes(&lib("sim"), src).is_empty());
        // …but the same tokens *before* the region still fire.
        let bad = format!("use std::collections::HashSet;\n{src}");
        assert_eq!(codes(&lib("sim"), &bad), [("R1".to_string(), 1)]);
    }

    #[test]
    fn cfg_test_on_a_single_item_ends_at_the_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        assert_eq!(codes(&lib("sim"), src), [("R1".to_string(), 3)]);
    }

    #[test]
    fn suppression_masks_own_line_and_next_code_line() {
        let trailing =
            "use std::collections::HashSet; // lint: allow(no-unordered-collections) \u{2014} membership-only\n";
        let out = lint_source(&lib("sim"), trailing).expect("lexes");
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressions_honored, 1);

        let standalone = "// lint: allow(no-unordered-collections) \u{2014} membership-only\n\
                          use std::collections::HashSet;\n";
        let out = lint_source(&lib("sim"), standalone).expect("lexes");
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressions_honored, 1);
    }

    #[test]
    fn consecutive_annotated_lines_credit_each_suppression() {
        // Line 1's window also reaches line 2's finding; both annotations
        // must count as used or the second reads as stale.
        let src = "let a = x.unwrap(); // lint: allow(no-panic-in-library) \u{2014} one\n\
                   let b = y.unwrap(); // lint: allow(no-panic-in-library) \u{2014} two\n";
        let out = lint_source(&lib("sim"), src).expect("lexes");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressions_honored, 2);
    }

    #[test]
    fn stale_and_malformed_suppressions_are_r5_findings() {
        // Stale: masks nothing.
        let stale = "// lint: allow(no-panic-in-library) \u{2014} reason\nlet x = 1;\n";
        assert_eq!(codes(&lib("sim"), stale), [("R5".to_string(), 1)]);
        // Missing reason.
        let bare = "let v = None::<u32>.unwrap(); // lint: allow(no-panic-in-library)\n";
        let found = codes(&lib("sim"), bare);
        assert!(found.contains(&("R5".to_string(), 1)), "{found:?}");
        assert!(
            found.contains(&("R4".to_string(), 1)),
            "unmasked without reason"
        );
        // Unknown rule.
        let unknown = "// lint: allow(no-such-rule) \u{2014} why\n";
        assert_eq!(codes(&lib("sim"), unknown), [("R5".to_string(), 1)]);
        // Typo in the verb.
        let typo = "// lint: alow(no-panic-in-library) \u{2014} why\n";
        assert_eq!(codes(&lib("sim"), typo), [("R5".to_string(), 1)]);
    }

    #[test]
    fn hot_path_region_covers_the_next_block_only() {
        let src = "\
// lint: hot-path\n\
fn hot(&mut self) {\n\
    let v: Vec<u32> = Vec::new();\n\
    let s = x.to_string();\n\
    inner(|| { y.clone() });\n\
}\n\
fn cold() {\n\
    let v: Vec<u32> = Vec::new();\n\
}\n";
        assert_eq!(
            codes(&lib("lint"), src),
            [
                ("R3".to_string(), 3),
                ("R3".to_string(), 4),
                ("R3".to_string(), 5)
            ],
            "three hits inside the region, none in `cold`"
        );
    }

    #[test]
    fn hot_path_without_a_block_is_an_r5_finding() {
        assert_eq!(
            codes(&lib("lint"), "// lint: hot-path\n"),
            [("R5".to_string(), 1)]
        );
    }

    #[test]
    fn r4_scopes_to_library_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(codes(&lib("lint"), src), [("R4".to_string(), 1)]);
        assert!(codes(&FileClass::new("lint", TargetKind::Bin), src).is_empty());
        assert!(codes(&FileClass::new("ssmdst", TargetKind::Example), src).is_empty());
        // `std::panic::catch_unwind` is not `panic!`.
        let ok = "fn g() { let _ = std::panic::catch_unwind(|| 1); }\n";
        assert!(codes(&lib("sim"), ok).is_empty());
        let macros = "fn h() { panic!(\"boom\"); todo!() }\n";
        assert_eq!(
            codes(&lib("sim"), macros),
            [("R4".to_string(), 1), ("R4".to_string(), 1)]
        );
    }

    #[test]
    fn r2_matches_calls_not_imports() {
        // The import alone is fine; the call is the violation.
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(codes(&lib("bench"), src), [("R2".to_string(), 2)]);
        let more = "fn g() { let r = rand::random::<u64>(); let t = thread_rng(); }\n";
        assert_eq!(
            codes(&lib("bench"), more),
            [("R2".to_string(), 1), ("R2".to_string(), 1)]
        );
        // Seeded streams and the non-ambient `rng.random()` method are fine.
        let seeded = "fn h(rng: &mut StdRng) -> u64 { rng.random() }\n";
        assert!(codes(&lib("sim"), seeded).is_empty());
    }
}
