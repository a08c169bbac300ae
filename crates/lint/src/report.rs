//! Rendering: human-readable `file:line` diagnostics and a `--json`
//! report (one row per finding plus a summary), so CI can archive and
//! diff lint runs.

use crate::engine::Report;
use std::fmt::Write as _;

/// Human-readable diagnostics, one `file:line: CODE name: message` per
/// finding, followed by a one-line summary.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for file in &report.files {
        for f in &file.findings {
            let _ = writeln!(
                out,
                "{}:{}: {} {}: `{}` \u{2014} {}",
                file.path,
                f.line,
                f.rule.code(),
                f.rule.name(),
                f.token,
                f.message
            );
        }
    }
    let _ = writeln!(
        out,
        "ssmdst-lint: {} finding(s) in {} file(s) \u{2014} {} file(s) scanned, {} suppression(s) honored",
        report.total_findings(),
        report.files.len(),
        report.files_scanned,
        report.suppressions_honored
    );
    out
}

/// JSON report: a `findings` row array plus scan summary fields.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"tool\": \"ssmdst-lint\",");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(
        out,
        "  \"suppressions_honored\": {},",
        report.suppressions_honored
    );
    let _ = writeln!(out, "  \"clean\": {},", report.clean());
    out.push_str("  \"findings\": [");
    let mut first = true;
    for file in &report.files {
        for f in &file.findings {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": \"{}\", \"code\": \"{}\", \"file\": \"{}\", \"line\": {}, \"token\": \"{}\", \"message\": \"{}\"}}",
                f.rule.name(),
                f.rule.code(),
                escape(&file.path),
                f.line,
                escape(&f.token),
                escape(&f.message)
            );
        }
    }
    if !first {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileReport;
    use crate::rules::{Finding, Rule};

    fn sample() -> Report {
        Report {
            files_scanned: 3,
            suppressions_honored: 2,
            files: vec![FileReport {
                path: "crates/sim/src/x.rs".into(),
                findings: vec![Finding {
                    rule: Rule::NoUnorderedCollections,
                    line: 7,
                    token: "HashSet".into(),
                    message: "say \"no\"".into(),
                }],
            }],
        }
    }

    #[test]
    fn text_has_file_line_rows_and_a_summary() {
        let text = render_text(&sample());
        assert!(text.contains("crates/sim/src/x.rs:7: R1 no-unordered-collections"));
        assert!(text.contains("1 finding(s) in 1 file(s)"));
        assert!(text.contains("3 file(s) scanned, 2 suppression(s) honored"));
    }

    #[test]
    fn json_is_escaped_and_row_shaped() {
        let json = render_json(&sample());
        assert!(json.contains("\"rule\": \"no-unordered-collections\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("say \\\"no\\\""));
        assert!(json.contains("\"clean\": false"));
        // Empty report renders an empty array, still valid JSON.
        let empty = render_json(&Report::default());
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"clean\": true"));
    }
}
