//! Diagnostic codes, the diagnostic record, and output rendering.
//!
//! Every rule of the invariant linter reports through a stable code so that
//! allowlist entries, CI greps and DESIGN.md stay meaningful as the rules
//! evolve. Codes are never reused or renumbered: the retired `NBFS007` and
//! `NBFS008` stay unassigned.

use std::fmt;

/// Stable diagnostic codes of the NBFS invariant linter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// Crate root missing `#![forbid(unsafe_code)]`.
    Nbfs001,
    /// Host wall-clock read (`Instant::now` / `SystemTime`) outside the
    /// sanctioned `nbfs-bench` wallclock module.
    Nbfs002,
    /// `unwrap()` / `expect(...)` / `panic!` in non-test library code of
    /// `nbfs-core` / `nbfs-comm` / `nbfs-util`.
    Nbfs003,
    /// Heap allocation inside a `// nbfs-analysis: hot-path` region
    /// (also reports malformed or unterminated region markers).
    Nbfs004,
    /// Truncating `as u32` / `as u16` cast on a vertex-id expression
    /// outside the sanctioned `nbfs-graph::vid` conversion module.
    Nbfs005,
    /// Collective call site that is not unconditionally reachable by every
    /// rank (rank-conditional or tainted by a rank-guarded early exit)
    /// outside a sanctioned `// nbfs-analysis: rank-local` region.
    Nbfs006,
    /// Allowlist entry in `analysis-allow.toml` that matched nothing
    /// (prevents the allowlist from rotting).
    Nbfs900,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 7] = [
        Code::Nbfs001,
        Code::Nbfs002,
        Code::Nbfs003,
        Code::Nbfs004,
        Code::Nbfs005,
        Code::Nbfs006,
        Code::Nbfs900,
    ];

    /// The stable textual form (`NBFS001`...).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Nbfs001 => "NBFS001",
            Code::Nbfs002 => "NBFS002",
            Code::Nbfs003 => "NBFS003",
            Code::Nbfs004 => "NBFS004",
            Code::Nbfs005 => "NBFS005",
            Code::Nbfs006 => "NBFS006",
            Code::Nbfs900 => "NBFS900",
        }
    }

    /// Parses the textual form.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// One-line description used in human output and DESIGN.md.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Nbfs001 => "crate root must carry #![forbid(unsafe_code)]",
            Code::Nbfs002 => {
                "host wall-clock read outside nbfs-bench's wallclock module \
                 (simulated-time discipline)"
            }
            Code::Nbfs003 => {
                "unwrap()/expect()/panic! in non-test library code of \
                 nbfs-core/nbfs-comm/nbfs-util"
            }
            Code::Nbfs004 => "heap allocation inside a hot-path region",
            Code::Nbfs005 => "truncating cast on a vertex-id expression outside nbfs-graph::vid",
            Code::Nbfs006 => {
                "collective call site not unconditionally reachable by every rank \
                 (outside a rank-local region)"
            }
            Code::Nbfs900 => "allowlist entry matched nothing (stale allow)",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the linter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub code: Code,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What happened, with enough context to fix it.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// `path:line: CODE message` — the human, grep-friendly form.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: {} {}\n    {}",
            self.path, self.line, self.code, self.message, self.snippet
        )
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report of one `check` run.
pub struct Report {
    /// Diagnostics that survived the allowlist.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings suppressed by allowlist entries.
    pub allowed: usize,
    /// Number of files scanned.
    pub checked_files: usize,
}

impl Report {
    /// Whether the run should gate (non-empty diagnostics).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the `--json` document (schema version 1).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": 1,\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"message\": \"{}\", \"snippet\": \"{}\"}}",
                d.code,
                json_escape(&d.path),
                d.line,
                json_escape(&d.message),
                json_escape(&d.snippet)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"allowed\": {},\n  \"checked_files\": {},\n  \"clean\": {}\n}}\n",
            self.allowed,
            self.checked_files,
            self.is_clean()
        ));
        out
    }

    /// Renders a SARIF 2.1.0 document (one run, one result per finding),
    /// suitable for CI artifact upload and code-scanning ingestion.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"nbfs-analysis\",\n          \
             \"informationUri\": \"DESIGN.md\",\n          \"rules\": [",
        );
        for (i, code) in Code::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                code,
                json_escape(code.summary())
            ));
        }
        out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"ruleId\": \"{}\", \"level\": \"error\", \
                 \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\
                 \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}}}}}}}]}}",
                d.code,
                json_escape(&d.message),
                json_escape(&d.path),
                d.line
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }

    /// Renders the human summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "nbfs-analysis: {} file(s) checked, {} finding(s), {} allowlisted\n",
            self.checked_files,
            self.diagnostics.len(),
            self.allowed
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert!(!c.summary().is_empty());
        }
        assert_eq!(Code::parse("NBFS999"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_json_shape() {
        let r = Report {
            diagnostics: vec![Diagnostic {
                code: Code::Nbfs003,
                path: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "unwrap() in library code".into(),
                snippet: "x.unwrap()".into(),
            }],
            allowed: 2,
            checked_files: 10,
        };
        let json = r.render_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"code\": \"NBFS003\""));
        assert!(json.contains("\"allowed\": 2"));
        assert!(json.contains("\"clean\": false"));

        let sarif = r.render_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"NBFS003\""));
        assert!(sarif.contains("\"uri\": \"crates/x/src/lib.rs\""));
        assert!(sarif.contains("\"startLine\": 7"));
        // Every registered rule is described in the driver block.
        for c in Code::ALL {
            assert!(sarif.contains(&format!("\"id\": \"{c}\"")));
        }
    }
}
