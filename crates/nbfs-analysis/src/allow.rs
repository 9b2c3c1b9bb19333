//! The `analysis-allow.toml` allowlist.
//!
//! Hand-rolled parser for the tiny TOML subset the allowlist needs
//! (`[[allow]]` tables with string keys) — nbfs-analysis stays
//! dependency-free so the workspace builds offline.
//!
//! Every entry *must* carry a non-empty `justification`: the allowlist is
//! a ledger of argued exceptions, not an off switch. Entries that match
//! nothing are themselves reported (NBFS900) so the ledger cannot rot.

use crate::diag::{Code, Diagnostic};

/// One `[[allow]]` entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Diagnostic code the entry suppresses.
    pub code: Code,
    /// Workspace-relative path the entry applies to (exact match).
    pub path: String,
    /// Optional substring the offending raw line must contain; pins the
    /// entry to a specific call site instead of a whole file.
    pub line_contains: Option<String>,
    /// Mandatory human rationale. Never empty.
    pub justification: String,
    /// Line in analysis-allow.toml where the entry starts (for NBFS900).
    pub toml_line: usize,
}

impl AllowEntry {
    /// Whether this entry suppresses `d`.
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.code
            && self.path == d.path
            && self
                .line_contains
                .as_ref()
                .is_none_or(|needle| d.snippet.contains(needle))
    }
}

/// Parses the allowlist document. Errors are fatal (exit 2): a malformed
/// allowlist must never silently allow everything or nothing.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    struct Partial {
        code: Option<Code>,
        path: Option<String>,
        line_contains: Option<String>,
        justification: Option<String>,
        toml_line: usize,
    }

    fn finish(p: Partial) -> Result<AllowEntry, String> {
        let at = p.toml_line;
        let code = p
            .code
            .ok_or_else(|| format!("allow entry at line {at}: missing `code`"))?;
        let path = p
            .path
            .ok_or_else(|| format!("allow entry at line {at}: missing `path`"))?;
        let justification = p
            .justification
            .ok_or_else(|| format!("allow entry at line {at}: missing `justification`"))?;
        if justification.trim().is_empty() {
            return Err(format!(
                "allow entry at line {at}: `justification` must not be empty"
            ));
        }
        Ok(AllowEntry {
            code,
            path,
            line_contains: p.line_contains,
            justification,
            toml_line: at,
        })
    }

    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(finish(p)?);
            }
            current = Some(Partial {
                code: None,
                path: None,
                line_contains: None,
                justification: None,
                toml_line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = \"value\"`"));
        };
        let Some(p) = current.as_mut() else {
            return Err(format!("line {lineno}: key outside an [[allow]] table"));
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(|v| v.replace("\\\"", "\"").replace("\\\\", "\\"))
        else {
            return Err(format!(
                "line {lineno}: value must be a double-quoted string"
            ));
        };
        match key {
            "code" => {
                let code = Code::parse(&value)
                    .ok_or_else(|| format!("line {lineno}: unknown code `{value}`"))?;
                p.code = Some(code);
            }
            "path" => p.path = Some(value),
            "line-contains" => p.line_contains = Some(value),
            "justification" => p.justification = Some(value),
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }
    if let Some(p) = current.take() {
        entries.push(finish(p)?);
    }
    Ok(entries)
}

/// Applies the allowlist: returns (surviving diagnostics incl. NBFS900 for
/// stale entries, number suppressed).
pub fn apply_allowlist(diags: Vec<Diagnostic>, entries: &[AllowEntry]) -> (Vec<Diagnostic>, usize) {
    let mut used = vec![0usize; entries.len()];
    let mut surviving = Vec::new();
    let mut suppressed = 0usize;
    for d in diags {
        let mut hit = false;
        for (i, e) in entries.iter().enumerate() {
            if e.matches(&d) {
                used[i] += 1;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            surviving.push(d);
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if used[i] == 0 {
            surviving.push(Diagnostic {
                code: Code::Nbfs900,
                path: "analysis-allow.toml".into(),
                line: e.toml_line,
                message: format!(
                    "stale allowlist entry: {} at {} no longer matches anything — remove it",
                    e.code, e.path
                ),
                snippet: format!("[[allow]] code = \"{}\" path = \"{}\"", e.code, e.path),
            });
        }
    }
    (surviving, suppressed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# comment
[[allow]]
code = "NBFS003"
path = "crates/nbfs-comm/src/allgather.rs"
line-contains = "ring invariant broken"
justification = "oracle invariant documented on ring_allgather_functional"

[[allow]]
code = "NBFS002"
path = "crates/x/src/lib.rs"
justification = "legacy clock, tracked in ROADMAP"
"#;

    fn diag(code: Code, path: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            code,
            path: path.into(),
            line: 1,
            message: String::new(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn parses_entries() {
        let entries = parse_allowlist(GOOD).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].code, Code::Nbfs003);
        assert_eq!(
            entries[0].line_contains.as_deref(),
            Some("ring invariant broken")
        );
        assert!(entries[1].line_contains.is_none());
    }

    #[test]
    fn rejects_missing_or_empty_justification() {
        let missing = "[[allow]]\ncode = \"NBFS003\"\npath = \"x\"\n";
        assert!(parse_allowlist(missing).is_err());
        let empty = "[[allow]]\ncode = \"NBFS003\"\npath = \"x\"\njustification = \"  \"\n";
        assert!(parse_allowlist(empty).is_err());
        let bad_code = "[[allow]]\ncode = \"NBFS999\"\npath = \"x\"\njustification = \"y\"\n";
        assert!(parse_allowlist(bad_code).is_err());
    }

    #[test]
    fn applies_and_reports_stale() {
        let entries = parse_allowlist(GOOD).unwrap();
        let diags = vec![
            diag(
                Code::Nbfs003,
                "crates/nbfs-comm/src/allgather.rs",
                "slot.expect(\"ring invariant broken\")",
            ),
            diag(
                Code::Nbfs003,
                "crates/nbfs-comm/src/allgather.rs",
                "other.unwrap()",
            ),
        ];
        let (surviving, suppressed) = apply_allowlist(diags, &entries);
        assert_eq!(suppressed, 1);
        // The unmatched unwrap survives, plus NBFS900 for the stale 2nd entry.
        assert_eq!(surviving.len(), 2);
        assert!(surviving.iter().any(|d| d.code == Code::Nbfs003));
        assert!(surviving.iter().any(|d| d.code == Code::Nbfs900));
    }
}
