//! nbfs-analysis: repo-specific static analysis and model checking.
//!
//! Two subsystems keep the paper's invariants honest as the codebase grows
//! (see DESIGN.md, "Static analysis & race checking"):
//!
//! 1. **Invariant linter** ([`check_workspace`] / [`lint_source`]) — a
//!    line/region-aware scanner with stable diagnostic codes
//!    (`NBFS001`…`NBFS006`), an `analysis-allow.toml` allowlist that
//!    demands a justification per entry, human, JSON and SARIF output,
//!    and exit-code gating in CI.
//! 2. **Race checker** ([`checker`]) — an exhaustive-interleaving
//!    model checker proving `AtomicBitmap`'s concurrent word path
//!    linearizes against the scalar `Bitmap` model, plus a pinned
//!    regression corpus that catches a lost-update mutant.
//!
//! The crate is deliberately dependency-free (no `syn`, no `loom`): the
//! workspace builds offline against `vendor/` stubs, so both subsystems
//! are built from scratch on `std` alone.

#![forbid(unsafe_code)]

pub mod allow;
pub mod checker;
pub mod diag;
pub mod rules;
pub mod scan;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use diag::{Code, Diagnostic, Report};
pub use rules::lint_source;

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "analysis-allow.toml";

/// Lints every `.rs` file under `root`, applying `root/analysis-allow.toml`
/// when present. I/O failures and a malformed allowlist are hard errors.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let entries = match fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => allow::parse_allowlist(&text).map_err(|e| format!("{ALLOWLIST_FILE}: {e}"))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{ALLOWLIST_FILE}: {e}")),
    };

    let files = walk::rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut diags = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        diags.extend(rules::lint_source(rel, &text));
    }

    let (diagnostics, allowed) = allow::apply_allowlist(diags, &entries);
    let mut diagnostics = diagnostics;
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    Ok(Report {
        diagnostics,
        allowed,
        checked_files: files.len(),
    })
}

/// Lints one file on disk as if it lived at `pretend_rel_path` inside the
/// workspace (used by the fixture self-tests and `check --file`). No
/// allowlist is applied: fixtures must fire unconditionally.
pub fn check_single_file(file: &Path, pretend_rel_path: &str) -> Result<Report, String> {
    let text = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(Report {
        diagnostics: rules::lint_source(pretend_rel_path, &text),
        allowed: 0,
        checked_files: 1,
    })
}
