//! Lexer-hardening self-test: the `lexer_red_herrings.rs` fixture packs
//! every lint-trigger token into raw strings, byte strings, char literals
//! and nested block comments. The scanner must strip all of them — one
//! bogus finding here means a literal/comment state machine regression.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

use nbfs_analysis::check_single_file;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn red_herrings_inside_literals_and_comments_stay_silent() {
    // Pretend-path inside nbfs-comm: the strictest rule set (NBFS003
    // no-panic discipline applies, plus the collective rule).
    let report = check_single_file(
        &fixture_path("lexer_red_herrings.rs"),
        "crates/nbfs-comm/src/fixture.rs",
    )
    .unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "lexer leaked literal/comment text into code: {:?}",
        report.diagnostics
    );
}
