//! End-to-end tests for the SARIF output path of `check`, the surface CI
//! uploads to code scanning.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nbfs-analysis"))
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn sarif_output_is_written_and_well_formed() {
    let dir = std::env::temp_dir().join("nbfs-analysis-sarif-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sarif_path = dir.join("findings.sarif");
    let out = bin()
        .arg("check")
        .arg("--file")
        .arg(fixture_path("nbfs006_rank_conditional_collective.rs"))
        .arg("--as")
        .arg("crates/nbfs-cli/src/fixture.rs")
        .arg("--sarif")
        .arg(&sarif_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "fixture must still gate");
    let sarif = std::fs::read_to_string(&sarif_path).unwrap();
    std::fs::remove_file(&sarif_path).ok();
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"NBFS006\""), "{sarif}");
    assert!(sarif.contains("crates/nbfs-cli/src/fixture.rs"), "{sarif}");
}

#[test]
fn sarif_to_stdout_conflicts_with_json_to_stdout() {
    let out = bin()
        .arg("check")
        .arg("--sarif")
        .arg("-")
        .arg("--json")
        .arg("-")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
