//! Fixture self-tests: every diagnostic code has a known-bad snippet under
//! `tests/fixtures/` that fires *exactly once* — through the library API
//! and through the binary's exit code. A rule that stops firing on its own
//! fixture is a rule that silently stopped guarding the tree.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::path::{Path, PathBuf};
use std::process::Command;

use nbfs_analysis::{check_single_file, Code};

/// (fixture file, pretend workspace path, the one code it must fire).
const FIXTURES: &[(&str, &str, Code)] = &[
    (
        "nbfs001_missing_forbid.rs",
        "crates/nbfs-core/src/lib.rs",
        Code::Nbfs001,
    ),
    (
        "nbfs002_wallclock.rs",
        "crates/nbfs-core/src/timing.rs",
        Code::Nbfs002,
    ),
    (
        "nbfs003_unwrap.rs",
        "crates/nbfs-comm/src/fixture.rs",
        Code::Nbfs003,
    ),
    (
        "nbfs004_hot_alloc.rs",
        "crates/nbfs-core/src/hot.rs",
        Code::Nbfs004,
    ),
    (
        "nbfs005_truncating_cast.rs",
        "crates/nbfs-core/src/fixture.rs",
        Code::Nbfs005,
    ),
    (
        "nbfs006_rank_conditional_collective.rs",
        "crates/nbfs-cli/src/fixture.rs",
        Code::Nbfs006,
    ),
];

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn each_fixture_fires_its_code_exactly_once() {
    for (file, pretend, code) in FIXTURES {
        let report = check_single_file(&fixture_path(file), pretend).unwrap();
        assert_eq!(
            report.diagnostics.len(),
            1,
            "{file}: expected exactly one finding, got {:?}",
            report.diagnostics
        );
        assert_eq!(report.diagnostics[0].code, *code, "{file}");
    }
}

#[test]
fn binary_rejects_each_fixture() {
    for (file, pretend, code) in FIXTURES {
        let out = Command::new(env!("CARGO_BIN_EXE_nbfs-analysis"))
            .arg("check")
            .arg("--file")
            .arg(fixture_path(file))
            .arg("--as")
            .arg(pretend)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{file}: expected exit 1, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(code.as_str()),
            "{file}: human output should name {}",
            code.as_str()
        );
    }
}

#[test]
fn binary_accepts_the_real_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_nbfs-analysis"))
        .arg("check")
        .arg("--root")
        .arg(workspace_root())
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "the tree must lint clean; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn json_output_carries_the_finding() {
    let (file, pretend, code) = &FIXTURES[0];
    let out = Command::new(env!("CARGO_BIN_EXE_nbfs-analysis"))
        .arg("check")
        .arg("--file")
        .arg(fixture_path(file))
        .arg("--as")
        .arg(pretend)
        .arg("--json")
        .arg("-")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(
        json.contains(&format!("\"code\": \"{}\"", code.as_str())),
        "{json}"
    );
    assert!(json.contains(pretend), "{json}");
}

#[test]
fn bad_usage_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_nbfs-analysis"))
        .arg("check")
        .arg("--file")
        .arg(fixture_path("nbfs001_missing_forbid.rs"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--file without --as is an error"
    );
}
