//! Bad input stays rejected at the binary's surface: a one-line error,
//! a non-zero exit code, no panic. Retired spellings and out-of-range
//! numbers are parse errors (exit 2); a `--root` or a `--roots` count the
//! graph does not have is an execute-time error (exit 1).

use std::process::Command;

/// Runs `nbfs ARGS` (space-separated) and requires exit `code`,
/// `error: …` on stderr, no panic and nothing on stdout; returns stderr.
fn rejected(args: &str, code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nbfs"))
        .args(args.split(' '))
        .output()
        .expect("nbfs binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    assert!(out.stdout.is_empty(), "{args} ran anyway");
    stderr
}

#[test]
fn retired_codecs_and_flags_fail_at_parse_time() {
    for args in [
        "run --scale 10 --codec sieve",
        "run --scale 10 --codec word-rle",
        "run --scale 10 --td-alltoallv",
    ] {
        let stderr = rejected(args, 2);
        assert!(stderr.contains("raw | delta-varint"), "{args}: {stderr}");
    }
    // The wall-clock snapshot's entry points (retired in PR 22).
    let stderr = rejected("bench --json x.json", 2);
    assert!(stderr.contains("unknown flag --json"), "{stderr}");
    let stderr = rejected("serve-bench", 2);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    // The granularity override; `--opt granularity=G` sets g.
    let stderr = rejected("run --scale 8 --summary-g 100", 2);
    assert!(stderr.contains("unknown flag --summary-g"), "{stderr}");
}

#[test]
fn out_of_range_numbers_fail_at_parse_time() {
    for args in [
        "bench --scale 8 --roots 0",
        "bench --scale 8 --roots 0 --compressed",
        "run --scale 8 --nodes 0",
        "run --scale 0",
        "run --scale 32",
        "generate --scale 4 --edge-factor 0 --out F",
        "run --scale 8 --opt granularity=100",
        "run --scale 8 --opt granularity=0",
        // A value-taking flag that is last, or followed by another flag.
        "run --scale",
        "run --scale --nodes 2",
    ] {
        rejected(args, 2);
    }
}

#[test]
fn more_search_keys_than_the_graph_has_is_an_error_not_a_panic() {
    for args in [
        "bench --scale 8 --roots 100000",
        "bench --scale 8 --roots 100000 --compressed",
    ] {
        let stderr = rejected(args, 1);
        assert!(stderr.contains("236 non-isolated vertices"), "{stderr}");
    }
}

#[test]
fn root_outside_the_graph_is_an_error_not_a_panic() {
    for sub in ["run", "trace"] {
        let out = Command::new(env!("CARGO_BIN_EXE_nbfs"))
            .args([sub, "--scale", "10", "--nodes", "1", "--root", "99999999"])
            .output()
            .expect("nbfs binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{sub} ran anyway: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{sub}: {stderr}");
        assert!(
            stderr.contains("bad --root: 99999999 is not a vertex (graph has 1024)"),
            "{sub}: {stderr}"
        );
        assert!(!stderr.contains("panicked at"), "{sub}: {stderr}");
    }
}
