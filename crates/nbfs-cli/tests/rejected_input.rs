//! Bad input stays rejected at the binary's surface: a one-line error,
//! a non-zero exit code, no panic. Retired spellings are parse errors
//! that name the valid values (exit 2); a `--root` the graph does not
//! have is an execute-time error (exit 1).

use std::process::Command;

#[test]
fn retired_codecs_and_flags_fail_at_parse_time() {
    for args in [
        &["run", "--scale", "10", "--codec", "sieve"][..],
        &["run", "--scale", "10", "--codec", "word-rle"],
        &["run", "--scale", "10", "--td-alltoallv"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nbfs"))
            .args(args)
            .output()
            .expect("nbfs binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("raw | delta-varint"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
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
