//! Retired spellings stay rejected at the binary's surface: a parse
//! error that names the valid values, exit code 2, no panic.

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
