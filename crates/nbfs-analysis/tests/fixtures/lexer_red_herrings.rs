//! Fixture: every token in this file that *looks* like a violation sits
//! inside a raw string, byte string, char literal, or nested block
//! comment. A lexer that mis-tracks any of those states will fire a bogus
//! finding here.
//! Linted as-if at `crates/nbfs-comm/src/fixture.rs`; must stay clean.

pub fn red_herrings(counts: &[u64], pmap: &ProcessMap, net: &NetworkModel) -> Result<u64, NbfsError> {
    // Raw strings swallow backslashes and quotes; the lint tokens inside
    // are data, not code.
    let doc = r#"call .unwrap() then Instant::now(); if rank == 0 { allreduce_sum(c, p, n); }"#;
    let nested = r##"outer r#"inner "quoted" here"# and root as u32"##;
    let bytes = br#"SystemTime::now() and panic!("boom")"#;
    /* block comments nest in Rust:
       /* inner comment with allgather_words(parts).unwrap() */
       still commented: if rank != 0 { return; } allreduce_sum(c, p, n);
    */
    let lifetime_then_string: &'static str = "not a raw string despite the r";
    let tick = 'r';
    keep(doc, nested, bytes, lifetime_then_string, tick);
    // A real, symmetric collective: clean unless the comment above leaked
    // its rank-guarded early exit into code.
    Ok(allreduce_sum(counts, pmap, net).value)
}
