//! The invariant rules (NBFS001–NBFS006) applied to one scanned file.
//!
//! Each rule documents its scope (which paths it applies to) and its
//! sanctioned exceptions. Rules match against [`ScanLine::code`] — the
//! comment/literal-stripped text — so tokens inside strings or comments
//! never fire.

use crate::diag::{Code, Diagnostic};
use crate::scan::{scan, ScanLine, ScannedFile};

/// The one module allowed to read the host clock (NBFS002).
const WALLCLOCK_SANCTUARY: &str = "crates/nbfs-bench/src/wallclock.rs";
/// The one module allowed to truncate vertex ids (NBFS005).
const VID_SANCTUARY: &str = "crates/nbfs-graph/src/vid.rs";

/// Crates whose library code must propagate errors instead of panicking
/// (NBFS003).
const NO_PANIC_CRATES: [&str; 4] = [
    "crates/nbfs-core/src/",
    "crates/nbfs-comm/src/",
    "crates/nbfs-trace/src/",
    "crates/nbfs-util/src/",
];

/// Identifiers that denote vertex ids in this codebase (NBFS005). A cast
/// whose operand mentions any of these as a whole word is flagged.
const VERTEX_IDENTS: [&str; 16] = [
    "v",
    "u",
    "root",
    "vertex",
    "vid",
    "src",
    "dst",
    "nbr",
    "neighbour",
    "neighbor",
    "local",
    "global",
    "first",
    "bit",
    "wo",
    "parent",
];

/// Collective operations every rank must reach together (NBFS006): the
/// BSP collectives the engines call.
const COLLECTIVE_TOKENS: [&str; 6] = [
    "allreduce_sum(",
    "allgather_words(",
    "allgather_words_into(",
    "allgather_words_codec_into(",
    "allgatherv_u32_codec(",
    "alltoallv_pairs_codec_into(",
];

/// Identifiers whose appearance in an `if`/`while` condition makes the
/// guarded block rank-dependent (NBFS006).
const RANK_WORDS: [&str; 4] = ["rank", "vrank", "my_rank", "rank_id"];

/// Tokens that exit the enclosing scope early; under a rank-dependent
/// guard they taint everything after the guard in the same scope
/// (NBFS006: some ranks may never reach a later collective).
const EARLY_EXIT_WORDS: [&str; 4] = ["return", "break", "continue", "panic"];

/// Heap-allocation tokens banned inside hot-path regions (NBFS004).
/// `reserve`/`push` on pre-sized buffers stay legal: the discipline is
/// "no *new* heap blocks per level", matching the paper's per-level cost
/// model where allocation would show up as unmodeled host time.
const ALLOC_TOKENS: [&str; 10] = [
    "Vec::new",
    "vec![",
    ".to_vec()",
    "collect::<Vec",
    "with_capacity",
    "Box::new",
    "String::new",
    "format!",
    ".to_string()",
    ".to_owned()",
];

/// Lints one in-memory source file as if it lived at `rel_path`
/// (workspace-relative, `/`-separated). This is the core entry point —
/// the workspace walker and the fixture self-tests both go through it.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let scanned = scan(text);
    let mut diags = Vec::new();

    let in_test_tree = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| rel_path.starts_with(dir) || rel_path.contains(&format!("/{dir}")));

    // --- NBFS001: crate roots must forbid unsafe code -------------------
    if is_crate_root(rel_path)
        && !scanned
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"))
    {
        diags.push(Diagnostic {
            code: Code::Nbfs001,
            path: rel_path.to_string(),
            line: 1,
            message: "crate root is missing #![forbid(unsafe_code)]".into(),
            snippet: scanned
                .lines
                .first()
                .map(|l| l.raw.trim().to_string())
                .unwrap_or_default(),
        });
    }

    // --- NBFS004 marker problems (malformed/unterminated regions) -------
    for e in &scanned.marker_errors {
        diags.push(Diagnostic {
            code: Code::Nbfs004,
            path: rel_path.to_string(),
            line: e.line,
            message: e.message.clone(),
            snippet: snippet_at(&scanned.lines, e.line),
        });
    }

    for line in &scanned.lines {
        // --- NBFS002: host clock only inside the wallclock sanctuary ----
        if !in_test_tree && !line.in_test && rel_path != WALLCLOCK_SANCTUARY {
            for token in ["Instant::now", "SystemTime"] {
                if line.code.contains(token) {
                    diags.push(Diagnostic {
                        code: Code::Nbfs002,
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!(
                            "host clock read `{token}` outside {WALLCLOCK_SANCTUARY} \
                             breaks the simulated-time discipline"
                        ),
                        snippet: line.raw.trim().to_string(),
                    });
                }
            }
        }

        // --- NBFS003: no panics in core library code ---------------------
        if !in_test_tree && !line.in_test && NO_PANIC_CRATES.iter().any(|p| rel_path.starts_with(p))
        {
            for (token, what) in [
                (".unwrap()", "unwrap()"),
                (".expect(", "expect()"),
                ("panic!", "panic!"),
            ] {
                if line.code.contains(token) {
                    diags.push(Diagnostic {
                        code: Code::Nbfs003,
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!(
                            "{what} in non-test library code; propagate the error \
                             or add a justified analysis-allow.toml entry"
                        ),
                        snippet: line.raw.trim().to_string(),
                    });
                }
            }
        }

        // --- NBFS004: hot-path regions stay allocation-free --------------
        if line.in_hot_path {
            for token in ALLOC_TOKENS {
                if line.code.contains(token) {
                    diags.push(Diagnostic {
                        code: Code::Nbfs004,
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!("heap allocation `{token}` inside a hot-path region"),
                        snippet: line.raw.trim().to_string(),
                    });
                }
            }
        }

        // --- NBFS005: no truncating casts of vertex ids ------------------
        if !in_test_tree && !line.in_test && rel_path != VID_SANCTUARY {
            for cast in truncating_vertex_casts(&line.code) {
                diags.push(Diagnostic {
                    code: Code::Nbfs005,
                    path: rel_path.to_string(),
                    line: line.number,
                    message: format!(
                        "truncating cast `{cast}` on a vertex-id expression; \
                         route it through nbfs_graph::vid instead"
                    ),
                    snippet: line.raw.trim().to_string(),
                });
            }
        }
    }

    // --- NBFS006: collectives must be symmetric across ranks -------------
    collective_symmetry(rel_path, &scanned, &mut diags);

    diags
}

/// NBFS006: walks the stripped code of one file tracking rank-dependent
/// control flow. A collective token is flagged when it sits under a
/// rank-guarded `if`/`while` (or after a rank-guarded early exit in the
/// same scope — some ranks may never arrive) and the line is not inside a
/// sanctioned `// nbfs-analysis: rank-local` region.
///
/// The tracker is deliberately lexical, mirroring the rest of the linter:
/// brace depth plus a stack of rank-guard entry depths. `match` arms on
/// rank values are not modelled (a match-arm `if` guard is recognised and
/// ignored); write rank dispatch as `if` chains or annotate the region.
fn collective_symmetry(rel_path: &str, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    let mut depth: i64 = 0;
    // Entry depths of the currently-open rank-dependent blocks.
    let mut guards: Vec<i64> = Vec::new();
    // Scope depth an early exit under a rank guard taints; cleared when the
    // enclosing scope closes (depth drops below the recorded entry depth).
    let mut taint_until: Option<i64> = None;
    // A conditional head whose `{` has not been consumed yet: accumulated
    // condition text. Seeded with "rank" for plain `else` continuations so
    // the alternate branch of a rank guard is also treated as guarded.
    let mut open_cond: Option<String> = None;

    for line in &scanned.lines {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            if let Some(cond) = open_cond.as_mut() {
                // Consume up to the opening brace of the guarded block; a
                // `=>` first means this was a match-arm guard — ignore it.
                let brace = chars[i..].iter().position(|&c| c == '{').map(|b| i + b);
                let arrow = find_at(&chars, i, "=>");
                match (brace, arrow) {
                    (Some(b), a) if a.is_none() || a.is_some_and(|a| b < a) => {
                        cond.extend(&chars[i..b]);
                        if mentions_rank_word(cond) {
                            guards.push(depth);
                        }
                        open_cond = None;
                        depth += 1;
                        i = b + 1;
                    }
                    (_, Some(a)) => {
                        open_cond = None;
                        i = a + 2;
                    }
                    _ => {
                        cond.extend(&chars[i..]);
                        i = chars.len();
                    }
                }
                continue;
            }
            let c = chars[i];
            if c == '{' {
                depth += 1;
                i += 1;
                continue;
            }
            if c == '}' {
                depth -= 1;
                let mut popped = false;
                while guards.last().is_some_and(|&g| g >= depth) {
                    guards.pop();
                    popped = true;
                }
                if taint_until.is_some_and(|t| depth < t) {
                    taint_until = None;
                }
                i += 1;
                if popped {
                    // `} else ...` — reaching the alternate branch is just
                    // as rank-dependent as the guarded one.
                    let mut j = i;
                    while j < chars.len() && chars[j] == ' ' {
                        j += 1;
                    }
                    if starts_with_at(&chars, j, "else")
                        && !chars.get(j + 4).copied().is_some_and(is_ident_char)
                    {
                        open_cond = Some(String::from("rank"));
                        i = j + 4;
                    }
                }
                continue;
            }
            if let Some(tok) = COLLECTIVE_TOKENS
                .iter()
                .find(|t| starts_with_at(&chars, i, t))
            {
                let boundary_ok = i == 0 || !is_ident_char(chars[i - 1]);
                if boundary_ok && preceding_word(&chars, i) != "fn" {
                    let why = if guards.is_empty() && taint_until.is_none() {
                        None
                    } else if guards.is_empty() {
                        Some("after a rank-guarded early exit in this scope")
                    } else {
                        Some("under a rank-dependent guard")
                    };
                    if let Some(why) = why {
                        if !line.in_rank_local {
                            diags.push(Diagnostic {
                                code: Code::Nbfs006,
                                path: rel_path.to_string(),
                                line: line.number,
                                message: format!(
                                    "collective `{}` is not unconditionally reachable by \
                                     every rank ({why}); hoist it out of the guard or wrap \
                                     the sanctioned site in a \
                                     `// nbfs-analysis: rank-local` region",
                                    tok.trim_end_matches('(')
                                ),
                                snippet: line.raw.trim().to_string(),
                            });
                        }
                    }
                    i += tok.chars().count();
                    continue;
                }
            }
            if is_ident_char(c) && (i == 0 || !is_ident_char(chars[i - 1])) {
                let mut j = i;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                if word == "if" || word == "while" {
                    open_cond = Some(String::new());
                } else if EARLY_EXIT_WORDS.contains(&word.as_str())
                    && (word != "panic" || chars.get(j).copied() == Some('!'))
                {
                    if let Some(&g) = guards.first() {
                        taint_until = Some(taint_until.map_or(g, |cur| cur.min(g)));
                    }
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `chars[at..]` starts with the ASCII `token`.
fn starts_with_at(chars: &[char], at: usize, token: &str) -> bool {
    token
        .chars()
        .enumerate()
        .all(|(k, t)| chars.get(at + k).copied() == Some(t))
}

/// First occurrence of `token` at or after `at`, as a char index.
fn find_at(chars: &[char], at: usize, token: &str) -> Option<usize> {
    (at..chars.len()).find(|&p| starts_with_at(chars, p, token))
}

/// The identifier immediately before `at`, skipping spaces (`""` if the
/// preceding token is not an identifier).
fn preceding_word(chars: &[char], at: usize) -> String {
    let mut j = at;
    while j > 0 && chars[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident_char(chars[j - 1]) {
        j -= 1;
    }
    chars[j..end].iter().collect()
}

/// Whether a condition mentions a rank identifier as a whole word.
fn mentions_rank_word(cond: &str) -> bool {
    cond.split(|c: char| !is_ident_char(c))
        .any(|w| RANK_WORDS.contains(&w))
}

fn snippet_at(lines: &[ScanLine], number: usize) -> String {
    lines
        .iter()
        .find(|l| l.number == number)
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default()
}

/// `src/lib.rs`, `src/main.rs` and `src/bin/*.rs` are crate roots.
fn is_crate_root(rel_path: &str) -> bool {
    if rel_path.ends_with("/src/lib.rs")
        || rel_path.ends_with("/src/main.rs")
        || rel_path == "src/lib.rs"
        || rel_path == "src/main.rs"
    {
        return true;
    }
    if let Some(pos) = rel_path.find("/src/bin/") {
        let rest = &rel_path[pos + "/src/bin/".len()..];
        return rest.ends_with(".rs") && !rest.contains('/');
    }
    false
}

/// Finds `<expr> as u32` / `<expr> as u16` casts whose operand mentions a
/// vertex identifier, returning `operand as uNN` strings for the message.
fn truncating_vertex_casts(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(rel) = code[search..].find(" as u") {
        let at = search + rel;
        search = at + 1;
        let kw = at + 1; // index of 'a' in "as"
        let ty_start = kw + 3;
        let Some(ty) = ["u32", "u16"]
            .into_iter()
            .find(|t| code[ty_start..].starts_with(t))
        else {
            continue;
        };
        // Word boundary after the type (`u32x` is some other identifier).
        if bytes
            .get(ty_start + ty.len())
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            continue;
        }
        let operand = operand_before(code, at);
        if operand_mentions_vertex(&operand) {
            found.push(format!("{} as {}", operand.trim(), ty));
        }
    }
    found
}

/// Walks backwards from position `end` (exclusive) over one postfix
/// expression: identifiers, field/method chains, `::` paths, and balanced
/// `(...)` / `[...]` groups.
fn operand_before(code: &str, end: usize) -> String {
    let chars: Vec<char> = code[..end].chars().collect();
    let mut i = chars.len();
    while i > 0 && chars[i - 1] == ' ' {
        i -= 1;
    }
    let stop = i;
    loop {
        if i == 0 {
            break;
        }
        let c = chars[i - 1];
        if c == ')' || c == ']' {
            let open = if c == ')' { '(' } else { '[' };
            let mut depth = 1;
            let mut j = i - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if chars[j] == c {
                    depth += 1;
                } else if chars[j] == open {
                    depth -= 1;
                }
            }
            if depth != 0 {
                break; // unbalanced on this line; stop extending
            }
            i = j;
            continue;
        }
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            i -= 1;
            continue;
        }
        break;
    }
    chars[i..stop].iter().collect()
}

/// Whether the operand mentions any vertex identifier as a whole word.
fn operand_mentions_vertex(operand: &str) -> bool {
    operand
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .any(|w| VERTEX_IDENTS.contains(&w))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn codes(rel: &str, src: &str) -> Vec<Code> {
        lint_source(rel, src).into_iter().map(|d| d.code).collect()
    }

    const LIB_OK: &str = "#![forbid(unsafe_code)]\npub fn f() {}\n";

    #[test]
    fn nbfs001_fires_on_roots_only() {
        assert_eq!(
            codes("crates/x/src/lib.rs", "pub fn f() {}\n"),
            vec![Code::Nbfs001]
        );
        assert_eq!(
            codes("crates/x/src/bin/tool.rs", "fn main() {}\n"),
            vec![Code::Nbfs001]
        );
        assert!(codes("crates/x/src/other.rs", "pub fn f() {}\n").is_empty());
        assert!(codes("crates/x/src/lib.rs", LIB_OK).is_empty());
    }

    #[test]
    fn nbfs002_respects_sanctuary_and_tests() {
        let src = "#![forbid(unsafe_code)]\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(codes("crates/x/src/lib.rs", src), vec![Code::Nbfs002]);
        assert!(codes("crates/nbfs-bench/src/wallclock.rs", src).is_empty());
        assert!(codes("crates/x/tests/t.rs", src).is_empty());
        let test_src =
            "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod t { fn f() { SystemTime::now(); } }\n";
        assert!(codes("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn nbfs003_scoped_to_core_crates() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(codes("crates/nbfs-core/src/m.rs", src), vec![Code::Nbfs003]);
        assert!(codes("crates/nbfs-cli/src/m.rs", src).is_empty());
        let in_string = "fn f() { log(\"please .unwrap() me\"); }\n";
        assert!(codes("crates/nbfs-core/src/m.rs", in_string).is_empty());
        assert_eq!(
            codes("crates/nbfs-comm/src/m.rs", "fn f() { y.expect(\"m\"); }\n"),
            vec![Code::Nbfs003]
        );
        assert_eq!(
            codes("crates/nbfs-util/src/m.rs", "fn f() { panic!(\"m\"); }\n"),
            vec![Code::Nbfs003]
        );
    }

    #[test]
    fn nbfs004_only_inside_regions() {
        let src = "fn f() {\n// nbfs-analysis: hot-path\nlet v = Vec::new();\n// nbfs-analysis: end-hot-path\nlet w = Vec::new();\n}\n";
        assert_eq!(codes("crates/x/src/m.rs", src), vec![Code::Nbfs004]);
        let unterminated = "// nbfs-analysis: hot-path\nfn f() {}\n";
        assert_eq!(
            codes("crates/x/src/m.rs", unterminated),
            vec![Code::Nbfs004]
        );
    }

    #[test]
    fn nbfs005_vertex_casts() {
        assert_eq!(
            codes("crates/x/src/m.rs", "fn f(v: usize) -> u32 { v as u32 }\n"),
            vec![Code::Nbfs005]
        );
        assert_eq!(
            codes(
                "crates/x/src/m.rs",
                "fn f() { q.push((first + wo * W + bit) as u32); }\n"
            ),
            vec![Code::Nbfs005]
        );
        // Non-vertex operands and the sanctuary stay silent.
        assert!(codes(
            "crates/x/src/m.rs",
            "fn f(scale: u64) { let s = scale as u32; }\n"
        )
        .is_empty());
        assert!(codes(
            "crates/nbfs-graph/src/vid.rs",
            "fn f(v: usize) -> u32 { v as u32 }\n"
        )
        .is_empty());
        // `as u64` widens; not flagged.
        assert!(codes("crates/x/src/m.rs", "fn f(v: u32) { let w = v as u64; }\n").is_empty());
    }

    #[test]
    fn nbfs006_rank_guarded_collectives() {
        // Symmetric call sites are clean.
        assert!(codes("crates/x/src/m.rs", "fn f(p: &P) { allreduce_sum(p); }\n").is_empty());
        // Direct rank guard.
        assert_eq!(
            codes(
                "crates/x/src/m.rs",
                "fn f(p: &P) { if p.rank() == 0 { allreduce_sum(p); } }\n"
            ),
            vec![Code::Nbfs006]
        );
        // Early exit under a rank guard taints the rest of the scope.
        assert_eq!(
            codes(
                "crates/x/src/m.rs",
                "fn f(p: &P) {\n    if rank != 0 {\n        return;\n    }\n    allreduce_sum(p);\n}\n"
            ),
            vec![Code::Nbfs006]
        );
        // The else branch of a rank guard is just as rank-dependent.
        assert_eq!(
            codes(
                "crates/x/src/m.rs",
                "fn f(p: &P) { if my_rank == 0 { note(); } else { allreduce_sum(p); } }\n"
            ),
            vec![Code::Nbfs006]
        );
        // Every collective token is covered, not just the allreduce.
        assert_eq!(
            codes(
                "crates/x/src/m.rs",
                "fn f(w: &W) { if vrank == 0 { allgather_words(w); } }\n"
            ),
            vec![Code::Nbfs006]
        );
        // Definitions are not call sites.
        assert!(codes(
            "crates/x/src/m.rs",
            "pub fn alltoallv_pairs_codec_into(w: &W) { body(w); }\n"
        )
        .is_empty());
        // Non-rank conditions do not guard.
        assert!(codes(
            "crates/x/src/m.rs",
            "fn f(p: &P, done: bool) { if done { allreduce_sum(p); } }\n"
        )
        .is_empty());
        // Taint clears when the enclosing scope closes.
        assert!(codes(
            "crates/x/src/m.rs",
            "fn g(p: &P) {\n    { if rank == 0 { return; } }\n    allreduce_sum(p);\n}\n"
        )
        .is_empty());
        // Match-arm `if` guards are recognised and ignored (no desync).
        assert!(codes(
            "crates/x/src/m.rs",
            "fn f(p: &P, x: u32) {\n    match x { 0 if rank == 0 => note(), _ => {} }\n    allreduce_sum(p);\n}\n"
        )
        .is_empty());
        // A sanctioned rank-local region silences the finding.
        assert!(codes(
            "crates/x/src/m.rs",
            "fn f(p: &P) {\n// nbfs-analysis: rank-local\nif rank == 0 { allreduce_sum(p); }\n// nbfs-analysis: end-rank-local\n}\n"
        )
        .is_empty());
        // A method call that merely ends in a collective's name is not one.
        assert!(codes(
            "crates/x/src/m.rs",
            "fn f(p: &P) { if rank == 0 { p.my_allreduce_sum(1); } }\n"
        )
        .is_empty());
    }
}
