//! Hot-path regions stay allocation-free.
//!
//! A `// hot-path` … `// end-hot-path` region marks code that runs per
//! level, per word or per event. The paper's per-level cost model charges
//! no host time for allocation, so a new heap block there is unmodelled
//! time. This test reads the files that hold the regions, strips `//`
//! comments, and fails on an unbalanced marker or on an allocation token
//! inside a region. `reserve` and `push` on recycled buffers stay legal:
//! the rule is "no *new* heap blocks per level".
//!
//! ```text
//! cargo test --test hot_path_alloc
//! ```

#![allow(clippy::unwrap_used)]

/// Every file that holds a hot-path region, relative to the repo root.
const FILES: [&str; 9] = [
    "crates/nbfs-comm/src/allgather.rs",
    "crates/nbfs-comm/src/alltoallv.rs",
    "crates/nbfs-comm/src/codec.rs",
    "crates/nbfs-core/src/engine.rs",
    "crates/nbfs-core/src/engine2d.rs",
    "crates/nbfs-core/src/level.rs",
    "crates/nbfs-core/src/multi.rs",
    "crates/nbfs-core/src/par.rs",
    "crates/nbfs-trace/src/tracer.rs",
];

/// Regions across [`FILES`]; a marker that goes missing fails here.
const REGIONS: usize = 24;

/// Heap-allocation tokens banned inside a region.
const ALLOC_TOKENS: [&str; 11] = [
    "Vec::new",
    "vec![",
    ".to_vec()",
    "collect::<Vec",
    ".collect()",
    "with_capacity",
    "Box::new",
    "String::new",
    "format!",
    ".to_string()",
    ".to_owned()",
];

/// Scans one source text: the number of regions it closes and one line per
/// allocation found inside a region, or an error for an unbalanced marker.
fn scan(path: &str, text: &str) -> Result<(usize, Vec<String>), String> {
    let mut open = None;
    let mut regions = 0;
    let mut found = Vec::new();
    for (n, line) in (1..).zip(text.lines()) {
        match line.trim() {
            "// hot-path" => {
                if let Some(at) = open.replace(n) {
                    return Err(format!(
                        "{path}:{n}: hot-path inside the region opened at {at}"
                    ));
                }
            }
            "// end-hot-path" => {
                open.take()
                    .ok_or_else(|| format!("{path}:{n}: end-hot-path with no open region"))?;
                regions += 1;
            }
            _ if open.is_some() => {
                let code = line.split("//").next().unwrap_or_default();
                for token in ALLOC_TOKENS.iter().filter(|&&t| code.contains(t)) {
                    found.push(format!("{path}:{n}: `{token}` inside a hot-path region"));
                }
            }
            _ => {}
        }
    }
    match open {
        Some(at) => Err(format!("{path}:{at}: hot-path region is never closed")),
        None => Ok((regions, found)),
    }
}

#[test]
fn hot_path_regions_do_not_allocate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut regions = 0;
    let mut found = Vec::new();
    for path in FILES {
        let text = std::fs::read_to_string(root.join(path)).unwrap();
        let (r, f) = scan(path, &text).unwrap();
        assert!(r > 0, "{path} holds no hot-path region; drop it from FILES");
        regions += r;
        found.extend(f);
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
    assert_eq!(regions, REGIONS, "a hot-path region was added or removed");
}

#[test]
fn scan_flags_allocations_and_unbalanced_markers() {
    let clean = "fn f(v: &mut Vec<u32>) {\n    // hot-path\n    v.push(1); // no Vec::new here\n    // end-hot-path\n    let w = vec![0];\n}\n";
    assert_eq!(scan("clean.rs", clean), Ok((1, Vec::new())));

    let alloc =
        "// hot-path\nlet w: Vec<u8> = xs.iter().copied().collect::<Vec<_>>();\n// end-hot-path\n";
    let (_, found) = scan("alloc.rs", alloc).unwrap();
    assert_eq!(
        found,
        ["alloc.rs:2: `collect::<Vec` inside a hot-path region"]
    );
    // An inferred collect builds a new container just the same.
    let inferred = "// hot-path\nlet w: Vec<u8> = xs.iter().copied().collect();\n// end-hot-path\n";
    let (_, found) = scan("inferred.rs", inferred).unwrap();
    assert_eq!(
        found,
        ["inferred.rs:2: `.collect()` inside a hot-path region"]
    );

    let unclosed = "// hot-path\nlet x = 1;\n";
    assert!(scan("u.rs", unclosed).unwrap_err().contains("never closed"));
    let stray = "let x = 1;\n// end-hot-path\n";
    assert!(scan("s.rs", stray).unwrap_err().contains("no open region"));
    let nested = "// hot-path\n// hot-path\n// end-hot-path\n// end-hot-path\n";
    assert!(scan("n.rs", nested).unwrap_err().contains("opened at 1"));
}
