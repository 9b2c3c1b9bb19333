//! The docs are the reproduction record, so what they quote about the
//! code's own surfaces — schema versions, the chaos matrix size, the
//! codec list — must be what the code says. Each check takes the value
//! from the code and looks for it at the sentence that states it.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::codec::Codec;

fn doc(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts `name` writes an integer directly after `marker` at least
/// once, and that every such integer is `expected`.
fn assert_states(name: &str, marker: &str, expected: u64) {
    let text = doc(name);
    let found: Vec<u64> = text
        .match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            rest[..digits].parse().ok()
        })
        .collect();
    assert!(
        !found.is_empty(),
        "{name} no longer has a number after {marker:?}"
    );
    assert!(
        found.iter().all(|&n| n == expected),
        "{name} states {found:?} after {marker:?}, the code says {expected}"
    );
}

/// First-column cells (backticks stripped) of the markdown table whose
/// header line is `header`.
fn table_labels(name: &str, header: &str) -> Vec<String> {
    doc(name)
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(2) // header + separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.split('|')
                .nth(1)
                .unwrap()
                .trim()
                .trim_matches('`')
                .to_string()
        })
        .collect()
}

#[test]
fn schema_versions_are_the_ones_the_code_pins() {
    let trace = u64::from(numa_bfs::trace::report::SCHEMA_VERSION);
    assert_states("DESIGN.md", "pinned at ", trace);
    assert_states("README.md", "trace schema v", trace);
}

#[test]
fn chaos_matrix_size_is_the_one_the_cli_runs() {
    // The CI profile (.github/workflows/ci.yml, `chaos` job).
    let cells = nbfs_cli::run_chaos(10, 2, 2012).unwrap().cells.len() as u64;
    assert_states("README.md", "fault matrix (", cells);
    assert_states("DESIGN.md", "seeded matrix of ", cells);
    assert_states("EXPERIMENTS.md", "Each of the ", cells);
}

#[test]
fn codec_list_is_codec_all() {
    let labels = Codec::ALL.map(Codec::label);
    let joined = labels.join(" | ");
    let usage = nbfs_cli::usage();
    assert!(
        usage.lines().any(|l| l == format!("CODEC: {joined}")),
        "usage() must list exactly `{joined}`:\n{usage}"
    );
    for name in ["README.md", "EXPERIMENTS.md"] {
        assert!(doc(name).contains(&joined), "{name} must list `{joined}`");
    }
    assert_eq!(
        table_labels("DESIGN.md", "| codec | payload treatment |"),
        labels,
        "DESIGN.md §10 codec table"
    );
    let header =
        "| codec | raw bytes | wire bytes | shm bytes | wire reduction | identical results |";
    assert_eq!(
        table_labels("EXPERIMENTS.md", header),
        labels,
        "EXPERIMENTS.md compression table"
    );
}

/// `*.md` files under `dir`, repo-relative, skipping build output,
/// vendored crates and git's own directory.
fn markdown_files(dir: &std::path::Path, out: &mut Vec<String>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if !["target", "vendor", ".git", ".bench_build"].contains(&name.as_str()) {
                markdown_files(&path, out);
            }
        } else if name.ends_with(".md") {
            out.push(path.strip_prefix(root).unwrap().display().to_string());
        }
    }
}

#[test]
fn retired_bench_system_is_gone_from_the_docs_and_quoted_metrics_exist() {
    // Retired surfaces: the wall-clock snapshot, the fallible/timed
    // entry-point family, the per-flavour distributed backends, the 2-D
    // merge-join, the threaded SPMD runtime with its node-shared
    // frontier and tag registry, the Criterion harness, and the per-bit
    // bottom-up kernel with its equivalence test. Only the project's
    // history and plan (CHANGES, ROADMAP, ISSUE) and the EXPERIMENTS
    // "Retired variants" section may still name them.
    let mut files = Vec::new();
    markdown_files(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    assert!(files.contains(&"README.md".to_string()), "{files:?}");
    for name in &files {
        if ["CHANGES.md", "ROADMAP.md", "ISSUE.md"].contains(&name.as_str()) {
            continue;
        }
        for section in doc(name).split("\n## ") {
            if name == "EXPERIMENTS.md" && section.starts_with("Retired variants") {
                continue;
            }
            for retired in [
                "BENCH_BFS.json",
                "bench-snapshot",
                "serve-bench",
                "try_run_traced_timed",
                "DistributedTryTracedBackend",
                "td_match_chunk",
                "run_spmd",
                "RankCtx",
                "SharedFrontier",
                "nbfs_comm::tags",
                "cargo bench",
                "benches/",
                "criterion",
                "Criterion",
                // Split so that the source tree itself never names the type.
                concat!("BottomUp", "Kernel"),
                "kernel_equivalence",
            ] {
                assert!(!section.contains(retired), "{name} still has {retired}");
            }
        }
    }

    // A name the docs quote as `layer.metric` or `workload/metric` is one
    // the benchmark manifest declares.
    let manifest: serde_json::Value = serde_json::from_str(&doc("BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<String> {
        let rows = manifest[key].as_array().unwrap();
        rows.iter()
            .map(|m| m["name"].as_str().unwrap().to_string())
            .collect()
    };
    let (workloads, per_layer) = (names("workloads"), names("per_layer"));
    let metrics = [names("end_to_end"), per_layer.clone()].concat();
    let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c);
    let mut quoted = 0;
    for name in ["README.md", "EXPERIMENTS.md"] {
        let text = doc(name);
        for span in text.split('`').skip(1).step_by(2) {
            let (on_workload, metric) = match span.split_once('/') {
                Some((w, m)) if workloads.iter().any(|x| x == w) => (true, m),
                _ => (false, span),
            };
            let layer = metric.split_once('.').map_or("", |(layer, _)| layer);
            let on_layer = metric.chars().all(word)
                && per_layer.iter().any(|m| m.split('.').next() == Some(layer));
            if on_workload || on_layer {
                let known = metrics.iter().any(|m| m == metric);
                assert!(known, "{name} quotes `{span}`, which BENCHMARK.json lacks");
                quoted += 1;
            }
        }
    }
    assert!(quoted > 0, "the docs no longer quote any benchmark metric");
}
