//! The docs are the reproduction record, so what they quote about the
//! code's own surfaces — schema versions, the chaos matrix size, the
//! codec list, figure ids and the figures' measured values — must be what
//! the code says. Each check takes the value from the code and looks for
//! it at the sentence that states it.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use nbfs_bench::figures::{self, ALL_IDS, CLAIM_IDS};
use nbfs_bench::scenarios::BenchConfig;
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
    // frontier and tag registry, the Criterion harness, the per-bit
    // bottom-up kernel with its equivalence test, the bespoke linter,
    // the four examples that re-ran figures, and the recursive-doubling
    // allgather with the counting and edge twins of the collective
    // walks, the harness config builder, the trace's event rings with
    // their event type and ring-size setting, the traced twins of the
    // shared-memory kernels with their per-query record, and those
    // kernels' frontier arena, lane table and atomic bitmap, and the
    // summary-granularity override flag with the cached bitmap probes.
    // Only the project's history and plan files skipped below and the
    // EXPERIMENTS "Retired variants" section may still name them. Every
    // other doc quotes only figure ids the `figures` bin knows.
    let mut files = Vec::new();
    markdown_files(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    assert!(files.contains(&"README.md".to_string()), "{files:?}");
    let mut figure_ids_quoted = 0;
    for name in &files {
        if ["CHANGES.md", "ROADMAP.md", "ISSUE.md"].contains(&name.as_str()) {
            continue;
        }
        figure_ids_quoted += assert_figure_ids_exist(name);
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
                "nbfs-analysis",
                "analysis-allow",
                "placement_study",
                "comm_optimization_study",
                "granularity_sweep",
                "example graph500",
                "RecursiveDoubling",
                "allgather_stats_bytes",
                "inject_allgather_faults",
                "third twin",
                "HarnessConfigBuilder",
                concat!("Event", "Ring"),
                concat!("Trace", "Event"),
                concat!("TraceConfig::", "Ring"),
                "bfs_hybrid_parallel_traced",
                "multi_source_bfs_traced",
                concat!("Query", "Record"),
                concat!("Frontier", "Arena"),
                concat!("Frontier", "Slot"),
                concat!("Lane", "Bitmap"),
                concat!("Atomic", "Bitmap"),
                concat!("--summary", "-g"),
                concat!("CachedWord", "Probe"),
                concat!("Summary", "Probe"),
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
    assert!(
        figure_ids_quoted > 0,
        "the docs no longer quote any figure id"
    );
}

/// Asserts every `figures <id>` that `name` quotes in backticks names an
/// id in `ALL_IDS` (or `all`); returns how many it quotes.
fn assert_figure_ids_exist(name: &str) -> usize {
    let text = doc(name);
    let mut quoted = 0;
    for span in text.split('`').skip(1).step_by(2) {
        for (at, _) in span.match_indices("figures ") {
            let ids = span[at + "figures ".len()..]
                .split_whitespace()
                .skip_while(|&t| t == "--")
                .take_while(|t| !t.starts_with(['-', '#', '<']));
            for id in ids {
                assert!(
                    id == "all" || ALL_IDS.contains(&id),
                    "{name} quotes `figures {id}`; the bin knows {ALL_IDS:?}"
                );
                quoted += 1;
            }
        }
    }
    quoted
}

/// Every claim row a figure makes at the default configuration appears,
/// formatted as the figure formats it, in the "Measured here" cell of that
/// figure's row of EXPERIMENTS' summary table.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the default-scale figure run is release-only"
)]
fn experiments_quotes_the_figure_rows() {
    let experiments = doc("EXPERIMENTS.md");
    let cfg = BenchConfig::default();
    let mut checked = 0;
    for id in CLAIM_IDS {
        let report = figures::generate(id, &cfg).unwrap();
        let exp = format!("| Fig. {} |", id.trim_start_matches("fig"));
        let row = experiments
            .lines()
            .find(|l| l.starts_with(&exp))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{exp}` row"));
        let measured = row.split('|').nth(3).unwrap();
        for claim in &report.claims {
            let ours = claim.unit.format(claim.ours);
            // A whole number: `1.80×` must not match inside `11.80×`.
            let quoted = measured
                .match_indices(&ours)
                .any(|(at, _)| !measured[..at].ends_with(|c: char| c.is_ascii_digit() || c == '.'));
            assert!(
                quoted,
                "EXPERIMENTS.md {exp} \"Measured here\" lacks {ours} ({}):{measured}",
                claim.quantity
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no figure makes a claim");
}
