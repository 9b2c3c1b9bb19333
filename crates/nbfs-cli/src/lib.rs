//! Implementation of the `nbfs` command-line tool.
//!
//! Subcommands (see [`usage`]):
//!
//! * `generate` — write a Graph500 R-MAT edge list to disk;
//! * `info` — degree statistics of an edge-list file;
//! * `run` — one profiled BFS on the simulated cluster, with the full
//!   Fig. 11 breakdown;
//! * `trace` — one run-event-recorded BFS: the per-level span table, the
//!   collective volume ledger and the Fig. 11 phase totals projected from
//!   the trace (optionally exported as versioned JSON);
//! * `bench` — a Graph500-style campaign (N roots, harmonic-mean TEPS),
//!   run by `nbfs_core::harness` over the same engine `run` would search;
//! * `tune` — the analytic summary-granularity recommendation of
//!   `nbfs_core::tuning` for a given frontier density.
//! * `chaos` — the seeded fault-injection conformance matrix: every fault
//!   kind against every communication target, with recoverable cells
//!   required to reproduce the fault-free BFS parents bit for bit and
//!   unrecoverable cells required to fail with a structured error.
//!
//! `run` and `trace` take the same [`SearchArgs`] and share one setup
//! (graph, scenario, root, grid, storage, engine, header line); every
//! subcommand is one function that [`execute`] dispatches to. The library
//! half exists so argument parsing and command execution are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};

use nbfs_comm::codec::Codec;
use nbfs_comm::{FaultPlan, FaultScope, FaultSpec};
use nbfs_core::engine::{DistributedBfs, NoClock, Scenario, Search};
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::harness::{Graph500Harness, HarnessConfig};
use nbfs_core::opt::OptLevel;
use nbfs_core::query::{QueryEngine, SearchBackend, SearchEngine};
use nbfs_graph::stats::DegreeStats;
use nbfs_graph::{io, CompressedCsr, Csr, GraphBuilder, GraphView};
use nbfs_simnet::Residence;
use nbfs_topology::presets;
use nbfs_trace::{CollectiveKind, CollectiveStats, FaultKind, Phase, RunProfile, TraceConfig};
use nbfs_util::stats::format_teps;
use nbfs_util::units::format_bytes;
use nbfs_util::NbfsError;
use nbfs_util::{Bitmap, SimTime};
use serde::Serialize;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `generate --scale N [--edge-factor E] [--seed S] --out FILE`
    Generate {
        /// Graph500 scale (log2 vertices).
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
        /// Generator seed.
        seed: u64,
        /// Output path (`.txt`/`.el` = text, else binary).
        out: PathBuf,
    },
    /// `info FILE`
    Info {
        /// Edge-list file to inspect.
        path: PathBuf,
    },
    /// `run [--scale N | --graph FILE] [--nodes N] [--opt NAME] [--root V] [--codec C] [--grid RxC] [--compressed]`
    Run(SearchArgs),
    /// `trace`: the flags of `run`, plus `[--json PATH]`
    Trace {
        /// The search to trace.
        search: SearchArgs,
        /// Also export the full `TraceReport` as versioned JSON.
        json: Option<PathBuf>,
    },
    /// `bench [--scale N] [--nodes N] [--opt NAME] [--roots K] [--grid RxC] [--compressed]`
    Bench {
        /// Scale to generate.
        scale: u32,
        /// Simulated node count.
        nodes: usize,
        /// Optimization level.
        opt: OptLevel,
        /// Number of search keys.
        roots: usize,
        /// Campaign the 2-D engine on this processor grid.
        grid: Option<(usize, usize)>,
        /// Campaign over the delta-varint compressed CSR.
        compressed: bool,
    },
    /// `tune [--scale N] [--density D]`
    Tune {
        /// Scale of the frontier bitmap.
        scale: u32,
        /// Frontier density in (0, 1).
        density: f64,
    },
    /// `chaos [--scale N] [--nodes N] [--seed S] [--json PATH]`
    Chaos {
        /// Scale to generate.
        scale: u32,
        /// Simulated node count.
        nodes: usize,
        /// Fault-plan seed (same seed ⇒ identical fault matrix).
        seed: u64,
        /// Write the machine-readable cell report here.
        json: Option<PathBuf>,
    },
    /// `--help`
    Help,
}

/// The one search that `run` and `trace` make.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchArgs {
    /// Scale to generate (ignored with `--graph`).
    pub scale: u32,
    /// Optional edge-list file instead of generation.
    pub graph: Option<PathBuf>,
    /// Simulated node count.
    pub nodes: usize,
    /// Optimization level.
    pub opt: OptLevel,
    /// Root (default: max-degree vertex).
    pub root: Option<usize>,
    /// Wire codec for the per-level collectives.
    pub codec: Codec,
    /// Run the 2-D engine on this processor grid (`RxC` must tile the
    /// rank count).
    pub grid: Option<(usize, usize)>,
    /// Traverse the delta-varint compressed CSR instead of the
    /// uncompressed one.
    pub compressed: bool,
}
/// Parses a summary-bitmap granularity (`--opt granularity=G`) under
/// `SummaryBitmap::new`'s contract, so a bad value is a parse error and
/// never reaches the engine's assertion.
fn parse_granularity(value: &str) -> Result<usize, String> {
    let g: usize = value.parse().map_err(|e| format!("bad granularity: {e}"))?;
    nbfs_util::summary::check_granularity(g)?;
    Ok(g)
}

/// Parses an optimization-level name.
fn parse_opt(name: &str) -> Result<OptLevel, String> {
    Ok(match name {
        "ppn1" => OptLevel::OriginalPpn1,
        "ppn8" => OptLevel::OriginalPpn8,
        "share-in-queue" => OptLevel::ShareInQueue,
        "share-all" => OptLevel::ShareAll,
        "par-allgather" => OptLevel::ParAllgather,
        "best" => OptLevel::Granularity(256),
        other => match other.strip_prefix("granularity=") {
            Some(g) => OptLevel::Granularity(parse_granularity(g)?),
            None => return Err(format!("unknown --opt {other}")),
        },
    })
}

/// Parses a full argument vector (excluding argv\[0\]).
///
/// Everything the library below would `assert!` on is range-checked here,
/// so bad input is an `error: …` line and exit code 2, never a panic.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| "missing subcommand".to_string())?;
    let rest: Vec<&str> = it.collect();
    // Every flag the subcommand looks up; any other `--flag` on the
    // command line is rejected once the subcommand has parsed.
    let known = std::cell::RefCell::new(Vec::new());
    // The value of a value-taking flag: the next argument, which must
    // exist and must not be another `--flag`.
    let flag = |name: &'static str| -> Result<Option<&str>, String> {
        known.borrow_mut().push(name);
        let Some(i) = rest.iter().position(|&a| a == name) else {
            return Ok(None);
        };
        match rest.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{name} needs a value")),
        }
    };
    let has = |name: &'static str| {
        known.borrow_mut().push(name);
        rest.contains(&name)
    };
    let num = |name: &'static str, default: u64, min: u64| -> Result<u64, String> {
        let v = match flag(name)? {
            Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}"))?,
            None => default,
        };
        if v < min {
            return Err(format!("{name} must be >= {min}, got {v}"));
        }
        Ok(v)
    };
    let count = |name: &'static str, default: u64, min: u64| -> Result<usize, String> {
        let v = num(name, default, min)?;
        usize::try_from(v).map_err(|_| format!("{name} is too large, got {v}"))
    };
    // The R-MAT generator's supported range.
    let scale = |default: u64| -> Result<u32, String> {
        let s = num("--scale", default, 0)?;
        match u32::try_from(s) {
            Ok(s @ 1..=31) => Ok(s),
            _ => Err(format!("--scale must be in 1..=31, got {s}")),
        }
    };
    let path = |name: &'static str| Ok::<_, String>(flag(name)?.map(PathBuf::from));
    let opt = || parse_opt(flag("--opt")?.unwrap_or("best"));
    let root = || -> Result<Option<usize>, String> {
        flag("--root")?
            .map(|v| v.parse().map_err(|e| format!("bad --root: {e}")))
            .transpose()
    };
    let codec = || -> Result<Codec, String> {
        flag("--codec")?
            .map(|v| {
                Codec::parse(v).ok_or_else(|| {
                    let valid = Codec::ALL.map(Codec::label).join(" | ");
                    format!("unknown --codec {v} (valid: {valid})")
                })
            })
            .transpose()
            .map(|c| c.unwrap_or(Codec::Raw))
    };
    let grid = || -> Result<Option<(usize, usize)>, String> {
        flag("--grid")?
            .map(|v| {
                let (r, c) = v
                    .split_once('x')
                    .ok_or_else(|| format!("bad --grid {v}: expected RxC, e.g. 2x4"))?;
                let rows: usize = r.parse().map_err(|e| format!("bad --grid rows: {e}"))?;
                let cols: usize = c.parse().map_err(|e| format!("bad --grid cols: {e}"))?;
                if rows == 0 || cols == 0 {
                    return Err(format!("bad --grid {v}: rows and cols must be >= 1"));
                }
                Ok((rows, cols))
            })
            .transpose()
    };
    let search = || -> Result<SearchArgs, String> {
        Ok(SearchArgs {
            scale: scale(16)?,
            graph: path("--graph")?,
            nodes: count("--nodes", 16, 1)?,
            opt: opt()?,
            root: root()?,
            codec: codec()?,
            grid: grid()?,
            compressed: has("--compressed"),
        })
    };

    let cmd = match sub {
        "generate" => Command::Generate {
            scale: scale(16)?,
            edge_factor: count("--edge-factor", 16, 1)?,
            seed: num("--seed", 1, 0)?,
            out: path("--out")?.ok_or_else(|| "generate needs --out FILE".to_string())?,
        },
        "info" => Command::Info {
            path: PathBuf::from(
                rest.first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| "info needs a FILE".to_string())?,
            ),
        },
        "run" => Command::Run(search()?),
        "trace" => Command::Trace {
            search: search()?,
            json: path("--json")?,
        },
        "bench" => Command::Bench {
            scale: scale(16)?,
            nodes: count("--nodes", 16, 1)?,
            opt: opt()?,
            roots: count("--roots", 8, 1)?,
            grid: grid()?,
            compressed: has("--compressed"),
        },
        "tune" => Command::Tune {
            scale: scale(20)?,
            density: flag("--density")?
                .map(|v| v.parse().map_err(|e| format!("bad --density: {e}")))
                .unwrap_or(Ok(0.02))?,
        },
        "chaos" => Command::Chaos {
            scale: scale(12)?,
            nodes: count("--nodes", 4, 1)?,
            seed: num("--seed", 2012, 0)?,
            json: path("--json")?,
        },
        "--help" | "-h" | "help" => Command::Help,
        other => return Err(format!("unknown subcommand {other}")),
    };
    let mut known = known.into_inner();
    known.sort_unstable();
    known.dedup();
    if let Some(bad) = rest
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(a))
    {
        return Err(format!(
            "unknown flag {bad} for `{sub}` (valid: {})",
            known.join(" ")
        ));
    }
    Ok(cmd)
}

/// Usage text.
pub fn usage() -> &'static str {
    "nbfs — hybrid BFS on a simulated NUMA cluster (CLUSTER 2012 reproduction)

USAGE:
  nbfs generate --scale N [--edge-factor E] [--seed S] --out FILE
  nbfs info FILE
  nbfs run   [--scale N | --graph FILE] [--nodes N] [--opt OPT] [--root V]
             [--codec CODEC] [--grid RxC] [--compressed]
  nbfs trace [--scale N | --graph FILE] [--nodes N] [--opt OPT] [--root V]
             [--codec CODEC] [--grid RxC] [--compressed] [--json PATH]
             (per-level run-event table; --json PATH exports the versioned TraceReport)
  nbfs bench [--scale N] [--nodes N] [--opt OPT] [--roots K] [--grid RxC] [--compressed]
             (Graph500 campaign: K validated search keys, harmonic-mean TEPS)
  nbfs tune  [--scale N] [--density D]
  nbfs chaos [--scale N] [--nodes N] [--seed S] [--json PATH]
             (seeded fault matrix: every fault kind against every communication target;
              recoverable cells must reproduce the fault-free BFS parents bit for bit)

OPT: ppn1 | ppn8 | share-in-queue | share-all | par-allgather | best | granularity=G
CODEC: raw | delta-varint
granularity=G sets the in_queue_summary granularity of the top rung
             (Fig. 16 sweep; power of two, multiple of 64; best: 256)
--codec C    compresses the per-level collective payloads on the wire
             (every codec reproduces raw's BFS parents bit for bit, only
              the charged bytes change; default: raw)
--grid RxC   runs the direction-optimizing 2-D engine on an RxC processor
             grid (R*C must equal nodes x ranks-per-node; parents are bit
             for bit those of the 1-D engine)
--compressed traverses the delta-varint compressed CSR in place of the
             uncompressed one (identical results, ~half the graph memory)"
}

/// What a subcommand function returns; [`execute`] prints its error.
type Outcome = Result<(), Box<dyn Error>>;

/// Executes a parsed command, writing human output to `out`. A reader
/// that closes `out` early (`nbfs tune ... | head -1`) is not an error: the
/// rest of the output is dropped, and the command still runs to the end,
/// so its own failures (a chaos verdict, a `--json` write) still surface.
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<(), String> {
    let out = &mut PipeWatch {
        inner: out,
        closed: false,
    };
    match cmd {
        Command::Help => writeln!(out, "{}", usage()).map_err(Into::into),
        Command::Generate {
            scale,
            edge_factor,
            seed,
            out: path,
        } => generate(scale, edge_factor, seed, &path, out),
        Command::Info { path } => info(&path, out),
        Command::Run(args) => run(&args, out),
        Command::Trace { search, json } => trace(&search, json.as_deref(), out),
        Command::Bench {
            scale,
            nodes,
            opt,
            roots,
            grid,
            compressed,
        } => bench(scale, nodes, opt, roots, grid, compressed, out),
        Command::Tune { scale, density } => tune(scale, density, out),
        Command::Chaos {
            scale,
            nodes,
            seed,
            json,
        } => chaos(scale, nodes, seed, json.as_deref(), out),
    }
    .map_err(|e| e.to_string())
}

/// A writer that drops everything once its reader has gone away.
struct PipeWatch<'a> {
    inner: &'a mut dyn Write,
    closed: bool,
}

impl PipeWatch<'_> {
    fn watch<T>(&mut self, r: std::io::Result<T>, dropped: T) -> std::io::Result<T> {
        match r {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(dropped)
            }
            r => r,
        }
    }
}

impl Write for PipeWatch<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let r = self.inner.write(buf);
        self.watch(r, buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let r = self.inner.flush();
        self.watch(r, ())
    }
}

/// `nbfs generate`.
fn generate(
    scale: u32,
    edge_factor: usize,
    seed: u64,
    path: &Path,
    out: &mut dyn Write,
) -> Outcome {
    let el = GraphBuilder::rmat(scale, edge_factor)
        .seed(seed)
        .build_edge_list();
    io::save(path, &el)?;
    writeln!(
        out,
        "wrote {} raw edges over {} vertices to {}",
        el.len(),
        el.num_vertices,
        path.display()
    )?;
    Ok(())
}

/// `nbfs info`.
fn info(path: &Path, out: &mut dyn Write) -> Outcome {
    let g = Csr::from_edge_list(&io::load(path)?);
    let stats = DegreeStats::compute(&g);
    writeln!(out, "{}", serde_json::to_string_pretty(&stats)?)?;
    Ok(())
}

/// `nbfs run`: the search and its Fig. 11 breakdown.
fn run(args: &SearchArgs, out: &mut dyn Write) -> Outcome {
    let (g, root, search) = search_once(args, TraceConfig::Off, out)?;
    let profile = search.run.profile;
    phase_rows(&profile, out)?;
    let teps = g.component_edges(root) as f64 / profile.total().as_secs();
    writeln!(out, "  total {} -> {}", profile.total(), format_teps(teps))?;
    Ok(())
}

/// `nbfs trace`: the search's per-level spans, direction switches,
/// collective volume ledger and the Fig. 11 totals projected from the
/// trace, optionally exported as JSON.
fn trace(args: &SearchArgs, json: Option<&Path>, out: &mut dyn Write) -> Outcome {
    let (_, _, Search { run, report, .. }) = search_once(args, TraceConfig::Standard, out)?;

    writeln!(out, "\nper-level spans (simulated time):")?;
    writeln!(
        out,
        "{:>5}  {:<10} {:>10} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "level", "direction", "discovered", "comp", "comm", "stall", "switch", "total"
    )?;
    for lv in &report.levels {
        writeln!(
            out,
            "{:>5}  {:<10} {:>10} {:>11} {:>11} {:>11} {:>11} {:>11}",
            lv.level,
            lv.direction.label(),
            lv.discovered,
            format!("{}", lv.comp),
            format!("{}", lv.comm),
            format!("{}", lv.stall),
            format!("{}", lv.switch),
            format!("{}", lv.total())
        )?;
    }

    let flips: Vec<_> = report
        .decisions
        .iter()
        .filter(|d| d.prev != d.chosen)
        .collect();
    if !flips.is_empty() {
        writeln!(out, "\ndirection switches:")?;
        for d in flips {
            writeln!(
                out,
                "  level {:>2}: {} -> {}  (m_f={}, m_u={}, n_f={}, n={})",
                d.level,
                d.prev.label(),
                d.chosen.label(),
                d.m_f,
                d.m_u,
                d.n_f,
                d.n
            )?;
        }
    }

    // Aggregate every collective sample (per-level plus the terminal
    // allreduce) into one volume ledger, keyed by kind in order of first
    // appearance.
    let mut ledger: Vec<(CollectiveKind, u64, CollectiveStats, SimTime)> = Vec::new();
    let samples = report
        .levels
        .iter()
        .flat_map(|l| l.collectives.iter())
        .chain(report.post_collectives.iter());
    for rec in samples {
        match ledger.iter_mut().find(|(k, ..)| *k == rec.kind) {
            Some(entry) => {
                entry.1 += 1;
                entry.2.merge(rec.stats);
                entry.3 += rec.cost.total();
            }
            None => ledger.push((rec.kind, 1, rec.stats, rec.cost.total())),
        }
    }
    writeln!(
        out,
        "\ncollective volume ledger (codec: {}):",
        args.codec.label()
    )?;
    writeln!(
        out,
        "{:<18} {:>6} {:>7} {:>7} {:>11} {:>11} {:>11} {:>7} {:>11}",
        "collective", "calls", "rounds", "flows", "raw", "wire", "shm", "ratio", "sim time"
    )?;
    for (kind, calls, stats, cost) in &ledger {
        let ratio = if stats.wire_bytes > 0 {
            format!("{:.2}x", stats.raw_bytes as f64 / stats.wire_bytes as f64)
        } else {
            "-".to_string()
        };
        writeln!(
            out,
            "{:<18} {:>6} {:>7} {:>7} {:>11} {:>11} {:>11} {:>7} {:>11}",
            kind.label(),
            calls,
            stats.rounds,
            stats.flows,
            format_bytes(stats.raw_bytes),
            format_bytes(stats.wire_bytes),
            format_bytes(stats.shm_bytes),
            ratio,
            format!("{cost}")
        )?;
    }
    let (raw_total, wire_total) = ledger.iter().fold((0u64, 0u64), |(r, w), e| {
        (r + e.2.raw_bytes, w + e.2.wire_bytes)
    });
    if wire_total > 0 {
        writeln!(
            out,
            "{:<18} {:>22} {:>11} {:>11} {:>11} {:>7}",
            "total",
            "",
            format_bytes(raw_total),
            format_bytes(wire_total),
            "",
            format!("{:.2}x", raw_total as f64 / wire_total as f64)
        )?;
    }

    let projected = report.run_profile();
    writeln!(out, "\nFig. 11 phase totals (projected from the trace):")?;
    phase_rows(&projected, out)?;
    let exact = Phase::ALL
        .iter()
        .all(|&p| projected.phase(p) == run.profile.phase(p));
    writeln!(
        out,
        "  total {} (projection == engine profile: {exact})",
        projected.total()
    )?;
    if let Some(path) = json {
        std::fs::write(path, report.to_json()?)?;
        writeln!(out, "wrote {}", path.display())?;
    }
    Ok(())
}

/// `nbfs bench`: the Graph500 campaign of [`Graph500Harness`] over the
/// engine `run` would search, every tree validated against the dense
/// graph.
fn bench(
    scale: u32,
    nodes: usize,
    opt: OptLevel,
    roots: usize,
    grid: Option<(usize, usize)>,
    compressed: bool,
    out: &mut dyn Write,
) -> Outcome {
    let g = GraphBuilder::rmat(scale, 16).seed(1).build();
    let machine = presets::xeon_x7550_cluster(nodes).scaled_to_graph(scale, 28);
    let scenario = Scenario::builder(machine, opt).build()?;
    if let Some(shape) = grid {
        check_grid(&scenario, shape)?;
    }
    let packed = compressed.then(|| CompressedCsr::from_csr(&g));
    let engine = build_engine(&g, packed.as_ref(), &scenario, grid);
    let config = HarnessConfig {
        roots,
        seed: 2012,
        validate: true,
    };
    let result = Graph500Harness::new(&g, &*engine).run(&config)?;
    let engine_label = match grid {
        Some((r, c)) => format!(" | 2-D {r}x{c}"),
        None => String::new(),
    };
    let storage_label = if compressed { " | compressed CSR" } else { "" };
    writeln!(
        out,
        "{} | scale {scale} | {nodes} nodes | {roots} roots (all validated){engine_label}{storage_label}",
        opt.label()
    )?;
    writeln!(
        out,
        "harmonic-mean TEPS: {}",
        format_teps(result.harmonic_teps())
    )?;
    writeln!(
        out,
        "bottom-up comm share: {:.1}%",
        100.0 * result.mean_profile.bu_comm_fraction()
    )?;
    Ok(())
}

/// `nbfs tune`: the analytic granularity recommendation for a random
/// frontier of the given density.
fn tune(scale: u32, density: f64, out: &mut dyn Write) -> Outcome {
    if !(0.0..1.0).contains(&density) || density <= 0.0 {
        return Err("--density must be in (0, 1)".into());
    }
    let n = 1usize << scale.min(24);
    let mut frontier = Bitmap::new(n);
    let mut rng = nbfs_util::rng::Xoroshiro128::new(7);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "density is in (0, 1), so the target is below n"
    )]
    let target = ((n as f64) * density) as usize;
    let mut ones = 0;
    while ones < target {
        #[expect(clippy::cast_possible_truncation, reason = "below n, a usize")]
        let v = rng.next_below(n as u64) as usize;
        if frontier.set_returning_fresh(v) {
            ones += 1;
        }
    }
    let machine = presets::cluster2012().scaled_to_graph(scale.min(24), 32);
    let g = nbfs_core::tuning::auto_granularity(
        &machine,
        &frontier,
        Residence::NodeShared,
        Residence::NodeShared,
    );
    writeln!(
        out,
        "frontier density {density}: recommended in_queue_summary granularity = {g}"
    )?;
    for cand in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let c = nbfs_core::tuning::expected_check_ns(
            &machine,
            &frontier,
            cand,
            Residence::NodeShared,
            Residence::NodeShared,
        );
        writeln!(out, "  g={cand:<5} expected check cost {c:.1} ns")?;
    }
    Ok(())
}

/// `nbfs chaos`: the fault matrix of [`run_chaos`] as a table, failing
/// when any cell failed.
fn chaos(scale: u32, nodes: usize, seed: u64, json: Option<&Path>, out: &mut dyn Write) -> Outcome {
    let report = run_chaos(scale, nodes, seed)?;
    writeln!(
        out,
        "chaos matrix: seed {seed}, scale {scale}, {nodes} nodes"
    )?;
    writeln!(
        out,
        "{:<18} {:<10} {:<8} {:>7} {:>10} {:>14}  outcome",
        "target", "kind", "expect", "faults", "identical", "deterministic"
    )?;
    for c in &report.cells {
        writeln!(
            out,
            "{:<18} {:<10} {:<8} {:>7} {:>10} {:>14}  {}",
            c.target,
            c.kind,
            c.expectation,
            c.faults,
            if c.identical { "yes" } else { "NO" },
            if c.deterministic { "yes" } else { "NO" },
            c.outcome
        )?;
    }
    let passed = report.cells.iter().filter(|c| c.passed).count();
    writeln!(out, "chaos: {passed}/{} cells passed", report.cells.len())?;
    if let Some(path) = json {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        writeln!(out, "wrote {}", path.display())?;
    }
    if !report.passed {
        return Err(format!("chaos: {} cell(s) failed", report.cells.len() - passed).into());
    }
    Ok(())
}

/// The one search of `run` and `trace`: the graph (`--graph` or the
/// generated R-MAT), the scenario, the checked root and grid, the packed
/// image under `--compressed` (its storage line printed first) and the
/// engine over it. Prints the header line and returns the graph, the root
/// and the search.
fn search_once(
    args: &SearchArgs,
    trace: TraceConfig,
    out: &mut dyn Write,
) -> Result<(Csr, usize, Search), Box<dyn Error>> {
    let g = match &args.graph {
        Some(path) => Csr::from_edge_list(&io::load(path)?),
        None => GraphBuilder::rmat(args.scale, 16).seed(1).build(),
    };
    let actual_scale = g.num_vertices().next_power_of_two().trailing_zeros();
    let machine = presets::xeon_x7550_cluster(args.nodes).scaled_to_graph(actual_scale, 28);
    let scenario = Scenario::builder(machine, args.opt)
        .trace(trace)
        .codec(args.codec)
        .build()?;
    let root = resolve_root(&g, args.root)?;
    if let Some(shape) = args.grid {
        check_grid(&scenario, shape)?;
    }
    let packed = args.compressed.then(|| CompressedCsr::from_csr(&g));
    if let Some(packed) = &packed {
        writeln!(
            out,
            "compressed CSR: {} vs {} uncompressed ({:.2}x)",
            format_bytes(packed.size_bytes() as u64),
            format_bytes(g.size_bytes() as u64),
            g.size_bytes() as f64 / packed.size_bytes() as f64
        )?;
    }
    let search = build_engine(&g, packed.as_ref(), &scenario, args.grid).search(root, &NoClock)?;
    let engine_label = match args.grid {
        Some((r, c)) => format!("2-D {r}x{c}"),
        None => "1-D".to_string(),
    };
    writeln!(
        out,
        "{} ({engine_label}) on {} nodes, root {root}: visited {} of {} vertices",
        args.opt.label(),
        args.nodes,
        search.run.visited,
        g.num_vertices()
    )?;
    Ok((g, root, search))
}

/// The Fig. 11 rows of `profile`: each phase's time and share.
fn phase_rows(profile: &RunProfile, out: &mut dyn Write) -> std::io::Result<()> {
    for phase in Phase::ALL {
        let t = profile.phase(phase);
        writeln!(
            out,
            "  {:<16} {:>12}  {:>5.1}%",
            phase.label(),
            format!("{t}"),
            100.0 * (t / profile.total())
        )?;
    }
    Ok(())
}

/// Checks that a `--grid RxC` shape tiles the scenario's rank count,
/// turning the engine's panic into a CLI-friendly error.
fn check_grid(scenario: &Scenario, (rows, cols): (usize, usize)) -> Result<(), String> {
    let pm = scenario.process_map();
    if rows * cols != pm.world_size() {
        return Err(format!(
            "--grid {rows}x{cols} does not tile the {} ranks ({} nodes x {} ranks per node)",
            pm.world_size(),
            pm.nodes(),
            pm.ppn()
        ));
    }
    Ok(())
}

/// The engine of `run` / `trace` / `bench`, built once per command: on the
/// packed image when there is one, the 2-D engine when a (checked) grid is
/// given.
fn build_engine<'g>(
    dense: &'g Csr,
    packed: Option<&'g CompressedCsr>,
    scenario: &Scenario,
    grid: Option<(usize, usize)>,
) -> Box<dyn SearchEngine + 'g> {
    match (packed, grid) {
        (Some(packed), Some((r, c))) => Box::new(TwoDimBfs::with_grid(packed, scenario, r, c)),
        (Some(packed), None) => Box::new(DistributedBfs::new(packed, scenario)),
        (None, Some((r, c))) => Box::new(TwoDimBfs::with_grid(dense, scenario, r, c)),
        (None, None) => Box::new(DistributedBfs::new(dense, scenario)),
    }
}

/// The search root of `run`/`trace`: `--root` checked against the graph
/// (the engines assert on an id that is not a vertex), or the
/// highest-degree vertex when the flag is absent.
fn resolve_root(g: &Csr, root: Option<usize>) -> Result<usize, String> {
    let n = g.num_vertices();
    match root {
        Some(v) if v >= n => Err(format!("bad --root: {v} is not a vertex (graph has {n})")),
        Some(v) => Ok(v),
        None => Ok(nbfs_bench::scenarios::best_root(g)),
    }
}

/// One cell of the chaos matrix: a fault kind injected into one
/// communication target.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosCell {
    /// Communication target (`ring-allgather`, `leader-allgather`,
    /// `par-allgather`, `ring-allgather+dv`, `query-wave-ring`).
    pub target: String,
    /// Fault kind injected (`drop`, `delay`, …).
    pub kind: String,
    /// What the cell must do: `recover` or `error`.
    pub expectation: String,
    /// What actually happened (`recovered`, `structured-error`, or a
    /// failure description).
    pub outcome: String,
    /// Fault records logged by the run.
    pub faults: u64,
    /// Recovered results bit-identical to the fault-free run (always true
    /// for a passing `recover` cell; vacuously true for `error` cells).
    pub identical: bool,
    /// Re-running with the same seed reproduced the identical fault log /
    /// trace report.
    pub deterministic: bool,
    /// The cell met its expectation.
    pub passed: bool,
}

/// The machine-readable result of `nbfs chaos`.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    /// Fault-plan seed.
    pub seed: u64,
    /// Graph scale.
    pub scale: u32,
    /// Simulated node count.
    pub nodes: usize,
    /// Every cell passed.
    pub passed: bool,
    /// The matrix, row-major (target × kind).
    pub cells: Vec<ChaosCell>,
}

/// A single-spec plan: `kind` on every matching site, rate 1.0. First
/// attempts only, so drops deterministically recover on retry; crashes are
/// always fatal.
fn chaos_plan(seed: u64, kind: FaultKind) -> FaultPlan {
    FaultPlan::new(seed).spec(FaultSpec::new(kind, FaultScope::any()))
}

/// A `recover` cell: passes when the plan fired (`faults > 0`), the
/// results were bit-identical to the fault-free run, and a same-seed rerun
/// reproduced the fault log. `mismatch_msg` names what differed otherwise.
fn recover_cell(
    label: &str,
    kind: FaultKind,
    identical: bool,
    deterministic: bool,
    faults: u64,
    mismatch_msg: &str,
) -> ChaosCell {
    let fired = faults > 0;
    ChaosCell {
        target: label.into(),
        kind: kind.label().into(),
        expectation: "recover".into(),
        outcome: if identical && fired {
            "recovered".into()
        } else if !fired {
            "FAIL: plan never fired".into()
        } else {
            format!("FAIL: {mismatch_msg}")
        },
        faults,
        identical,
        deterministic,
        passed: identical && deterministic && fired,
    }
}

/// An `error` cell: passes when the run failed with a structured error
/// (`outcome` then starts with `structured-error`). A failed search returns
/// no trace report, so an error cell logs no faults.
fn error_cell(label: &str, kind: FaultKind, passed: bool, outcome: String) -> ChaosCell {
    ChaosCell {
        target: label.into(),
        kind: kind.label().into(),
        expectation: "error".into(),
        outcome,
        faults: 0,
        identical: true,
        deterministic: true,
        passed,
    }
}

/// One recoverable engine cell: a traced faulted run must reproduce the
/// fault-free `baseline` parents, and rerun to the identical report.
fn engine_recover_cell<G: GraphView>(
    label: &str,
    kind: FaultKind,
    faulted: &DistributedBfs<'_, G>,
    root: usize,
    baseline: &[u32],
) -> Result<ChaosCell, String> {
    Ok(match faulted.search(root, &NoClock) {
        Ok(Search { run, report, .. }) => {
            let json = report.to_json().map_err(|e| e.to_string())?;
            let deterministic = match faulted.search(root, &NoClock) {
                Ok(second) => second.report.to_json().map_err(|e| e.to_string())? == json,
                Err(_) => false,
            };
            recover_cell(
                label,
                kind,
                run.parent == baseline,
                deterministic,
                report.faults.len() as u64,
                "recovered parents differ from fault-free",
            )
        }
        Err(e) => ChaosCell {
            outcome: format!("FAIL: unexpected error: {e}"),
            ..recover_cell(label, kind, false, false, 0, "")
        },
    })
}

/// Runs the seeded fault matrix: every [`FaultKind`] against each engine
/// in the collective ladder (ring, leader-based, parallelized allgather),
/// plus codec and query-wave cells.
///
/// Recoverable cells must reproduce the fault-free results bit for bit and
/// the same seed must reproduce the identical fault log; crash cells must
/// fail with a structured error — completion of the matrix at all is the
/// no-hang check.
pub fn run_chaos(scale: u32, nodes: usize, seed: u64) -> Result<ChaosReport, String> {
    let mut cells = Vec::new();

    let g = GraphBuilder::rmat(scale, 16).seed(1).build();
    let machine = presets::xeon_x7550_cluster(nodes).scaled_to_graph(scale, 28);
    let root = (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .ok_or("empty graph")?;
    let scenario = |opt: OptLevel, codec: Codec, faults: Option<FaultPlan>| {
        let mut b = Scenario::builder(machine.clone(), opt)
            .codec(codec)
            .trace(TraceConfig::Standard);
        if let Some(plan) = faults {
            b = b.faults(plan);
        }
        b.build().map_err(|e| e.to_string())
    };

    // --- engine collectives: one target per allgather family -------------
    for (label, opt) in [
        ("ring-allgather", OptLevel::OriginalPpn8),
        ("leader-allgather", OptLevel::ShareInQueue),
        ("par-allgather", OptLevel::ParAllgather),
    ] {
        let baseline = DistributedBfs::new(&g, &scenario(opt, Codec::Raw, None)?).run(root);
        for kind in FaultKind::ALL {
            let faulted_scenario = scenario(opt, Codec::Raw, Some(chaos_plan(seed, kind)))?;
            let faulted = DistributedBfs::new(&g, &faulted_scenario);
            cells.push(if kind == FaultKind::Crash {
                match faulted.search(root, &NoClock) {
                    Err(e) => error_cell(label, kind, true, format!("structured-error: {e}")),
                    Ok(_) => error_cell(label, kind, false, "FAIL: crash plan completed".into()),
                }
            } else {
                engine_recover_cell(label, kind, &faulted, root, &baseline.parent)?
            });
        }
    }

    // --- codec cells: retry and compression must compose -----------------
    // Faulted collectives re-send *encoded* payloads, so a drop or a
    // duplicate under DeltaVarint exercises the retry path through the
    // decoder. Recoverable cells must match the fault-free run of the
    // same codec — which the equivalence suite separately pins to raw.
    let dv = |faults| scenario(OptLevel::OriginalPpn8, Codec::DeltaVarint, faults);
    let dv_baseline = DistributedBfs::new(&g, &dv(None)?).run(root);
    for kind in [FaultKind::Drop, FaultKind::Duplicate] {
        let faulted_scenario = dv(Some(chaos_plan(seed, kind)))?;
        let faulted = DistributedBfs::new(&g, &faulted_scenario);
        cells.push(engine_recover_cell(
            "ring-allgather+dv",
            kind,
            &faulted,
            root,
            &dv_baseline.parent,
        )?);
    }

    // --- batched query waves: faults during a multi-query batch ----------
    // The query engine's distributed backends batch several roots into one
    // wave; a fault plan must neither hang the wave nor perturb any
    // answer. Recoverable cells must match the fault-free batch bit for
    // bit, query by query.
    let wave_roots: Vec<usize> = {
        let mut by_degree: Vec<usize> =
            (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        by_degree.truncate(6);
        by_degree
    };
    let fault_free = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn8, Codec::Raw, None)?);
    let baseline: Vec<Search> = QueryEngine::new(SearchBackend::new(&fault_free))
        .run_batch(&wave_roots)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e: NbfsError| e.to_string())?;
    for kind in [FaultKind::Drop, FaultKind::Stall] {
        let faulted_scenario = scenario(
            OptLevel::OriginalPpn8,
            Codec::Raw,
            Some(chaos_plan(seed, kind)),
        )?;
        let faulted = DistributedBfs::new(&g, &faulted_scenario);
        let service = QueryEngine::new(SearchBackend::new(&faulted));
        let wave = service.run_batch(&wave_roots);
        let mut identical = wave.len() == baseline.len();
        let mut faults = 0u64;
        let mut logs: Vec<String> = Vec::with_capacity(wave.len());
        for (result, expected) in wave.iter().zip(&baseline) {
            match result {
                Ok(Search { run, report, .. }) => {
                    identical &= run.parent == expected.run.parent;
                    faults += report.faults.len() as u64;
                    logs.push(report.to_json().map_err(|e| e.to_string())?);
                }
                Err(_) => identical = false,
            }
        }
        let rerun = service.run_batch(&wave_roots);
        let deterministic = rerun.len() == wave.len()
            && rerun.iter().zip(&logs).all(|(result, log)| match result {
                Ok(search) => search.report.to_json().map(|j| &j == log).unwrap_or(false),
                Err(_) => false,
            });
        cells.push(recover_cell(
            "query-wave-ring",
            kind,
            identical,
            deterministic,
            faults,
            "batched answers differ from the fault-free wave",
        ));
    }

    let passed = cells.iter().all(|c| c.passed);
    Ok(ChaosReport {
        seed,
        scale,
        nodes,
        passed,
        cells,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// A reader that has gone away.
    struct ClosedPipe;

    impl std::io::Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    /// Any other write failure still fails.
    struct FullDisk;

    impl std::io::Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::StorageFull.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_is_a_clean_exit() {
        let cmd = parse(&argv("tune --scale 10 --density 0.1")).unwrap();
        assert_eq!(execute(cmd.clone(), &mut ClosedPipe), Ok(()));
        assert!(execute(cmd, &mut FullDisk).is_err());
        // The command still runs to the end: its `--json` export is written,
        // and a failure after its table was printed is still reported.
        let dir = std::env::temp_dir();
        let path = dir.join("nbfs-cli-closed-stdout.json");
        let _ = std::fs::remove_file(&path);
        let trace = |json: &std::path::Path| {
            let line = format!("trace --scale 10 --nodes 2 --json {}", json.display());
            parse(&argv(&line)).unwrap()
        };
        assert_eq!(execute(trace(&path), &mut ClosedPipe), Ok(()));
        assert!(path.exists(), "the --json export was skipped");
        std::fs::remove_file(&path).unwrap();
        let unwritable = dir.join("nbfs-cli-no-such-dir").join("t.json");
        assert!(execute(trace(&unwritable), &mut ClosedPipe).is_err());
    }

    #[test]
    fn parse_generate() {
        let cmd = parse(&argv("generate --scale 12 --seed 9 --out /tmp/x.bin")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                scale: 12,
                edge_factor: 16,
                seed: 9,
                out: PathBuf::from("/tmp/x.bin"),
            }
        );
    }

    #[test]
    fn parse_run_flags() {
        let cmd = parse(&argv("run --scale 14 --nodes 4 --opt share-all")).unwrap();
        match cmd {
            Command::Run(SearchArgs {
                scale, nodes, opt, ..
            }) => {
                assert_eq!(scale, 14);
                assert_eq!(nodes, 4);
                assert_eq!(opt, OptLevel::ShareAll);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_opt_names() {
        assert_eq!(parse_opt("best").unwrap(), OptLevel::Granularity(256));
        assert_eq!(
            parse_opt("granularity=512").unwrap(),
            OptLevel::Granularity(512)
        );
        assert!(parse_opt("nope").is_err());
        assert!(parse_opt("granularity=x").is_err());
        // Validation mirrors SummaryBitmap::new's contract.
        assert!(parse_opt("granularity=0").is_err());
        assert!(parse_opt("granularity=32").is_err(), "sub-word");
        assert!(parse_opt("granularity=192").is_err(), "non-pow2");
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&[]).is_err());
        assert!(
            parse(&argv("generate --scale 12")).is_err(),
            "--out required"
        );
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("info")).is_err());
    }

    #[test]
    fn run_command_end_to_end() {
        let cmd = parse(&argv("run --scale 10 --nodes 2 --opt ppn8")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("visited"), "{text}");
        assert!(text.contains("TEPS"), "{text}");
    }

    #[test]
    fn parse_trace_flags() {
        let cmd = parse(&argv(
            "trace --scale 12 --nodes 4 --opt ppn8 --json /tmp/t.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                search: SearchArgs {
                    scale: 12,
                    graph: None,
                    nodes: 4,
                    opt: OptLevel::OriginalPpn8,
                    root: None,
                    codec: Codec::Raw,
                    grid: None,
                    compressed: false,
                },
                json: Some(PathBuf::from("/tmp/t.json")),
            }
        );
    }

    #[test]
    fn parse_codec() {
        match parse(&argv("run --scale 14 --codec delta-varint")).unwrap() {
            Command::Run(SearchArgs { codec, .. }) => assert_eq!(codec, Codec::DeltaVarint),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("trace --scale 14 --codec raw")).unwrap() {
            Command::Trace {
                search: SearchArgs { codec, .. },
                ..
            } => assert_eq!(codec, Codec::Raw),
            other => panic!("wrong parse: {other:?}"),
        }
        // Default is raw; unknown names are rejected with the option list.
        match parse(&argv("run --scale 14")).unwrap() {
            Command::Run(SearchArgs { codec, .. }) => assert_eq!(codec, Codec::Raw),
            other => panic!("wrong parse: {other:?}"),
        }
        for name in ["zstd", "sieve", "word-rle"] {
            let e = parse(&argv(&format!("run --codec {name}"))).unwrap_err();
            assert!(e.contains(name) && e.contains("raw | delta-varint"), "{e}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_list() {
        let e = parse(&argv("run --scale 10 --td-alltoallv")).unwrap_err();
        assert!(e.contains("unknown flag --td-alltoallv"), "{e}");
        assert!(e.contains("--codec") && e.contains("--grid"), "{e}");
        // A flag of another subcommand is unknown here too.
        assert!(parse(&argv("tune --json /tmp/x")).is_err());
    }

    #[test]
    fn every_scale_flag_is_range_checked() {
        // 4294967312 is 2^32 + 16: a narrowing cast would read it as 16.
        for sub in [
            "generate --out g.bin",
            "run",
            "trace",
            "bench",
            "tune",
            "chaos",
        ] {
            for bad in ["0", "32", "4294967312"] {
                let e = parse(&argv(&format!("{sub} --scale {bad}"))).unwrap_err();
                assert!(e.contains("--scale must be in 1..=31"), "{sub}: {e}");
            }
        }
        match parse(&argv("tune --scale 31")).unwrap() {
            Command::Tune { scale, .. } => assert_eq!(scale, 31),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_grid_and_compressed() {
        match parse(&argv("run --scale 12 --grid 2x4 --compressed")).unwrap() {
            Command::Run(SearchArgs {
                grid, compressed, ..
            }) => {
                assert_eq!(grid, Some((2, 4)));
                assert!(compressed);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("trace --scale 12 --grid 8x1")).unwrap() {
            Command::Trace {
                search: SearchArgs {
                    grid, compressed, ..
                },
                ..
            } => {
                assert_eq!(grid, Some((8, 1)));
                assert!(!compressed);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("bench --scale 12 --compressed")).unwrap() {
            Command::Bench {
                grid, compressed, ..
            } => {
                assert_eq!(grid, None);
                assert!(compressed);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_grid_rejects_malformed_shapes() {
        assert!(parse(&argv("run --grid 2")).unwrap_err().contains("RxC"));
        assert!(parse(&argv("run --grid 2x")).is_err());
        assert!(parse(&argv("run --grid x4")).is_err());
        assert!(parse(&argv("run --grid axb")).is_err());
        assert!(
            parse(&argv("trace --grid 0x4"))
                .unwrap_err()
                .contains(">= 1"),
            "zero extent"
        );
    }

    #[test]
    fn grid_must_tile_the_rank_count() {
        // 2 nodes x 8 ranks per node = 16 ranks; 3x3 does not tile them.
        let cmd = parse(&argv("run --scale 10 --nodes 2 --opt share-all --grid 3x3")).unwrap();
        let e = execute(cmd, &mut Vec::new()).unwrap_err();
        assert!(e.contains("does not tile the 16 ranks"), "{e}");
        let cmd = parse(&argv("bench --scale 10 --nodes 2 --roots 2 --grid 5x2")).unwrap();
        assert!(execute(cmd, &mut Vec::new()).is_err());
    }

    #[test]
    fn run_with_grid_and_compressed_end_to_end() {
        let cmd = parse(&argv(
            "run --scale 10 --nodes 2 --opt share-all --grid 2x8 --compressed",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2-D 2x8"), "{text}");
        assert!(text.contains("compressed CSR"), "{text}");
        assert!(text.contains("visited"), "{text}");
    }

    #[test]
    fn trace_with_grid_keeps_projection_exact() {
        for storage in ["", "--compressed"] {
            let cmd = parse(&argv(&format!(
                "trace --scale 10 --nodes 2 --opt share-all --grid 2x8 {storage}"
            )))
            .unwrap();
            let mut buf = Vec::new();
            execute(cmd, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("2-D 2x8"), "{text}");
            // `trace` prints the storage line that `run` prints.
            assert_eq!(
                text.starts_with("compressed CSR: "),
                !storage.is_empty(),
                "{text}"
            );
            // The 2-D engine meets the same observability bar as the 1-D one.
            assert!(
                text.contains("projection == engine profile: true"),
                "{text}"
            );
        }
    }

    #[test]
    fn bench_campaign_with_grid_end_to_end() {
        let cmd = parse(&argv(
            "bench --scale 10 --nodes 2 --roots 2 --opt share-all --grid 2x8 --compressed",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("harmonic-mean TEPS"), "{text}");
        assert!(text.contains("2-D 2x8"), "{text}");
    }

    #[test]
    fn compressed_campaigns_report_what_dense_ones_do() {
        // CI's 2-D campaign smoke step. Storage changes no simulated
        // second, so a packed campaign prints the dense one's numbers.
        let bench = |args: &str| {
            let cmd = parse(&argv(&format!(
                "bench --scale 12 --nodes 2 --roots 4 {args}"
            )))
            .unwrap();
            let mut buf = Vec::new();
            execute(cmd, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            assert_eq!(lines.len(), 3, "{text}");
            lines
        };
        for engine in ["--grid 2x8", ""] {
            let packed = bench(&format!("{engine} --compressed"));
            let dense = bench(engine);
            assert!(packed[0].ends_with("| compressed CSR"), "{}", packed[0]);
            assert!(
                packed[1].starts_with("harmonic-mean TEPS: "),
                "{}",
                packed[1]
            );
            assert_eq!(packed[1..], dense[1..], "{engine}");
        }
    }

    #[test]
    fn run_with_opt_granularity_end_to_end() {
        let cmd = parse(&argv("run --scale 10 --nodes 2 --opt granularity=1024")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("visited"), "{text}");
    }

    #[test]
    fn trace_command_end_to_end() {
        let cmd = parse(&argv("trace --scale 10 --nodes 2 --opt share-all")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("per-level spans"), "{text}");
        assert!(
            text.contains("collective volume ledger (codec: raw)"),
            "{text}"
        );
        assert!(text.contains("ratio"), "{text}");
        assert!(text.contains("allreduce"), "{text}");
        // The acceptance bar: trace projection reproduces the engine
        // profile bitwise, so the CLI must report an exact match.
        assert!(
            text.contains("projection == engine profile: true"),
            "{text}"
        );
        assert!(!text.contains("dropped"), "{text}");
    }

    #[test]
    fn trace_with_codec_end_to_end() {
        let run = |codec_args: &str| {
            let cmd = parse(&argv(&format!(
                "trace --scale 10 --nodes 2 --opt ppn8 {codec_args}"
            )))
            .unwrap();
            let mut buf = Vec::new();
            execute(cmd, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let raw = run("");
        let dv = run("--codec delta-varint");
        assert!(
            dv.contains("collective volume ledger (codec: delta-varint)"),
            "{dv}"
        );
        // Same BFS: the visited line is identical; only charged bytes move.
        let visited = |s: &str| s.lines().next().unwrap().to_string();
        assert_eq!(visited(&raw), visited(&dv));
    }

    #[test]
    fn trace_json_export_round_trips() {
        let path = std::env::temp_dir().join("nbfs-cli-trace.json");
        let cmd = parse(&argv(&format!(
            "trace --scale 10 --nodes 2 --json {}",
            path.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let report =
            nbfs_trace::TraceReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.schema_version, nbfs_trace::SCHEMA_VERSION);
        assert_eq!(report.meta.nodes, 2);
        assert!(!report.levels.is_empty());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bench_command_end_to_end() {
        let cmd = parse(&argv(
            "bench --scale 10 --nodes 2 --roots 2 --opt share-all",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("harmonic-mean TEPS"), "{text}");
    }

    #[test]
    fn tune_command_end_to_end() {
        let cmd = parse(&argv("tune --scale 16 --density 0.01")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("recommended"), "{text}");
        let bad = Command::Tune {
            scale: 16,
            density: 2.0,
        };
        assert!(execute(bad, &mut Vec::new()).is_err());
    }

    #[test]
    fn parse_chaos_flags() {
        let cmd = parse(&argv(
            "chaos --scale 10 --nodes 2 --seed 7 --json /tmp/c.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                scale: 10,
                nodes: 2,
                seed: 7,
                json: Some(PathBuf::from("/tmp/c.json")),
            }
        );
        // Defaults mirror the fast CI profile documented in usage().
        match parse(&argv("chaos")).unwrap() {
            Command::Chaos {
                scale, nodes, seed, ..
            } => {
                assert_eq!((scale, nodes, seed), (12, 4, 2012));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn chaos_command_end_to_end() {
        let path = std::env::temp_dir().join("nbfs-cli-chaos.json");
        let cmd = parse(&argv(&format!(
            "chaos --scale 9 --nodes 2 --seed 5 --json {}",
            path.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("cells passed"), "{text}");
        // Every cell of the matrix must pass: recoverable kinds converge
        // to the fault-free parents, crashes end in structured errors.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc["seed"], 5);
        assert!(doc["passed"].as_bool().unwrap());
        let cells = doc["cells"].as_array().unwrap();
        assert_eq!(
            cells.len(),
            3 * 6 + 2 + 2,
            "3 allgather families x 6 kinds + 2 codec + 2 query-wave"
        );
        assert!(
            cells
                .iter()
                .any(|c| c["target"].as_str().unwrap().ends_with("+dv")),
            "codec cells present"
        );
        assert_eq!(
            cells
                .iter()
                .filter(|c| c["target"].as_str().unwrap().starts_with("query-wave"))
                .count(),
            2,
            "batched query-wave cells present"
        );
        for cell in cells {
            assert!(cell["passed"].as_bool().unwrap(), "{cell:?}");
            assert!(cell["deterministic"].as_bool().unwrap(), "{cell:?}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn generate_info_roundtrip() {
        let dir = std::env::temp_dir().join("nbfs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let cmd = parse(&argv(&format!(
            "generate --scale 9 --out {}",
            path.display()
        )))
        .unwrap();
        execute(cmd, &mut Vec::new()).unwrap();
        let mut buf = Vec::new();
        execute(Command::Info { path: path.clone() }, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("num_vertices"), "{text}");
        std::fs::remove_file(path).unwrap();
    }
}
