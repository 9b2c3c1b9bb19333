//! The repo benchmark: four workloads, two clocks, a per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process per workload run, so `setup_s` and `peak_rss_bytes` belong to
//! that workload alone. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer ones; the last line of standard output is the result as one
//! JSON object. `--all`, `--aa N` and `--check` re-run this binary per
//! workload (see `driver.rs`); README.md explains workloads and metrics.

#![forbid(unsafe_code)]

mod driver;
mod inputs;
mod layers;
mod spans;
mod spec;
mod stats;
mod suite;

use std::process::ExitCode;

use nbfs_graph::{CompressedCsr, Csr};

use spec::{MetricDef, Store, Workload, END_TO_END, PER_LAYER};
use suite::Outcome;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 16.0;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all: bool,
    aa: Option<usize>,
    write_bounds: bool,
    check: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: nbfs-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                      [--smoke] [--trace-out PATH] [--check]
       nbfs-perfbench --all [--seed N] [--seconds S] [--smoke] [--check]
       nbfs-perfbench --aa N [--workload <name>] [--seconds S] [--smoke] [--write-bounds]
workloads: rmat_node rmat_cluster_packed torus_deep query_waves";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be within (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--write-bounds" => args.write_bounds = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if n < 3 {
                    return Err(bad("needs at least 3 runs"));
                }
                args.aa = Some(n);
            }
            "--trace-out" => args.trace_out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

impl Args {
    /// Seconds one run measures for: `--seconds`, else 1 under `--smoke`,
    /// else `BENCHMARK.json`'s `run_seconds`.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { DEFAULT_SECONDS })
    }
}

/// The metric table a run with this `--trace` setting must fill.
fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Runs one workload in this process.
fn run_workload(w: &Workload, args: &Args) -> Outcome {
    let seconds = args.seconds();
    match (args.trace, w.store) {
        (false, Store::Dense) => suite::run_end_to_end::<Csr>(w, args.seed, seconds),
        (false, Store::Packed) => suite::run_end_to_end::<CompressedCsr>(w, args.seed, seconds),
        (true, Store::Dense) => {
            layers::run_layers::<Csr>(w, args.seed, seconds, args.trace_out.as_deref())
        }
        (true, Store::Packed) => {
            layers::run_layers::<CompressedCsr>(w, args.seed, seconds, args.trace_out.as_deref())
        }
    }
}

/// Prints the table for people and, last, the one-line JSON result.
/// Returns whether the run counts as correct.
fn report(w: &Workload, args: &Args, outcome: &Outcome) -> bool {
    let defs = table(args.trace);
    let mut complete = outcome.metrics.len() == defs.len();
    println!(
        "# {} seed {} seconds {} trace {}{}",
        w.name,
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "# {:<36} {:>18} {:<9} {:<6} {:<7} {:>7}",
        "metric", "value", "unit", "clock", "better", "samples"
    );
    let mut json = String::new();
    for def in defs {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == def.name) else {
            eprintln!("error: metric {} was not measured", def.name);
            complete = false;
            continue;
        };
        complete &= m.value.is_finite();
        println!(
            "  {:<36} {:>18} {:<9} {:<6} {:<7} {:>7}",
            def.name,
            m.value,
            def.unit,
            def.clock.label(),
            def.better,
            m.samples
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name, m.value, def.unit
        ));
    }
    let correct = complete && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all || args.aa.is_some() {
        return driver::run(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("error: --workload, --all or --aa is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(mut w) = Workload::find(name) else {
        eprintln!("error: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.smoke {
        w = w.smoke();
    }
    if args.check {
        if let Err(message) = driver::check_manifest() {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    let outcome = run_workload(&w, &args);
    if report(&w, &args, &outcome) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} checked searches failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
