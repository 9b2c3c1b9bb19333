//! Modes that run the suite more than once: `--all`, `--aa N`, `--check`.
//!
//! Each workload run is a fresh process of this same binary, so `setup_s`
//! and `peak_rss_bytes` stay per-workload numbers.

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_spread, median};
use crate::{table, Args, DEFAULT_SECONDS};

/// Where the manifest lives, relative to the checkout root the benchmark is
/// run from.
const MANIFEST: &str = "BENCHMARK.json";

/// The largest bound the contract allows; `setup_s` gets it.
const MAX_BOUND: f64 = 0.25;

/// The result line of one child run.
struct Child {
    stdout: String,
    correct: bool,
    /// Values in the order of the run's metric table.
    values: Vec<f64>,
}

/// Runs one workload in a child process and parses its result line.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    let defs = table(trace);
    let metrics = result
        .get("metrics")
        .filter(|m| {
            m.as_object()
                .is_some_and(|entries| entries.len() == defs.len())
        })
        .ok_or_else(|| format!("{workload}: result does not carry {} metrics", defs.len()))?;
    let values = defs
        .iter()
        .map(|def| {
            metrics
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}: metric {} missing", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    Ok(Child {
        correct: correct && output.status.success(),
        stdout,
        values,
    })
}

/// `--all` and `--aa N`.
pub fn run(args: &Args) -> ExitCode {
    let outcome = match args.aa {
        Some(runs) => calibrate(args, runs),
        None => all(args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload once with `--trace 0` and once with `--trace 1`; the last
/// line merges the results.
fn all(args: &Args) -> Result<bool, String> {
    if args.check {
        check_manifest()?;
    }
    let mut correct = true;
    let mut merged = Vec::new();
    for w in &WORKLOADS {
        let mut parts = Vec::new();
        for trace in [false, true] {
            let run = child(args, w.name, args.seed, trace)?;
            print!("{}", run.stdout);
            correct &= run.correct;
            let fields: Vec<String> = table(trace)
                .iter()
                .zip(&run.values)
                .map(|(def, value)| format!("\"{}\": {value}", def.name))
                .collect();
            parts.push(fields.join(", "));
        }
        merged.push(format!(
            "\"{}\": {{\"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            w.name, parts[0], parts[1]
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"seed\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        merged.join(", ")
    );
    Ok(correct)
}

/// A/A calibration: `runs` seeds per workload on this one commit, the way the
/// benchmark's driver measures spread (distance between the first and third
/// quartile over the median), plus a repeat of seed 1 with either `--trace`
/// to assert that every exact metric reads the same twice.
fn calibrate(args: &Args, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut worst = vec![0.0f64; END_TO_END.len()];
    let chosen = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name));
    for w in chosen {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut first = Vec::new();
        for seed in 1..=runs as u64 {
            let run = child(args, w.name, seed, false)?;
            ok &= run.correct;
            for (column, value) in samples.iter_mut().zip(&run.values) {
                column.push(*value);
            }
            if seed == 1 {
                first = run.values;
            }
            eprintln!("# {} seed {seed} done", w.name);
        }
        println!("# {}: {runs} seeds, --seconds {}", w.name, args.seconds());
        println!(
            "# {:<22} {:>16} {:>16} {:>9} {:>9}",
            "metric", "median", "unit", "spread", "max-min"
        );
        for ((def, column), worst) in END_TO_END.iter().zip(&samples).zip(worst.iter_mut()) {
            let spread = iqr_spread(column);
            let mid = median(column);
            let range = column.iter().copied().fold(f64::MIN, f64::max)
                - column.iter().copied().fold(f64::MAX, f64::min);
            let by_seed: Vec<String> = column.iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "  {:<22} {:>16.6} {:>16} {:>8.2}% {:>8.2}%  [{}]",
                def.name,
                mid,
                def.unit,
                spread * 100.0,
                range / mid * 100.0,
                by_seed.join(" ")
            );
            *worst = worst.max(spread);
        }
        let again = child(args, w.name, 1, false)?;
        ok &= exact_agree(w.name, &END_TO_END, &first, &again.values);
        let layers = [child(args, w.name, 1, true)?, child(args, w.name, 1, true)?];
        ok &= layers[0].correct && layers[1].correct;
        ok &= exact_agree(w.name, &PER_LAYER, &layers[0].values, &layers[1].values);
    }

    // A bound is three times the widest spread any workload showed, never
    // under 5 % and never over the contract's cap; set-up gets the cap.
    let bounds: Vec<f64> = END_TO_END
        .iter()
        .zip(&worst)
        .map(|(def, &spread)| {
            if def.name == "setup_s" {
                MAX_BOUND
            } else {
                ((3.0 * spread * 100.0).ceil() / 100.0).clamp(0.05, MAX_BOUND)
            }
        })
        .collect();
    println!("# bounds: 3 x widest spread, within [0.05, {MAX_BOUND}]");
    for ((def, bound), spread) in END_TO_END.iter().zip(&bounds).zip(&worst) {
        println!(
            "  {:<22} widest spread {:>6.2}%  bound {bound}",
            def.name,
            spread * 100.0
        );
        if *spread > *bound {
            eprintln!(
                "error: {} spreads {:.1} %, more than any bound allowed: lengthen its phase",
                def.name,
                spread * 100.0
            );
            ok = false;
        } else if 3.0 * spread > *bound && def.name != "setup_s" {
            eprintln!(
                "warning: {} spreads {:.1} %, more than a third of its bound {bound}",
                def.name,
                spread * 100.0
            );
        }
    }
    if args.write_bounds && args.workload.is_some() {
        return Err("--write-bounds needs every workload: drop --workload".to_string());
    }
    if args.write_bounds && ok {
        std::fs::write(MANIFEST, manifest_json(&bounds))
            .map_err(|e| format!("cannot write {MANIFEST}: {e}"))?;
        println!("# wrote {MANIFEST}");
    }
    Ok(ok)
}

/// Whether every exact metric reads the same in two runs of one seed.
fn exact_agree(workload: &str, defs: &[MetricDef], a: &[f64], b: &[f64]) -> bool {
    let mut same = true;
    for ((def, a), b) in defs.iter().zip(a).zip(b) {
        if def.clock.exact() && a != b {
            eprintln!(
                "error: {workload}: exact metric {} read {a} then {b}",
                def.name
            );
            same = false;
        }
    }
    same
}

/// `BENCHMARK.json` as the metric tables and workloads define it, with the
/// given end-to-end bounds.
pub fn manifest_json(bounds: &[f64]) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |def: &MetricDef| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        )
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .zip(bounds)
        .map(|(def, bound)| format!("    {}, \"bound\": {bound}}}", metric(def)))
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|def| format!("    {}}}", metric(def)))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// `--check`: fails when `BENCHMARK.json` names a workload or metric this
/// binary does not emit, or lacks one it does, or disagrees on a unit,
/// direction, bound range or run length.
pub fn check_manifest() -> Result<(), String> {
    let text =
        std::fs::read_to_string(MANIFEST).map_err(|e| format!("cannot read {MANIFEST}: {e}"))?;
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("{MANIFEST} is not JSON: {e}"))?;
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{MANIFEST}: no list {key}"))
    };
    let text_of = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{MANIFEST}: an entry lacks {key}"))
    };

    let named: Vec<String> = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if named != ours {
        return Err(format!(
            "{MANIFEST} names workloads {named:?}, the benchmark runs {ours:?}"
        ));
    }
    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(DEFAULT_SECONDS) {
        return Err(format!(
            "{MANIFEST}: run_seconds is not the benchmark's default {DEFAULT_SECONDS}"
        ));
    }
    for (key, defs, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", &PER_LAYER[..], false),
    ] {
        let entries = list(key)?;
        for entry in entries {
            let name = text_of(entry, "name")?;
            let def = defs
                .iter()
                .find(|d| d.name == name)
                .ok_or_else(|| format!("{MANIFEST}: {key} names {name}, which is not emitted"))?;
            if text_of(entry, "unit")? != def.unit || text_of(entry, "better")? != def.better {
                return Err(format!("{MANIFEST}: {name} disagrees on unit or direction"));
            }
            let bound = entry.get("bound").and_then(Value::as_f64);
            let fits = match bound {
                Some(b) => bounded && b > 0.0 && b <= MAX_BOUND,
                None => !bounded,
            };
            if !fits {
                return Err(format!("{MANIFEST}: {name} has bound {bound:?}"));
            }
        }
        if let Some(def) = defs.iter().find(|d| {
            !entries
                .iter()
                .any(|e| text_of(e, "name").as_deref() == Ok(d.name))
        }) {
            return Err(format!("{MANIFEST}: {key} lacks {}", def.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_manifest_parses_and_names_every_metric_once() {
        let bounds = vec![0.1; END_TO_END.len()];
        let manifest: Value = serde_json::from_str(&manifest_json(&bounds)).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Value::as_str)
                        .expect("a name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads").len(), WORKLOADS.len());
        assert_eq!(names("end_to_end").len(), END_TO_END.len());
        let mut all = names("end_to_end");
        all.extend(names("per_layer"));
        all.extend(names("workloads"));
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used once");
        assert!(all.iter().all(|n| n.len() <= 64));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
    }
}
