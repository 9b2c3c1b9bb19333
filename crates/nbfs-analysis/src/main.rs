//! CLI entry point: `cargo run -p nbfs-analysis -- <command>`.
//!
//! Commands:
//! * `check [--root DIR] [--json PATH|-] [--sarif PATH|-] [--file PATH
//!   --as REL]` — run the invariant linter; exit 0 when clean, 1 on
//!   findings, 2 on usage/IO errors. `--file/--as` lints one file under a
//!   pretend workspace path (fixture mode; no allowlist). `--sarif`
//!   writes SARIF 2.1.0 for code-scanning upload.
//! * `race [--full]` — run the exhaustive interleaving checker's fast
//!   profile (plus the big scenarios with `--full`); exit 0 when every
//!   schedule linearizes *and* the lost-update mutant is caught.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use nbfs_analysis::checker::{
    check_scenario, corpus, full_profile_corpus, regression_corpus, run_schedule,
    sequential_outcomes, CheckOutcome, Engine, FAST_CAP, FULL_CAP,
};
use nbfs_analysis::{check_single_file, check_workspace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("race") => cmd_race(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
nbfs-analysis — workspace invariant linter and exhaustive race checker

USAGE:
    nbfs-analysis check [--root DIR] [--json PATH|-] [--sarif PATH|-]
                        [--file PATH --as REL]
    nbfs-analysis race  [--full]

check exits 0 when the tree is clean, 1 on findings, 2 on errors.
race  exits 0 when all schedules linearize and the mutant is caught.
";

fn cmd_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json: Option<String> = None;
    let mut sarif: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut pretend: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_err("--root needs a value"),
            },
            "--json" => match it.next() {
                Some(v) => json = Some(v.clone()),
                None => return usage_err("--json needs a path (or - for stdout)"),
            },
            "--sarif" => match it.next() {
                Some(v) => sarif = Some(v.clone()),
                None => return usage_err("--sarif needs a path (or - for stdout)"),
            },
            "--file" => match it.next() {
                Some(v) => file = Some(PathBuf::from(v)),
                None => return usage_err("--file needs a value"),
            },
            "--as" => match it.next() {
                Some(v) => pretend = Some(v.clone()),
                None => return usage_err("--as needs a value"),
            },
            other => return usage_err(&format!("unknown argument `{other}`")),
        }
    }

    let report = match (&file, &pretend) {
        (Some(f), Some(rel)) => check_single_file(f, rel),
        (None, None) => check_workspace(&root),
        _ => return usage_err("--file and --as must be used together"),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nbfs-analysis: error: {e}");
            return ExitCode::from(2);
        }
    };

    if json.as_deref() == Some("-") && sarif.as_deref() == Some("-") {
        return usage_err("--json - and --sarif - both claim stdout");
    }
    let stdout_taken = json.as_deref() == Some("-") || sarif.as_deref() == Some("-");
    if let Some(dest) = sarif.as_deref() {
        let rendered = report.render_sarif();
        if dest == "-" {
            print!("{rendered}");
        } else if let Err(e) = std::fs::write(dest, rendered) {
            eprintln!("nbfs-analysis: error: writing {dest}: {e}");
            return ExitCode::from(2);
        }
    }
    match json.as_deref() {
        Some("-") => print!("{}", report.render_json()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.render_json()) {
                eprintln!("nbfs-analysis: error: writing {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => {}
    }
    // The human summary always renders; it moves to stderr when a
    // machine format owns stdout.
    if stdout_taken {
        eprint!("{}", report.render_human());
    } else {
        print!("{}", report.render_human());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_race(args: &[String]) -> ExitCode {
    let full = match args {
        [] => false,
        [a] if a == "--full" => true,
        _ => return usage_err("race accepts only --full"),
    };

    let mut ok = true;

    // 1. Every fast-profile scenario must linearize under the real engine.
    for s in corpus() {
        match check_scenario(&s, Engine::Atomic, FAST_CAP) {
            CheckOutcome::Linearizable {
                schedules,
                witnesses,
            } => println!(
                "ok   {:<32} {schedules} schedules, {witnesses} sequential witnesses",
                s.name
            ),
            CheckOutcome::Violation(v) => {
                println!("FAIL {:<32} {v}", s.name);
                ok = false;
            }
            CheckOutcome::CapExceeded { needed, cap } => {
                println!("FAIL {:<32} needs {needed} schedules, cap {cap}", s.name);
                ok = false;
            }
        }
    }

    // 2. The lost-update mutant must be *caught* — a checker that cannot
    // see the bug it was built for is itself broken.
    let merge = &corpus()[1];
    match check_scenario(merge, Engine::LostUpdateMutant, FAST_CAP) {
        CheckOutcome::Violation(v) => {
            println!("ok   mutant-detection                   caught: {v}");
        }
        other => {
            println!("FAIL mutant-detection                   mutant escaped: {other:?}");
            ok = false;
        }
    }
    for (scenario, schedule) in regression_corpus() {
        let witnesses = sequential_outcomes(&scenario);
        let outcome = run_schedule(&scenario, Engine::LostUpdateMutant, &schedule);
        if witnesses.contains(&outcome) {
            println!(
                "FAIL regression {:<21} schedule {schedule:?} no longer exposes the mutant",
                scenario.name
            );
            ok = false;
        } else {
            println!(
                "ok   regression {:<21} schedule {schedule:?} exposes the mutant",
                scenario.name
            );
        }
    }

    // 3. Optional full exhaustive profile.
    if full {
        for s in full_profile_corpus() {
            match check_scenario(&s, Engine::Atomic, FULL_CAP) {
                CheckOutcome::Linearizable {
                    schedules,
                    witnesses,
                } => println!(
                    "ok   {:<32} {schedules} schedules, {witnesses} sequential witnesses",
                    s.name
                ),
                other => {
                    println!("FAIL {:<32} {other:?}", s.name);
                    ok = false;
                }
            }
        }
    }

    if ok {
        println!("nbfs-analysis race: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("nbfs-analysis race: FAILURES");
        ExitCode::FAILURE
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("nbfs-analysis: error: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
