//! The regression gate over the committed `BENCH_*.json` trajectories.
//!
//! ```text
//! gate <fleet|scenarios|all> [--baseline PATH] [--out PATH] [--max-regression FRAC] [--write-baseline PATH]
//! ```
//!
//! Each suite re-measures its report under its pinned seed, writes the
//! fresh JSON to `--out`, and fails if any gated number regressed more
//! than the allowed fraction against the committed baseline (default
//! `BENCH_<suite>.json` in the working directory). What is gated lives
//! next to each report (`FleetBenchReport::checks`,
//! `ScenarioBenchReport::checks`); this file is the table of suites and
//! the one command line around them. A PATH that is a directory means the
//! `BENCH_<suite>.json` inside it — the only form `all` accepts.
//!
//! Both suites are deterministic: simulated time, frame bytes, event
//! counts. Wall-clock speed belongs to the layered benchmark
//! (`BENCHMARK.json`, `crates/benchmark`), which repeats and pairs its
//! runs and so can tell a regression from a busy machine.
//!
//! With `--write-baseline` the fresh report is written to that path and
//! no comparison happens (how the committed baselines are produced).
//!
//! Exit status: 0 all checks pass, 1 a check failed, 2 usage error or an
//! unreadable baseline.

use cannikin_bench::experiments::{fleet_report, FleetBenchReport};
use cannikin_bench::gate::{load_baseline_json, render_all, GateCheck};
use cannikin_bench::scenarios::{scenario_report, ScenarioBenchReport};
use cannikin_telemetry::Json;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: gate <fleet|scenarios|all> [--baseline PATH] [--out PATH] [--max-regression FRAC] [--write-baseline PATH]";

/// One gated trajectory. Reports cross this table in the JSON form they
/// are committed in, so one `main` serves every suite.
struct Suite {
    /// Command-line name; the committed baseline is `BENCH_<name>.json`.
    name: &'static str,
    /// Default `--max-regression`.
    tolerance: f64,
    /// What the measurement does, for the progress line.
    measuring: &'static str,
    measure: fn() -> Json,
    /// `(fresh, baseline, tolerance)` → one check per gated number.
    checks: fn(&Json, &Json, f64) -> Result<Vec<GateCheck>, String>,
}

const SUITES: [Suite; 2] = [
    // Simulated time from seeded traces: the tight tolerance flags
    // scheduler behavior changes, not machine noise.
    Suite {
        name: "fleet",
        tolerance: 0.02,
        measuring: "replaying pinned fleet traces (3 policies each)",
        measure: || fleet_report().to_json(),
        checks: |fresh, base, tol| {
            Ok(FleetBenchReport::from_json(fresh)?.checks(&FleetBenchReport::from_json(base)?, tol))
        },
    },
    // Simulated time, frame bytes and event counts — no wall clock.
    Suite {
        name: "scenarios",
        tolerance: 0.02,
        measuring: "running the compatible scenario matrix (pinned seed)",
        measure: || scenario_report().to_json(),
        checks: |fresh, base, tol| {
            Ok(ScenarioBenchReport::from_json(fresh)?.checks(&ScenarioBenchReport::from_json(base)?, tol))
        },
    },
];

struct Args {
    suites: &'static [Suite],
    baseline: String,
    out: Option<String>,
    max_regression: Option<f64>,
    write_baseline: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let suites = match it.next().as_deref() {
        Some("all") => &SUITES[..],
        Some(name) => match SUITES.iter().position(|s| s.name == name) {
            Some(i) => &SUITES[i..=i],
            None => return Err(format!("unknown suite `{name}`")),
        },
        None => return Err("missing suite name".into()),
    };
    let mut args = Args { suites, baseline: ".".into(), out: None, max_regression: None, write_baseline: None };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--out" => args.out = Some(value("--out")?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")?),
            "--max-regression" => {
                let raw = value("--max-regression")?;
                let frac: f64 = raw.parse().map_err(|_| format!("--max-regression: `{raw}` is not a number"))?;
                if !(0.0..1.0).contains(&frac) {
                    return Err(format!("--max-regression must be in [0, 1), got {frac}"));
                }
                args.max_regression = Some(frac);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The file a PATH names for one suite: `BENCH_<suite>.json` inside it
/// when it is a directory, else the path itself.
fn file_for(path: &str, suite: &Suite) -> String {
    match Path::new(path) {
        dir if dir.is_dir() => dir.join(format!("BENCH_{}.json", suite.name)).display().to_string(),
        _ => path.to_string(),
    }
}

/// `Ok(all checks passed)`, or the message to exit 2 with.
fn run(argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let outputs = || args.write_baseline.iter().chain(args.out.iter());
    if args.suites.len() > 1 {
        if let Some(file) = outputs().chain([&args.baseline]).find(|p| !Path::new(p).is_dir()) {
            return Err(format!("`{file}` is not a directory: `all` keeps one BENCH_<suite>.json per suite"));
        }
    }
    let regen = |suite: &Suite, path: &str| {
        format!("cargo run --release -p cannikin-bench --bin gate -- {} --write-baseline {path}", suite.name)
    };

    // Baselines load before anything is measured, so a missing or corrupt
    // one fails in a second rather than after the whole matrix has run.
    let mut baselines = Vec::new();
    if args.write_baseline.is_none() {
        for suite in args.suites {
            let path = file_for(&args.baseline, suite);
            let json = load_baseline_json(&path, &regen(suite, &path))?;
            baselines.push((path, json));
        }
    }

    let mut all_pass = true;
    for (i, suite) in args.suites.iter().enumerate() {
        eprintln!("gate {}: {}...", suite.name, suite.measuring);
        let fresh = (suite.measure)();
        for target in outputs() {
            let path = file_for(target, suite);
            std::fs::write(&path, format!("{}\n", fresh.to_string_compact()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("gate {}: wrote {path}", suite.name);
        }
        let Some((path, base)) = baselines.get(i) else { continue };
        let checks = (suite.checks)(&fresh, base, args.max_regression.unwrap_or(suite.tolerance))
            .map_err(|e| format!("{path}: {e}\n{}", regen(suite, path)))?;
        let (rendered, pass) = render_all(&checks);
        print!("{rendered}");
        if pass {
            println!("gate {}: all checks within tolerance", suite.name);
        } else {
            eprintln!("gate {}: regressed against the committed baseline", suite.name);
        }
        all_pass &= pass;
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one suite's checks on a fresh/baseline pair of report texts and
    /// hold each named check to the verdict its line must open with.
    fn expect(suite: &str, fresh: &str, base: &str, verdicts: &[(&str, &str)]) {
        let suite = SUITES.iter().find(|s| s.name == suite).expect("suite in the table");
        let (fresh, base) = (Json::parse(fresh).expect("fresh"), Json::parse(base).expect("base"));
        let checks = (suite.checks)(&fresh, &base, suite.tolerance).expect("both reports parse");
        for (name, verdict) in verdicts {
            let line = checks.iter().find(|c| c.name() == *name).unwrap_or_else(|| panic!("no check `{name}`"));
            assert!(line.to_string().starts_with(verdict), "expected {verdict}: {line}");
        }
    }

    /// Each suite's checks on a hand-built baseline and an edited copy of
    /// it — nothing is measured.
    #[test]
    fn each_suite_gates_what_its_binary_did() {
        let policy = |goodput: f64| format!(r#"{{"makespan_s":100,"goodput":{goodput},"queue_delay_s":1,"fairness":0.5}}"#);
        let fleet = |cannikin: f64| {
            let (ours, theirs) = (policy(cannikin), policy(100.0));
            format!(r#"{{"traces":[{{"seed":7,"cannikin":{ours},"fifo":{theirs},"static":{theirs}}}]}}"#)
        };
        let cell = |subject: &str| {
            format!(r#"{{"scenario":"churn","subject":"{subject}","metrics":{{"goodput_eff_epochs_per_hour":100,"comm_bytes":10}}}}"#)
        };
        let scenarios = |cells: &[String], ratio: f64| {
            format!(r#"{{"seed":29,"cells":[{}],"ratios":{{"churn":{ratio}}}}}"#, cells.join(","))
        };

        // A ratio below 1.0 fails even though the baseline was lower still.
        expect(
            "fleet",
            &fleet(95.0),
            &fleet(90.0),
            &[("s7.goodput_vs_fifo", "FAIL"), ("s7.makespan_vs_fifo", "PASS"), ("s7.fairness", "PASS")],
        );
        // The same 1.0 floor, and a vanished cell fails `.present`.
        expect(
            "scenarios",
            &scenarios(&[cell("cannikin")], 0.95),
            &scenarios(&[cell("cannikin"), cell("ddp")], 0.9),
            &[("churn.adaptive_vs_static", "FAIL"), ("churn/ddp.present", "FAIL"), ("churn/cannikin.comm_bytes", "PASS")],
        );
    }

    #[test]
    fn bad_invocations_exit_2_before_measuring() {
        let run = |args: &[&str]| run(args.iter().map(|a| a.to_string())).expect_err("must not run");
        assert!(run(&["bogus"]).contains(USAGE), "an unknown suite prints the usage");
        assert!(run(&["perf"]).contains("unknown suite `perf`"), "the wall-clock suite is retired");
        assert!(run(&["fleet", "--max-regression", "2"]).contains("[0, 1)"));
        let missing = run(&["fleet", "--baseline", "/nonexistent/BENCH_fleet.json"]);
        assert!(missing.contains("--bin gate -- fleet --write-baseline /nonexistent/BENCH_fleet.json"), "{missing}");
        assert!(run(&["all", "--baseline", "/nonexistent/BENCH_fleet.json"]).contains("not a directory"));
    }
}
