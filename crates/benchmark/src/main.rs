//! The layered benchmark of the Cannikin reproduction: four closed-loop
//! workloads from GEMM to fleet tick, each measured end to end with
//! tracing off and, in a separate traced run, layer by layer from spans
//! the benchmark records around its calls into the library.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; the result is the last stdout line
//! benchmark suite [--seed N] [--seconds S] [--repeat R] [--out FILE]   every workload, as child processes
//! benchmark compare A.json B.json   two suite files against the bounds
//! benchmark manifest   BENCHMARK.json, generated from the metric registry
//! ```
//!
//! See `README.md` for what each workload and metric is for.

mod compare;
mod fleet_stream;
mod inputs;
mod metrics;
mod real;
mod sim_plan;
mod spans;
mod stats;
mod suite;
mod sys;

use cannikin::dnn::tensor::{simd, threads};
use metrics::{Outcome, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How long one run measures, and whether it runs at smoke size.
#[derive(Debug, Clone)]
pub struct Budget {
    pub measure: Duration,
    /// Shrunken shapes and counts: every workload and its traced run end
    /// to end in seconds, so the probe rig cannot rot unnoticed.
    pub smoke: bool,
}

/// One run's command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

pub const DEFAULT_SEED: u64 = 29;
pub const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       benchmark suite [--seed N] [--seconds S] [--repeat R] [--out FILE] [--smoke]\n       benchmark compare A.json B.json",
        names.join("|")
    )
}

/// Parse `--key value` pairs; every key in `flags` takes no value.
pub fn parse_options(args: &[String], flags: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if flags.contains(&key) {
            out.push((key.to_string(), String::new()));
        } else {
            let value = it.next().ok_or_else(|| format!("`--{key}` needs a value"))?;
            out.push((key.to_string(), value.clone()));
        }
    }
    Ok(out)
}

pub fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`--{key} {value}` is not a valid number"))
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut run = RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        };
        for (key, value) in parse_options(args, &["smoke"])? {
            match key.as_str() {
                "workload" => run.workload = value,
                "seed" => run.seed = parse_number(&key, &value)?,
                "seconds" => run.seconds = parse_number(&key, &value)?,
                "trace" => {
                    run.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace {value}`: expected 0 or 1")),
                    }
                }
                "smoke" => run.smoke = true,
                _ => return Err(format!("unknown option `--{key}`")),
            }
        }
        if !WORKLOADS.iter().any(|w| w.0 == run.workload) {
            return Err(format!("unknown workload `{}`", run.workload));
        }
        if !(run.seconds > 0.0 && run.seconds <= 600.0) {
            return Err(format!("`--seconds {}` is outside (0, 600]", run.seconds));
        }
        Ok(run)
    }
}

/// Where build outputs live; the traced run's span file goes beside them.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// The machine and configuration a number was measured on.
fn print_header(run: &RunArgs) {
    // Σ1/s of the real workloads' fixed world [1, 2, 4].
    eprintln!(
        "benchmark: workload={} seed={} seconds={} trace={} smoke={} rev={} nproc={} kernel={} configured_threads={} world_busy_cores=1.75",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.traced),
        run.smoke,
        sys::git_revision(),
        sys::nproc(),
        simd::configured_kernel(),
        threads::configured_threads(),
    );
}

/// Run one workload in this process and lay its outcome out against the
/// registry.
pub fn run_workload(run: &RunArgs, recorder: &Recorder) -> Result<(Outcome, RunResult), String> {
    let budget = Budget {
        measure: Duration::from_secs_f64(run.seconds),
        smoke: run.smoke,
    };
    let real = |shape: real::Shape| match run.traced {
        true => real::run_traced(&shape, run.seed, &budget, recorder),
        false => real::run(&shape, run.seed, &budget),
    };
    let mut outcome = match (run.workload.as_str(), run.traced) {
        ("real-compute", _) => real(real::Shape::real_compute(run.smoke)),
        ("real-comm", _) => real(real::Shape::real_comm(run.smoke)),
        ("sim-plan", false) => sim_plan::run(run.seed, &budget),
        ("sim-plan", true) => sim_plan::run_traced(run.seed, &budget, recorder),
        ("fleet-stream", false) => fleet_stream::run(run.seed, &budget),
        ("fleet-stream", true) => fleet_stream::run_traced(run.seed, &budget, recorder),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }?;
    if !run.traced {
        outcome.set("peak_rss_mb", sys::peak_rss_mb()?);
    }
    let result = RunResult::from_outcome(&outcome, run.traced)?;
    Ok((outcome, result))
}

/// Every metric by name with its unit, direction and bound, then the
/// workload's own numbers and any failed check — on stderr, so the result
/// stays the last line of stdout.
fn print_report(outcome: &Outcome, result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        let (better, bound) = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.better, format!("may worsen {:.0}%", m.bound * 100.0)))
            .or_else(|| {
                PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| (m.better, String::new()))
            })
            .expect("results are laid out from the registry");
        eprintln!(
            "  {name:<40} {value:>16.6} {unit:<10} {} is better  {bound}",
            better.as_str()
        );
    }
    for (name, value, unit) in &outcome.notes {
        eprintln!("  ({name}: {value:.6} {unit})");
    }
    eprintln!(
        "  ops attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    for why in &outcome.violations {
        eprintln!("  CHECK FAILED: {why}");
    }
}

/// Self time by span name: where the traced run's wall time went.
fn print_self_times(recorder: &Recorder) {
    let spans = recorder.spans();
    let mut by_name: std::collections::BTreeMap<&str, (u64, usize)> = std::collections::BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(spans::self_times(&spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|&(_, (ns, _))| std::cmp::Reverse(ns));
    eprintln!("  self time by span name (all threads):");
    for (name, (ns, count)) in rows {
        eprintln!("    {name:<40} {:>12.3} ms over {count} span(s)", ns as f64 / 1e6);
    }
}

fn single_run(args: &[String]) -> Result<(), String> {
    let run = RunArgs::parse(args)?;
    print_header(&run);
    let recorder = Recorder::new();
    let (outcome, result) = run_workload(&run, &recorder)?;
    if run.traced {
        let path = target_dir().join(format!("trace-{}.jsonl", run.workload));
        recorder
            .write_jsonl(&path, &run.workload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("  spans written to {}", path.display());
        print_self_times(&recorder);
    }
    print_report(&outcome, &result);
    println!("{}", result.to_json().to_string_compact());
    Ok(())
}

fn main() -> ExitCode {
    // The builders resolve builder > env > default and CANNIKIN_SIMD /
    // CANNIKIN_THREADS are read from the environment only, so a stray
    // variable would change what is measured. Clear them before the
    // library is touched (no other thread exists yet).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CANNIKIN_") {
            std::env::remove_var(&key);
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; build with optimisation (see README.md)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("suite") => suite::main(&args[1..]),
        Some("manifest") => {
            println!("{}", metrics::manifest());
            Ok(true)
        }
        Some("--help" | "-h") | None => Err(usage()),
        Some(_) => single_run(&args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let run = RunArgs::parse(&strings(&[
            "--workload",
            "real-comm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            run,
            RunArgs {
                workload: "real-comm".into(),
                seed: 7,
                seconds: 10.0,
                traced: true,
                smoke: false
            }
        );
        let run = RunArgs::parse(&strings(&["--workload", "sim-plan", "--smoke"])).unwrap();
        assert_eq!(
            (run.seed, run.seconds, run.traced, run.smoke),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "sim-plan", "--trace", "2"],
            &["--workload", "sim-plan", "--seed"],
            &["--workload", "sim-plan", "--seconds", "0"],
            &["--workload", "sim-plan", "--frobnicate", "1"],
            &["sim-plan"],
            &[],
        ] {
            assert!(RunArgs::parse(&strings(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    /// Every workload and its traced run, end to end, at smoke size: the
    /// probe rig and the micro-probes call the public API and so break
    /// here first when it changes. One test, because the telemetry
    /// session and the TCP rendezvous are process-wide.
    #[test]
    fn smoke_every_workload_and_its_traced_run() {
        let started = std::time::Instant::now();
        for (workload, _) in WORKLOADS {
            for traced in [false, true] {
                let run = RunArgs {
                    workload: workload.into(),
                    seed: 3,
                    seconds: 0.6,
                    traced,
                    smoke: true,
                };
                let recorder = Recorder::new();
                let (outcome, result) =
                    run_workload(&run, &recorder).unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
                assert!(result.correct, "{workload} traced={traced}: {:?}", outcome.violations);
                assert!(result.attempted >= 1 && result.failed == 0);
                let expected = if traced { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(result.metrics.len(), expected);
                if traced {
                    let spans = recorder.spans();
                    assert!(!spans.is_empty(), "{workload}: the traced run recorded no span");
                    assert!(result.metrics.iter().any(|(_, v, _)| *v > 0.0));
                    let ids: std::collections::HashSet<usize> = spans.iter().map(|s| s.id).collect();
                    assert!(
                        spans.iter().all(|s| s.parent.is_none_or(|p| ids.contains(&p))),
                        "{workload}: dangling parent"
                    );
                }
            }
        }
        // `cargo test` builds unoptimised by default; the budget is the
        // optimised build's.
        assert!(
            cfg!(debug_assertions) || started.elapsed() < Duration::from_secs(10),
            "smoke took {:?}",
            started.elapsed()
        );
    }
}
