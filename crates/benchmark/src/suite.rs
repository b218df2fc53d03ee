//! `benchmark suite`: every workload as its own child process — so
//! `peak_rss_mb` and the library's once-per-process kernel and thread
//! settings are per workload — repeated over consecutive seeds, plus one
//! traced run each, collected into one file `benchmark compare` reads.

use crate::metrics::{RunResult, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{parse_number, parse_options, DEFAULT_SECONDS, DEFAULT_SEED};

use cannikin::telemetry::Json;
use std::process::{Command, Stdio};

/// One child run as stored in a suite file.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRun {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub result: RunResult,
}

impl SuiteRun {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::num(self.seed as f64)),
            ("trace".into(), Json::num(f64::from(u8::from(self.traced)))),
            ("result".into(), self.result.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Result<SuiteRun, String> {
        let field = |key: &str| json.get(key).ok_or_else(|| format!("run is missing `{key}`"));
        Ok(SuiteRun {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: field("seed")?.as_u64().ok_or("`seed` is not a whole number")?,
            traced: field("trace")?.as_u64().ok_or("`trace` is not 0 or 1")? == 1,
            result: RunResult::from_json(field("result")?)?,
        })
    }
}

pub fn to_json(runs: &[SuiteRun]) -> Json {
    Json::Obj(vec![(
        "runs".into(),
        Json::Arr(runs.iter().map(SuiteRun::to_json).collect()),
    )])
}

pub fn from_json(json: &Json) -> Result<Vec<SuiteRun>, String> {
    let runs = json
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("suite file has no `runs` array")?;
    runs.iter().map(SuiteRun::from_json).collect()
}

/// Values of one end-to-end metric over a workload's untraced runs.
pub fn values(runs: &[SuiteRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.result.get(metric))
        .collect()
}

/// Re-run this executable for one workload; its result is the last line
/// of its stdout, its report goes to our stderr.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<SuiteRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and collects its stdout.
    let output = command.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: child exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed no result"))?;
    let result = RunResult::from_json(&Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?)?;
    Ok(SuiteRun {
        workload: workload.to_string(),
        seed,
        traced,
        result,
    })
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut seed, mut seconds, mut repeat, mut out, mut smoke) = (DEFAULT_SEED, DEFAULT_SECONDS, 3u64, None, false);
    for (key, value) in parse_options(args, &["smoke"])? {
        match key.as_str() {
            "seed" => seed = parse_number(&key, &value)?,
            "seconds" => seconds = parse_number(&key, &value)?,
            "repeat" => repeat = parse_number(&key, &value)?,
            "out" => out = Some(value),
            "smoke" => smoke = true,
            _ => return Err(format!("unknown option `--{key}`")),
        }
    }
    let mut runs = Vec::new();
    for (workload, _) in WORKLOADS {
        for r in 0..repeat {
            runs.push(child(workload, seed + r, seconds, false, smoke)?);
        }
        runs.push(child(workload, seed, seconds, true, smoke)?);
    }

    eprintln!(
        "\nsuite: {repeat} untraced run(s) per workload, seeds {seed}..{}",
        seed + repeat
    );
    eprintln!(
        "{:<14} {:<18} {:>16} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let v = values(&runs, workload, m.name);
            let (q1, q3) = quartiles(&v).unwrap_or((f64::NAN, f64::NAN));
            let spread = spread(&v).map_or_else(|| "-".to_string(), |s| format!("{:.1}%", s * 100.0));
            eprintln!(
                "{workload:<14} {:<18} {:>16.6} {q1:>16.6} {q3:>16.6} {spread:>8} {:>5.0}%",
                m.name,
                median(&v),
                m.bound * 100.0
            );
        }
    }
    if let Some(path) = out {
        std::fs::write(&path, to_json(&runs).to_string_compact() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("suite written to {path}");
    }
    let all_correct = runs.iter().all(|r| r.result.correct && r.result.failed == 0);
    if !all_correct {
        eprintln!("suite: at least one run failed its output checks");
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_file_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![("work_per_s".into(), 12.5, "1/s".into())],
        };
        let runs = vec![
            SuiteRun {
                workload: "sim-plan".into(),
                seed: 29,
                traced: false,
                result: result.clone(),
            },
            SuiteRun {
                workload: "sim-plan".into(),
                seed: 29,
                traced: true,
                result,
            },
        ];
        let text = to_json(&runs).to_string_compact();
        assert_eq!(
            from_json(&Json::parse(&text).expect("valid JSON")).expect("same shape"),
            runs
        );
        assert_eq!(
            values(&runs, "sim-plan", "work_per_s"),
            vec![12.5],
            "traced runs carry no end-to-end values"
        );
        assert!(from_json(&Json::parse("{}").expect("valid JSON")).is_err());
    }
}
