//! The `cannikin-insight` replay CLI, driven as a real subprocess: exit
//! codes gate on run health (0 healthy, 1 usage/parse error, 2 anomalies;
//! `report` exits 0 on success) and the report text carries the verdicts.

use cannikin_telemetry::export::write_jsonl;
use cannikin_telemetry::{Counter, Event, Record, RegimeChange, StepTiming};
use std::path::PathBuf;
use std::process::Command;

fn timing(step: u64, b: u64, t: f64) -> Event {
    Event::StepTiming(StepTiming { step, rank: 0, b_i: b, t_compute: t, t_comm: 0.0, overlap: 0.0 })
}

/// A synthetic single-node trace following `t = 0.01·b + 0.05`; when
/// `slowed`, five trailing steps at twice the law and the analyzer's
/// `regime_change` verdict on the fifth.
fn trace(name: &str, slowed: bool) -> PathBuf {
    let law = |b: f64| 0.01 * b + 0.05;
    let mut records = Vec::new();
    let mut step = 0u64;
    for _ in 0..8 {
        for b in [32u64, 48] {
            records.push(Record { ts_ns: step * 1_000, node: 0, rank: 0, event: timing(step, b, law(b as f64)) });
            step += 1;
        }
    }
    if slowed {
        for _ in 0..5 {
            records.push(Record {
                ts_ns: step * 1_000,
                node: 0,
                rank: 0,
                event: timing(step, 32, 2.0 * law(32.0)),
            });
            step += 1;
        }
        let verdict = RegimeChange { node: 0, b_i: 32, expected: law(32.0), observed: 2.0 * law(32.0) };
        records.push(Record { ts_ns: step * 1_000, node: 0, rank: 0, event: Event::RegimeChange(verdict) });
    }
    write(name, &records)
}

fn write(name: &str, records: &[Record]) -> PathBuf {
    let dir = std::env::temp_dir().join("cannikin-insight-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    write_jsonl(&path, records).expect("write trace");
    path
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_insight")).args(args).output().expect("spawn CLI");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn healthy_trace_exits_zero_with_no_anomalies() {
    let path = trace("healthy.jsonl", false);
    let (code, stdout, _) = run(&[path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("anomalies: 0\n"), "{stdout}");
    assert!(stdout.contains("step_timing"), "{stdout}");
}

#[test]
fn straggling_trace_exits_two_and_names_the_straggler() {
    let path = trace("straggler.jsonl", true);
    let (code, stdout, _) = run(&[path.to_str().unwrap()]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("anomalies: 1\n  [straggler] step 20 node 0 "), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

/// A post-mortem of a plain export: a violation is a finding, not an error.
#[test]
fn report_over_a_violating_trace_exits_zero_and_lists_the_violation() {
    let records: Vec<Record> = [5.0, 0.2, 4.0]
        .into_iter()
        .enumerate()
        .map(|(i, value)| Record {
            ts_ns: i as u64,
            node: 0,
            rank: 0,
            event: Event::Counter(Counter { name: "fleet_goodput".into(), value }),
        })
        .collect();
    let path = write("goodput_dip.jsonl", &records);
    let (code, stdout, stderr) = run(&["report", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("goodput_floor at #2"), "{stdout}");
}

/// Verdicts are the report's output, never its input: a trace line that
/// claims to be one is not an event.
#[test]
fn a_recorded_verdict_line_is_an_unknown_event() {
    let dir = std::env::temp_dir().join("cannikin-insight-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verdict.jsonl");
    let line = r#"{"ts_ns":1,"node":0,"rank":0,"type":"anomaly","kind":"straggler","anomaly_node":0,"step":4,"expected":1,"observed":2,"severity":2}"#;
    std::fs::write(&path, format!("{line}\n")).expect("write trace");
    let (code, _, stderr) = run(&[path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown event type `anomaly`"), "{stderr}");
}

#[test]
fn usage_and_parse_errors_exit_one() {
    let (code, _, stderr) = run(&[]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    let dir = std::env::temp_dir().join("cannikin-insight-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let garbage = dir.join("garbage.jsonl");
    std::fs::write(&garbage, "not json\n").expect("write garbage");
    let (code, _, stderr) = run(&[garbage.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
}

#[test]
fn a_hostile_line_exits_one_with_a_message() {
    let dir = std::env::temp_dir().join("cannikin-insight-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.jsonl");
    // Deep enough to overflow the stack of a parser without a depth limit.
    std::fs::write(&deep, "[".repeat(50_000) + "\n").expect("write deep line");
    let (code, _, stderr) = run(&[deep.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot parse") && stderr.contains("nesting deeper than 128"), "{stderr}");
}
