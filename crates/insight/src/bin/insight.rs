//! `cannikin-insight` — replay and report on recorded JSONL telemetry
//! traces.
//!
//! ```text
//! cannikin-insight <trace.jsonl> [--only-rank N]
//! cannikin-insight report <trace.jsonl> [--html PATH] [--only-rank N]
//! ```
//!
//! The first form loads a trace (as exported via
//! `CANNIKIN_TELEMETRY=jsonl:/path` or `telemetry::export::write_jsonl`),
//! reconstructs per-node and per-plan timelines, runs the anomaly
//! detectors over it, and prints the calibration + anomaly report. Exits
//! 0 when the trace is healthy, 1 on usage or parse errors, 2 when
//! anomalies were found (so scripts can gate on run health).
//!
//! The `report` form renders the fleet mission-control report instead:
//! per-job allocation timelines, SLO compliance against the default
//! fleet objectives, and the anomaly list — as deterministic text on
//! stdout plus, with `--html`, a self-contained single-file HTML page.
//! Exits 0 on success and 1 on usage or parse errors; a violation or an
//! anomaly is reported, not an error.

use cannikin_insight::{default_fleet_slos, replay, report, InsightConfig};
use cannikin_telemetry::export::parse_jsonl;
use cannikin_telemetry::Record;
use std::process::ExitCode;

const USAGE: &str = "usage: cannikin-insight <trace.jsonl> [--only-rank N]\n       cannikin-insight report <trace.jsonl> [--html PATH] [--only-rank N]";

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let mut path = None;
    let mut html = None;
    let mut only_rank = None;
    let mut report_mode = false;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("report") {
        report_mode = true;
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only-rank" => {
                let value = args.next().ok_or("--only-rank needs a value")?;
                let rank = value.parse::<u32>().map_err(|e| format!("bad --only-rank `{value}`: {e}"))?;
                only_rank = Some(rank);
            }
            "--html" if report_mode => {
                html = Some(args.next().ok_or("--html needs a path")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let mut records = load(&path.ok_or(USAGE)?)?;
    if let Some(rank) = only_rank {
        records.retain(|r| r.rank == rank);
    }

    if report_mode {
        let fleet = report::build(&records, &default_fleet_slos());
        print!("{}", fleet.render_text());
        if let Some(html_path) = html {
            std::fs::write(&html_path, fleet.render_html())
                .map_err(|e| format!("cannot write `{html_path}`: {e}"))?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let report = replay::analyze(&records, InsightConfig {});
    print!("{}", report.render());
    Ok(if report.anomalies.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cannikin-insight: {message}");
            ExitCode::FAILURE
        }
    }
}
