//! Record a pinned fleet run as a JSONL telemetry trace — the input the
//! `cannikin-insight report` subcommand (and the CI report-determinism
//! gate) consumes.
//!
//! ```text
//! fleettrace --out PATH [--seed N] [--jobs N]
//! ```
//!
//! The summary line counts the violations of [`default_fleet_slos`] (the
//! rule set the `report` subcommand judges) and the anomalies, both over
//! the drained trace. Record timestamps are wall-clock and differ between
//! runs; everything the report renders derives from payload fields, so
//! two same-seed traces produce byte-identical reports.

use cannikin_bench::experiments::fleet_pool;
use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController};
use cannikin_insight::{analyze, default_fleet_slos, replay_slos, InsightConfig};
use cannikin_telemetry::{self as telemetry, export};
use std::process::ExitCode;

const USAGE: &str = "usage: fleettrace --out PATH [--seed N] [--jobs N]";

struct Args {
    out: String,
    seed: u64,
    jobs: usize,
}

/// The parsed flags, or `None` when `--help` asked for the usage line.
fn parse_args() -> Result<Option<Args>, String> {
    let mut out = None;
    let mut seed = 7u64;
    let mut jobs = 6usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--out" => out = Some(value("--out")?),
            "--seed" => {
                let raw = value("--seed")?;
                seed = raw.parse().map_err(|_| format!("--seed: `{raw}` is not a u64"))?;
            }
            "--jobs" => {
                let raw = value("--jobs")?;
                jobs = raw.parse().map_err(|_| format!("--jobs: `{raw}` is not a count"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Some(Args { out: out.ok_or("need --out PATH")?, seed, jobs }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fleettrace: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let trace = synthetic_trace(args.seed, args.jobs, 30.0);
    let mut controller = match FleetController::new(fleet_pool(), trace, AllocPolicy::Cannikin) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fleettrace: invalid fleet: {e}");
            return ExitCode::from(2);
        }
    };

    let session = telemetry::Session::start();
    if let Err(e) = controller.run_to_completion(50_000) {
        eprintln!("fleettrace: fleet run failed: {e}");
        return ExitCode::from(2);
    }
    let records = session.drain();
    drop(session);

    if let Err(e) = export::write_jsonl(args.out.as_ref(), &records) {
        eprintln!("fleettrace: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!(
        "fleettrace: seed {} → {} records, {} slo violations, {} anomalies → {}",
        args.seed,
        records.len(),
        replay_slos(&records, &default_fleet_slos()).violations.len(),
        analyze(&records, InsightConfig {}).anomalies.len(),
        args.out
    );
    ExitCode::SUCCESS
}
