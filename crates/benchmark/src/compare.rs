//! `benchmark compare A.json B.json`: two suite files, per workload and
//! end-to-end metric, against the registry's direction and bound.

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::suite::{self, SuiteRun};

use cannikin::telemetry::Json;

/// Traced-run counts that repeat exactly for a seed; a difference between
/// two sets of the same commit means a run was not deterministic.
const EXACT: [(&str, &str); 3] = [
    ("real-compute", "collectives.wire_bytes_per_sample"),
    ("sim-plan", "sim.time_to_target_s"),
    ("fleet-stream", "fleet.decisions"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// B's median is better than A's by more than the bound.
    Improved,
    /// Within the bound, and both sets are steadier than the bound.
    Unchanged,
    /// Within the bound, but a set's own run-to-run spread exceeds it (or
    /// a set has a single run, so its spread is unknown).
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "regression",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's median by which B's median is worse (negative: better).
pub fn worse_by(metric: &EndToEnd, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worse_by(metric, a, b);
    let steady = |v: &[f64]| spread(v).is_some_and(|s| s <= metric.bound);
    if worse > metric.bound {
        Verdict::Regression
    } else if !(steady(a) && steady(b)) {
        Verdict::Unresolved
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Vec<SuiteRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    suite::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?).map_err(|e| format!("{path}: {e}"))
}

fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    format!("{:>14.6} [{:>14.6} {:>14.6}] n={}", median(v), q1, q3, v.len())
}

/// `Ok(false)` when any pair regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs exactly two suite files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0;
    println!(
        "{:<14} {:<16} {:<11} {:>8}  A: median [q1 q3]  |  B: median [q1 q3]",
        "workload", "metric", "verdict", "worse by"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (suite::values(&a, workload, m.name), suite::values(&b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{}: a file has no untraced run", m.name));
            }
            let v = verdict(m, &va, &vb);
            regressions += usize::from(v == Verdict::Regression);
            println!(
                "{workload:<14} {:<16} {:<11} {:>7.1}%  {}  |  {}",
                m.name,
                v.as_str(),
                worse_by(m, &va, &vb) * 100.0,
                summary(&va),
                summary(&vb)
            );
        }
    }
    for (workload, metric) in EXACT {
        let traced = |runs: &[SuiteRun]| {
            runs.iter()
                .find(|r| r.workload == workload && r.traced)
                .map(|r| (r.seed, r.result.get(metric)))
        };
        if let (Some((seed_a, Some(x))), Some((seed_b, Some(y)))) = (traced(&a), traced(&b)) {
            if seed_a == seed_b {
                let same = if x.to_bits() == y.to_bits() {
                    "identical"
                } else {
                    "DIFFERS"
                };
                println!("{workload:<14} {metric:<36} {same}: {x} vs {y} (seed {seed_a})");
            }
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: EndToEnd = EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const LOWER: EndToEnd = EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    };

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(verdict(&HIGHER, &base, &scaled(0.85)), Verdict::Regression);
        assert_eq!(verdict(&HIGHER, &base, &scaled(0.95)), Verdict::Unchanged);
        assert_eq!(verdict(&HIGHER, &base, &scaled(1.2)), Verdict::Improved);
        assert_eq!(verdict(&LOWER, &base, &scaled(1.3)), Verdict::Regression);
        assert_eq!(verdict(&LOWER, &base, &scaled(1.2)), Verdict::Unchanged);
        assert_eq!(verdict(&LOWER, &base, &scaled(0.7)), Verdict::Improved);
        assert!((worse_by(&HIGHER, &base, &scaled(0.85)) - 0.15).abs() < 1e-12);
        assert!((worse_by(&LOWER, &base, &scaled(0.7)) + 0.3).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_or_single_run_set_is_unresolved_not_unchanged() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&HIGHER, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&HIGHER, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(verdict(&HIGHER, &steady, &[100.0]), Verdict::Unresolved);
        // A median beyond the bound is still a regression, however noisy.
        assert_eq!(verdict(&HIGHER, &steady, &noisy.map(|v| v * 0.5)), Verdict::Regression);
    }
}
