//! The regression-gate check type shared by every suite of the `gate`
//! binary.
//!
//! Each suite (`fleet`, `scenarios`) compares a fresh measurement
//! against a committed baseline and fails on regressions. This module
//! gives them one check type and one message format, so a failing CI run
//! always prints, for every offending metric, the current value, the
//! baseline it was compared against, and the threshold it violated — no
//! "gate failed" without the numbers to debug it.

use std::collections::BTreeMap;
use std::fmt;

use cannikin_telemetry::Json;

/// Which side of the limit is the passing side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The metric must stay **at or above** the limit (speedups, ratios).
    Floor,
    /// The metric must stay **at or below** the limit (errors, times).
    Ceiling,
}

/// One gated metric: the fresh measurement, the committed baseline, and
/// the derived limit it is held to.
#[derive(Debug, Clone)]
pub enum GateCheck {
    /// A metric that was measured and compared.
    Measured {
        /// Metric name as printed.
        name: String,
        /// Freshly measured value.
        current: f64,
        /// Committed baseline value.
        baseline: f64,
        /// Passing side of `limit`.
        bound: Bound,
        /// The limit derived from the baseline and tolerance.
        limit: f64,
        /// Allowed regression fraction the limit was derived with.
        tolerance: f64,
    },
    /// A metric with nothing to compare against (never fails the gate).
    Skipped {
        /// Metric name as printed.
        name: String,
        /// Why it was skipped.
        reason: String,
    },
}

impl GateCheck {
    /// A floor check: `current >= limit` passes.
    pub fn floor(name: impl Into<String>, current: f64, baseline: f64, limit: f64, tolerance: f64) -> Self {
        GateCheck::Measured { name: name.into(), current, baseline, bound: Bound::Floor, limit, tolerance }
    }

    /// A ceiling check: `current <= limit` passes.
    pub fn ceiling(name: impl Into<String>, current: f64, baseline: f64, limit: f64, tolerance: f64) -> Self {
        GateCheck::Measured { name: name.into(), current, baseline, bound: Bound::Ceiling, limit, tolerance }
    }

    /// A check with nothing to compare against (counts as passing).
    pub fn skipped(name: impl Into<String>, reason: impl Into<String>) -> Self {
        GateCheck::Skipped { name: name.into(), reason: reason.into() }
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        match self {
            GateCheck::Measured { name, .. } | GateCheck::Skipped { name, .. } => name,
        }
    }

    /// Whether this check passes the gate.
    pub fn passes(&self) -> bool {
        match self {
            GateCheck::Measured { current, bound: Bound::Floor, limit, .. } => current >= limit,
            GateCheck::Measured { current, bound: Bound::Ceiling, limit, .. } => current <= limit,
            GateCheck::Skipped { .. } => true,
        }
    }
}

/// The one-line report format. Every measured line carries current,
/// baseline, limit and tolerance; a failing line additionally names the
/// violated side, so the CI log alone is enough to diagnose a regression:
///
/// ```text
/// PASS goodput_vs_fifo: current 2.5000 vs baseline 2.6000 (floor 2.3400, tolerance 10%)
/// FAIL goodput_vs_fifo: current 1.9000 vs baseline 2.6000 — below floor 2.3400 (tolerance 10%)
/// SKIP goodput_vs_fifo: no baseline recorded (new metric)
/// ```
impl fmt::Display for GateCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateCheck::Skipped { name, reason } => write!(f, "SKIP {name}: {reason}"),
            GateCheck::Measured { name, current, baseline, bound, limit, tolerance } => {
                let side = match bound {
                    Bound::Floor => "floor",
                    Bound::Ceiling => "ceiling",
                };
                let tol = format!("tolerance {:.0}%", tolerance * 100.0);
                if self.passes() {
                    write!(f, "PASS {name}: current {current:.4} vs baseline {baseline:.4} ({side} {limit:.4}, {tol})")
                } else {
                    let violation = match bound {
                        Bound::Floor => "below",
                        Bound::Ceiling => "above",
                    };
                    write!(
                        f,
                        "FAIL {name}: current {current:.4} vs baseline {baseline:.4} — {violation} {side} {limit:.4} ({tol})"
                    )
                }
            }
        }
    }
}

/// Read and parse a committed baseline file. A missing or corrupt
/// baseline is the most common first-run failure, so every error spells
/// out where the file was expected and the exact command that regenerates
/// it.
pub fn load_baseline_json(path: &str, regen_command: &str) -> Result<Json, String> {
    let regen = format!("expected a committed baseline at `{path}`; regenerate with\n  {regen_command}");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}\n{regen}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}\n{regen}"))
}

/// Compare two metric maps under one bound and tolerance, producing one
/// check per metric seen on either side:
///
/// - a metric in both maps gates normally (floor `baseline·(1−tol)`,
///   ceiling `baseline·(1+tol)`);
/// - a **non-finite baseline** (NaN/∞ from a division in an old run)
///   cannot derive a limit and is skipped, not failed;
/// - a metric **missing from the current run** that the baseline has is a
///   *failing* check (recorded with a NaN current value, which passes
///   neither bound) — silently dropping a measurement must not pass CI;
/// - a metric **only in the current run** is skipped: adding a new
///   measurement never breaks the gate until the baseline is regenerated.
///
/// A zero baseline under a floor yields the trivial limit 0 — it gates
/// nothing but stays visible in the report.
pub fn compare_metric_maps(
    prefix: &str,
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    bound: Bound,
    tolerance: f64,
) -> Vec<GateCheck> {
    let mut checks = Vec::new();
    for (name, &base) in baseline {
        let label = format!("{prefix}{name}");
        if !base.is_finite() {
            checks.push(GateCheck::skipped(label, format!("baseline value {base} is not finite")));
            continue;
        }
        let limit = match bound {
            Bound::Floor => base * (1.0 - tolerance),
            Bound::Ceiling => base * (1.0 + tolerance),
        };
        let cur = current.get(name).copied().unwrap_or(f64::NAN);
        checks.push(match bound {
            Bound::Floor => GateCheck::floor(label, cur, base, limit, tolerance),
            Bound::Ceiling => GateCheck::ceiling(label, cur, base, limit, tolerance),
        });
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            checks.push(GateCheck::skipped(
                format!("{prefix}{name}"),
                "no baseline recorded (new metric)".to_string(),
            ));
        }
    }
    checks
}

/// Render every check (one line each) and report whether all passed.
pub fn render_all(checks: &[GateCheck]) -> (String, bool) {
    let mut out = String::new();
    let mut all_pass = true;
    for check in checks {
        out.push_str(&check.to_string());
        out.push('\n');
        all_pass &= check.passes();
    }
    (out, all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_line_format_is_stable() {
        let check = GateCheck::floor("goodput_vs_fifo", 2.5, 2.6, 2.34, 0.10);
        assert!(check.passes());
        assert_eq!(
            check.to_string(),
            "PASS goodput_vs_fifo: current 2.5000 vs baseline 2.6000 (floor 2.3400, tolerance 10%)"
        );
    }

    #[test]
    fn fail_line_names_the_violated_floor() {
        let check = GateCheck::floor("goodput_vs_fifo", 1.9, 2.6, 2.34, 0.10);
        assert!(!check.passes());
        assert_eq!(
            check.to_string(),
            "FAIL goodput_vs_fifo: current 1.9000 vs baseline 2.6000 — below floor 2.3400 (tolerance 10%)"
        );
    }

    #[test]
    fn fail_line_names_the_violated_ceiling() {
        let check = GateCheck::ceiling("comm_bytes", 0.05, 0.001, 0.01, 1.0);
        assert!(!check.passes());
        assert_eq!(
            check.to_string(),
            "FAIL comm_bytes: current 0.0500 vs baseline 0.0010 — above ceiling 0.0100 (tolerance 100%)"
        );
    }

    #[test]
    fn skipped_checks_always_pass() {
        let check = GateCheck::skipped("goodput_vs_fifo", "no baseline recorded (new metric)");
        assert!(check.passes());
        assert_eq!(check.to_string(), "SKIP goodput_vs_fifo: no baseline recorded (new metric)");
        assert_eq!(check.name(), "goodput_vs_fifo");
    }

    #[test]
    fn boundary_values_pass_on_both_sides() {
        assert!(GateCheck::floor("x", 2.0, 2.0, 2.0, 0.0).passes(), "exactly at the floor passes");
        assert!(GateCheck::ceiling("x", 2.0, 2.0, 2.0, 0.0).passes(), "exactly at the ceiling passes");
    }

    fn map(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn missing_baseline_file_names_the_path_and_regen_command() {
        let err = load_baseline_json("/nonexistent/BENCH_x.json", "cargo run --bin xgate -- --write-baseline …")
            .expect_err("missing file must error");
        assert!(err.contains("/nonexistent/BENCH_x.json"), "error names the path: {err}");
        assert!(err.contains("--write-baseline"), "error carries the regen command: {err}");
    }

    #[test]
    fn corrupt_baseline_is_invalid_json_not_a_panic() {
        let dir = std::env::temp_dir().join("cannikin-gate-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{not json").expect("write");
        let err = load_baseline_json(path.to_str().expect("utf8 path"), "regen-cmd").expect_err("must error");
        assert!(err.contains("invalid JSON"), "{err}");
        assert!(err.contains("regen-cmd"), "{err}");
    }

    #[test]
    fn metric_missing_from_current_fails_the_gate() {
        let checks =
            compare_metric_maps("cell/", &map(&[]), &map(&[("goodput", 10.0)]), Bound::Floor, 0.1);
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].passes(), "a dropped measurement must not pass: {}", checks[0]);
        assert_eq!(checks[0].name(), "cell/goodput");
    }

    #[test]
    fn metric_only_in_current_is_skipped_not_failed() {
        let checks =
            compare_metric_maps("cell/", &map(&[("new_metric", 5.0)]), &map(&[]), Bound::Floor, 0.1);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].passes(), "a new metric must not fail until the baseline is regenerated");
        assert!(matches!(checks[0], GateCheck::Skipped { .. }));
    }

    #[test]
    fn nan_baseline_is_skipped_not_compared() {
        let checks = compare_metric_maps(
            "",
            &map(&[("ratio", 1.0)]),
            &map(&[("ratio", f64::NAN)]),
            Bound::Floor,
            0.1,
        );
        assert_eq!(checks.len(), 1);
        assert!(matches!(checks[0], GateCheck::Skipped { .. }), "NaN baseline cannot derive a limit");
        assert!(checks[0].passes());
    }

    #[test]
    fn zero_baseline_floor_is_trivial_but_nan_current_still_fails() {
        let ok = compare_metric_maps("", &map(&[("faults", 0.0)]), &map(&[("faults", 0.0)]), Bound::Floor, 0.1);
        assert!(ok[0].passes(), "zero baseline floors at 0, any finite value passes");
        let bad =
            compare_metric_maps("", &map(&[("faults", f64::NAN)]), &map(&[("faults", 0.0)]), Bound::Floor, 0.1);
        assert!(!bad[0].passes(), "a NaN measurement passes no bound");
    }

    #[test]
    fn matched_metrics_gate_on_both_bounds() {
        let current = map(&[("goodput", 9.5), ("bytes", 110.0)]);
        let baseline = map(&[("goodput", 10.0), ("bytes", 100.0)]);
        let floors = compare_metric_maps("", &current, &baseline, Bound::Floor, 0.10);
        assert!(floors.iter().find(|c| c.name() == "goodput").expect("present").passes(), "9.5 >= 9.0");
        let ceilings = compare_metric_maps("", &current, &baseline, Bound::Ceiling, 0.05);
        assert!(!ceilings.iter().find(|c| c.name() == "bytes").expect("present").passes(), "110 > 105");
    }

    #[test]
    fn render_all_aggregates_and_reports_failure() {
        let checks = vec![
            GateCheck::floor("a", 2.0, 2.0, 1.8, 0.10),
            GateCheck::floor("b", 1.0, 2.0, 1.8, 0.10),
            GateCheck::skipped("c", "no baseline recorded (new metric)"),
        ];
        let (text, all_pass) = render_all(&checks);
        assert!(!all_pass, "one failing check fails the gate");
        assert_eq!(text.lines().count(), 3, "one line per check");
        assert!(text.lines().nth(1).expect("line").starts_with("FAIL b:"));
    }
}
