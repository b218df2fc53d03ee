//! Scenario-matrix experiment (the test PR): render the capability-tagged
//! evaluation matrix — the registry, then every compatible (scenario,
//! subject) cell under the pinned seed — as the table the `figures
//! scenarios` experiment prints. The structured form lives in
//! [`crate::scenarios`]; `BENCH_scenarios.json` commits it and `gate
//! scenarios` diffs CI runs against it.

use crate::scenarios::{registry, scenario_report, subjects, Capability};
use crate::{fmt, row};

fn tags(caps: &[Capability]) -> String {
    caps.iter().map(|c| c.label()).collect::<Vec<_>>().join(",")
}

/// Rendered scenario matrix (the `figures scenarios` experiment).
pub fn scenarios() -> String {
    let mut out = String::from("scenarios (requires):\n");
    for s in registry() {
        out += &format!("  {:<20} [{}]  {}\n", s.name, tags(&s.requires), s.description);
    }
    out += "\nsubjects (provides):\n";
    for s in subjects() {
        out += &format!("  {:<20} [{}]  {}\n", s.name, tags(&s.provides), s.description);
    }
    let report = scenario_report();
    out += &format!("\nScenario matrix — {} compatible cells (seed {})\n\n", report.cells.len(), report.seed);
    let widths = [20, 16, 8, 11, 9, 7, 11, 13];
    out += &row(
        &[
            "scenario".into(),
            "subject".into(),
            "epochs".into(),
            "goodput".into(),
            "t_target".into(),
            "faults".into(),
            "recoveries".into(),
            "comm_bytes".into(),
        ],
        &widths,
    );
    out.push('\n');
    for cell in &report.cells {
        let metric = |name: &str| cell.metrics.get(name).copied();
        let show = |name: &str| metric(name).map(fmt).unwrap_or_else(|| "-".into());
        out += &row(
            &[
                cell.scenario.clone(),
                cell.subject.clone(),
                show("epochs"),
                show("goodput_eff_epochs_per_hour"),
                show("time_to_target_s"),
                show("faults"),
                show("recoveries"),
                show("comm_bytes"),
            ],
            &widths,
        );
        out.push('\n');
    }
    out += "\nadaptive vs static goodput (cannikin / strongest static subject):\n";
    for (scenario, ratio) in &report.ratios {
        out += &format!("  {scenario}: {ratio:.2}x\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::matrix;

    #[test]
    fn rendered_matrix_covers_every_cell_and_all_ratios_hold() {
        let text = scenarios();
        let cells = matrix();
        // Header + one line per cell before the ratio block.
        for (scenario, subject) in &cells {
            assert!(text.contains(scenario.name), "missing scenario {}", scenario.name);
            assert!(text.contains(subject.name), "missing subject {}", subject.name);
        }
        assert!(text.contains("adaptive vs static"));
    }
}
