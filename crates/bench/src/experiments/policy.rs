//! Policy comparison experiment: the four ask/tell adaptation policies
//! ([`cannikin_core::policy`]) driving the *same* Cannikin engine across
//! the sim scenarios, so any goodput difference is attributable to the
//! policy alone. The cells come from the scenario runner under its pinned
//! seed, which keeps the table byte-stable across machines.

use crate::scenarios::{registry, run_cell, subjects};
use crate::{fmt, row};

/// Scenario ids the policy table sweeps: calm plus the two stretching
/// fault conditions every policy subject declares support for.
pub const POLICY_SCENARIOS: [&str; 3] = ["calm-baseline", "straggler-onset", "diurnal-contention"];

/// `(policy label, matrix subject)` of the policy lens, in
/// [`cannikin_core::policy::PolicyKind`] declaration order. Three of the
/// four policies *are* a named system of the matrix — the same engine
/// with that policy plugged in — so only the bandit needs its own subject.
pub const POLICY_SUBJECTS: [(&str, &str); 4] =
    [("optperf", "cannikin"), ("even", "adaptdl"), ("lbbsp", "lbbsp"), ("rl", "policy-rl")];

/// Rendered policy comparison (the `figures policy` experiment).
pub fn policy() -> String {
    let scenarios = registry();
    let all_subjects = subjects();
    let mut out = String::from(
        "Adaptation policies — one engine, four ask/tell brains (pinned seed)\n\n",
    );
    let widths = [20, 16, 8, 11, 9, 13];
    out += &row(
        &[
            "scenario".into(),
            "policy".into(),
            "epochs".into(),
            "goodput".into(),
            "t_target".into(),
            "final_batch".into(),
        ],
        &widths,
    );
    out.push('\n');
    for scenario_name in POLICY_SCENARIOS {
        let scenario = scenarios
            .iter()
            .find(|s| s.name == scenario_name)
            .expect("policy scenario registered");
        for (policy_label, subject_name) in POLICY_SUBJECTS {
            let subject = all_subjects
                .iter()
                .find(|s| s.name == subject_name)
                .expect("policy subject registered");
            let cell = run_cell(scenario, subject);
            let show = |name: &str| cell.metrics.get(name).copied().map(fmt).unwrap_or_else(|| "-".into());
            out += &row(
                &[
                    cell.scenario.clone(),
                    policy_label.to_string(),
                    show("epochs"),
                    show("goodput_eff_epochs_per_hour"),
                    show("time_to_target_s"),
                    show("final_total_batch"),
                ],
                &widths,
            );
            out.push('\n');
        }
    }
    out += "\nOptPerf is the paper's planner; `even`/`lbbsp` replay the §5.1\n\
            baseline rules through the Cannikin engine; `rl` is the seeded\n\
            bandit (reward = realized goodput).\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table_covers_every_scenario_policy_pair() {
        let text = policy();
        for scenario in POLICY_SCENARIOS {
            assert!(text.contains(scenario), "missing scenario {scenario}");
        }
        for subject in ["optperf", "even", "lbbsp", "rl"] {
            assert!(text.contains(subject), "missing policy {subject}");
        }
        // 1 header + 12 cells + prose: at least 13 table lines.
        assert!(text.lines().count() >= 13);
    }
}
